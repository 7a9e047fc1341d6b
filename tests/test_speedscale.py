import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import learner_oracle
import rtdlab
from rtdlab import learner
from rtdlab.errors import ConfigError, SingularSystem
from rtdlab.learner import LearnerConfig, StepSchedule, run, substream
from rtdlab.meanflow import spectral_report
from rtdlab.speedscale import (MomentCheck, SpeedScalingEnv, SpeedScalingModel,
                               estimate_noise_covariance, estimate_stats,
                               gamma_moment_check, simulate_speed_scaling)


@pytest.fixture(scope="module")
def model():
    return SpeedScalingModel()


class TestModel:
    def test_gamma_parameters(self, model):
        # unique solution of shape*scale = 5, shape*scale^2 = 10
        assert model.arrival_mean == pytest.approx(5.0)
        assert model.arrival_variance == pytest.approx(10.0)

    def test_cost(self, model):
        assert model.cost(np.array(2.0), np.array(1.0)) == pytest.approx(2 + 5.0)

    def test_feature_vector(self, model):
        x, u = 4.0, 2.0
        psi = model.features(x, u)
        assert psi.shape == (4,)
        assert psi[0] == pytest.approx(4 + 5 * 4.0)
        assert psi[1] == pytest.approx(8.0)
        assert psi[2] == pytest.approx(-(1 + 2.0) * 2.0)
        assert psi[3] == pytest.approx(1 - 2.0 / np.sqrt(5.0))

    def test_gain_bounds(self):
        with pytest.raises(ConfigError):
            SpeedScalingModel(service_gain=1.5)


class TestSimulation:
    def test_deterministic_per_seed(self, model):
        x1, u1, c1 = simulate_speed_scaling(model, 1000, 7)
        x2, u2, c2 = simulate_speed_scaling(model, 1000, 7)
        assert np.array_equal(x1, x2) and np.array_equal(c1, c2)

    def test_zero_arrivals_decay(self):
        # degenerate arrivals (scale 0): X decays geometrically at rate 1 - gain
        model = SpeedScalingModel(arrival_scale=0.0)
        x, u, c = simulate_speed_scaling(model, 10, 3)
        decay = 1.0 - model.service_gain
        expect = [model.x0]
        for _ in range(10):
            expect.append(decay * expect[-1])
        assert np.array_equal(x, expect)

    def test_matches_sequential_recursion(self, model):
        x, u, c = simulate_speed_scaling(model, 50, 11)
        rng = substream(11, 0)
        arrivals = rng.gamma(model.arrival_shape, model.arrival_scale, size=50)
        xs = model.x0
        for k in range(50):
            xs = (1 - model.service_gain) * xs + arrivals[k]
            assert x[k + 1] == xs

    def test_state_positive_and_mean(self, model):
        x, u, c = simulate_speed_scaling(model, 10 ** 6, 13)
        assert np.min(x) >= 0
        assert np.all(c >= 0)
        # fixed point of E X = (1 - gain) E X + arrival mean
        assert x.mean() == pytest.approx(model.arrival_mean / model.service_gain, abs=0.1)

    def test_moment_check(self, model):
        mc = gamma_moment_check(model, 10 ** 6, 5)
        assert isinstance(mc, MomentCheck)
        assert mc.mean_ok and mc.var_ok


class TestStats:
    def test_two_seeds_agree_within_error(self, model):
        s1 = estimate_stats(model, 10 ** 6, 1)
        s2 = estimate_stats(model, 10 ** 6, 2)
        # entrywise agreement within a loose multiple of the trajectory scale
        scale = np.abs(s1.r0) + np.abs(s2.r0) + 1.0
        assert np.max(np.abs(s1.r0 - s2.r0) / scale) < 0.05

    def test_relative_flow_more_stable_at_high_gamma(self, model):
        stats = estimate_stats(model, 10 ** 6, 3)
        m0 = np.min(np.abs(spectral_report(stats.mean_flow(0.99, 0.0)).eigenvalues.real))
        m1 = np.min(np.abs(spectral_report(stats.mean_flow(0.99, 1.0)).eigenvalues.real))
        assert m1 > m0

    def test_theta_star_solves_flow(self, model):
        stats = estimate_stats(model, 10 ** 5, 4)
        th = stats.theta_star(0.9, 1.0)
        resid = stats.mean_flow(0.9, 1.0) @ th + stats.b_vec
        assert np.max(np.abs(resid)) < 1e-8

    def test_noise_covariance_psd(self, model):
        stats = estimate_stats(model, 10 ** 5, 6)
        sig = estimate_noise_covariance(model, stats, 0.9, 1.0, 10 ** 5, 6, window=100)
        assert np.max(np.abs(sig - sig.T)) < 1e-8
        assert np.min(np.linalg.eigvalsh(sig)) > -1e-6 * np.max(np.abs(sig))

    def test_noise_covariance_needs_more_steps_than_its_window(self, model):
        stats = estimate_stats(model, 1000, 6)
        with pytest.raises(ConfigError):
            estimate_noise_covariance(model, stats, 0.9, 1.0, 100, 6, window=100)

    def test_singular_estimate_raises(self, model):
        with pytest.raises(SingularSystem):
            estimate_stats(model, 1, 6).theta_star(0.9, 0.0)


class TestEnv:
    def test_run_stays_bounded(self, model):
        # feature norms here reach ~1e4, so desk-scale steps must be tiny; the
        # run machinery is exercised for boundedness and determinism
        env = SpeedScalingEnv(model)
        stats = estimate_stats(model, 10 ** 5, 21)
        theta_star = stats.theta_star(0.9, 1.0)
        cfg = LearnerConfig(gamma=0.9, lam=0.0, step=StepSchedule(1e-5, 0.6),
                            variant="varpi_relative", delta_r=1.0, seed=22,
                            baseline_step_rho=0.51, theta0=theta_star)
        res = run(env, cfg, 20_000)
        assert np.all(np.isfinite(res.theta_pr))
        assert np.linalg.norm(res.theta_final - theta_star) < 10 * (1 + np.linalg.norm(theta_star))
        res2 = run(env, cfg, 20_000)
        assert np.array_equal(res.theta_final, res2.theta_final)

    def test_natural_mode_rejected(self, model):
        env = SpeedScalingEnv(model)
        cfg = LearnerConfig(gamma=0.9, lam=0.0, step=StepSchedule(1e-4, 0.6),
                            variant="td", eval_mode="natural", seed=1)
        with pytest.raises(ConfigError):
            run(env, cfg, 10)

    def test_stretches_continue_the_path(self, model):
        env = SpeedScalingEnv(model)
        whole = env.sample_path(500, "on_policy", substream(9, 0))
        rng, start, parts = substream(9, 0), None, []
        for k in (1, 0, 200, 299):
            parts.append(env.sample_path(k, "on_policy", rng, None, start))
            start = parts[-1].end
        assert np.array_equal(np.concatenate([p.cost for p in parts]), whole.cost)
        assert np.array_equal(np.concatenate([p.psi_target for p in parts]), whole.psi_target)
        # so a run cut into many blocks, its trace and baseline estimate
        # included, is the one-step oracle's fold over its whole path
        for lam in (0.0, 0.5):
            cfg = LearnerConfig(gamma=0.9, lam=lam, step=StepSchedule(1e-6, 0.6),
                                variant="varpi_relative", delta_r=1.0, seed=3,
                                baseline_step_rho=0.51)
            with mock.patch.multiple(learner, _RADIX=3, _BLOCK_STEPS=27):
                cut = run(env, cfg, 300)
                path = env.sample_path(300, "on_policy", substream(cfg.seed, 0))
                want = learner_oracle.iterates(cfg, path)[-1]
            assert np.array_equal(cut.theta_final, want)

    def test_on_policy_path_shapes(self, model):
        env = SpeedScalingEnv(model)
        path = env.sample_path(100, "on_policy", substream(9, 0))
        assert path.psi_states.shape == (101, 4)
        assert path.cost.shape == (100,)
        assert np.array_equal(path.psi_target, path.psi_states[1:])


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    code = ("import sys, rtdlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(rtdlab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
