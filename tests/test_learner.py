import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from rtdlab import learner, models
from rtdlab.asymptotics import noise_variant
from rtdlab.errors import ConfigError, MissingSplitSample, NumericalDivergence
from rtdlab.features import (FeatureMap, baseline_mean, feature_mean, feature_stats,
                             finite_poly_basis)
from rtdlab.learner import (VARIANTS, FiniteChainEnv, LearnerConfig, StepSchedule,
                            empirical_bias, empirical_clt_samples, run, run_many,
                            snapshot_indices, substream)
from rtdlab.markov import FiniteChain, FiniteMdp, RandomizedPolicy, build_chain
from rtdlab.speedscale import SpeedScalingEnv, SpeedScalingModel

from chain_helpers import loop_psi_avg
from learner_oracle import (Transition, beta, filter_step, initial_state, iterates,
                            pr_average, run_path, td_step, textbook_step, transitions,
                            tree_step)
from pair_oracle import build_noise_model


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


@pytest.fixture(scope="module")
def psi():
    return finite_poly_basis(3, 2)


@pytest.fixture(scope="module")
def env(chain, psi):
    return FiniteChainEnv(chain, psi)


def bare_chain(chain):
    """The chain's matrices without the policy ``build_chain`` recorded."""
    return FiniteChain(transition=chain.transition, cost_vec=chain.cost_vec,
                       stationary=chain.stationary)


SCHED = StepSchedule(0.02, 0.65)


def config(**kw):
    base = dict(gamma=0.99, lam=0.0, step=SCHED, seed=12)
    base.update(kw)
    return LearnerConfig(**base)


class TestStepSchedule:
    def test_cap_and_decay(self):
        s = StepSchedule(0.5, 0.65)
        assert s.alpha(1) == 0.5
        assert s.alpha(100) == pytest.approx(100 ** -0.65)
        al = s.alphas(100)
        assert al[0] == 0.5 and al[99] == s.alpha(100)

    def test_invalid_rho(self):
        with pytest.raises(ConfigError):
            StepSchedule(0.5, 0.4)

    @pytest.mark.parametrize("alpha0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_alpha0(self, alpha0):
        with pytest.raises(ConfigError):
            StepSchedule(alpha0, 0.65)


class TestConfigValidation:
    def test_variant_requirements(self, chain, psi):
        with pytest.raises(ConfigError):
            config(variant="relative_fixed_mu", delta_r=0.5)
        with pytest.raises(ConfigError):
            config(variant="varpi_relative_fixed", delta_r=0.5)
        with pytest.raises(ConfigError):
            config(variant="varpi_relative_fixed", delta_r=0.5,
                   psi_bar=np.zeros(3), lam=0.5)

    def test_trace_discount_product(self):
        with pytest.raises(ConfigError):
            config(lam=1.0, gamma=1.0)

    def test_baseline_gain_ordering(self):
        with pytest.raises(ConfigError):
            config(variant="varpi_relative", delta_r=0.5, baseline_step_rho=0.7)


class TestTdStep:
    def test_first_step_from_zero(self, env, psi):
        cfg = config()
        rng = substream(cfg.seed, 0)
        path = env.sample_path(1, "on_policy", rng)
        st = initial_state(cfg, psi.dim, path.psi_states[0])
        st1 = td_step(st, cfg, next(transitions(path)))
        expect = SCHED.alpha(1) * path.cost[0] * path.psi_states[0]
        assert np.array_equal(st1.theta, expect)

    def test_eligibility_accumulates(self, env, psi):
        cfg = config(lam=0.5, gamma=0.9)
        rng = substream(7, 0)
        path = env.sample_path(3, "on_policy", rng)
        st = initial_state(cfg, psi.dim, path.psi_states[0])
        zeta = np.zeros(psi.dim)
        for tr in transitions(path):
            st = td_step(st, cfg, tr)
            zeta = 0.45 * zeta + tr.psi
        assert np.allclose(st.zeta, zeta, atol=0, rtol=0)

    def test_linear_form_per_variant(self, chain, psi):
        # the lam = 0 update of every variant, at delta_r = 0 and 0.5, equals
        # theta + alpha (A(phi) theta + b(phi)) of the noise model noise_variant names
        stats = feature_stats(chain, psi)
        theta0 = np.random.default_rng(3).standard_normal(psi.dim)
        mu = baseline_mean(chain.stationary, psi)
        for variant, delta_r in itertools.product(VARIANTS, (0.0, 0.5)):
            nm, dr = noise_variant(variant, delta_r)
            noise = build_noise_model(chain, psi, 0.99, dr, nm)
            cfg = config(variant=variant, delta_r=delta_r, theta0=theta0,
                         psi_bar=stats.psi_bar if variant == "varpi_relative_fixed" else None,
                         mu=mu if variant == "relative_fixed_mu" else None)
            for z, zp in itertools.product((0, 3, 5), (1, 4)):
                st = initial_state(cfg, psi.dim, psi.matrix[z])
                st.psi_bar_est = stats.psi_bar.copy()
                tr = Transition(psi=psi.matrix[z], cost=float(chain.cost_vec[z]),
                                psi_target=psi.matrix[zp], psi_next=psi.matrix[zp])
                st1 = td_step(st, cfg, tr)
                expect = theta0 + SCHED.alpha(1) * (
                    noise.a_of_phi[z * 6 + zp] @ theta0 + noise.b_of_phi[z * 6 + zp])
                assert np.max(np.abs(st1.theta - expect)) < 1e-12, (variant, delta_r)


def tree(radix, depth):
    """Patch the learner to blocks of radix**depth steps scanned by trees of that radix."""
    return mock.patch.multiple(learner, _RADIX=radix, _BLOCK_STEPS=radix ** depth)


# (_RADIX, depth) of the trees the scan tests cover
TREES = [(2, 1), (2, 4), (3, 2), (3, 3), (8, 1), (8, 2), (8, 3)]
# block lengths as _batch cuts time for blocks of b steps and radix r: whole
# blocks, then a last one padded to the whole tree or to a smaller power
CUTS = {"one_block": lambda b, r: (b,),
        "three_blocks": lambda b, r: (b, b, b // r + 1),
        "short_last": lambda b, r: (b, max(1, b // r - 1)),
        "short_only": lambda b, r: (max(1, b - 1),)}


class TestLinearFilter:
    # each case runs the tree rule at every (_RADIX, depth) of TREES
    @pytest.mark.parametrize("gains", ["random", "constant", "first_zero"])
    @pytest.mark.parametrize("cuts", list(CUTS))
    def test_matches_segment_rule_fold(self, gains, cuts):
        for radix, depth in TREES:
            lengths = CUTS[cuts](radix ** depth, radix)
            k = sum(lengths)
            rng = np.random.default_rng(k)
            a = {"random": rng.random(k), "constant": np.full(k, 0.45),
                 # the baseline's gains 1 - beta_n with beta_1 = 1
                 "first_zero": 1.0 - np.arange(1, k + 1, dtype=float) ** -0.55}[gains]
            x = rng.standard_normal((k, 3, 2))
            y0 = rng.standard_normal((3, 2))
            got, carry, first = [], y0, 0
            with tree(radix, depth):
                for length in lengths:
                    gain = learner._tree_layout(a[first:first + length, None])
                    y = learner._linear_filter(gain, learner._tree_layout(x[first:first + length]),
                                               carry.T)
                    got.append(learner._step_layout(y, length))
                    carry, first = got[-1][-1], first + length
                got = np.concatenate(got)
                want, seq, y, z, state = [], [], y0, y0, None
                for n in range(k):
                    y, state = filter_step(state, n, float(a[n]), x[n], y)
                    z = a[n] * z + x[n]
                    want.append(y)
                    seq.append(z)
            assert np.array_equal(got, np.stack(want)), (radix, depth)
            # and the tree rule evaluates the sequential recursion to roundoff
            assert np.max(np.abs(got - np.stack(seq))) <= 1e-13 * np.max(np.abs(seq))


class TestAffineScan:
    @staticmethod
    def maps(kind, k, n_runs, rng):
        """A_n, b_n of k steps and n_runs runs: the learner's forms and random ones."""
        dim = 3
        zeta, h = rng.standard_normal((2, k, n_runs, dim))
        alpha = 0.05 * rng.random((k, 1, 1, 1))
        outer = zeta[..., :, None] * h[..., None, :]
        if kind == "fixed_term":
            # varpi_relative_fixed's -delta_r psi_bar psi_bar'
            psi_bar = rng.standard_normal(dim)
            outer = outer - 0.5 * np.outer(psi_bar, psi_bar)
        elif kind == "random":
            outer = rng.standard_normal((k, n_runs, dim, dim))
        b = alpha[..., 0] * rng.standard_normal((k, n_runs, 1)) * zeta
        return np.eye(dim) + alpha * outer, b

    # each case runs the tree rule at every (_RADIX, depth) of TREES
    @pytest.mark.parametrize("n_runs", [1, 3])
    @pytest.mark.parametrize("kind", ["td", "fixed_term", "random"])
    @pytest.mark.parametrize("cuts", list(CUTS))
    def test_matches_segment_rule_fold(self, kind, cuts, n_runs):
        for radix, depth in TREES:
            lengths = CUTS[cuts](radix ** depth, radix)
            k = sum(lengths)
            rng = np.random.default_rng([k, n_runs])
            a, b = self.maps(kind, k, n_runs, rng)
            y0 = rng.standard_normal((n_runs, 3))
            maps = np.concatenate([a, b[..., None]], axis=-1)
            got, carry, first = [], y0, 0
            with tree(radix, depth):
                for length in lengths:
                    block = learner._affine_scan(
                        learner._tree_layout(maps[first:first + length]), carry.T)
                    got.append(learner._step_layout(block, length))
                    carry, first = got[-1][-1], first + length
                got = np.concatenate(got)
                for r in range(n_runs):
                    want, seq, y, z, state = [], [], y0[r], y0[r], None
                    for n in range(k):
                        y, state = tree_step(state, n, a[n, r], b[n, r], y)
                        z = a[n, r] @ z + b[n, r]
                        want.append(y)
                        seq.append(z)
                    assert np.array_equal(got[:, r], np.stack(want)), (radix, depth)
                    # and the tree rule evaluates the sequential product to roundoff
                    assert np.max(np.abs(got[:, r] - np.stack(seq))) \
                        <= 1e-12 * np.max(np.abs(seq))


def short_blocks():
    """(radix, depth, k) for block lengths k short of the whole tree, at every entry of TREES."""
    for radix, depth in TREES:
        b = radix ** depth
        for k in sorted({1, 2, radix + 1, b // radix - 1, b - 1} & set(range(1, b))):
            yield radix, depth, k


def padded(x, kind, rng):
    """x (k, ...) padded in step order to its whole tree with zeros, copies of its
    last step or random values in [-1/2, 1/2)."""
    shape = (learner._tree_order(len(x)).size - len(x),) + x.shape[1:]
    pad = {"zeros": np.zeros(shape), "last": np.broadcast_to(x[-1], shape),
           "random": rng.uniform(-0.5, 0.5, shape)}[kind]
    return np.concatenate([x, pad])


class TestPadding:
    """A short block's steps do not depend on the finite values padding its tree."""

    @pytest.mark.parametrize("kind", ["zeros", "last", "random"])
    def test_linear_filter(self, kind):
        for radix, depth, k in short_blocks():
            rng = np.random.default_rng([radix, depth, k])
            a, x = rng.random((k, 3)), rng.standard_normal((k, 3, 2))
            carry = rng.standard_normal((2, 3))
            with tree(radix, depth):
                want = learner._linear_filter(learner._tree_layout(a),
                                              learner._tree_layout(x), carry)
                got = learner._linear_filter(learner._tree_layout(padded(a, kind, rng)),
                                             learner._tree_layout(padded(x, kind, rng)), carry)
                assert np.array_equal(learner._step_layout(got, k),
                                      learner._step_layout(want, k)), (radix, depth, k)

    @pytest.mark.parametrize("kind", ["zeros", "last", "random"])
    def test_affine_scan(self, kind):
        for radix, depth, k in short_blocks():
            rng = np.random.default_rng([radix, depth, k])
            a, b = TestAffineScan.maps("random", k, 2, rng)
            maps = np.concatenate([a, b[..., None]], axis=-1)
            carry = rng.standard_normal((3, 2))
            with tree(radix, depth):
                want = learner._affine_scan(learner._tree_layout(maps), carry)
                got = learner._affine_scan(learner._tree_layout(padded(maps, kind, rng)), carry)
                assert np.array_equal(learner._step_layout(got, k),
                                      learner._step_layout(want, k)), (radix, depth, k)


class TestRun:
    def test_matches_reference_stepper_bitwise(self, env):
        cfg = config(variant="varpi_relative", delta_r=0.5, lam=0.4, gamma=0.9,
                     step=StepSchedule(0.01, 0.65), seed=42)
        n = 400
        res = run(env, cfg, n)
        path = env.sample_path(n, cfg.eval_mode, substream(cfg.seed, 0))
        theta, theta_pr = run_path(cfg, path)
        assert np.array_equal(theta, res.theta_final)
        assert np.array_equal(theta_pr, res.theta_pr)

    def test_fixed_variant_matches_reference(self, env, psi, chain):
        stats = feature_stats(chain, psi)
        cfg = config(variant="varpi_relative_fixed", delta_r=0.5,
                     psi_bar=stats.psi_bar, seed=9)
        n = 300
        res = run(env, cfg, n)
        path = env.sample_path(n, cfg.eval_mode, substream(cfg.seed, 0))
        theta, theta_pr = run_path(cfg, path)
        assert np.array_equal(theta, res.theta_final)
        assert np.array_equal(theta_pr, res.theta_pr)

    def test_matches_reference_across_blocks(self, env):
        # a whole block of the default tree, then a last block padded to a smaller power
        cfg = config(variant="varpi_relative", delta_r=0.5, lam=0.4, gamma=0.9,
                     step=StepSchedule(0.01, 0.65), seed=43)
        n = learner._BLOCK_STEPS + 300
        res = run(env, cfg, n)
        path = env.sample_path(n, cfg.eval_mode, substream(cfg.seed, 0))
        theta, theta_pr = run_path(cfg, path)
        assert np.array_equal(theta, res.theta_final)
        assert np.array_equal(theta_pr, res.theta_pr)

    def test_deterministic_rerun(self, env):
        cfg = config(variant="varpi_relative", delta_r=0.5, seed=31)
        r1 = run(env, cfg, 2000, snapshot_plan=(500, 2000))
        r2 = run(env, cfg, 2000, snapshot_plan=(500, 2000))
        assert np.array_equal(r1.theta_final, r2.theta_final)
        assert np.array_equal(r1.theta_pr, r2.theta_pr)
        for s1, s2 in zip(r1.snapshots, r2.snapshots):
            assert s1.n == s2.n and np.array_equal(s1.theta, s2.theta)

    def test_distinct_run_indices_differ(self, env):
        cfg = config(seed=31)
        r0 = run(env, cfg, 500, run_index=0)
        r1 = run(env, cfg, 500, run_index=1)
        assert not np.array_equal(r0.theta_final, r1.theta_final)

    def test_delta_zero_reduction(self, env):
        r_td = run(env, config(variant="td", seed=5), 800)
        r_v = run(env, config(variant="varpi_relative", delta_r=0.0, seed=5), 800)
        assert np.array_equal(r_td.theta_final, r_v.theta_final)

    def test_pr_average_window(self, env):
        cfg = config(pr_burn_in_fraction=0.5, seed=3)
        res = run(env, cfg, 1000)
        assert res.pr_count == 501  # iterates 500 .. 1000

    def test_snapshots_recorded(self, env):
        cfg = config(seed=4)
        res = run(env, cfg, 1000, snapshot_plan=(200, 600, 1000))
        assert [s.n for s in res.snapshots] == [200, 600, 1000]
        assert res.snapshots[0].pr_count == 1  # averaging starts at n0 = 200
        assert res.snapshots[-1].pr_count == res.pr_count

    def test_divergence_raised(self):
        mdp, policy, psi_d, mu_neg, _ = models.unstable_demo()
        chain_d = build_chain(mdp, policy)
        env_d = FiniteChainEnv(chain_d, psi_d)
        cfg = LearnerConfig(gamma=0.999, lam=0.0, step=StepSchedule(2.0, 0.65),
                            variant="relative_fixed_mu", delta_r=1e-3, mu=mu_neg, seed=0)
        # a numpy RuntimeWarning from the overflow past the threshold fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergence, match=r"at step \d+") as single:
                run(env_d, cfg, 200_000)
            with pytest.raises(NumericalDivergence, match=r"^run \d+: .* at step \d+$") as batch:
                run_many(env_d, cfg, 200_000, 3)
        # the named step is the first iterate past the threshold
        step = int(re.search(r"at step (\d+)", str(single.value)).group(1))
        run(env_d, cfg, step - 1)
        with pytest.raises(NumericalDivergence):
            run(env_d, cfg, step)
        # ... and the named run crosses it there, no run crossing it earlier
        index, step = map(int, re.search(r"^run (\d+): .* at step (\d+)$",
                                         str(batch.value)).groups())
        run_many(env_d, cfg, step - 1, 3)
        with pytest.raises(NumericalDivergence, match=f"at step {step}$"):
            run(env_d, cfg, step, run_index=index)
        # at the CLI's default step cap the speed-scaling iterates pass the
        # threshold within a few steps and overflow long before the block ends
        env_s = SpeedScalingEnv(SpeedScalingModel())
        cfg_s = LearnerConfig(gamma=0.99, lam=0.0, step=StepSchedule(0.02, 0.65), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDivergence, match=r"^run 0: .* at step \d$"):
                run(env_s, cfg_s, 1000)

    def test_divergence_across_run_groups(self):
        # 3 runs scanned as two groups, (0, 1) and (2,): at this seed run 2
        # crosses the threshold first and run 1 later in the same block
        mdp, policy, psi_d, mu_neg, _ = models.unstable_demo()
        env_d = FiniteChainEnv(build_chain(mdp, policy), psi_d)
        cfg = LearnerConfig(gamma=0.999, lam=0.0, step=StepSchedule(2.0, 0.65),
                            variant="relative_fixed_mu", delta_r=1e-3, mu=mu_neg, seed=13)
        entries = 2 * learner._BLOCK_STEPS * env_d.dim ** 2
        with mock.patch.object(learner, "_BLOCK_ENTRIES", entries):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalDivergence,
                                   match=r"^run 2: .* at step \d+$") as grouped:
                    run_many(env_d, cfg, 200_000, 3)
            step = int(re.search(r"at step (\d+)", str(grouped.value)).group(1))
            run_many(env_d, cfg, step - 1, 3)
        with pytest.raises(NumericalDivergence) as whole:
            run_many(env_d, cfg, 200_000, 3)
        assert str(whole.value) == str(grouped.value)
        with pytest.raises(NumericalDivergence, match=f"at step {step}$"):
            run(env_d, cfg, step, run_index=2)
        # run 1 crosses later in the same block
        with pytest.raises(NumericalDivergence) as later:
            run(env_d, cfg, 200_000, run_index=1)
        later_step = int(re.search(r"at step (\d+)", str(later.value)).group(1))
        assert step < later_step
        assert step // learner._BLOCK_STEPS == later_step // learner._BLOCK_STEPS

    def test_memory_bounded_by_run_group(self, env):
        # the groups are stepped one after the other: four groups of runs
        # take no more memory than one
        group = learner._BLOCK_ENTRIES // (learner._BLOCK_STEPS * env.dim ** 2)
        peaks = []
        for n_runs in (group, 4 * group):
            tracemalloc.start()
            try:
                run_many(env, config(), learner._BLOCK_STEPS, n_runs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("n_runs", [4, "group"])
    @pytest.mark.parametrize("variant, lam, eval_mode", [
        ("varpi_relative_fixed", 0.0, "on_policy"), ("varpi_relative", 0.4, "split_sampling")])
    def test_peak_memory_is_one_block(self, env, chain, psi, n_runs, variant, lam, eval_mode):
        # a block's maps [A_n | b_n] and the inputs they are built from, psi(Z_n),
        # h_n, c(Z_n) and alpha_{n+1}, hold (d + 1)(d + 2) floats per run and
        # step, and nothing else of a block's size may be alive with them: the
        # bound leaves a quarter more for temporaries and the results (about
        # two blocks' arrays alive at once take 329-407 B here)
        if n_runs == "group":
            n_runs = learner._BLOCK_ENTRIES // (learner._BLOCK_STEPS * env.dim ** 2)
        cfg = config(variant=variant, lam=lam, eval_mode=eval_mode, delta_r=0.5,
                     psi_bar=feature_stats(chain, psi).psi_bar)
        run_many(env, cfg, 100, 1)
        tracemalloc.start()
        try:
            run_many(env, cfg, 20_000, n_runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_run_step = peak / (n_runs * learner._BLOCK_STEPS)
        assert per_run_step <= 1.25 * 8 * (env.dim + 1) * (env.dim + 2), per_run_step

    @pytest.mark.parametrize("eval_mode", ["on_policy", "natural", "split_sampling"])
    @pytest.mark.parametrize("variant", ["td", "relative_fixed_mu", "varpi_relative",
                                         "varpi_relative_fixed"])
    def test_matches_oracle_bitwise(self, env, chain, psi, variant, eval_mode):
        stats = feature_stats(chain, psi)
        lam = 0.0 if variant == "varpi_relative_fixed" else 0.3
        cfg = config(variant=variant, delta_r=0.5, lam=lam, eval_mode=eval_mode, seed=17,
                     mu=baseline_mean(chain.stationary, psi), psi_bar=stats.psi_bar,
                     theta0=np.array([0.1, -0.2, 0.3]))
        n = 300
        res = run(env, cfg, n, run_index=2)
        path = env.sample_path(n, eval_mode, substream(cfg.seed, 4), substream(cfg.seed, 5))
        theta, theta_pr = run_path(cfg, path)
        assert np.array_equal(theta, res.theta_final)
        assert np.array_equal(theta_pr, res.theta_pr)


    @pytest.mark.parametrize("eval_mode", ["on_policy", "natural", "split_sampling"])
    @pytest.mark.parametrize("variant", ["td", "relative_fixed_mu", "varpi_relative",
                                         "varpi_relative_fixed"])
    def test_matches_textbook_order(self, env, chain, psi, variant, eval_mode):
        # the update in the order it is written, D = c + gamma psi_target'theta
        # - psi'theta - correction, agrees with the affine form to roundoff
        stats = feature_stats(chain, psi)
        lam = 0.0 if variant == "varpi_relative_fixed" else 0.3
        cfg = config(variant=variant, delta_r=0.5, lam=lam, eval_mode=eval_mode, seed=23,
                     mu=baseline_mean(chain.stationary, psi), psi_bar=stats.psi_bar,
                     theta0=np.array([0.1, -0.2, 0.3]))
        n = 2000
        res = run(env, cfg, n, run_index=1)
        path = env.sample_path(n, eval_mode, substream(cfg.seed, 2), substream(cfg.seed, 3))
        theta, theta_pr = run_path(cfg, path, step=textbook_step)
        for got, want in ((res.theta_final, theta), (res.theta_pr, theta_pr)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stretches_continue_the_trajectory(self, env):
        # a path sampled in stretches, each from the last state of the one
        # before, is the path one call draws
        whole = env.sample_path(1000, "split_sampling", substream(8, 0), substream(8, 1))
        rng, split, start, parts = substream(8, 0), substream(8, 1), None, []
        for k in (1, 0, 400, 599):
            parts.append(env.sample_path(k, "split_sampling", rng, split, start))
            start = parts[-1].end
        states = [parts[0].z_traj[:1]] + [p.z_traj[1:] for p in parts]
        assert np.array_equal(np.concatenate(states), whole.z_traj)
        for key in ("cost", "psi_target"):
            assert np.array_equal(np.concatenate([getattr(p, key) for p in parts]),
                                  getattr(whole, key))


def sparse_chain(n_x, n_u, seed):
    """A random chain with zero-probability transitions and actions, built with its policy.

    Each state moves to the next with positive probability, so the chain is
    irreducible on states; the state-actions its policy never takes have
    zero columns in P, whose cumulative rows then repeat a sum.
    """
    rng = np.random.default_rng(seed)
    kernel = rng.gamma(1.0, 1.0, (n_u, n_x, n_x)) * (rng.random((n_u, n_x, n_x)) < 0.4)
    kernel[:, np.arange(n_x), (np.arange(n_x) + 1) % n_x] += 0.5
    probs = rng.gamma(1.0, 1.0, (n_x, n_u)) * (rng.random((n_x, n_u)) < 0.6)
    probs[:, 0] += 0.1
    mdp = FiniteMdp(n_x, n_u, kernel / kernel.sum(axis=2, keepdims=True),
                    rng.standard_normal((n_x, n_u)))
    return build_chain(mdp, RandomizedPolicy(probs / probs.sum(axis=1, keepdims=True)))


class Uniforms:
    """A generator stand-in that hands out the given uniforms in order."""

    def __init__(self, us):
        self.us = list(us)

    def random(self, size=None):
        if size is None:
            return self.us.pop(0)
        out, self.us = np.array(self.us[:size]), self.us[size:]
        return out


def edge_uniforms(chain):
    """Every finite cumulative sum of P and the doubles one ulp either side, in [0, 1)."""
    sums = np.cumsum(chain.transition, axis=1)[:, :-1].ravel()
    us = np.concatenate([[0.0], sums, np.nextafter(sums, -np.inf), np.nextafter(sums, np.inf)])
    return us[(us >= 0.0) & (us < 1.0)]


class TestTableSampler:
    """The per-bin next-state table against the bisect loop over the cumulative rows."""

    @staticmethod
    def envs(chain, psi):
        """The chain's environment by table and by bisection."""
        with mock.patch.object(learner, "_TABLE_ENTRIES", 1 << 20):
            table = FiniteChainEnv(chain, psi)
        with mock.patch.object(learner, "_TABLE_ENTRIES", 0):
            bisect = FiniteChainEnv(chain, psi)
        assert table._next is not None and bisect._next is None
        return table, bisect

    def test_one_step_from_every_state(self):
        # every state, every uniform at or next to a breakpoint
        chain = sparse_chain(4, 3, 1)
        assert np.any(chain.transition == 0.0)
        table, bisect = self.envs(chain, FeatureMap(np.eye(12)))
        us = edge_uniforms(chain)
        for z in range(chain.n_z):
            for u in us:
                assert table.sample_states(1, Uniforms([u]), z)[1] == \
                    bisect.sample_states(1, Uniforms([u]), z)[1], (z, u)

    @pytest.mark.parametrize("n_x, n_u", [(4, 3), (10, 4), (41, 1)])
    def test_walks_match_on_both_sides_of_the_bound(self, n_x, n_u):
        chain = sparse_chain(n_x, n_u, n_x)
        n = chain.n_z
        psi = FeatureMap(np.ones((n, 1)))
        # n_z = 40 is the largest chain with a table by default, 41 the least without
        assert (FiniteChainEnv(chain, psi)._next is not None) == \
            ((n * n - n + 1) * n <= learner._TABLE_ENTRIES)
        table, bisect = self.envs(chain, psi)
        rng = np.random.default_rng(n)
        us = edge_uniforms(chain)
        for start in rng.integers(0, n, 4):
            order = rng.permutation(len(us))
            want = bisect.sample_states(len(us), Uniforms(us[order]), int(start))
            assert np.array_equal(table.sample_states(len(us), Uniforms(us[order]), int(start)),
                                  want)
        for seed, k in itertools.product(range(5), (1, 7, 500, 4096)):
            want = bisect.sample_states(k, substream(seed, 0))
            assert want.dtype == np.int64
            for env in (table, bisect):
                # a stretch cut in pieces is the stretch one call draws
                rng, parts = substream(seed, 0), []
                for piece in (k // 3, 0, k - k // 3):
                    parts.append(env.sample_states(piece, rng, parts[-1][-1] if parts else None))
                got = np.concatenate([parts[0]] + [p[1:] for p in parts[1:]])
                assert np.array_equal(got, want), (seed, k)


class TestBinSearch:
    """The table sampler's bins from its cells against np.searchsorted."""

    @pytest.mark.parametrize("n_x, n_u", [(3, 2), (4, 3), (10, 4), (41, 1)])
    def test_bins_match_searchsorted(self, n_x, n_u):
        # chains with zero-probability transitions, n_z = 40 with a table by
        # default and n_z = 41 with one forced
        chain = models.finite_chain() if (n_x, n_u) == (3, 2) else sparse_chain(n_x, n_u, n_x)
        with mock.patch.object(learner, "_TABLE_ENTRIES", 1 << 20):
            env = FiniteChainEnv(chain, FeatureMap(np.ones((chain.n_z, 1))))
        sums = np.cumsum(chain.transition, axis=1)[:, :-1].ravel()
        breaks = np.array(sorted(set(sums.tolist())))
        assert np.array_equal(env._breaks, np.append(breaks, np.inf))
        assert len(env._cells) & (len(env._cells) - 1) == 0
        us = np.concatenate([edge_uniforms(chain), np.random.default_rng(n_x).random(4096)])
        assert np.array_equal(env._bins(us), np.searchsorted(breaks, us, side="right"))

    def test_crowded_cells_take_more_passes(self):
        # breakpoints closer than any cell of at most _MAX_CELLS
        gap = 1e-7
        p = np.array([[0.5, gap, gap, gap, gap, gap, gap, 0.5 - 6 * gap]] * 8)
        chain = FiniteChain(transition=p, cost_vec=np.zeros(8), stationary=p[0])
        env = FiniteChainEnv(chain, FeatureMap(np.ones((8, 1))))
        assert len(env._cells) == learner._MAX_CELLS and env._passes == 6
        us = np.concatenate([edge_uniforms(chain), 0.5 + gap * np.linspace(0, 7, 99)])
        assert np.array_equal(env._bins(us), np.searchsorted(env._breaks[:-1], us, side="right"))


class TestBlockRoute:
    """run_many's blocks of state indices against the per-run oracle on sample_path."""

    @pytest.mark.parametrize("n_runs", [1, 3])
    @pytest.mark.parametrize("eval_mode", ["on_policy", "natural", "split_sampling"])
    def test_finite_chain_matches_oracle(self, env, eval_mode, n_runs):
        cfg = config(variant="varpi_relative", delta_r=0.5, lam=0.4, eval_mode=eval_mode,
                     seed=29, step=StepSchedule(0.05, 0.65))
        self.check(env, cfg, 100, n_runs, lambda i: env.sample_path(
            100, eval_mode, substream(cfg.seed, 2 * i), substream(cfg.seed, 2 * i + 1)))

    @pytest.mark.parametrize("n_runs", [1, 3])
    @pytest.mark.parametrize("eval_mode", ["on_policy", "split_sampling"])
    def test_speed_scaling_matches_oracle(self, eval_mode, n_runs):
        env = SpeedScalingEnv(SpeedScalingModel())
        cfg = config(variant="varpi_relative", delta_r=1.0, lam=0.5, eval_mode=eval_mode,
                     seed=8, step=StepSchedule(1e-6, 0.6), baseline_step_rho=0.51)
        self.check(env, cfg, 100, n_runs,
                   lambda i: env.sample_path(100, eval_mode, substream(cfg.seed, 2 * i)))

    @staticmethod
    def check(env, cfg, n, n_runs, path):
        # trees of radix 3 and blocks of 27 steps: three whole blocks and a
        # short last one, and with three runs, groups of two runs and one
        entries = 2 * 27 * env.dim ** 2
        with mock.patch.multiple(learner, _RADIX=3, _BLOCK_STEPS=27, _BLOCK_ENTRIES=entries):
            results = run_many(env, cfg, n, n_runs, snapshot_plan=(40, n))
            for i, res in enumerate(results):
                thetas = iterates(cfg, path(i))
                theta_pr = pr_average(thetas, int(cfg.pr_burn_in_fraction * n))
                assert np.array_equal(res.theta_final, thetas[-1]), i
                assert np.array_equal(res.theta_pr, theta_pr), i
                assert np.array_equal(res.snapshots[0].theta, thetas[40]), i


class TestEvalModes:
    def test_natural_uses_policy_average(self, env, chain, psi):
        cfg = config(eval_mode="natural", seed=21)
        path = env.sample_path(50, "natural", substream(21, 0))
        nu = chain.policy.shape[1]
        for t in range(50):
            x_next = path.z_traj[t + 1] // nu
            expect = models.FINITE_EVAL_POLICY[x_next] @ psi.matrix[x_next * nu:(x_next + 1) * nu]
            assert np.allclose(path.psi_target[t], expect, atol=0, rtol=0)

    def test_split_sampling_stream_independent(self, env):
        path1 = env.sample_path(100, "split_sampling", substream(5, 0), substream(5, 1))
        path2 = env.sample_path(100, "split_sampling", substream(5, 0), substream(6, 1))
        assert np.array_equal(path1.z_traj, path2.z_traj)
        assert not np.array_equal(path1.psi_target, path2.psi_target)

    def test_split_actions_follow_policy(self, env, chain):
        # empirical split-action frequencies approach the policy
        n = 200_000
        path = env.sample_path(n, "split_sampling", substream(77, 0), substream(77, 1))
        nu = chain.policy.shape[1]
        x_next = path.z_traj[1:] // nu
        # recover the drawn action from the target feature row (u component)
        u_split = path.psi_target[:, 1].astype(int) - 1
        for x in range(3):
            mask = x_next == x
            frac = np.mean(u_split[mask] == 0)
            assert frac == pytest.approx(models.FINITE_EVAL_POLICY[x, 0], abs=0.01)

    def test_natural_requires_policy(self, chain, psi):
        env_bare = FiniteChainEnv(bare_chain(chain), psi)
        with pytest.raises(ConfigError):
            run(env_bare, config(eval_mode="natural"), 10)

    def test_policy_needs_the_state_action_layout(self, chain, psi):
        bare = bare_chain(chain)
        # a policy passed must be the chain's: the always-action-0 policy on
        # the 3x2 chain would average the natural targets over the wrong actions
        always_0 = np.tile([1.0, 0.0], (3, 1))
        for c, policy in ((bare, models.FINITE_EVAL_POLICY), (chain, np.full((4, 2), 0.5)),
                          (chain, always_0)):
            with pytest.raises(ConfigError, match="build_chain"):
                FiniteChainEnv(c, psi, policy=policy)
        FiniteChainEnv(chain, psi, policy=models.FINITE_EVAL_POLICY.copy())
        path = FiniteChainEnv(bare, psi).sample_path(10, "on_policy", substream(0, 0))
        assert np.array_equal(path.psi_target, psi.matrix[path.z_traj[1:]])

    def test_targets_average_over_the_chains_policy(self):
        # a 4 x 3 chain under a policy with zero entries: the natural targets are
        # the per-state loop's averages, and each split action the first u whose
        # cumulative policy reaches the split uniform
        rng = np.random.default_rng(25)
        kernel = rng.gamma(1.0, 1.0, (3, 4, 4))
        probs = rng.gamma(1.0, 1.0, (4, 3)) * (rng.random((4, 3)) < 0.6)
        probs[np.arange(4), [0, 2, 1, 2]] += 0.5
        policy = RandomizedPolicy(probs / probs.sum(axis=1, keepdims=True))
        mdp = FiniteMdp(4, 3, kernel / kernel.sum(axis=2, keepdims=True),
                        rng.standard_normal((4, 3)))
        psi = FeatureMap(rng.standard_normal((12, 3)))
        env = FiniteChainEnv(build_chain(mdp, policy), psi)
        natural = env.sample_path(500, "natural", substream(3, 0))
        x_next = natural.z_traj[1:] // 3
        assert natural.psi_target.tobytes() == loop_psi_avg(policy.probs, psi)[x_next].tobytes()
        split = env.sample_path(500, "split_sampling", substream(3, 0), substream(3, 1))
        assert np.array_equal(split.z_traj, natural.z_traj)
        want = []
        for x, us in zip(x_next, substream(3, 1).random(500)):
            cum = np.cumsum(policy.probs[x])
            want.append(next((u for u in range(3) if us <= cum[u]), 2))
        assert np.array_equal(split.psi_target, psi.matrix[x_next * 3 + np.array(want)])

    def test_unservable_mode_rejected_before_sampling(self, chain, psi, monkeypatch):
        env_bare = FiniteChainEnv(bare_chain(chain), psi)

        def fail(*args):
            raise AssertionError("path sampled before the eval mode was checked")

        monkeypatch.setattr(env_bare, "sample_states", fail)
        for mode in ("natural", "split_sampling", "no_such_mode"):
            with pytest.raises(ConfigError):
                env_bare.sample_path(10, mode, substream(0, 0), substream(0, 1))
        env_full = FiniteChainEnv(chain, psi)
        monkeypatch.setattr(env_full, "sample_states", fail)
        with pytest.raises(MissingSplitSample):
            env_full.sample_path(10, "split_sampling", substream(0, 0))

    def test_modes_share_mean_flow(self, env, chain, psi):
        # all three targets have the same conditional mean given Z_n; the
        # learned parameters stay near each other on a long run
        results = {}
        for mode in ("on_policy", "natural", "split_sampling"):
            cfg = config(eval_mode=mode, variant="varpi_relative", delta_r=0.5, seed=66)
            results[mode] = run(env, cfg, 60_000).theta_pr
        base = results["on_policy"]
        for mode in ("natural", "split_sampling"):
            assert np.linalg.norm(results[mode] - base) < 0.5 * (1 + np.linalg.norm(base))


class TestAdaptiveBaseline:
    def test_estimate_converges_to_feature_mean(self, env, chain, psi):
        cfg = config(variant="varpi_relative", delta_r=0.5, seed=51)
        n = 200_000
        path = env.sample_path(n, "on_policy", substream(cfg.seed, 0))
        est = path.psi_states[0].copy()
        for t in range(n):
            est = est + beta(cfg, t + 1) * (path.psi_states[t + 1] - est)
        expect = feature_mean(chain, psi)
        assert np.max(np.abs(est - expect)) < 0.05 * np.max(np.abs(expect))


class TestMedianConvergence:
    def test_pr_distance_shrinks_with_horizon(self, env, chain, psi):
        # stable configuration: median distance to theta* decreases over a
        # horizon grid (desk-scale version of the long-run invariant)
        from rtdlab.meanflow import mean_flow_relative
        flow = mean_flow_relative(chain, psi, 0.9, 0.0, 0.5)
        meds = []
        for n in (1000, 10_000, 100_000):
            dists = []
            for i in range(10):
                cfg = config(gamma=0.9, variant="varpi_relative", delta_r=0.5,
                             seed=606, theta0=None)
                dists.append(np.linalg.norm(run(env, cfg, n, run_index=i).theta_pr
                                            - flow.theta_star))
            meds.append(np.median(dists))
        assert meds[0] > meds[1] > meds[2]


class TestEligibilityIdentity:
    def test_average_trace_matches_formula(self, env, chain, psi):
        # E[zeta] = psi_bar / (1 - lam*gamma) in steady state
        cfg = config(lam=0.5, gamma=0.9, variant="td", seed=13,
                     step=StepSchedule(0.01, 0.65))
        n = 100_000
        path = env.sample_path(n, "on_policy", substream(cfg.seed, 0))
        lg = 0.45
        zeta = np.zeros(psi.dim)
        acc = np.zeros(psi.dim)
        for t in range(n):
            zeta = lg * zeta + path.psi_states[t]
            acc += zeta
        expect = feature_mean(chain, psi) / (1 - lg)
        assert np.max(np.abs(acc / n - expect)) < 0.05 * np.max(np.abs(expect))


class TestSnapshotIndices:
    def test_endpoints(self):
        idx = snapshot_indices(800_000, 1_000_000, 0.65, 5)
        assert idx[0] == 800_000 and idx[-1] == 1_000_000
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert len(idx) == 5

    def test_small_rho_is_uniform(self):
        idx = snapshot_indices(0 + 100, 200, 0.51, 3)
        # tau-scale spacing approaches arithmetic as rho -> 0.5 from above
        assert idx == sorted(set(idx))

    def test_formula_value(self):
        rho = 0.65
        idx = snapshot_indices(10_000, 100_000, rho, 4)
        e = 1 - rho
        lo, hi = 10_000 ** e, 100_000 ** e
        expect = [int(round((lo + i / 3 * (hi - lo)) ** (1 / e))) for i in range(4)]
        assert idx == expect

    def test_validation(self):
        with pytest.raises(ValueError):
            snapshot_indices(10, 10, 0.65, 3)
        with pytest.raises(ValueError):
            snapshot_indices(1, 10, 0.65, 1)


class TestEmpiricalEstimators:
    def test_bias_identical_runs_zero(self, env):
        theta_star = np.array([1.0, 2.0, 3.0])
        runs = [run(env, config(seed=2), 100) for _ in range(3)]
        fake = [r.__class__(theta_final=theta_star, theta_pr=r.theta_pr,
                            snapshots=(), n_steps=r.n_steps, seed=r.seed,
                            run_index=r.run_index, pr_count=r.pr_count) for r in runs]
        eb = empirical_bias([r.theta_final for r in fake], theta_star, 0.01)
        assert np.array_equal(eb.value, np.zeros(3))

    def test_bias_constructed_offset(self, env):
        theta_star = np.zeros(3)
        v = np.array([1.0, -2.0, 0.5])
        alpha = 0.003
        base = run(env, config(seed=2), 50)
        fake = [base.__class__(theta_final=theta_star + alpha * v, theta_pr=base.theta_pr,
                               snapshots=(), n_steps=50, seed=0, run_index=i, pr_count=1)
                for i in range(4)]
        eb = empirical_bias([r.theta_final for r in fake], theta_star, alpha)
        assert np.allclose(eb.value, v, atol=1e-12)

    def test_clt_identical_runs_zero(self, env):
        base = run(env, config(seed=2), 50)
        theta_star = base.theta_pr
        samples = empirical_clt_samples([base, base], theta_star)
        assert np.max(np.abs(samples)) < 1e-14

    def test_clt_snapshot_source(self, env):
        cfg = config(seed=44)
        plan = snapshot_indices(400, 1000, 0.65, 3)
        runs = run_many(env, cfg, 1000, 4, snapshot_plan=tuple(plan))
        samples = empirical_clt_samples(runs, np.zeros(3), source="snapshots")
        assert samples.shape[0] > len(runs)  # several snapshots per run

    def test_gaussian_synthetic_covariance(self):
        # synthetic generator oracle: sample covariance of sqrt(n)(mean - mu)
        rng = np.random.default_rng(10)
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        chol = np.linalg.cholesky(cov)
        m, n_eff = 1000, 400
        rows = []
        for i in range(m):
            # PR average of n_eff i.i.d. points with covariance cov
            xs = rng.standard_normal((n_eff, 2)) @ chol.T
            rows.append(np.sqrt(n_eff) * xs.mean(axis=0))
        sample_cov = np.cov(np.stack(rows).T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.2


class TestSubstreams:
    def test_independent_streams(self):
        a = substream(9, 0).random(5)
        b = substream(9, 2).random(5)
        c = substream(9, 0).random(5)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_distinct_master_seeds(self):
        assert not np.array_equal(substream(1, 0).random(5), substream(2, 0).random(5))
