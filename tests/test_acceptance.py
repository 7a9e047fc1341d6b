"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy Monte-Carlo experiments (criteria 7, 8) run once via module fixtures.
Statistical criteria run at fixed seeds.  README.md gives the pass rates of
criteria 7 and 8 on fresh seeds: criterion 8 fails on about 4 seeds in 10.
"""

import warnings

import numpy as np
import pytest

from rtdlab import models
from rtdlab.asymptotics import (VARIANT_FIXED_RELATIVE, VARIANT_TD0, VARIANT_VARPI_LIMIT,
                                asymptotics_report, sensitivity)
from rtdlab.errors import NumericalDivergence
from rtdlab.features import (autocorrelation, baseline_mean, feature_mean, feature_stats,
                             finite_poly_basis, resolvent_sum, tabular_basis)
from rtdlab.learner import (FiniteChainEnv, LearnerConfig, StepSchedule, empirical_bias,
                            run, run_many)
from rtdlab.markov import build_chain, discounted_q
from rtdlab.meanflow import (dirichlet_report, eigen_perturbation, eps_p, instability_probe,
                             mean_flow_relative, mean_flow_td_lambda, spectral_report)
from rtdlab.speedscale import SpeedScalingModel, estimate_stats, gamma_moment_check

from chain_helpers import finite_greedy_policy, solve_poisson, state_marginal
from pair_oracle import build_noise_model


def report(criterion: int, text: str):
    print(f"\nPASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


@pytest.fixture(scope="module")
def psi():
    return finite_poly_basis(3, 2)


@pytest.fixture(scope="module")
def env(chain, psi):
    return FiniteChainEnv(chain, psi)


def test_criterion_01_stationary_anchors(chain):
    pi_eval = state_marginal(chain)
    assert np.max(np.abs(pi_eval - np.array([85, 108, 315]) / 508)) < 1e-10
    eta_eval = solve_poisson(chain, chain.cost_vec).eta
    assert abs(eta_eval - 587 / 1016) < 1e-10
    greedy = build_chain(models.finite_mdp(), finite_greedy_policy())
    pi_greedy = state_marginal(greedy)
    assert np.max(np.abs(pi_greedy - np.array([1, 6, 6]) / 13)) < 1e-10
    eta_greedy = solve_poisson(greedy, greedy.cost_vec).eta
    assert abs(eta_greedy - 3 / 65) < 1e-10
    report(1, "stationary pmfs and average costs reproduce the published values")


def test_criterion_02_poisson_discount_consistency(chain):
    sol = solve_poisson(chain, chain.cost_vec)
    gamma = 0.999
    q = discounted_q(chain, gamma)
    err = np.max(np.abs(q - sol.eta / (1 - gamma) - sol.h))
    bound = 0.05 * np.max(np.abs(sol.h))
    assert err <= bound
    report(2, f"sup-norm gap {err:.2e} within {bound:.2e} at gamma=0.999")


GAMMA_GRID5 = (0.5, 0.8, 0.9, 0.99, 0.999)
LAMBDA_GRID4 = (0.0, 0.3, 0.5, 0.9)


def test_criterion_03_mean_flow_identity_suite(chain, psi):
    r0 = autocorrelation(chain, psi, 0)
    psi_bar = feature_mean(chain, psi)
    mu = baseline_mean(np.full(6, 1 / 6), psi)
    worst_ma, worst_rank1, worst_res = 0.0, 0.0, 0.0
    for gamma in GAMMA_GRID5:
        for lam in LAMBDA_GRID4:
            beta = lam * gamma
            varrho = gamma * (1 - lam) / (1 - beta)
            rep = dirichlet_report(chain, psi, beta)
            a0 = mean_flow_td_lambda(chain, psi, gamma, lam)
            worst_ma = max(worst_ma, float(np.max(np.abs(
                a0 + (1 - varrho) * r0 + varrho * rep.m_beta))))
            flow = mean_flow_relative(chain, psi, gamma, lam, 0.7, mu)
            corr = (0.7 / (1 - beta)) * np.outer(psi_bar, mu.psi_bar_mu)
            worst_rank1 = max(worst_rank1, float(np.max(np.abs(flow.a_bar - (a0 - corr)))))
            # truncation oracle for the resolvent sum at beta = lam*gamma
            d_psi = chain.stationary[:, None] * psi.matrix
            pk_psi = chain.transition @ psi.matrix
            total = np.zeros((3, 3))
            for k in range(400):
                total += beta ** k * (d_psi.T @ pk_psi)
                pk_psi = chain.transition @ pk_psi
            worst_res = max(worst_res, float(np.max(np.abs(
                resolvent_sum(chain, psi, beta) - total))))
    assert worst_ma < 1e-10
    assert worst_rank1 < 1e-12
    assert worst_res < 1e-10
    # high-beta truncation check at the spec's K = 1e4 tolerance
    beta = 0.99
    d_psi = chain.stationary[:, None] * psi.matrix
    pk_psi = chain.transition @ psi.matrix
    total = np.zeros((3, 3))
    for k in range(10_000):
        total += beta ** k * (d_psi.T @ pk_psi)
        pk_psi = chain.transition @ pk_psi
    assert np.max(np.abs(resolvent_sum(chain, psi, beta) - total)) < 1e-8
    report(3, f"decomposition {worst_ma:.1e}, rank-one {worst_rank1:.1e}, "
              f"resolvent truncation {worst_res:.1e} over the 5x4 grid")


def test_criterion_04_spectral_gap_bounds(chain, psi):
    stats = feature_stats(chain, psi)
    rng = np.random.default_rng(2024)
    worst_m, worst_a = np.inf, np.inf
    floor = eps_p(chain)
    for beta in (0.0, 0.3, 0.6, 0.9):
        rep = dirichlet_report(chain, psi, beta)
        for _ in range(100):
            th = rng.standard_normal(3)
            worst_m = min(worst_m, float(th @ rep.m_beta @ th
                                         - rep.gap * (th @ stats.sigma0 @ th)))
    for gamma in (0.9, 0.99, 0.999):
        for lam in (0.0, 0.5, 0.9):
            a0 = mean_flow_td_lambda(chain, psi, gamma, lam)
            for _ in range(100):
                th = rng.standard_normal(3)
                worst_a = min(worst_a, float(-floor * (th @ stats.sigma0 @ th)
                                             - th @ a0 @ th))
    assert worst_m >= -1e-10
    assert worst_a >= -1e-10
    report(4, f"Poincare margin {worst_m:.2e}, uniform drift margin {worst_a:.2e}, "
              f"eps_P = {floor:.4f}")


def test_criterion_05_uniform_stability(chain, psi):
    deltas = (0.0, 0.5, 1.0, 5.0, 50.0)
    gammas = (0.9, 0.99, 0.999)
    lams = (0.0, 0.5, 0.9)
    worst_cond, worst_trace = 0.0, 0.0
    td_min_abs = {}
    for gamma in gammas:
        for lam in lams:
            assert lam * gamma < 1
            for delta in deltas:
                flow = mean_flow_relative(chain, psi, gamma, lam, delta)
                rep = spectral_report(flow.a_bar)
                assert rep.hurwitz, (gamma, lam, delta)
                assert np.isfinite(rep.condition_number)
                worst_cond = max(worst_cond, rep.condition_number)
                if lam == 0.0:
                    variant = VARIANT_VARPI_LIMIT if delta > 0 else VARIANT_TD0
                    exact = asymptotics_report(chain, psi, gamma, delta, 0.65, variant)
                    tr = float(np.trace(exact.sigma_theta_star))
                    assert np.isfinite(tr)
                    worst_trace = max(worst_trace, tr)
                if delta == 0.0 and lam == 0.0:
                    td_min_abs[gamma] = np.min(np.abs(rep.eigenvalues.real))
    assert td_min_abs[0.9] > td_min_abs[0.99] > td_min_abs[0.999]
    report(5, f"Hurwitz on all 45 grid points; max cond = {worst_cond:.2f}, "
              f"max trace(Sigma*) = {worst_trace:.2f}; plain-TD min|Re eig| "
              f"{td_min_abs[0.9]:.4f} -> {td_min_abs[0.999]:.4f} along gamma")


def test_criterion_06_instability_dichotomy():
    mdp, policy, psi_d, mu_neg, mu_pos = models.unstable_demo()
    chain_d = build_chain(mdp, policy)
    env_d = FiniteChainEnv(chain_d, psi_d)
    gamma, delta = 0.999, 1e-3
    flow_neg = mean_flow_relative(chain_d, psi_d, gamma, 0.0, delta, mu_neg)
    rep_neg = spectral_report(flow_neg.a_bar)
    assert not rep_neg.hurwitz and rep_neg.max_real_part > 0
    table = instability_probe(chain_d, psi_d, mu_neg, 0.0, [gamma], [delta])
    assert table.xi_dot_psi_bar_mu < 0 and table.consistent
    cfg_neg = LearnerConfig(gamma=gamma, lam=0.0, step=StepSchedule(0.5, 0.65),
                            variant="relative_fixed_mu", delta_r=delta, mu=mu_neg,
                            seed=17)
    # a numpy RuntimeWarning from the overflow past the threshold fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDivergence, match=r"at step \d+"):
            run(env_d, cfg_neg, 500_000)

    flow_pos = mean_flow_relative(chain_d, psi_d, gamma, 0.0, delta, mu_pos)
    rep_pos = spectral_report(flow_pos.a_bar)
    assert rep_pos.hurwitz
    cfg_pos = LearnerConfig(gamma=gamma, lam=0.0, step=StepSchedule(0.5, 0.65),
                            variant="relative_fixed_mu", delta_r=delta, mu=mu_pos,
                            seed=17)
    res = run(env_d, cfg_pos, 200_000)
    d0 = np.linalg.norm(flow_pos.theta_star)          # theta starts at zero
    d1 = np.linalg.norm(res.theta_pr - flow_pos.theta_star)
    assert d1 < d0
    report(6, f"negative baseline: eig {rep_neg.max_real_part:+.3f}, run diverges; "
              f"positive baseline: Hurwitz, |theta_pr - theta*| {d0:.3f} -> {d1:.3f}")


BIAS_SETTINGS = dict(gamma=0.99, rho=0.65, delta_r=0.5, n_steps=100_000, n_runs=100,
                     alpha0=0.02, seed=777)


@pytest.fixture(scope="module")
def bias_experiment(chain, psi, env):
    s = BIAS_SETTINGS
    stats = feature_stats(chain, psi)
    noise = build_noise_model(chain, psi, s["gamma"], s["delta_r"], VARIANT_FIXED_RELATIVE)
    cfg = LearnerConfig(gamma=s["gamma"], lam=0.0, step=StepSchedule(s["alpha0"], s["rho"]),
                        variant="varpi_relative_fixed", delta_r=s["delta_r"],
                        seed=s["seed"], psi_bar=stats.psi_bar,
                        theta0=noise.theta_star, pr_burn_in_fraction=0.0)
    return run_many(env, cfg, s["n_steps"], s["n_runs"]), noise


def test_criterion_07_bias_reproduction(chain, psi, bias_experiment):
    """The averaged-bias formula (1/(1-rho)) A_bar^{-1} Upsilon_bar describes
    the zero-burn-in averaged estimate; the raw final iterate obeys the same
    formula without the averaging factor 1/(1-rho).  Both are checked at 3
    Monte-Carlo standard errors."""
    s = BIAS_SETTINGS
    runs, noise = bias_experiment
    ups = asymptotics_report(chain, psi, s["gamma"], s["delta_r"], s["rho"],
                             VARIANT_FIXED_RELATIVE).upsilon_bar
    iterate_pred = np.linalg.solve(noise.a_bar, ups)
    averaged_pred = iterate_pred / (1 - s["rho"])
    alpha_n = StepSchedule(s["alpha0"], s["rho"]).alpha(s["n_steps"])

    emp = empirical_bias([r.theta_final for r in runs], noise.theta_star, alpha_n)
    z_raw = np.abs(emp.value - iterate_pred) / emp.stderr
    assert np.all(z_raw <= 3.0), z_raw

    pr_samples = np.stack([(r.theta_pr - noise.theta_star) / alpha_n for r in runs])
    pr_mean = pr_samples.mean(axis=0)
    pr_se = pr_samples.std(axis=0, ddof=1) / np.sqrt(len(runs))
    z_avg = np.abs(pr_mean - averaged_pred) / pr_se
    assert np.all(z_avg <= 3.0), z_avg
    report(7, f"bias matched: raw-iterate z = {np.round(z_raw, 2)}, "
              f"averaged z = {np.round(z_avg, 2)} (3-sigma gate)")


CLT_SETTINGS = dict(gamma=0.99, rho=0.65, delta_r=0.5, alpha0=0.05,
                    n_steps=100_000, n_runs=100, burn=0.2, seed=0)


def test_criterion_08_clt_covariance(chain, psi, env):
    s = CLT_SETTINGS
    exact = asymptotics_report(chain, psi, s["gamma"], s["delta_r"], s["rho"],
                               VARIANT_VARPI_LIMIT)
    diag = np.diag(exact.sigma_theta_star)
    cfg = LearnerConfig(gamma=s["gamma"], lam=0.0, step=StepSchedule(s["alpha0"], s["rho"]),
                        variant="varpi_relative", delta_r=s["delta_r"],
                        seed=s["seed"], theta0=exact.theta_star,
                        pr_burn_in_fraction=s["burn"])
    prs = np.stack([r.theta_pr for r in run_many(env, cfg, s["n_steps"], s["n_runs"])])
    samples = np.sqrt(s["n_steps"]) * (prs - exact.theta_star)
    ratio = samples.var(axis=0, ddof=1) / diag
    assert np.all(np.abs(ratio - 1.0) <= 0.25), ratio
    report(8, f"per-component variance ratio {np.round(ratio, 3)} within 25%")


def test_criterion_09_sensitivity(chain, psi):
    gamma, rho, h = 0.99, 0.65, 1e-5
    rep = sensitivity(chain, psi, gamma, rho)

    def at(dr):
        noise = build_noise_model(chain, psi, gamma, dr, VARIANT_FIXED_RELATIVE)
        exact = asymptotics_report(chain, psi, gamma, dr, rho, VARIANT_FIXED_RELATIVE)
        bias = np.linalg.solve(noise.a_bar, exact.upsilon_bar) / (1 - rho)
        return noise.theta_star, np.linalg.inv(noise.a_bar), exact.sigma_theta_star, bias

    tp, ip, sp, bp = at(+h)
    tm, im, sm, bm = at(-h)
    checks = {
        "theta_star": ((tp - tm) / (2 * h), rep.d_theta_star),
        "a_inv": ((ip - im) / (2 * h), rep.d_a_inv),
        "sigma": ((sp - sm) / (2 * h), rep.d_sigma),
        "bias": ((bp - bm) / (2 * h), rep.d_bias),
    }
    rels = {}
    for name, (fd, closed) in checks.items():
        rels[name] = float(np.max(np.abs(fd - closed)) / np.max(np.abs(fd)))
        assert rels[name] < 1e-3, (name, rels[name])
    # d A_bar is exact by construction
    psi_bar = feature_mean(chain, psi)
    assert np.array_equal(rep.d_a_bar, -np.outer(psi_bar, psi_bar))
    # slope of ||bias||^2 at zero vs secant over [0, 1e-4]
    rep0 = asymptotics_report(chain, psi, gamma, 0.0, rho, VARIANT_TD0)
    slope = 2.0 * float(rep0.bias @ rep.d_bias)
    hh = 1e-4
    rep_h = asymptotics_report(chain, psi, gamma, hh, rho, VARIANT_FIXED_RELATIVE)
    secant = (float(rep_h.bias @ rep_h.bias) - float(rep0.bias @ rep0.bias)) / hh
    assert abs(slope - secant) <= 0.01 * abs(secant)
    report(9, "finite-difference agreement: "
              + ", ".join(f"{k} {v:.1e}" for k, v in rels.items())
              + f"; slope check {slope:.4f} vs secant {secant:.4f}")


def test_criterion_10_eigen_perturbation(chain):
    tab = tabular_basis(6)
    a1 = mean_flow_td_lambda(chain, tab, 1.0, 0.0)
    psi_bar = feature_mean(chain, tab)
    w = tab.matrix.T @ chain.stationary
    rep = eigen_perturbation(a1, -psi_bar, w)
    h = 1e-6
    eig0 = np.linalg.eigvals(a1)
    eig1 = np.linalg.eigvals(a1 + h * np.outer(-psi_bar, w))
    fd = (eig1[np.argmin(np.abs(eig1))] - eig0[np.argmin(np.abs(eig0))]).real / h
    rel = abs(rep.derivative - fd) / abs(fd)
    assert rel < 1e-3
    report(10, f"kappa'(0) = {rep.derivative:.6f} vs tracked slope {fd:.6f} "
               f"(rel {rel:.1e})")


def test_criterion_11_speed_scaling_pipeline():
    model = SpeedScalingModel()
    mc = gamma_moment_check(model, 10 ** 6, seed=2027)
    assert mc.mean_ok and mc.var_ok
    n_traj, n_steps = 20, 10 ** 6
    stats_list = [estimate_stats(model, n_steps, 2027, stream=2 * i + 2)
                  for i in range(n_traj)]
    min_abs = {}
    for dr in (0.0, 1.0):
        pooled_a = np.mean([s.mean_flow(0.99, dr) for s in stats_list], axis=0)
        rep = spectral_report(pooled_a)
        min_abs[dr] = float(np.min(np.abs(rep.eigenvalues.real)))
    assert min_abs[1.0] > min_abs[0.0]
    report(11, f"arrival moments ({mc.sample_mean:.3f}, {mc.sample_var:.3f}) in band; "
               f"min|Re eig| separation at gamma=0.99: td {min_abs[0.0]:.6f} < "
               f"relative {min_abs[1.0]:.6f} over {n_traj} trajectories")


def test_criterion_12_determinism(tmp_path):
    from rtdlab.cli import main
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["eigs", "--out", str(out), "--gamma-grid", "0.9", "0.99",
                   "--delta-grid", "0", "0.5", "--seed", "3"])
        assert rc == 0
        rc = main(["run", "--out", str(out), "--steps", "2000", "--runs", "2",
                   "--seed", "3", "--variant", "varpi_relative", "--snapshots", "3"])
        assert rc == 0
        outs.append(out)
    a, b = outs
    for rel in ("eigs.csv", "eigs_meta.json", "runs.csv", "run_0000.json",
                "run_0001.json", "run_meta.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    report(12, "CSV/JSON outputs byte-identical across reruns")
