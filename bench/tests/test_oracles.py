"""Tests of the benchmark oracles.

Run from the root of the repository: ``python3 -m pytest bench/tests``.
"""

import numpy as np
import pytest

import oracles
from rtdlab import asymptotics, learner, meanflow, models
from rtdlab.features import finite_poly_basis

FEATS = oracles.FINITE_FEATURES
COST = models.FINITE_COST.reshape(-1)


def model_3x2(policy=models.FINITE_EVAL_POLICY):
    p = oracles.chain_matrix(models.FINITE_KERNEL, policy)
    return p, oracles.stationary(p)


def random_chain(seed, n=4, d=3):
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    feats = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    return p, oracles.stationary(p), feats, rng.random(n)


@pytest.mark.parametrize("policy, pmf, eta", [
    (models.FINITE_EVAL_POLICY, np.array([85, 108, 315]) / 508, 587 / 1016),
    (models.FINITE_GREEDY_POLICY, np.array([1, 6, 6]) / 13, 3 / 65),
])
def test_published_anchors(policy, pmf, eta):
    p, pi = model_3x2(policy)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)
    assert np.max(np.abs(pi.reshape(3, 2).sum(axis=1) - pmf)) < 1e-12
    assert abs(pi @ COST - eta) < 1e-12


@pytest.mark.parametrize("lam, delta_r", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.9, 1.0)])
def test_mean_flow_matches_closed_form(lam, delta_r):
    p, pi = model_3x2()
    gamma, n = 0.99, len(pi)
    a_bar, b_bar, theta = oracles.mean_flow(p, pi, FEATS, COST, gamma, lam, delta_r)
    res = np.linalg.inv(np.eye(n) - lam * gamma * p)
    d_psi = pi[:, None] * FEATS
    psi_bar = FEATS.T @ pi
    want = (-d_psi.T @ FEATS + (1 - lam) * gamma * d_psi.T @ p @ res @ FEATS
            - delta_r / (1 - lam * gamma) * np.outer(psi_bar, psi_bar))
    assert np.allclose(a_bar, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(b_bar, d_psi.T @ res @ COST, rtol=1e-12)
    assert np.allclose(a_bar @ theta + b_bar, 0.0, atol=1e-10)
    flow = meanflow.mean_flow_relative(models.finite_chain(), finite_poly_basis(3, 2),
                                       gamma, lam, delta_r)
    assert np.allclose(flow.theta_star, theta, rtol=1e-9)


def pair_chain_sums(p, pi, feats, cost, gamma, delta_r, variant):
    """Sigma_Delta and Upsilon_bar through an explicit pair-chain Poisson solve."""
    n, d = feats.shape
    a_bar, _, theta = oracles.mean_flow(p, pi, feats, cost, gamma, 0.0,
                                        0.0 if variant == "td0" else delta_r)
    psi_bar = feats.T @ pi
    a = np.empty((n, n, d, d))
    b = np.empty((n, n, d))
    phat = np.zeros((n, n, n, n))
    for z in range(n):
        for y in range(n):
            a[z, y] = np.outer(feats[z], gamma * feats[y] - feats[z])
            if variant == "fixed_relative_td0":
                a[z, y] -= delta_r * np.outer(psi_bar, psi_bar)
            elif variant == "varpi_relative_td0":
                a[z, y] -= delta_r * np.outer(feats[z], psi_bar)
            b[z, y] = cost[z] * feats[z]
            phat[z, y, y, :] = p[y]
    a, b, phat = a.reshape(n * n, d, d), b.reshape(n * n, d), phat.reshape(n * n, n * n)
    w = (pi[:, None] * p).reshape(n * n)
    fund = np.linalg.inv(np.eye(n * n) - phat + np.outer(np.ones(n * n), w))
    delta = a @ theta + b
    h = fund @ delta
    cross = (w[:, None] * delta).T @ h
    sigma = cross + cross.T - (w[:, None] * delta).T @ delta
    a_hat = (fund @ (a - a_bar).reshape(n * n, d * d)).reshape(n * n, d, d)
    ups = np.einsum("p,pij,pj->i", w, a - a_hat, delta)
    return sigma, ups


@pytest.mark.parametrize("variant", oracles.VARIANTS_TD0)
@pytest.mark.parametrize("seed", [0, 1])
def test_noise_sums_match_pair_chain(variant, seed):
    p, pi, feats, cost = random_chain(seed)
    sigma, ups, _ = oracles.noise_sums(p, pi, feats, cost, 0.9, 0.5, variant)
    want_sigma, want_ups = pair_chain_sums(p, pi, feats, cost, 0.9, 0.5, variant)
    assert np.allclose(sigma, want_sigma, rtol=1e-9, atol=1e-12)
    assert np.allclose(ups, want_ups, rtol=1e-9, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(sigma)) > -1e-10 * np.max(np.abs(sigma))


@pytest.mark.parametrize("variant, delta_r", [("td0", 0.0), ("fixed_relative_td0", 0.5),
                                              ("varpi_relative_td0", 0.5)])
def test_noise_sums_match_rtdlab_on_3x2(variant, delta_r):
    p, pi = model_3x2()
    sigma, ups, _ = oracles.noise_sums(p, pi, FEATS, COST, 0.99, delta_r, variant)
    rep = asymptotics.asymptotics_report(models.finite_chain(), finite_poly_basis(3, 2),
                                         0.99, delta_r, 0.65, variant)
    assert np.allclose(sigma, rep.sigma_delta, rtol=1e-9)
    assert np.allclose(ups, rep.upsilon_bar, rtol=1e-9)


def test_theta_recursion_by_hand():
    psi = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    theta, theta_pr = oracles.theta_recursion(
        psi, [1.0, 2.0], psi[1:], gamma=0.5, lam=0.0, alpha0=1.0, rho=0.75,
        variant="td", delta_r=0.0, theta0=[0.0, 0.0])
    # step 1: alpha = 1, D = 1, theta_1 = psi_0 = [1, 0]
    # step 2: alpha = 2^-0.75, D = 2 + 0.5 * [1, 1]'theta_1 - [0, 1]'theta_1 = 2.5
    want = np.array([1.0, 2.0 ** -0.75 * 2.5])
    assert np.allclose(theta, want, rtol=1e-15)
    assert np.allclose(theta_pr, (np.array([1.0, 0.0]) + want) / 3, rtol=1e-15)


@pytest.mark.parametrize("variant, lam, mode", [
    ("td", 0.5, "natural"), ("varpi_relative", 0.0, "on_policy"),
    ("varpi_relative", 0.5, "natural"), ("varpi_relative_fixed", 0.0, "on_policy"),
    ("relative_fixed_mu", 0.3, "on_policy"),
])
def test_theta_recursion_matches_rtdlab_prefix(variant, lam, mode):
    chain = models.finite_chain()
    psi = finite_poly_basis(3, 2)
    env = learner.FiniteChainEnv(chain, psi, policy=models.FINITE_EVAL_POLICY)
    mu = np.full(6, 1 / 6)
    base = meanflow.baseline_mean(mu, psi)
    cfg = learner.LearnerConfig(
        gamma=0.99, lam=lam, step=learner.StepSchedule(0.02, 0.65), variant=variant,
        delta_r=0.5, eval_mode=mode, seed=5, pr_burn_in_fraction=0.0,
        psi_bar=FEATS.T @ model_3x2()[1], mu=base)
    res = learner.run(env, cfg, 5000, snapshot_plan=(700,), run_index=3)
    path = env.sample_path(700, mode, learner.substream(5, 6))
    theta, theta_pr = oracles.theta_recursion(
        path.psi_states, path.cost, path.psi_target, gamma=0.99, lam=lam, alpha0=0.02,
        rho=0.65, variant=variant, delta_r=0.5, theta0=np.zeros(3),
        psi_bar=cfg.psi_bar, psi_bar_mu=base.psi_bar_mu)
    snap = res.snapshots[0]
    assert np.allclose(snap.theta, theta, rtol=1e-10, atol=1e-12)
    assert np.allclose(snap.theta_pr, theta_pr, rtol=1e-10, atol=1e-12)
