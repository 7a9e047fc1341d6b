"""Property tests over small random unichains and bases.

The exact layer: each chain has 2 to 6 states.  It may be dense or sparse (a cycle through
the recurrent states keeps it irreducible, and a bare cycle is periodic), and
it may have a transient state that is left at once and never entered again.
The runs are derandomized, so the suite sees the same examples every time.

The chain table: ``build_chain`` and the policy-averaged features of
``FiniteChainEnv`` equal their per-state loops bit for bit on random MDPs
with zero kernel and policy entries.

The learner: a batch of runs, under any tree radix and block length and
scanned in any grouping of its runs, gives each run the bits of the same
run alone and of the one-step oracle's fold.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdlab.asymptotics import (VARIANT_FIXED_RELATIVE, VARIANT_TD0, VARIANT_VARPI_LIMIT,
                                asymptotics_report, sensitivity)
from rtdlab import learner
from rtdlab.features import (FeatureMap, autocorrelation, baseline_mean, feature_mean,
                             resolvent_sum)
from rtdlab.learner import (EVAL_MODES, VARIANTS, FiniteChainEnv, LearnerConfig, StepSchedule,
                            run, run_many, substream)
from rtdlab.markov import (FiniteChain, FiniteMdp, RandomizedPolicy, build_chain,
                           poisson_solve_adjoint, resolvent_solve, stationary_pmf)
from rtdlab.meanflow import _k_beta, dirichlet_report, spectral_gap

import learner_oracle
import pair_oracle
from chain_helpers import loop_psi_avg, loop_transition, poisson_solve_columns, solve_poisson
from pair_oracle import build_noise_model

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def chains(draw):
    """(chain, psi, rng) with d < number of recurrent states."""
    n = draw(st.integers(2, 6))
    transient = n >= 3 and draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n - 1 if transient else n  # recurrent states 0..m-1
    idx = np.arange(n)
    p = rng.gamma(1.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    p[idx, (idx + 1) % m] += 0.5
    p[:, m:] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    chain = FiniteChain(transition=p, cost_vec=rng.standard_normal(n),
                        stationary=stationary_pmf(p))
    d = draw(st.integers(1, max(1, min(3, m - 1))))
    return chain, FeatureMap(rng.standard_normal((n, d))), rng


variants = st.one_of(
    st.just((VARIANT_TD0, 0.0)),
    st.tuples(st.sampled_from([VARIANT_FIXED_RELATIVE, VARIANT_VARPI_LIMIT]),
              st.floats(0.1, 2.0)))


def scale(x) -> float:
    return max(1.0, float(np.max(np.abs(x))))


@PROPERTY
@given(chains())
def test_stationary_invariance_and_poisson_plugback(case):
    c, _, rng = case
    pi, p = c.stationary, c.transition
    assert np.min(pi) >= 0 and abs(pi.sum() - 1) < 1e-12
    assert np.max(np.abs(pi @ p - pi)) < 1e-12
    g = rng.standard_normal((c.n_z, 2))
    for col in g.T:
        sol = solve_poisson(c, col)
        assert abs(sol.eta - pi @ col) < 1e-12 * scale(col)
        assert np.max(np.abs(sol.h - p @ sol.h - (col - sol.eta))) < 1e-9 * scale(col)
        assert abs(pi @ sol.h) < 1e-10 * scale(sol.h)


def lazy_lag_sum(c: FiniteChain, g: np.ndarray) -> np.ndarray:
    """sum_{k<K} L^k g of the lazy chain L = (I + P)/2 at K = 2^30, for a centered g.

    (I - L) = (I - P)/2, so the sum tends to 2 Pi g, and it converges on a
    periodic chain too, since L's other eigenvalues lie inside the unit disc.
    Partial sums are doubled, S_2K = S_K + L^K S_K, and re-centered, since
    round-off in varpi'g would otherwise grow with K.
    """
    q, s = 0.5 * (np.eye(c.n_z) + c.transition), g   # L^K and S_K at K = 1
    for _ in range(30):
        s, q = s + q @ s, q @ q
        s = s - c.stationary @ s
    return s


@PROPERTY
@given(chains())
def test_adjoint_poisson_pairings(case):
    # h = Pi'w pairs with every f as w'Pi f does through the forward solve, 1'h = 0,
    # and the asymptotic variance of f(Z_n) is 2<f, Pi f> - <f, f> in L2(varpi)
    c, _, rng = case
    w, f = rng.standard_normal((c.n_z, 2)), rng.standard_normal((c.n_z, 3))
    h = poisson_solve_adjoint(c, w)
    want = w.T @ poisson_solve_columns(c, f)
    assert np.max(np.abs(h.T @ f - want)) < 1e-10 * scale(want)
    assert np.max(np.abs(h.sum(axis=0))) < 1e-10 * scale(h)
    g = f[:, 0] - c.stationary @ f[:, 0]
    var0 = c.stationary @ g**2
    sigma2 = 2.0 * float(poisson_solve_adjoint(c, c.stationary * g) @ g) - var0
    trunc = (c.stationary * g) @ lazy_lag_sum(c, g) - var0
    assert abs(sigma2 - trunc) < 1e-9 * scale(var0)


@PROPERTY
@given(chains(), st.floats(0.0, 0.9))
def test_resolvent_matches_truncated_sum(case, beta):
    c, psi, _ = case
    # sum_{k>=0} beta^k R(k+1), R(k) = Psi' D P^k Psi; beta^400 < 1e-18
    d_psi = c.stationary[:, None] * psi.matrix
    pk_psi = c.transition @ psi.matrix
    trunc = np.zeros((psi.dim, psi.dim))
    for k in range(400):
        trunc += beta ** k * (d_psi.T @ pk_psi)
        pk_psi = c.transition @ pk_psi
    assert np.max(np.abs(resolvent_sum(c, psi, beta) - trunc)) < 1e-9 * scale(trunc)


@PROPERTY
@given(chains(), st.floats(0.0, 0.999), st.booleans(), st.booleans())
def test_resolvent_cond_bound(case, beta, on_support, transpose):
    # cond_2(I - beta p) <= n (1 + r)/(1 - r), r = beta min(||p||_inf, ||p||_1): the
    # bound resolvent_solve passes instead of an SVD; the solve keeps its bits
    c, _, rng = case
    p = c.transition[np.ix_(c.support, c.support)] if on_support else c.transition
    p = p.T if transpose else p
    n = len(p)
    r = beta * min(np.linalg.norm(p, np.inf), np.linalg.norm(p, 1))
    m = np.eye(n) - beta * p
    assert np.linalg.cond(m) <= n * (1 + r) / (1 - r)
    rhs = rng.standard_normal((n, 2))
    want = rhs if beta == 0.0 else np.linalg.solve(m, rhs)
    assert np.array_equal(resolvent_solve(p, beta, rhs), want)


@PROPERTY
@given(chains(), st.floats(0.5, 0.99), variants)
def test_sigma_delta_is_psd(case, gamma, variant):
    c, psi, _ = case
    name, delta_r = variant
    rep = asymptotics_report(c, psi, gamma, delta_r, 0.65, name)
    sig_d = rep.sigma_delta
    assert np.array_equal(sig_d, sig_d.T)
    assert np.min(np.linalg.eigvalsh(sig_d)) >= -1e-9 * scale(sig_d)
    sig_t = rep.sigma_theta_star
    assert np.min(np.linalg.eigvalsh(0.5 * (sig_t + sig_t.T))) >= -1e-9 * scale(sig_t)


@PROPERTY
@given(chains(), st.floats(0.5, 0.99), variants)
def test_base_chain_route_matches_pair_oracle(case, gamma, variant):
    c, psi, _ = case
    name, delta_r = variant
    pair = pair_oracle.pair_chain(c)
    noise = build_noise_model(c, psi, gamma, delta_r, name)
    delta = noise.delta_of_phi
    # relative to the lag-zero term E[Delta Delta'], which is 0 when the
    # features fit the values exactly
    r0 = (pair.stationary[:, None] * delta).T @ delta
    rep = asymptotics_report(c, psi, gamma, delta_r, 0.65, name)
    a_hat = pair_oracle.a_hat_from(
        noise, pair_oracle.forward_exact(c, psi, gamma, delta_r, name, 0.65)[1])
    want = pair_oracle.sigma_delta(noise, pair)
    assert np.max(np.abs(rep.sigma_delta - want)) < 1e-9 * scale(r0)
    want = pair_oracle.matrix_poisson(noise, pair)
    assert np.max(np.abs(a_hat - want)) < 1e-9 * scale(want)
    want = pair_oracle.upsilon_bar(noise, pair)
    assert np.max(np.abs(rep.upsilon_bar - want)) < 1e-9 * scale(want)
    for key, want in pair_oracle.asymptotics(noise, pair, 0.65).items():
        ref = r0 if key == "sigma_delta" else want
        assert np.max(np.abs(getattr(rep, key) - want)) < 1e-9 * scale(ref), key
    # the report keeps no per-pair array: its size does not grow with n_z
    assert all(np.size(v) <= psi.dim ** 2 for v in dataclasses.asdict(rep).values())


@PROPERTY
@given(chains(), st.floats(0.5, 0.99), st.one_of(
    st.just((VARIANT_TD0, 0.0)),
    st.tuples(st.sampled_from([VARIANT_FIXED_RELATIVE, VARIANT_VARPI_LIMIT]),
              st.floats(0.0, 2.0)),
    st.tuples(st.just(VARIANT_FIXED_RELATIVE), st.floats(-0.5, -0.01))))
def test_report_and_sensitivity_match_pair_arrays(case, gamma, variant):
    # the per-state route against the pair-array route of ``pair_oracle``; a
    # negative delta_r is drawn as a share of 1 - gamma, which keeps the
    # symmetric part of A_bar negative definite
    c, psi, _ = case
    name, delta_r = variant
    if delta_r < 0:
        delta_r *= 1.0 - gamma
    noise = build_noise_model(c, psi, gamma, delta_r, name)
    fields, _, delta, *_ = pair_oracle.exact(noise, c, 0.65)
    r0 = (pair_oracle.pair_law(c)[:, None] * delta).T @ delta
    rep = asymptotics_report(c, psi, gamma, delta_r, 0.65, name)
    for key, want in fields.items():
        ref = r0 if key == "sigma_delta" else want
        assert np.max(np.abs(getattr(rep, key) - want)) < 1e-10 * scale(ref), key
    sens = sensitivity(c, psi, gamma, 0.65)
    for key, want in pair_oracle.exact_sensitivity(c, psi, gamma, 0.65).items():
        assert np.max(np.abs(getattr(sens, key) - want)) < 1e-10 * scale(want), key


@PROPERTY
@given(chains(), st.floats(0.0, 0.99))
def test_dirichlet_gap_is_the_support_chains(case, beta):
    # oracle: K_beta solved on the support chain itself, not restricted from the full one
    c, psi, _ = case
    sup = c.support
    p = c.transition[np.ix_(sup, sup)]
    on_support = FiniteChain(transition=p, cost_vec=c.cost_vec[sup], stationary=c.stationary[sup])
    want = spectral_gap(_k_beta(p, beta), on_support)
    rep = dirichlet_report(c, psi, beta)
    assert abs(rep.gap - want) <= 1e-12
    assert rep.restricted_support == (len(sup) < c.n_z)


@PROPERTY
@given(chains(), st.sampled_from([0.0, 0.5, 0.99]))
def test_dirichlet_m_beta_is_the_resolvent_sum(case, beta):
    # M_beta = R(0) - Psi' D K_beta Psi against R(0) - (1 - beta) Psi' D P (I - beta P)^{-1} Psi
    c, psi, _ = case
    want = autocorrelation(c, psi, 0) - (1.0 - beta) * resolvent_sum(c, psi, beta)
    got = dirichlet_report(c, psi, beta).m_beta
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def mdps(draw):
    """(mdp, policy, psi) with zero kernel and policy entries; a cycle keeps it a unichain."""
    nx, nu = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.gamma(1.0, 1.0, (nu, nx, nx)) * (rng.random((nu, nx, nx)) < density)
    kernel[:, np.arange(nx), (np.arange(nx) + 1) % nx] += 0.5
    probs = rng.gamma(1.0, 1.0, (nx, nu)) * (rng.random((nx, nu)) < density)
    probs[np.arange(nx), rng.integers(0, nu, nx)] += 0.5
    mdp = FiniteMdp(nx, nu, kernel / kernel.sum(axis=2, keepdims=True),
                    rng.standard_normal((nx, nu)))
    policy = RandomizedPolicy(probs / probs.sum(axis=1, keepdims=True))
    psi = FeatureMap(rng.standard_normal((nx * nu, draw(st.integers(1, 4)))))
    return mdp, policy, psi


@PROPERTY
@given(mdps())
def test_build_chain_is_the_per_state_loop(case):
    mdp, policy, _ = case
    assert build_chain(mdp, policy).transition.tobytes() == loop_transition(mdp, policy).tobytes()


@PROPERTY
@given(mdps())
def test_policy_averaged_features_are_the_per_state_loop(case):
    mdp, policy, psi = case
    env = FiniteChainEnv(build_chain(mdp, policy), psi)
    assert env._psi_avg.tobytes() == loop_psi_avg(policy.probs, psi).tobytes()


@st.composite
def learner_cases(draw, variant):
    """(env, config, n_steps, snapshot plan) of ``variant`` on a random state-action chain."""
    nx, nu = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.gamma(1.0, 1.0, (nu, nx, nx))
    probs = rng.gamma(1.0, 1.0, (nx, nu))
    mdp = FiniteMdp(nx, nu, kernel / kernel.sum(axis=2, keepdims=True),
                    rng.standard_normal((nx, nu)))
    policy = RandomizedPolicy(probs / probs.sum(axis=1, keepdims=True))
    chain = build_chain(mdp, policy)
    psi = FeatureMap(rng.standard_normal((nx * nu, draw(st.integers(1, 3)))))
    lam = 0.0 if variant == "varpi_relative_fixed" else draw(st.sampled_from([0.5, 0.0]))
    n_steps = draw(st.integers(1, 150))
    config = LearnerConfig(
        gamma=0.9, lam=lam,
        step=StepSchedule(0.05, 0.65), variant=variant,
        delta_r=draw(st.sampled_from([0.5, 0.0])), eval_mode=draw(st.sampled_from(EVAL_MODES)),
        mu=baseline_mean(chain.stationary, psi), psi_bar=feature_mean(chain, psi),
        pr_burn_in_fraction=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 99)),
        theta0=draw(st.sampled_from([None, rng.standard_normal(psi.dim)])))
    plan = tuple(draw(st.sets(st.integers(0, n_steps), max_size=4)))
    return FiniteChainEnv(chain, psi), config, n_steps, plan


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_rows_are_single_runs(variant):
    batch_rows_are_single_runs(variant)


@settings(PROPERTY, max_examples=25)
@given(st.data(), st.sampled_from([1, 2, 5]),
       st.sampled_from([(2, 1), (2, 8), (3, 27), (learner._RADIX, learner._BLOCK_STEPS)]),
       st.sampled_from([None, 2, 3]))
def batch_rows_are_single_runs(variant, data, n_runs, tree, group):
    env, config, n_steps, plan = data.draw(learner_cases(variant))
    radix, block = tree
    with mock.patch.multiple(learner, _RADIX=radix, _BLOCK_STEPS=block):
        check_batch_rows(env, config, n_steps, plan, n_runs, group)


def check_batch_rows(env, config, n_steps, plan, n_runs, group):
    # the batch scans its runs in groups of at most ``group`` runs, all at once for None
    entries = learner._BLOCK_ENTRIES if group is None \
        else group * learner._BLOCK_STEPS * env.dim ** 2
    with mock.patch.object(learner, "_BLOCK_ENTRIES", entries):
        batch = run_many(env, config, n_steps, n_runs, snapshot_plan=plan)
    for i, got in enumerate(batch):
        want = run(env, config, n_steps, snapshot_plan=plan, run_index=i)
        assert got.run_index == want.run_index == i and got.pr_count == want.pr_count
        assert np.array_equal(got.theta_final, want.theta_final)
        assert np.array_equal(got.theta_pr, want.theta_pr)
        assert [s.n for s in got.snapshots] == sorted(plan)
        for s, t in zip(got.snapshots, want.snapshots):
            assert s.n == t.n and s.pr_count == t.pr_count
            assert np.array_equal(s.theta, t.theta)
            assert (s.theta_pr is None) == (t.theta_pr is None)
            assert s.theta_pr is None or np.array_equal(s.theta_pr, t.theta_pr)
    # and the last run, snapshots included, is the one-step oracle's fold over its path
    i = n_runs - 1
    path = env.sample_path(n_steps, config.eval_mode, substream(config.seed, 2 * i),
                           substream(config.seed, 2 * i + 1))
    thetas = learner_oracle.iterates(config, path)
    n0 = int(config.pr_burn_in_fraction * n_steps)
    assert np.array_equal(thetas[-1], batch[i].theta_final)
    assert np.array_equal(learner_oracle.pr_average(thetas, n0), batch[i].theta_pr)
    for s in batch[i].snapshots:
        assert np.array_equal(s.theta, thetas[s.n])
        if s.n >= n0:
            assert np.array_equal(s.theta_pr, learner_oracle.pr_average(thetas[:s.n + 1], n0))
