"""Property tests of the exact layer over small random unichains and bases.

Each chain has 2 to 6 states.  It may be dense or sparse (a cycle through
the recurrent states keeps it irreducible, and a bare cycle is periodic), and
it may have a transient state that is left at once and never entered again.
The runs are derandomized, so the suite sees the same examples every time.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdlab.asymptotics import (VARIANT_FIXED_RELATIVE, VARIANT_TD0, VARIANT_VARPI_LIMIT,
                                asymptotics_report, build_noise_model, matrix_poisson,
                                sigma_delta, sigma_theta_star, upsilon_bar)
from rtdlab.features import FeatureMap, resolvent_sum
from rtdlab.markov import FiniteChain, solve_poisson, stationary_pmf

import pair_oracle

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
@given(chains(), st.floats(0.5, 0.99), variants)
def test_sigma_delta_is_psd(case, gamma, variant):
    c, psi, _ = case
    name, delta_r = variant
    noise = build_noise_model(c, psi, gamma, delta_r, name)
    sig_d = sigma_delta(noise, c)
    assert np.array_equal(sig_d, sig_d.T)
    assert np.min(np.linalg.eigvalsh(sig_d)) >= -1e-9 * scale(sig_d)
    sig_t = sigma_theta_star(noise.a_bar, sig_d)
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
    want = pair_oracle.sigma_delta(noise, pair)
    assert np.max(np.abs(sigma_delta(noise, c) - want)) < 1e-9 * scale(r0)
    want = pair_oracle.matrix_poisson(noise, pair)
    assert np.max(np.abs(matrix_poisson(noise, c) - want)) < 1e-9 * scale(want)
    want = pair_oracle.upsilon_bar(noise, pair)
    assert np.max(np.abs(upsilon_bar(noise, c) - want)) < 1e-9 * scale(want)
    rep = asymptotics_report(c, psi, gamma, delta_r, 0.65, name)
    for key, want in pair_oracle.asymptotics(noise, pair, 0.65).items():
        ref = r0 if key == "sigma_delta" else want
        assert np.max(np.abs(getattr(rep, key) - want)) < 1e-9 * scale(ref), key
    # the report keeps no per-pair array: its size does not grow with n_z
    assert all(np.size(v) <= psi.dim ** 2 for v in dataclasses.asdict(rep).values())
