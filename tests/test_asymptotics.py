import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rtdlab import asymptotics, meanflow, models
from rtdlab.asymptotics import (NOISE_VARIANTS, VARIANT_FIXED_RELATIVE, VARIANT_TD0,
                                VARIANT_VARPI_LIMIT, _pre_solve, asymptotics_report,
                                noise_variant, sensitivity)
from rtdlab.errors import ConfigError, NonZeroMean, SingularResolvent
from rtdlab.features import (FeatureMap, feature_mean, feature_stats, finite_poly_basis,
                             tabular_basis)
from rtdlab.learner import VARIANTS
from rtdlab.markov import FiniteChain, FiniteMdp, build_chain, stationary_pmf
from rtdlab.meanflow import (b_bar, dirichlet_report, eps_p, mean_flow_relative,
                             mean_flow_td_lambda)

import pair_oracle
from pair_oracle import build_noise_model, pair_chain


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


@pytest.fixture(scope="module")
def psi():
    return finite_poly_basis(3, 2)


@pytest.fixture(scope="module")
def pair(chain):
    return pair_chain(chain)


def iid_pair_setup(n=3, d=2, seed=0):
    """Chain with identical rows: consecutive pairs are independent."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(n))
    c = FiniteChain(transition=np.tile(pi, (n, 1)),
                    cost_vec=rng.standard_normal(n), stationary=pi)
    psi = FeatureMap(rng.standard_normal((n, d)))
    return c, psi


def constant_feature(chain):
    """One feature equal to 1 everywhere: A(phi) = gamma - 1 (td0) on every pair."""
    return FeatureMap(np.ones((chain.n_z, 1)))


def route_a_hat(chain, psi, gamma, delta_r, variant):
    """The pair table of the model and A_hat of the forward base-chain route as a pair array."""
    noise = build_noise_model(chain, psi, gamma, delta_r, variant)
    big_g = pair_oracle.forward_exact(chain, psi, gamma, delta_r, variant, 0.65)[1]
    return noise, pair_oracle.a_hat_from(noise, big_g)


MODELS = [(VARIANT_TD0, 0.0), (VARIANT_FIXED_RELATIVE, 0.5), (VARIANT_VARPI_LIMIT, 0.5)]


class TestNoiseModel:
    def test_mean_matches_mean_flow_td0(self, chain, psi):
        noise = build_noise_model(chain, psi, 0.99, 0.0, VARIANT_TD0)
        assert np.max(np.abs(noise.a_bar - mean_flow_td_lambda(chain, psi, 0.99, 0.0))) < 1e-12

    @pytest.mark.parametrize("variant", [VARIANT_FIXED_RELATIVE, VARIANT_VARPI_LIMIT])
    def test_mean_matches_relative_flow(self, chain, psi, variant):
        noise = build_noise_model(chain, psi, 0.99, 0.5, variant)
        flow = mean_flow_relative(chain, psi, 0.99, 0.0, 0.5)
        assert np.max(np.abs(noise.a_bar - flow.a_bar)) < 1e-12
        assert np.max(np.abs(noise.theta_star - flow.theta_star)) < 1e-9

    def test_delta_zero_mean_under_pair_law(self, chain, psi, pair):
        noise = build_noise_model(chain, psi, 0.99, 0.5, VARIANT_FIXED_RELATIVE)
        assert np.max(np.abs(pair.stationary @ noise.delta_of_phi)) < 1e-10

    @pytest.mark.parametrize("variant,delta_r", MODELS)
    def test_pair_law_means_match_closed_form(self, chain, psi, pair, variant, delta_r):
        # the table averaged under the pair law against the per-state A_bar and b_bar
        noise = build_noise_model(chain, psi, 0.99, delta_r, variant)
        a_mean = np.einsum("p,pij->ij", pair.stationary, noise.a_of_phi)
        b_mean = pair.stationary @ noise.b_of_phi
        b_exact = b_bar(chain, psi, 0.99, 0.0)
        assert np.max(np.abs(a_mean - noise.a_bar)) < 1e-10 * asymptotics._scale(noise.a_bar)
        assert np.max(np.abs(b_mean - b_exact)) < 1e-10 * asymptotics._scale(b_exact)
        assert np.max(np.abs(noise.b_bar - b_exact)) < 1e-10 * asymptotics._scale(b_exact)

    def test_scalar_chain(self):
        c = FiniteChain(transition=[[1.0]], cost_vec=[2.0], stationary=[1.0])
        noise = build_noise_model(c, tabular_basis(1), 0.9, 0.25, VARIANT_FIXED_RELATIVE)
        assert noise.a_of_phi[0, 0, 0] == pytest.approx(-(1 - 0.9) - 0.25, abs=1e-12)


class TestMeanPoint:
    @pytest.mark.parametrize("variant,delta_r", MODELS)
    def test_theta_star_is_the_mean_flows(self, chain, psi, variant, delta_r):
        # one route: the report's theta_star is meanflow's, bit for bit
        rep = asymptotics_report(chain, psi, 0.99, delta_r, 0.65, variant)
        flow = mean_flow_relative(chain, psi, 0.99, 0.0, delta_r)
        assert np.array_equal(rep.theta_star, flow.theta_star)

    def test_negative_delta_r(self, chain, psi):
        # central differences in delta_r evaluate the report at -h
        a_bar = _pre_solve(chain, psi, 0.99, -0.5, VARIANT_FIXED_RELATIVE, 0.65)[0]
        flow = mean_flow_relative(chain, psi, 0.99, 0.0, -0.5)
        psi_bar = feature_mean(chain, psi)
        want = mean_flow_td_lambda(chain, psi, 0.99, 0.0) + 0.5 * np.outer(psi_bar, psi_bar)
        assert np.array_equal(a_bar, flow.a_bar)
        assert np.array_equal(flow.a_bar, want)


class TestNoiseVariant:
    def test_every_learner_variant_has_a_noise_model(self):
        assert set(NOISE_VARIANTS) == set(VARIANTS)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            noise_variant("nope", 0.5)

    def test_unknown_noise_model_rejected(self, chain, psi):
        with pytest.raises(ConfigError):
            asymptotics_report(chain, psi, 0.9, 0.5, 0.65, "nope")

    def test_td0_with_baseline_rejected(self, chain, psi):
        with pytest.raises(ConfigError):
            asymptotics_report(chain, psi, 0.9, 0.5, 0.65, VARIANT_TD0)


class TestSigmaDelta:
    def test_iid_noise_reduces_to_lag_zero(self):
        # at gamma = 0 on an i.i.d. chain the noise depends on Z_n alone, so
        # all nonzero lags vanish and the sum collapses to Cov(Delta)
        c, psi = iid_pair_setup(seed=3)
        p = pair_chain(c)
        noise = build_noise_model(c, psi, 0.0, 0.0, VARIANT_TD0)
        sig = asymptotics_report(c, psi, 0.0, 0.0, 0.65, VARIANT_TD0).sigma_delta
        delta = noise.delta_of_phi
        r0 = (p.stationary[:, None] * delta).T @ delta
        assert np.max(np.abs(sig - r0)) < 1e-12
        assert np.min(np.linalg.eigvalsh(sig)) > -1e-9

    def test_iid_pairs_match_truncated_sum(self):
        # with gamma > 0 consecutive noises still share the middle state;
        # verified against the brute-force truncated sum
        c, psi = iid_pair_setup(seed=3)
        p = pair_chain(c)
        noise = build_noise_model(c, psi, 0.9, 0.0, VARIANT_TD0)
        sig = asymptotics_report(c, psi, 0.9, 0.0, 0.65, VARIANT_TD0).sigma_delta
        trunc = truncated_sigma(noise, p, 200)
        assert np.max(np.abs(sig - trunc)) < 1e-10
        assert np.max(np.abs(sig - sig.T)) < 1e-12

    @pytest.mark.parametrize("variant,delta_r", [(VARIANT_TD0, 0.0),
                                                 (VARIANT_FIXED_RELATIVE, 0.5),
                                                 (VARIANT_VARPI_LIMIT, 0.5)])
    def test_matches_truncated_sum(self, chain, psi, pair, variant, delta_r):
        noise = build_noise_model(chain, psi, 0.99, delta_r, variant)
        sig = asymptotics_report(chain, psi, 0.99, delta_r, 0.65, variant).sigma_delta
        trunc = truncated_sigma(noise, pair, 10_000)
        assert np.max(np.abs(sig - trunc)) < 1e-6

    def test_nonzero_mean_rejected(self, chain, psi):
        # a theta_star off by 1 in every component leaves Delta a nonzero mean
        solve = meanflow.guarded_solve

        def off(m, rhs, error, what, cond=None):
            x = solve(m, rhs, error, what, cond)
            return x + 1.0 if what == "mean-flow matrix" else x

        with mock.patch.object(meanflow, "guarded_solve", off), pytest.raises(NonZeroMean):
            asymptotics_report(chain, psi, 0.99, 0.0, 0.65, VARIANT_TD0)

    def test_psd(self, chain, psi):
        sig = asymptotics_report(chain, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE).sigma_delta
        assert np.min(np.linalg.eigvalsh(sig)) > -1e-9


def truncated_sigma(noise, pair, k_max):
    """Brute-force two-sided autocorrelation sum oracle."""
    delta = noise.delta_of_phi
    w = pair.stationary[:, None] * delta
    total = w.T @ delta
    pk_delta = delta
    for _ in range(k_max):
        pk_delta = pair.transition @ pk_delta
        g = w.T @ pk_delta
        total = total + g + g.T
    return total


class TestSigmaThetaStar:
    def test_identity_flow(self, chain):
        # a constant feature at gamma = 0 gives A(phi) = -1 throughout:
        # theta_star = b_bar = E[c] and Sigma_theta = Sigma_Delta
        rep = asymptotics_report(chain, constant_feature(chain), 0.0, 0.0, 0.65, VARIANT_TD0)
        assert rep.theta_star == pytest.approx([chain.stationary @ chain.cost_vec], abs=1e-12)
        assert np.allclose(rep.sigma_theta_star, rep.sigma_delta)

    def test_linear_scaling(self, chain, psi):
        # doubling the cost doubles theta_star and Delta, so Sigma_theta grows fourfold
        double = dataclasses.replace(chain, cost_vec=2 * chain.cost_vec)
        s1 = asymptotics_report(chain, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
        s4 = asymptotics_report(double, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
        assert np.max(np.abs(s4.sigma_theta_star - 4 * s1.sigma_theta_star)) < 1e-9

    def test_finite_trace(self, chain, psi):
        s = asymptotics_report(chain, psi, 0.99, 0.5, 0.65,
                               VARIANT_FIXED_RELATIVE).sigma_theta_star
        assert np.isfinite(np.trace(s))
        assert np.min(np.linalg.eigvalsh(s)) > -1e-9

    def test_td0_trace_grows_with_normalizer_relative_stays_bounded(self, chain):
        # tabular basis admits a normalizer: plain one-step TD covariance blows
        # up along gamma -> 1 while the stationary-baseline variant does not
        tab = tabular_basis(6)
        td_traces, rel_traces = [], []
        for gamma in (0.9, 0.99, 0.999):
            td = asymptotics_report(chain, tab, gamma, 0.0, 0.65, VARIANT_TD0)
            td_traces.append(np.trace(td.sigma_theta_star))
            rel = asymptotics_report(chain, tab, gamma, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
            rel_traces.append(np.trace(rel.sigma_theta_star))
        assert td_traces[0] < td_traces[1] < td_traces[2]
        assert td_traces[2] > 100 * rel_traces[2]
        assert max(rel_traces) < 10 * min(rel_traces)


class TestMatrixPoisson:
    def test_constant_coefficients_give_zero(self, chain):
        _, a_hat = route_a_hat(chain, constant_feature(chain), 0.99, 0.0, VARIANT_TD0)
        assert np.max(np.abs(a_hat)) < 1e-10

    def test_plugback_residual(self, chain, psi, pair):
        noise, a_hat = route_a_hat(chain, psi, 0.99, 0.5, VARIANT_FIXED_RELATIVE)
        lhs = a_hat - np.einsum("pq,qij->pij", pair.transition, a_hat)
        rhs = noise.a_of_phi - noise.a_bar
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.max(np.abs(np.einsum("p,pij->ij", pair.stationary, a_hat))) < 1e-10

    def test_random_chain(self):
        rng = np.random.default_rng(7)
        p = rng.gamma(1.0, 1.0, size=(4, 4)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        c = FiniteChain(transition=p, cost_vec=rng.standard_normal(4),
                        stationary=stationary_pmf(p))
        psi = FeatureMap(rng.standard_normal((4, 2)))
        pair = pair_chain(c)
        noise, a_hat = route_a_hat(c, psi, 0.9, 0.0, VARIANT_TD0)
        lhs = a_hat - np.einsum("pq,qij->pij", pair.transition, a_hat)
        assert np.max(np.abs(lhs - (noise.a_of_phi - noise.a_bar))) < 1e-9


class TestBias:
    def test_constant_a_zero_bias(self):
        # with A(phi) constant, A_hat = 0 and Upsilon_bar = A_bar E[Delta] = 0
        c, _ = iid_pair_setup(seed=9)
        rep = asymptotics_report(c, constant_feature(c), 0.9, 0.0, 0.65, VARIANT_TD0)
        assert np.max(np.abs(rep.bias)) < 1e-10

    def test_rho_scaling(self, chain, psi):
        b65 = asymptotics_report(chain, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE).bias
        b825 = asymptotics_report(chain, psi, 0.99, 0.5, 0.825, VARIANT_FIXED_RELATIVE).bias
        # doubling 1/(1-rho) doubles the averaged-bias vector
        assert np.max(np.abs(b825 - 2 * b65)) < 1e-9

    def test_consistency_identity(self, chain, psi):
        rep = asymptotics_report(chain, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
        resid = rep.sigma_theta_star @ np.zeros(3)  # noqa: F841 (structure check below)
        noise = build_noise_model(chain, psi, 0.99, 0.5, VARIANT_FIXED_RELATIVE)
        assert np.max(np.abs(noise.a_bar @ ((1 - rep.rho) * rep.bias) - rep.upsilon_bar)) < 1e-9

    def test_exact_mean_recursion_oracle(self, chain, psi, pair):
        """The normalized mean error of the exact first-moment recursion
        approaches A_bar^{-1} Upsilon_bar (the raw-iterate limit; the
        1/(1-rho) factor belongs to the averaged estimate)."""
        gamma, rho, dr = 0.99, 0.65, 0.5
        noise = build_noise_model(chain, psi, gamma, dr, VARIANT_FIXED_RELATIVE)
        ups = asymptotics_report(chain, psi, gamma, dr, rho, VARIANT_FIXED_RELATIVE).upsilon_bar
        iterate_pred = np.linalg.solve(noise.a_bar, ups)
        m = np.outer(pair.stationary, noise.theta_star)
        pt = pair.transition.T.copy()
        horizons = (100_000, 300_000)
        deviations = []
        raw = None
        for n in range(1, horizons[-1] + 1):
            a = min(0.02, float(n) ** -rho)
            pm = pt @ m
            m = pm + a * (np.einsum("pij,pj->pi", noise.a_of_phi, pm)
                          + pair.stationary[:, None] * noise.b_of_phi)
            if n in horizons:
                raw = (m.sum(axis=0) - noise.theta_star) / a
                deviations.append(np.max(np.abs(raw - iterate_pred)
                                         / np.abs(iterate_pred)))
        # converging toward the raw-iterate prediction ...
        assert deviations[-1] < deviations[0] < 1.0
        assert deviations[-1] < 0.45
        # ... and away from the averaged-estimate value on every component
        far = raw - iterate_pred / (1 - rho)
        assert np.min(np.abs(far) / np.abs(iterate_pred)) > 0.5


@pytest.fixture(scope="module")
def rep(chain, psi):
    return sensitivity(chain, psi, 0.99, 0.65)


class TestSensitivity:

    def test_d_a_bar_outer_product(self, chain, psi, rep):
        psi_bar = feature_mean(chain, psi)
        assert np.array_equal(rep.d_a_bar, -np.outer(psi_bar, psi_bar))

    def test_d_a_inv_identity(self, chain, psi, rep):
        noise = build_noise_model(chain, psi, 0.99, 0.0, VARIANT_TD0)
        a_inv = np.linalg.inv(noise.a_bar)
        assert np.max(np.abs(rep.d_a_inv + a_inv @ rep.d_a_bar @ a_inv)) < 1e-10

    def _fd(self, chain, psi, h, what):
        reps = {}
        for s in (+1, -1):
            noise = build_noise_model(chain, psi, 0.99, s * h, VARIANT_FIXED_RELATIVE)
            if what == "theta":
                reps[s] = noise.theta_star
            elif what == "a_inv":
                reps[s] = np.linalg.inv(noise.a_bar)
            else:
                rep = asymptotics_report(chain, psi, 0.99, s * h, 0.65, VARIANT_FIXED_RELATIVE)
                reps[s] = rep.sigma_theta_star if what == "sigma" else rep.bias
        return (reps[+1] - reps[-1]) / (2 * h)

    @pytest.mark.parametrize("what,attr", [("theta", "d_theta_star"),
                                           ("a_inv", "d_a_inv"),
                                           ("sigma", "d_sigma"),
                                           ("bias", "d_bias")])
    def test_matches_central_difference(self, chain, psi, rep, what, attr):
        fd = self._fd(chain, psi, 1e-5, what)
        closed = getattr(rep, attr)
        rel = np.max(np.abs(fd - closed)) / np.max(np.abs(fd))
        assert rel < 1e-3

    def test_frozen_noise_values_differ(self, chain, psi, rep):
        # the simplified convention (noise derivatives forced to zero) is kept
        # for reference but does not reproduce the finite differences
        fd = self._fd(chain, psi, 1e-5, "sigma")
        rel = np.max(np.abs(fd - rep.d_sigma_frozen_noise)) / np.max(np.abs(fd))
        assert rel > 0.05
        assert np.max(np.abs(rep.sigma_delta_prime)) > 1.0

    def test_outer_product_residual_reported(self, rep):
        assert rep.a_inv_prime_outer_residual > 0.0

    def test_centered_features_zero_derivatives(self, chain, psi):
        centered = FeatureMap(psi.matrix - feature_mean(chain, psi))
        rep = sensitivity(chain, centered, 0.99, 0.65)
        assert np.max(np.abs(rep.d_a_bar)) < 1e-12
        assert np.max(np.abs(rep.d_theta_star)) < 1e-10
        assert np.max(np.abs(rep.d_sigma)) < 1e-9
        assert np.max(np.abs(rep.d_bias)) < 1e-9

    def test_bias_norm_slope(self, chain, psi, rep):
        # slope of ||bias(delta)||^2 at zero vs a secant on [0, 1e-4]
        rep0 = asymptotics_report(chain, psi, 0.99, 0.0, 0.65, VARIANT_TD0)
        slope = 2.0 * float(rep0.bias @ rep.d_bias)
        h = 1e-4
        rep_h = asymptotics_report(chain, psi, 0.99, h, 0.65, VARIANT_FIXED_RELATIVE)
        secant = (float(rep_h.bias @ rep_h.bias) - float(rep0.bias @ rep0.bias)) / h
        assert slope == pytest.approx(secant, rel=0.01)


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def random_unichain(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, 1.0, size=(n, n)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    return FiniteChain(transition=p, cost_vec=rng.standard_normal(n),
                       stationary=stationary_pmf(p))


def oracle_case(name):
    """(chain, psi) for the base-chain vs pair-chain comparison."""
    if name == "two_cycle":
        c = FiniteChain(transition=[[0.0, 1.0], [1.0, 0.0]], cost_vec=[1.0, -0.5],
                        stationary=[0.5, 0.5])
    elif name == "transient":
        # state 3 is left at once and never entered again: varpi(3) = 0
        rng = np.random.default_rng(11)
        p = rng.random((4, 4)) + 0.05
        p[:, 3] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        c = FiniteChain(transition=p, cost_vec=rng.standard_normal(4),
                        stationary=stationary_pmf(p))
    else:
        n = int(name.split("_")[1])
        c = random_unichain(n, seed=100 + n)
    # d < n_z: with d = n_z the two-cycle's TD fixed point is exact and Delta = 0
    psi = FeatureMap(np.random.default_rng(c.n_z).standard_normal((c.n_z, min(3, c.n_z - 1))))
    return c, psi


ORACLE_CASES = ["random_2", "random_3", "random_5", "random_7", "random_10",
                "two_cycle", "transient"]


class TestBaseChainRoute:
    """The base-chain split against the explicit pair chain (``pair_oracle``)."""

    @pytest.mark.parametrize("variant,delta_r", MODELS)
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_pair_chain_oracle(self, case, variant, delta_r):
        c, psi = oracle_case(case)
        pair = pair_chain(c)
        noise, a_hat = route_a_hat(c, psi, 0.9, delta_r, variant)
        # relative to the lag-zero term E[Delta Delta']: on the two-cycle Delta
        # alternates in sign along the cycle and Sigma_Delta is 0
        delta = noise.delta_of_phi
        r0 = (pair.stationary[:, None] * delta).T @ delta
        rep = asymptotics_report(c, psi, 0.9, delta_r, 0.65, variant)
        err = np.max(np.abs(rep.sigma_delta - pair_oracle.sigma_delta(noise, pair)))
        assert err < 1e-10 * np.max(np.abs(r0))
        assert rel_err(rep.upsilon_bar, pair_oracle.upsilon_bar(noise, pair)) < 1e-10
        assert rel_err(a_hat, pair_oracle.matrix_poisson(noise, pair)) < 1e-10
        lhs = a_hat - np.einsum("pq,qij->pij", pair.transition, a_hat)
        rhs = noise.a_of_phi - noise.a_bar
        assert rel_err(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_sensitivity_matches_pair_chain_oracle(self, case):
        c, psi = oracle_case(case)
        rep = sensitivity(c, psi, 0.9, 0.65)
        d_sigma, d_bias = pair_oracle.sensitivity(c, psi, 0.9, 0.65)
        if case == "two_cycle":
            # d_sigma is 0 in exact arithmetic there: measure against the
            # lag-zero scale A_bar^{-1} E[Delta' Delta'] A_bar^{-T}
            noise = build_noise_model(c, psi, 0.9, 0.0, VARIANT_TD0)
            a_inv = np.linalg.inv(noise.a_bar)
            psi_bar = feature_mean(c, psi)
            delta = noise.delta_of_phi
            delta_prime = float(psi_bar @ noise.theta_star) * (
                (noise.a_of_phi - noise.a_bar) @ (a_inv @ psi_bar))
            r0_prime = (pair_chain(c).stationary[:, None] * delta_prime).T @ delta
            lag_zero = np.max(np.abs(a_inv @ r0_prime @ a_inv.T))
            assert np.max(np.abs(rep.d_sigma - d_sigma)) < 1e-10 * lag_zero
        else:
            assert rel_err(rep.d_sigma, d_sigma) < 1e-10
        assert rel_err(rep.d_bias, d_bias) < 1e-10

    def test_report_at_200_states(self):
        # the explicit pair chain of this chain would take 12.8 GB; Sigma_Delta
        # is checked against its autocorrelation sum R(0) + sum_k (R(k) + R(k)')
        # on the base chain, R(k) = W' P^{k-1} g for k >= 1
        c = random_unichain(200, seed=3)
        psi = FeatureMap(np.random.default_rng(4).standard_normal((200, 4)))
        rep = asymptotics_report(c, psi, 0.9, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
        noise = build_noise_model(c, psi, 0.9, 0.5, VARIANT_FIXED_RELATIVE)
        delta = noise.delta_of_phi.reshape(200, 200, 4)
        pair_law = c.stationary[:, None] * c.transition
        w = np.einsum("zy,zyi->yi", pair_law, delta)
        g = np.einsum("zy,zyi->zi", c.transition, delta)
        want = np.einsum("zy,zyi,zyj->ij", pair_law, delta, delta)
        for _ in range(200):
            r_k = w.T @ g
            want = want + r_k + r_k.T
            g = c.transition @ g
        assert rel_err(rep.sigma_delta, want) < 1e-9
        assert np.min(np.linalg.eigvalsh(rep.sigma_theta_star)) > 0
        assert rel_err(noise.a_bar @ ((1 - rep.rho) * rep.bias), rep.upsilon_bar) < 1e-9
        # and every field against the pair-array route
        for key, want in pair_oracle.exact(noise, c, 0.65)[0].items():
            assert rel_err(getattr(rep, key), want) < 1e-10, key

    def test_report_memory_at_400_states(self):
        # a pair array of this chain would hold 400^2 x 4 x 4 floats (20 MB)
        c = random_unichain(400, seed=5)
        psi = FeatureMap(np.random.default_rng(6).standard_normal((400, 4)))
        tracemalloc.start()
        try:
            asymptotics_report(c, psi, 0.9, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("variant,delta_r", MODELS)
    def test_tabular_report_matches_the_forward_route(self, variant, delta_r):
        # d = n_z: the forward route's G holds 40 x 40 x 40 floats
        c = random_unichain(40, seed=12)
        rep = asymptotics_report(c, tabular_basis(40), 0.9, delta_r, 0.65, variant)
        want = pair_oracle.forward_exact(c, tabular_basis(40), 0.9, delta_r, variant, 0.65)[0]
        for key in ("theta_star", "sigma_delta", "sigma_theta_star", "upsilon_bar", "bias"):
            assert rel_err(getattr(rep, key), getattr(want, key)) < 1e-10, key

    def test_tabular_sensitivity_memory_at_300_states(self):
        # a matrix Poisson solution G of this basis would hold 300^3 floats (216 MB)
        c = random_unichain(300, seed=13)
        tracemalloc.start()
        try:
            sensitivity(c, tabular_basis(300), 0.9, 0.65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


# the five reports of one chain in the exact_large benchmark workload
CHAIN_REPORTS = ((VARIANT_TD0, 0.99, 0.0), (VARIANT_TD0, 0.999, 0.0),
                 (VARIANT_FIXED_RELATIVE, 0.99, 0.5), (VARIANT_FIXED_RELATIVE, 0.999, 0.5),
                 (VARIANT_VARPI_LIMIT, 0.99, 0.5))


def chain_reports(c, psi):
    for variant, gamma, delta_r in CHAIN_REPORTS:
        asymptotics_report(c, psi, gamma, delta_r, 0.65, variant)
    sensitivity(c, psi, 0.99, 0.65)


def exact_large_report(c, psi):
    """Every exact call the exact_large workload makes on one chain."""
    feature_stats(c, psi)
    for gamma in (0.9, 0.99, 0.999):
        for delta_r in (0.0, 0.5):
            mean_flow_relative(c, psi, gamma, 0.0, delta_r)
    dirichlet_report(c, psi, 0.9)
    chain_reports(c, psi)


class TestConditionChecks:
    """cond(I - P + 1 varpi') is one SVD per chain, and only a float is kept;
    cond(I - beta P) is a norm bound unless beta is near 1."""

    def test_one_poisson_cond_per_chain(self):
        # the only n_z x n_z cond of a chain; I - 0.9 P is bounded by its norms,
        # and the other 12 are the d x d mean-flow matrices
        c = random_unichain(28, seed=8)
        psi = FeatureMap(np.random.default_rng(9).standard_normal((28, 4)))
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            exact_large_report(c, psi)
        shapes = [call.args[0].shape for call in cond.call_args_list]
        assert (shapes.count((28, 28)), len(shapes)) == (1, 13)

    def test_no_chain_solve_in_the_lam_zero_mean_flow(self):
        c = random_unichain(28, seed=8)
        psi = FeatureMap(np.random.default_rng(9).standard_normal((28, 4)))
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            mean_flow_relative(c, psi, 0.99, 0.0, 0.5)
        assert all(call.args[0].shape != (28, 28) for call in solve.call_args_list)

    @pytest.mark.parametrize("what,columns", [("report", 4), ("sensitivity", 8)])
    def test_one_adjoint_solve(self, what, columns):
        # a report pairs its solutions with w_Delta alone: d columns; sensitivity
        # adds w_Delta' to the same solve, since phi_bar is known before it
        c = random_unichain(28, seed=8)
        psi = FeatureMap(np.random.default_rng(9).standard_normal((28, 4)))
        with mock.patch.object(asymptotics, "poisson_solve_adjoint",
                               wraps=asymptotics.poisson_solve_adjoint) as solve:
            if what == "report":
                asymptotics_report(c, psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE)
            else:
                sensitivity(c, psi, 0.99, 0.65)
        assert [call.args[1].shape for call in solve.call_args_list] == [(28, columns)]

    @pytest.mark.parametrize("beta,solves", [(0.0, 0), (0.35, 1), (0.99, 1)])
    def test_resolvent_solves_and_no_cond_per_dirichlet_report(self, beta, solves):
        c = random_unichain(28, seed=8)
        psi = FeatureMap(np.random.default_rng(9).standard_normal((28, 4)))
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
                mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            dirichlet_report(c, psi, beta)
        assert [call.args[0].shape for call in solve.call_args_list] == [(28, 28)] * solves
        assert cond.call_count == 0

    def test_one_cond_before_a_singular_resolvent(self):
        # past the norm bound the SVD runs, and fires
        c = random_unichain(28, seed=8)
        psi = FeatureMap(np.random.default_rng(9).standard_normal((28, 4)))
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond, \
                pytest.raises(SingularResolvent):
            dirichlet_report(c, psi, 1 - 1e-13)
        assert [call.args[0].shape for call in cond.call_args_list] == [(28, 28)]

    def test_no_cond_in_eps_p(self):
        c = random_unichain(28, seed=8)
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            eps_p(c)
        assert cond.call_count == 0

    def test_chain_caches_scalars_only(self):
        # an n_z^2 cache on the chain would outlive the report and raise peak RSS
        c = random_unichain(400, seed=5)
        psi = FeatureMap(np.random.default_rng(6).standard_normal((400, 4)))
        chain_reports(c, psi)
        fields = {f.name for f in dataclasses.fields(c)}
        extra = {k: v for k, v in vars(c).items() if k not in fields}
        assert "poisson_cond" in extra
        assert all(type(v) in (bool, int, float) for v in extra.values()), extra


class TestCostScaling:
    def test_large_costs(self):
        # with costs scaled by s, Sigma_Delta scales by s^2 and Upsilon_bar by s;
        # closed-form checks inside the report must not fail on roundoff of size s
        psi = finite_poly_basis(3, 2)

        def report(s):
            mdp = FiniteMdp(n_states=3, n_actions=2, kernel=models.FINITE_KERNEL,
                            cost=s * models.FINITE_COST)
            return asymptotics_report(build_chain(mdp, models.finite_eval_policy()),
                                      psi, 0.99, 0.5, 0.65, VARIANT_FIXED_RELATIVE)

        s = 1e9
        base, scaled = report(1.0), report(s)
        assert rel_err(scaled.sigma_delta / s ** 2, base.sigma_delta) < 1e-9
        assert rel_err(scaled.upsilon_bar / s, base.upsilon_bar) < 1e-9
