from unittest import mock

import numpy as np
import pytest

from rtdlab import meanflow, models
from rtdlab.errors import NoNormalizer, NotSimple, SingularResolvent
from rtdlab.features import (FeatureMap, autocorrelation, baseline_mean, feature_mean,
                             feature_stats, finite_poly_basis, tabular_basis)
from rtdlab.markov import FiniteChain, build_chain
from rtdlab.meanflow import (EPS_P_BETA_GRID, b_bar, dirichlet_report, eigen_perturbation,
                             eps_p, instability_probe, mean_flow_relative, mean_flow_td_lambda,
                             spectral_report)


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


@pytest.fixture(scope="module")
def psi():
    return finite_poly_basis(3, 2)


GAMMA_GRID = (0.5, 0.8, 0.9, 0.99, 0.999)
LAMBDA_GRID = (0.0, 0.3, 0.5, 0.9)


class TestMeanFlowTdLambda:
    def test_lambda_one_is_minus_r0(self, chain, psi):
        a = mean_flow_td_lambda(chain, psi, 0.9, 1.0)
        assert np.max(np.abs(a + autocorrelation(chain, psi, 0))) < 1e-12

    def test_lambda_zero_form(self, chain, psi):
        a = mean_flow_td_lambda(chain, psi, 0.9, 0.0)
        expect = -autocorrelation(chain, psi, 0) + 0.9 * autocorrelation(chain, psi, 1)
        assert np.max(np.abs(a - expect)) < 1e-12

    def test_td0_eigenvalue_approaches_zero(self, chain, psi):
        mins = [np.min(np.abs(spectral_report(mean_flow_td_lambda(chain, psi, g, 0.0))
                              .eigenvalues.real)) for g in (0.9, 0.99, 0.999)]
        assert mins[0] > mins[1] > mins[2]

    def test_classical_hurwitz_bound_tabular(self, chain):
        # theta'A theta <= -(1-gamma) theta'R(0) theta for the tabular basis
        tab = tabular_basis(6)
        r0 = autocorrelation(chain, tab, 0)
        rng = np.random.default_rng(1)
        for gamma in (0.5, 0.9, 0.99):
            a = mean_flow_td_lambda(chain, tab, gamma, 0.0)
            for _ in range(50):
                th = rng.standard_normal(6)
                assert th @ a @ th <= -(1 - gamma) * (th @ r0 @ th) + 1e-10

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_decomposition_identity(self, chain, psi, gamma, lam):
        # A(lam; 0) = -(1 - varrho) R(0) - varrho M_beta with beta = lam*gamma
        beta = lam * gamma
        varrho = gamma * (1 - lam) / (1 - beta)
        rep = dirichlet_report(chain, psi, beta)
        a = mean_flow_td_lambda(chain, psi, gamma, lam)
        r0 = autocorrelation(chain, psi, 0)
        resid = a + (1 - varrho) * r0 + varrho * rep.m_beta
        assert np.max(np.abs(resid)) < 1e-10


class TestBBar:
    def test_lambda_zero_tabular(self, chain):
        b = b_bar(chain, tabular_basis(6), 0.9, 0.0)
        assert np.max(np.abs(b - chain.stationary * chain.cost_vec)) < 1e-14

    def test_matches_truncated_sum(self, chain, psi):
        lam, gamma = 0.5, 1.0  # lam*gamma = 0.5
        closed = b_bar(chain, psi, gamma, lam)
        d_psi = chain.stationary[:, None] * psi.matrix
        pk_c = chain.cost_vec.copy()
        total = np.zeros(psi.dim)
        for k in range(201):
            total += 0.5 ** k * (d_psi.T @ pk_c)
            pk_c = chain.transition @ pk_c
        assert np.max(np.abs(closed - total)) < 1e-10

    def test_zero_cost(self, chain, psi):
        zero_chain = FiniteChain(transition=chain.transition, cost_vec=np.zeros(6),
                                 stationary=chain.stationary)
        assert np.max(np.abs(b_bar(zero_chain, psi, 0.9, 0.3))) == 0.0
        flow = mean_flow_relative(zero_chain, psi, 0.9, 0.3, 0.5)
        assert np.max(np.abs(flow.theta_star)) < 1e-12

    def test_singular_resolvent_raises(self, chain, psi):
        # returned about 5.8e12 with no error before it went through resolvent_solve
        with pytest.raises(SingularResolvent):
            b_bar(chain, psi, 1 - 1e-13, 1.0)


class TestMeanFlowRelative:
    def test_delta_zero_reduction(self, chain, psi):
        flow = mean_flow_relative(chain, psi, 0.9, 0.4, 0.0)
        assert np.array_equal(flow.a_bar, mean_flow_td_lambda(chain, psi, 0.9, 0.4))

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_rank_one_identity(self, chain, psi, gamma, lam):
        # A(lam; delta) - A(lam; 0) = -delta/(1 - lam*gamma) psi_bar psi_bar_mu'
        mu = np.full(6, 1 / 6)
        base = baseline_mean(mu, psi)
        delta = 0.7
        flow = mean_flow_relative(chain, psi, gamma, lam, delta, base)
        a0 = mean_flow_td_lambda(chain, psi, gamma, lam)
        correction = (delta / (1 - lam * gamma)) * np.outer(feature_mean(chain, psi),
                                                            base.psi_bar_mu)
        assert np.max(np.abs(flow.a_bar - (a0 - correction))) < 1e-12

    def test_stationary_point(self, chain, psi):
        flow = mean_flow_relative(chain, psi, 0.99, 0.0, 0.5)
        assert np.max(np.abs(flow.a_bar @ flow.theta_star + flow.b_bar)) < 1e-9
        assert not flow.singular

    def test_singular_flag_near_gamma_one_with_normalizer(self, chain):
        # tabular basis at gamma = 1, delta = 0: the all-ones direction is null
        tab = tabular_basis(6)
        flow = mean_flow_relative(chain, tab, 1.0, 0.0, 0.0)
        assert flow.singular
        assert flow.theta_star is None

    def test_stationary_baseline_is_symmetric_correction(self, chain, psi):
        flow0 = mean_flow_td_lambda(chain, psi, 0.9, 0.0)
        flow = mean_flow_relative(chain, psi, 0.9, 0.0, 1.0)  # mu defaults to varpi
        diff = flow0 - flow.a_bar
        assert np.max(np.abs(diff - diff.T)) < 1e-12


    def test_default_baseline_is_psi_bar(self, chain, psi):
        # the default mu is varpi, whose psi_bar_mu is psi_bar: no BaselineMean is built
        with mock.patch.object(meanflow, "baseline_mean", wraps=meanflow.baseline_mean) as base:
            flow = mean_flow_relative(chain, psi, 0.9, 0.4, 0.7)
        assert base.call_count == 0
        explicit = mean_flow_relative(chain, psi, 0.9, 0.4, 0.7, chain.stationary)
        assert np.array_equal(flow.a_bar, explicit.a_bar)


class TestSpectralReport:
    def test_negative_identity(self):
        rep = spectral_report(-np.eye(4))
        assert np.allclose(rep.eigenvalues, -1.0)
        assert rep.condition_number == pytest.approx(1.0)
        assert rep.hurwitz and rep.max_real_part == pytest.approx(-1.0)

    def test_relative_uniform_margin(self, chain, psi):
        # with the stationary baseline the margin stays bounded away from zero
        margins = []
        for g in (0.9, 0.99, 0.999):
            flow = mean_flow_relative(chain, psi, g, 0.0, 0.5)
            rep = spectral_report(flow.a_bar)
            assert rep.hurwitz
            margins.append(-rep.max_real_part)
        assert min(margins) > 0.05

    def test_scalar_chain_eigenvalue(self):
        c = FiniteChain(transition=[[1.0]], cost_vec=[1.0], stationary=[1.0])
        tab = tabular_basis(1)
        for gamma, delta in ((0.9, 0.0), (0.99, 0.5)):
            flow = mean_flow_relative(c, tab, gamma, 0.0, delta)
            assert flow.a_bar[0, 0] == pytest.approx(-(1 - gamma) - delta, abs=1e-12)


def dirichlet_quadratic_form(chain, psi, beta, theta):
    """<g_theta, (I - K_beta) g_theta>_{L2(varpi)} evaluated as an explicit sum.

    Independent route for the identity theta' M_beta theta = E_K(g, g).
    """
    g = psi.matrix @ theta
    k = meanflow._k_beta(chain.transition, beta)
    return float(np.sum(chain.stationary * g * (g - k @ g)))


class TestDirichlet:
    def test_beta_zero(self, chain, psi):
        rep = dirichlet_report(chain, psi, 0.0)
        k0 = meanflow._k_beta(chain.transition, 0.0)
        assert np.max(np.abs(k0 - chain.transition)) < 1e-12
        m0 = autocorrelation(chain, psi, 0) - autocorrelation(chain, psi, 1)
        assert np.max(np.abs(rep.m_beta - m0)) < 1e-12

    def test_iid_gap_is_one(self):
        rng = np.random.default_rng(4)
        pi = rng.dirichlet(np.ones(5))
        c = FiniteChain(transition=np.tile(pi, (5, 1)), cost_vec=np.zeros(5), stationary=pi)
        psi = FeatureMap(rng.standard_normal((5, 2)))
        for beta in (0.0, 0.5, 0.9):
            assert dirichlet_report(c, psi, beta).gap == pytest.approx(1.0, abs=1e-10)

    def test_two_cycle_degenerate(self):
        c = FiniteChain(transition=[[0.0, 1.0], [1.0, 0.0]], cost_vec=[0.0, 0.0],
                        stationary=[0.5, 0.5])
        psi = FeatureMap(np.array([[1.0], [2.0]]))
        rep = dirichlet_report(c, psi, 0.0)
        assert rep.degenerate
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
    def test_poincare_bound_on_probes(self, chain, psi, beta):
        rep = dirichlet_report(chain, psi, beta)
        sigma0 = feature_stats(chain, psi).sigma0
        rng = np.random.default_rng(17)
        for _ in range(100):
            th = rng.standard_normal(psi.dim)
            assert th @ rep.m_beta @ th >= rep.gap * (th @ sigma0 @ th) - 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
    def test_quadratic_form_identity(self, chain, psi, beta):
        rep = dirichlet_report(chain, psi, beta)
        rng = np.random.default_rng(23)
        for _ in range(25):
            th = rng.standard_normal(psi.dim)
            lhs = float(th @ rep.m_beta @ th)
            assert lhs == pytest.approx(dirichlet_quadratic_form(chain, psi, beta, th),
                                        abs=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 0.4, 0.8])
    def test_reversibilization_preserves_quadratic_form(self, chain, psi, beta):
        # <g, (I - K)g> = <g, (I - S)g> with S the additive reversibilization
        k = meanflow._k_beta(chain.transition, beta)
        pi = chain.stationary
        k_adj = (k * pi[:, None] / pi[None, :]).T  # pi(z') K(z', z) / pi(z)
        s = 0.5 * (k + k_adj)
        rng = np.random.default_rng(29)
        for _ in range(25):
            th = rng.standard_normal(psi.dim)
            gv = psi.matrix @ th
            lhs = float(np.sum(pi * gv * (gv - k @ gv)))
            rhs = float(np.sum(pi * gv * (gv - s @ gv)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_gap_within_unit_interval(self, chain, psi):
        for beta in (0.0, 0.2, 0.5, 0.8, 0.99):
            rep = dirichlet_report(chain, psi, beta)
            assert 0.0 < rep.gap <= 1.0
            assert 0.0 < eps_p(chain) <= rep.gap

    def test_uniform_hurwitz_bound(self, chain, psi):
        # max Re eig of A(lam; delta) <= -eps_P * lambda_min(Sigma(0))
        stats = feature_stats(chain, psi)
        floor = eps_p(chain) * np.min(np.linalg.eigvalsh(stats.sigma0))
        assert floor > 0
        for gamma in (0.9, 0.99, 0.999):
            for lam in (0.0, 0.5, 0.9):
                for delta in (0.0, 0.5, 5.0):
                    flow = mean_flow_relative(chain, psi, gamma, lam, delta)
                    rep = spectral_report(flow.a_bar)
                    assert rep.max_real_part <= -floor + 1e-12

    def test_restricted_support_flag(self):
        mdp, policy, psi_d, _, _ = models.unstable_demo()
        chain_d = build_chain(mdp, policy)
        rep = dirichlet_report(chain_d, psi_d, 0.3)
        assert rep.restricted_support
        assert rep.gap > 0

    def test_singular_resolvent_raises(self, chain, psi):
        # cond(I - beta P) passes 1e12 as beta -> 1; the guarded K_beta solve must say so
        with pytest.raises(SingularResolvent):
            dirichlet_report(chain, psi, 1 - 1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.35, 0.99])
    def test_one_k_beta_and_one_gap_per_report(self, chain, psi, beta):
        with mock.patch.object(meanflow, "_k_beta", wraps=meanflow._k_beta) as k_beta, \
                mock.patch.object(meanflow, "spectral_gap", wraps=meanflow.spectral_gap) as gap:
            dirichlet_report(chain, psi, beta)
        assert (k_beta.call_count, gap.call_count) == (1, 1)

    def test_eps_p_is_the_least_gap_over_the_grid(self, chain, psi):
        mdp, policy, psi_d, _, _ = models.unstable_demo()
        for c, f in ((chain, psi), (build_chain(mdp, policy), psi_d)):
            assert eps_p(c) == min(dirichlet_report(c, f, b).gap for b in EPS_P_BETA_GRID)


class TestEigenPerturbation:
    def test_decoupled_scalar(self):
        xi = np.diag([0.0, -1.0])
        e1 = np.array([1.0, 0.0])
        rep = eigen_perturbation(xi, e1, e1)
        assert rep.derivative == pytest.approx(1.0, abs=1e-12)

    def test_not_simple_rejected(self):
        with pytest.raises(NotSimple):
            eigen_perturbation(np.diag([1e-12, 1e-12, -1.0]), np.ones(3), np.ones(3))

    def test_tabular_gamma_one_sign(self, chain):
        tab = tabular_basis(6)
        a1 = mean_flow_td_lambda(chain, tab, 1.0, 0.0)
        psi_bar = feature_mean(chain, tab)
        mu = np.full(6, 1 / 6)
        rep = eigen_perturbation(a1, -psi_bar, tab.matrix.T @ mu)
        xi_unit = np.ones(6) / np.sqrt(6)
        paper = -(xi_unit @ psi_bar) * (xi_unit @ (tab.matrix.T @ mu))
        assert rep.derivative == pytest.approx(paper, rel=1e-8)

    def test_finite_difference_tracking(self, chain):
        tab = tabular_basis(6)
        a1 = mean_flow_td_lambda(chain, tab, 1.0, 0.0)
        psi_bar = feature_mean(chain, tab)
        w = tab.matrix.T @ chain.stationary
        rep = eigen_perturbation(a1, -psi_bar, w)
        h = 1e-6
        eig0 = np.linalg.eigvals(a1)
        eig1 = np.linalg.eigvals(a1 + h * np.outer(-psi_bar, w))
        k0 = eig0[np.argmin(np.abs(eig0))]
        k1 = eig1[np.argmin(np.abs(eig1))]
        fd = (k1 - k0).real / h
        assert rep.derivative == pytest.approx(fd, rel=1e-3)


@pytest.fixture(scope="module")
def demo():
    mdp, policy, psi_d, mu_neg, mu_pos = models.unstable_demo()
    return build_chain(mdp, policy), psi_d, mu_neg, mu_pos


class TestInstabilityProbe:

    def test_negative_baseline_unstable(self, demo):
        chain_d, psi_d, mu_neg, _ = demo
        table = instability_probe(chain_d, psi_d, mu_neg, 0.0,
                                  gamma_grid=[0.99, 0.999], delta_grid=[1e-3, 1e-2])
        assert table.xi_dot_psi_bar_mu < 0
        assert table.consistent
        assert not any(r.hurwitz for r in table.rows if r.delta_r > 0)

    def test_positive_baseline_stable(self, demo):
        chain_d, psi_d, _, mu_pos = demo
        table = instability_probe(chain_d, psi_d, mu_pos, 0.0,
                                  gamma_grid=[0.9, 0.99, 0.999], delta_grid=[1e-3])
        assert table.xi_dot_psi_bar_mu > 0
        assert table.consistent
        assert all(r.hurwitz for r in table.rows)

    def test_stationary_baseline_trivially_positive(self, chain):
        tab = tabular_basis(6)
        table = instability_probe(chain, tab, chain.stationary, 0.0,
                                  gamma_grid=[0.99], delta_grid=[0.1])
        assert table.xi_dot_psi_bar_mu == pytest.approx(1.0, abs=1e-10)
        assert all(r.hurwitz for r in table.rows)

    def test_no_normalizer_rejected(self, chain, psi):
        with pytest.raises(NoNormalizer):
            instability_probe(chain, psi, chain.stationary, 0.0, [0.9], [0.1])
