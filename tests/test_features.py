import numpy as np
import pytest

from rtdlab import models
from rtdlab.features import (FeatureMap, autocorrelation, baseline_mean, builtin_basis,
                             feature_mean, feature_stats, find_normalizer,
                             finite_poly_basis, resolvent_sum, tabular_basis)
from rtdlab.markov import FiniteChain


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


@pytest.fixture(scope="module")
def psi():
    return finite_poly_basis(3, 2)


def iid_chain(n, seed=0):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(n))
    p = np.tile(pi, (n, 1))
    return FiniteChain(transition=p, cost_vec=rng.standard_normal(n), stationary=pi)


def truncated_resolvent(chain, psi, beta, k_max):
    # incremental P^k to keep the oracle O(k_max) matrix products
    d_psi = chain.stationary[:, None] * psi.matrix
    pk_psi = chain.transition @ psi.matrix
    total = np.zeros((psi.dim, psi.dim))
    for k in range(k_max + 1):
        total += beta ** k * (d_psi.T @ pk_psi)
        pk_psi = chain.transition @ pk_psi
    return total


class TestAutocorrelation:
    def test_tabular_r0_is_diag_stationary(self, chain):
        r0 = autocorrelation(chain, tabular_basis(6), 0)
        assert np.max(np.abs(r0 - np.diag(chain.stationary))) < 1e-14

    def test_r0_symmetric_psd(self, chain, psi):
        r0 = autocorrelation(chain, psi, 0)
        assert np.max(np.abs(r0 - r0.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(r0)) > -1e-12

    def test_iid_chain_factorizes(self):
        c = iid_chain(5, seed=2)
        psi = FeatureMap(np.random.default_rng(3).standard_normal((5, 2)))
        pb = feature_mean(c, psi)
        for k in (1, 2, 5):
            assert np.max(np.abs(autocorrelation(c, psi, k) - np.outer(pb, pb))) < 1e-12

    def test_matches_trajectory_average(self, chain, psi):
        # Monte-Carlo oracle for R(0) over a long stationary trajectory
        from rtdlab.learner import FiniteChainEnv, substream
        env = FiniteChainEnv(chain, psi)
        traj = env.sample_states(200_000, substream(99, 0))
        rows = psi.matrix[traj]
        r0_mc = rows.T @ rows / len(rows)
        r0 = autocorrelation(chain, psi, 0)
        se = np.std(np.einsum("ni,nj->nij", rows, rows), axis=0) / np.sqrt(len(rows))
        assert np.all(np.abs(r0_mc - r0) < 3 * se + 1e-12)

    def test_cauchy_schwarz_bound(self, chain, psi):
        r0 = autocorrelation(chain, psi, 0)
        rng = np.random.default_rng(0)
        for k in (1, 2, 3, 7):
            rk = autocorrelation(chain, psi, k)
            for _ in range(50):
                th = rng.standard_normal(psi.dim)
                assert th @ rk @ th <= th @ r0 @ th + 1e-10


class TestResolventSum:
    def test_beta_zero_is_r1(self, chain, psi):
        assert np.array_equal(resolvent_sum(chain, psi, 0.0), autocorrelation(chain, psi, 1))

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_matches_truncated_sum(self, chain, psi, beta):
        closed = resolvent_sum(chain, psi, beta)
        trunc = truncated_resolvent(chain, psi, beta, 200)
        tol = beta ** 201 / (1 - beta) * np.max(np.abs(autocorrelation(chain, psi, 0))) + 1e-10
        assert np.max(np.abs(closed - trunc)) < max(tol, 1e-10)

    def test_high_beta_truncation(self, chain, psi):
        closed = resolvent_sum(chain, psi, 0.99)
        trunc = truncated_resolvent(chain, psi, 0.99, 10_000)
        assert np.max(np.abs(closed - trunc)) < 1e-8

    def test_iid_geometric_series(self):
        c = iid_chain(4, seed=5)
        psi = FeatureMap(np.random.default_rng(6).standard_normal((4, 3)))
        pb = feature_mean(c, psi)
        expect = np.outer(pb, pb) / (1 - 0.7)
        assert np.max(np.abs(resolvent_sum(c, psi, 0.7) - expect)) < 1e-10


class TestFeatureMeans:
    def test_mean_under_stationary_is_psi_bar(self, chain, psi):
        assert np.max(np.abs(baseline_mean(chain.stationary, psi).psi_bar_mu
                             - feature_mean(chain, psi))) < 1e-14

    def test_point_mass(self, psi):
        mu = np.zeros(6)
        mu[3] = 1.0
        assert np.array_equal(baseline_mean(mu, psi).psi_bar_mu, psi.matrix[3])

    def test_uniform_is_row_average(self, chain, psi):
        mu = np.full(6, 1 / 6)
        assert np.max(np.abs(baseline_mean(mu, psi).psi_bar_mu
                             - psi.matrix.mean(axis=0))) < 1e-14

    def test_rejects_non_pmf(self, psi):
        with pytest.raises(ValueError):
            baseline_mean(np.full(6, 0.5), psi)


class TestFeatureStats:
    def test_sigma0_decomposition(self, chain, psi):
        st = feature_stats(chain, psi)
        pb = feature_mean(chain, psi)
        assert np.max(np.abs(st.sigma0 - (st.r0 - np.outer(pb, pb)))) < 1e-13
        assert np.min(np.linalg.eigvalsh(st.sigma0)) > -1e-12

    def test_sigma0_below_r0(self, chain, psi):
        st = feature_stats(chain, psi)
        assert np.min(np.linalg.eigvalsh(st.r0 - st.sigma0)) > -1e-12

    def test_finite_poly_full_rank(self, chain, psi):
        assert feature_stats(chain, psi).rank_sigma0 == 3

    def test_tabular_rank_deficient(self, chain):
        # indicator features admit the all-ones normalizer, so Sigma(0) is singular
        st = feature_stats(chain, tabular_basis(6))
        assert st.rank_sigma0 == 5


class TestNormalizer:
    def test_tabular_all_ones(self, chain):
        res = find_normalizer(tabular_basis(6), chain.support)
        assert res.xi is not None
        assert np.allclose(res.xi, 1.0, atol=1e-10)
        assert res.residual < 1e-8

    def test_poly_basis_has_none(self, chain, psi):
        assert find_normalizer(psi, chain.support).xi is None
        assert feature_stats(chain, psi).rank_sigma0 == psi.dim

    def test_constant_feature_selected(self, chain):
        mat = np.hstack([np.random.default_rng(8).standard_normal((6, 2)), np.ones((6, 1))])
        res = find_normalizer(FeatureMap(mat), chain.support)
        assert res.xi is not None
        assert np.allclose(res.xi, [0.0, 0.0, 1.0], atol=1e-8)

    def test_normalizer_annihilates_sigma0(self, chain):
        tab = tabular_basis(6)
        st = feature_stats(chain, tab)
        res = find_normalizer(tab, chain.support)
        assert abs(res.xi @ st.sigma0 @ res.xi) < 1e-8

    def test_solution_dim_counts_nullity(self, chain):
        # duplicate a column: solution set becomes one-dimensional
        tab = tabular_basis(6).matrix
        mat = np.hstack([tab, tab[:, [0]]])
        res = find_normalizer(FeatureMap(mat), chain.support)
        assert res.xi is not None
        assert res.solution_dim == 1


class TestBuiltinBases:
    def test_finite_poly_rows(self):
        psi = builtin_basis("finite_poly", 3, 2)
        assert np.array_equal(psi.matrix[0], [1, 1, 1])   # (x=1, u=1)
        assert np.array_equal(psi.matrix[5], [3, 2, 6])   # (x=3, u=2)

    def test_tabular(self):
        assert np.array_equal(builtin_basis("tabular", 3, 2).matrix, np.eye(6))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_basis("fourier", 3, 2)
