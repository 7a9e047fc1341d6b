from unittest import mock

import numpy as np
import pytest

from rtdlab import markov, models
from rtdlab.errors import NotUnichain, SingularResolvent, SingularSystem
from rtdlab.features import BaselineMean
from rtdlab.markov import (FiniteChain, FiniteMdp, RandomizedPolicy, build_chain,
                           discounted_q, guarded_solve, load_model, poisson_solve_adjoint,
                           resolvent_solve, save_model, stationary_pmf)

from chain_helpers import (finite_greedy_policy, poisson_solve_columns, solve_poisson,
                           state_marginal)
from pair_oracle import pair_chain


@pytest.fixture(scope="module")
def chain():
    return models.finite_chain()


def random_chain(n, seed, cost_scale=1.0):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, 1.0, size=(n, n)) + 1e-3
    p /= p.sum(axis=1, keepdims=True)
    pi = stationary_pmf(p)
    return FiniteChain(transition=p, cost_vec=cost_scale * rng.standard_normal(n),
                       stationary=pi)


class TestStationary:
    def test_published_eval_policy_marginal(self, chain):
        expect = np.array([85, 108, 315]) / 508
        assert np.max(np.abs(state_marginal(chain) - expect)) < 1e-10

    def test_published_greedy_policy_marginal(self):
        gchain = build_chain(models.finite_mdp(), finite_greedy_policy())
        expect = np.array([1, 6, 6]) / 13
        assert np.max(np.abs(state_marginal(gchain) - expect)) < 1e-10

    def test_two_cycle_is_half_half(self):
        pi = stationary_pmf(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_agrees_with_power_iteration(self):
        # power-method oracle, averaged over one period to handle periodicity
        rng = np.random.default_rng(3)
        p = rng.gamma(1.0, 1.0, size=(5, 5))
        p /= p.sum(axis=1, keepdims=True)
        pk = np.linalg.matrix_power(p, 10_000)
        oracle = pk.mean(axis=0)
        assert np.max(np.abs(stationary_pmf(p) - oracle)) < 1e-10

    def test_reducible_chain_rejected(self):
        p = np.eye(3)
        with pytest.raises(NotUnichain):
            stationary_pmf(p)

    def test_two_closed_classes_rejected(self):
        p = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.7],
            [0.0, 0.0, 0.7, 0.3],
        ])
        with pytest.raises(NotUnichain):
            stationary_pmf(p)


class TestBuildChain:
    def test_single_state_single_action(self):
        mdp = FiniteMdp(n_states=1, n_actions=1, kernel=[[[1.0]]], cost=[[3.25]])
        pol = RandomizedPolicy(probs=[[1.0]])
        c = build_chain(mdp, pol)
        assert np.allclose(c.stationary, [1.0])
        assert solve_poisson(c, c.cost_vec).eta == pytest.approx(3.25, abs=1e-14)

    def test_average_costs(self, chain):
        assert solve_poisson(chain, chain.cost_vec).eta == pytest.approx(587 / 1016, abs=1e-12)
        gchain = build_chain(models.finite_mdp(), finite_greedy_policy())
        assert solve_poisson(gchain, gchain.cost_vec).eta == pytest.approx(3 / 65, abs=1e-12)

    def test_stationary_factorizes(self, chain):
        pi = state_marginal(chain)
        expect = (pi[:, None] * models.FINITE_EVAL_POLICY).reshape(6)
        assert np.max(np.abs(chain.stationary - expect)) < 1e-12

    def test_rows_stochastic_and_invariant(self, chain):
        assert np.max(np.abs(chain.transition.sum(axis=1) - 1)) < 1e-12
        assert np.max(np.abs(chain.stationary @ chain.transition - chain.stationary)) < 1e-10

    def test_chain_keeps_the_policy_table(self):
        policy = models.finite_eval_policy()
        assert build_chain(models.finite_mdp(), policy).policy is policy.probs

    def test_policy_the_transition_does_not_come_from_rejected(self, chain):
        # the 3x2 chain's matrices with the always-action-0 table
        table = np.column_stack([np.ones(3), np.zeros(3)])
        with pytest.raises(ValueError, match="policy"):
            FiniteChain(transition=chain.transition, cost_vec=chain.cost_vec,
                        stationary=chain.stationary, policy=table)

    @pytest.mark.parametrize("table", [np.full(6, 1 / 2), np.full((2, 2), 1 / 2),
                                       np.full((3, 2, 1), 1 / 2)])
    def test_policy_of_the_wrong_shape_rejected(self, chain, table):
        with pytest.raises(ValueError, match="policy shape"):
            FiniteChain(transition=chain.transition, cost_vec=chain.cost_vec,
                        stationary=chain.stationary, policy=table)

    def test_negative_transition_rejected(self):
        # rows that sum to 1, with [0, 1] invariant
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteChain(transition=[[1.5, -0.5], [0.0, 1.0]], cost_vec=[0.0, 1.0],
                        stationary=[0.0, 1.0])

    @pytest.mark.parametrize("cost", [[float("nan"), 1.0], [0.0, float("inf")],
                                      [-float("inf"), 0.0]])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="cost vector"):
            FiniteChain(transition=[[0.5, 0.5], [0.5, 0.5]], cost_vec=cost,
                        stationary=[0.5, 0.5])


NAN = float("nan")


def _nan_at(array, index):
    out = np.array(array, dtype=float)
    out[index] = NAN
    return out


class TestNanRejected:
    """Every range check of the model classes fails on a NaN entry."""

    @pytest.mark.parametrize("index", [(0, 0, 0), (1, 2, 1)])
    def test_kernel(self, index):
        with pytest.raises(ValueError, match="kernel"):
            FiniteMdp(n_states=3, n_actions=2, kernel=_nan_at(models.FINITE_KERNEL, index),
                      cost=models.FINITE_COST)

    @pytest.mark.parametrize("probs", [[[NAN, 1.0]], [[0.5, 0.5], [1.0, NAN]]])
    def test_policy(self, probs):
        with pytest.raises(ValueError, match="policy"):
            RandomizedPolicy(probs)

    @pytest.mark.parametrize("field, index, match", [
        ("transition", (0, 1), "transition rows"),
        ("stationary", 2, "stationary"),
        ("policy", (1, 0), "policy"),
        ("cost_vec", 3, "cost vector"),
    ])
    def test_chain(self, chain, field, index, match):
        arrays = dict(transition=chain.transition, cost_vec=chain.cost_vec,
                      stationary=chain.stationary, policy=chain.policy)
        arrays[field] = _nan_at(arrays[field], index)
        with pytest.raises(ValueError, match=match):
            FiniteChain(**arrays)

    @pytest.mark.parametrize("mu", [[NAN, 0.5, 0.5], [NAN, NAN, NAN]])
    def test_baseline_mean(self, mu):
        with pytest.raises(ValueError, match="pmf"):
            BaselineMean(mu=np.array(mu), psi_bar_mu=np.zeros(2))


class TestPoisson:
    def test_plugback_residual(self, chain):
        sol = solve_poisson(chain, chain.cost_vec)
        resid = (np.eye(6) - chain.transition) @ sol.h - (chain.cost_vec - sol.eta)
        assert np.max(np.abs(resid)) < 1e-9
        assert abs(chain.stationary @ sol.h) < 1e-12

    def test_constant_input(self, chain):
        sol = solve_poisson(chain, np.full(6, 4.2))
        assert sol.eta == pytest.approx(4.2, abs=1e-12)
        assert np.max(np.abs(sol.h)) < 1e-10

    def test_random_chain_residual(self):
        c = random_chain(6, seed=11)
        g = np.random.default_rng(12).standard_normal(6)
        sol = solve_poisson(c, g)
        resid = (np.eye(6) - c.transition) @ sol.h - (g - sol.eta)
        assert np.max(np.abs(resid)) < 1e-9

    @pytest.mark.parametrize("solve", [poisson_solve_columns, solve_poisson,
                                       poisson_solve_adjoint])
    def test_singular_matrix_raises_on_every_call(self, solve):
        # varpi is invariant for P = I, but I - P + 1 varpi' = 1 varpi' has rank 1;
        # the cached condition number must keep rejecting it
        c = FiniteChain(transition=np.eye(2), cost_vec=[0.0, 1.0], stationary=[0.5, 0.5])
        for _ in range(2):
            with pytest.raises(SingularSystem):
                solve(c, c.cost_vec)

    def test_perturbed_solve_trips_the_plugback(self, chain, monkeypatch):
        # a solve 1e-6 off in h(0) misses (I - P)'h = w - varpi (1'w) by (I - P)'e_0 1e-6
        solve = markov.guarded_solve

        def off(m, rhs, error, what, cond=None):
            x = solve(m, rhs, error, what, cond)
            x[0] += 1e-6
            return x

        monkeypatch.setattr(markov, "guarded_solve", off)
        with pytest.raises(SingularSystem, match="plug-back"):
            poisson_solve_adjoint(chain, chain.cost_vec)

    def test_repeated_solves_match_the_direct_solve(self, chain):
        g = np.column_stack([chain.cost_vec, np.arange(6.0)])
        m = np.eye(6) - chain.transition + np.outer(np.ones(6), chain.stationary)
        want = np.linalg.solve(m, g - chain.stationary @ g)
        for _ in range(3):
            assert np.array_equal(poisson_solve_columns(chain, g), want)


class TestDiscountedQ:
    def test_zero_discount_is_cost(self):
        chain = models.finite_chain()
        cost = chain.cost_vec.copy()
        q = discounted_q(chain, 0.0)
        assert np.array_equal(q, cost)
        q += 1.0
        assert np.array_equal(chain.cost_vec, cost)

    def test_two_state_geometric_series(self):
        c = FiniteChain(transition=[[0.0, 1.0], [1.0, 0.0]], cost_vec=[0.0, 1.0],
                        stationary=[0.5, 0.5])
        # alternating costs: Q(0) = sum gamma^(2k+1) = 2/3, Q(1) = sum gamma^(2k) = 4/3
        assert np.allclose(discounted_q(c, 0.5), [2 / 3, 4 / 3], atol=1e-12)

    def test_bellman_fixed_point(self, chain):
        q = discounted_q(chain, 0.9)
        resid = q - (chain.cost_vec + 0.9 * chain.transition @ q)
        assert np.max(np.abs(resid)) < 1e-9

    @pytest.mark.parametrize("gamma", [0.9, 0.99, 0.999])
    def test_poisson_consistency(self, chain, gamma):
        sol = solve_poisson(chain, chain.cost_vec)
        q = discounted_q(chain, gamma)
        err = np.max(np.abs(q - sol.eta / (1 - gamma) - sol.h))
        assert err < {0.9: 0.5, 0.99: 0.05, 0.999: 0.005}[gamma]

    def test_poisson_consistency_improves_with_gamma(self, chain):
        sol = solve_poisson(chain, chain.cost_vec)
        errs = [np.max(np.abs(discounted_q(chain, g) - sol.eta / (1 - g) - sol.h))
                for g in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]

    def test_singular_resolvent_raises(self, chain):
        # returned about 5.8e12 with no error before it went through resolvent_solve
        with pytest.raises(SingularResolvent):
            discounted_q(chain, 1 - 1e-13)


class TestGuardedSolve:
    def test_given_cond_within_limit_skips_the_svd(self):
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            got = guarded_solve(m, np.ones(2), SingularSystem, "m", cond=3.0)
        assert cond.call_count == 0
        assert np.array_equal(got, np.linalg.solve(m, np.ones(2)))

    def test_given_cond_past_limit_raises(self):
        with pytest.raises(SingularSystem, match="m is numerically singular"):
            guarded_solve(np.eye(2), np.ones(2), SingularSystem, "m", cond=2e12)


class TestResolventSolve:
    @pytest.mark.parametrize("beta", [-0.1, 1.0])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError):
            resolvent_solve(np.eye(2), beta, np.ones(2))

    @pytest.mark.parametrize("beta", [0.5, 0.99, 0.999999])
    def test_norm_bound_replaces_the_svd(self, beta):
        c = random_chain(28, seed=3)
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            got = resolvent_solve(c.transition, beta, c.cost_vec)
        assert cond.call_count == 0
        assert np.array_equal(got, np.linalg.solve(np.eye(28) - beta * c.transition,
                                                   c.cost_vec))

    def test_svd_past_the_norm_bound(self):
        # 28 (1 + beta)/(1 - beta) > 1e12, yet cond(I - beta P) is below it
        c = random_chain(28, seed=3)
        beta = 1 - 2e-11
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            resolvent_solve(c.transition, beta, c.cost_vec)
        assert cond.call_count == 1


class TestPairChain:
    """The pair-chain oracle of ``pair_oracle``, used by the asymptotics tests."""

    def test_single_state(self):
        c = FiniteChain(transition=[[1.0]], cost_vec=[2.0], stationary=[1.0])
        p = pair_chain(c)
        assert p.n_z == 1
        assert np.allclose(p.stationary, [1.0])

    def test_marginal_consistency(self, chain):
        p = pair_chain(chain)
        assert p.stationary.sum() == pytest.approx(1.0, abs=1e-12)
        marg = p.stationary.reshape(6, 6).sum(axis=1)
        assert np.max(np.abs(marg - chain.stationary)) < 1e-12

    def test_invariance(self, chain):
        p = pair_chain(chain)
        assert np.max(np.abs(p.stationary @ p.transition - p.stationary)) < 1e-10


class TestModelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, models.finite_mdp(), models.finite_eval_policy())
        mdp, policy, features = load_model(path)
        assert features is None
        assert np.array_equal(mdp.kernel, models.FINITE_KERNEL)
        assert np.array_equal(mdp.cost, models.FINITE_COST)
        assert np.array_equal(policy.probs, models.FINITE_EVAL_POLICY)

    def test_explicit_features(self, tmp_path):
        path = tmp_path / "model.json"
        mat = np.arange(12.0).reshape(6, 2)
        save_model(path, models.finite_mdp(), models.finite_eval_policy(), features=mat)
        _, _, features = load_model(path)
        assert np.array_equal(features, mat)

    def test_invalid_policy_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        bad = RandomizedPolicy.__new__(RandomizedPolicy)  # bypass validation
        object.__setattr__(bad, "probs", np.array([[0.5, 0.4]] * 3))
        with pytest.raises(ValueError):
            save_model(path, models.finite_mdp(), bad)
            load_model(path)
