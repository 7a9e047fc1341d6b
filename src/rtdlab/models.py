"""Built-in finite models used by the experiments and tests.

The 3-state / 2-action model ships as one concrete (P_u, c, policy) instance.
The per-action kernels are constrained so that the induced state-level
quantities match the published reference values exactly:

    P_eval  = [[0.64, 0.36, 0.00],      c_eval  = [0.16, 0.20, 0.82]
               [0.05, 0.60, 0.35],
               [0.08, 0.04, 0.88]]

under the randomized evaluation policy, and

    P_greedy = [[0.40, 0.60, 0.00],     c_greedy = [0.0, 0.0, 0.1]
                [0.10, 0.70, 0.20],
                [0.00, 0.20, 0.80]]

under the deterministic policy (action 2 in state 1, action 1 elsewhere).
Stationary state pmfs are [85, 108, 315]/508 and [1, 6, 6]/13 with average
costs 587/1016 and 3/65 respectively.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureMap, baseline_mean, BaselineMean
from .markov import FiniteMdp, RandomizedPolicy, FiniteChain, build_chain

# Actions are 0-based internally; u=0 carries the 1-based label "action 1".
FINITE_KERNEL = np.array([
    # action 0
    [[0.7, 0.3, 0.0],
     [0.1, 0.7, 0.2],
     [0.0, 0.2, 0.8]],
    # action 1
    [[0.4, 0.6, 0.0],
     [0.0, 0.5, 0.5],
     [0.1, 0.0, 0.9]],
])

FINITE_COST = np.array([
    [0.2, 0.0],
    [0.0, 0.4],
    [0.1, 1.0],
])

# Randomized evaluation policy: P{u=0 | x} per state.
FINITE_EVAL_POLICY = np.array([
    [0.8, 0.2],
    [0.5, 0.5],
    [0.2, 0.8],
])

# Deterministic average-cost-optimal policy.
FINITE_GREEDY_POLICY = np.array([
    [0.0, 1.0],
    [1.0, 0.0],
    [1.0, 0.0],
])


def finite_mdp() -> FiniteMdp:
    return FiniteMdp(n_states=3, n_actions=2, kernel=FINITE_KERNEL, cost=FINITE_COST)


def finite_eval_policy() -> RandomizedPolicy:
    return RandomizedPolicy(probs=FINITE_EVAL_POLICY)


def finite_chain() -> FiniteChain:
    """State-action chain of the 3x2 model under the evaluation policy."""
    return build_chain(finite_mdp(), finite_eval_policy())


def unstable_demo() -> tuple[FiniteMdp, RandomizedPolicy, FeatureMap, BaselineMean, BaselineMean]:
    """Instance exhibiting the baseline-sign stability dichotomy.

    The policy always plays action 0, so the three (x, 1) pairs are never
    visited.  Features are state indicators on visited pairs (a tabular
    basis for the live chain, normalized by xi = 1) and large sign-mixed
    multiples of the same indicators on unvisited pairs.  A baseline on the
    negatively scaled unvisited pairs has xi'psi_bar_mu = -1000, one on the
    positively scaled pair has +1000, so both branches of the dichotomy
    appear with strong spectral margins at small delta_r.

    Returns (mdp, policy, psi, mu_negative, mu_positive).
    """
    mdp = finite_mdp()
    policy = RandomizedPolicy(probs=np.array([[1.0, 0.0]] * 3))
    off_scale = 1000.0
    # pair (x, 0), visited, carries the indicator of x; pair (x, 1), never
    # visited, carries it times +-off_scale, signs mixed so that baselines of
    # either xi'psi_bar_mu sign exist with O(off_scale) magnitude
    sign = np.array([1.0, -1.0, -1.0])[:, None]
    psi = FeatureMap(np.stack([np.eye(3), sign * off_scale * np.eye(3)], axis=1).reshape(6, 3))
    mu_neg = np.zeros(6)
    mu_neg[[3, 5]] = 0.5   # on unvisited pairs with negative feature values
    mu_pos = np.zeros(6)
    mu_pos[1] = 1.0        # on the unvisited pair with positive feature values
    return (mdp, policy, psi,
            baseline_mean(mu_neg, psi),
            baseline_mean(mu_pos, psi))
