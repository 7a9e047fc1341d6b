"""Chain helpers the tests share, kept out of ``rtdlab`` because no code there reads them.

- ``poisson_solve_columns``: the forward centered Poisson solve, one column
  per input f, that ``markov.poisson_solve_adjoint`` replaces in ``rtdlab``;
  it is the oracle of the adjoint route, and of the pair routes in
  ``pair_oracle``;
- ``solve_poisson``: the average cost eta = varpi'g and the centered Poisson
  solution of one column, through ``poisson_solve_columns``;
- ``state_marginal``: the stationary pmf summed over actions;
- ``finite_greedy_policy``: the deterministic policy of the 3x2 model, whose
  reference values the module docstring of ``rtdlab.models`` lists;
- ``loop_transition`` and ``loop_psi_avg``: the per-state loops that
  ``markov.build_chain`` and ``learner.FiniteChainEnv`` replace with one
  broadcast product each, kept as their bit-for-bit oracles.
"""

from dataclasses import dataclass

import numpy as np

from rtdlab.features import FeatureMap
from rtdlab.errors import SingularSystem
from rtdlab.markov import FiniteChain, FiniteMdp, RandomizedPolicy, guarded_solve
from rtdlab.models import FINITE_GREEDY_POLICY


def poisson_solve_columns(chain: FiniteChain, g_cols: np.ndarray) -> np.ndarray:
    """Column-wise Poisson solves: each column of ``g_cols`` is centered and solved.

    Returns H with (I - P) H[:, j] = g_cols[:, j] - mean_j and varpi'H = 0,
    from one solve of (I - P + 1 varpi') H = g_cols - means: applying varpi'
    to that system annihilates the (I - P) part and leaves varpi'H = 0.
    """
    g_cols = np.asarray(g_cols, dtype=float)
    means = chain.stationary @ g_cols
    m = np.eye(chain.n_z) - chain.transition + chain.stationary[None, :]
    return guarded_solve(m, g_cols - means, SingularSystem, "I - P + 1 varpi'",
                         cond=chain.poisson_cond)


@dataclass(frozen=True)
class PoissonSolution:
    """Average value ``eta`` and centered solution ``h`` of (I - P)h = g - eta*1."""

    eta: float
    h: np.ndarray


def solve_poisson(chain: FiniteChain, g: np.ndarray) -> PoissonSolution:
    """Solve (I - P) h = g - eta*1 with eta = varpi'g and varpi'h = 0."""
    g = np.asarray(g, dtype=float)
    eta = float(chain.stationary @ g)
    return PoissonSolution(eta=eta, h=poisson_solve_columns(chain, g))


def state_marginal(chain: FiniteChain) -> np.ndarray:
    """Marginal of the stationary pmf over states."""
    nx, nu = chain.policy.shape
    return chain.stationary.reshape(nx, nu).sum(axis=1)


def finite_greedy_policy() -> RandomizedPolicy:
    return RandomizedPolicy(probs=FINITE_GREEDY_POLICY)


def loop_transition(mdp: FiniteMdp, policy: RandomizedPolicy) -> np.ndarray:
    """P filled one row z = x * n_actions + u at a time: P_u(x, x') * policy(u' | x')."""
    nx, nu = mdp.n_states, mdp.n_actions
    p = np.zeros((nx * nu, nx * nu))
    for x in range(nx):
        for u in range(nu):
            p[x * nu + u, :] = (mdp.kernel[u, x, :][:, None] * policy.probs).reshape(nx * nu)
    return p


def loop_psi_avg(policy: np.ndarray, psi: FeatureMap) -> np.ndarray:
    """sum_u policy(u|x) psi(x, u), one state x at a time."""
    nx, nu = policy.shape
    return np.stack([policy[x] @ psi.matrix[x * nu:(x + 1) * nu] for x in range(nx)])
