"""Chain helpers the tests share, kept out of ``rtdlab`` because no code there reads them.

- ``solve_poisson``: the average cost eta = varpi'g and the centered Poisson
  solution of one column, through ``markov.poisson_solve_columns``;
- ``state_marginal``: the stationary pmf summed over actions;
- ``finite_greedy_policy``: the deterministic policy of the 3x2 model, whose
  reference values the module docstring of ``rtdlab.models`` lists.
"""

from dataclasses import dataclass

import numpy as np

from rtdlab.markov import FiniteChain, RandomizedPolicy, poisson_solve_columns
from rtdlab.models import FINITE_GREEDY_POLICY


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
    nx, nu = chain.state_action_shape
    return chain.stationary.reshape(nx, nu).sum(axis=1)


def finite_greedy_policy() -> RandomizedPolicy:
    return RandomizedPolicy(probs=FINITE_GREEDY_POLICY)
