"""One-step reference oracle for the theta recursion.

rtdlab runs the recursion once, in ``learner.run``.  The tests check it
against the step function kept here: ``td_step`` applies one update to an
explicit state from one observed transition, written straight from the
update rule in the ``rtdlab.learner`` docstring, and ``run_path`` folds it
over a sampled path with the same Polyak-Ruppert average as ``run``.  Both
do the same floating-point operations in the same order, so they agree with
``run`` bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from rtdlab.errors import MissingSplitSample
from rtdlab.learner import LearnerConfig, Path


@dataclass
class LearnerState:
    theta: np.ndarray
    zeta: np.ndarray
    psi_bar_est: np.ndarray
    n: int = 0


@dataclass(frozen=True)
class Transition:
    """One observed step: features of Z_n, cost, and the TD-target features.

    ``psi_target`` must already reflect the evaluation mode (policy-averaged
    features of X_{n+1}, features of Z_{n+1}, or of the split-sampled pair).
    ``psi_next`` carries psi(Z_{n+1}) for the adaptive-baseline update.
    """

    psi: np.ndarray
    cost: float
    psi_target: np.ndarray
    psi_next: np.ndarray


def initial_state(config: LearnerConfig, dim: int, psi0: np.ndarray) -> LearnerState:
    theta = np.zeros(dim) if config.theta0 is None else np.asarray(config.theta0, float).copy()
    return LearnerState(theta=theta, zeta=np.zeros(dim),
                        psi_bar_est=np.asarray(psi0, float).copy())


def transitions(path: Path):
    """Transition view of a sampled path."""
    for t in range(len(path.cost)):
        yield Transition(psi=path.psi_states[t], cost=float(path.cost[t]),
                         psi_target=path.psi_target[t], psi_next=path.psi_states[t + 1])


def beta(config: LearnerConfig, n: int) -> float:
    """Adaptive-baseline gain beta_n = n^{-baseline_step_rho}."""
    return float((np.array([float(n)]) ** (-config.baseline_step_rho))[0])


def correction(config: LearnerConfig, state: LearnerState) -> float:
    """Scalar baseline correction inside the temporal-difference term."""
    if config.variant == "td" or config.delta_r == 0.0 \
            or config.variant == "varpi_relative_fixed":
        return 0.0
    if config.variant == "relative_fixed_mu":
        return config.delta_r * float(config.mu.psi_bar_mu @ state.theta)
    return config.delta_r * float(state.psi_bar_est @ state.theta)


def td_step(state: LearnerState, config: LearnerConfig, transition: Transition) -> LearnerState:
    """One update of the recursion from ``state``."""
    if transition.psi_target is None:
        raise MissingSplitSample("evaluation mode requires a target sample")
    lg = config.lam * config.gamma
    zeta = lg * state.zeta + transition.psi
    d = (transition.cost
         + config.gamma * float(transition.psi_target @ state.theta)
         - float(transition.psi @ state.theta)
         - correction(config, state))
    n_next = state.n + 1
    update = d * zeta
    if config.variant == "varpi_relative_fixed" and config.delta_r != 0.0:
        psi_bar = np.asarray(config.psi_bar)
        update = update - config.delta_r * float(psi_bar @ state.theta) * psi_bar
    theta = state.theta + config.step.alpha(n_next) * update
    psi_bar_est = state.psi_bar_est
    if config.variant == "varpi_relative":
        psi_bar_est = psi_bar_est + beta(config, n_next) * (transition.psi_next - psi_bar_est)
    return LearnerState(theta=theta, zeta=zeta, psi_bar_est=psi_bar_est, n=n_next)


def run_path(config: LearnerConfig, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Final iterate and Polyak-Ruppert average of ``td_step`` over ``path``.

    The average runs over the iterates n0 .. N with n0 the burn-in fraction
    of N, as in ``learner.run``.
    """
    n_steps = len(path.cost)
    n0 = int(config.pr_burn_in_fraction * n_steps)
    state = initial_state(config, path.psi_states.shape[1], path.psi_states[0])
    pr_sum = np.zeros_like(state.theta)
    if n0 == 0:
        pr_sum += state.theta
    for tr in transitions(path):
        state = td_step(state, config, tr)
        if state.n >= n0:
            pr_sum += state.theta
    return state.theta, pr_sum / (n_steps - n0 + 1)
