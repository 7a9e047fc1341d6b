"""One-step reference oracles for the theta recursion.

rtdlab runs the recursion once, in ``learner.run``/``learner.run_many``, in
affine form theta_{n+1} = A_n theta_n + b_n.  The tests check it against two
step functions kept here, each applying one update to an explicit state from
one observed transition:

* ``td_step`` builds A_n and b_n from the update rule with the same
  elementwise operations, in the same order, as ``run``.  It steps theta,
  the trace and the adaptive baseline by the tree rule of ``run`` (see the
  ``rtdlab.learner`` docstring), one step at a time.  A block is
  ``learner._BLOCK_STEPS`` steps from a multiple of it, and its tree has
  radix ``learner._RADIX``; the fold's bits, like a run's, depend on these
  two only, and a short last block needs no padding.  Per level of a
  block's tree it keeps the current group's prefix map [P | u] and the
  value before the group.  When a group ends, its end map joins its
  parent's prefix by [P | u] <- P_end [P | u] + [0 | u_end], the first
  subgroup's end map being the parent's first prefix.  When a group
  starts, its value before is the parent's value before if it is
  subgroup 0, else the parent's prefix applied to it, P s + u; the
  block's top group starts from the value before the block.  At level 1
  the step's map [A_n | b_n] joins the prefix the same way, and the new
  value is P s + u of the level-1 prefix and value before.  Every product
  sums in order of its inner index.  The trace and the baseline use 1 x 1
  maps on each feature; the baseline's position is the step of the
  estimate, and ``initial_state`` takes its step 0 (gain 0, input
  psi(Z_0)).  So it agrees with ``run`` bit for bit;
* ``textbook_step`` writes the update as the ``rtdlab.learner`` docstring
  states it, D = c + gamma psi_target'theta - psi'theta - correction and
  theta + alpha D zeta, with the sequential theta, trace and baseline
  recursions, so it agrees with ``run`` to roundoff only, and a sign or
  ordering error shared by ``run`` and ``td_step`` would show against it.

``run_path`` folds either over a sampled path with the same Polyak-Ruppert
average as ``run``; ``block_path`` samples one run's path from an
environment's ``sample_block``.
"""

from dataclasses import dataclass

import numpy as np

from rtdlab import learner
from rtdlab.errors import MissingSplitSample
from rtdlab.learner import LearnerConfig, Path


@dataclass(frozen=True)
class Tree:
    """Tree-rule state of an affine recursion y_n = A_n y_{n-1} + b_n.

    Entry l of ``maps`` is the prefix map [P | u] of the current level-(l+1)
    group through its last finished subgroup, and entry l of ``before`` the
    value before that group.
    """

    maps: tuple
    before: tuple


@dataclass
class LearnerState:
    theta: np.ndarray
    zeta: np.ndarray
    psi_bar_est: np.ndarray
    n: int = 0
    iterate: Tree | None = None     # of theta, at td_step's last step
    trace: Tree | None = None       # of zeta, at td_step's last step
    baseline: Tree | None = None    # of psi_bar_est, at step n


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
    # psi_bar_est_0 = psi(Z_0): the baseline filter's step 0, with beta_0 = 1
    psi_bar_est, baseline_tree = filter_step(None, 0, 0.0, np.asarray(psi0, float),
                                             np.zeros(dim))
    return LearnerState(theta=theta, zeta=np.zeros(dim), psi_bar_est=psi_bar_est,
                        baseline=baseline_tree)


def block_path(env, n_steps: int, eval_mode: str, rng, rng_split=None, start=None) -> Path:
    """One run's ``env.sample_block``, gathered in step order."""
    *pairs, (end,) = env.sample_block(n_steps, eval_mode, [rng], [rng_split], [start])
    psi_states, psi_target, cost = (table[rows[:, 0]] for table, rows in pairs)
    return Path(psi_states=psi_states, cost=cost, psi_target=psi_target, end=end)


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
    base = baseline(config, state)
    return 0.0 if base is None else config.delta_r * float(base @ state.theta)


def baseline(config: LearnerConfig, state: LearnerState) -> np.ndarray | None:
    """Baseline vector of the scalar-correction variants, None for the others."""
    if config.variant == "td" or config.delta_r == 0.0 \
            or config.variant == "varpi_relative_fixed":
        return None
    if config.variant == "relative_fixed_mu":
        return np.asarray(config.mu.psi_bar_mu, float)
    return state.psi_bar_est


def product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k a[:, k] x[k], summed in order of k as ``learner`` sums its products."""
    out = a[:, 0] * x[0]
    for k in range(1, len(x)):
        out = out + a[:, k] * x[k]
    return out


def compose(m: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """The map m = [A | b] after ``prefix``: A prefix + [0 | b]."""
    p = len(m)
    out = product(m[:, :p, None], prefix)
    out[:, p] = out[:, p] + m[:, p]
    return out


def apply(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P y + u for the map m = [P | u]."""
    p = len(y)
    return product(m[:, :p], y) + m[:, p]


def tree_step(tree: Tree | None, n: int, a: np.ndarray, b: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, Tree]:
    """The value at position ``n`` of y_n = A_n y_{n-1} + b_n from its value ``y`` at n - 1.

    ``a`` is (p, p, ...) and ``b`` and ``y`` are (p, ...), trailing axes
    holding independent items.  A block's tree has the least number of
    levels, at least one, whose top group holds ``learner._BLOCK_STEPS``.
    """
    radix, pos = learner._RADIX, n % learner._BLOCK_STEPS
    depth = 1
    while radix ** depth < learner._BLOCK_STEPS:
        depth += 1
    # digits[l]: the index of the level-l subgroup holding ``pos`` in its level-(l+1) group
    digits = [pos // radix ** l % radix for l in range(depth)]
    if pos == 0:
        maps, before = [None] * depth, [None] * (depth - 1) + [y]
    else:
        maps, before = list(tree.maps), list(tree.before)
        # a level-(l+1) group that ended at pos - 1 joins its parent's prefix
        for l in range(depth - 1):
            if pos % radix ** (l + 1):
                break
            first = digits[l + 1] == 1
            maps[l + 1] = maps[l] if first else compose(maps[l], maps[l + 1])
    # a level-(l+1) group that starts at pos takes its value before
    for l in reversed(range(depth - 1)):
        if pos % radix ** (l + 1) == 0:
            before[l] = before[l + 1] if digits[l + 1] == 0 \
                else apply(maps[l + 1], before[l + 1])
    m = np.concatenate([a, b[:, None]], axis=1)
    maps[0] = m if digits[0] == 0 else compose(m, maps[0])
    return apply(maps[0], before[0]), Tree(maps=tuple(maps), before=tuple(before))


def filter_step(tree: Tree | None, n: int, a: float, x: np.ndarray,
                y: np.ndarray) -> tuple[np.ndarray, Tree]:
    """:func:`tree_step` of y_n = a_n y_{n-1} + x_n with a scalar gain: 1 x 1 maps."""
    gain = np.full((1, 1) + np.shape(x), a)
    value, tree = tree_step(tree, n, gain, np.asarray(x)[None], np.asarray(y)[None])
    return value[0], tree


def affine_map(state: LearnerState, config: LearnerConfig, transition: Transition,
               zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_n, b_n) of the step from ``state`` with trace ``zeta``.

    A_n = I + alpha_n (zeta_n h_n' - delta_r psi_bar psi_bar') with the matrix
    term for varpi_relative_fixed only, h_n = gamma psi_target - psi(Z_n)
    - delta_r baseline_n, and b_n = alpha_n c_n zeta_n.
    """
    if transition.psi_target is None:
        raise MissingSplitSample("evaluation mode requires a target sample")
    h = config.gamma * transition.psi_target - transition.psi
    base = baseline(config, state)
    if base is not None:
        h = h - config.delta_r * base
    m = np.outer(zeta, h)
    if config.variant == "varpi_relative_fixed" and config.delta_r != 0.0:
        m = m - config.delta_r * np.outer(config.psi_bar, config.psi_bar)
    alpha = config.step.alpha(state.n + 1)
    return np.eye(len(zeta)) + alpha * m, alpha * transition.cost * zeta


def td_step(state: LearnerState, config: LearnerConfig, transition: Transition) -> LearnerState:
    """One update of the recursion from ``state``, in the form ``run`` uses."""
    n = state.n
    zeta, trace = filter_step(state.trace, n, config.lam * config.gamma, transition.psi,
                              state.zeta)
    a, b = affine_map(state, config, transition, zeta)
    psi_bar_est, baseline_tree = state.psi_bar_est, state.baseline
    if config.variant == "varpi_relative":
        g = beta(config, n + 1)
        psi_bar_est, baseline_tree = filter_step(baseline_tree, n + 1, 1.0 - g,
                                                 g * transition.psi_next, psi_bar_est)
    theta, iterate = tree_step(state.iterate, n, a, b, state.theta)
    return LearnerState(theta=theta, zeta=zeta, psi_bar_est=psi_bar_est, n=n + 1,
                        iterate=iterate, trace=trace, baseline=baseline_tree)


def textbook_step(state: LearnerState, config: LearnerConfig,
                  transition: Transition) -> LearnerState:
    """One update in the order the update rule is written."""
    if transition.psi_target is None:
        raise MissingSplitSample("evaluation mode requires a target sample")
    zeta = config.lam * config.gamma * state.zeta + transition.psi
    d = (transition.cost
         + config.gamma * float(transition.psi_target @ state.theta)
         - float(transition.psi @ state.theta)
         - correction(config, state))
    update = d * zeta
    if config.variant == "varpi_relative_fixed" and config.delta_r != 0.0:
        psi_bar = np.asarray(config.psi_bar)
        update = update - config.delta_r * float(psi_bar @ state.theta) * psi_bar
    theta = state.theta + config.step.alpha(state.n + 1) * update
    psi_bar_est = state.psi_bar_est
    if config.variant == "varpi_relative":
        psi_bar_est = psi_bar_est + beta(config, state.n + 1) * (transition.psi_next
                                                                 - psi_bar_est)
    return LearnerState(theta=theta, zeta=zeta, psi_bar_est=psi_bar_est, n=state.n + 1)


def iterates(config: LearnerConfig, path: Path, step=td_step) -> list[np.ndarray]:
    """theta_0 .. theta_N of ``step`` folded over ``path``."""
    state = initial_state(config, path.psi_states.shape[1], path.psi_states[0])
    out = [state.theta]
    for tr in transitions(path):
        state = step(state, config, tr)
        out.append(state.theta)
    return out


def pr_average(thetas: list[np.ndarray], n0: int) -> np.ndarray:
    """Polyak-Ruppert average of ``thetas[n0:]``, summed in step order."""
    pr_sum = np.zeros_like(thetas[0])
    for theta in thetas[n0:]:
        pr_sum += theta
    return pr_sum / (len(thetas) - n0)


def run_path(config: LearnerConfig, path: Path,
             step=td_step) -> tuple[np.ndarray, np.ndarray]:
    """Final iterate and Polyak-Ruppert average of ``step`` over ``path``.

    The average runs over the iterates n0 .. N with n0 the burn-in fraction
    of N, as in ``learner.run``.
    """
    thetas = iterates(config, path, step)
    return thetas[-1], pr_average(thetas, int(config.pr_burn_in_fraction * len(path.cost)))
