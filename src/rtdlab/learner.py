"""Stochastic temporal-difference learners and the multi-run harness.

Update (trace parameter lam, discount gamma, step sizes alpha_n):

    zeta_n   = lam*gamma*zeta_{n-1} + psi(Z_n),      zeta before step 0 is 0
    D_{n+1}  = c(Z_n) + gamma*q_next - theta_n'psi(Z_n) - correction
    theta_{n+1} = theta_n + alpha_{n+1} * D_{n+1} * zeta_n

where q_next evaluates theta_n'psi at the target of the chosen evaluation
mode (policy-averaged at X_{n+1}, at Z_{n+1}, or at an independently drawn
(X_{n+1}, U')), and the correction implements the relative variants:

    td                   0
    relative_fixed_mu    delta_r * psi_bar_mu' theta_n
    varpi_relative       delta_r * psi_bar_est_n' theta_n   (adaptive baseline)

The adaptive baseline tracks psi_bar_est_{n+1} = psi_bar_est_n
+ beta_{n+1} (psi(Z_{n+1}) - psi_bar_est_n) on a faster time scale
(beta exponent below the alpha exponent).

The ``varpi_relative_fixed`` variant is the lam = 0 algorithm with a
precomputed baseline applied as a deterministic matrix term,

    theta_{n+1} = theta_n + alpha_{n+1} [ D_{n+1} psi(Z_n)
                                          - delta_r psi_bar (psi_bar'theta_n) ],

which has the same mean flow as the scalar-correction variants but different
noise statistics.  :func:`rtdlab.asymptotics.noise_variant` names the exact
bias/covariance model of each variant.

Every variant is affine in theta_n, and the code runs it in that form:

    theta_{n+1} = A_n theta_n + b_n,
    A_n = I + alpha_{n+1} (zeta_n h_n' - delta_r psi_bar psi_bar'),
    h_n = gamma psi_target_n - psi(Z_n) - delta_r baseline_n,
    b_n = alpha_{n+1} c(Z_n) zeta_n,

with the psi_bar psi_bar' term for ``varpi_relative_fixed`` only and
baseline_n = psi_bar_mu, psi_bar_est_n or 0 as the correction above says.
``run_many`` steps its runs a group at a time, one group after the other,
and ``run`` is a group of one.  Time is cut into blocks of _BLOCK_STEPS =
_RADIX**4 steps (8**4 = 4096) starting at multiples of _BLOCK_STEPS.  For
each block, one call to the environment samples every run's stretch and
returns psi(Z_n), the TD-target features and c(Z_n) already in the tree
layout below: a finite chain draws each stretch as state indices and
gathers each per-step array from its table once, at the layout's step
indices.  The step sizes, traces, adaptive baseline estimates, A_n and
b_n of every step of the block are computed at once and the iterates come
from one tree rule.  The divergence check, the Polyak-Ruppert sums and
the snapshots follow per block.  Each of a block's arrays lives only while
the block needs it, and the scans overwrite their inputs, so a group of
runs holds at most the maps [A_n | b_n] of one block and the inputs they
are built from: (d + 1)(d + 2) floats per run and step.

The tree rule evaluates every affine recursion y_n = A_n y_{n-1} + b_n of
the learner: theta (y_n = theta_{n+1} with the d x d maps above), the trace
(A_n = lam*gamma, b_n = psi(Z_n)) and the baseline estimate
(y_n = psi_bar_est_n, A_n = 1 - beta_n, b_n = beta_n psi(Z_n), with
beta_0 = 1 so that psi_bar_est_0 = psi(Z_0)), the last two with 1 x 1 maps
acting on each feature.  The features share the gains, so the products
of the gains are formed once for all of them.  Over a block it is a
prefix scan on a tree of radix W = _RADIX (Blelloch, "Prefix sums and
their applications", 1990).
A level-1 group is W consecutive steps and a level-(l+1) group is W
consecutive level-l groups; the block is the top group.

* Up-sweep.  Within each level-1 group the maps compose in step order,

      [P_0 | u_0] = [A_0 | b_0],   [P_j | u_j] = A_j [P_{j-1} | u_{j-1}] + [0 | b_j],

  and level l+1 composes the end maps [P_{W-1} | u_{W-1}] of its W
  level-l groups by the same rule.
* Down-sweep.  The top group's value before is the value before the
  block.  Subgroup 0 of a group takes the group's value before s, and
  subgroup j > 0 takes P s + u with [P | u] the group's prefix map through
  subgroup j - 1.  At level 1 the subgroups are single steps, and
  y_j = P_j s + u_j for every position j of a group.

Every matrix product sums its terms in order of the inner index, with
separate multiplies and adds.  Each level composes every group of the
block at once, so a block costs a number of vectorised products that
grows with W log_W _BLOCK_STEPS, and the only sequential step from block
to block is the carry of y.  The last block of a run, if short, is padded
to the least power of W that holds it.  Maps past its end reach no value
before them, so its steps get the same values as in a whole tree.  So a
run's bits depend only on _RADIX and _BLOCK_STEPS: not on its batch, its
group of runs or its position in either, nor on its length.

Randomness is threaded through counter-based Philox streams keyed by
(master seed, stream id), so every run is a reproducible, isolated
substream regardless of execution order; stream 2*i drives run i's
trajectory and stream 2*i+1 its split-sampling draws.  A run's results do
not depend on the batch it ran in.  A finite chain's step takes one
uniform and bisects the current state's cumulative row with it; chains
with n_z <= 40 look the result up in a per-bin next-state table instead,
with the same states (``FiniteChainEnv``).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, MissingSplitSample, NumericalDivergence)
from .features import FeatureMap
from .markov import FiniteChain

VARIANTS = ("td", "relative_fixed_mu", "varpi_relative", "varpi_relative_fixed")
EVAL_MODES = ("natural", "on_policy", "split_sampling")

_MASK64 = (1 << 64) - 1

DIVERGENCE_THRESHOLD = 1e12


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator keyed by (master seed, stream id)."""
    key = ((master_seed & _MASK64) << 64) | (stream_id & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StepSchedule:
    """alpha_n = min(alpha0, n^{-rho}) for n >= 1."""

    alpha0: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.alpha0 < math.inf:
            raise ConfigError(f"alpha0 must be finite and positive, got {self.alpha0}")
        if not 0.5 < self.rho < 1.0:
            raise ConfigError("rho must lie in (1/2, 1)")

    def alpha(self, n: int) -> float:
        # one-element array power: bit-identical to the vectorized schedule
        return float(np.minimum(self.alpha0, np.array([float(n)]) ** (-self.rho))[0])

    def alphas(self, n_steps: int, first: int = 0) -> np.ndarray:
        """alpha_{first+1} .. alpha_{first+n_steps}."""
        n = np.arange(first + 1, first + n_steps + 1, dtype=float)
        return np.minimum(self.alpha0, n ** (-self.rho))


@dataclass(frozen=True)
class LearnerConfig:
    gamma: float
    lam: float
    step: StepSchedule
    variant: str = "td"
    delta_r: float = 0.0
    mu: object | None = None              # BaselineMean for relative_fixed_mu
    psi_bar: np.ndarray | None = None     # for varpi_relative_fixed
    eval_mode: str = "on_policy"
    baseline_step_rho: float = 0.55
    pr_burn_in_fraction: float = 0.2
    seed: int = 0
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"unknown eval mode {self.eval_mode!r}")
        if not 0.0 <= self.lam * self.gamma < 1.0:
            raise ConfigError("lam*gamma must lie in [0, 1)")
        if self.delta_r < 0:
            raise ConfigError("delta_r must be nonnegative")
        if self.variant == "relative_fixed_mu" and self.mu is None:
            raise ConfigError("relative_fixed_mu requires a baseline mu")
        if self.variant == "varpi_relative_fixed":
            if self.psi_bar is None:
                raise ConfigError("varpi_relative_fixed requires a precomputed psi_bar")
            if self.lam != 0.0:
                raise ConfigError("varpi_relative_fixed is defined for lam = 0 only")
        if self.variant == "varpi_relative" \
                and not 0.5 < self.baseline_step_rho < self.step.rho:
            raise ConfigError("baseline_step_rho must lie in (1/2, rho): the baseline "
                              "gain is square-summable yet faster than the theta gain")
        if not 0.0 <= self.pr_burn_in_fraction < 1.0:
            raise ConfigError("pr_burn_in_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class Snapshot:
    n: int
    theta: np.ndarray
    theta_pr: np.ndarray | None
    pr_count: int


@dataclass(frozen=True)
class RunResult:
    theta_final: np.ndarray
    theta_pr: np.ndarray
    snapshots: tuple[Snapshot, ...]
    n_steps: int
    seed: int
    run_index: int
    pr_count: int


@dataclass(frozen=True)
class Path:
    """Prefetched per-step arrays of one stretch of a run.

    ``end`` is the last state of the stretch: ``sample_path(..., start=end)``
    continues the same trajectory.
    """

    psi_states: np.ndarray   # (N+1, d): features of Z_0 .. Z_N
    cost: np.ndarray         # (N,): c(Z_0) .. c(Z_{N-1})
    psi_target: np.ndarray   # (N, d): TD-target features per step
    z_traj: np.ndarray | None = None
    end: object = None


# the per-bin next-state table of FiniteChainEnv holds (n_z^2 - n_z + 1) n_z
# entries, at most this many (n_z <= 40); a larger chain bisects its rows
_TABLE_ENTRIES = 1 << 16
# the first guess of a uniform's bin reads one of at most this many cells
_MAX_CELLS = 1 << 16


def _cells(breaks: np.ndarray) -> tuple[np.ndarray, int]:
    """A first guess of searchsorted(breaks, u, side="right") for u in [0, 1), and its passes.

    [0, 1) is cut into 2^m cells, and cell c holds the count of sorted
    ``breaks`` at or below its left edge c / 2^m.  u 2^m is exact, so the u
    of cell c, floor(u 2^m) = c, lie at or above that edge, and the guess
    falls short by the breakpoints inside the cell below u: one pass of
    ``bins += u >= breaks[bins]`` per breakpoint that the fullest cell holds
    corrects it.  2^m starts at the least power of two above 4 len(breaks)
    and doubles while a cell holds more than 4 breakpoints, up to _MAX_CELLS.
    """
    size = 1 << (4 * len(breaks)).bit_length()
    while True:
        edges = np.arange(size + 1) / size
        first = np.searchsorted(breaks, edges, side="right")
        passes = int(np.max(np.searchsorted(breaks, edges[1:], side="left") - first[:-1]))
        if passes <= 4 or size >= _MAX_CELLS:
            return first[:-1], passes
        size *= 2


class FiniteChainEnv:
    """Sampling environment for a finite state-action chain.

    ``chain.policy`` enables the natural and split-sampling evaluation modes,
    whose tables are built once: the policy-averaged features
    sum_u policy(u|x) psi(x, u) of all states in one product, and the
    policy's cumulative rows.  Without it only on-policy is available.  A
    ``policy`` passed here adds nothing and must equal it.  Z_0 is drawn from
    the stationary pmf.

    A step from Z_n draws one uniform u and moves to bisect_right(row, u) of
    Z_n's cumulative row.  Every finite sum of every row is a breakpoint,
    so that count is the same for all u between two consecutive distinct
    breakpoints: the table holds it per bin of the sorted distinct
    breakpoints and per state, and a stretch costs one search of its
    uniforms (:func:`_cells`) and one lookup per step.
    """

    def __init__(self, chain: FiniteChain, psi: FeatureMap, policy: np.ndarray | None = None):
        self.chain = chain
        self.psi = psi
        if policy is not None and not np.array_equal(policy, chain.policy):
            raise ConfigError("policy differs from the one build_chain recorded on the chain")
        # cumulative rows of P and of the stationary pmf, ending in inf: bisect_right
        # lands on the last state exactly when a uniform is at or above the rounded sum
        cum = np.cumsum(np.vstack([chain.transition, chain.stationary]), axis=1)
        cum[:, -1] = np.inf
        *self._cum_rows, self._cum_init = cum.tolist()
        n = chain.n_z
        self._next = None
        if (n * n - n + 1) * n <= _TABLE_ENTRIES:
            # bin b holds the u with b distinct breakpoints at or below them
            breaks = np.sort(cum[:n, :-1], axis=None)
            breaks = breaks[np.diff(breaks, prepend=-np.inf) > 0]
            self._cells, self._passes = _cells(breaks)
            # ending in inf, so that a bin's next breakpoint always exists
            self._breaks = np.append(breaks, np.inf)
            lower = np.concatenate([[-np.inf], breaks])
            self._next = np.stack([np.searchsorted(row, lower, side="right")
                                   for row in cum[:n, :-1]], axis=1).tolist()
        if chain.policy is not None:
            nx, nu = chain.policy.shape
            self._psi_avg = (chain.policy[:, None, :] @ psi.matrix.reshape(nx, nu, psi.dim))[:, 0]
            self._cum_policy = np.cumsum(chain.policy, axis=1)

    @property
    def dim(self) -> int:
        return self.psi.dim

    def _check_mode(self, eval_mode: str, rng_split) -> None:
        if eval_mode not in EVAL_MODES:
            raise ConfigError(f"unknown eval mode {eval_mode!r}")
        if eval_mode != "on_policy" and self.chain.policy is None:
            raise ConfigError(f"{eval_mode} mode requires policy knowledge")
        if eval_mode == "split_sampling" and rng_split is None:
            raise MissingSplitSample("split sampling requires its own stream")

    def _targets(self, eval_mode: str, z_next: np.ndarray,
                 us: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The table and its rows that hold the TD-target features after states ``z_next``.

        ``us`` holds the split-sampling uniforms, one per entry of ``z_next``.
        """
        if eval_mode == "on_policy":
            return self.psi.matrix, z_next
        nu = self.chain.policy.shape[1]
        x_next = z_next // nu
        if eval_mode == "natural":
            return self._psi_avg, x_next
        u_split = np.minimum((us[..., None] > self._cum_policy[x_next]).sum(axis=-1), nu - 1)
        return self.psi.matrix, x_next * nu + u_split

    def _bins(self, us: np.ndarray) -> np.ndarray:
        """The bin of each uniform: searchsorted(distinct breakpoints, us, side="right")."""
        bins = self._cells[(us * len(self._cells)).astype(np.intp)]
        for _ in range(self._passes):
            bins += us >= self._breaks[bins]
        return bins

    def sample_states(self, n_steps: int, rng: np.random.Generator,
                      start: int | None = None) -> np.ndarray:
        """Z_0 .. Z_{n_steps}, one uniform per draw; Z_0 is ``start`` if given.

        Drawing Z_0 and then the steps in stretches consumes the same uniforms
        as one call, so a trajectory does not depend on how it is cut.
        """
        z = bisect_right(self._cum_init, rng.random()) if start is None else start
        us = rng.random(n_steps)
        if self._next is None:
            rows = self._cum_rows
            return np.array([z] + [z := bisect_right(rows[z], u) for u in us.tolist()],
                            dtype=np.int64)
        table = self._next
        bins = self._bins(us).tolist()
        # a chain with a table has n_z <= 40 states, and bytes() is the
        # fastest way from a list of small ints to an array
        traj = bytes([z] + [z := table[b][z] for b in bins])
        return np.frombuffer(traj, dtype=np.uint8).astype(np.int64)

    def sample_path(self, n_steps: int, eval_mode: str,
                    rng: np.random.Generator,
                    rng_split: np.random.Generator | None = None,
                    start: int | None = None) -> Path:
        self._check_mode(eval_mode, rng_split)
        traj = self.sample_states(n_steps, rng, start)
        us = rng_split.random(n_steps) if eval_mode == "split_sampling" else None
        table, rows = self._targets(eval_mode, traj[1:], us)
        return Path(psi_states=self.psi.matrix[traj], cost=self.chain.cost_vec[traj[:-1]],
                    psi_target=table[rows], z_traj=traj, end=int(traj[-1]))

    def sample_block(self, k: int, eval_mode: str, rngs: list, splits: list,
                     starts: list, order: np.ndarray) -> tuple:
        """The next k steps of each run, gathered at the step indices ``order``.

        Run r continues from ``starts[r]`` (None draws Z_0) on ``rngs[r]``,
        with its split-sampling uniforms from ``splits[r]``, as
        :meth:`sample_path` draws them.  Returns psi(Z_n) and the TD-target
        features (W, d, G, runs), c(Z_n) (W, G, runs) for the n of ``order``
        (W, G), and each run's last state, which continues its trajectory.
        """
        self._check_mode(eval_mode, splits[0])
        traj = np.stack([self.sample_states(k, rng, start)
                         for rng, start in zip(rngs, starts)], axis=1)
        z, z_next = np.take(traj, order, axis=0), np.take(traj, order + 1, axis=0)
        us = None
        if eval_mode == "split_sampling":
            us = np.take(np.stack([s.random(k) for s in splits], axis=1), order, axis=0)
        table, rows = self._targets(eval_mode, z_next, us)
        return (_tree_rows(self.psi.matrix, z), _tree_rows(table, rows),
                np.take(self.chain.cost_vec, z), traj[-1].tolist())


# Time is cut into blocks of _BLOCK_STEPS = _RADIX**4 steps aligned to
# multiples of _BLOCK_STEPS, and the runs are stepped in groups holding at
# most _BLOCK_ENTRIES entries of A_n per block, so the memory grows neither
# with the run length nor with the run count
_RADIX = 8
_BLOCK_STEPS = _RADIX ** 4
_BLOCK_ENTRIES = 1 << 20


@functools.cache
def _moved(ndim: int, source: tuple, destination: tuple) -> tuple:
    """The axes of ``np.moveaxis(x, source, destination)`` for an ndim-array x, for transpose."""
    source = [i % ndim for i in source]
    order = [i for i in range(ndim) if i not in source]
    for dest, src in sorted(zip((i % ndim for i in destination), source)):
        order.insert(dest, src)
    return tuple(order)


def _tree_size(k: int) -> tuple[int, int]:
    """(L, W) for a block of k steps: L the least power of _RADIX >= k, W = min(_RADIX, L)."""
    size = 1
    while size < k:
        size *= _RADIX
    return size, min(_RADIX, size)


def _tree_layout(x: np.ndarray) -> np.ndarray:
    """Per-step values (k, runs, ...) of a block in tree layout (W, ..., G, runs).

    The block is padded with zeros to L steps, the least power of _RADIX
    that holds k, and step g*W + j sits at position j of level-1 group g,
    with W = min(_RADIX, L) and G = L / W groups.
    """
    k, n_runs = x.shape[:2]
    size, width = _tree_size(k)
    full, rest = divmod(k, width)
    out = np.zeros((width,) + x.shape[2:] + (size // width, n_runs))
    steps = out.transpose(_moved(out.ndim, (0, -2, -1), (1, 0, 2)))    # (G, W, runs, ...)
    steps[:full] = x[:full * width].reshape((full, width) + x.shape[1:])
    if rest:
        steps[full, :rest] = x[full * width:]
    return out


def _tree_order(k: int) -> np.ndarray:
    """The step index at each position (W, G) of the tree layout of a k-step block.

    Positions past step k - 1 hold k - 1: they pad the block, and the maps
    there reach no step of it.
    """
    size, width = _tree_size(k)
    return np.minimum(np.arange(size).reshape(size // width, width).T, k - 1)


def _tree_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows ``table[index]`` of an (n, d) table for indices (W, G, runs), as (W, d, G, runs).

    One feature at a time, so the only temporary holds one feature's values.
    """
    out = np.empty(index.shape[:1] + table.shape[1:] + index.shape[1:])
    for j, column in enumerate(table.T):
        out[:, j] = np.take(column, index)
    return out


def _step_layout(y: np.ndarray, k: int) -> np.ndarray:
    """The inverse of :func:`_tree_layout`: (W, ..., G, runs) back to (k, runs, ...)."""
    y = y.transpose(_moved(y.ndim, (0, -2, -1), (1, 0, 2)))
    return y.reshape((-1,) + y.shape[2:])[:k]


def _last(y: np.ndarray, k: int) -> np.ndarray:
    """The value at the last of the k steps of a block in tree layout: (..., runs)."""
    return y[(k - 1) % len(y), ..., (k - 1) // len(y), :]


def _product(a: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_k a[k] * x[k], summed in order of k: one matrix product per item."""
    np.multiply(a[0], x[0], out)
    if len(x) > 1:
        part = np.empty_like(out)
        for k in range(1, len(x)):
            out += np.multiply(a[k], x[k], part)
    return out


def _apply(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P y + u for the maps [P | u] of ``m`` (W, p, p+1, ...) and values ``y`` (p, ...).

    It is formed in m's storage, which it overwrites, and comes back as the
    view m[:, :, 0]: the products and sums of :func:`_product`, then + u,
    with no temporary.
    """
    p = m.shape[1]
    out = m[:, :, 0]
    out *= y[0]
    for k in range(1, p):
        part = m[:, :, k]
        part *= y[k]
        out += part
    out += m[:, :, p]
    return out


def _group_ends(maps: np.ndarray, width: int) -> np.ndarray:
    """The end maps of level-l groups (W, ..., G, runs), W to a group one level up.

    They come back as (W, ..., G/W, runs): a copy, not a view, which would
    alias the level below when G = W.
    """
    ends = maps[-1].reshape(maps.shape[1:-2] + (maps.shape[-2] // width, width, maps.shape[-1]))
    return ends.transpose(_moved(ends.ndim, (-2,), (0,))).copy()


def _down_sweep(levels: list, before: np.ndarray, width: int, apply) -> np.ndarray:
    """The values before every level-1 group, from ``before`` the top group.

    ``levels`` holds the prefix maps of levels 2 and up, and ``apply(maps,
    s)`` gives P s + u for the prefix maps [P | u] through subgroups
    0 .. W-2 of a level, which it may overwrite: subgroup 0 of a group
    takes the group's value before, and subgroup j > 0 the group's prefix
    map through subgroup j - 1 applied to it.
    """
    for maps in reversed(levels):
        sub = np.empty((width,) + before.shape)
        sub[0] = before
        sub[1:] = apply(maps, before)
        sub = sub.transpose(_moved(sub.ndim, (0,), (-2,)))
        before = sub.reshape(sub.shape[:-3] + (-1, sub.shape[-1]))
    return before


def _affine_scan(m: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """y_n = A_n y_{n-1} + b_n over one block, y before the block = ``carry``.

    ``m`` holds the maps [A_n | b_n] in tree layout (W, p, p+1, ..., G,
    runs) and is overwritten; ``carry`` is (p, ..., runs) and y comes back
    as (W, p, ..., G, runs), a view of m.  The module docstring gives the
    tree rule.
    """
    p, width = m.shape[1], len(m)
    levels = [m]
    while True:
        # up-sweep: [P_j | u_j] = A_j [P_{j-1} | u_{j-1}] + [0 | b_j] in each group
        maps = levels[-1]
        acc = np.empty_like(maps[0])
        for prev, new in zip(maps, maps[1:]):
            _product(new[:, :p, None].swapaxes(0, 1), prev, acc)
            acc[:, p] += new[:, p]
            np.copyto(new, acc)
        if maps.shape[-2] == 1:
            break
        # the groups' end maps, W to a group, are the maps of the next level
        levels.append(_group_ends(maps, width))
    before = _down_sweep(levels[1:], carry[..., None, :], width,
                         lambda maps, y: _apply(maps[:-1], y))
    return _apply(m, before)


def _linear_filter(a: np.ndarray, x: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """y_n = a_n y_{n-1} + x_n over one block: the affine scan with 1 x 1 maps.

    In tree layout, the gains ``a`` (W, G, runs) act on every component
    of ``x`` (W, ..., G, runs), and ``carry`` (..., runs) is y before the
    block.  Every component shares the gains, so the products P_j =
    a_j P_{j-1} of the prefix maps [P_j | u_j] are formed once, on (W, G,
    runs) arrays; each value takes the multiplies and adds of the 1 x 1
    affine scan.  ``a`` and ``x`` are overwritten by the level-1 prefix
    maps, and y comes back in x's storage.
    """
    width, spread = len(x), (1,) * (x.ndim - 3)

    def widen(p):
        # gains (..., G, runs) against values (..., components, G, runs)
        return p.reshape(p.shape[:-2] + spread + p.shape[-2:])

    def apply(prod, pre, y):
        # P y + u for the prefix maps [P | u] held in prod and pre, formed in
        # pre one position at a time
        for p, u in zip(prod, pre):
            u += widen(p) * y
        return pre

    levels, prod, pre = [], a, x
    while True:
        # up-sweep in place: P_j = a_j P_{j-1} and u_j = a_j u_{j-1} + x_j in each group
        for j in range(1, width):
            pre[j] += widen(prod[j]) * pre[j - 1]
            prod[j] *= prod[j - 1]
        levels.append((prod, pre))
        if prod.shape[-2] == 1:
            break
        prod, pre = _group_ends(prod, width), _group_ends(pre, width)
    before = _down_sweep(levels[1:], carry[..., None, :], width,
                         lambda maps, y: apply(maps[0][:-1], maps[1][:-1], y))
    return apply(*levels[0], before)


def _batch(env, config: LearnerConfig, n_steps: int, run_indices: tuple[int, ...],
           snapshot_plan: tuple[int, ...]) -> list[RunResult]:
    """The theta recursion for the runs ``run_indices``, a group of runs at a time.

    The groups are stepped one after the other, so memory grows with the
    group, not with the run count.  Once a run crosses the divergence
    threshold, the later groups are stepped only through the block of the
    earliest crossing found so far, and the earliest crossing over all
    groups is raised.
    """
    group = max(1, _BLOCK_ENTRIES // (_BLOCK_STEPS * env.dim * env.dim))
    results, crossing = [], None
    for lo in range(0, len(run_indices), group):
        horizon = n_steps if crossing is None else crossing[0]
        done, cross = _group(env, config, n_steps, horizon, run_indices[lo:lo + group],
                             snapshot_plan)
        results += done
        # on a tie the earlier group holds the lower run index
        if cross is not None and (crossing is None or cross[0] < crossing[0]):
            crossing = cross
    if crossing is not None:
        step, index, norm = crossing
        raise NumericalDivergence(f"run {index}: |theta|_inf = {norm:.3e} beyond "
                                  f"{DIVERGENCE_THRESHOLD:.1e} at step {step}")
    return results


def _group(env, config: LearnerConfig, n_steps: int, horizon: int,
           run_indices: tuple[int, ...], snapshot_plan: tuple[int, ...]) -> tuple:
    """The runs ``run_indices`` stepped together through the blocks before step ``horizon``.

    Each block samples every run's next stretch, builds the affine maps
    (A_n, b_n) of all its steps at once and evaluates the iterates by the
    tree rule.  Returns the runs' results and None, or no results and
    (step, run index, |theta|_inf) at the first step where an iterate
    crosses the divergence threshold, naming the lowest-indexed run that
    crosses there.  The results are those of whole runs only when
    ``horizon`` is ``n_steps``.

    A block's arrays live only while the block needs them: its per-step
    inputs until its maps are built, its maps until its iterates are laid
    out, its iterates until its sums and snapshots are taken.  So the peak
    is the maps and the inputs they are built from, (d + 1)(d + 2) floats
    per run and step.  The maps are allocated afresh each block: once a block
    has freed them, glibc's malloc keeps a heap of their size for the next
    block, where a buffer held for the whole group would leave it trimming
    the heap and faulting the inputs' pages in again every block.
    """
    n_runs, dim = len(run_indices), env.dim
    rngs = [substream(config.seed, 2 * i) for i in run_indices]
    splits = [substream(config.seed, 2 * i + 1) if config.eval_mode == "split_sampling"
              else None for i in run_indices]
    n0 = int(config.pr_burn_in_fraction * n_steps)
    g, lg, dr, variant = config.gamma, config.lam * config.gamma, config.delta_r, config.variant
    adaptive = variant == "varpi_relative" and dr != 0.0
    base_vec = (np.asarray(config.mu.psi_bar_mu, float)
                if variant == "relative_fixed_mu" and dr != 0.0 else None)
    fixed_term = (dr * np.outer(config.psi_bar, config.psi_bar)
                  if variant == "varpi_relative_fixed" and dr != 0.0 else None)
    eye = np.eye(dim)[:, :, None, None]

    theta0 = np.zeros(dim) if config.theta0 is None else np.asarray(config.theta0, float)
    theta = np.repeat(theta0[None], n_runs, axis=0)
    zeta, est = np.zeros((2, dim, n_runs))     # before step 0
    pr_sum = np.zeros((n_runs, dim))
    if n0 == 0:
        pr_sum += theta
    plan = sorted({int(s) for s in snapshot_plan if 0 <= s <= n_steps})
    snaps: list[list[Snapshot]] = [[] for _ in run_indices]
    carry: list = [None] * n_runs

    def snap(n: int, theta_n: np.ndarray, sum_n: np.ndarray | None):
        count = n - n0 + 1 if n >= n0 else 0
        for r, out in enumerate(snaps):
            pr = sum_n[r] / count if count else None
            out.append(Snapshot(n=n, theta=theta_n[r].copy(), theta_pr=pr, pr_count=count))

    def scaled_estimates(first: int, k: int, psi_n: np.ndarray) -> np.ndarray:
        """delta_r psi_bar_est_n of the k steps from ``first`` in tree layout (W, d, G, runs).

        psi_bar_est_n = (1 - beta_n) psi_bar_est_{n-1} + beta_n psi(Z_n),
        beta_n = n^-baseline_step_rho and beta_0 = 1.
        """
        nonlocal est
        betas = np.maximum(np.arange(first, first + k, dtype=float), 1.0) \
            ** (-config.baseline_step_rho)
        bs = _tree_layout(np.broadcast_to(betas[:, None], (k, n_runs)))
        values = bs[:, None] * psi_n
        ests = _linear_filter(np.subtract(1.0, bs, out=bs), values, est)
        est = _last(ests, k).copy()
        ests *= dr
        return ests

    def block_maps(first: int, k: int) -> np.ndarray:
        """The maps [A_n | b_n] of the k steps from ``first`` in tree layout (W, d, d+1, G, runs).

        Each per-step input lives only in this call.
        """
        nonlocal carry, zeta, est
        # per-step values in tree layout (W, ..., G, runs); the gains are
        # copied to every run: numpy is slow to broadcast a short last axis
        psi_n, h, cost, carry = env.sample_block(
            k, config.eval_mode, rngs, splits, carry, _tree_order(k))
        al = _tree_layout(np.broadcast_to(config.step.alphas(k, first)[:, None], (k, n_runs)))
        # h_n = gamma psi_target - psi(Z_n) - delta_r baseline_n, in the targets' array
        h *= g
        h -= psi_n
        if adaptive:
            h -= scaled_estimates(first, k, psi_n)
        elif base_vec is not None:
            h -= dr * base_vec[:, None, None]
        # the trace: zeta_n = lam*gamma*zeta_{n-1} + psi(Z_n), in psi_n's array
        if lg == 0.0:
            zs = psi_n
        else:
            zs = _linear_filter(np.full(al.shape, lg), psi_n, zeta)
            zeta = _last(zs, k).copy()
        # A_n = I + alpha_{n+1} (zeta_n h_n' - delta_r psi_bar psi_bar'),
        # b_n = alpha_{n+1} c(Z_n) zeta_n; alpha is 0 past the block's end,
        # so the maps there are the identity
        maps = np.empty(zs.shape[:2] + (dim + 1,) + zs.shape[2:])
        a = maps[:, :, :dim]
        np.multiply(zs[:, :, None], h[:, None], out=a)
        if fixed_term is not None:
            a -= fixed_term[:, :, None, None]
        a *= al[:, None, None]
        a += eye
        cost *= al
        np.multiply(cost[:, None], zs, out=maps[:, :, dim])
        return maps

    if plan and plan[0] == 0:
        snap(0, theta, pr_sum)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, horizon, _BLOCK_STEPS):
            k = min(_BLOCK_STEPS, n_steps - first)
            # iterates[i] is theta_{first+1+i}; the scan overwrites the maps,
            # which die here
            iterates = _step_layout(_affine_scan(block_maps(first, k), theta.T), k)
            # max |theta| <= threshold, NaN failing it, without an |iterates| array
            if not (iterates.max() <= DIVERGENCE_THRESHOLD
                    and -iterates.min() <= DIVERGENCE_THRESHOLD):
                bad = ~(np.abs(iterates) <= DIVERGENCE_THRESHOLD)
                t = int(np.argmax(bad.any(axis=(1, 2))))
                r = int(np.argmax(bad[t].any(axis=1)))
                return [], (first + t + 1, run_indices[r],
                            float(np.max(np.abs(iterates[t, r]))))
            theta = iterates[-1].copy()
            due = []
            while plan and plan[0] <= first + k:
                n = plan.pop(0)
                if n > first:
                    due.append((n, iterates[n - first - 1].copy()))
            # Polyak-Ruppert running sums, in step order and in place: from
            # iterate lo on, row n - first - 1 becomes the sum through iterate n
            lo = max(n0, first + 1)
            if lo <= first + k:
                iterates[lo - first - 1] += pr_sum
                np.cumsum(iterates[lo - first - 1:], axis=0, out=iterates[lo - first - 1:])
                pr_sum = iterates[-1].copy()
            for n, theta_n in due:
                snap(n, theta_n, iterates[n - first - 1] if n >= lo else None)
            del iterates

    pr_count = n_steps - n0 + 1
    return [RunResult(theta_final=theta[r].copy(), theta_pr=pr_sum[r] / pr_count,
                      snapshots=tuple(snaps[r]), n_steps=n_steps, seed=config.seed,
                      run_index=i, pr_count=pr_count)
            for r, i in enumerate(run_indices)], None


def run(env, config: LearnerConfig, n_steps: int,
        snapshot_plan: tuple[int, ...] = (),
        run_index: int = 0) -> RunResult:
    """One deterministic run: a batch of one on substreams 2*run_index / 2*run_index+1.

    Raises :class:`NumericalDivergence` when the iterate norm passes the
    divergence threshold, as unstable mean flows eventually must.
    """
    return _batch(env, config, n_steps, (run_index,), snapshot_plan)[0]


def run_many(env, config: LearnerConfig, n_steps: int, n_runs: int,
             snapshot_plan: tuple[int, ...] = ()) -> list[RunResult]:
    """Runs 0 .. n_runs-1, run i equal to ``run(..., run_index=i)``.

    Consecutive groups of at most max(1, _BLOCK_ENTRIES // (_BLOCK_STEPS
    d^2)) runs are stepped together, one group after the other; a group
    shares only the vectorised products, not any value.  The memory is one
    block of one group's: (d + 1)(d + 2) floats per run of the group and
    step of the block, whatever the run count and run length.  Raises
    :class:`NumericalDivergence` when any run diverges, naming the first
    step past the threshold over all runs and the lowest-indexed run that
    passes it there.
    """
    return _batch(env, config, n_steps, tuple(range(n_runs)), snapshot_plan)


def snapshot_indices(n0: int, n1: int, rho: float, n_snap: int) -> list[int]:
    """Late-time snapshot indices, uniform on the ODE time scale.

    tau(n) is proportional to n^{1-rho} for alpha_n = n^{-rho}, so indices
    uniform in tau are n_i = (n0^{1-rho} + (i-1)/(n_snap-1) * (n1^{1-rho}
    - n0^{1-rho}))^{1/(1-rho)}, rounded, clamped to [n0, n1], de-duplicated.
    """
    if not n0 < n1:
        raise ValueError("need n0 < n1")
    if n_snap < 2:
        raise ValueError("need at least 2 snapshots")
    e = 1.0 - rho
    lo, hi = float(n0) ** e, float(n1) ** e
    out: list[int] = []
    for i in range(1, n_snap + 1):
        tau = lo + (i - 1) / (n_snap - 1) * (hi - lo)
        n = int(round(tau ** (1.0 / e)))
        n = min(max(n, n0), n1)
        if not out or out[-1] != n:
            out.append(n)
    return out


@dataclass(frozen=True)
class EmpiricalBias:
    value: np.ndarray
    stderr: np.ndarray


def empirical_bias(estimates: list[np.ndarray], theta_star: np.ndarray,
                   alpha_at_n: float) -> EmpiricalBias:
    """Componentwise mean and standard error of (theta_N - theta_star)/alpha_N.

    ``estimates`` holds one theta_N per run: final iterates or their averages.
    """
    samples = (np.stack(estimates) - theta_star) / alpha_at_n
    m = len(samples)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.full(samples.shape[1], np.nan)
    return EmpiricalBias(value=samples.mean(axis=0), stderr=stderr)


def empirical_clt_samples(runs: list[RunResult], theta_star: np.ndarray,
                          source: str = "final") -> np.ndarray:
    """Rows sqrt(pr_count) * (theta_pr - theta_star) per run.

    With ``source="snapshots"`` every recorded snapshot with a started
    average contributes a row, enlarging the sample set beyond one row per
    run; with ``source="final"`` only the end-of-run average does.
    """
    rows = []
    for r in runs:
        if source == "snapshots" and r.snapshots:
            for s in r.snapshots:
                if s.theta_pr is not None and s.pr_count > 0:
                    rows.append(np.sqrt(s.pr_count) * (s.theta_pr - theta_star))
        else:
            rows.append(np.sqrt(r.pr_count) * (r.theta_pr - theta_star))
    return np.stack(rows)
