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

Randomness is threaded through counter-based Philox streams keyed by
(master seed, stream id), so every run is a reproducible, isolated
substream regardless of execution order; stream 2*i drives run i's
trajectory and stream 2*i+1 its split-sampling draws.
"""

from __future__ import annotations

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
        if self.alpha0 <= 0:
            raise ConfigError("alpha0 must be positive")
        if not 0.5 < self.rho < 1.0:
            raise ConfigError("rho must lie in (1/2, 1)")

    def alpha(self, n: int) -> float:
        # one-element array power: bit-identical to the vectorized schedule
        return float(np.minimum(self.alpha0, np.array([float(n)]) ** (-self.rho))[0])

    def alphas(self, n_steps: int) -> np.ndarray:
        """alpha_1 .. alpha_{n_steps}."""
        n = np.arange(1, n_steps + 1, dtype=float)
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
    """Prefetched per-step arrays driving the theta recursion."""

    psi_states: np.ndarray   # (N+1, d): features of Z_0 .. Z_N
    cost: np.ndarray         # (N,): c(Z_0) .. c(Z_{N-1})
    psi_target: np.ndarray   # (N, d): TD-target features per step
    z_traj: np.ndarray | None = None


class FiniteChainEnv:
    """Sampling environment for a finite state-action chain.

    ``policy`` (per-state action probabilities) enables the natural and
    split-sampling evaluation modes; without it only on-policy is available.
    Z_0 is drawn from the stationary pmf.
    """

    def __init__(self, chain: FiniteChain, psi: FeatureMap, policy: np.ndarray | None = None):
        self.chain = chain
        self.psi = psi
        self.policy = None if policy is None else np.asarray(policy, float)
        self._cum_rows = [row.cumsum().tolist() for row in chain.transition]
        self._cum_init = chain.stationary.cumsum().tolist()
        if self.policy is not None:
            nx, nu = chain.state_action_shape
            # policy-averaged features per state: sum_u policy(u|x) psi(x, u)
            self._psi_avg = np.stack([
                self.policy[x] @ psi.matrix[x * nu:(x + 1) * nu] for x in range(nx)])

    def sample_states(self, n_steps: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n_steps + 1).tolist()
        cum_rows = self._cum_rows
        last = self.chain.n_z - 1
        z = min(bisect_right(self._cum_init, u[0]), last)
        traj = np.empty(n_steps + 1, dtype=np.int64)
        traj[0] = z
        for t in range(1, n_steps + 1):
            z = min(bisect_right(cum_rows[z], u[t]), last)
            traj[t] = z
        return traj

    def sample_path(self, n_steps: int, eval_mode: str,
                    rng: np.random.Generator,
                    rng_split: np.random.Generator | None = None) -> Path:
        if eval_mode not in EVAL_MODES:
            raise ConfigError(f"unknown eval mode {eval_mode!r}")
        if eval_mode != "on_policy" and self.policy is None:
            raise ConfigError(f"{eval_mode} mode requires policy knowledge")
        if eval_mode == "split_sampling" and rng_split is None:
            raise MissingSplitSample("split sampling requires its own stream")
        traj = self.sample_states(n_steps, rng)
        psi_states = self.psi.matrix[traj]
        cost = self.chain.cost_vec[traj[:-1]]
        nu = self.chain.state_action_shape[1]
        if eval_mode == "on_policy":
            target = psi_states[1:]
        elif eval_mode == "natural":
            target = self._psi_avg[traj[1:] // nu]
        else:
            x_next = traj[1:] // nu
            us = rng_split.random(n_steps)
            cum = np.cumsum(self.policy, axis=1)
            u_split = np.minimum((us[:, None] > cum[x_next]).sum(axis=1), nu - 1)
            target = self.psi.matrix[x_next * nu + u_split]
        return Path(psi_states=psi_states, cost=cost, psi_target=target, z_traj=traj)


def _theta_loop(path: Path, config: LearnerConfig, n0: int, snapshot_plan: tuple[int, ...]
                ) -> tuple[np.ndarray, np.ndarray, int, list[Snapshot]]:
    """The theta recursion over a sampled path.

    Returns the final iterate, the Polyak-Ruppert sum of the iterates from
    n0 on, its count, and the snapshots.
    """
    n_steps = len(path.cost)
    dim = path.psi_states.shape[1]
    theta = np.zeros(dim) if config.theta0 is None else np.asarray(config.theta0, float).copy()
    zeta = np.zeros(dim)
    psi_bar_est = np.asarray(path.psi_states[0], float).copy()
    pr_sum = np.zeros(dim)
    pr_count = 0
    g = config.gamma
    lg = config.lam * config.gamma
    dr = config.delta_r
    variant = config.variant
    alphas = config.step.alphas(n_steps).tolist()
    cost = path.cost.tolist()
    psi_states = path.psi_states
    psi_target = path.psi_target
    threshold = DIVERGENCE_THRESHOLD
    snaps: list[Snapshot] = []
    plan = sorted(set(int(s) for s in snapshot_plan))
    plan_pos = 0
    base_vec = (np.asarray(config.mu.psi_bar_mu, float)
                if variant == "relative_fixed_mu" else None)
    fixed_vec = (np.asarray(config.psi_bar, float)
                 if variant == "varpi_relative_fixed" else None)
    adaptive = variant == "varpi_relative"
    betas = ((np.arange(1, n_steps + 1, dtype=float) ** (-config.baseline_step_rho)).tolist()
             if adaptive else None)

    def snap(n_iter: int):
        pr = pr_sum / pr_count if pr_count > 0 else None
        snaps.append(Snapshot(n=n_iter, theta=theta.copy(), theta_pr=pr, pr_count=pr_count))

    if n0 == 0:
        pr_sum += theta
        pr_count = 1
    while plan_pos < len(plan) and plan[plan_pos] == 0:
        snap(0)
        plan_pos += 1

    for t in range(n_steps):
        psi_row = psi_states[t]
        if lg != 0.0:
            zeta = lg * zeta + psi_row
        else:
            zeta = psi_row
        if dr != 0.0 and (adaptive or base_vec is not None):
            corr = dr * float((psi_bar_est if adaptive else base_vec) @ theta)
        else:
            corr = 0.0
        d = cost[t] + g * float(psi_target[t] @ theta) - float(psi_row @ theta) - corr
        update = d * zeta
        if fixed_vec is not None and dr != 0.0:
            update = update - dr * float(fixed_vec @ theta) * fixed_vec
        theta = theta + alphas[t] * update
        if adaptive:
            psi_bar_est = psi_bar_est + betas[t] * (psi_states[t + 1] - psi_bar_est)
        n_iter = t + 1
        if n_iter >= n0:
            pr_sum += theta
            pr_count += 1
        # cheap per-step trigger on the first component (catches nan too);
        # full norm check every 64 steps
        if not (abs(theta[0]) <= threshold) or (t & 63) == 0:
            norm = float(np.max(np.abs(theta)))
            if not (norm <= threshold):
                raise NumericalDivergence(
                    f"|theta|_inf = {norm:.3e} beyond {threshold:.1e} at step {n_iter}")
        if plan_pos < len(plan) and plan[plan_pos] == n_iter:
            snap(n_iter)
            plan_pos += 1

    return theta, pr_sum, pr_count, snaps


def run(env, config: LearnerConfig, n_steps: int,
        snapshot_plan: tuple[int, ...] = (),
        run_index: int = 0) -> RunResult:
    """One deterministic run: sample a path, iterate, average, snapshot.

    Raises :class:`NumericalDivergence` when the iterate norm passes the
    divergence threshold, as unstable mean flows eventually must.
    """
    rng = substream(config.seed, 2 * run_index)
    rng_split = (substream(config.seed, 2 * run_index + 1)
                 if config.eval_mode == "split_sampling" else None)
    path = env.sample_path(n_steps, config.eval_mode, rng, rng_split)
    n0 = int(config.pr_burn_in_fraction * n_steps)
    theta, pr_sum, pr_count, snaps = _theta_loop(path, config, n0, snapshot_plan)
    theta_pr = pr_sum / pr_count if pr_count else theta.copy()
    return RunResult(theta_final=theta, theta_pr=theta_pr, snapshots=tuple(snaps),
                     n_steps=n_steps, seed=config.seed, run_index=run_index,
                     pr_count=pr_count)


def run_many(env, config: LearnerConfig, n_steps: int, n_runs: int,
             snapshot_plan: tuple[int, ...] = ()) -> list[RunResult]:
    """Independent runs on substreams 2*i / 2*i+1; order-independent results."""
    return [run(env, config, n_steps, snapshot_plan, run_index=i) for i in range(n_runs)]


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
