"""Continuous-state speed-scaling model and its Monte-Carlo statistics.

Workload dynamics X_{k+1} = X_k - U_k + A_{k+1} with i.i.d. Gamma arrivals
(shape 2.5, scale 2: mean 5, variance 10), proportional service U_k = g*X_k,
and cost c(x, u) = x + (r/2) u^2.  The feature vector is

    psi(x, u) = [c(x, u), x^{3/2}, -(1 + sqrt(x)) u, 1 - u/sqrt(x + 1)].

No exact finite machinery exists here; steady-state statistics R(0), R(1),
psi_bar and the noise covariance are estimated from long trajectories, and
the mean-flow eigenvalue curves are built from those estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, SingularSystem
from .learner import substream
from .markov import guarded_solve

NOISE_WINDOW = 200  # largest lag of estimate_noise_covariance, which needs more steps


@dataclass(frozen=True)
class SpeedScalingModel:
    arrival_shape: float = 2.5
    arrival_scale: float = 2.0
    service_gain: float = 0.5
    cost_weight: float = 10.0
    x0: float = 10.0  # long-run mean workload: arrival mean / gain

    def __post_init__(self):
        if not 0.0 < self.service_gain <= 1.0:
            raise ConfigError("service gain must lie in (0, 1] so that 0 <= u <= x")

    @property
    def arrival_mean(self) -> float:
        return self.arrival_shape * self.arrival_scale

    @property
    def arrival_variance(self) -> float:
        return self.arrival_shape * self.arrival_scale ** 2

    def cost(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return x + 0.5 * self.cost_weight * u ** 2

    def features(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Feature rows for (x, u) arrays; shape (..., 4)."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        sq = np.sqrt(x)
        return np.stack([
            self.cost(x, u),
            x ** 1.5,
            -(1.0 + sq) * u,
            1.0 - u / np.sqrt(x + 1.0),
        ], axis=-1)

    @property
    def dim(self) -> int:
        return 4


def simulate_speed_scaling(model: SpeedScalingModel, n_steps: int,
                           rng: np.random.Generator, x0: float | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled workload path: returns (x, u, cost) with x, u of length n_steps + 1.

    The linear recursion X_{k+1} = (1 - g) X_k + A_{k+1} runs step by step
    over the arrival sequence pre-drawn from ``rng``, from ``x0`` (default
    ``model.x0``).  Continuing from the last X of a path on the same
    generator gives the path one longer call would have drawn.
    """
    arrivals = rng.gamma(model.arrival_shape, model.arrival_scale, size=n_steps)
    decay = 1.0 - model.service_gain
    x = np.fromiter(accumulate(arrivals.tolist(), lambda xk, a: decay * xk + a,
                               initial=model.x0 if x0 is None else x0), float, n_steps + 1)
    u = model.service_gain * x
    cost = model.cost(x[:-1], u[:-1])
    return x, u, cost


class SpeedScalingEnv:
    """Sample-only environment: on-policy evaluation (the policy is
    deterministic, so split sampling coincides with it); the natural mode is
    rejected because the policy is not exposed as a distribution."""

    def __init__(self, model: SpeedScalingModel):
        self.model = model

    @property
    def dim(self) -> int:
        return self.model.dim

    def sample_block(self, k: int, eval_mode: str, rngs: list, splits: list,
                     starts: list) -> tuple:
        """Each run's next k steps as (table, rows) pairs in step order, as
        :meth:`rtdlab.learner.FiniteChainEnv.sample_block` returns them.

        The tables are the runs' stacked feature rows of X_0 .. X_k and
        their stacked costs; the last workload of each run continues it.
        """
        if eval_mode == "natural":
            raise ConfigError("speed-scaling environment provides samples only")
        psi, cost, ends = [], [], []
        for rng, start in zip(rngs, starts):
            x, u, c = simulate_speed_scaling(self.model, k, rng, start)
            psi.append(self.model.features(x, u))
            cost.append(c)
            ends.append(x[-1])
        # run r's step n is row r (k + 1) + n of the features and r k + n of the costs
        runs = np.arange(len(ends))
        rows = np.arange(k + 1)[:, None] + (k + 1) * runs
        psi = np.concatenate(psi)
        return ((psi, rows), (psi, rows[1:]),
                (np.concatenate(cost), np.arange(k)[:, None] + k * runs), ends)


@dataclass(frozen=True)
class TrajectoryStats:
    """Sample-average feature statistics of one trajectory."""

    r0: np.ndarray
    r1: np.ndarray
    psi_bar: np.ndarray
    b_vec: np.ndarray   # E[c(Z) psi(Z)]

    def mean_flow(self, gamma: float, delta_r: float = 0.0) -> np.ndarray:
        a = -self.r0 + gamma * self.r1
        if delta_r > 0:
            a = a - delta_r * np.outer(self.psi_bar, self.psi_bar)
        return a

    def theta_star(self, gamma: float, delta_r: float = 0.0) -> np.ndarray:
        return -guarded_solve(self.mean_flow(gamma, delta_r), self.b_vec, SingularSystem,
                              "estimated mean-flow matrix")


def _trajectory(model: SpeedScalingModel, n_steps: int, seed: int,
                stream: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features at steps n and n + 1 and the cost at step n, n < n_steps,
    of the path on substream (seed, stream)."""
    x, u, cost = simulate_speed_scaling(model, n_steps, substream(seed, stream))
    psi = model.features(x, u)
    return psi[:-1], psi[1:], cost


def estimate_stats(model: SpeedScalingModel, n_steps: int, seed: int,
                   stream: int = 0) -> TrajectoryStats:
    body, ahead, cost = _trajectory(model, n_steps, seed, stream)
    n = len(body)
    return TrajectoryStats(
        r0=body.T @ body / n,
        r1=body.T @ ahead / n,
        psi_bar=body.mean(axis=0),
        b_vec=(cost[:, None] * body).sum(axis=0) / n,
    )


def estimate_noise_covariance(model: SpeedScalingModel, stats: TrajectoryStats,
                              gamma: float, delta_r: float, n_steps: int,
                              seed: int, stream: int = 0,
                              window: int = NOISE_WINDOW) -> np.ndarray:
    """Truncated two-sided autocorrelation estimate of the noise covariance.

    With d_n the one-step temporal-difference error at the estimated
    stationary point, the noise is psi_n (d_n - delta_r psi_bar'theta*): the
    baseline rides the temporal-difference scalar, as in ``varpi_relative``
    (and in ``td`` at delta_r = 0), the variants this model runs.
    """
    if n_steps <= window:
        raise ConfigError(f"the noise covariance needs more than {window} steps, got {n_steps}")
    theta_star = stats.theta_star(gamma, delta_r)
    body, ahead, cost = _trajectory(model, n_steps, seed, stream)
    d = cost + gamma * ahead @ theta_star - body @ theta_star
    if delta_r > 0:
        d = d - delta_r * float(stats.psi_bar @ theta_star)
    delta = body * d[:, None]
    delta = delta - delta.mean(axis=0)
    n = len(delta)
    sig = delta.T @ delta / n
    for k in range(1, window + 1):
        gk = delta[:-k].T @ delta[k:] / (n - k)
        sig = sig + gk + gk.T
    return 0.5 * (sig + sig.T)


@dataclass(frozen=True)
class MomentCheck:
    sample_mean: float
    sample_var: float
    mean_se: float
    var_se: float
    expected_mean: float
    expected_var: float

    @property
    def mean_ok(self) -> bool:
        return abs(self.sample_mean - self.expected_mean) <= 3 * self.mean_se

    @property
    def var_ok(self) -> bool:
        return abs(self.sample_var - self.expected_var) <= 3 * self.var_se


def gamma_moment_check(model: SpeedScalingModel, n_draws: int, seed: int) -> MomentCheck:
    """Sample-moment check of the arrival distribution parameters."""
    rng = substream(seed, 0)
    a = rng.gamma(model.arrival_shape, model.arrival_scale, size=n_draws)
    mean = float(a.mean())
    var = float(a.var(ddof=1))
    # the centered 4th power in a's array, as a square of a square: ** 4
    # takes numpy's scalar pow for negative bases
    a -= mean
    np.square(a, out=a)
    m4 = float(np.mean(np.square(a, out=a)))
    return MomentCheck(
        sample_mean=mean,
        sample_var=var,
        mean_se=float(np.sqrt(var / n_draws)),
        var_se=float(np.sqrt(max(m4 - var ** 2, 0.0) / n_draws)),
        expected_mean=model.arrival_mean,
        expected_var=model.arrival_variance,
    )
