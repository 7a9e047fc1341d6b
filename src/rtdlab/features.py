"""Feature maps and their exact steady-state statistics.

Autocorrelation matrices R(k) = E[psi(Z_0) psi(Z_k)'], autocovariances
Sigma(k) = R(k) - psi_bar psi_bar', baseline means, resolvent-form infinite
sums through ``markov.resolvent_solve``, and the search for a normalizing
vector xi with xi'psi(z) = 1 on the chain support.  All expectations are
computed exactly from (P, varpi, Psi); Monte-Carlo estimates of the same
quantities live in the learner layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import FiniteChain, resolvent_solve

_RANK_RTOL = 1e-10
_NORMALIZER_TOL = 1e-8


@dataclass(frozen=True)
class FeatureMap:
    """Linear-architecture feature map psi: Z -> R^d, stored as a |Z| x d matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(m)):
            raise ValueError("feature matrix must be finite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class BaselineMean:
    """Baseline pmf mu on Z together with its feature mean psi_bar_mu = Psi'mu."""

    mu: np.ndarray
    psi_bar_mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "psi_bar_mu", np.asarray(self.psi_bar_mu, dtype=float))
        if np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-10:
            raise ValueError("mu must be a pmf")


@dataclass(frozen=True)
class NormalizerResult:
    """Least-squares solve of Psi_support xi = 1.

    ``xi`` is None when no exact solution exists (residual above tolerance).
    ``solution_dim`` is the dimension of the affine solution set when a
    solution exists (nullity of the support rows).
    """

    xi: np.ndarray | None
    residual: float
    solution_dim: int


def tabular_basis(n_z: int) -> FeatureMap:
    """Indicator basis: psi(z) = e_z."""
    return FeatureMap(np.eye(n_z))


def finite_poly_basis(n_states: int, n_actions: int) -> FeatureMap:
    """Basis psi(x, u) = [x, u, x*u] with 1-based state/action labels, row z = x*|U| + u."""
    x, u = np.meshgrid(np.arange(1.0, n_states + 1), np.arange(1.0, n_actions + 1), indexing="ij")
    return FeatureMap(np.column_stack([x.ravel(), u.ravel(), (x * u).ravel()]))


def builtin_basis(name: str, n_states: int, n_actions: int) -> FeatureMap:
    """Look up a named basis for a finite model ("tabular" or "finite_poly")."""
    if name == "tabular":
        return tabular_basis(n_states * n_actions)
    if name == "finite_poly":
        return finite_poly_basis(n_states, n_actions)
    if name == "speedscale":
        raise ValueError("the speedscale basis is bound to the continuous "
                         "speed-scaling model (SpeedScalingModel.features)")
    raise ValueError(f"unknown basis {name!r} for finite models")


def feature_mean(chain: FiniteChain, psi: FeatureMap) -> np.ndarray:
    """psi_bar = Psi' varpi."""
    return psi.matrix.T @ chain.stationary


def baseline_mean(mu: np.ndarray, psi: FeatureMap) -> BaselineMean:
    """Baseline pmf mu with psi_bar_mu = Psi'mu, components <mu, psi_i>."""
    mu = np.asarray(mu, dtype=float)
    return BaselineMean(mu=mu, psi_bar_mu=psi.matrix.T @ mu)


def autocorrelation(chain: FiniteChain, psi: FeatureMap, k: int) -> np.ndarray:
    """R(k) = E[psi(Z_0) psi(Z_k)'] = Psi' D P^k Psi in steady state."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    d_psi = chain.stationary[:, None] * psi.matrix
    pk_psi = psi.matrix
    for _ in range(k):
        pk_psi = chain.transition @ pk_psi
    return d_psi.T @ pk_psi


def resolvent_sum(chain: FiniteChain, psi: FeatureMap, beta: float) -> np.ndarray:
    """Closed form of sum_{k>=0} beta^k R(k+1) = Psi' D P (I - beta P)^{-1} Psi.

    One ``markov.resolvent_solve``; at beta = 0 the sum is R(1), the same
    products on a copy of Psi.
    """
    d_psi = chain.stationary[:, None] * psi.matrix
    return d_psi.T @ (chain.transition @ resolvent_solve(chain.transition, beta, psi.matrix))


@dataclass(frozen=True)
class FeatureStats:
    """Exact steady-state feature statistics of a chain."""

    r0: np.ndarray
    sigma0: np.ndarray
    psi_bar: np.ndarray
    rank_sigma0: int


def feature_stats(chain: FiniteChain, psi: FeatureMap) -> FeatureStats:
    r0 = autocorrelation(chain, psi, 0)
    psi_bar = feature_mean(chain, psi)
    sigma0 = r0 - np.outer(psi_bar, psi_bar)
    sv = np.linalg.svd(sigma0, compute_uv=False)
    tol = _RANK_RTOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > tol))
    return FeatureStats(r0=r0, sigma0=sigma0, psi_bar=psi_bar,
                        rank_sigma0=rank)


def find_normalizer(psi: FeatureMap, support: np.ndarray) -> NormalizerResult:
    """Minimum-norm least-squares solve of psi(z)'xi = 1 for z in the support.

    Returns xi only when the system is solved exactly (sup-norm residual below
    1e-8); a strictly positive-definite Sigma(0) rules this out, since any
    solution would satisfy xi'Sigma(0)xi = 0.
    """
    support = np.asarray(support, dtype=int)
    rows = psi.matrix[support]
    ones = np.ones(len(support))
    xi, _, rank, _ = np.linalg.lstsq(rows, ones, rcond=None)
    residual = float(np.max(np.abs(rows @ xi - ones))) if len(support) else 0.0
    if residual >= _NORMALIZER_TOL:
        return NormalizerResult(xi=None, residual=residual, solution_dim=0)
    return NormalizerResult(xi=xi, residual=residual,
                            solution_dim=psi.dim - int(rank))
