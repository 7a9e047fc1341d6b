"""Exact finite-chain machinery.

State-action chains induced by a randomized stationary policy, their
stationary distributions, Poisson pairings read off one adjoint solve on
(I - P + 1 varpi')', the resolvent (I - beta P)^{-1} of every discounted
quantity, and ``guarded_solve``, the one place a condition number meets the
1e12 limit.  cond(I - P + 1 varpi') is an SVD kept on the chain as one
float; ``resolvent_solve`` passes a norm bound, so an SVD of I - beta P runs
only near beta = 1, where the limit can be reached.  Everything here is
deterministic linear algebra on small dense matrices; simulation lives in
:mod:`rtdlab.learner`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NotUnichain, SingularResolvent, SingularSystem

# Rank threshold (relative to the largest singular value) used to decide
# whether eigenvalue 1 of a stochastic matrix is simple.
_UNICHAIN_RTOL = 1e-8

# Condition-number ceiling beyond which linear solves are treated as singular.
_COND_LIMIT = 1e12


def guarded_solve(m: np.ndarray, rhs: np.ndarray, error: type[Exception],
                  what: str, cond: float | None = None) -> np.ndarray:
    """Solve m x = rhs, raising ``error`` when cond(m) exceeds _COND_LIMIT.

    ``cond`` is cond_2(m), or an upper bound on it, when the caller has one;
    otherwise it is computed here, a full SVD that costs several times the
    solve.
    """
    if cond is None:
        cond = np.linalg.cond(m)
    if cond > _COND_LIMIT:
        raise error(f"{what} is numerically singular")
    return np.linalg.solve(m, rhs)


def resolvent_solve(p: np.ndarray, beta: float, rhs: np.ndarray) -> np.ndarray:
    """(I - beta p)^{-1} rhs for 0 <= beta < 1, a copy of rhs at beta = 0.

    Raises SingularResolvent past the condition limit.  With
    r = beta min(||p||_inf, ||p||_1) < 1 a Neumann series gives cond_1 or
    cond_inf <= (1 + r)/(1 - r), so cond_2 <= n (1 + r)/(1 - r).  That bound
    replaces the SVD while it is within the limit: for a stochastic p
    (r = beta), up to about beta = 1 - 2n/1e12.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if beta == 0.0:
        return np.array(rhs, dtype=float)
    n = len(p)
    r = beta * min(np.linalg.norm(p, np.inf), np.linalg.norm(p, 1))
    bound = n * (1.0 + r) / (1.0 - r) if r < 1.0 else np.inf
    return guarded_solve(np.eye(n) - beta * p, rhs, SingularResolvent, f"I - {beta}*P",
                         cond=bound if bound <= _COND_LIMIT else None)


@dataclass(frozen=True)
class FiniteMdp:
    """Finite MDP: per-action kernels ``kernel[u][x, x']`` and costs ``cost[x, u]``."""

    n_states: int
    n_actions: int
    kernel: np.ndarray  # shape (n_actions, n_states, n_states)
    cost: np.ndarray    # shape (n_states, n_actions)

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "cost", cost)
        if kernel.shape != (self.n_actions, self.n_states, self.n_states):
            raise ValueError(f"kernel shape {kernel.shape} inconsistent with sizes")
        if cost.shape != (self.n_states, self.n_actions):
            raise ValueError(f"cost shape {cost.shape} inconsistent with sizes")
        if np.any(kernel < 0):
            raise ValueError("kernel has negative entries")
        row_sums = kernel.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost must be finite")


@dataclass(frozen=True)
class RandomizedPolicy:
    """Randomized stationary policy: ``probs[x, u]`` is the chance of u in x."""

    probs: np.ndarray  # shape (n_states, n_actions)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if np.any(probs < 0):
            raise ValueError("policy has negative probabilities")
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("policy rows must sum to 1 within 1e-12")

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class FiniteChain:
    """Markov chain on state-action pairs z = (x, u), flattened as z = x*|U| + u.

    ``transition[z, z'] = P_u(x, x') * policy(u' | x')`` for z = (x, u) and
    z' = (x', u').  ``stationary`` is the unique invariant pmf (assumption of a
    unichain).  ``policy[x, u]``, or None, is the (n_x, n_u) table ``transition``
    comes from, which the natural and split-sampling targets average over at X'.

    ``poisson_cond`` is computed from the arrays on first use and then kept,
    so a chain's arrays must not be changed in place once it exists: build a
    new chain instead.  Only that float is cached; the chain holds no n_z x n_z
    array beyond ``transition``.
    """

    transition: np.ndarray
    cost_vec: np.ndarray
    stationary: np.ndarray
    policy: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        c = np.asarray(self.cost_vec, dtype=float)
        pi = np.asarray(self.stationary, dtype=float)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "cost_vec", c)
        object.__setattr__(self, "stationary", pi)
        n = p.shape[0]
        if p.shape != (n, n) or c.shape != (n,) or pi.shape != (n,):
            raise ValueError("inconsistent chain dimensions")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if np.max(np.abs(pi @ p - pi)) > 1e-10 or abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError("stationary vector is not invariant within 1e-10")
        if self.policy is not None:
            object.__setattr__(self, "policy", np.asarray(self.policy, dtype=float))
            if self.policy.ndim != 2 or self.policy.size != n:
                raise ValueError(f"policy shape {self.policy.shape} is not (n_x, n_u) "
                                 f"with n_x * n_u = {n}")
            p3 = p.reshape(n, *self.policy.shape)
            if np.max(np.abs(p3 - p3.sum(axis=2, keepdims=True) * self.policy)) > 1e-10:
                raise ValueError("transition is not P_u(x, x') policy(u' | x') within 1e-10")

    @property
    def n_z(self) -> int:
        return self.transition.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Indices z with stationary mass > 0 (relative 1e-12 dust threshold)."""
        tol = 1e-12 * max(1.0, float(self.stationary.max()))
        return np.flatnonzero(self.stationary > tol)

    @cached_property
    def poisson_cond(self) -> float:
        """2-norm condition number of I - P + 1 varpi', one SVD per chain."""
        return float(np.linalg.cond(_poisson_matrix(self)))


def _null_dimension(p: np.ndarray) -> int:
    """Dimension of the null space of (I - P), i.e. geometric multiplicity of eigenvalue 1."""
    sv = np.linalg.svd(np.eye(p.shape[0]) - p, compute_uv=False)
    tol = _UNICHAIN_RTOL * max(1.0, sv[0] if sv.size else 1.0)
    return int(np.sum(sv < tol))


def stationary_pmf(p: np.ndarray) -> np.ndarray:
    """Unique invariant pmf of a row-stochastic unichain matrix.

    Solves (P' - I) pi = 0 directly with one equation replaced by the
    normalization sum(pi) = 1.  The direct solve handles periodic chains,
    which power iteration would not.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if _null_dimension(p) != 1:
        raise NotUnichain("eigenvalue 1 of P' has geometric multiplicity > 1")
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotUnichain("stationary system singular") from exc
    if np.min(pi) < -1e-10:
        raise NotUnichain(f"stationary solve produced negative mass {np.min(pi):.3e}")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def build_chain(mdp: FiniteMdp, policy: RandomizedPolicy) -> FiniteChain:
    """State-action chain induced by running ``policy`` in ``mdp``.

    P[(x, u), (x', u')] = P_u(x, x') * policy(u' | x') is one broadcast
    product over (x, u, x', u'), and its reshape to (n_z, n_z) is the
    layout z = x * n_actions + u.  The stationary pmf factorizes as
    varpi(x, u) = pi(x) * policy(u | x) with pi invariant for the
    state-level kernel, but it is computed directly on the pair chain.  The
    chain keeps ``policy.probs`` itself, not a copy, as its ``policy``.
    """
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy dimensions do not match the MDP")
    nz = mdp.n_states * mdp.n_actions
    p = (mdp.kernel.transpose(1, 0, 2)[:, :, :, None] * policy.probs).reshape(nz, nz)
    cost = mdp.cost.reshape(nz)
    pi = stationary_pmf(p)
    return FiniteChain(transition=p, cost_vec=cost, stationary=pi, policy=policy.probs)


def _poisson_matrix(chain: FiniteChain) -> np.ndarray:
    """I - P + 1 varpi', built anew on each call so that the chain keeps no copy."""
    return np.eye(chain.n_z) - chain.transition + chain.stationary[None, :]


def poisson_solve_adjoint(chain: FiniteChain, w: np.ndarray) -> np.ndarray:
    """h = Pi'w, Pi = (I - P + 1 varpi')^{-1}(I - 1 varpi') the centered Poisson operator.

    w'Pi f = h'f for every f.  h is one solve of (I - P + 1 varpi')'h = w - varpi (1'w),
    guarded by the chain's ``poisson_cond`` (a transpose keeps the singular
    values), and 1'h = 0.  SingularSystem past the limit, or when (I - P)'h
    misses w - varpi (1'w) by more than 1e-9 max(1, max|w|).
    """
    w = np.asarray(w, dtype=float)
    rhs = w - np.multiply.outer(chain.stationary, w.sum(axis=0))
    cond = chain.poisson_cond  # before the solve's matrix exists: one n_z x n_z at a time
    h = guarded_solve(_poisson_matrix(chain).T, rhs, SingularSystem,
                      "I - P + 1 varpi'", cond=cond)
    if np.max(np.abs(h - chain.transition.T @ h - rhs)) > 1e-9 * max(1.0, np.max(np.abs(w))):
        raise SingularSystem("Poisson plug-back residual too large")
    return h


def discounted_q(chain: FiniteChain, gamma: float) -> np.ndarray:
    """Discounted value Q = (I - gamma*P)^{-1} c for 0 <= gamma < 1; a copy of c at 0."""
    return resolvent_solve(chain.transition, gamma, chain.cost_vec)


def load_model(path: str | Path) -> tuple[FiniteMdp, RandomizedPolicy, np.ndarray | None]:
    """Read an MDP + policy (and optional explicit feature matrix) from JSON.

    Expected keys: n_states, n_actions, kernel[u][x][x'], cost[x][u],
    policy[x][u]; optional features[z][i] with rows ordered z = (x, u)
    lexicographically.  Probabilities are validated on load.
    """
    with open(path) as fh:
        raw = json.load(fh)
    mdp = FiniteMdp(
        n_states=int(raw["n_states"]),
        n_actions=int(raw["n_actions"]),
        kernel=np.asarray(raw["kernel"], dtype=float),
        cost=np.asarray(raw["cost"], dtype=float),
    )
    policy = RandomizedPolicy(probs=np.asarray(raw["policy"], dtype=float))
    features = None
    if "features" in raw:
        features = np.asarray(raw["features"], dtype=float)
        if features.shape[0] != mdp.n_states * mdp.n_actions:
            raise ValueError("feature matrix must have one row per state-action pair")
    return mdp, policy, features


def save_model(path: str | Path, mdp: FiniteMdp, policy: RandomizedPolicy,
               features: np.ndarray | None = None) -> None:
    """Inverse of :func:`load_model`."""
    payload = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "kernel": mdp.kernel.tolist(),
        "cost": mdp.cost.tolist(),
        "policy": policy.probs.tolist(),
    }
    if features is not None:
        payload["features"] = np.asarray(features, dtype=float).tolist()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
