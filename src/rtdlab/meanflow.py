"""Exact mean-flow matrices and spectral diagnostics.

For the trace-weighted update with trace parameter lam and discount gamma the
mean flow is linear, f(theta) = A_bar theta + b_bar, with

    A_bar(lam; 0)       = -R(0) + (1 - lam) * gamma * sum_k (lam*gamma)^k R(k+1)
    A_bar(lam; delta_r) = A_bar(lam; 0) - delta_r/(1 - lam*gamma) * psi_bar psi_bar_mu'
    b_bar               = Psi' D (I - lam*gamma*P)^{-1} c

This module also carries the Dirichlet-form machinery that certifies a
uniform spectral bound: with beta = lam*gamma and varrho = gamma*(1-lam)/(1-beta),

    A_bar(lam; 0) = -(1 - varrho) R(0) - varrho M_beta,
    M_beta = R(0) - (1-beta) sum_k beta^k R(k+1) = R(0) - Psi' D K_beta Psi ,
    theta' M_beta theta = <g_theta, (I - K_beta) g_theta>_{L2(varpi)} ,

and the Poincare constant gamma_beta of the additive reversibilization of
K_beta = (1-beta) P (I - beta P)^{-1} yields
theta' A_bar theta <= -eps_P * theta' Sigma(0) theta with
eps_P = min over a beta grid of gamma_beta.  K_beta is one
``markov.resolvent_solve`` on P' per beta, the same route as the resolvent
sums of A_bar and b_bar; a Dirichlet report reads both M_beta and the gap
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSimple, SingularSystem
from .features import (BaselineMean, FeatureMap, autocorrelation, baseline_mean,
                       feature_mean, resolvent_sum)
from .markov import FiniteChain, discounted_q, guarded_solve, resolvent_solve

# Grid over which eps_P approximates inf{gamma_beta : 0 <= beta < 1}; the gap
# is continuous in beta so a coarse grid suffices.
EPS_P_BETA_GRID = tuple(np.round(np.arange(0.0, 1.0, 0.1), 10)) + (0.99,)

SIMPLE_TOL = 1e-8  # modulus separation eigen_perturbation calls a simple eigenvalue


@dataclass(frozen=True)
class MeanFlow:
    """Mean-flow data A_bar(lam; delta_r), b_bar, and stationary point."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    theta_star: np.ndarray | None

    @property
    def singular(self) -> bool:
        return self.theta_star is None


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    max_real_part: float
    condition_number: float
    hurwitz: bool


@dataclass(frozen=True)
class DirichletReport:
    m_beta: np.ndarray
    gap: float
    restricted_support: bool
    degenerate: bool


def mean_flow_td_lambda(chain: FiniteChain, psi: FeatureMap,
                        gamma: float, lam: float) -> np.ndarray:
    """A_bar(lam; 0) = -R(0) + (1-lam)*gamma * sum_k (lam*gamma)^k R(k+1).

    Valid for lam*gamma < 1; gamma = 1 is permitted when lam < 1 (used by
    the acceptance suite's eigen-perturbation check, criterion 10).
    """
    beta = lam * gamma
    if not 0.0 <= beta < 1.0:
        raise ValueError("lam*gamma must lie in [0, 1)")
    r0 = autocorrelation(chain, psi, 0)
    if (1.0 - lam) * gamma == 0.0:
        return -r0
    return -r0 + (1.0 - lam) * gamma * resolvent_sum(chain, psi, beta)


def b_bar(chain: FiniteChain, psi: FeatureMap, gamma: float, lam: float) -> np.ndarray:
    """b_bar = Psi' D (I - lam*gamma*P)^{-1} c; reduces to E[psi(Z) c(Z)] at lam = 0."""
    return psi.matrix.T @ (chain.stationary * discounted_q(chain, lam * gamma))


def mean_flow_relative(chain: FiniteChain, psi: FeatureMap, gamma: float,
                       lam: float, delta_r: float,
                       mu: BaselineMean | np.ndarray | None = None) -> MeanFlow:
    """Full mean flow of the relative update with baseline mu.

    ``mu`` defaults to the stationary pmf (psi_bar_mu = psi_bar) and is read
    only when delta_r != 0.  delta_r may be negative, as in the central
    differences of ``asymptotics``.  theta_star is left absent (the singular
    flag) when A_bar is numerically singular, as happens for gamma near 1,
    delta_r = 0 in the presence of a normalizing vector.
    """
    a = mean_flow_td_lambda(chain, psi, gamma, lam)
    if delta_r != 0.0:
        psi_bar = feature_mean(chain, psi)
        if mu is not None and not isinstance(mu, BaselineMean):
            mu = baseline_mean(np.asarray(mu, dtype=float), psi)
        psi_bar_mu = psi_bar if mu is None else mu.psi_bar_mu
        a = a - (delta_r / (1.0 - lam * gamma)) * np.outer(psi_bar, psi_bar_mu)
    b = b_bar(chain, psi, gamma, lam)
    try:
        theta_star = -guarded_solve(a, b, SingularSystem, "mean-flow matrix")
    except SingularSystem:
        theta_star = None
    return MeanFlow(a_bar=a, b_bar=b, theta_star=theta_star)


def spectral_report(a_bar: np.ndarray) -> SpectralReport:
    """Eigenvalues, max real part, 2-norm condition number, Hurwitz flag."""
    eig = np.linalg.eigvals(a_bar)
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    max_re = float(np.max(eig.real))
    sv = np.linalg.svd(a_bar, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return SpectralReport(eigenvalues=eig, max_real_part=max_re,
                          condition_number=cond, hurwitz=max_re < 0.0)


def _k_beta(p: np.ndarray, beta: float) -> np.ndarray:
    """K_beta = (1 - beta) P (I - beta P)^{-1}, transposed through ``resolvent_solve``."""
    return (1.0 - beta) * resolvent_solve(p.T, beta, p.T).T


def spectral_gap(k: np.ndarray, chain: FiniteChain) -> float:
    """1 - ||K|| with K restricted to the support of varpi, on mean-zero functions in L2(varpi).

    The support is closed, so K_beta restricted to it is the support chain's
    K_beta.  T = D^{1/2} K D^{-1/2} is symmetrized additively, (T + T')/2, and
    the invariant direction sqrt(varpi) is projected out before taking the
    norm; the absolute value keeps the gap in (0, 1] for aperiodic unichains.
    """
    support = chain.support
    sqrt_pi = np.sqrt(chain.stationary[support])
    t = (sqrt_pi[:, None] * k[np.ix_(support, support)]) / sqrt_pi[None, :]
    s_sym = 0.5 * (t + t.T)
    s_proj = s_sym - np.outer(sqrt_pi, sqrt_pi)
    eigs = np.linalg.eigvalsh(s_proj)
    return float(1.0 - np.max(np.abs(eigs)))


def eps_p(chain: FiniteChain) -> float:
    """eps_P: the least Poincare gap over EPS_P_BETA_GRID, a constant of (P, varpi)."""
    return min(spectral_gap(_k_beta(chain.transition, b), chain) for b in EPS_P_BETA_GRID)


def dirichlet_report(chain: FiniteChain, psi: FeatureMap, beta: float) -> DirichletReport:
    """M_beta and the Poincare gap of K_beta at beta in [0, 1); eps_p gives the grid minimum.

    The gap is spectral_gap's, on the support of varpi; ``restricted_support``
    records that states of zero stationary mass were left out.  ``degenerate``
    flags a gap at or below numerical zero, as produced by a periodic chain.
    One ``resolvent_solve`` gives K_beta, which serves both
    M_beta = R(0) - Psi' D K_beta Psi and the gap; at beta = 0 it is P, with
    no solve.
    """
    k = _k_beta(chain.transition, beta)
    d_psi = chain.stationary[:, None] * psi.matrix
    m_beta = autocorrelation(chain, psi, 0) - d_psi.T @ (k @ psi.matrix)
    gap = spectral_gap(k, chain)
    return DirichletReport(m_beta=m_beta, gap=gap,
                           restricted_support=len(chain.support) < chain.n_z,
                           degenerate=gap <= 1e-12)


def eigen_perturbation(a_matrix: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Real part of the derivative at t = 0 of the smallest-modulus eigenvalue of A + t v w'.

    Uses the general biorthogonal formula over the left/right eigenvectors
    of the tracked eigenvalue, (eta_L'v)(w'eta_R)/(eta_L'eta_R).  Requires
    that eigenvalue to be simple (second-smallest modulus separated by more
    than ``SIMPLE_TOL``).
    """
    a = np.asarray(a_matrix, dtype=float)
    eigvals, right = np.linalg.eig(a)
    order = np.argsort(np.abs(eigvals))
    if len(eigvals) > 1 and abs(abs(eigvals[order[1]]) - abs(eigvals[order[0]])) < SIMPLE_TOL:
        raise NotSimple("smallest-modulus eigenvalue is not numerically simple")
    k = order[0]
    eta_r = right[:, k]
    eigvals_l, left = np.linalg.eig(a.T)
    k_l = int(np.argmin(np.abs(eigvals_l - eigvals[k])))
    eta_l = left[:, k_l]
    denom = eta_l @ eta_r
    if abs(denom) < 1e-14:
        raise NotSimple("left/right eigenvectors are numerically orthogonal")
    general = (eta_l @ v) * (w @ eta_r) / denom
    return float(np.real(general))

