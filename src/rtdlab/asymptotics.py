"""Asymptotic covariance, bias, and baseline-weight sensitivity.

Everything here lives in the lam = 0 regime, where the driving Markov state
is the consecutive pair phi = (z, z') and the update is linear:

    f(theta, phi) = A(phi) theta + b(phi),
    A(phi) = psi(z)[-psi(z) + gamma psi(z')]'
             - delta_r psi_bar psi_bar'      (fixed_relative_td0)
             - delta_r psi(z) psi_bar'       (varpi_relative_td0)
    b(phi) = c(z) psi(z).

The noise covariance Sigma_Delta is the two-sided autocorrelation sum of the
stationary zero-mean sequence Delta_n = f(theta_star, Phi_n), and the optimal
asymptotic covariance is Sigma_theta = A_bar^{-1} Sigma_Delta A_bar^{-T}.
The asymptotic bias under step size alpha_n = n^{-rho} is
(1/(1-rho)) A_bar^{-1} Upsilon_bar with Upsilon_bar = E[(A - A_hat) Delta],
A_hat the matrix Poisson solution of (I - P_hat) A_hat = A - A_bar.

Per-state form.  Each pair function a report reads is
F(z, z') = psi(z) e(z, z') + kappa, with e an n_z x n_z scalar matrix.  The
noise has e = u(z) + gamma v(z'), v = Psi theta_star and u = c - v (less
delta_r s for varpi_relative_td0, s = psi_bar'theta_star), and
kappa = -delta_r s psi_bar for fixed_relative_td0 (0 otherwise).  So every
mean under the pair law varpi(z) P(z, z') is a product with P and
D = diag(varpi):

    E[F]     = m_F + kappa_F,    m_F = Psi' (varpi o (P o e_F) 1),
    E[F H']  = Psi' diag(varpi o (P o e_F o e_H) 1) Psi
               + m_F kappa_H' + kappa_F m_H' + kappa_F kappa_H',
    w_F(z')  = sum_z varpi(z) P(z, z') F(z, z') = (D P o e_F)' Psi + varpi kappa_F'.

Poisson route (Glynn & Meyn, 1996).  The pair kernel
P_hat[(z, z'), (y, y')] = 1{y = z'} P(z', y') maps any pair function to a
function of z' alone, so the centered pair Poisson solution of a zero-mean F
is F(z, z') + g(z'), g = Pi col_F, col_F = sum_y P(., y) F(., y), with
Pi = (I - P + 1 varpi')^{-1}(I - 1 varpi') the centered base Poisson
operator.  Likewise A_hat(z, z') = A(z, z') - A_bar + G(z') with G = Pi R_A,
where R_A = psi trail' up to a constant for A(x, y) = psi(x) a(x, y)' + K
and trail(x) = sum_y P(x, y) a(x, y).  So Sigma_Delta = E[Delta Delta']
+ w_Delta' g + g' w_Delta and Upsilon_bar = A_bar E[Delta] - sum_z' G(z')
w_Delta(z'): Pi meets w_Delta alone.  As w'Pi f = (Pi'w)'f, one adjoint solve
h = Pi'w_Delta (``markov.poisson_solve_adjoint``) gives

    Sigma_Delta = E[Delta Delta'] + h' col_Delta + col_Delta' h,
    Upsilon_bar = A_bar E[Delta] - Psi' rowsum(h o trail),

and the n_z x d^2 array G is never formed.  Pi'varpi = 0 and 1'h = 0 drop
the varpi kappa' part of w and the constant part of col.

A_bar, b_bar and theta_star are ``meanflow.mean_flow_relative`` at lam = 0,
A_bar(0; 0) - delta_r psi_bar psi_bar' with b_bar = Psi' D c, for every
noise model and either sign of delta_r.  ``asymptotics_report`` makes one
adjoint solve of d columns and ``sensitivity`` one of 2d.  cond(A_bar) is
checked once for the two solves on A_bar (theta_star and the inverse).  A
report holds O(n_z^2 + n_z d) floats, so a tabular basis (d = n_z) runs at
hundreds of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonZeroMean, SingularSystem
from .features import FeatureMap, feature_mean
from .markov import FiniteChain, poisson_solve_adjoint
from .meanflow import mean_flow_relative

VARIANT_TD0 = "td0"
# baseline applied as the deterministic matrix -delta_r psi_bar psi_bar'
VARIANT_FIXED_RELATIVE = "fixed_relative_td0"
# baseline applied through the temporal-difference scalar: the correction
# rides the update direction psi(z), as in the adaptive algorithm once its
# baseline estimate has converged
VARIANT_VARPI_LIMIT = "varpi_relative_td0"

# learner variant (``learner.VARIANTS``) -> noise model of its lam = 0 update
NOISE_VARIANTS = {
    "td": VARIANT_TD0,
    "relative_fixed_mu": VARIANT_VARPI_LIMIT,
    "varpi_relative": VARIANT_VARPI_LIMIT,
    "varpi_relative_fixed": VARIANT_FIXED_RELATIVE,
}


@dataclass(frozen=True)
class AsymptoticsReport:
    """Exact asymptotics of one noise model (``variant`` at ``delta_r``)."""

    sigma_delta: np.ndarray
    sigma_theta_star: np.ndarray
    bias: np.ndarray
    upsilon_bar: np.ndarray
    theta_star: np.ndarray
    rho: float
    variant: str
    delta_r: float


@dataclass(frozen=True)
class SensitivityReport:
    """Derivatives in the baseline weight at delta_r = 0 (fixed variant).

    ``d_sigma`` and ``d_bias`` carry the full derivatives, with the noise
    terms ``sigma_delta_prime`` and ``upsilon_bar_prime`` evaluated exactly
    (they do not vanish: the stationary point moves with delta_r, dragging
    the stationary noise law along).  ``d_sigma_frozen_noise`` and
    ``d_bias_frozen_noise`` are the values obtained by forcing those noise
    derivatives to zero, kept for comparison.  ``a_inv_prime_outer_residual``
    is the max-norm gap between (A_bar^{-1})' and the outer product
    phi_bar phi_bar' with phi_bar = A_bar^{-1} psi_bar, which coincide only
    for symmetric A_bar.
    """

    d_theta_star: np.ndarray
    d_a_bar: np.ndarray
    d_a_inv: np.ndarray
    d_sigma: np.ndarray
    d_bias: np.ndarray
    sigma_delta_prime: np.ndarray
    upsilon_bar_prime: np.ndarray
    d_sigma_frozen_noise: np.ndarray
    d_bias_frozen_noise: np.ndarray
    a_inv_prime_outer_residual: float


def _scale(x: np.ndarray) -> float:
    """max(1, max|x|), the reference size of tolerances on cost-scaled values."""
    return max(1.0, float(np.max(np.abs(x))))


def noise_variant(variant: str, delta_r: float) -> tuple[str, float]:
    """The noise model and baseline weight that describe learner ``variant``.

    ``td``, and any variant at delta_r = 0, is plain TD(0) at delta_r = 0.
    ``varpi_relative_fixed`` applies the baseline as a deterministic matrix
    (``fixed_relative_td0``); ``varpi_relative`` carries it inside the
    temporal-difference scalar (``varpi_relative_td0``).  So does
    ``relative_fixed_mu``, whose update is that same model when its baseline
    mu is the stationary pmf, as the command line runs it.
    """
    if variant not in NOISE_VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if NOISE_VARIANTS[variant] == VARIANT_TD0 or delta_r == 0.0:
        return VARIANT_TD0, 0.0
    return NOISE_VARIANTS[variant], delta_r


@dataclass(frozen=True)
class _PairTerm:
    """F(z, z') = psi(z) e(z, z') + kappa with its pair-law sums (module docstring).

    ``mean`` is E[F], ``col`` = Psi o (P o e) 1, the psi(z) e part of
    sum_y P(., y) F(., y), and ``w`` = (D P o e)' Psi, the psi(z) e part of
    sum_z varpi(z) P(z, .) F(z, .).  The kappa parts, a constant in col and
    varpi kappa' in w, vanish against Pi (module docstring).
    """

    e: np.ndarray
    kappa: np.ndarray
    mean: np.ndarray
    col: np.ndarray
    w: np.ndarray


def _pair_term(chain: FiniteChain, mat: np.ndarray, e: np.ndarray,
               kappa: np.ndarray) -> _PairTerm:
    weighted = chain.stationary[:, None] * chain.transition * e   # D P o e
    rows = np.einsum("zy,zy->z", chain.transition, e)
    return _PairTerm(e=e, kappa=kappa, mean=mat.T @ weighted.sum(axis=1) + kappa,
                     col=mat * rows[:, None], w=weighted.T @ mat)


def _second_moment(chain: FiniteChain, mat: np.ndarray, f: _PairTerm,
                   h: _PairTerm) -> np.ndarray:
    """E[F H'] under the pair law."""
    diag = np.einsum("z,zy,zy,zy->z", chain.stationary, chain.transition, f.e, h.e)
    m_f, m_h = f.mean - f.kappa, h.mean - h.kappa
    return ((mat * diag[:, None]).T @ mat + np.outer(m_f, h.kappa)
            + np.outer(f.kappa, m_h) + np.outer(f.kappa, h.kappa))


def _pre_solve(chain: FiniteChain, psi: FeatureMap, gamma: float, delta_r: float,
               variant: str, rho: float) -> tuple:
    """(A_bar, A_bar^{-1}, theta_star, trail, Delta): ``variant``'s report before its solve."""
    if not 0.5 < rho < 1.0:
        raise ConfigError("rho must lie in (1/2, 1)")
    if variant not in (VARIANT_TD0, VARIANT_FIXED_RELATIVE, VARIANT_VARPI_LIMIT):
        raise ConfigError(f"unknown noise model {variant!r}")
    if variant == VARIANT_TD0 and delta_r != 0.0:
        raise ConfigError(f"noise model td0 requires delta_r = 0, got {delta_r}")
    flow = mean_flow_relative(chain, psi, gamma, 0.0, delta_r)
    if flow.singular:
        raise SingularSystem("mean-flow matrix is numerically singular")
    a_bar, b, theta_star = flow.a_bar, flow.b_bar, flow.theta_star
    mat = psi.matrix
    # mean_flow_relative has checked cond(A_bar)
    a_inv = np.linalg.solve(a_bar, np.eye(psi.dim))
    psi_bar = feature_mean(chain, psi)
    v = mat @ theta_star
    s = float(psi_bar @ theta_star)
    u = chain.cost_vec - v
    # trail = sum_y P(., y) a(., y) for A(x, y) = psi(x) a(x, y)' + K (module docstring)
    trail = gamma * (chain.transition @ mat) - mat
    kappa = np.zeros(psi.dim)
    if variant == VARIANT_FIXED_RELATIVE:
        kappa = -delta_r * s * psi_bar
    elif variant == VARIANT_VARPI_LIMIT:
        u = u - delta_r * s
        trail = trail - delta_r * psi_bar
    delta = _pair_term(chain, mat, u[:, None] + gamma * v[None, :], kappa)
    mean = float(np.max(np.abs(delta.mean)))
    if mean > 1e-8 * _scale(b):
        raise NonZeroMean(f"Delta has stationary mean {mean:.3e}")
    return a_bar, a_inv, theta_star, trail, delta


def _report(chain: FiniteChain, mat: np.ndarray, pre: tuple, h: np.ndarray,
            variant: str, delta_r: float, rho: float) -> AsymptoticsReport:
    """The report from ``_pre_solve``'s pieces and h = Pi' w_Delta."""
    a_bar, a_inv, theta_star, trail, delta = pre
    half = 0.5 * _second_moment(chain, mat, delta, delta) + h.T @ delta.col
    sig_d = half + half.T
    ups = a_bar @ delta.mean - mat.T @ np.einsum("zj,zj->z", h, trail)
    return AsymptoticsReport(
        sigma_delta=sig_d, sigma_theta_star=a_inv @ sig_d @ a_inv.T,
        bias=a_inv @ ups / (1.0 - rho), upsilon_bar=ups, theta_star=theta_star,
        rho=rho, variant=variant, delta_r=delta_r)


def asymptotics_report(chain: FiniteChain, psi: FeatureMap, gamma: float,
                       delta_r: float, rho: float,
                       variant: str = VARIANT_FIXED_RELATIVE) -> AsymptoticsReport:
    """One-stop exact report of noise model ``variant`` at ``delta_r``."""
    pre = _pre_solve(chain, psi, gamma, delta_r, variant, rho)
    h = poisson_solve_adjoint(chain, pre[4].w)
    return _report(chain, psi.matrix, pre, h, variant, delta_r, rho)


def sensitivity(chain: FiniteChain, psi: FeatureMap, gamma: float,
                rho: float) -> SensitivityReport:
    """Closed-form derivatives at delta_r = 0 for the fixed relative variant.

    Base quantities are those of plain one-step TD.  With s = psi_bar'theta_star
    and phi_bar = A_bar^{-1} psi_bar:

        A_bar'        = -psi_bar psi_bar'
        (A_bar^{-1})' = -A_bar^{-1} A_bar' A_bar^{-1}
        theta_star'   = -A_bar^{-1} A_bar' theta_star = s phi_bar
        Delta'(phi)   = s (A(phi) - A_bar) phi_bar
                      = psi(z) s (gamma q(z') - q(z)) - s A_bar phi_bar,  q = Psi phi_bar.

    Sigma_Delta' follows by differentiating the Poisson representation of the
    two-sided sum (the derivative H_hat' solves the same Poisson system with
    input Delta'), and Upsilon_bar' = E[(A - A_hat) Delta'].  Delta' needs
    only phi_bar and theta_star, so one solve gives h = Pi'w_Delta and
    h_F = Pi'w_F, F = Delta'.  Delta' = s (A - A_bar) phi_bar has the base
    Poisson solution g' = s G phi_bar, so w_Delta'g' = s h'(Psi o (trail phi_bar)):

        Sigma_Delta' = M + M',  M = E[F Delta'] + h_F' col_Delta + w_Delta' g',
        Upsilon_bar' = A_bar E[F] - Psi' rowsum(h_F o trail).

    The covariance and bias derivatives are then

        Sigma_theta' = A_bar^{-1} Sigma_Delta' A_bar^{-T}
                       - A_bar^{-1} A_bar' Sigma_theta - [A_bar^{-1} A_bar' Sigma_theta]'
        bias'        = A_bar^{-1} [ -A_bar' bias + Upsilon_bar'/(1 - rho) ].
    """
    mat = psi.matrix
    psi_bar = feature_mean(chain, psi)
    a_bar, a_inv, theta_star, trail, delta = pre = _pre_solve(chain, psi, gamma, 0.0,
                                                              VARIANT_TD0, rho)
    d_a_bar = -np.outer(psi_bar, psi_bar)
    d_a_inv = -a_inv @ d_a_bar @ a_inv
    d_theta = -a_inv @ d_a_bar @ theta_star
    phi_bar = a_inv @ psi_bar
    outer_residual = float(np.max(np.abs(d_a_inv - np.outer(phi_bar, phi_bar))))

    s = float(psi_bar @ theta_star)
    q = mat @ phi_bar
    delta_prime = _pair_term(chain, mat, s * (gamma * q[None, :] - q[:, None]),
                             -s * (a_bar @ phi_bar))
    h, h_prime = np.hsplit(poisson_solve_adjoint(chain, np.hstack([delta.w, delta_prime.w])), 2)
    base = _report(chain, mat, pre, h, VARIANT_TD0, 0.0, rho)
    half = (_second_moment(chain, mat, delta_prime, delta)
            + h_prime.T @ delta.col + s * h.T @ (mat * (trail @ phi_bar)[:, None]))
    sig_d_prime = half + half.T
    ups_prime = a_bar @ delta_prime.mean - mat.T @ np.einsum("zj,zj->z", h_prime, trail)

    correction = a_inv @ d_a_bar @ base.sigma_theta_star
    d_sigma = a_inv @ sig_d_prime @ a_inv.T - correction - correction.T
    d_sigma_frozen = -correction - correction.T
    d_bias = a_inv @ (-d_a_bar @ base.bias + ups_prime / (1.0 - rho))
    d_bias_frozen = a_inv @ (-d_a_bar @ base.bias)

    return SensitivityReport(
        d_theta_star=d_theta, d_a_bar=d_a_bar, d_a_inv=d_a_inv, d_sigma=d_sigma, d_bias=d_bias,
        sigma_delta_prime=sig_d_prime, upsilon_bar_prime=ups_prime,
        d_sigma_frozen_noise=d_sigma_frozen, d_bias_frozen_noise=d_bias_frozen,
        a_inv_prime_outer_residual=outer_residual)
