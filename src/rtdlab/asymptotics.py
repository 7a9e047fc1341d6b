"""Asymptotic covariance, bias, and baseline-weight sensitivity.

Everything here lives in the lam = 0 regime, where the driving Markov state
is the consecutive pair phi = (z, z') and the update is linear:

    f(theta, phi) = A(phi) theta + b(phi),
    A(phi) = psi(z)[-psi(z) + gamma psi(z')]'
             - delta_r psi_bar psi_bar'      (fixed_relative_td0)
             - delta_r psi(z) psi_bar'       (varpi_relative_td0)
    b(phi) = c(z) psi(z).

The noise covariance Sigma_Delta is the two-sided autocorrelation sum of the
stationary zero-mean sequence Delta_n = f(theta_star, Phi_n), evaluated
exactly through the Poisson equation of the pair process, and the optimal
asymptotic covariance is Sigma_theta = A_bar^{-1} Sigma_Delta A_bar^{-T}.
The asymptotic bias under step size alpha_n = n^{-rho} is
(1/(1-rho)) A_bar^{-1} Upsilon_bar with
Upsilon_bar = E[(A - A_hat)(A theta_star + b)], A_hat the matrix Poisson
solution of (I - P_hat) A_hat = A - A_bar.

Each pair Poisson equation (I - P_hat) H = F - E[F] is solved on the base
chain.  The pair kernel P_hat[(z, z'), (y, y')] = 1{y = z'} P(z', y') maps H
to a function of z' alone, so the centered solution splits as

    H(z, z') = F_c(z, z') + g(z'),    F_c = F - E[F],
    (I - P) g = sum_y P(., y) F_c(., y),    varpi'g = 0,

one n_z x n_z solve whose g also centers H under the pair law
varpi(z) P(z, z').  Pair functions are stored with one row per pair,
flattened as z * n_z + z'.

A report (``asymptotics_report``, ``sensitivity``) makes one such solve,
stacked over the columns [Delta | A - A_bar], and inverts A_bar once for
both Sigma_theta and the bias.  It keeps no per-pair array.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonZeroMean, RtdLabError, SingularSystem
from .features import FeatureMap, feature_mean
from .markov import FiniteChain, guarded_solve, poisson_solve_columns
from .meanflow import b_bar as mean_b_bar

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
class NoiseModel:
    """Pair-state coefficients of the linear update and their steady means."""

    a_of_phi: np.ndarray      # (n_pair, d, d)
    b_of_phi: np.ndarray      # (n_pair, d)
    theta_star: np.ndarray
    a_bar: np.ndarray
    b_bar: np.ndarray
    delta_r: float
    variant: str

    @property
    def delta_of_phi(self) -> np.ndarray:
        """Stationary noise Delta(phi) = A(phi) theta_star + b(phi)."""
        return self.a_of_phi @ self.theta_star + self.b_of_phi


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


def _pair_law(chain: FiniteChain) -> np.ndarray:
    """Stationary law varpi(z) P(z, z') of the pair (Z_n, Z_{n+1})."""
    return (chain.stationary[:, None] * chain.transition).reshape(-1)


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


def build_noise_model(chain: FiniteChain, psi: FeatureMap, gamma: float,
                      delta_r: float, variant: str = VARIANT_TD0) -> NoiseModel:
    """Per-pair A(phi), b(phi) and the stationary point theta_star at lam = 0."""
    if variant not in (VARIANT_TD0, VARIANT_FIXED_RELATIVE, VARIANT_VARPI_LIMIT):
        raise ConfigError(f"unknown noise model {variant!r}")
    if variant == VARIANT_TD0 and delta_r != 0.0:
        raise ConfigError(f"noise model td0 requires delta_r = 0, got {delta_r}")
    n = chain.n_z
    mat = psi.matrix
    # A[(z, z')] = psi(z) (-psi(z) + gamma psi(z'))'
    a = (mat[:, None, :, None] * (-mat[:, None, None, :] + gamma * mat[None, :, None, :]))
    a = a.reshape(n * n, psi.dim, psi.dim)
    if variant == VARIANT_FIXED_RELATIVE:
        psi_bar = feature_mean(chain, psi)
        a = a - delta_r * np.outer(psi_bar, psi_bar)[None, :, :]
    elif variant == VARIANT_VARPI_LIMIT:
        psi_bar = feature_mean(chain, psi)
        # correction -delta_r psi(z) psi_bar' theta rides the update direction
        lead = np.repeat(mat, n, axis=0)  # psi(z) per pair (z, z')
        a = a - delta_r * lead[:, :, None] * psi_bar[None, None, :]
    b = np.broadcast_to((chain.cost_vec[:, None] * mat)[:, None, :],
                        (n, n, psi.dim)).reshape(n * n, psi.dim)
    pi_hat = _pair_law(chain)
    a_bar = np.einsum("p,pij->ij", pi_hat, a)
    b_mean = pi_hat @ b
    b_exact = mean_b_bar(chain, psi, gamma, 0.0)
    if np.max(np.abs(b_mean - b_exact)) > 1e-10 * _scale(b_exact):
        raise RtdLabError("pair-averaged b disagrees with closed form")
    theta_star = -guarded_solve(a_bar, b_mean, SingularSystem, "mean-flow matrix")
    return NoiseModel(a_of_phi=a, b_of_phi=b, theta_star=theta_star,
                      a_bar=a_bar, b_bar=b_mean, delta_r=delta_r, variant=variant)


def _pair_poisson(chain: FiniteChain, f: np.ndarray) -> np.ndarray:
    """Centered solution H of (I - P_hat) H = F - E[F], column by column.

    Solved on the base chain through the split in the module docstring.
    """
    n = chain.n_z
    f_c = (f - _pair_law(chain) @ f).reshape(n, n, -1)
    g = poisson_solve_columns(chain, np.einsum("zy,zyk->zk", chain.transition, f_c))
    return (f_c + g[None, :, :]).reshape(n * n, -1)


def _check_plugback(chain: FiniteChain, rhs: np.ndarray, h: np.ndarray) -> None:
    """Raise unless (I - P_hat) h = rhs - E[rhs] within 1e-9.

    P_hat is applied without forming it: (P_hat h)(z, z') = sum_y P(z', y) h(z', y).
    """
    n = chain.n_z
    h3 = h.reshape(n, n, -1)
    p_hat_h = np.einsum("zy,zyk->zk", chain.transition, h3)[None, :, :]
    resid = rhs - _pair_law(chain) @ rhs - (h3 - p_hat_h).reshape(n * n, -1)
    if np.max(np.abs(resid)) > 1e-9:
        raise SingularSystem("matrix Poisson plug-back residual too large")


def _sigma_from(noise: NoiseModel, chain: FiniteChain, h_hat: np.ndarray) -> np.ndarray:
    """Sigma_Delta from H_hat, the centered Poisson solution for Delta."""
    delta = noise.delta_of_phi
    w = _pair_law(chain)[:, None] * delta
    mean = float(np.max(np.abs(w.sum(axis=0))))
    if mean > 1e-8 * _scale(noise.b_bar):
        raise NonZeroMean(f"Delta has stationary mean {mean:.3e}")
    cross = w.T @ h_hat
    sig = cross + cross.T - w.T @ delta
    return 0.5 * (sig + sig.T)


def _exact(noise: NoiseModel, chain: FiniteChain, rho: float,
           extra: Callable[[np.ndarray], np.ndarray] | None = None) -> tuple:
    """The report of ``noise``, with A_bar^{-1}, H_hat, A_hat and H_F.

    The pair Poisson solutions of [Delta | A - A_bar | F] are H_hat, A_hat
    (shaped (n_pair, d, d)) and H_F, where the columns F = ``extra(A_bar^{-1})``
    are optional.  Sigma_Delta = E[Delta H_hat'] + E[H_hat Delta'] - E[Delta Delta']
    (symmetrized), Upsilon_bar = E[(A - A_hat) Delta], Sigma_theta =
    A_bar^{-1} Sigma_Delta A_bar^{-T} and bias = (1/(1-rho)) A_bar^{-1} Upsilon_bar.
    """
    if not 0.5 < rho < 1.0:
        raise ConfigError("rho must lie in (1/2, 1)")
    n_pair, d, _ = noise.a_of_phi.shape
    a_inv = guarded_solve(noise.a_bar, np.eye(d), SingularSystem, "A_bar")
    delta = noise.delta_of_phi
    a_dev = (noise.a_of_phi - noise.a_bar).reshape(n_pair, d * d)
    cols = [delta, a_dev] if extra is None else [delta, a_dev, extra(a_inv)]
    h = _pair_poisson(chain, np.hstack(cols))
    _check_plugback(chain, a_dev, h[:, d:d + d * d])
    h_hat, a_hat = h[:, :d], h[:, d:d + d * d].reshape(n_pair, d, d)
    sig_d = _sigma_from(noise, chain, h_hat)
    ups = np.einsum("p,pij,pj->i", _pair_law(chain), noise.a_of_phi - a_hat, delta)
    report = AsymptoticsReport(
        sigma_delta=sig_d, sigma_theta_star=a_inv @ sig_d @ a_inv.T,
        bias=a_inv @ ups / (1.0 - rho), upsilon_bar=ups, theta_star=noise.theta_star,
        rho=rho, variant=noise.variant, delta_r=noise.delta_r)
    return report, a_inv, h_hat, a_hat, h[:, d + d * d:]


def asymptotics_report(chain: FiniteChain, psi: FeatureMap, gamma: float,
                       delta_r: float, rho: float,
                       variant: str = VARIANT_FIXED_RELATIVE) -> AsymptoticsReport:
    """One-stop exact report of noise model ``variant`` at ``delta_r``."""
    return _exact(build_noise_model(chain, psi, gamma, delta_r, variant), chain, rho)[0]


def sensitivity(chain: FiniteChain, psi: FeatureMap, gamma: float,
                rho: float) -> SensitivityReport:
    """Closed-form derivatives at delta_r = 0 for the fixed relative variant.

    Base quantities are those of plain one-step TD.  With s = psi_bar'theta_star
    and phi_bar = A_bar^{-1} psi_bar:

        A_bar'        = -psi_bar psi_bar'
        (A_bar^{-1})' = -A_bar^{-1} A_bar' A_bar^{-1}
        theta_star'   = -A_bar^{-1} A_bar' theta_star = s phi_bar
        Delta'(phi)   = s (A(phi) - A_bar) phi_bar

    Sigma_Delta' follows by differentiating the Poisson representation of the
    two-sided sum (the derivative H_hat' solves the same Poisson system with
    input Delta'), and Upsilon_bar' = E[(A - A_hat) Delta'].  Delta' rides the
    base report's pair Poisson solve as its extra columns, and A_bar^{-1} is
    the report's inverse.  The covariance and bias derivatives are then

        Sigma_theta' = A_bar^{-1} Sigma_Delta' A_bar^{-T}
                       - A_bar^{-1} A_bar' Sigma_theta - [A_bar^{-1} A_bar' Sigma_theta]'
        bias'        = A_bar^{-1} [ -A_bar' bias + Upsilon_bar'/(1 - rho) ].
    """
    noise = build_noise_model(chain, psi, gamma, 0.0, VARIANT_TD0)
    psi_bar = feature_mean(chain, psi)
    s = float(psi_bar @ noise.theta_star)

    def delta_prime_of(a_inv):
        return s * ((noise.a_of_phi - noise.a_bar) @ (a_inv @ psi_bar))

    base, a_inv, h_hat, a_hat, h_hat_prime = _exact(noise, chain, rho, delta_prime_of)
    delta_prime = delta_prime_of(a_inv)
    d_a_bar = -np.outer(psi_bar, psi_bar)
    d_a_inv = -a_inv @ d_a_bar @ a_inv
    d_theta = -a_inv @ d_a_bar @ noise.theta_star
    phi_bar = a_inv @ psi_bar
    outer_residual = float(np.max(np.abs(d_a_inv - np.outer(phi_bar, phi_bar))))

    delta = noise.delta_of_phi
    w = _pair_law(chain)
    cross = (w[:, None] * delta_prime).T @ h_hat + (w[:, None] * delta).T @ h_hat_prime
    r0_prime = (w[:, None] * delta_prime).T @ delta
    sig_d_prime = cross + cross.T - (r0_prime + r0_prime.T)
    ups_prime = np.einsum("p,pij,pj->i", w, noise.a_of_phi - a_hat, delta_prime)

    correction = a_inv @ d_a_bar @ base.sigma_theta_star
    d_sigma = a_inv @ sig_d_prime @ a_inv.T - correction - correction.T
    d_sigma_frozen = -correction - correction.T
    d_bias = a_inv @ (-d_a_bar @ base.bias + ups_prime / (1.0 - rho))
    d_bias_frozen = a_inv @ (-d_a_bar @ base.bias)

    return SensitivityReport(
        d_theta_star=d_theta, d_a_bar=d_a_bar, d_a_inv=d_a_inv,
        d_sigma=d_sigma, d_bias=d_bias,
        sigma_delta_prime=sig_d_prime, upsilon_bar_prime=ups_prime,
        d_sigma_frozen_noise=d_sigma_frozen, d_bias_frozen_noise=d_bias_frozen,
        a_inv_prime_outer_residual=outer_residual,
    )
