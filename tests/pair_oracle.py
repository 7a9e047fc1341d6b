"""Pair-chain oracles for the noise and bias analysis.

rtdlab evaluates every pair expectation of the process (Z_n, Z_{n+1}) in
per-state form on the base chain, pairing Poisson solutions through one
adjoint solve h = Pi'w.  The tests check it against three routes kept here:

- the n_z^2-state pair chain with its dense kernel and fundamental matrix,
  which costs n_z^4 memory and so serves small chains only;
- the pair-array route (``exact``, ``exact_sensitivity``): the (n_z^2, d, d)
  coefficient table of ``build_noise_model``, averaged under the pair law,
  with each pair Poisson equation split into the centered input plus one
  base-chain solve in z'.  It costs n_z^2 d^2 memory, so it also checks
  chains of a few hundred states;
- the forward base-chain route (``forward_exact``): one forward solve over
  [col_Delta | R_A] gives g and the (n_z, d, d) matrix Poisson solution G,
  so A_hat(z, z') = A(z, z') - A_bar + G(z') (``a_hat_from``).  It costs
  n_z d^2 memory, and it checks the adjoint route's pairings term by term.

``build_noise_model`` tabulates A(phi) and b(phi) per pair straight from the
update rule.  Its A_bar, b_bar and theta_star are the reports' own
(``meanflow.mean_flow_relative`` at lam = 0), so the table's pair-law means
can be checked against them.
"""

from dataclasses import dataclass

import numpy as np

from rtdlab.asymptotics import (VARIANT_FIXED_RELATIVE, VARIANT_TD0, VARIANT_VARPI_LIMIT,
                                AsymptoticsReport, _pre_solve, _second_moment)
from rtdlab.features import FeatureMap, feature_mean
from rtdlab.markov import FiniteChain
from rtdlab.meanflow import mean_flow_relative

from chain_helpers import poisson_solve_columns


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


def build_noise_model(chain: FiniteChain, psi: FeatureMap, gamma: float,
                      delta_r: float, variant: str = VARIANT_TD0) -> NoiseModel:
    """Per-pair A(phi), b(phi) at lam = 0, with the reports' A_bar, b_bar and theta_star.

    The table holds n_z^2 d^2 floats; it serves tests and small chains.
    """
    flow = mean_flow_relative(chain, psi, gamma, 0.0, delta_r)
    a_bar, b_bar, theta_star = flow.a_bar, flow.b_bar, flow.theta_star
    n = chain.n_z
    mat = psi.matrix
    # A[(z, z')] = psi(z) (-psi(z) + gamma psi(z'))'
    a = (mat[:, None, :, None] * (-mat[:, None, None, :] + gamma * mat[None, :, None, :]))
    a = a.reshape(n * n, psi.dim, psi.dim)
    psi_bar = feature_mean(chain, psi)
    if variant == VARIANT_FIXED_RELATIVE:
        a = a - delta_r * np.outer(psi_bar, psi_bar)[None, :, :]
    elif variant == VARIANT_VARPI_LIMIT:
        # correction -delta_r psi(z) psi_bar' theta rides the update direction
        lead = np.repeat(mat, n, axis=0)  # psi(z) per pair (z, z')
        a = a - delta_r * lead[:, :, None] * psi_bar[None, None, :]
    b = np.broadcast_to((chain.cost_vec[:, None] * mat)[:, None, :],
                        (n, n, psi.dim)).reshape(n * n, psi.dim)
    return NoiseModel(a_of_phi=a, b_of_phi=b, theta_star=theta_star,
                      a_bar=a_bar, b_bar=b_bar, delta_r=delta_r, variant=variant)


def pair_chain(chain: FiniteChain) -> FiniteChain:
    """Chain on consecutive pairs (z, z'), flattened as z * n_z + z'.

    Kernel: Phat[(z, z'), (y, y')] = 1{y = z'} P(z', y').  Stationary:
    varpi_hat(z, z') = varpi(z) P(z, z').  Pairs of zero mass are kept, so
    the dimension does not depend on the policy.
    """
    n = chain.n_z
    p = chain.transition
    phat4 = np.zeros((n, n, n, n))
    idx = np.arange(n)
    phat4[:, idx, idx, :] = p[idx, :]
    pi_hat = (chain.stationary[:, None] * p).reshape(n * n)
    return FiniteChain(transition=phat4.reshape(n * n, n * n),
                       cost_vec=np.repeat(chain.cost_vec, n), stationary=pi_hat)


def pair_poisson(pair: FiniteChain, f: np.ndarray) -> np.ndarray:
    """Centered Poisson solution through the pair chain's fundamental matrix."""
    n = pair.n_z
    fund = np.linalg.inv(np.eye(n) - pair.transition + np.outer(np.ones(n), pair.stationary))
    return fund @ (f - pair.stationary @ f)


def sigma_delta(noise, pair: FiniteChain) -> np.ndarray:
    delta = noise.delta_of_phi
    w = pair.stationary[:, None] * delta
    cross = w.T @ pair_poisson(pair, delta)
    sig = cross + cross.T - w.T @ delta
    return 0.5 * (sig + sig.T)


def matrix_poisson(noise, pair: FiniteChain) -> np.ndarray:
    n_pair, d, _ = noise.a_of_phi.shape
    rhs = (noise.a_of_phi - noise.a_bar).reshape(n_pair, d * d)
    return pair_poisson(pair, rhs).reshape(n_pair, d, d)


def upsilon_bar(noise, pair: FiniteChain) -> np.ndarray:
    return np.einsum("p,pij,pj->i", pair.stationary,
                     noise.a_of_phi - matrix_poisson(noise, pair), noise.delta_of_phi)


def sensitivity(chain: FiniteChain, psi, gamma: float, rho: float):
    """(d_sigma, d_bias) of the fixed relative variant at delta_r = 0."""
    pair = pair_chain(chain)
    noise = build_noise_model(chain, psi, gamma, 0.0, VARIANT_TD0)
    a_inv = np.linalg.inv(noise.a_bar)
    psi_bar = feature_mean(chain, psi)
    d_a_bar = -np.outer(psi_bar, psi_bar)
    phi_bar = a_inv @ psi_bar
    delta = noise.delta_of_phi
    delta_prime = float(psi_bar @ noise.theta_star) * ((noise.a_of_phi - noise.a_bar) @ phi_bar)
    w = pair.stationary[:, None]
    cross = ((w * delta_prime).T @ pair_poisson(pair, delta)
             + (w * delta).T @ pair_poisson(pair, delta_prime))
    r0_prime = (w * delta_prime).T @ delta
    sig_d_prime = cross + cross.T - (r0_prime + r0_prime.T)
    sig_t = a_inv @ sigma_delta(noise, pair) @ a_inv.T
    a_hat = matrix_poisson(noise, pair)
    bias = a_inv @ upsilon_bar(noise, pair) / (1.0 - rho)
    ups_prime = np.einsum("p,pij,pj->i", pair.stationary, noise.a_of_phi - a_hat, delta_prime)
    correction = a_inv @ d_a_bar @ sig_t
    d_sigma = a_inv @ sig_d_prime @ a_inv.T - correction - correction.T
    d_bias = a_inv @ (-d_a_bar @ bias + ups_prime / (1.0 - rho))
    return d_sigma, d_bias


def asymptotics(noise, pair: FiniteChain, rho: float) -> dict:
    """The fields of an exact report, with A_bar and b_bar averaged under the pair law."""
    a_inv = np.linalg.inv(np.einsum("p,pij->ij", pair.stationary, noise.a_of_phi))
    sig_d = sigma_delta(noise, pair)
    ups = upsilon_bar(noise, pair)
    return {"theta_star": -a_inv @ (pair.stationary @ noise.b_of_phi),
            "sigma_delta": sig_d, "sigma_theta_star": a_inv @ sig_d @ a_inv.T,
            "upsilon_bar": ups, "bias": a_inv @ ups / (1.0 - rho)}


def pair_law(chain: FiniteChain) -> np.ndarray:
    """Stationary law varpi(z) P(z, z') of the pair (Z_n, Z_{n+1})."""
    return (chain.stationary[:, None] * chain.transition).reshape(-1)


def split_poisson(chain: FiniteChain, f: np.ndarray) -> np.ndarray:
    """Centered pair Poisson solution H = F_c + g(z') of each column of F.

    F_c = F - E[F] and (I - P) g = sum_y P(., y) F_c(., y), varpi'g = 0.
    """
    n = chain.n_z
    f_c = (f - pair_law(chain) @ f).reshape(n, n, -1)
    g = poisson_solve_columns(chain, np.einsum("zy,zyk->zk", chain.transition, f_c))
    return (f_c + g[None, :, :]).reshape(n * n, -1)


def plugback_residual(chain: FiniteChain, rhs: np.ndarray, h: np.ndarray) -> float:
    """max |(I - P_hat) h - (rhs - E[rhs])|, with P_hat applied without forming it."""
    n = chain.n_z
    h3 = h.reshape(n, n, -1)
    p_hat_h = np.einsum("zy,zyk->zk", chain.transition, h3)[None, :, :]
    resid = rhs - pair_law(chain) @ rhs - (h3 - p_hat_h).reshape(n * n, -1)
    return float(np.max(np.abs(resid)))


def exact(noise, chain: FiniteChain, rho: float, extra=None) -> tuple:
    """Report fields of ``noise`` from its pair arrays alone, with A_bar^{-1}, A_hat and H_F.

    A_bar, b_bar and theta_star are averaged under the pair law.  The pair
    Poisson solutions of [Delta | A - A_bar | F] are H_hat, A_hat (shaped
    (n_pair, d, d)) and H_F, where the columns F = ``extra(A_bar, A_bar^{-1},
    theta_star)`` are optional.  Sigma_Delta = E[Delta H_hat'] + E[H_hat Delta']
    - E[Delta Delta'] (symmetrized) and Upsilon_bar = E[(A - A_hat) Delta].
    """
    n_pair, d, _ = noise.a_of_phi.shape
    w = pair_law(chain)
    a_bar = np.einsum("p,pij->ij", w, noise.a_of_phi)
    a_inv = np.linalg.inv(a_bar)
    theta = -np.linalg.solve(a_bar, w @ noise.b_of_phi)
    delta = noise.a_of_phi @ theta + noise.b_of_phi
    a_dev = (noise.a_of_phi - a_bar).reshape(n_pair, d * d)
    cols = [delta, a_dev] if extra is None else [delta, a_dev, extra(a_bar, a_inv, theta)]
    h = split_poisson(chain, np.hstack(cols))
    assert plugback_residual(chain, a_dev, h[:, d:d + d * d]) < 1e-9
    h_hat, a_hat = h[:, :d], h[:, d:d + d * d].reshape(n_pair, d, d)
    cross = (w[:, None] * delta).T @ h_hat
    sig = cross + cross.T - (w[:, None] * delta).T @ delta
    sig_d = 0.5 * (sig + sig.T)
    ups = np.einsum("p,pij,pj->i", w, noise.a_of_phi - a_hat, delta)
    fields = {"theta_star": theta, "sigma_delta": sig_d,
              "sigma_theta_star": a_inv @ sig_d @ a_inv.T, "upsilon_bar": ups,
              "bias": a_inv @ ups / (1.0 - rho)}
    return fields, a_inv, delta, h_hat, a_hat, h[:, d + d * d:]


def exact_sensitivity(chain: FiniteChain, psi, gamma: float, rho: float) -> dict:
    """The fields of ``sensitivity`` from pair arrays, Delta' riding the report's solve."""
    noise = build_noise_model(chain, psi, gamma, 0.0, VARIANT_TD0)
    psi_bar = feature_mean(chain, psi)
    d_a_bar = -np.outer(psi_bar, psi_bar)

    def delta_prime_of(a_bar, a_inv, theta):
        return float(psi_bar @ theta) * ((noise.a_of_phi - a_bar) @ (a_inv @ psi_bar))

    base, a_inv, delta, h_hat, a_hat, h_hat_prime = exact(noise, chain, rho, delta_prime_of)
    w = pair_law(chain)[:, None]
    a_bar = np.einsum("p,pij->ij", w[:, 0], noise.a_of_phi)
    delta_prime = delta_prime_of(a_bar, a_inv, base["theta_star"])
    cross = (w * delta_prime).T @ h_hat + (w * delta).T @ h_hat_prime
    r0_prime = (w * delta_prime).T @ delta
    sig_d_prime = cross + cross.T - (r0_prime + r0_prime.T)
    ups_prime = np.einsum("p,pij,pj->i", w[:, 0], noise.a_of_phi - a_hat, delta_prime)
    correction = a_inv @ d_a_bar @ base["sigma_theta_star"]
    return {"d_theta_star": -a_inv @ d_a_bar @ base["theta_star"],
            "d_a_inv": -a_inv @ d_a_bar @ a_inv,
            "d_sigma": a_inv @ sig_d_prime @ a_inv.T - correction - correction.T,
            "d_bias": a_inv @ (-d_a_bar @ base["bias"] + ups_prime / (1.0 - rho)),
            "sigma_delta_prime": sig_d_prime, "upsilon_bar_prime": ups_prime,
            "d_sigma_frozen_noise": -correction - correction.T,
            "d_bias_frozen_noise": a_inv @ (-d_a_bar @ base["bias"])}


def a_hat_from(noise, big_g: np.ndarray) -> np.ndarray:
    """A_hat(z, z') = A(z, z') - A_bar + G(z') as a pair array, from a base solution G."""
    n, d, _ = big_g.shape
    a_dev = (noise.a_of_phi - noise.a_bar).reshape(n, n, d, d)
    return (a_dev + big_g[None, :, :, :]).reshape(n * n, d, d)


def forward_exact(chain: FiniteChain, psi: FeatureMap, gamma: float, delta_r: float,
                  variant: str, rho: float) -> tuple:
    """The report by the forward base-chain route, with G shaped (n_z, d, d).

    g = Pi col_Delta and G = Pi R_A come from one forward solve, with
    R_A = psi trail' the per-state form of sum_y P(., y) (A(., y) - A_bar) up
    to a constant, which the solve centers away.  Then

        Sigma_Delta = E[Delta Delta'] + w_Delta' g + g' w_Delta,
        Upsilon_bar = A_bar E[Delta] - sum_z' G(z') w_Delta(z'),

    and the plug-back of (I - P) G = R_A - varpi'R_A is checked absolutely.
    """
    a_bar, a_inv, theta_star, trail, delta = _pre_solve(chain, psi, gamma, delta_r,
                                                         variant, rho)
    n, d = psi.matrix.shape
    mat = psi.matrix
    r_a = (mat[:, :, None] * trail[:, None, :]).reshape(n, d * d)
    sol = poisson_solve_columns(chain, np.hstack([delta.col, r_a]))
    g, big_g = sol[:, :d], sol[:, d:]
    resid = r_a - chain.stationary @ r_a - (big_g - chain.transition @ big_g)
    assert np.max(np.abs(resid)) < 1e-9
    big_g = big_g.reshape(n, d, d)
    half = 0.5 * _second_moment(chain, mat, delta, delta) + delta.w.T @ g
    sig_d = half + half.T
    ups = a_bar @ delta.mean - np.einsum("zij,zj->i", big_g, delta.w)
    report = AsymptoticsReport(
        sigma_delta=sig_d, sigma_theta_star=a_inv @ sig_d @ a_inv.T,
        bias=a_inv @ ups / (1.0 - rho), upsilon_bar=ups, theta_star=theta_star,
        rho=rho, variant=variant, delta_r=delta_r)
    return report, big_g
