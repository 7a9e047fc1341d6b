"""Explicit pair-chain oracle for the noise and bias analysis.

rtdlab solves every Poisson equation of the pair process (Z_n, Z_{n+1}) on
the base chain.  The tests check it against the direct route kept here: the
n_z^2-state pair chain with its dense kernel and fundamental matrix.  The
pair chain costs n_z^4 memory, so it serves small chains only.
"""

import numpy as np

from rtdlab.asymptotics import VARIANT_TD0, build_noise_model
from rtdlab.features import feature_mean
from rtdlab.markov import FiniteChain


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
