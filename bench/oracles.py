"""Oracles for the benchmark checks, written apart from the rtdlab code.

They take only raw arrays (kernels, policy, features, costs) and never call
``rtdlab.meanflow`` or ``rtdlab.asymptotics``:

(a) ``chain_matrix`` / ``stationary`` / ``mean_flow``: the state-action
    kernel, its invariant pmf, and A_bar(lam; delta_r), b_bar, theta_star
    from truncated resolvent series.
(b) ``noise_sums``: Sigma_Delta and Upsilon_bar of the lam = 0 update as
    truncated autocorrelation sums on the base chain, O(K n_z^2 d^2),
    without forming the n_z^2 x n_z^2 pair chain.
(c) ``theta_recursion``: the theta recursion as a plain Python loop over
    scalars, for the prefix of a sampled path.
"""

from __future__ import annotations

import math

import numpy as np

VARIANTS_TD0 = ("td0", "fixed_relative_td0", "varpi_relative_td0")
# features psi(x, u) = [x, u, x u] of the built-in 3x2 model, row z = x * n_u + u
FINITE_FEATURES = np.array([[x, u, x * u] for x in (1, 2, 3) for u in (1, 2)], float)


def chain_matrix(kernel: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """P[(x,u), (x',u')] = kernel[u, x, x'] * policy[x', u'], z = x * n_u + u."""
    kernel = np.asarray(kernel, float)
    policy = np.asarray(policy, float)
    n_u, n_x, _ = kernel.shape
    p = np.empty((n_x * n_u, n_x * n_u))
    for x in range(n_x):
        for u in range(n_u):
            for y in range(n_x):
                for v in range(n_u):
                    p[x * n_u + u, y * n_u + v] = kernel[u, x, y] * policy[y, v]
    return p


def stationary(p: np.ndarray) -> np.ndarray:
    """Invariant pmf as the least-squares solution of [P' - I; 1'] pi = [0; 1]."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return pi / pi.sum()


def _series(p: np.ndarray, beta: float, v: np.ndarray, tol: float = 1e-17) -> np.ndarray:
    """sum_{k>=0} beta^k P^k v, truncated once beta^k drops below ``tol``."""
    if beta == 0.0:
        return v.copy()
    if not 0.0 < beta < 0.999:
        raise ValueError("series oracle needs 0 <= beta < 0.999")
    terms = int(math.ceil(math.log(tol) / math.log(beta))) + 1
    out = v.copy()
    term = v
    for _ in range(terms):
        term = beta * (p @ term)
        out = out + term
    return out


def mean_flow(p, pi, psi, cost, gamma: float, lam: float = 0.0,
              delta_r: float = 0.0, mu=None):
    """(A_bar, b_bar, theta_star) of relative TD(lam) with baseline ``mu``.

    A_bar = -Psi'D Psi + (1-lam) gamma Psi'D P sum_k (lam gamma)^k P^k Psi
            - delta_r/(1 - lam gamma) psi_bar psi_bar_mu',
    b_bar = Psi'D sum_k (lam gamma)^k P^k c,   theta_star = -A_bar^{-1} b_bar.
    ``mu`` defaults to the stationary pmf.
    """
    p, pi, psi, cost = (np.asarray(x, float) for x in (p, pi, psi, cost))
    beta = lam * gamma
    d_psi = pi[:, None] * psi
    a_bar = -d_psi.T @ psi + (1.0 - lam) * gamma * d_psi.T @ (p @ _series(p, beta, psi))
    psi_bar = psi.T @ pi
    psi_bar_mu = psi_bar if mu is None else psi.T @ np.asarray(mu, float)
    a_bar = a_bar - (delta_r / (1.0 - beta)) * np.outer(psi_bar, psi_bar_mu)
    b_bar = d_psi.T @ _series(p, beta, cost)
    return a_bar, b_bar, -np.linalg.solve(a_bar, b_bar)


def _centered_powers(p: np.ndarray, pi: np.ndarray, v: np.ndarray,
                     tol: float, max_terms: int):
    """Yield v, P v, P^2 v, ... with the pi-mean removed, until they vanish."""
    scale = max(float(np.max(np.abs(v))), 1e-300)
    for _ in range(max_terms):
        yield v
        v = np.tensordot(p, v, axes=1)
        v = v - np.tensordot(pi, v, axes=1)[None]
        if float(np.max(np.abs(v))) <= tol * scale:
            return
    raise RuntimeError(f"autocorrelation sum did not converge in {max_terms} terms")


def noise_sums(p, pi, psi, cost, gamma: float, delta_r: float, variant: str,
               tol: float = 1e-16, max_terms: int = 200_000):
    """(Sigma_Delta, Upsilon_bar, theta_star) of the lam = 0 update.

    With Phi_n = (Z_n, Z_{n+1}), Delta(z, z') = A(z, z') theta_star + b(z) and
    W(z') = sum_z pi(z) P(z, z') Delta(z, z'), g(z) = E[Delta(z, Z')]:

        Sigma_Delta = R(0) + sum_{k>=1} (R(k) + R(k)'),  R(k) = W' P^{k-1} g,
        Upsilon_bar = -sum_{k>=1} sum_z [P^{k-1} G_A](z) W(z),

    where G_A(z) = E[A(z, Z')] - A_bar.  The second line is
    E[(A - A_hat) Delta] with A_hat = sum_k P_hat^k (A - A_bar) written out on
    the base chain (the k = 0 term cancels E[A Delta]).
    """
    if variant not in VARIANTS_TD0:
        raise ValueError(f"unknown variant {variant!r}")
    p, pi, psi, cost = (np.asarray(x, float) for x in (p, pi, psi, cost))
    d_r = 0.0 if variant == "td0" else delta_r
    a_bar, _, theta = mean_flow(p, pi, psi, cost, gamma, 0.0, d_r)
    n, d = psi.shape
    psi_bar = psi.T @ pi
    v = psi @ theta
    td_err = cost[:, None] + gamma * v[None, :] - v[:, None]           # (z, z')
    delta = psi[:, None, :] * td_err[:, :, None]                       # (z, z', i)
    a_lead = -psi[:, :, None] * psi[:, None, :] \
        + gamma * psi[:, :, None] * (p @ psi)[:, None, :]              # E[A(z, Z')]
    if variant == "fixed_relative_td0":
        delta = delta - d_r * (psi_bar @ theta) * psi_bar
        a_lead = a_lead - d_r * np.outer(psi_bar, psi_bar)
    elif variant == "varpi_relative_td0":
        delta = delta - d_r * (psi_bar @ theta) * psi[:, None, :]
        a_lead = a_lead - d_r * psi[:, :, None] * psi_bar[None, None, :]
    weights = pi[:, None] * p
    w = np.einsum("ab,abi->bi", weights, delta)
    g = np.einsum("ab,abi->ai", p, delta)
    sigma = np.einsum("ab,abi,abj->ij", weights, delta, delta)
    for vk in _centered_powers(p, pi, g, tol, max_terms):
        r_k = w.T @ vk
        sigma = sigma + r_k + r_k.T
    ups = np.zeros(d)
    for gk in _centered_powers(p, pi, a_lead - a_bar, tol, max_terms):
        ups = ups - np.einsum("zij,zj->i", gk, w)
    return 0.5 * (sigma + sigma.T), ups, theta


def theta_recursion(psi_states, cost, psi_target, *, gamma: float, lam: float,
                    alpha0: float, rho: float, variant: str, delta_r: float,
                    theta0, psi_bar=None, psi_bar_mu=None,
                    baseline_rho: float = 0.55, burn_in: int = 0):
    """Iterate of the documented recursion after ``len(cost)`` steps.

    Returns (theta_N, theta_pr), the Polyak-Ruppert average being over
    theta_n for burn_in <= n <= N (None when N < burn_in).  Variants: td,
    relative_fixed_mu (needs psi_bar_mu), varpi_relative (adaptive baseline
    started at psi(Z_0)), varpi_relative_fixed (needs psi_bar).
    """
    rows = [list(map(float, r)) for r in psi_states]
    targets = [list(map(float, r)) for r in psi_target]
    costs = [float(c) for c in cost]
    dim = len(rows[0])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    theta = [float(t) for t in theta0]
    zeta = [0.0] * dim
    est = list(rows[0])
    pr_sum = list(theta) if burn_in == 0 else [0.0] * dim
    pr_count = 1 if burn_in == 0 else 0
    for t in range(len(costs)):
        n = t + 1
        alpha = min(alpha0, float(n) ** (-rho))
        zeta = [lam * gamma * z + x for z, x in zip(zeta, rows[t])]
        corr = 0.0
        if variant == "relative_fixed_mu":
            corr = delta_r * dot(psi_bar_mu, theta)
        elif variant == "varpi_relative":
            corr = delta_r * dot(est, theta)
        td = costs[t] + gamma * dot(targets[t], theta) - dot(rows[t], theta) - corr
        step = [td * z for z in zeta]
        if variant == "varpi_relative_fixed":
            s = delta_r * dot(psi_bar, theta)
            step = [u - s * b for u, b in zip(step, psi_bar)]
        theta = [th + alpha * u for th, u in zip(theta, step)]
        if variant == "varpi_relative":
            beta = float(n) ** (-baseline_rho)
            est = [e + beta * (x - e) for e, x in zip(est, rows[t + 1])]
        if n >= burn_in:
            pr_sum = [s + th for s, th in zip(pr_sum, theta)]
            pr_count += 1
    theta_pr = [s / pr_count for s in pr_sum] if pr_count else None
    return np.array(theta), (None if theta_pr is None else np.array(theta_pr))
