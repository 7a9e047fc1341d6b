"""False-failure rates of the benchmark's statistical and seed-dependent gates.

Usage, from the root of a checkout of the repository:

    python3 bench/gates.py

Every gate is evaluated on fresh seeds starting at ``SEED0`` (never seeds a
benchmark run is known to use, and never chosen by outcome).  For each gate
the script prints the failures over replicates and, where useful, the
distribution behind it.  The CLI gates drive the same argv as ``cli_small``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH)]
SEED0 = 100_000

import oracles  # noqa: E402
import workloads  # noqa: E402
from rtdlab import learner, speedscale  # noqa: E402


def report(name: str, fails: int, total: int, extra: str = "") -> None:
    print(f"{name:44s} {fails:5d} / {total:<6d} {extra}", flush=True)


def mc_bias_gate(seed0: int, groups: int, per_group: int) -> None:
    """t gate of mc_many_runs on groups of fixed-variant runs (one group = one run)."""
    wl = workloads.ManyRuns(seed0)
    alpha_n = min(0.02, float(wl.N_STEPS) ** (-wl.RHO))
    fails, t_all = 0, []
    for g in range(groups):
        seed = workloads.derived_seed(seed0, 10_000 + g)
        runs = learner.run_many(wl.env, wl.config("fixed", seed), wl.N_STEPS, per_group)
        ts = np.concatenate([
            wl.bias_t([r.theta_final for r in runs], wl.iterate_pred, alpha_n),
            wl.bias_t([r.theta_pr for r in runs], wl.iterate_pred / (1 - wl.RHO), alpha_n)])
        t_all.append(ts)
        fails += bool(np.any(ts > wl.t_gate(per_group)))
    t_all = np.concatenate(t_all)
    report(f"mc_many_runs bias |t| <= {wl.t_gate(per_group):.3g} ({per_group} runs)",
           fails, groups,
           f"max |t| {t_all.max():.2f}; share of |t| > 3: {np.mean(t_all > 3):.3f} "
           f"over {t_all.size} components")


def cli_lambda_gate(seed0: int, n: int) -> None:
    """The lambda = 0.5 natural-mode run of cli_small, through the CLI."""
    wl = workloads.CliSmall(seed0)
    errs = []
    try:
        for i in range(n):
            wl.cli_seed = seed0 + i
            out = wl.work / f"lambda-{i}"
            wl.call(wl.argv("run_lambda", out))
            errs.append(wl.lambda_error(out))
    finally:
        wl.close()
    errs = np.array(errs)
    gate = wl.THETA_GATE
    report(f"cli_small lambda run rel. error <= {gate}", int(np.sum(errs > gate)), n,
           f"error min {errs.min():.3f} median {np.median(errs):.3f} max {errs.max():.3f}")


def cli_speed_divergence(seed0: int, n: int) -> None:
    """The speed_scaling run of cli_small must never diverge."""
    wl = workloads.CliSmall(seed0)
    fails = 0
    try:
        for i in range(n):
            wl.cli_seed = seed0 + i
            rc, _ = wl.call(wl.argv("run_speed", wl.work / f"speed-{i}"))
            fails += rc != 0
    finally:
        wl.close()
    report("cli_small speed_scaling run exits 0", fails, n)


def moments_gate(seed0: int, n: int) -> None:
    """The CLI's own 3-sigma moment verdicts, were they drawn at fresh seeds."""
    model = speedscale.SpeedScalingModel()
    fails = sum(not (mc.mean_ok and mc.var_ok)
                for mc in (speedscale.gamma_moment_check(model, 100_000, seed0 + i)
                           for i in range(n)))
    report("moments mean_ok and var_ok (fresh seeds)", fails, n)


def exact_gates(seed0: int, n: int) -> None:
    """Growth and Hurwitz gates of exact_large on fresh random chains."""
    ratios, fails = [], 0
    for i in range(n):
        rng = np.random.default_rng(workloads.derived_seed(seed0 + i, 1))
        for n_x, n_u in workloads.ExactLarge.SIZES:
            kernel, policy, cost, feats = workloads.random_model(rng, n_x, n_u)
            p = oracles.chain_matrix(kernel, policy)
            pi = oracles.stationary(p)
            c = cost.reshape(-1)
            growth = {}
            for variant, delta in (("td0", 0.0), ("fixed_relative_td0", 0.5)):
                out = []
                for gamma in (0.99, 0.999):
                    a_bar, _, _ = oracles.mean_flow(p, pi, feats, c, gamma, 0.0, delta)
                    sig, ups, _ = oracles.noise_sums(p, pi, feats, c, gamma, delta, variant)
                    inv = np.linalg.inv(a_bar)
                    out.append((np.linalg.norm(inv @ ups), np.trace(inv @ sig @ inv.T)))
                growth[variant] = (out[1][0] / out[0][0], out[1][1] / out[0][1])
            b_td, t_td = growth["td0"]
            b_rel, t_rel = growth["fixed_relative_td0"]
            ratios.append((b_td, t_td, b_rel, t_rel))
            hurwitz = all(np.max(np.linalg.eigvals(oracles.mean_flow(
                p, pi, feats, c, g, 0.0, d)[0]).real) < 0
                for g in workloads.ExactLarge.GAMMAS for d in workloads.ExactLarge.DELTAS)
            fails += bool(workloads.ExactLarge.growth_problems(b_td, t_td, b_rel, t_rel)) \
                or not hurwitz
    r = np.array(ratios)
    report("exact_large growth and Hurwitz gates (chains)", fails, len(r),
           f"TD(0) bias x{r[:, 0].min():.2f}..{r[:, 0].max():.2f} "
           f"(median {np.median(r[:, 0]):.2f}, share below 5x {np.mean(r[:, 0] < 5):.3f}), "
           f"trace x{r[:, 1].min():.1f}..{r[:, 1].max():.1f}; relative bias "
           f"x{r[:, 2].min():.3f}..{r[:, 2].max():.3f}, trace "
           f"x{r[:, 3].min():.3f}..{r[:, 3].max():.3f}")


def exact_numeric_gates(seed0: int, n: int) -> None:
    """Full exact_large checks (oracles, finite differences, probes) on fresh seeds."""
    fails = 0
    for i in range(n):
        wl = workloads.ExactLarge(seed0 + i)
        wl.round(0)
        problems = wl.check()
        fails += bool(problems)
        for p in problems:
            print(f"    seed {seed0 + i}: {p}")
    report("exact_large all checks (workload seeds)", fails, n)


def main() -> int:
    t0 = time.perf_counter()
    print(f"{'gate':44s} {'fails':>5s} / replicates")
    moments_gate(SEED0, 2000)
    exact_gates(SEED0, 100)
    cli_speed_divergence(SEED0, 200)
    cli_lambda_gate(SEED0, 60)
    exact_numeric_gates(SEED0, 10)
    mc_bias_gate(SEED0, 20, 18)
    print(f"({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
