"""One benchmark process: set-up, timed rounds, checks, and metrics as JSON.

Started by ``run.py`` in a fresh interpreter from the root of a checkout; it
imports rtdlab from ``src/`` of that checkout.  ``--mode setup`` stops after
set-up and reports its times.  ``--mode run`` then runs whole rounds of the
workload for ``--seconds``; with ``--trace 1`` the first half runs untraced
and the second half under ``tracing.Tracer``.  Times are scaled to reference
speed with the kernels of ``reference.py``.  The last stdout line is JSON.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent


def import_rtdlab(root: Path) -> dict:
    """Import numpy, then rtdlab from ``root/src``; return both import times
    and the untimed gap between them, where the ``small`` kernel is sampled."""
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    reference.small()   # the first call of a kernel in a process runs slow
    small_s = reference.sample_s("small")
    t2 = time.perf_counter()
    import rtdlab
    t3 = time.perf_counter()
    if not Path(rtdlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rtdlab imported from {rtdlab.__file__}, not from {src}")
    return {"import.numpy_s": t1 - t0, "import.rtdlab_s": t3 - t2,
            "gap_s": t2 - t1, "small_s": small_s}


def per_round_layers(tracer, n_rounds: int) -> dict:
    """Per-layer metrics of the traced rounds, each per round of the workload."""
    counts = tracer.counts

    def ms(*names):
        return 1e3 * sum(tracer.total_s(n) for n in names) / n_rounds

    def per_round(key):
        return counts[key] / n_rounds

    def us_per_step(seconds, steps):
        return 1e6 * seconds / steps if steps else 0.0

    run_s = tracer.total_s("learner.run")
    return {
        "markov.build_chain_ms": ms("markov.build_chain"),
        "markov.pair_chain_ms": ms("markov.pair_chain"),
        "markov.fundamental_matrix_ms": ms("markov.fundamental_matrix"),
        "markov.fundamental_matrix_calls": per_round("markov.fundamental_matrix_calls"),
        "markov.pair_bytes_computed": per_round("markov.pair_bytes_computed"),
        "features.feature_stats_ms": ms("features.feature_stats"),
        "features.resolvent_sum_calls": per_round("features.resolvent_sum_calls"),
        "meanflow.mean_flow_relative_ms": ms("meanflow.mean_flow_relative"),
        "meanflow.spectral_report_ms": ms("meanflow.spectral_report"),
        "meanflow.dirichlet_report_ms": ms("meanflow.dirichlet_report"),
        "asymptotics.build_noise_model_ms": ms("asymptotics.build_noise_model"),
        "asymptotics.sigma_delta_ms": ms("asymptotics.sigma_delta"),
        "asymptotics.matrix_poisson_ms": ms("asymptotics.matrix_poisson"),
        "asymptotics.asymptotics_report_ms": ms("asymptotics.asymptotics_report"),
        "asymptotics.sensitivity_ms": ms("asymptotics.sensitivity"),
        "asymptotics.reports": per_round("asymptotics.asymptotics_report_calls"),
        "learner.sample_path_us_per_step": us_per_step(
            tracer.total_s("learner.sample_path"), counts["learner.sample_path_steps"]),
        "learner.theta_us_per_step": us_per_step(
            run_s - tracer.path_s_inside_runs(), counts["learner.steps"]),
        "learner.run_many_ms": ms("learner.run_many"),
        "learner.steps": per_round("learner.steps"),
        "speedscale.simulate_ms": ms("speedscale.simulate"),
        "speedscale.estimate_stats_ms": ms("speedscale.estimate_stats"),
        "speedscale.noise_covariance_ms": ms("speedscale.noise_covariance"),
        "cli.eigs_ms": ms("cli.eigs"),
        "cli.dirichlet_ms": ms("cli.dirichlet"),
        "cli.sensitivity_ms": ms("cli.sensitivity"),
        "cli.moments_ms": ms("cli.moments"),
        "cli.bias_ms": ms("cli.bias"),
        "cli.run_ms": ms("cli.run"),
        "cli.write_ms": ms("cli.write"),
        "cli.files_written": per_round("cli.files_written"),
        "cli.bytes_written": per_round("cli.bytes_written"),
    }


class Timer:
    """Runs whole rounds until a time budget is spent (always at least one).

    The machine's speed changes within a round (bench/README.md), so a round
    is timed in *segments*: the workload calls ``between`` before each
    operation, and once ``SEGMENT_S`` or more have passed since the last
    sample, the timer ends the segment and takes a sample of the workload's
    reference kernel (``reference.sample_s``), untimed.  Every segment lies
    between two samples: one before the round or at its start, one at its end.
    """

    SEGMENT_S = 0.25

    def __init__(self, workload):
        self.workload = workload
        self.kind = workload.REFERENCE
        self.index = 0
        self.attempted = self.failed = self.steps = 0
        self.cpu_s = 0.0        # process CPU time in rounds, samples left out
        self._segments: list[tuple[float, float, float]] = []
        self._seg_t0 = self._ref = 0.0
        # the first calls of a kernel in a process run slow (allocation, page faults)
        reference.sample_s(self.kind)

    def _sample(self) -> None:
        cpu0 = time.process_time()
        self._ref = reference.sample_s(self.kind)
        self.cpu_s -= time.process_time() - cpu0

    def between(self, force: bool = False) -> None:
        """End the current segment if it is long enough (or ``force``)."""
        seconds = time.perf_counter() - self._seg_t0
        if force or seconds >= self.SEGMENT_S:
            before = self._ref
            self._sample()
            self._segments.append((seconds, before, self._ref))
            self._seg_t0 = time.perf_counter()

    def run_for(self, seconds: float) -> list[list[tuple[float, float, float]]]:
        """Run rounds for ``seconds``; return each round's segments as
        (seconds, reference sample before, reference sample after)."""
        rounds = []
        start = time.perf_counter()
        self._sample()
        while True:
            self._segments = []
            cpu0 = time.process_time()
            self._seg_t0 = time.perf_counter()
            res = self.workload.round(self.index, self.between)
            self.between(force=True)
            self.cpu_s += time.process_time() - cpu0
            rounds.append(self._segments)
            self.index += 1
            self.attempted += res.attempted
            self.failed += res.failed
            self.steps += res.steps
            if time.perf_counter() - start >= seconds:
                return rounds


def raw_s(segments) -> float:
    """A round's time."""
    return sum(seconds for seconds, _, _ in segments)


def scaled_s(kind: str, segments) -> float:
    """A round's time at reference speed: each segment's time times the
    kernel's reference time over the mean of the samples around it."""
    return sum(seconds * reference.ref_s(kind) / (0.5 * (a + b)) for seconds, a, b in segments)


def at_ref_speed(kind: str, rounds) -> float:
    """The median round time at reference speed."""
    return median(scaled_s(kind, r) for r in rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)
    root = Path.cwd()

    imports = import_rtdlab(root)
    gap_s, small_before = imports.pop("gap_s"), imports.pop("small_s")
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    raw_setup_s = time.perf_counter() - T_START - gap_s
    # set-up is mostly Python-level import work, which the small kernel is
    # like; it is sampled after numpy's import and after set-up
    small_s = 0.5 * (small_before + reference.sample_s("small"))
    setup = {"setup_s": raw_setup_s * reference.ref_s("small") / small_s,
             "raw_setup_s": raw_setup_s, **imports}
    if args.mode == "setup":
        if hasattr(wl, "close"):
            wl.close()
        print(json.dumps({"setup": setup}))
        return 0

    try:
        timer = Timer(wl)
        if not args.trace:
            plain = timer.run_for(args.seconds)
            metrics = {"wall_s": at_ref_speed(wl.REFERENCE, plain),
                       "learner.steps_per_s": timer.steps / sum(map(raw_s, plain))}
            traced = []
        else:
            from tracing import Tracer
            plain = timer.run_for(args.seconds / 2)
            plain_steps = timer.steps
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
            tracer.install()
            n_before, cpu_before = timer.index, timer.cpu_s
            try:
                traced = timer.run_for(args.seconds / 2)
            finally:
                tracer.uninstall()
            n_traced = timer.index - n_before
            metrics = per_round_layers(tracer, n_traced)
            metrics["process.cpu_s"] = (timer.cpu_s - cpu_before) / n_traced
            metrics["trace.overhead_s"] = (at_ref_speed(wl.REFERENCE, traced)
                                           - at_ref_speed(wl.REFERENCE, plain))
            metrics["process.raw_wall_s"] = fmean(map(raw_s, plain))
            metrics["learner.steps_per_s"] = plain_steps / sum(map(raw_s, plain))
            tracer.write(BENCH / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = wl.check()
    finally:
        if hasattr(wl, "close"):
            wl.close()
    rounds = {name: {"raw_s": [raw_s(r) for r in rs],
                     "scaled_s": [scaled_s(wl.REFERENCE, r) for r in rs]}
              for name, rs in (("plain", plain), ("traced", traced)) if rs}
    print(json.dumps({"setup": setup, "metrics": metrics, "rounds": rounds,
                      "attempted": timer.attempted, "failed": timer.failed,
                      "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
