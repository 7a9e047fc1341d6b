"""rtdlab benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload mc_many_runs --seed 1 --seconds 25 --trace 0

Workloads: mc_many_runs, exact_large, cli_small (see bench/README.md).  Every
measured process is a fresh interpreter started with the BLAS thread count
fixed at ``BLAS_THREADS``.  Set-up is measured in ``SETUP_PROBES`` such
processes, half before and half after the measured process, plus the
measured process itself, and ``setup_s`` is the median of their set-up times
at reference speed (``reference.py``).
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics, as BENCHMARK.json names them.  The last
stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("mc_many_runs", "exact_large", "cli_small")
BLAS_THREADS = 1
SETUP_PROBES = 4


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, mode: str) -> dict:
    """Run one worker process to its end and return its JSON reply."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    timeout_s = 60 + 2 * args.seconds
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            stdout = None
    if stdout is None or proc.returncode != 0 or not stdout.strip():
        # a worker that did not end normally leaves its CLI output behind
        shutil.rmtree(BENCH / "work" / f"{args.workload}-{proc.pid}", ignore_errors=True)
        how = f"exited {proc.returncode}" if stdout is not None else f"ran over {timeout_s} s"
        raise SystemExit(f"worker ({mode}) {how}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "rtdlab" / "__init__.py").is_file():
        print("bench/run.py: no src/rtdlab here; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        raise SystemExit("BLAS_THREADS exceeds the number of CPUs")

    # half the probes run before the measured process and half after it, so
    # that set-up is sampled over the whole run: the machine's speed drifts in
    # spells longer than one set-up
    before = (SETUP_PROBES + 1) // 2
    setups = [worker(args, "setup")["setup"] for _ in range(before)]
    reply = worker(args, "run")
    setups.append(reply["setup"])
    setups += [worker(args, "setup")["setup"] for _ in range(SETUP_PROBES - before)]
    measured = dict(reply["metrics"])
    measured["setup_s"] = median(s["setup_s"] for s in setups)
    for key in ("import.numpy_s", "import.rtdlab_s"):
        measured[key] = median(s[key] for s in setups)
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for problem in reply["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = {name: {k: [round(t, 4) for t in v] for k, v in times.items()}
              for name, times in reply["rounds"].items()}
    info = {"workload": args.workload, "seed": args.seed, "round_s": rounds,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "setup_samples": [round(s["setup_s"], 4) for s in setups],
            "raw_setup_samples": [round(s["raw_setup_s"], 4) for s in setups]}
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not reply["problems"],
        "attempted": reply["attempted"],
        "failed": reply["failed"],
        "metrics": {k: {"value": measured[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
