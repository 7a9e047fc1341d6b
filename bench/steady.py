"""Steadiness check: run workloads repeatedly and print each metric's quartiles.

Usage, from the root of a checkout of the repository:

    python3 bench/steady.py --workload exact_large --runs 10 --seed0 100

Each run is ``bench/run.py --trace 0`` with seed ``seed0 + i`` and the
``run_seconds`` of BENCHMARK.json.  For every metric the table gives the
median, the first and third quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread (Q3 - Q1) / median; the bounds in
BENCHMARK.json are set from this spread.  The share of failed operations
must be the same in every run.  The raw results go to
``bench/results/steady-<workload>-<seed0>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import BLAS_THREADS, WORKLOADS  # noqa: E402


def versions() -> str:
    out = subprocess.run([sys.executable, "-c",
                          "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    return f"numpy {out[0]}, scipy {out[1]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args(argv)
    seconds = json.loads((Path.cwd() / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, {versions()}, "
          f"{args.runs} runs of {seconds} s, seeds {args.seed0}.."
          f"{args.seed0 + args.runs - 1}")
    for workload in args.workload:
        results = []
        for i in range(args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed0 + i), "--seconds", str(seconds),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            results.append({**json.loads(lines[-1]), "info": json.loads(lines[-2][2:]),
                            "run_s": time.perf_counter() - t0})
        out = BENCH / "results" / f"steady-{workload}-{args.seed0}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: correct {sum(r['correct'] for r in results)}/{len(results)}, "
              f"failed share {shares}, attempted "
              f"{[r['attempted'] for r in results]}, one run took "
              f"{min(r['run_s'] for r in results):.1f}-{max(r['run_s'] for r in results):.1f} s")
        print(f"  {'metric':34s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = quantiles(values, n=4)
            med = median(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
