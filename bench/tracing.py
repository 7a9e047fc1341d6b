"""Spans around rtdlab's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at every place rtdlab looks
it up: the defining module and every rtdlab module (or class) that bound the
same object by name, such as ``poisson_solve_columns`` imported into
``rtdlab.asymptotics``.  ``uninstall`` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, run id) and written out as JSON
lines by ``write``; counters are kept next to them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _n_steps(args, kwargs, pos):
    return int(kwargs["n_steps"] if "n_steps" in kwargs else args[pos])


def _count_pair_bytes(tracer, args, kwargs, result):
    n = args[0].n_z
    tracer.counts["markov.pair_bytes_computed"] += 8 * n ** 4


def _count_written(tracer, args, kwargs, result):
    tracer.counts["cli.files_written"] += 1
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _count_run_steps(tracer, args, kwargs, result):
    tracer.counts["learner.steps"] += _n_steps(args, kwargs, 2)


def _count_path_steps(tracer, args, kwargs, result):
    # bound method: args[0] is the environment
    tracer.counts["learner.sample_path_steps"] += _n_steps(args, kwargs, 1)


# (span name, module, attribute, optional class, counter hook)
TARGETS = (
    ("markov.build_chain", "rtdlab.markov", "build_chain", None, None),
    ("markov.pair_chain", "rtdlab.markov", "pair_chain", None, _count_pair_bytes),
    ("markov.fundamental_matrix", "rtdlab.markov", "fundamental_matrix", None, None),
    ("features.feature_stats", "rtdlab.features", "feature_stats", None, None),
    ("features.resolvent_sum", "rtdlab.features", "resolvent_sum", None, None),
    ("meanflow.mean_flow_relative", "rtdlab.meanflow", "mean_flow_relative", None, None),
    ("meanflow.spectral_report", "rtdlab.meanflow", "spectral_report", None, None),
    ("meanflow.dirichlet_report", "rtdlab.meanflow", "dirichlet_report", None, None),
    ("asymptotics.build_noise_model", "rtdlab.asymptotics", "build_noise_model", None, None),
    ("asymptotics.sigma_delta", "rtdlab.asymptotics", "sigma_delta", None, None),
    ("asymptotics.matrix_poisson", "rtdlab.asymptotics", "matrix_poisson", None, None),
    ("asymptotics.asymptotics_report", "rtdlab.asymptotics", "asymptotics_report", None, None),
    ("asymptotics.sensitivity", "rtdlab.asymptotics", "sensitivity", None, None),
    ("learner.run", "rtdlab.learner", "run", None, _count_run_steps),
    ("learner.run_many", "rtdlab.learner", "run_many", None, None),
    ("learner.sample_path", "rtdlab.learner", "sample_path", "FiniteChainEnv",
     _count_path_steps),
    ("learner.sample_path", "rtdlab.speedscale", "sample_path", "SpeedScalingEnv",
     _count_path_steps),
    ("speedscale.simulate", "rtdlab.speedscale", "simulate_speed_scaling", None, None),
    ("speedscale.estimate_stats", "rtdlab.speedscale", "estimate_stats", None, None),
    ("speedscale.noise_covariance", "rtdlab.speedscale", "estimate_noise_covariance",
     None, None),
    ("cli.eigs", "rtdlab.cli", "cmd_eigs", None, None),
    ("cli.dirichlet", "rtdlab.cli", "cmd_dirichlet", None, None),
    ("cli.sensitivity", "rtdlab.cli", "cmd_sensitivity", None, None),
    ("cli.moments", "rtdlab.cli", "cmd_moments", None, None),
    ("cli.bias", "rtdlab.cli", "cmd_bias", None, None),
    ("cli.run", "rtdlab.cli", "cmd_run", None, None),
    ("cli.write", "rtdlab.cli", "write_csv", None, _count_written),
    ("cli.write", "rtdlab.cli", "write_json", None, _count_written),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []     # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer.counts[name + "_calls"] += 1
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "rtdlab" or k.startswith("rtdlab.")]
        for name, module, attr, cls_name, hook in TARGETS:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            if cls_name is not None:
                cls = getattr(mod, cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is not None:
                    self._patch(cls, attr, original, self._wrap(name, original, hook))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for owner in loaded:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def total_s(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def path_s_inside_runs(self) -> float:
        """Time of sample_path spans whose ancestors include a learner.run span."""
        total = 0.0
        for span in self.spans:
            if span[0] != "learner.sample_path":
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != "learner.run":
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items())),
                                 "run": self.run_id}) + "\n")
