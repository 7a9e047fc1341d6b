"""Fixed numpy kernels that time the machine's speed, apart from rtdlab.

The shared VM the benchmark runs on changes speed by up to 2x in spells of
a fraction of a second to minutes, and not alike for all code: many small
numpy calls slow down together, large LAPACK calls less and at other times
(bench/README.md).  So there are two kernels, each like one kind of work
rtdlab does.  ``small`` makes many numpy calls on 3-vectors, as the theta
recursion and Python-level code do; ``dense`` inverts and decomposes a dense
400x400 matrix, as the exact layer's pair-chain solves do.  ``worker.py``
multiplies each timed segment of a round by the kernel's reference time
(``ref_s``) over the mean of the workload kernel's samples taken before and
after the segment, and each set-up time likewise with the ``small`` kernel:
that gives their time at the speed where the kernel takes its reference
time.  The kernels never change with rtdlab, so they do not move when rtdlab
gets faster.
"""

import gc
import time
from statistics import median

CALLS = 3


def small() -> float:
    import numpy as np
    x = np.array([1.0, 0.5, -0.25])
    theta = np.zeros(3)
    for _ in range(5000):
        d = 1.0 + 0.99 * (x @ theta) - x @ theta
        theta = theta + 0.01 * d * x
    return float(theta.sum())


def dense() -> float:
    import numpy as np
    m = np.random.default_rng(0).random((400, 400)) + 400.0 * np.eye(400)
    return float(np.linalg.inv(m).trace() + np.linalg.svd(m, compute_uv=False)[0])


# kernel and its median sample_s on the VM of bench/README.md, 1 BLAS thread
KERNELS = {"small": (small, 0.0150), "dense": (dense, 0.0300)}


def sample_s(kind: str) -> float:
    """Median time of ``CALLS`` calls of kernel ``kind``.

    The garbage collector is off meanwhile: the kernels make no cycles, and a
    collection would time the objects the workload holds, not the machine.
    """
    kernel = KERNELS[kind][0]
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALLS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def ref_s(kind: str) -> float:
    """The time of kernel ``kind`` at reference speed."""
    return KERNELS[kind][1]
