"""A fixed reference kernel that tracks how fast the machine runs right now.

On a machine whose cores are shared with other tenants the same work can
take twice as long from one minute to the next, for whole runs at a time
(measured on the 2-core box this benchmark was written on: identical passes
of ``laws_mc`` ran 0.5 s or 1.1 s).  Medians within a run cannot remove a
slowdown that lasts the whole run, so the benchmark times this kernel right
before and right after every timed call and reports the call's wall time
scaled by ``REFERENCE_S / kernel time``: seconds at the reference pace.  The
kernel uses only the interpreter and numpy, never the package, so a change
to the package cannot move it; raw wall times are printed beside the scaled
ones.  Set-up time is paced the same way by :func:`spawn_seconds`.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import numpy as np

# the kernel's and the spawn's times on the idle box above (Python 3.11,
# numpy 2.4); only units, so that scaled times read as seconds there
REFERENCE_S = 0.0072
REFERENCE_SPAWN_S = 0.15

# set-up is interpreter start and imports, which a contended core slows less
# than the kernel, so set-up is paced by starting an interpreter that imports
# a fixed set of standard-library modules
SPAWN = ("import argparse, asyncio, csv, decimal, email.mime.text, http.client, json, "
         "logging, pydoc, sqlite3, tarfile, unittest, urllib.request, xml.dom.minidom, "
         "zipfile")


def _kernel() -> float:
    # the package's mix: interpreter loops, scalar Philox draws, small numpy
    # arrays and reductions, dict and list churn, and one vectorised pass
    gen = np.random.Generator(np.random.Philox(12345))
    acc, rows = 0.0, []
    for i in range(3000):
        u = gen.random()
        box = np.array([u, 1.0 - u])
        acc += float(box.sum()) * u
        rows.append((i, u))
    table = {i: u for i, u in rows}
    X = gen.random((20_000, 2))
    acc += float(np.where(X[:, 0] <= 0.5, X[:, 1], -X[:, 1]).sum())
    return acc + len(table)


def kernel_seconds(repeats: int = 2) -> float:
    """Best wall time of ``repeats`` kernel runs, with the collector paused.

    The best of two leaves out the first run's cold caches after other work.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Kernel runs at the boundaries of consecutive timed calls.

    Create it right before the first call and call :meth:`mark` right after
    each one.  Call ``i`` lies between kernel runs ``i`` and ``i + 1`` and is
    paced by their mean.  (A median over a wider window of runs followed the
    contention worse on the box above.)
    """

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def mark(self) -> None:
        self.kernels.append(kernel_seconds())

    def factors(self) -> list[float]:
        """Reference pace over the current pace, for each call so far."""
        k = self.kernels
        return [REFERENCE_S / (0.5 * (a + b)) for a, b in zip(k, k[1:])]


def spawn_seconds() -> float:
    """Wall time to start an interpreter that imports ``SPAWN``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", SPAWN], check=True, timeout=60)
    return time.perf_counter() - t0
