"""Reference probes: how fast the benchmark's core runs at each moment.

On a shared VM the core a process runs on slows down and speeds up by up to
2x, over stretches from a fraction of a second to minutes, as the load of
the neighbours sharing it comes and goes (see README.md, "Bounds and
noise"). The benchmark therefore times a fixed piece of reference work, the
probe, on the same core while the program runs, and reports the program's
times in units of the probe's time at the same moments ("ref"): a call of
800 ref took 800 times as long as the probe did meanwhile.

Code that works from cache and code that streams through memory slow down
differently, so each workload names the probe of its own kind:

- `interp`: interpreter arithmetic and a dict, stacking small arrays, keying
  Philox generators and small numpy calls, the kinds of work the simulation
  code does. It runs every INTERVAL_S seconds from a SIGALRM handler,
  between two Python bytecodes of the program, so it needs no hook in the
  program, and EDGE_SAMPLES times on entry and on exit.
- `lu`: a sparse LU solve of a fixed 3-D Laplacian, like the oracle's
  linear solve. The program spends its time in one C routine that a signal
  handler cannot interrupt, so it runs only on entry and on exit.

The probes' own time is counted and taken out of every time the benchmark
reports. The probes are part of the benchmark, not of the program: they
must not change, or every ref unit changes with them.
"""

from __future__ import annotations

import bisect
import functools
import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
_ARRAY = np.linspace(0.0, 1.0, 256)


def pin_to_one_core() -> int:
    """Pin this process (and the processes it starts) to one core, so the
    probe and the program share it. Returns the core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def interp_probe() -> float:
    """Seconds taken by the kinds of work the simulation code does: interpreter
    arithmetic and a dict, stacking small arrays, keying Philox generators
    and small numpy calls."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(150):
        acc += (i * 7 % 13) * 0.5
        table[i] = _ARRAY[i % 128: i % 128 + 2] + acc
    stacked = np.stack(list(table.values()))
    for k in range(4):
        key = np.array([k, 0x51AB], dtype=np.uint64)
        acc += np.random.Generator(np.random.Philox(key=key)).random(4).sum()
    for _ in range(10):
        acc += float(np.sqrt((stacked * stacked).sum(axis=1)).min())
    return time.perf_counter() - t0


@functools.cache
def _laplacian(n: int = 12):
    import scipy.sparse as sp

    eye = sp.identity(n)
    line = sp.diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(n, n))
    grid = (sp.kron(sp.kron(line, eye), eye) + sp.kron(sp.kron(eye, line), eye)
            + sp.kron(sp.kron(eye, eye), line))
    return grid.tocsc(), np.ones(n ** 3)


def lu_probe() -> float:
    """Seconds taken by a sparse LU solve of a 12^3-point 3-D Laplacian."""
    from scipy.sparse.linalg import spsolve

    matrix, rhs = _laplacian()
    t0 = time.perf_counter()
    spsolve(matrix, rhs)
    return time.perf_counter() - t0


# kind -> (probe, seconds between samples or None, samples on entry and on exit)
PROBES = {"interp": (interp_probe, INTERVAL_S, 5), "lu": (lu_probe, None, 2)}


class SpeedProbe:
    """Samples the probe of `kind` while active. `samples` holds (clock,
    probe seconds) pairs and `overhead()` the seconds spent probing so far."""

    def __init__(self, kind: str = "interp"):
        self.probe, self.interval, self.edge = PROBES[kind]
        self.samples: list[tuple[float, float]] = []
        self._overhead = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append((t0, self.probe()))
        self._overhead += time.perf_counter() - t0

    def overhead(self) -> float:
        return self._overhead

    def __enter__(self):
        for _ in range(self.edge):
            self._sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(self.edge):
            self._sample()

    def ref(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median probe time over [start, end], widened by `edge` samples on
        each side."""
        clocks = [c for c, _ in self.samples]
        lo = max(0, bisect.bisect_left(clocks, start) - self.edge)
        hi = bisect.bisect_right(clocks, end) + self.edge
        return statistics.median(p for _, p in self.samples[lo:hi])
