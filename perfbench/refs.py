"""References that do not use the repository, timed beside the engine.

Every timed metric is calibrated against one of these: raw time ×
(nominal ÷ the reference time measured next to it).  Wall time on a shared
host drifts by up to 1.7x between runs minutes apart, but the ratio of
engine time to a reference of the same kind, timed interleaved in the
same process, holds far tighter.

* :func:`numpy_sweeps` — the Jacobi-with-residual sweep in plain NumPy.
  It is also the correctness reference of the Jacobi workloads (the
  engine must reproduce its ``X`` bit for bit) and the NumPy baseline.
* :func:`python_loop` — a fixed pure-Python loop hashing frozen
  dataclasses into a dict, the kind of work the engine's cold compile
  and plan-keying paths do.

The nominal values are the medians measured on the host the benchmark
was written on (2 vCPU container, Python 3.11, NumPy 2.4); they only
fix the units of the calibrated metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: median seconds of one reference, by kind: ``numpy`` is
#: ``numpy_sweeps`` over a 1024 x 1024 field for 4 trips, ``python`` one
#: ``python_loop()`` (or the corpus's 12 ``python_loop(500)`` slices)
NOMINAL = {"numpy": 0.070, "python": 0.015}


def numpy_sweeps(x: np.ndarray, trips: int) -> np.ndarray:
    """``trips`` sweeps of the 5-point update, residual and copy-back,
    in place on ``x``, with the engine's left-to-right evaluation order
    so the result is bit-identical to the engine's."""
    for _ in range(trips):
        nb = ((x[:-2, 1:-1] + x[2:, 1:-1]) + x[1:-1, :-2]) + x[1:-1, 2:]
        new = 0.25 * nb
        residual = nb - 4.0 * x[1:-1, 1:-1]
        del residual
        x[1:-1, 1:-1] = new
    return x


@dataclass(frozen=True)
class _Key:
    a: int
    b: tuple


def python_loop(n: int = 6000) -> int:
    """A fixed pure-Python workload of the engine's cold-path kind:
    frozen dataclasses hashed as dict keys (the engine keys its caches
    on frozen statement dataclasses).  Returns a checksum so the work
    cannot be skipped."""
    seen: dict = {}
    for i in range(n):
        key = _Key(i % 97, (i % 5, i % 3))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def time_python_loop(n: int = 6000) -> float:
    t0 = perf_counter()
    python_loop(n)
    return perf_counter() - t0
