"""The host-speed probe: a fixed reference kernel timed between stages.

On a machine of a few cores shared with other tenants, the same code runs
up to half again as slow from one minute to the next, in wall and CPU time
alike, and a run cannot average that away.  Each stage is therefore
bracketed by short timings of one fixed kernel that does not depend on the
program (a pure-Python integer loop and a few small NumPy matmuls, the two
kinds of work the pipeline does).  A stage's *adjusted* time is its wall
time scaled by ``NOMINAL_S`` over the probe's median time around that
stage: the seconds the stage would take on a host that runs the probe in
``NOMINAL_S``.  A change to the program moves the adjusted time as it
moves the wall time; a slower or faster host moves both the stage and the
probe, and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe timings before each stage (and after a round's last stage)
SAMPLES = 8

#: the probe's time on the reference host (the one in README's reference
#: figures); adjusted times are seconds at this probe speed
NOMINAL_S = 5.0e-3

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 64)) / 8
_X = _RNG.standard_normal((1024, 64))


def _kernel() -> float:
    s = 0
    for i in range(20000):
        s += i * i % 7
    y = _X
    for _ in range(6):
        y = np.tanh(y @ _A)
    return s + float(y[0, 0])


def probe(n: int = SAMPLES) -> list[float]:
    """Wall times of ``n`` calls of the reference kernel."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def adjust(seconds: float, before: list[float], after: list[float]) -> float:
    """``seconds`` at the nominal probe speed, from the probe timings on
    either side of the span."""
    return seconds * NOMINAL_S / statistics.median(before + after)
