"""The machine's speed, read from a fixed computation.

On a machine shared with other tenants, the benchmark's CPU runs at
anything from full speed to under half of it, changing from one second
to the next as other tenants load the machine; the time of a
computation tracks its speed.  The benchmark therefore probes the speed
right before and right after every piece of work it times, and reports
each time scaled to a fixed reference speed (see ``run.py``).

The probe is the benchmark's own max-plus evaluator (``maxplus.py``) on
fixed rational inputs: exact ``Fraction`` arithmetic, tuples and small
loops, as in the program, but none of the program's code, so no change
to ``tropgeo`` can change its time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import maxplus

# The probe's time at the reference speed, about that of an unloaded
# 2.0 GHz Xeon vCPU with Python 3.11; times are reported at this speed.
REFERENCE_S = 0.006

_rng = random.Random(0)
_TERMS = [((i, j), Fraction(_rng.randint(-60, 60), _rng.randint(1, 4)))
          for i in range(5) for j in range(5 - i)]
_POINTS = [(Fraction(_rng.randint(-60, 60), _rng.randint(1, 4)),
            Fraction(_rng.randint(-60, 60), _rng.randint(1, 4))) for _ in range(60)]


def probe() -> float:
    """Seconds taken by one pass of the fixed computation."""
    t0 = perf_counter()
    for p in _POINTS:
        maxplus.on_curve(_TERMS, p)
    return perf_counter() - t0
