"""Host-speed calibration.

On a shared host the same code runs up to 1.8 times slower for seconds at
a time, and sometimes for minutes.  The benchmark therefore times a fixed
piece of its own work next to every operation, and reports the
operation's time scaled to a host on which that work takes its reference
time (what it takes on an idle 2-core x86 host):

    normalized = measured * REFERENCE_S[kind] / calibration

Two kinds of work, because host load slows them differently:

- ``compute``: Fraction and dict arithmetic, about 0.9 ms.  It tracks
  warm in-process work: over 43 two-second windows of an exact-arithmetic
  and of a numpy operation, the raw medians spread by 0.42 and 0.46
  (quartile distance over median), normalized ones by 0.03 and 0.04.
- ``memory``: building and walking 20000 small tuples, strings and a dict,
  about 4.6 ms.  It tracks a fresh interpreter's start, import and first
  calls: over 32 windows of `import axrel.cli` in fresh interpreters the
  raw medians spread by 0.27, normalized by ``memory`` by 0.06, while
  ``compute`` left 0.20.

The calibration code is the benchmark's own, so a change to the program
never changes it.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_S = {"compute": 0.0009, "memory": 0.0046}


def _compute():
    acc, counts = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        counts[i % 17] = counts.get(i % 17, 0) + i
    return acc


def _memory():
    pairs = [(i, str(i)) for i in range(20000)]
    index = {s: i for i, s in pairs}
    return sum(index[s] for _, s in pairs[::7])


_WORK = {"compute": _compute, "memory": _memory}


def sample(kind, repeats=3):
    """Seconds the calibration work of `kind` takes now: the fastest of `repeats`."""
    best = None
    for _ in range(repeats):
        t0 = perf_counter()
        _WORK[kind]()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def scale(kind, *samples):
    """Factor turning a time measured next to `samples` into reference time."""
    return REFERENCE_S[kind] / (sum(samples) / len(samples))
