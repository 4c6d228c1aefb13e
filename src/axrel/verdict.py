"""Three-valued verdicts and the sampling budget behind them.

A verdict is Holds, Fails or Unknown, with the method that reached it
("certified" or "sampled"), its evidence, a budget report and, for float
checks, a tolerance.  Every layer that checks an axiom returns one:
`semantics`, `certify`, `ind`, `kinematics.check_noftl`, `accel` and
`genrel`.  This module imports `field`, `record` and `model` (for `Body`
in evidence) but not the evaluator, so a layer that only reports verdicts
does not load `semantics` and its formula layers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .field import ExactReal
from .model import Body
from .record import MutableRecord, Record, set_field

__all__ = ["Budget", "Verdict", "combine_verdicts", "HOLDS", "FAILS", "UNKNOWN"]

HOLDS, FAILS, UNKNOWN = "Holds", "Fails", "Unknown"

#: Witness-solver calls one evaluation may make before it gives up Unknown.
SOLVER_ITERATIONS = 2000


class Budget(Record):
    """Sampling budget; the seed makes every verdict deterministic.  With
    no samples a universal over quantities would pass unsampled, so
    samples must be at least 1."""

    __slots__ = _fields = ("samples", "seed")

    def __init__(self, samples: int = 48, seed: int = 0):
        if samples < 1:
            raise ValueError("samples must be at least 1, got %r" % (samples,))
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)


class Verdict(MutableRecord):
    __slots__ = _fields = ("outcome", "method", "evidence", "budget_report", "tolerance")

    def __init__(self, outcome: str, method: str = "certified", evidence: Optional[dict] = None,
                 budget_report: Optional[dict] = None, tolerance: Optional[float] = None):
        self.outcome = outcome
        self.method = method  # "certified" | "sampled"
        self.evidence = {} if evidence is None else evidence
        self.budget_report = {} if budget_report is None else budget_report
        self.tolerance = tolerance

    @staticmethod
    def holds(method="certified", evidence=None, budget=None, tolerance=None):
        return Verdict(HOLDS, method, evidence or {}, budget or {}, tolerance)

    @staticmethod
    def fails(evidence=None, method="certified", budget=None, tolerance=None):
        return Verdict(FAILS, method, evidence or {}, budget or {}, tolerance)

    @staticmethod
    def unknown(evidence=None, budget=None, tolerance=None):
        return Verdict(UNKNOWN, "sampled", evidence or {}, budget or {}, tolerance)

    @property
    def is_holds(self):
        return self.outcome == HOLDS

    @property
    def is_fails(self):
        return self.outcome == FAILS

    def to_json_dict(self) -> dict:
        def render(v):
            if isinstance(v, ExactReal):
                return v.literal()
            if isinstance(v, Body):
                return v.id
            if isinstance(v, tuple):
                return [render(x) for x in v]
            return v

        out = {
            "outcome": self.outcome,
            "method": self.method,
            "evidence": {k: render(v) for k, v in sorted(self.evidence.items())},
            "budget": dict(sorted(self.budget_report.items())),
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def combine_verdicts(verdicts: Sequence[Verdict]) -> Verdict:
    """One verdict for a conjunction: the first Fails, else the first
    Unknown, else Holds with the widest tolerance; Unknown when empty."""
    for v in verdicts:
        if v.is_fails:
            return v
    for v in verdicts:
        if v.outcome == UNKNOWN:
            return v
    if not verdicts:
        return Verdict.unknown()
    method = "certified" if all(v.method == "certified" for v in verdicts) else "sampled"
    tolerance = max((v.tolerance or 0.0) for v in verdicts) or None
    return Verdict.holds(method=method, budget=verdicts[0].budget_report, tolerance=tolerance)
