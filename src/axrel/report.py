"""Verdict reports: versioned machine-readable JSON and a text table.

Report bytes are deterministic for fixed inputs and seed: dictionaries
are emitted sorted, numbers as canonical field literals plus 12-digit
decimal approximations, no timestamps.
"""

from __future__ import annotations

import json
from typing import Mapping

SCHEMA = "axrel.report/1"

__all__ = ["SCHEMA", "machine_report", "text_report", "exit_code"]


def machine_report(command: str, inputs: Mapping, seed, results: Mapping) -> str:
    payload = {
        "schema": SCHEMA,
        "command": command,
        "inputs": {k: str(v) for k, v in sorted(inputs.items())},
        "seed": seed,
        "results": {name: v.to_json_dict() for name, v in sorted(results.items())},
        "summary": _summary(results),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _summary(results: Mapping) -> dict:
    out = {"Holds": 0, "Fails": 0, "Unknown": 0}
    for v in results.values():
        out[v.outcome] += 1
    return out


def text_report(title: str, results: Mapping, seed=None) -> str:
    width = max([len(n) for n in results] + [10])
    lines = [title, "=" * len(title)]
    if seed is not None:
        lines.append("seed: %s" % seed)
    for name in sorted(results):
        v = results[name]
        extra = ""
        if v.is_fails and v.evidence:
            shown = v.to_json_dict()["evidence"]
            extra = "  counterexample: %s" % json.dumps(shown, sort_keys=True)
        elif v.outcome == "Unknown" and v.evidence.get("note"):
            extra = "  (%s)" % v.evidence["note"]
        elif "sup" in v.evidence:
            sup = v.to_json_dict()["evidence"]["sup"]
            extra = "  sup = %s" % sup
        lines.append("%-*s  %-8s %-10s%s" % (width, name, v.outcome, v.method, extra))
    counts = _summary(results)
    lines.append("-" * len(title))
    lines.append("holds %d, fails %d, unknown %d" %
                 (counts["Holds"], counts["Fails"], counts["Unknown"]))
    return "\n".join(lines) + "\n"


def exit_code(results: Mapping) -> int:
    """0 all Holds; 1 any Fails; 2 some Unknown and no Fails."""
    if any(v.is_fails for v in results.values()):
        return 1
    if any(v.outcome == "Unknown" for v in results.values()):
        return 2
    return 0
