"""Outcome records of single operations and the checks made on them.

An operation is one episode x variant run (one episode x tau_c value on
`sweep`). Its record holds what the paper's metrics are computed from:
`total_steps`, `commit_sequence` and, per goal, `state`, `spent`, `found`,
`committed` and `aborted_by_meta`. An operation fails when it raised, when
its record breaks an invariant, when it differs from the committed
reference, or when it differs from the same operation run another way
(traced, or through the process pool).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record(trace) -> dict:
    return {
        "total_steps": trace.total_steps,
        "commit_sequence": list(trace.commit_sequence),
        "goals": [[gid, o.state.value, o.spent, o.found, o.committed, o.aborted_by_meta]
                  for gid, o in sorted(trace.outcomes.items())],
    }


def violations(rec: dict, budget_max: int) -> list[str]:
    out = []
    steps = rec["total_steps"]
    if steps > budget_max:
        out.append(f"total_steps {steps} > budget_max {budget_max}")
    spent = sum(g[2] for g in rec["goals"])
    if spent != steps:
        out.append(f"goals spent {spent} steps, episode ran {steps}")
    for gid, state, _, found, committed, _ in rec["goals"]:
        if found and not committed:
            out.append(f"goal {gid} found but not committed")
        if steps < budget_max and state == "ACTIVE":
            out.append(f"goal {gid} left ACTIVE when the episode ended early")
    return out


def load_reference(path: Path = REFERENCE) -> dict:
    """{workload kind: {operation key: record}} at the default seed."""
    return json.loads(path.read_text())["records"]


def reference_kind(workload: str) -> str:
    return "sweep" if workload == "sweep" else "suite"


class Ledger:
    """Counts operations attempted and failed across every check of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[str] = set()
        self.notes: list[str] = []

    def fail(self, tag: str, key: str, why: str) -> None:
        name = f"{tag}:{key}"
        if name not in self.failed and len(self.notes) < 20:
            self.notes.append(f"{name}: {why}")
            print(f"FAILED {name}: {why}", file=sys.stderr)
        self.failed.add(name)

    def check(self, tag: str, p, expected: dict | None = None) -> None:
        """Count the operations of pass `p` (records and errors) and fail
        those that raised, break an invariant, or differ from `expected`
        where it has the same key."""
        self.attempted += len(p.records) + len(p.errors)
        for key in p.errors:
            self.fail(tag, key, "raised")
        for key, rec in p.records.items():
            bad = violations(rec, p.budgets[key])
            if bad:
                self.fail(tag, key, "; ".join(bad))
            if expected is not None and key in expected and expected[key] != rec:
                self.fail(tag, key, f"record {rec} != expected {expected[key]}")

    def failed_frac(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 1.0
