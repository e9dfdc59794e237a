"""Check records and their serialization.

Every suite run produces a flat list of records; rendering is byte-stable
(fixed key order via sorted keys, records sorted by check id upstream).  A
record refuses a field that is not a string or reads as a float, so
reports stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

PASS = "pass"
VIOLATION = "violation"
UNVERIFIABLE = "unverifiable"

_STATUSES = (PASS, VIOLATION, UNVERIFIABLE)


@dataclass(frozen=True)
class CheckRecord:
    """One verdict: which suite and structure, which check, what happened.

    witness_values carries exact value strings: produced witnesses on a
    pass (split parts, echoed moduli), counterexample values on a
    violation.  paper_anchor names the law family the check exercises.
    """

    suite: str
    structure: str
    check_id: str
    status: str
    witness_values: tuple[str, ...] = ()
    paper_anchor: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        for v in (self.suite, self.structure, self.check_id, self.paper_anchor,
                  *self.witness_values):
            if not isinstance(v, str):
                raise TypeError(f"record fields must be strings, got {v!r}")
            _reject_float_text(v)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "structure": self.structure,
            "check_id": self.check_id,
            "status": self.status,
            "witness_values": list(self.witness_values),
            "paper_anchor": self.paper_anchor,
        }


def _reject_float_text(text: str) -> None:
    # a digit immediately on both sides of a dot reads as a float literal
    for i in range(1, len(text) - 1):
        if text[i] == "." and text[i - 1].isdigit() and text[i + 1].isdigit():
            raise ValueError(f"floating-point text is not allowed in reports: {text!r}")


def fmt_value(fmt: Callable, v) -> str:
    """Exact string for a value: ints and strings as-is, anything else
    through the structure formatter.  Tuples are tried whole first (some
    structures' elements are tuples with their own formatter), falling back
    to elementwise rendering for bags of mixed values."""
    if isinstance(v, bool) or isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        if fmt is not str:
            try:
                return fmt(v)
            except Exception:
                pass
        return "(" + ", ".join(fmt_value(fmt, x) for x in v) + ")"
    return fmt(v)


def violation_values(violations: Sequence, fmt: Callable) -> tuple[str, ...]:
    """Law slugs and counterexample values of the first three violations."""
    vals: list[str] = []
    for v in violations[:3]:
        vals.append(v.law)
        vals.extend(fmt_value(fmt, x) for x in v.values)
    return tuple(vals)


def render_json_lines(records: Iterable[CheckRecord]) -> str:
    """One JSON object per line, keys sorted; empty input renders empty."""
    lines = [json.dumps(rec.as_dict(), sort_keys=True) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def render_text(records: Iterable[CheckRecord]) -> str:
    """Human-readable summary: one line per check plus a tally."""
    records = list(records)
    lines = []
    tally = {PASS: 0, VIOLATION: 0, UNVERIFIABLE: 0}
    for rec in records:
        tally[rec.status] += 1
        extra = f"  [{', '.join(rec.witness_values)}]" if rec.witness_values else ""
        lines.append(f"{rec.status:>12}  {rec.structure}  {rec.check_id}{extra}")
    if records:
        lines.append(
            f"checks: {len(records)}  pass: {tally[PASS]}  "
            f"violations: {tally[VIOLATION]}  unverifiable: {tally[UNVERIFIABLE]}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def exit_code(records: Iterable[CheckRecord]) -> int:
    """0 all pass; 1 any violation; 3 unverifiable (and nothing worse)."""
    worst = 0
    for rec in records:
        if rec.status == VIOLATION:
            return 1
        if rec.status == UNVERIFIABLE:
            worst = 3
    return worst
