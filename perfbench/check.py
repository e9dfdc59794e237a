"""Output checks: pinned results and the report contract.

An op fails when it raises, exits 2 (bad input), or its output breaks a
check.  Ops whose label is pinned in ``pins.json`` must reproduce the exit
code and the sha256 of the report bytes recorded from the seed commit; every
op, pinned or not, must also satisfy the report contract:

* JSON reports: one object per line with exactly the six record keys,
  records sorted by ``check_id``, statuses among pass, violation and
  unverifiable, no float values and no float text;
* text reports: one line per record in the same order, then the tally line;
* the exit code is the one the statuses imply (1 on any violation, else 3 on
  any unverifiable, else 0); exit 3 with no report at all means a missing
  capability stopped the command before any check ran.

Library ops report 0 and a non-empty list of result lines.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

_KEYS = {"check_id", "paper_anchor", "status", "structure", "suite", "witness_values"}
_STATUSES = ("pass", "violation", "unverifiable")
_FLOAT_TEXT = re.compile(r"\d\.\d")
# status, structure, check id (which may hold single spaces), witness values
_TEXT_RECORD = re.compile(r" *(pass|violation|unverifiable)  (\S+)  (\S.*?)(  \[.*\])?")
_TALLY = re.compile(r"checks: (\d+)  pass: (\d+)  violations: (\d+)  unverifiable: (\d+)")


def load_pins() -> dict[str, list]:
    """{op label: [exit code, sha256 hex]} from the seed commit."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def implied_exit(statuses) -> int:
    statuses = list(statuses)
    if "violation" in statuses:
        return 1
    return 3 if "unverifiable" in statuses else 0


def check_op(op, rc: int, out: bytes, pins: dict) -> str | None:
    """None when the op's result is acceptable, else the reason it failed."""
    pinned = pins.get(op.label)
    if pinned is not None and [rc, digest(out)] != pinned:
        return f"differs from the pinned result (exit {rc}, pinned exit {pinned[0]})"
    if op.kind == "lib":
        return None if rc == 0 and out.strip() else "library op gave no result"
    if rc not in (0, 1, 3):
        return f"exit code {rc}"
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError:
        return "report is not UTF-8"
    if not text:
        return None if rc == 3 else f"empty report with exit {rc}"
    if not text.endswith("\n"):
        return "report does not end with a newline"
    lines = text[:-1].split("\n")
    text_format = "--format" in op.args and op.args[op.args.index("--format") + 1] == "text"
    records = _text_records(lines) if text_format else _json_records(lines)
    if isinstance(records, str):
        return records
    ids = [check_id for check_id, _ in records]
    if ids != sorted(ids):
        return "records are not sorted by check_id"
    implied = implied_exit(status for _, status in records)
    if rc != implied:
        return f"exit {rc}, but the statuses imply {implied}"
    return None


def _json_records(lines):
    records = []
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            return f"not a JSON record: {line[:80]!r}"
        if not isinstance(rec, dict) or set(rec) != _KEYS:
            return f"record keys differ: {line[:80]!r}"
        values = rec["witness_values"]
        if not isinstance(values, list):
            return "witness_values is not a list"
        strings = [rec[k] for k in sorted(_KEYS - {"witness_values"})] + values
        if not all(isinstance(v, str) for v in strings):
            return f"non-string field: {line[:80]!r}"
        if any(_FLOAT_TEXT.search(v) for v in strings):
            return f"float text in a report: {line[:80]!r}"
        if rec["status"] not in _STATUSES:
            return f"bad status {rec['status']!r}"
        records.append((rec["check_id"], rec["status"]))
    return records


def _text_records(lines):
    *body, tally_line = lines
    tally = _TALLY.fullmatch(tally_line)
    if tally is None:
        return f"no tally line: {tally_line[:80]!r}"
    records = []
    for line in body:
        m = _TEXT_RECORD.fullmatch(line)
        if m is None:
            return f"not a text record: {line[:80]!r}"
        if _FLOAT_TEXT.search(line):
            return f"float text in a report: {line[:80]!r}"
        records.append((m.group(3), m.group(1)))
    counts = [len(records)] + [sum(1 for _, s in records if s == st) for st in _STATUSES]
    if counts != [int(g) for g in tally.groups()]:
        return "tally does not match the records"
    return records
