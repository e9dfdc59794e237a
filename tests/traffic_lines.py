"""Print every function of ``src/ordalab`` that no pinned benchmark op
enters, and every statement of an entered function that no op executes.

Each op of the pinned seeds' rounds runs once, through ``replay_pins.py``'s
op loop, under ``sys.settrace``; the tracer notes each ``ordalab`` function
a call enters and each ``ordalab`` line it executes.  Every function and
lambda the modules define (comprehensions, module and class bodies aside)
that no op entered is then printed as ``module:line qualified.name``.  A
function listed here is reached only by tests, or by no one: the only path
for input no workload sends, a reference kept beside a fast path, or dead
code.  Then, module by module, every statement (or ``except`` clause) of a
``def`` that some op entered is printed the same way when no op executed
any line of it that holds code of its own, outside the statements and
functions nested in it: a branch no workload takes, or a test that is never
true.  Last, every operand of a condition that some op evaluated is
printed when no op took it: the body or the ``else`` of an ``if`` whose
test ran, either side of an ``x if c else y`` whose ``c`` ran, and each
operand after the first of an ``and``/``or`` whose first operand ran.  An
operand is taken when an instruction whose source span lies inside it
runs (per-opcode tracing), so a path folded into one line of conditions
shows.  The three counts close the output.  Nothing is written.

Run from the repository root (a few minutes):

    python tests/traffic_lines.py
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

from replay_pins import ROOT, load_pins, pinned_ops

PACKAGE = ROOT / "src" / "ordalab"
# function code objects that are not functions a reader would look up
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_functions():
    """The code object of every function in the package, by file and first
    line."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # module and class bodies run at import and are not optimized
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in _COMPREHENSIONS:
                out.append(code)
    return sorted(out, key=lambda c: (c.co_filename, c.co_firstlineno, c.co_name))


def _key(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _children(node) -> list:
    """The statements and except clauses directly inside node."""
    return [c for name in ("body", "orelse", "finalbody", "handlers")
            for c in getattr(node, name, ())]


def _statements(body: list):
    """Every statement and except clause in body, down to nested defs and
    classes, whose bodies belong to them."""
    for node in body:
        yield node
        if not isinstance(node, _DEFS):
            yield from _statements(_children(node))


def _own_lines(node) -> set:
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in _children(node):
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def function_statements() -> dict:
    """For each def in the package, keyed as its code object: the first
    line and own lines of every statement in it."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out[str(path), first, fn.name] = [
                    (s.lineno, _own_lines(s)) for s in _statements(fn.body)]
    return out


def _span(first, last=None) -> tuple:
    last = last or first
    return first.lineno, first.col_offset, last.end_lineno, last.end_col_offset


def branch_operands() -> list:
    """(file, line, kind, the span whose running reaches the condition,
    the spans of its operands that may go untaken) for every if statement,
    conditional expression and and/or in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.If):
                operands = [("body", _span(node.body[0], node.body[-1]))]
                if node.orelse:
                    operands.append(("else", _span(node.orelse[0], node.orelse[-1])))
                out.append((str(path), node.lineno, "if", _span(node.test), operands))
            elif isinstance(node, ast.IfExp):
                out.append((str(path), node.lineno, "if-else", _span(node.test),
                            [("body", _span(node.body)), ("else", _span(node.orelse))]))
            elif isinstance(node, ast.BoolOp):
                word = "and" if isinstance(node.op, ast.And) else "or"
                out.append((str(path), node.lineno, word, _span(node.values[0]),
                            [(f"operand {i + 1}", _span(v))
                             for i, v in enumerate(node.values[1:], 1)]))
    return out


def ran_spans(ran: set) -> dict:
    """file -> start line -> the source spans (line, column, end line, end
    column) of the instructions that ran, from (code, offset) pairs."""
    positions: dict = {}
    out: dict = defaultdict(lambda: defaultdict(set))
    for code, offset in ran:
        if code not in positions:
            positions[code] = list(code.co_positions())
        line, end, col, end_col = positions[code][offset // 2]
        if line is not None and col is not None:
            out[code.co_filename][line].add((line, col, end, end_col))
    return out


def _inside(spans: dict, span: tuple) -> bool:
    line, col, end, end_col = span
    return any((line, col) <= (a, c) and (b, d) <= (end, end_col)
               for k in range(line, end + 1) for a, c, b, d in spans.get(k, ()))


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    entered, executed, ran = set(), set(), set()

    def lines(frame, event, arg):
        if event == "opcode":
            ran.add((frame.f_code, frame.f_lasti))
        elif event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add(_key(code))
            frame.f_trace_opcodes = True
            return lines
        return None

    ops = 0
    for _, call in pinned_ops(load_pins()):
        ops += 1
        sys.settrace(tracer)
        try:
            call()
        except Exception:  # replay_pins.py reports failing ops
            pass
        finally:
            sys.settrace(None)
    codes = defined_functions()
    missed = [c for c in codes if _key(c) not in entered]
    for c in missed:
        print(f"{Path(c.co_filename).name}:{c.co_firstlineno} {c.co_qualname}")
    print(f"{len(missed)} functions entered by none of {ops} ops")

    statements = function_statements()
    unexecuted: Counter = Counter()
    for c in codes:
        if _key(c) not in entered or _key(c) not in statements:
            continue  # not entered, or a lambda, which has no statements
        with_code = {line for _, _, line in c.co_lines() if line is not None}
        name = Path(c.co_filename).name
        for first, own in statements[_key(c)]:
            own &= with_code
            if own and not any((c.co_filename, line) in executed for line in own):
                print(f"{name}:{first} {c.co_qualname}")
                unexecuted[name] += 1
    per_module = ", ".join(f"{name} {k}" for name, k in sorted(unexecuted.items()))
    print(f"{sum(unexecuted.values())} statements of entered functions executed by none "
          f"of {ops} ops ({per_module})")

    spans = ran_spans(ran)
    untaken: Counter = Counter()
    for path, line, kind, reach, operands in sorted(branch_operands()):
        if not _inside(spans[path], reach):
            continue  # no op evaluated the condition
        for name, span in operands:
            if not _inside(spans[path], span):
                print(f"{Path(path).name}:{line} {kind}: {name}")
                untaken[Path(path).name] += 1
    per_module = ", ".join(f"{name} {k}" for name, k in sorted(untaken.items()))
    print(f"{sum(untaken.values())} operands of conditions that ops evaluated taken by none "
          f"of {ops} ops ({per_module})")
    print(f"untaken by {ops} ops: {len(missed)} functions, {sum(unexecuted.values())} "
          f"statements, {sum(untaken.values())} branch operands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
