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
true.  Nothing is written.

Run from the repository root (a few minutes):

    python tests/traffic_lines.py
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
from collections import Counter
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


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    entered, executed = set(), set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add(_key(code))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
