"""Print every function of ``src/ordalab`` that no pinned benchmark op enters.

Each op of the pinned seeds' rounds runs once, through ``replay_pins.py``'s
op loop, under ``sys.settrace``; the tracer notes each ``ordalab`` function
a call enters and traces nothing inside it.  Every function and lambda the
modules define (comprehensions, module and class bodies aside) that no op
entered is then printed as ``module:line qualified.name``.  A function listed here is reached only
by tests, or by no one: the only path for input no workload sends, a
reference kept beside a fast path, or dead code.  Nothing is written.

Run from the repository root (about a minute):

    python tests/traffic_lines.py
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

from replay_pins import ROOT, load_pins, pinned_ops

PACKAGE = ROOT / "src" / "ordalab"
# function code objects that are not functions a reader would look up
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def defined_functions():
    """(file, first line, name, qualified name) of every function in the
    package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # module and class bodies run at import and are not optimized
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in _COMPREHENSIONS:
                out.append((code.co_filename, code.co_firstlineno, code.co_name,
                            getattr(code, "co_qualname", code.co_name)))
    return sorted(out)


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None  # no line events inside the frame

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
    missed = [f for f in defined_functions() if f[:3] not in entered]
    for filename, line, _, name in missed:
        print(f"{Path(filename).name}:{line} {name}")
    print(f"{len(missed)} functions entered by none of {ops} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
