"""The mutant list of ``tests/mutants.py`` stays runnable: a refactor that
moves a mutant's text away, or renames a test a mutant names, fails here
rather than only in the slow ``python tests/mutants.py`` run."""

import os
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_once_and_every_named_test_exists():
    for m in MUTANTS:
        text = (ROOT / "src" / "ordalab" / m.module).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, f"{m.name}: {m.old!r} in {m.module}"
    named = {t for m in MUTANTS for t in m.tests}
    files = sorted({t.split("::")[0] for t in named})
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *files], cwd=ROOT / "tests", env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True)
    ids = [line.removeprefix("tests/") for line in done.stdout.splitlines()]
    # a parametrized test's id without its brackets names all its cases
    collected = set(ids) | {i.split("[")[0] for i in ids}
    assert sorted(named - collected) == []
