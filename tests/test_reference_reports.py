"""Whole reports under the bundled registry against the reference registry.

``tests/reference_registry.py`` rebuilds the registry with every fast path
turned off.  Each drawn ``check``, ``series`` or ``algebra`` invocation must
give the same exit code and the same stdout bytes under both registries.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ordalab import cli, order, registry
from ordalab.suites import SERIES_TESTS, SUITE_NAMES
from reference_registry import PLAIN, WRAPPED, reference_registry, use_reference_registry

REFERENCE = reference_registry()
STRUCTURES = sorted(registry())
horizons = st.integers(1, 8)
formats = st.sampled_from(((), ("--format", "text")))


def test_the_reference_registry_turns_every_fast_path_off():
    fast = registry()
    assert sorted(REFERENCE) == STRUCTURES
    for key, h in REFERENCE.items():
        assert not h._direct and not h._int_terms, key
        for name in WRAPPED:
            assert (getattr(h, name) is None) is (getattr(fast[key], name) is None), (key, name)
        for attr in ("metrics", "norms", "pnorms"):
            assert [x.name for x in getattr(h, attr)] == [
                x.name for x in getattr(fast[key], attr)], (key, attr)
        assert all(sp._group is None for sp in h.metrics), key
    assert any(sp._group is not None for h in fast.values() for sp in h.metrics)
    # every function of the Fraction kernel has a Python operator to stand in
    assert set(PLAIN) == {f for name, f in vars(order).items() if name.startswith("frac_")}


@st.composite
def grids(draw, key):
    """No --grid, or a decreasing subset of entries the carrier holds."""
    entries = ("1/3", "1/9", "1/27") if key == "Z[1/3]" else ("1/2", "1/4", "1/16", "1/64")
    picked = draw(st.lists(st.sampled_from(range(len(entries))), max_size=3, unique=True))
    return ("--grid", ",".join(entries[i] for i in sorted(picked))) if picked else ()


@st.composite
def check_argv(draw):
    key = draw(st.sampled_from(STRUCTURES))
    suite = draw(st.sampled_from(("all",) + SUITE_NAMES))
    return ["check", key, "--suite", suite, "--seed", str(draw(st.integers(0, 999))),
            "--horizon", str(draw(horizons)), *draw(grids(key)), *draw(formats)]


@st.composite
def series_argv(draw):
    # the carriers whose elements the terms below denote, and Z, whose
    # inverses mostly fail
    key = draw(st.sampled_from(("Q", "Z[1/2]", "Z[1/3]", "Z(X)", "Q(i)", "Z")))
    test = draw(st.sampled_from(SERIES_TESTS))
    horizon = draw(horizons)
    c = draw(st.integers(1, 5))
    if key == "Z(X)":
        a, b = draw(st.integers(1, 2)), draw(st.integers(-2, 2))
        shift = f"{b:+d}" if b else ""
        term = draw(st.sampled_from((f"{c}/(X^{a}{shift})^n", f"{c}/(X{shift})^n",
                                     f"{c}*pow(1/({abs(b)}-X), n)")))
        if test == "condensation":  # its backward modulus probes 2^horizon
            horizon = min(horizon, 3)
    else:
        # power terms c*r^n, with a negative ratio now and then
        powers = [f"{c}/2^n", f"{c}/3^n", draw(st.sampled_from(
            ("pow(1/2, n)", "pow(2/3, n)", "pow(3/4, n)", "pow(1/3, n)"))),
            f"{c}*pow({draw(st.sampled_from(('1/2', '2/3', '1/3', '(0-1)/2', '(0-2)/3')))}, n)"]
        # condensation of a divergent term scans without bound
        k = draw(st.integers(1 if test != "condensation" else 2, 4))
        term = draw(st.sampled_from(powers + [f"{c}/n^{k}", f"1/(n+{c})^{k}"]))
    return ["series", term, "--structure", key, "--test", test,
            "--horizon", str(horizon), *draw(grids(key)), *draw(formats)]


@st.composite
def algebra_argv(draw):
    """A table as the benchmark draws them (small numerators over 1, 2, 3),
    of dimension at most 3."""
    n = draw(st.integers(1, 3))
    gamma = [str(F(draw(st.integers(-2, 2)), draw(st.sampled_from((1, 1, 2, 3)))))
             for _ in range(n ** 3)]
    table = json.dumps({"name": f"T{n}", "n": n, "gamma": gamma})
    return ["algebra", table, "--seed", str(draw(st.integers(0, 999))), *draw(formats)]


def run(argv):
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@settings(max_examples=30, deadline=timedelta(seconds=5))
@given(st.one_of(check_argv(), series_argv(), algebra_argv()))
def test_reports_match_under_the_reference_registry(argv):
    with tempfile.TemporaryDirectory(prefix="ordalab-ref-") as tmp:
        if argv[0] == "algebra":
            path = Path(tmp) / "table.json"
            path.write_text(argv[1], encoding="utf-8")
            argv = ["algebra", str(path), *argv[2:]]
        fast = run(argv)
        with use_reference_registry(REFERENCE):
            assert run(argv) == fast
