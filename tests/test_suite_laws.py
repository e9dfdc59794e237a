"""The suites and the library verifiers share one law body per check.

No registered structure breaks a law, so the violation branches are driven
with deliberately broken witnesses on a copy of the rationals.  Each suite
calls its law's public verifier one target at a time.
"""

import ast
import dataclasses
import random
from fractions import Fraction as F

import pytest

from ordalab import (
    CapabilityError,
    ConvCert,
    EvalError,
    RunConfig,
    Seq,
    Violation,
    lookup,
    verify_conv_cert,
)
from ordalab.order import verify_archimedean, verify_density, verify_shrink
from ordalab.report import violation_values
from ordalab.series import (
    archimedean_power_modulus,
    geometric_cert,
    geometric_limit,
    power_limit_is_zero,
)
from ordalab.suites import _Collector, _suite_density, _suite_geometric, _suite_shrink
from src_size import PACKAGE, private_imports


def _by_id(records):
    return {r.check_id: r for r in records}


def _agrees_with(record, violations, fmt):
    if violations:
        return record.status == "violation" and record.witness_values == violation_values(
            violations, fmt)
    return record.status == "pass"


def test_density_suite_reports_the_library_violations():
    # thirds down to 1/64, then a split that does not land below its target:
    # coarse targets pass, finer ones break at the first, second or third split
    def split(eps):
        return (eps / 3, eps / 3) if eps >= F(1, 64) else (eps, eps)

    q = dataclasses.replace(lookup("Q"), density=split)
    recs = _by_id(_suite_density(q, RunConfig(structure="Q"), random.Random(0)))
    statuses = set()
    for eps in q.eps_grid:
        rec = recs[f"density.split[{q.fmt(eps)}]"]
        assert _agrees_with(rec, verify_density(q, grid=[eps]), q.fmt), eps
        statuses.add(rec.status)
    assert statuses == {"pass", "violation"}
    assert recs["density.split[1/2]"].witness_values == ("1/6", "1/6")


def test_shrink_suite_reports_the_library_violations():
    base = lookup("Q")

    def shrink(alpha, bound):
        if alpha >= F(1, 64):
            return base.shrink(alpha, bound)
        # right product fails for bounds >= 1; non-positive part from 2 on
        return (alpha / (2 * bound), alpha) if bound < 2 else (-alpha, alpha)

    q = dataclasses.replace(base, shrink=shrink)
    bounds = tuple(x for x in q.sample if q.is_positive(x))[:4]
    recs = _by_id(_suite_shrink(q, RunConfig(structure="Q"), random.Random(0)))
    laws = set()
    for alpha in q.eps_grid:
        rec = recs[f"shrink.bound[{q.fmt(alpha)}]"]
        found = verify_shrink(q, targets=[alpha], bounds=bounds)
        assert _agrees_with(rec, found, q.fmt), alpha
        laws |= {v.law for v in found}
    assert laws == {"shrink.right-product", "shrink.positivity"}
    assert recs["shrink.bound[1/2]"].status == "pass"


def test_power_modulus_reports_a_broken_archimedean_witness():
    # wrong only for negative y; the modulus asks only about y = 1, so the
    # certificate builds and verifies, and only the witness check fails
    base = lookup("Q")

    def exceeds(x, y):
        return 0 if y < 0 else base.archimedean(x, y)

    q = dataclasses.replace(base, archimedean=exceeds)
    found = verify_archimedean(q)
    assert found and found[0].law == "archimedean.count"
    space = q.metrics[0]
    cert = archimedean_power_modulus(q, space, F(1, 2))
    assert verify_conv_cert(cert, q.eps_grid, 64) == []
    recs = _by_id(_suite_geometric(q, RunConfig(structure="Q"), random.Random(0)))
    rec = recs["geometric.power-modulus"]
    assert rec.status == "violation"
    assert rec.witness_values == violation_values(found, space.codomain.fmt)
    assert recs["geometric.certificate"].status == "pass"
    sound = _by_id(_suite_geometric(base, RunConfig(structure="Q"), random.Random(0)))
    assert sound["geometric.power-modulus"].status == "pass"


def test_ratio_one_is_refused_by_one_rule():
    q = lookup("Q")
    c0 = ConvCert(q.metrics[0], Seq("1", lambda n: F(1)), F(1), lambda eps: 1)
    message = "^Q: ratio 1 has no geometric limit$"
    with pytest.raises(ValueError, match=message):
        geometric_limit(q, F(1))
    with pytest.raises(ValueError, match=message):
        geometric_cert(q, q.metrics[0], F(1), c0, F(1))
    with pytest.raises(ValueError, match=message):
        power_limit_is_zero(q, c0, F(1))
    assert geometric_limit(q, F(1, 3)) == F(3, 2)


def test_no_module_imports_a_private_name_from_another_module():
    assert private_imports() == []


SHAPES = {"RationalTerm", "PowerTerm"}
# shapes that series builds as well, whose type only the accessor tests
BUILT_SHAPES = {"PartialSums", "CondensedTerm"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _calls(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def shape_type_tests():
    """(module, line) for each place a module other than sequences and
    termexpr names a term shape class, and each test of a term's type
    against one, or against PartialSums or CondensedTerm, in sequences
    outside the accessor shape_fact."""
    out = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        if p.name not in ("sequences.py", "termexpr.py"):
            out += [(p.name, n.lineno) for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and n.id in SHAPES
                    or isinstance(n, ast.ImportFrom) and SHAPES & {a.name for a in n.names}]
        if p.name != "sequences.py":
            continue
        accessor = {id(n) for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef) and f.name == "shape_fact"
                    for n in ast.walk(f)}
        for n in ast.walk(tree):
            operands = [n.left, *n.comparators] if isinstance(n, ast.Compare) else []
            typed = (any(_calls(o, "type") for o in operands)
                     or _calls(n, "isinstance") or _calls(n, "issubclass"))
            if typed and (SHAPES | BUILT_SHAPES) & _names(n) and id(n) not in accessor:
                out.append((p.name, n.lineno))
    return out


def test_only_the_accessor_tests_a_term_shape_by_its_type():
    assert shape_type_tests() == []


def powers_uses():
    """(module, line) for each call or import of order.powers outside order
    and sequences, where sequences.power_seq builds every power sequence."""
    out = []
    for p in sorted(PACKAGE.glob("*.py")):
        if p.name in ("order.py", "sequences.py"):
            continue
        for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            called = isinstance(n, ast.Call) and (
                _calls(n, "powers")
                or isinstance(n.func, ast.Attribute) and n.func.attr == "powers")
            imported = isinstance(n, ast.ImportFrom) and "powers" in {a.name for a in n.names}
            if called or imported:
                out.append((p.name, n.lineno))
    return out


def test_only_order_and_sequences_call_powers():
    assert powers_uses() == []


def test_collector_cert_turns_a_modulus_error_into_a_window_violation():
    q = lookup("Q")
    bad = F(1, 8)

    def modulus(eps):
        if eps == bad:
            raise ValueError("no window at this scale")
        return 1 + int(1 / eps)

    cert = ConvCert(q.metrics[0], Seq("1/n", lambda n: F(1, n)), F(0), modulus)
    col = _Collector("sequence", q)
    col.cert("sequence.probe", "cauchy.modulus", lambda: cert, verify_conv_cert,
             q.eps_grid, 8, q.fmt)
    # the other scales are verified, and pass
    [rec] = col.records
    assert rec.status == "violation"
    assert rec.witness_values == violation_values(
        [Violation("modulus.window", (bad,), "no window at this scale")], q.fmt)


def test_collector_cert_records_a_failed_scan_at_its_epsilon_only():
    q = lookup("Q")
    half, quarter = F(1, 2), F(1, 4)
    verified = []

    def verify(cert, grid, horizon):
        verified.append(tuple(grid))
        return verify_conv_cert(cert, grid, horizon)

    def modulus(eps):
        if eps == quarter:
            raise ValueError("no window at this scale")
        return 1  # too early: 1/1 and 1/2 are not below 1/2

    cert = ConvCert(q.metrics[0], Seq("1/n", lambda n: F(1, n)), F(0), modulus)
    col = _Collector("series", q)
    col.cert("series.probe", "limit.zero", lambda: cert, verify, (half, quarter), 8, q.fmt)
    # the failed scan is a violation at 1/4; 1/2 alone is verified
    assert verified == [(half,)]
    expected = [Violation("modulus.window", (quarter,), "no window at this scale")]
    expected += verify_conv_cert(cert, [half], 8)
    assert [v.law for v in expected] == ["modulus.window"] + ["convergence.within"] * 2
    [rec] = col.records
    assert rec.status == "violation"
    assert rec.witness_values == violation_values(expected, q.fmt)

    good = ConvCert(q.metrics[0], cert.seq, F(0), lambda eps: 1 + int(1 / eps))
    col.cert("series.good", "limit.zero", lambda: good, verify, (half, quarter), 8, q.fmt)
    assert col.records[1].status == "pass"
    assert col.records[1].witness_values == ("N(1/2)=3", "N(1/4)=5")

    def bad_term(eps):
        raise EvalError("division by zero at n=1")

    broken = ConvCert(q.metrics[0], cert.seq, F(0), bad_term)
    with pytest.raises(EvalError, match="division by zero"):
        col.cert("series.bad", "limit.zero", lambda: broken, verify, (half,), 8, q.fmt)


def test_collector_cert_reports_a_capability_error_in_build_as_unverifiable():
    q = lookup("Q")

    def build():
        raise CapabilityError("Q has no pseudonorm registered")

    col = _Collector("sequence", q)
    col.cert("sequence.probe", "cauchy.product", build, verify_conv_cert,
             q.eps_grid, 8, q.fmt)
    [rec] = col.records
    assert (rec.status, rec.witness_values) == ("unverifiable", ())

    def bad_term():
        raise EvalError("division by zero", 3)

    with pytest.raises(EvalError, match="at n=3"):
        col.cert("sequence.bad", "cauchy.modulus", bad_term, verify_conv_cert,
                 q.eps_grid, 8, q.fmt)
    assert len(col.records) == 1
