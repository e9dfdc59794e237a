"""The suites and the library verifiers share one law body per check.

No registered structure breaks a law, so the violation branches are driven
with deliberately broken witnesses on a copy of the rationals.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from ordalab import (
    ConvCert,
    DensityWitness,
    EvalError,
    RunConfig,
    Seq,
    ShrinkWitness,
    Violation,
    lookup,
    verify_conv_cert,
)
from ordalab.order import verify_density, verify_shrink
from ordalab.report import violation_values
from ordalab.suites import _Collector, _suite_density, _suite_shrink


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

    q = dataclasses.replace(lookup("Q"), density=DensityWitness(split))
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
            return base.shrink.shrink(alpha, bound)
        # right product fails for bounds >= 1; non-positive part from 2 on
        return (alpha / (2 * bound), alpha) if bound < 2 else (-alpha, alpha)

    q = dataclasses.replace(base, shrink=ShrinkWitness(shrink))
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


def test_collector_cert_turns_a_modulus_error_into_value_rejected():
    q = lookup("Q")

    def modulus(eps):
        raise ValueError("no window at this scale")

    cert = ConvCert(q.metrics[0], Seq("1/n", lambda n: F(1, n)), F(0), modulus)
    col = _Collector("sequence", q)
    col.cert("sequence.probe", "cauchy.modulus", lambda: cert, verify_conv_cert,
             q.eps_grid, 8, q.fmt)
    [rec] = col.records
    assert rec.status == "violation"
    assert rec.witness_values == ("value.rejected", "no window at this scale")


def test_collector_windows_records_a_failed_scan_at_its_epsilon_only():
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
    col.windows("series.probe", "limit.zero", cert, (half, quarter), 8, verify, q.fmt)
    # the failed scan is a violation at 1/4; 1/2 alone is verified
    assert verified == [(half,)]
    expected = [Violation("modulus.window", (quarter,), "no window at this scale")]
    expected += verify_conv_cert(cert, [half], 8)
    assert [v.law for v in expected] == ["modulus.window"] + ["convergence.within"] * 2
    [rec] = col.records
    assert rec.status == "violation"
    assert rec.witness_values == violation_values(expected, q.fmt)

    good = ConvCert(q.metrics[0], cert.seq, F(0), lambda eps: 1 + int(1 / eps))
    col.windows("series.good", "limit.zero", good, (half, quarter), 8, verify, q.fmt)
    assert col.records[1].status == "pass"
    assert col.records[1].witness_values == ("N(1/2)=3", "N(1/4)=5")

    def bad_term(eps):
        raise EvalError("division by zero at n=1")

    broken = ConvCert(q.metrics[0], cert.seq, F(0), bad_term)
    with pytest.raises(EvalError, match="division by zero"):
        col.windows("series.bad", "limit.zero", broken, (half,), 8, verify, q.fmt)
