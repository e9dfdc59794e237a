"""Series machinery: partial sums, condensation, geometric sums, inequalities."""

import re
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    CapabilityError,
    CauchyCert,
    MonotoneKind,
    Seq,
    Series,
    abs_conv_cauchy,
    alternating_cauchy,
    archimedean_power_modulus,
    bernoulli_check,
    cauchy_sum,
    check_monotone,
    condensation_inequalities,
    condense,
    condensed_terms,
    geometric_cert,
    lookup,
    power_limit_is_zero,
    ratio_cauchy,
    scanned_cauchy_cert,
    scanned_conv_cert,
    seq_from_expr,
    terms_vanish,
    verify_cauchy_cert,
    verify_conv_cert,
)
from ordalab import series
from ordalab.cli import main
from ordalab.poly import RF_ONE, X
from ordalab.series import terms_from_partials
from term_oracle import condensed_term_reference

Q = lookup("Q")
SPACE = Q.metrics[0]
NG = Q.norms[0]
GRID = Q.eps_grid


def harmonic_terms():
    return Seq("1/n", lambda n: F(1, n))


def halves():
    return Seq("1/2^n", lambda n: F(1, 2**n))


def test_series_partials_pins():
    s = Series(Q, harmonic_terms())
    assert s.partials(1) == F(1)
    assert s.partials(3) == F(11, 6)
    assert s.partials(4) == F(25, 12)


def test_terms_from_partials_inverts_partials():
    s = Series(Q, halves())
    back = terms_from_partials(Q, s.partials)
    for n in range(1, 10):
        assert back(n) == F(1, 2**n)


def test_cauchy_sum():
    a = scanned_cauchy_cert(SPACE, Series(Q, halves()).partials)
    b = scanned_cauchy_cert(
        SPACE, Series(Q, Seq("1/3^n", lambda n: F(1, 3**n))).partials
    )
    total = cauchy_sum(a, b, Q)
    assert verify_cauchy_cert(total, GRID, 32) == []
    assert total.seq(2) == (F(1, 2) + F(1, 4)) + (F(1, 3) + F(1, 9))


def test_terms_vanish():
    partials = Series(Q, halves()).partials
    c = scanned_conv_cert(SPACE, partials, F(1))
    vanish = terms_vanish(c, Q, series_terms=halves())
    assert vanish.limit == Q.identity
    assert verify_conv_cert(vanish, GRID, 32) == []


def test_condensed_terms_pins():
    cond = condensed_terms(Q, harmonic_terms())
    # 2^(j-1) copies of 1/2^(j-1) is exactly one, at every j
    for j in range(1, 8):
        assert cond(j) == F(1)
    cond2 = condensed_terms(Q, halves())
    assert cond2(3) == 4 * F(1, 2**4)


@st.composite
def condensable_terms(draw):
    """A carrier and a term over it: rational in n, or c r^n with r a unit.
    Over Z(X), whose powers of a ratio grow with n, a power term is
    condensed only up to term 6 (index 32)."""
    key = draw(st.sampled_from(("Q", "Z[1/2]", "Z[1/3]", "Z(X)")))
    a, b = draw(st.integers(1, 9)), draw(st.integers(0, 9))
    if key == "Q":
        shapes = (f"{a}/(n+{b})", f"{a}*pow({b}/{a + b + 1}, n)", f"(n-{b})/(n^2+{a})")
    elif key == "Z(X)":
        shapes = (f"{a}/(X+n+{b})", f"(X-{b})/(n^2+{a})", f"{a}*n*X/(X^2+n)",
                  f"{a}*pow(1/(X+{b}), n)")
    else:
        p = int(key[-2])
        shapes = (f"{a}/{p}^n", f"(n-{b})/{p}^n", f"{a}*pow({p + 1}/{p}, n)",
                  f"n^2-{b}*n")
    src = draw(st.sampled_from(shapes))
    return key, src, 6 if key == "Z(X)" and "pow" in src else 12


@given(condensable_terms())
def test_condensed_terms_match_the_doubling_path(case):
    key, src, top = case
    handle = lookup(key)
    x = seq_from_expr(src, handle)
    cond = condensed_terms(handle, x)
    for j in range(1, top + 1):
        want = condensed_term_reference(handle, x, j)
        assert handle.eq(cond(j), want), (key, src, j)
        assert handle.fmt(cond(j)) == handle.fmt(want), (key, src, j)


def test_a_condensed_term_is_one_product_not_a_doubling_of_its_term():
    x = seq_from_expr("pow(2/3, n)", Q)
    far = x(8192)
    doubled = []

    def op(a, b):
        if a == b and a and (a / far).denominator == 1:
            doubled.append(a / far)  # a multiple of x_8192 added to itself
        return Q.op(a, b)

    assert condensed_terms(replace(Q, op=op), x)(14) == 8192 * far
    assert doubled == []  # 2, 4, ..., 4096: 13 doublings of x_8192 by nat_mul


def test_condensed_terms_need_a_second_operation_and_a_one():
    # raised when the sequence is built, before any term is evaluated
    with pytest.raises(CapabilityError, match="lex has no second operation"):
        condensed_terms(lookup("lex"), Seq("x", lambda n: 1 / 0))
    with pytest.raises(CapabilityError, match="Q has no multiplicative identity"):
        condensed_terms(replace(Q, one=None), halves())
    with pytest.raises(CapabilityError, match="no multiplicative identity"):
        condensation_inequalities(replace(Q, one=None), halves(), ns=[1], kls=[])


def test_condense_both_directions():
    x = halves()
    mono = check_monotone(Q, x, MonotoneKind.DECREASING_POSITIVE, 32)
    base = scanned_cauchy_cert(SPACE, Series(Q, x).partials, horizon=16)
    fwd = condense(Q, SPACE, x, mono, base, "forward")
    assert fwd.modulus(F(1, 2)) == 3
    assert verify_cauchy_cert(fwd, GRID, 8) == []
    back = condense(Q, SPACE, x, mono, fwd, "backward")
    assert back.modulus(F(1, 2)) == 7
    assert verify_cauchy_cert(back, GRID, 16) == []


def test_backward_condensation_needs_no_density_witness():
    # Z has none: the backward modulus 2^N(eps) - 1 splits nothing
    z = lookup("Z")
    ones = Seq("1", lambda n: 1)
    mono = check_monotone(z, ones, MonotoneKind.DECREASING_POSITIVE, 32)
    cond = CauchyCert(z.metrics[0], Seq("2^n-1", lambda n: 2**n - 1), lambda eps: 3)
    back = condense(z, z.metrics[0], ones, mono, cond, "backward")
    assert back.seq(5) == 5 and back.modulus(1) == 7
    with pytest.raises(CapabilityError, match="Z has no density witness"):
        condense(z, z.metrics[0], ones, mono, cond, "forward")
    # over Q without its witness, backward still certifies what forward gave
    x = halves()
    mono = check_monotone(Q, x, MonotoneKind.DECREASING_POSITIVE, 32)
    base = scanned_cauchy_cert(SPACE, Series(Q, x).partials, horizon=16)
    fwd = condense(Q, SPACE, x, mono, base, "forward")
    back = condense(replace(Q, density=None), SPACE, x, mono, fwd, "backward")
    assert back.modulus(F(1, 2)) == 7
    assert verify_cauchy_cert(back, GRID, 16) == []


def test_condense_refuses_a_certificate_for_the_other_sums():
    # forward claims the plain sums and backward the condensed ones; each
    # direction names the sums it expected, at the first index that differs
    x = halves()
    mono = check_monotone(Q, x, MonotoneKind.DECREASING_POSITIVE, 32)
    base = scanned_cauchy_cert(SPACE, Series(Q, x).partials, horizon=16)
    fwd = condense(Q, SPACE, x, mono, base, "forward")
    message = ("sum(cond(1/2^n)): certificate is not for this series' partial sums "
               "(mismatch at index 2)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        condense(Q, SPACE, x, mono, fwd, "forward")
    message = ("sum(1/2^n): certificate is not for this series' condensed partial sums "
               "(mismatch at index 2)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        condense(Q, SPACE, x, mono, base, "backward")


def test_condense_rejects_unknown_direction():
    x = halves()
    mono = check_monotone(Q, x, MonotoneKind.DECREASING_POSITIVE, 32)
    base = scanned_cauchy_cert(SPACE, Series(Q, x).partials, horizon=16)
    with pytest.raises(ValueError):
        condense(Q, SPACE, x, mono, base, "sideways")


def test_condensation_inequalities_hold_for_decreasing_terms():
    kls = [(k, l) for k in range(0, 5) for l in range(k, 5)]
    assert condensation_inequalities(Q, halves(), ns=range(1, 6), kls=kls) == []
    assert condensation_inequalities(Q, harmonic_terms(), ns=range(1, 6), kls=kls) == []


def test_condensation_inequalities_flag_increasing_terms():
    out = condensation_inequalities(Q, Seq("n", lambda n: F(n)), ns=[2], kls=[])
    assert out and out[0].law == "condensation.forward-block"


def test_condensation_inequalities_validate_indices():
    with pytest.raises(ValueError):
        condensation_inequalities(Q, halves(), ns=[0], kls=[])
    with pytest.raises(ValueError):
        condensation_inequalities(Q, halves(), ns=[], kls=[(2, 1)])
    with pytest.raises(ValueError):
        condensation_inequalities(Q, halves(), ns=[], kls=[(-1, 1)])


def test_geometric_cert_rational_pins():
    cases = [
        (F(1, 2), F(2), {2: F(7, 4), 3: F(15, 8)}),
        (F(-1, 2), F(2, 3), {2: F(3, 4), 3: F(5, 8)}),
        (F(1, 3), F(3, 2), {2: F(13, 9), 3: F(40, 27)}),
    ]
    for r, inv, partial_pins in cases:
        powers = Seq(f"pow({r})", lambda n, r=r: r**n)
        c0 = scanned_conv_cert(SPACE, powers, F(0))
        g = geometric_cert(Q, SPACE, r, c0, inv)
        assert g.limit == inv
        for idx, val in partial_pins.items():
            assert g.seq(idx) == val
        assert verify_conv_cert(g, GRID, 32) == []


@pytest.mark.parametrize("name, term, k", [
    ("pow(1/3)", lambda n: F(1, 3) ** n, 1),  # the powers of another ratio
    *((f"late-{k}", lambda n, k=k: F(1, 2) ** n + (F(1, 10**9) if n >= k else 0), k)
      for k in (2, 7, 33)),
], ids=["another-ratio", "index-2", "index-7", "index-33"])
def test_geometric_cert_names_the_index_where_the_terms_leave_the_powers(name, term, k):
    c0 = scanned_conv_cert(SPACE, Seq(name, term), F(0))
    message = f"{name} is not the power sequence of 1/2 (index {k})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        geometric_cert(Q, SPACE, F(1, 2), c0, F(2))


@given(r=st.fractions(-3, 3, max_denominator=12).filter(lambda r: r != 1),
       j=st.integers(0, 32), d=st.fractions(-1, 1, max_denominator=10**6).filter(bool))
def test_geometric_cert_refuses_terms_that_agree_with_the_powers_up_to_j(r, j, d):
    # x_k = r^k for k <= j, then x leaves the powers: refused at index j + 1
    x = Seq("x", lambda n: r**n + (d if n > j else 0))
    c0 = scanned_conv_cert(SPACE, x, F(0))
    message = f"x is not the power sequence of {Q.fmt(r)} (index {j + 1})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        geometric_cert(Q, SPACE, r, c0, 1 / (1 - r))


def test_geometric_cert_rejects_a_wrong_inverse():
    powers = Seq("pow(1/2)", lambda n: F(1, 2) ** n)
    c0 = scanned_conv_cert(SPACE, powers, F(0))
    with pytest.raises(ValueError):
        geometric_cert(Q, SPACE, F(1, 2), c0, F(3))


def test_geometric_cert_needs_a_shrink_witness():
    powers = Seq("pow(1/2)", lambda n: F(1, 2) ** n)
    c0 = scanned_conv_cert(SPACE, powers, F(0))
    with pytest.raises(CapabilityError, match="Q has no shrink witness"):
        geometric_cert(replace(Q, shrink=None), SPACE, F(1, 2), c0, F(2))


def test_geometric_cert_over_rational_functions():
    zx = lookup("Z(X)")
    space = zx.metrics[0]
    r = RF_ONE / X
    powers = Seq("pow(1/X)", lambda n: r**n)
    c0 = scanned_conv_cert(space, powers, zx.identity)
    inv = zx.invert(zx.sub(zx.one, r))
    assert zx.fmt(inv) == "X/(X - 1)"
    g = geometric_cert(zx, space, r, c0, inv)
    assert zx.fmt(g.seq(2)) == "(X^2 + X + 1)/X^2"
    assert verify_conv_cert(g, zx.eps_grid, 16) == []


def test_localized_ring_cannot_invert_the_geometric_gap():
    z13 = lookup("Z[1/3]")
    with pytest.raises(ValueError, match="no inverse"):
        z13.invert(z13.sub(z13.one, F(1, 3)))


def test_archimedean_power_modulus_pin():
    c = archimedean_power_modulus(Q, SPACE, F(1, 2))
    assert c.modulus(F(1, 10)) == 11
    assert verify_conv_cert(c, GRID, 32) == []
    assert power_limit_is_zero(Q, c, F(1, 2)) == []


def test_ratio_cauchy():
    # dominating cert: norm(x_1) * (1 + r + ... + r^k) = 1 - 1/2^(k+1)
    geo = scanned_conv_cert(
        SPACE, Seq("scaled-geo", lambda k: F(1) - F(1, 2 ** (k + 1))), F(1)
    )
    rc = ratio_cauchy(NG, SPACE, halves(), F(1, 2), 16, geo=geo)
    assert verify_cauchy_cert(rc, GRID, 32) == []
    with pytest.raises(ValueError) as err:
        ratio_cauchy(NG, SPACE, harmonic_terms(), F(1, 4), 16)
    assert "ratio condition fails at index" in str(err.value)


def test_ratio_cauchy_zero_series_needs_no_domination():
    zero = Seq("zeros", lambda n: F(0))
    rc = ratio_cauchy(NG, SPACE, zero, F(1, 2), 8)
    assert verify_cauchy_cert(rc, GRID, 16) == []
    assert rc.modulus(GRID[0]) == 1


def test_abs_conv_cauchy():
    signed = Seq("(-1)^n/2^n", lambda n: F((-1) ** n, 2**n))
    abs_partials = Series(Q, halves()).partials
    c_abs = scanned_cauchy_cert(SPACE, abs_partials)
    c = abs_conv_cauchy(NG, SPACE, signed, c_abs)
    assert verify_cauchy_cert(c, GRID, 32) == []
    assert c.seq(2) == -F(1, 2) + F(1, 4)


def test_alternating_cauchy_pins():
    x = harmonic_terms()
    c0 = scanned_conv_cert(SPACE, x, F(0))
    alt = alternating_cauchy(Q, c0)
    assert [alt.seq(n) for n in range(1, 5)] == [F(1), F(1, 2), F(5, 6), F(7, 12)]
    assert verify_cauchy_cert(alt, GRID, 32) == []


@pytest.mark.parametrize("argv, calls", [
    (["series", "1/n", "--structure", "Q", "--test", "alternating"], 1),
    (["series", "1/3^n", "--structure", "Q", "--test", "condensation"], 2),
    (["check", "Q", "--suite", "series", "--seed", "0"], 1),
    (["check", "Q", "--suite", "condensation", "--seed", "0"], 2),
], ids=["series-alternating", "series-condensation", "check-series", "check-condensation"])
def test_each_certificate_checks_its_monotone_hypothesis_once(monkeypatch, capsys, argv, calls):
    """The alternating certificate checks its terms' strict decrease, and
    each of the forward and backward condensation certificates their
    decrease; no caller checks them again."""
    real, seen = series.check_monotone, []

    def counted(handle, x, kind, up_to):
        seen.append((x.name, kind, up_to))
        return real(handle, x, kind, up_to)

    for module in list(sys.modules.values()):  # every ordalab module that binds it
        if (getattr(module, "__name__", "").startswith("ordalab")
                and getattr(module, "check_monotone", None) is real):
            monkeypatch.setattr(module, "check_monotone", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) == calls, seen


def test_bernoulli_check_pins():
    assert bernoulli_check(Q, [F(1, 2), F(1, 3)], "semiring") == []
    assert bernoulli_check(Q, [F(-1, 2), F(-1, 3)], "ring") == []
    assert bernoulli_check(Q, [F(1)] * 3, "power") == []
    zx = lookup("Z(X)")
    assert bernoulli_check(zx, [RF_ONE / X, RF_ONE / X], "power") == []

    mixed = bernoulli_check(Q, [F(1, 2), F(-1, 3)], "ring")
    assert mixed == [
        type(mixed[0])(
            law="bernoulli.precondition",
            values=(1, F(-1, 3)),
            note="entries mix signs",
        )
    ]
    neg = bernoulli_check(Q, [F(-1, 2)], "semiring")
    assert neg[0].law == "bernoulli.precondition"
    assert neg[0].values == (0, F(-1, 2))
    assert neg[0].note == "entry is negative in the semiring variant"
    with pytest.raises(ValueError):
        bernoulli_check(Q, [F(1, 2)], "no-such-variant")
