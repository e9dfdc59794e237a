"""Power terms c·r^n read from their syntax, against the scans and sums.

A term whose syntax is ``c*pow(r, n)``, ``pow(r, n)``, ``r^n`` or ``c/p^n``
compiles to a ``PowerTerm`` over a carrier whose metric space has a
``_group``.  Its zero-limit modulus, its partial sums' Cauchy window and
limit window are found by galloping on c·r^n, its partial sums come in
closed form where 1 - r (or 1 + r) is a unit, and its monotonicity is
decided from c and r.  The references are the same values behind a plain
term function, which every consumer scans, sums and walks as before:
answers, errors and their messages must agree, over ``Q``, ``Z[1/2]``,
``Z[1/3]`` and ``Z(X)``, with c != 1, negative ratios and dense ``Z(X)``
denominators.  On a copy of the space without its ``_group`` no shape
decides, and both sides scan.
"""

import contextlib
import dataclasses
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import cli, lookup, seq_from_expr
from ordalab.sequences import (
    PartialSums,
    PowerTerm,
    RationalTerm,
    Seq,
    _power_tail,
    cauchy_cert,
    conv_cert,
    scanned_cauchy_cert,
    scanned_conv_cert,
    shape_fact,
)
from ordalab.series import MonotoneKind, Series, alternating_cauchy, check_monotone
from reference_registry import reference_registry, use_reference_registry

KEYS = ("Q", "Z[1/2]", "Z[1/3]", "Z(X)")
HANDLES = {key: lookup(key) for key in KEYS}
_MAX_INDEX = 8192


def _plain(seq):
    """The same values behind a term function that no consumer reads."""
    return Seq(seq.name, lambda n: seq(n))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _fraction(q):
    return f"({q.numerator})/{q.denominator}" if q >= 0 else f"(0-{-q.numerator})/{q.denominator}"


@st.composite
def ratios(draw, key, proper=True, falling=False):
    """Source text of r for the carrier key: |r| < 1 when proper, and then
    negative now and then; otherwise also 0, 1, -1 and |r| > 1.  With
    falling, 0 < r < 1."""
    if key == "Z(X)":
        # 1/(X^a + b X + b0): X is above every rational, so 0 < |r| < 1
        a, b, b0 = draw(st.integers(1, 2)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        den = f"X^{a}" + (f"{b:+d}*X" if b and a == 2 else "") + (f"{b0:+d}" if b0 else "")
        return f"1/({den})" if falling or draw(st.booleans()) else f"1/(0-({den}))"
    # up to 8/9 and 7/8: a ratio nearer 1 makes the reference scans long
    den = draw(st.integers(2 if falling else 1, 9)) if key == "Q" else \
        int(key[-2]) ** draw(st.integers(1 if falling else 0, 3 if key == "Z[1/2]" else 2))
    if falling:
        num = st.integers(1, den - 1)
    elif proper:
        num = st.integers(1 - den, den - 1)
    else:
        num = st.integers(-2 * den, 2 * den)
    return _fraction(F(draw(num), den))


@st.composite
def scales(draw, key, falling=False):
    """Source text of c: often not 1, negative now and then unless falling."""
    if key == "Z(X)":
        return draw(st.sampled_from(("1", "2", "5", "X", "(2*X+1)")
                                    + (() if falling else ("(0-3)",))))
    p = {"Q": 7, "Z[1/2]": 2, "Z[1/3]": 3}[key]
    num = draw(st.integers(1, 6) if falling else st.integers(-6, 6))
    return _fraction(F(num, p ** draw(st.integers(0, 2))))


@st.composite
def power_terms(draw, key, proper=True, falling=False):
    """c*pow(r, n), pow(r, n), or c/p^n with r = 1/p and p, or -p, a unit
    of the carrier above 1; with falling, 0 < c and 0 < r < 1."""
    shape = draw(st.sampled_from(("scaled", "bare", "divided")))
    if shape == "divided":
        c = draw(scales(key, falling))
        if key == "Z(X)":
            return f"{c}/{draw(ratios(key, falling=falling))[2:]}^n"
        p = draw(st.integers(2, 9)) if key == "Q" else int(key[-2]) ** draw(st.integers(1, 3))
        return f"{c}/({p})^n" if falling or draw(st.booleans()) else f"{c}/(0-{p})^n"
    r = draw(ratios(key, proper, falling))
    return f"pow({r}, n)" if shape == "bare" else f"{draw(scales(key, falling))}*pow({r}, n)"


def _sums_case(data):
    """A carrier and a power term whose partial sums converge, three times
    in four one whose terms are positive and fall."""
    key = data.draw(st.sampled_from(KEYS))
    return key, data.draw(power_terms(key, falling=data.draw(st.integers(0, 3)) > 0))


@st.composite
def epsilons(draw, key, past_cap=False):
    """Up to three grid epsilons in any order; with past_cap, now and then
    one whose modulus passes _MAX_INDEX for the ratios drawn above."""
    if key == "Z(X)":
        pool = lookup("Z(X)").eps_grid + tuple(seq_from_expr(f"1/X^{k}", HANDLES[key])(1)
                                               for k in (6, 9))
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    p = {"Q": 2, "Z[1/2]": 2, "Z[1/3]": 3}[key]
    tiny = F(1, p ** 9000)
    entry = st.builds(lambda k: F(1, p ** k), st.integers(1, 14))
    if key == "Q":
        entry |= st.fractions(F(1, 5000), F(2), max_denominator=5000)
    grid = draw(st.lists(entry, min_size=1, max_size=3, unique=True))
    return grid + [tiny] if past_cap and draw(st.integers(0, 9)) == 0 else grid


def _space(data, handle):
    """handle's first metric space, or now and then a copy without its
    _group, on which no shape decides and every certificate scans."""
    space = handle.metrics[0]
    return dataclasses.replace(space) if data.draw(st.integers(0, 3)) == 0 else space


def _compiled(key, src):
    seq = seq_from_expr(src, HANDLES[key])
    assert type(seq.term) is PowerTerm, src
    return seq


@given(st.data())
def test_galloped_zero_limit_moduli_match_the_scan(data):
    key = data.draw(st.sampled_from(KEYS))
    handle, src = HANDLES[key], data.draw(power_terms(key))
    space, horizon = _space(data, handle), data.draw(st.integers(0, 16))
    seq = _compiled(key, src)
    cert = conv_cert(space, seq, handle.identity, horizon)
    scanned = scanned_conv_cert(space, _plain(seq), handle.identity, horizon)
    for eps in data.draw(epsilons(key, past_cap=True)):
        assert _outcome(cert.modulus, eps) == _outcome(scanned.modulus, eps), (src, eps)


@given(st.data())
def test_galloped_cauchy_windows_match_the_scan(data):
    key, src = _sums_case(data)
    handle = HANDLES[key]
    space, horizon = _space(data, handle), data.draw(st.integers(0, 16))
    seq = _compiled(key, src)
    cert = cauchy_cert(space, Series(handle, seq).partials, horizon)
    plain = _plain(seq)
    scanned = scanned_cauchy_cert(space, Series(handle, plain).partials, horizon)
    for eps in data.draw(epsilons(key)):
        assert _outcome(cert.modulus, eps) == _outcome(scanned.modulus, eps), (src, eps)


@given(st.data())
def test_galloped_partial_sum_limits_match_the_scan(data):
    key, src = _sums_case(data)
    handle = HANDLES[key]
    space, horizon = _space(data, handle), data.draw(st.integers(0, 16))
    seq = _compiled(key, src)
    t = seq.term
    # in Q or Q(X), which Z[1/3] need not hold when 1 - r is no unit there:
    # the bounds of the scans are compared all the same
    limit = t.c * t.r / (1 - t.r)
    cert = conv_cert(space, Series(handle, seq).partials, limit, horizon)
    scanned = scanned_conv_cert(space, Series(handle, _plain(seq)).partials, limit, horizon)
    for eps in data.draw(epsilons(key)):
        assert _outcome(cert.modulus, eps) == _outcome(scanned.modulus, eps), (src, eps)


def test_moduli_past_the_index_cap_and_wrong_limits_raise_the_scan_messages():
    """The scans of the partial sums to the cap add 8,192 terms each, so
    one carrier stands for the others here (the zero-limit test draws
    epsilons past the cap on every carrier)."""
    handle = HANDLES["Z[1/2]"]
    space, seq = handle.metrics[0], _compiled("Z[1/2]", "3/2^n")
    sums, plain = Series(handle, seq).partials, Series(handle, _plain(seq)).partials
    eps = F(1, 2 ** 9000)
    pairs = [
        (cauchy_cert(space, sums, 4), scanned_cauchy_cert(space, plain, 4), eps),
        # the limit is 3, and 2 is no limit at any scale below 1
        (conv_cert(space, sums, F(2), 4), scanned_conv_cert(space, plain, F(2), 4),
         F(1, 2)),
        (conv_cert(space, sums, F(3), 4), scanned_conv_cert(space, plain, F(3), 4),
         eps),
    ]
    for cert, scanned, eps in pairs:
        with pytest.raises(ValueError) as caught:
            cert.modulus(eps)
        assert (ValueError, str(caught.value)) == _outcome(scanned.modulus, eps)
        assert f"no index window up to {_MAX_INDEX}" in str(caught.value)


def _no_window(eps):
    return "no index window"


@pytest.mark.parametrize("key, src, limit, grid", [
    ("Q", "pow(1/2, n)", F(1, 1000), (F(1, 10), F(3, 1000))),
    ("Z[1/2]", "3/2^n", F(1, 64), (F(1, 4), F(1, 64))),
    ("Q", "1/n", F(1, 1000), (F(1, 10), F(1, 1000))),
], ids=["power-Q", "power-Z[1/2]", "rational-Q"])
def test_a_tail_declines_a_nonzero_limit(key, src, limit, grid):
    """A term's tail proves only a zero limit: for any other, conv_cert
    scans, and its moduli are the scan's on a plain copy."""
    handle = HANDLES[key]
    space, seq = handle.metrics[0], seq_from_expr(src, handle)
    assert type(seq.term) in (PowerTerm, RationalTerm)
    assert shape_fact(seq, "tail", space, limit, 8, _no_window) is None
    assert shape_fact(seq, "tail", space, handle.identity, 8, _no_window) is not None
    cert = conv_cert(space, seq, limit, 8)
    scanned = scanned_conv_cert(space, _plain(seq), limit, 8)
    for eps in grid:
        assert _outcome(cert.modulus, eps) == _outcome(scanned.modulus, eps), eps


@pytest.mark.parametrize("key, src", [("Q", "pow(1/2, n)"), ("Z[1/2]", "3/2^n"),
                                      ("Z(X)", "1/X^n")])
def test_a_tail_declines_alternating_sums(key, src):
    """The plain sums of a falling power have a proved tail; the
    alternating sums of the same terms have none, and cauchy_cert and
    conv_cert scan them, with the scan's moduli on a plain copy."""
    handle = HANDLES[key]
    space, seq = handle.metrics[0], _compiled(key, src)
    sums = PartialSums(handle, seq, True)
    alt = Seq(f"sum(alt({seq.name}))", sums, sums.sums)
    assert shape_fact(Series(handle, seq).partials, "tail", space, None, 8, _no_window)
    t = seq.term
    limit = t.c * t.r / (1 + t.r)
    for lim in (None, limit):
        assert shape_fact(alt, "tail", space, lim, 8, _no_window) is None
    cauchy, conv = cauchy_cert(space, alt, 8), conv_cert(space, alt, limit, 8)
    plain = _plain(alt)
    scanned_cauchy, scanned_conv = scanned_cauchy_cert(space, plain, 8), \
        scanned_conv_cert(space, plain, limit, 8)
    for eps in handle.eps_grid:
        assert _outcome(cauchy.modulus, eps) == _outcome(scanned_cauchy.modulus, eps), eps
        assert _outcome(conv.modulus, eps) == _outcome(scanned_conv.modulus, eps), eps


@given(st.data())
def test_closed_form_sums_match_the_series_partials(data):
    key = data.draw(st.sampled_from(KEYS))
    handle, src = HANDLES[key], data.draw(power_terms(key))
    seq = _compiled(key, src)
    top = 40 if key == "Z(X)" else 150
    indices = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        indices = sorted(indices)
    sums, reference = Series(handle, seq).partials, Series(handle, _plain(seq)).partials
    for n in indices:
        assert sums(n) == reference(n), (src, n)


@given(st.data())
def test_closed_form_alternating_sums_match_the_series_partials(data):
    key = data.draw(st.sampled_from(KEYS))
    handle, src = HANDLES[key], data.draw(power_terms(key, falling=True))
    seq = _compiled(key, src)
    space = handle.metrics[0]
    cert = alternating_cauchy(handle, conv_cert(space, seq, handle.identity, 4))
    plain = _plain(seq)
    signed = Seq(f"alt({seq.name})", lambda i: plain(i) if i % 2 else handle.negate(plain(i)))
    reference = Series(handle, signed).partials
    top = 40 if key == "Z(X)" else 150
    for n in data.draw(st.lists(st.integers(1, top), min_size=1, max_size=8)):
        assert cert.seq(n) == reference(n), (src, n)
    assert cert.seq.name == reference.name


@given(st.data(), st.sampled_from(MonotoneKind))
def test_decided_monotonicity_matches_the_walk(data, kind):
    key = data.draw(st.sampled_from(KEYS))
    handle = HANDLES[key]
    src = data.draw(power_terms(key, proper=key == "Z(X)"))
    seq = _compiled(key, src)
    up_to = data.draw(st.integers(1, 32))
    assert _outcome(check_monotone, handle, seq, kind, up_to) == \
        _outcome(check_monotone, handle, _plain(seq), kind, up_to), src


def test_a_ratio_of_one_takes_the_walk():
    seq = _compiled("Q", "2*pow(1, n)")
    with pytest.raises(ValueError, match="fail to strictly decrease at index 1"):
        check_monotone(HANDLES["Q"], seq, MonotoneKind.STRICTLY_DECREASING_POSITIVE, 32)


def test_a_power_tail_probe_multiplies_powers_it_holds():
    """From start 1, _power_tail's search probes 2^0..2^j, then bisects
    (2^(j-1), 2^j], where 2^(j-1) < N <= 2^j: each probe takes one product
    for its power, from powers the search holds, and one for the scale, so
    with eps * d a modulus N > 1 costs 4j products, and N = 1 two;
    recomputing every power costs O(j^2).  Queried in any order, the moduli stay the least N with
    scale * ratio^N < eps * d."""
    q = HANDLES["Q"]
    products = [0]

    def mul(a, b):
        products[0] += 1
        return q.second_op(a, b)

    grp = dataclasses.replace(q, second_op=mul)
    scale, ratio, d = F(5), F(2, 3), F(1, 3)

    def least(eps):
        return next(n for n in range(1, _MAX_INDEX + 1) if scale * ratio**n < eps * d)

    epsilons = [F(1, 10**k) for k in (1, 3, 40, 300, 900)] + [F(12), F(7, 2), F(1, 2)]
    for eps in epsilons:
        modulus = _power_tail(grp, scale, ratio, d, str)
        products[0] = 0
        n = modulus(eps)
        assert n == least(eps)
        j = (n - 1).bit_length()
        assert products[0] == (4 * j or 2), (eps, n)
    resumed = _power_tail(grp, scale, ratio, d, str)
    for eps in (epsilons[2], epsilons[4], epsilons[0], epsilons[3], epsilons[7], epsilons[1],
                epsilons[5]):
        assert resumed(eps) == least(eps)


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_c_over_3_to_the_n_in_z13_keeps_its_pinned_report():
    """1 - 1/3 = 2/3 is no unit of Z[1/3]: the partial sums are added, the
    Cauchy window is galloped without inverting 2/3, and the report is the
    one pinned for this benchmark op."""
    handle = HANDLES["Z[1/3]"]
    seq = _compiled("Z[1/3]", "4/3^n")
    assert seq.term.r == F(1, 3)
    sums = Series(handle, seq).partials.term
    assert type(sums) is PartialSums and sums.inv is None
    argv = ["series", "4/3^n", "--structure", "Z[1/3]", "--test", "condensation",
            "--grid", "1/9,1/243,1/2187,1/6561", "--horizon", "64"]
    assert _report(argv) == (0, (
        '{"check_id": "series.condensation.backward", "paper_anchor": '
        '"series.condensation", "status": "pass", "structure": "Z[1/3]", "suite": '
        '"series", "witness_values": ["N(1/9)=15", "N(1/243)=15", "N(1/2187)=31", '
        '"N(1/6561)=31"]}\n'
        '{"check_id": "series.condensation.forward", "paper_anchor": '
        '"series.condensation", "status": "pass", "structure": "Z[1/3]", "suite": '
        '"series", "witness_values": ["N(1/9)=4", "N(1/243)=4", "N(1/2187)=5", '
        '"N(1/6561)=5"]}\n'))


@pytest.mark.parametrize("src, power", [
    ("pow(2/3, n)", True), ("(2/3)^n", True), ("3*pow(0-1/2, n)", True),
    ("5/(X+2)^n", True), ("2/X^n", True),
    ("pow(1/2, n)*3", False), ("n*pow(1/2, n)", False), ("pow(1/n, n)", False),
    ("1/0^n", False), ("pow(1/2, n)+1", False), ("pow(Y, n)", False),
])
def test_the_syntax_c_times_r_to_the_n_compiles_to_a_power_term(src, power):
    handle = HANDLES["Z(X)" if "X" in src or "Y" in src else "Q"]
    assert (type(seq_from_expr(src, handle).term) is PowerTerm) is power
    # the reference registry drops _group, and with it every power term
    with use_reference_registry(reference_registry()):
        assert type(seq_from_expr(src, lookup(handle.name)).term) is not PowerTerm
