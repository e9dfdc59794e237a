"""Proved zero-limit moduli and block partial sums for rational terms over Q.

Over Q, a term p(n)/q(n) gets its modulus from its polynomials: N(eps) is
the least N with |p(n)/q(n)| < eps at every n >= N, found by Sturm root
isolation (``poly.tail_start``).  The references here walk every index up
to Cauchy's root bound, past which no sign can change.  Terms whose divisor
vanishes at a positive integer, or whose degrees do not give a zero limit,
must keep the scanned certificate and its errors.  Partial sums, plain
and alternating, add a rational term's pairs in blocks by binary
splitting; the reference is ``Series(...).partials`` over a plain copy of
the term, one addition an index.  A Cauchy window far past every known sum
reads the sums relative to its first index, from blocks of its own terms.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from ordalab import cli, lookup, pretty, seq_from_expr
from ordalab.poly import tail_start
from ordalab.sequences import (
    CauchyCert, PartialSums, RationalTerm, Seq, _offsets, scanned_conv_cert, zero_limit_cert,
)
from ordalab.series import (
    MonotoneKind, Series, TailCheck, alternating_cauchy, check_monotone, tail_bound,
)
from ordalab.termexpr import Bin, Index, Lit, Pow
from reference_registry import reference_registry

Q = lookup("Q")
SPACE = Q.metrics[0]
_MAX_INDEX = 8192


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def _cauchy_bound(p):
    """An integer above the absolute value of every complex root of p."""
    return 1 + max(map(abs, p[:-1]), default=0) // abs(p[-1]) + 1


def _node(coeffs):
    """The term sum c_i n^i, with '-' for negative coefficients."""
    node = Lit(0)
    for i, c in enumerate(coeffs):
        if c:
            mono = Lit(abs(c)) if i == 0 else Bin("*", Lit(abs(c)), Pow(Index(), i))
            node = Bin("+" if c > 0 else "-", node, mono)
    return node


def _source(num, den):
    return pretty(Bin("/", _node(num), _node(den)))


def _least_tail(num, den, eps):
    """1 + the last n >= 1 with |num(n)/den(n)| >= eps, walked up to the
    Cauchy bound of a^2 den^2 - b^2 num^2 for eps = a/b."""
    a, b = eps.numerator, eps.denominator
    r = [a * a * c for c in _mul(den, den)]  # deg num < deg den: r leads as den^2
    for i, c in enumerate(_mul(num, num)):
        r[i] -= b * b * c
    last = 0
    for n in range(1, _cauchy_bound(r) + 1):
        if a * abs(_eval(den, n)) <= b * abs(_eval(num, n)):
            last = n
    return last + 1


def _outcome(cert, eps):
    try:
        return cert.modulus(eps)
    except ValueError as exc:  # EvalError too
        return type(exc), str(exc)


small = st.integers(-3, 3)
numerators = st.one_of(
    st.lists(small, max_size=3).map(tuple),
    # c (r - n) falls to 0 at n = r and rises again past it
    st.builds(lambda c, r: (c * r, -c), st.integers(1, 2), st.integers(1, 6)),
    st.just(()),
)
# a nonzero leading coefficient; some divisors have a positive integer root
denominators = st.one_of(
    st.builds(lambda cs, lead: tuple(cs) + (lead,),
              st.lists(small, max_size=2), st.sampled_from((-2, -1, 1, 2))),
    st.builds(lambda k, c: _mul((-k, 1), (c, 1)), st.integers(1, 6), small),
)
epsilons = st.lists(st.builds(F, st.integers(1, 2), st.integers(1, 10)),
                    min_size=1, max_size=3, unique=True)


def _vanishes(den):
    return any(_eval(den, n) == 0 for n in range(1, _cauchy_bound(den) + 1))


@given(numerators, denominators, epsilons, st.integers(0, 8))
@example((0, 2), (0, 0, 0, -1), [F(1, 3)], 0)
def test_proved_moduli_are_the_least_tails(num, den, grid, horizon):
    while num and num[-1] == 0:
        num = num[:-1]
    src = _source(num, den)
    cert = zero_limit_cert(Q, SPACE, seq_from_expr(src, Q), horizon)
    if len(num) < len(den) and not _vanishes(den):
        for eps in grid:
            want = _least_tail(num, den, eps)
            if want <= _MAX_INDEX:
                assert cert.modulus(eps) == want, (src, eps)
            else:
                with pytest.raises(ValueError, match="no index window"):
                    cert.modulus(eps)
    else:
        # the scan, with its window answers and its EvalError
        scanned = scanned_conv_cert(SPACE, seq_from_expr(src, Q), F(0), horizon)
        for eps in grid:
            assert _outcome(cert, eps) == _outcome(scanned, eps), (src, eps)


def test_the_rising_tail_gets_its_true_modulus():
    """(n-1000)/n^2 reaches 1/4000 at n = 2000: the scan's N(1/4096) = 832
    is no modulus; every n >= 2362 is below 1/4096, and n = 2361 is not."""
    eps = F(1, 4096)
    seq = seq_from_expr("(1000-n)/n^2", Q)
    assert scanned_conv_cert(SPACE, seq, F(0), 64).modulus(eps) == 832
    assert abs(seq(2000)) == F(1, 4000)
    assert zero_limit_cert(Q, SPACE, seq, 64).modulus(eps) == 2362
    assert abs(seq(2361)) >= eps > abs(seq(2362))


def test_a_proved_modulus_past_the_index_cap_raises_the_scan_message():
    """1/n needs N(1/10000) = 10001 > 8192: the proved modulus gives the
    scan's own ValueError, which the CLI reports as modulus.window."""
    proved = zero_limit_cert(Q, SPACE, seq_from_expr("1/n", Q), 64)
    assert proved.modulus(F(1, 8191)) == _MAX_INDEX
    with pytest.raises(ValueError) as caught:
        proved.modulus(F(1, 10000))
    scanned = scanned_conv_cert(SPACE, seq_from_expr("1/n", Q), F(0), 64)
    with pytest.raises(ValueError) as want:
        scanned.modulus(F(1, 10000))
    assert str(caught.value) == str(want.value)
    assert str(caught.value) == (
        "1/n: no index window up to 8192 stays below 1/10000; "
        "the claimed limit fails at this scale")


def test_terms_without_a_zero_limit_and_other_carriers_keep_the_scan():
    # deg p >= deg q: no zero limit, and the scan's message
    cert = zero_limit_cert(Q, SPACE, seq_from_expr("n/(n+1)", Q), 4)
    with pytest.raises(ValueError, match="no index window up to 8192"):
        cert.modulus(F(1, 2))
    # Z[1/2] terms are not evaluated over ints: the scanned window
    z2 = lookup("Z[1/2]")
    seq = seq_from_expr("1/2^n", z2)
    assert type(seq.term) is not RationalTerm
    assert zero_limit_cert(z2, z2.metrics[0], seq, 4).modulus(F(1, 8)) == 4
    # a space without a _group: the scan's window starts and its message
    foreign = dataclasses.replace(SPACE)
    for src, eps in (("(1000-n)/n^2", F(1, 4096)), ("1/n", F(1, 10000))):
        seq = seq_from_expr(src, Q)
        assert type(seq.term) is RationalTerm
        cert = zero_limit_cert(Q, foreign, seq, 64)
        assert _outcome(cert, eps) == _outcome(scanned_conv_cert(foreign, seq, F(0), 64), eps)
    assert zero_limit_cert(Q, foreign, seq_from_expr("(1000-n)/n^2", Q), 64).modulus(
        F(1, 4096)) == 832
    # a handle without Q's own operations adds a rational term's sums one at a time
    plain_q = reference_registry()["Q"]
    x = seq_from_expr("1/(n+3)", Q)
    for alternating in (False, True):
        sums = PartialSums(plain_q, x, alternating)
        assert sums._pair is None
        assert sums(40) == Series(Q, _signed(x) if alternating else x).partials(40)
        assert sums.known == list(range(1, 41))


factor_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(tuple)


@given(st.lists(factor_polys, min_size=1, max_size=3), st.booleans())
# -n^3 + 2n - 1 and -1: the Sturm chain's one-step remainder by a member
# that leads negative
@example([(1, -2, 0)], True)
@example([(0, -2, 0)], True)
def test_tail_start_matches_brute_force(factors, flip):
    factors = [f + (1,) for f in factors]
    if flip:  # every factor leads negative, and a -1 keeps the product's lead positive
        factors = [tuple(-c for c in f) for f in factors] + [(-1,)] * (len(factors) % 2)
    p = (1,)
    for f in factors:
        p = _mul(p, f)
    last = 0
    for n in range(1, _cauchy_bound(p) + 1):
        if _eval(p, n) <= 0:
            last = n
    assert tail_start(*factors) == last + 1


# ---------------------------------------------------------------------------
# block partial sums


def _signed(seq):
    return Seq(f"alt({seq.name})", lambda i: seq(i) if i % 2 else -seq(i))


def _plain(seq):
    """The same values behind a term function that no consumer reads."""
    return Seq(seq.name, lambda n: seq(n))


@given(numerators, denominators, st.lists(st.integers(1, 120), min_size=1, max_size=8),
       st.booleans(), st.booleans(), st.booleans())
def test_block_partial_sums_match_the_series_partials(
        num, den, indices, ascending, alternating, nested):
    src = _source(num, den)
    plain = _plain(seq_from_expr(src, Q))
    seq = seq_from_expr(src, Q)
    if type(seq.term) is not RationalTerm:
        return  # a term that does not mention n
    if nested:  # partial sums have no shape: their sums are added one at a time
        plain, seq = Series(Q, plain).partials, Series(Q, seq).partials
    reference = Series(Q, _signed(plain) if alternating else plain).partials
    # through a Seq, as Series and alternating_cauchy call it: an index may repeat
    sums = PartialSums(Q, seq, alternating)
    blocks = Seq(src, sums, sums.sums)
    if ascending:
        indices = sorted(indices)
    for n in indices:
        want = got = None
        try:
            want = reference(n)
        except ValueError as exc:
            want = type(exc), str(exc)
        try:
            got = blocks(n)
        except ValueError as exc:
            got = type(exc), str(exc)
        assert got == want, (src, n)
    assert sums.known == sorted(sums.sums)


def test_the_alternating_test_sums_rational_terms_in_blocks():
    x = seq_from_expr("1/(n+3)", Q)
    mono = check_monotone(Q, x, MonotoneKind.STRICTLY_DECREASING_POSITIVE, 32)
    c0 = zero_limit_cert(Q, SPACE, x, 8)
    cert = alternating_cauchy(Q, SPACE, mono, c0)
    reference = Series(Q, _signed(x)).partials
    indices = [4089, 4090, 700, 4095, 1, 2]
    random.Random(0).shuffle(indices)
    for n in indices:
        assert cert.seq(n) == reference(n)
    assert cert.seq.name == reference.name == "sum(alt(1/(n+3)))"
    assert type(cert.seq.term) is PartialSums and cert.seq.term._pair is not None


@settings(max_examples=200)  # cheap examples, most with one or two windows
@given(numerators, denominators.filter(lambda den: not _vanishes(den)), st.booleans(),
       st.lists(st.integers(1, 400), max_size=4),
       st.lists(st.tuples(st.integers(1, 400), st.integers(0, 64)), min_size=1, max_size=6),
       st.booleans())
def test_window_values_match_the_series_partials_up_to_a_shift(
        num, den, alternating, known, windows, ascending):
    src = _source(num, den)
    plain = _plain(seq_from_expr(src, Q))
    reference = Series(Q, _signed(plain) if alternating else plain).partials
    seq = seq_from_expr(src, Q)
    if type(seq.term) is not RationalTerm:
        return  # a term that does not mention n
    sums = PartialSums(Q, seq, alternating)
    blocks = Seq(src, sums, sums.sums)
    for n in known:  # sums known before the windows are read
        assert blocks(n) == reference(n)
    for n, horizon in sorted(windows, reverse=not ascending):
        offs = _offsets(horizon)
        got = sums.window(n, offs)
        want = [reference(n + o) for o in offs]
        assert [v - got[0] for v in got] == [v - want[0] for v in want], (src, n, horizon)
        # a window keeps only true sums, and the Seq still reads them
        assert sums.known == sorted(sums.sums)
        assert all(s == reference(k) for k, s in sums.sums.items())
        assert blocks(n + offs[-1]) == want[-1]


def test_tail_bound_reads_far_partial_sums_from_their_gap():
    x = seq_from_expr("1/(n+8)", Q)
    mono = check_monotone(Q, x, MonotoneKind.STRICTLY_DECREASING_POSITIVE, 32)
    alt = alternating_cauchy(Q, SPACE, mono, zero_limit_cert(Q, SPACE, x, 8))
    plain = CauchyCert(SPACE, Series(Q, x).partials, lambda eps: 4001)
    ref_alt, ref_plain = Series(Q, _signed(x)).partials, Series(Q, x).partials
    for cert, ref, eps, m, n in ((alt, ref_alt, F(1, 4096), 4089, 4094),
                                 (alt, ref_alt, F(1, 4096), 4200, 4200),
                                 (plain, ref_plain, F(1, 100), 4001, 4040),
                                 (plain, ref_plain, F(1, 1000), 4100, 4164)):
        d = abs(ref(n) - ref(m))
        want = TailCheck(ok=d < eps, eps=eps, m=m, n=n,
                         bound_index=cert.modulus(eps), tail_norm=d)
        assert tail_bound(cert, eps, m, n) == want
        assert cert.seq._cache == {}  # the gap, with no prefix sum kept
    assert not tail_bound(plain, F(1, 1000), 4100, 4164).ok


def test_the_alternating_op_reads_its_far_windows_from_gaps(monkeypatch, capsys):
    """Each window near N(1/4096) = 4089 costs its 64 terms, not the
    binary-split prefix below it (4,220 pair calls when it did)."""
    calls = []
    pair = RationalTerm.pair
    monkeypatch.setattr(RationalTerm, "pair", lambda self, n: calls.append(n) or pair(self, n))
    assert cli.main(["series", "1/(n+8)", "--structure", "Q", "--test", "alternating",
                     "--grid", "1/4,1/8,1/16,1/64,1/1024,1/4096"]) == 0
    assert '"status":"pass"' in capsys.readouterr().out.replace(" ", "")
    assert len(calls) < 1000
