"""Convergence and Cauchy certificates: construction, transport, scanning."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    ApartFromZeroWitness,
    CapabilityError,
    CauchyCert,
    ConvCert,
    MonotoneKind,
    Seq,
    SubseqMap,
    absolute_value_metric,
    add_certs,
    apart_tail,
    bounded_from_cert,
    cauchy_sum,
    check_monotone,
    constant_cert,
    conv_to_cauchy,
    lookup,
    prod_certs,
    refute_distinct_limits,
    scan_cauchy_window_start,
    scan_window_start,
    scanned_cauchy_cert,
    scanned_conv_cert,
    shift_cert,
    subseq_rescue,
    tail_bound,
    unshift_cert,
    validate_apart_witness,
    verify_cauchy_cert,
    verify_conv_cert,
    zero_times_bounded,
)
from ordalab.sequences import negate_cert

Q = lookup("Q")
SPACE = Q.metrics[0]
NG = Q.norms[0]
PNR = Q.pnorms[0]
GRID = Q.eps_grid


def one_over_n():
    return Seq("1/n", lambda n: F(1, n))


def harmonic_cert():
    return ConvCert(
        SPACE, one_over_n(), F(0), lambda eps: math.ceil(1 / eps) + 1
    )


def test_seq_caches_terms():
    calls = []

    def term(n):
        calls.append(n)
        return F(1, n)

    s = Seq("counted", term)
    assert s(5) == F(1, 5)
    assert s(5) == F(1, 5)
    assert calls == [5]


def test_seq_rejects_nonpositive_index():
    s = one_over_n()
    with pytest.raises(ValueError):
        s(0)


def test_conv_cert_verifies_on_full_grid():
    assert verify_conv_cert(harmonic_cert(), GRID, 64) == []


def test_conv_cert_catches_a_lying_modulus():
    lying = ConvCert(SPACE, one_over_n(), F(0), lambda eps: 1)
    bad = verify_conv_cert(lying, (F(1, 2),), 4)
    assert bad and bad[0].law == "convergence.within"
    assert bad[0].values == (F(1, 2), 1, F(1))


def test_conv_cert_catches_a_wrong_limit():
    wrong = ConvCert(
        SPACE, one_over_n(), F(1), lambda eps: math.ceil(1 / eps) + 1
    )
    assert verify_conv_cert(wrong, (F(1, 4),), 8) != []


def test_constant_cert():
    c = constant_cert(SPACE, F(7, 3))
    assert c.limit == F(7, 3)
    assert c.seq(12) == F(7, 3)
    assert verify_conv_cert(c, GRID, 16) == []


def test_conv_to_cauchy_pins():
    cc = conv_to_cauchy(harmonic_cert())
    assert cc.modulus(F(1, 2)) == 6
    assert verify_cauchy_cert(cc, GRID, 64) == []


def test_scanned_conv_cert_pins():
    c = scanned_conv_cert(SPACE, one_over_n(), F(0))
    assert c.modulus(F(1, 8)) == 9
    assert c.modulus(F(1)) == 2
    assert verify_conv_cert(c, GRID, 32) == []


def test_scan_exhaustion_is_a_value_error():
    c = scanned_conv_cert(SPACE, Seq("n", lambda n: F(n)), F(0))
    with pytest.raises(ValueError, match="no index window"):
        c.modulus(F(1, 2))


def test_cauchy_scan_exhaustion_is_a_value_error():
    cc = scanned_cauchy_cert(SPACE, Seq("n", F))
    with pytest.raises(ValueError) as exc:
        cc.modulus(F(1, 2))
    assert str(exc.value) == (
        "n: no index window up to 8192 keeps pairwise gaps below 1/2; "
        "the values fail to cluster at this scale"
    )


def test_a_negative_horizon_is_refused():
    c = harmonic_cert()
    for probe in (
        lambda: verify_conv_cert(c, GRID, -1),
        lambda: verify_cauchy_cert(conv_to_cauchy(c), GRID, -1),
        lambda: scan_window_start(SPACE, one_over_n(), F(0), F(1, 8), -1),
        lambda: scan_cauchy_window_start(SPACE, one_over_n(), F(1, 8), -1),
    ):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            probe()


def test_scan_window_start_pin():
    assert scan_window_start(SPACE, one_over_n(), F(0), F(1, 8), 64, 8192) == 9


def geometric_partials():
    # sum of the first n halves: 1 - 1/2^n
    return Seq("geo-partials", lambda n: F(2**n - 1, 2**n))


def test_scanned_cauchy_and_tail_bound_pins():
    cc = scanned_cauchy_cert(SPACE, geometric_partials())
    assert cc.modulus(F(1, 8)) == 3
    t = tail_bound(cc, F(1, 8), 3, 8)
    assert t.ok and t.bound_index == 3 and t.tail_norm == F(31, 256)
    assert (t.m, t.n, t.eps) == (3, 8, F(1, 8))
    t2 = tail_bound(cc, F(1, 8), 4, 8)
    assert t2.ok and t2.tail_norm == F(15, 256)


def test_tail_bound_rejects_indices_before_the_modulus():
    cc = scanned_cauchy_cert(SPACE, geometric_partials())
    with pytest.raises(ValueError, match="below the modulus index 3"):
        tail_bound(cc, F(1, 8), 1, 8)


def test_add_certs():
    cx = harmonic_cert()
    cy = ConvCert(
        SPACE,
        Seq("1-1/n", lambda n: 1 - F(1, n)),
        F(1),
        lambda eps: math.ceil(1 / eps) + 1,
    )
    cs = add_certs(cx, cy, Q)
    assert cs.limit == F(1)
    assert cs.seq(4) == F(1)
    assert verify_conv_cert(cs, GRID, 64) == []


def test_negate_shift_unshift():
    base = harmonic_cert()
    neg = negate_cert(base, Q)
    assert neg.limit == F(0) and neg.seq(4) == F(-1, 4)
    assert verify_conv_cert(neg, GRID[:6], 16) == []
    sh = shift_cert(base, 2)
    assert sh.seq(1) == F(1, 3)
    assert verify_conv_cert(sh, GRID[:6], 16) == []
    un = unshift_cert(sh, base.seq, 2)
    assert un.seq(3) == F(1, 3)
    assert verify_conv_cert(un, GRID[:6], 16) == []


def test_prod_certs():
    cx = harmonic_cert()
    cz = ConvCert(
        SPACE,
        Seq("2-1/n", lambda n: 2 - F(1, n)),
        F(2),
        lambda eps: math.ceil(1 / eps) + 1,
    )
    cp = prod_certs(cx, cz, PNR)
    assert cp.limit == F(0)
    assert verify_conv_cert(cp, GRID, 64) == []
    csq = prod_certs(cx, cx, PNR)
    assert csq.limit == F(0)
    assert verify_conv_cert(csq, GRID, 64) == []


def test_bounded_from_cert_pins():
    assert bounded_from_cert(harmonic_cert(), F(1)) == F(1)
    cy = ConvCert(
        SPACE,
        Seq("1-1/n", lambda n: 1 - F(1, n)),
        F(1),
        lambda eps: math.ceil(1 / eps) + 1,
    )
    # the norm bound prod_certs builds: the distance bound plus norm(limit)
    assert bounded_from_cert(cy, F(1)) == F(1)
    assert bounded_from_cert(cy, F(1)) + NG.norm(cy.limit) == F(2)


def test_subseq_rescue():
    cc = conv_to_cauchy(harmonic_cert())
    sub = SubseqMap("2^k", lambda k: 2**k)
    csub = ConvCert(
        SPACE,
        Seq("1/2^k", lambda k: F(1, 2**k)),
        F(0),
        lambda eps: math.ceil(math.log2(1 / eps)) + 1 if eps < 1 else 1,
    )
    rescued = subseq_rescue(cc, sub, csub)
    assert rescued.limit == F(0)
    assert verify_conv_cert(rescued, GRID, 64) == []


def test_subseq_rescue_requires_increasing_indices():
    cc = conv_to_cauchy(harmonic_cert())
    sub = SubseqMap("const", lambda k: 1)
    csub = constant_cert(SPACE, F(1))
    with pytest.raises(ValueError):
        subseq_rescue(cc, sub, csub)


def test_constructors_need_the_codomain_density_witness_first():
    q = replace(Q, density=None)
    space = replace(SPACE, codomain=q)
    c = ConvCert(space, one_over_n(), F(0), lambda eps: math.ceil(1 / eps) + 1)
    with pytest.raises(CapabilityError, match="Q has no density witness"):
        conv_to_cauchy(c)
    with pytest.raises(CapabilityError, match="Q has no density witness"):
        add_certs(c, c, q)
    # the index map is not increasing, but the missing witness is found first
    cauchy = CauchyCert(space, one_over_n(), lambda eps: 1)
    with pytest.raises(CapabilityError, match="Q has no density witness"):
        subseq_rescue(cauchy, SubseqMap("const", lambda k: 1), c)


def test_sums_take_the_split_from_the_codomain():
    # the split is applied to distances, which live in the space's codomain;
    # the carrier handle only adds the terms
    bare = replace(Q, density=None)
    c = harmonic_cert()
    cc = conv_to_cauchy(c)
    for build, cert in ((add_certs, c), (cauchy_sum, cc)):
        stock, custom = build(cert, cert, Q), build(cert, cert, bare)
        assert [custom.modulus(eps) for eps in GRID] == [stock.modulus(eps) for eps in GRID]
    space = replace(SPACE, codomain=bare)
    c = ConvCert(space, one_over_n(), F(0), lambda eps: math.ceil(1 / eps) + 1)
    cc = CauchyCert(space, one_over_n(), lambda eps: math.ceil(2 / eps) + 1)
    for build, cert in ((add_certs, c), (cauchy_sum, cc)):
        with pytest.raises(CapabilityError, match="Q has no density witness"):
            build(cert, cert, Q)


def test_prod_certs_needs_the_codomain_shrink_witness():
    pnr = replace(PNR, codomain=replace(Q, shrink=None))
    one_minus = ConvCert(SPACE, Seq("1-1/n", lambda n: 1 - F(1, n)), F(1),
                         lambda eps: math.ceil(1 / eps) + 1)
    # a nonzero limit shrinks against its norm; a zero limit against a bound
    for cy in (one_minus, harmonic_cert()):
        with pytest.raises(CapabilityError, match="Q has no shrink witness"):
            prod_certs(harmonic_cert(), cy, pnr)


def test_zero_times_bounded():
    alt = Seq("(-1)^n", lambda n: F((-1) ** n))
    c_bound, c_prod = zero_times_bounded(harmonic_cert(), alt, F(2), PNR)
    assert c_prod.limit == F(0)
    assert verify_conv_cert(c_prod, GRID, 64) == []
    assert verify_conv_cert(c_bound, GRID, 64) == []


def test_apart_tail_pins():
    one_plus = Seq("1+1/n", lambda n: 1 + F(1, n))
    cc = scanned_cauchy_cert(SPACE, one_plus)
    wit = ApartFromZeroWitness(eps=F(1), selector=lambda n: n)
    beta, onset = apart_tail(cc, wit, NG)
    assert beta == F(6, 25)
    assert onset == 3
    # past the onset every term stays at least beta away from zero
    for n in range(onset, onset + 20):
        assert NG.norm(one_plus(n)) >= beta


def test_validate_apart_witness_rejects_vanishing_sequences():
    wit = ApartFromZeroWitness(eps=F(1, 4), selector=lambda n: n)
    with pytest.raises(ValueError) as err:
        validate_apart_witness(wit, NG, one_over_n())
    assert (
        str(err.value)
        == "1/n: norm 1/5 at selected index 5 is below the witness epsilon 1/4"
    )


def test_refute_distinct_limits_pins():
    ca = harmonic_cert()
    cb = ConvCert(
        SPACE, one_over_n(), F(1), lambda eps: math.ceil(1 / eps) + 1
    )
    rec = refute_distinct_limits(ca, cb)
    assert rec.refuted
    assert rec.eps == F(1)
    assert rec.beta == F(2, 5) and rec.gamma == F(2, 5)
    assert rec.index == 4
    assert rec.d_first == F(1, 4) and rec.d_second == F(3, 4)
    assert rec.first_within and not rec.second_within
    assert rec.split_below_eps and rec.triangle_holds


def test_refute_distinct_limits_declines_equal_limits():
    ca = harmonic_cert()
    cb = ConvCert(
        SPACE,
        Seq("1/(n+1)", lambda n: F(1, n + 1)),
        F(0),
        lambda eps: math.ceil(1 / eps) + 1,
    )
    with pytest.raises(ValueError):
        refute_distinct_limits(ca, cb)


def test_check_monotone():
    ev = check_monotone(
        Q, one_over_n(), MonotoneKind.STRICTLY_DECREASING_POSITIVE, 16
    )
    assert ev.kind is MonotoneKind.STRICTLY_DECREASING_POSITIVE
    assert ev.checked_up_to == 16
    with pytest.raises(ValueError, match="fail to decrease at index 1"):
        check_monotone(Q, Seq("n", lambda n: F(n)), MonotoneKind.DECREASING_POSITIVE, 8)


@given(st.integers(min_value=1, max_value=200))
def test_harmonic_modulus_really_works(n):
    # independent spot check of the frozen modulus formula
    cert = harmonic_cert()
    for eps in (F(1, 2), F(1, 7), F(1, 50)):
        if n >= cert.modulus(eps):
            assert abs(cert.seq(n) - cert.limit) < eps


def test_a_split_modulus_splits_each_eps_once_over_repeated_reads():
    splits = Counter()

    def density(eps):
        splits[eps] += 1
        return Q.density(eps)

    space = absolute_value_metric(replace(Q, density=density))
    cert = ConvCert(space, Seq("1/n", lambda n: F(1, n)), F(0), lambda eps: 1 + int(1 / eps))
    cauchy = conv_to_cauchy(cert)
    # the collector echoes N(eps), then the verifier reads it again
    first = [cauchy.modulus(eps) for eps in GRID]
    assert verify_cauchy_cert(cauchy, GRID, 8) == []
    assert [cauchy.modulus(eps) for eps in GRID] == first
    assert splits == Counter(GRID)
