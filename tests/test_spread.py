"""Cauchy windows decided from the spread of the values, and convergence
windows from the bounds limit - eps and limit + eps.

On a space whose distance is |x - y| in an ordered abelian group, the
values of a window are pairwise within eps exactly when max - min is below
eps.  ``verify_cauchy_cert`` then takes one distance per clean window, and
``scan_cauchy_window_start`` keeps deques of suffix maxima and minima and
takes none.  Likewise x is within eps of a limit L exactly when
L - eps < x < L + eps, so ``scan_window_start`` takes no distance there,
and ``verify_conv_cert`` takes one only for an index it reports or that
several windows read.
The references in ``tests/scan_oracle.py`` compare every pair and take
every distance; the fast paths must agree with them on every answer, every
violation and its order, and every evaluation error.  Other spaces keep the
pairwise and distance paths.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    CauchyCert,
    ConvCert,
    EvalError,
    Seq,
    absolute_value_metric,
    lookup,
    scan_cauchy_window_start,
    scan_window_start,
    scanned_conv_cert,
    seq_from_expr,
    verify_cauchy_cert,
    verify_conv_cert,
)
from ordalab.poly import RatFunc, X, poly
from scan_oracle import (
    scan_cauchy_window_start_reference,
    scan_window_start_reference,
    verify_cauchy_cert_reference,
    verify_conv_cert_reference,
)

Q = lookup("Q")
ZX = lookup("Z(X)")
Q_EPS = tuple(F(1, k) for k in (1, 2, 3, 4, 6, 8, 16, 64)) + (F(3, 4), F(5, 2))
ZX_EPS = ZX.eps_grid + (RatFunc((1,), (1, 1)), X, RatFunc((3,)))

# few distinct values, so windows hold repeated and equal values
q_elements = st.one_of(st.sampled_from((F(0), F(1, 2), F(-1, 2), F(1), F(1, 4))),
                       st.fractions(min_value=-3, max_value=3, max_denominator=8))
q_values = st.lists(q_elements, min_size=1, max_size=30)
small = st.integers(min_value=-3, max_value=3)
polys = st.lists(small, min_size=1, max_size=3).map(poly)
ratfuncs = st.builds(RatFunc, polys, polys.filter(bool))
zx_elements = st.one_of(
    st.sampled_from((RatFunc((0,)), RatFunc((1,)), X, RatFunc((1,), (0, 1)))), ratfuncs)
zx_values = st.lists(zx_elements, min_size=1, max_size=12)
horizons = st.integers(0, 70)
CARRIERS = {"Q": (Q, q_values, Q_EPS), "Z(X)": (ZX, zx_values, ZX_EPS)}


def periodic_seq(vals):
    """vals over and over: a window may never clear, so scans can give up."""
    return Seq("periodic", lambda n: vals[(n - 1) % len(vals)])


def tail_seq(vals):
    """vals, then the last value forever: every window clears eventually."""
    return Seq("tail", lambda n: vals[min(n, len(vals)) - 1])


@st.composite
def cases(draw, key):
    handle, values, eps = CARRIERS[key]
    vals = draw(values)
    make = draw(st.sampled_from((periodic_seq, tail_seq)))
    queries = draw(st.lists(st.sampled_from(eps), min_size=1, max_size=6))
    return handle.metrics[0], make(vals), queries, draw(horizons)


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_spread_scan_matches_the_pairwise_scan(key):
    @given(cases(key), st.integers(1, 60), st.integers(0, 10**6))
    def check(case, max_index, pick):
        space, seq, queries, horizon = case
        found: dict = {}
        for eps in queries:
            expected = scan_cauchy_window_start_reference(space, seq, eps, horizon,
                                                          max_index)
            # resumed from the start cached for a larger epsilon, and from
            # any start up to the answer
            start = max((n for e, n in found.items() if space.codomain.le(eps, e)),
                        default=1)
            got = scan_cauchy_window_start(space, seq, eps, horizon, max_index,
                                           start=start)
            assert got == expected
            if expected is not None:
                found[eps] = expected
                assert scan_cauchy_window_start(space, seq, eps, horizon, max_index,
                                                start=1 + pick % expected) == expected

    check()


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_spread_verifier_matches_the_pairwise_verifier(key):
    @given(cases(key), st.lists(st.integers(1, 40), min_size=len(CARRIERS[key][2]),
                                max_size=len(CARRIERS[key][2])))
    def check(case, starts):
        space, seq, queries, horizon = case
        starts = dict(zip(CARRIERS[key][2], starts))
        cert = CauchyCert(space, seq, starts.__getitem__)
        got = verify_cauchy_cert(cert, queries, horizon)
        expected = verify_cauchy_cert_reference(cert, queries, horizon)
        assert [v.values for v in got] == expected
        assert {v.law for v in got} <= {"cauchy.within"}

    check()


def test_a_spread_of_exactly_eps_is_not_within_eps():
    space = Q.metrics[0]
    seq = periodic_seq([F(0), F(1, 2), F(1, 4), F(-1, 4), F(1, 4)])
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        for horizon in range(4):
            assert scan_cauchy_window_start(space, seq, eps, horizon, 40) == \
                scan_cauchy_window_start_reference(space, seq, eps, horizon, 40)
            cert = CauchyCert(space, seq, lambda e: 2)
            got = verify_cauchy_cert(cert, (eps,), horizon)
            assert [v.values for v in got] == \
                verify_cauchy_cert_reference(cert, (eps,), horizon)


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_a_term_failing_at_one_and_two_fails_at_the_same_index(key):
    handle = CARRIERS[key][0]
    space, eps = handle.metrics[0], CARRIERS[key][2][0]
    expr = "1/((n-1)*(n-2))"

    def message(run):
        with pytest.raises(EvalError) as err:
            run(seq_from_expr(expr, handle))
        return str(err.value)

    # a scan from 1 reads seq(2) before seq(1)
    fast = message(lambda seq: scan_cauchy_window_start(space, seq, eps, 4))
    assert fast == message(
        lambda seq: scan_cauchy_window_start_reference(space, seq, eps, 4, 8192))
    assert fast.endswith("at n=2")
    for n0 in (1, 2):
        fast = message(lambda seq: verify_cauchy_cert(
            CauchyCert(space, seq, lambda e: n0), (eps,), 4))
        assert fast == message(lambda seq: verify_cauchy_cert_reference(
            CauchyCert(space, seq, lambda e: n0), (eps,), 4))
        assert fast.endswith(f"at n={n0}")


# ---------------------------------------------------------------------------
# which spaces take the fast paths


@pytest.mark.parametrize("key", ["Q", "Z", "Z[1/2]", "Z[1/3]", "Z(X)"])
def test_ordered_abelian_carriers_record_their_group(key):
    (space,) = lookup(key).metrics
    assert space._group is not None
    assert space._group.flags.commutative_add


@pytest.mark.parametrize("key", ["lex", "Q(i)", "Q^2", "trop", "G0"])
def test_other_registered_spaces_record_no_group(key):
    for space in lookup(key).metrics:
        assert space._group is None, space.name


def test_a_non_abelian_absolute_value_records_no_group():
    assert absolute_value_metric(lookup("lex"))._group is None


def test_a_replaced_distance_drops_the_group():
    space = Q.metrics[0]
    assert replace(space, distance=lambda x, y: abs(x - y))._group is None
    assert replace(space, name="renamed")._group is None


def counted(space):
    """Log every distance space is asked for, keeping its group."""
    log = []
    distance = space.distance

    def logged(x, y):
        log.append((x, y))
        return distance(x, y)

    object.__setattr__(space, "distance", logged)
    return log


def test_the_spread_scan_takes_no_distance():
    space = absolute_value_metric(Q)
    log = counted(space)
    seq = Seq("1/n", lambda n: F(1, n))
    for eps in (F(1, 2), F(1, 8), F(1, 64)):
        assert scan_cauchy_window_start(space, seq, eps, 16) == \
            scan_cauchy_window_start_reference(Q.metrics[0], seq, eps, 16, 8192)
    assert log == []


def test_a_clean_window_takes_one_distance_per_eps():
    space = absolute_value_metric(Q)
    log = counted(space)
    cert = CauchyCert(space, Seq("1/n", lambda n: F(1, n)), lambda eps: int(1 / eps) + 1)
    grid = (F(1, 2), F(1, 8), F(1, 4), F(1, 8))
    assert verify_cauchy_cert(cert, grid, 16) == []
    assert len(log) == len(grid)


def test_a_failing_window_walks_every_pair():
    space = absolute_value_metric(Q)
    log = counted(space)
    cert = CauchyCert(space, periodic_seq([F(0), F(1)]), lambda eps: 1)
    got = verify_cauchy_cert(cert, (F(1, 2),), 16)
    # one spread distance, then the 36 pairs of the offsets 0,1,2,3,5,8,13,16
    assert len(log) == 1 + 36
    assert [v.values for v in got] == verify_cauchy_cert_reference(cert, (F(1, 2),), 16)


# ---------------------------------------------------------------------------
# convergence windows decided from limit - eps and limit + eps

# nonzero limits, and the elements values are drawn from
LIMITS = {"Q": (F(1, 2), F(-3), F(7, 4)),
          "Z(X)": (X, RatFunc((1,), (1, 1)), RatFunc((-2,)), RatFunc((1, 1), (0, 1)))}
ELEMENTS = {"Q": q_elements, "Z(X)": zx_elements}


@st.composite
def conv_cases(draw, key, settle=False):
    """(space, seq, limit, queries, horizon): the values sit exactly at
    limit +- eps for queried eps, at limit +- eps/2, at the limit, or
    anywhere; a settling sequence ends at the limit, so every scan clears."""
    handle, _, eps = CARRIERS[key]
    limit = draw(st.sampled_from(LIMITS[key]))
    queries = draw(st.lists(st.sampled_from(eps), min_size=1, max_size=6))
    half = handle.from_rational(F(1, 2))
    near = [limit]
    for e in queries:
        for step in (e, handle.mul(half, e)):
            near += [handle.op(limit, step), handle.sub(limit, step)]
    vals = draw(st.lists(st.one_of(st.sampled_from(near), ELEMENTS[key]),
                         min_size=1, max_size=30))
    make = tail_seq if settle else draw(st.sampled_from((periodic_seq, tail_seq)))
    seq = make(vals + [limit] if settle else vals)
    return handle.metrics[0], seq, limit, queries, draw(horizons)


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_bound_scan_matches_the_distance_scan(key):
    @given(conv_cases(key), st.integers(1, 60), st.integers(0, 10**6))
    def check(case, max_index, pick):
        space, seq, limit, queries, horizon = case
        found: dict = {}
        for eps in queries:
            expected = scan_window_start_reference(space, seq, limit, eps, horizon,
                                                   max_index)
            # resumed from the start cached for a larger epsilon, and from
            # any start up to the answer
            start = max((n for e, n in found.items() if space.codomain.le(eps, e)),
                        default=1)
            got = scan_window_start(space, seq, limit, eps, horizon, max_index,
                                    start=start)
            assert got == expected
            if expected is not None:
                found[eps] = expected
                assert scan_window_start(space, seq, limit, eps, horizon, max_index,
                                         start=1 + pick % expected) == expected

    check()


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_scanned_convergence_certificates_match_the_references(key):
    @given(conv_cases(key, settle=True), horizons)
    def check(case, verify_horizon):
        space, seq, limit, queries, horizon = case
        cert = scanned_conv_cert(space, seq, limit, horizon)
        for eps in queries:
            assert cert.modulus(eps) == scan_window_start_reference(
                space, seq, limit, eps, horizon, 8192)
        # a second horizon, so the verifier can find violations
        got = verify_conv_cert(cert, queries, verify_horizon)
        assert [v.values for v in got] == \
            verify_conv_cert_reference(cert, queries, verify_horizon)

    check()


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_bound_decided_verifier_matches_the_reference(key):
    """Moduli drawn at will, so that windows overlap or not and fail
    anywhere: the violations, their distances and their order are the
    reference's, which takes every distance."""
    @given(conv_cases(key), st.lists(st.integers(1, 40), min_size=6, max_size=6))
    def check(case, starts):
        space, seq, limit, queries, horizon = case
        cert = ConvCert(space, seq, limit, lambda eps: starts[queries.index(eps)])
        got = verify_conv_cert(cert, queries, horizon)
        assert [v.values for v in got] == verify_conv_cert_reference(cert, queries, horizon)

    check()


@pytest.mark.parametrize("key", sorted(CARRIERS))
def test_a_term_failing_mid_scan_fails_at_the_same_index(key):
    handle = CARRIERS[key][0]
    space, limit = handle.metrics[0], LIMITS[key][0]
    eps = handle.from_rational(F(1, 8))

    def message(run):
        with pytest.raises(EvalError) as err:
            run(seq_from_expr("1/(n-5)", handle))
        return str(err.value)

    expected = message(lambda seq: scan_window_start_reference(space, seq, limit, eps,
                                                               4, 8192))
    assert expected == "division by zero at n=5"
    for start in (1, 3, 5):
        assert message(lambda seq: scan_window_start(space, seq, limit, eps, 4,
                                                     start=start)) == expected


def test_the_bound_scan_takes_no_distance():
    space = absolute_value_metric(Q)
    log = counted(space)
    seq = Seq("1+1/n", lambda n: 1 + F(1, n))
    grid = (F(1, 2), F(1, 64), F(1, 8))
    for eps in grid:
        assert scan_window_start(space, seq, F(1), eps, 16) == \
            scan_window_start_reference(Q.metrics[0], seq, F(1), eps, 16, 8192)
    cert = scanned_conv_cert(space, seq, F(1), 16)
    assert [cert.modulus(eps) for eps in grid] == [3, 65, 9]
    assert log == []
    # the verifier decides by the same bounds an index one window reads, and
    # takes one distance for each index that several windows read
    assert verify_conv_cert(cert, grid, 16) == []
    assert len(log) == len(set(range(9, 20)))
    log.clear()
    # and each index it reports takes one, the distance the violation carries
    early = replace(cert, modulus=lambda eps: 1)
    got = verify_conv_cert(early, (F(1, 8),), 16)
    assert [v.values[1] for v in got] == list(range(1, 9))
    assert len(log) == 8
    assert [v.values for v in got] == verify_conv_cert_reference(early, (F(1, 8),), 16)


def test_a_space_without_a_group_takes_distances():
    space = replace(Q.metrics[0], name="Q.abs copy")
    log = counted(space)
    seq = Seq("1+1/n", lambda n: 1 + F(1, n))
    dists: dict = {}
    assert scan_window_start(space, seq, F(1), F(1, 8), 16, dists=dists) == 9
    assert len(log) == len(dists) == 9 + 16
