"""Differential tests: resumed scans and table-backed verification.

A scanned certificate's modulus resumes each scan from the start cached for
a larger epsilon, and its convergence scans and ``verify_conv_cert`` share
one distance table.  The references in ``tests/scan_oracle.py`` scan from
index 1 and compute every distance they read.  Epsilons are queried in any
order, repeats included, as split parts and products query them.
"""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from ordalab import (
    ConvCert,
    Seq,
    lookup,
    scan_cauchy_window_start,
    scan_window_start,
    scanned_cauchy_cert,
    scanned_conv_cert,
    verify_conv_cert,
)
from scan_oracle import (
    scan_cauchy_window_start_reference,
    scan_window_start_reference,
    verify_conv_cert_reference,
)

Q = lookup("Q")
SPACE = Q.metrics[0]
EPS = tuple(F(1, k) for k in (1, 2, 3, 4, 6, 8, 16, 64)) + (F(3, 4), F(5, 2))

values = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=20),
                  min_size=1, max_size=40)
queries = st.lists(st.sampled_from(EPS), min_size=1, max_size=8)
horizons = st.integers(0, 70)


def tail_seq(vals, tail):
    """vals, then tail forever: it tends to tail and is Cauchy."""
    return Seq("vals", lambda n: vals[n - 1] if n <= len(vals) else tail)


def periodic_seq(vals):
    """vals over and over: no window may clear, so scans can give up."""
    return Seq("periodic", lambda n: vals[(n - 1) % len(vals)])


def counting(space):
    """A copy of space whose distance logs the pairs it is asked for."""
    log = []

    def distance(a, b):
        log.append((a, b))
        return space.distance(a, b)

    return replace(space, distance=distance), log


@given(values, st.fractions(min_value=-1, max_value=1, max_denominator=8),
       queries, horizons, horizons)
def test_scanned_conv_cert_matches_scans_from_one(vals, limit, eps_list, horizon, window):
    seq = tail_seq(vals, limit)
    cert = scanned_conv_cert(SPACE, seq, limit, horizon)
    for eps in eps_list:
        assert cert.modulus(eps) == scan_window_start_reference(
            SPACE, seq, limit, eps, horizon, 8192)
    # the table-backed verifier, twice, against one that reads no table
    expected = verify_conv_cert_reference(cert, EPS, window)
    for _ in range(2):
        got = verify_conv_cert(cert, EPS, window)
        assert [v.values for v in got] == expected


@given(values, queries, horizons, st.integers(1, 60))
def test_resumed_scans_match_scans_from_one(vals, eps_list, horizon, max_index):
    # a periodic sequence, so some scans find no window below max_index
    seq = periodic_seq(vals)
    dists: dict = {}
    found: dict = {}
    found_cauchy: dict = {}

    def start(cache, eps):
        return max((n for e, n in cache.items() if e >= eps), default=1)

    for eps in eps_list:
        got = scan_window_start(SPACE, seq, F(0), eps, horizon, max_index,
                                start=start(found, eps), dists=dists)
        assert got == scan_window_start_reference(SPACE, seq, F(0), eps, horizon, max_index)
        if got is not None:
            found[eps] = got
        got = scan_cauchy_window_start(SPACE, seq, eps, horizon, max_index,
                                       start=start(found_cauchy, eps))
        assert got == scan_cauchy_window_start_reference(SPACE, seq, eps, horizon, max_index)
        if got is not None:
            found_cauchy[eps] = got


# the Cauchy scan's first step is at n = 2, so at horizon 0 the scan from 1
# returns 2 when d(1, 2) is not below eps; a scan resumed there must too
@example(vals=[F(0), F(1)], tail=F(0), eps_list=[F(1, 2), F(1, 4)], horizon=0)
@example(vals=[F(0), F(1), F(0), F(3)], tail=F(0), eps_list=[F(1), F(1, 8), F(1, 2)],
         horizon=0)
@given(values.map(lambda vals: vals[:24]),
       st.fractions(min_value=-1, max_value=1, max_denominator=8), queries, horizons)
def test_scanned_cauchy_cert_matches_scans_from_one(vals, tail, eps_list, horizon):
    seq = tail_seq(vals, tail)
    cert = scanned_cauchy_cert(SPACE, seq, horizon)
    expected = {eps: scan_cauchy_window_start_reference(SPACE, seq, eps, horizon, 8192)
                for eps in set(eps_list)}
    for eps in eps_list:
        assert cert.modulus(eps) == expected[eps]


def test_a_failed_scan_still_raises():
    cert = scanned_conv_cert(SPACE, periodic_seq([F(0), F(1)]), F(0), 4)
    with pytest.raises(ValueError, match="no index window up to 8192"):
        cert.modulus(F(1, 2))
    assert cert.modulus(F(2)) == 1


def test_scans_and_verifier_compute_each_distance_once():
    space, log = counting(SPACE)
    seq = Seq("1/n", lambda n: F(1, n))
    cert = scanned_conv_cert(space, seq, F(0), 16)
    grid = (F(1, 2), F(1, 8), F(1, 4), F(1, 32), F(1, 8))
    assert verify_conv_cert(cert, grid, 16) == []
    # the scan for 1/32 reads indices 1..33+16 and every window lies inside
    assert len(log) == len(set(log)) == 33 + 16


def test_verify_fills_a_table_for_any_conv_cert():
    space, log = counting(SPACE)
    cert = ConvCert(space, Seq("1/n", lambda n: F(1, n)), F(0), lambda eps: 1)
    first = verify_conv_cert(cert, (F(1, 2), F(1, 4)), 8)
    assert len(log) == 9
    assert verify_conv_cert(cert, (F(1, 2), F(1, 4)), 8) == first
    assert len(log) == 9


def test_a_dropped_scanned_cert_is_freed_without_the_cycle_collector():
    # the modulus closes over the distance table, not the certificate, so
    # no reference cycle keeps the certificate and its tables alive
    gc.disable()
    try:
        cert = scanned_conv_cert(SPACE, Seq("1/n", lambda n: F(1, n)), F(0), 8)
        assert cert.modulus(F(1, 8)) == 9
        assert verify_conv_cert(cert, (F(1, 8),), 8) == []
        ref, modulus = weakref.ref(cert), weakref.ref(cert.modulus)
        del cert
        assert ref() is None
        assert modulus() is None
    finally:
        gc.enable()
