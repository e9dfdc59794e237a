"""Metric spaces, norms, induced distances, and their law checkers."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    absolute_value_metric,
    absolute_value_norm,
    induced_metric,
    lookup,
    product_metric,
    registry,
    sample_triples,
    verify_metric,
    verify_norm,
)

rationals = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=40)


def _cube(space):
    # every triple of the space's first eight points
    base = tuple(space.points)[:8]
    return itertools.product(base, base, base)


def test_every_registered_space_satisfies_the_laws():
    for key, handle in registry().items():
        for space in handle.metrics:
            assert verify_metric(space, triples=_cube(space)) == [], f"{key}/{space.name}"


def test_every_registered_norm_satisfies_the_laws():
    for key, handle in registry().items():
        for ng in handle.norms:
            assert verify_norm(ng) == [], f"{key}/{ng.name}"


@given(rationals, rationals, rationals)
def test_rational_absolute_metric_triangle(x, y, z):
    q = lookup("Q")
    space = absolute_value_metric(q)
    m = space.codomain
    dxz = space.distance(x, z)
    via = m.op(space.distance(x, y), space.distance(y, z))
    assert m.le(dxz, via)
    assert space.distance(x, y) == space.distance(y, x)
    assert (space.distance(x, y) == m.identity) == (x == y)


def test_induced_metric_matches_norm_of_difference():
    q = lookup("Q")
    ng = absolute_value_norm(q)
    space = induced_metric(ng)
    assert space.distance(F(5, 2), F(1)) == F(3, 2)
    assert space.distance(F(1), F(5, 2)) == F(3, 2)


def test_lex_head_norm_pins():
    lex = lookup("lex")
    ng = lex.norms[0]
    assert ng.name == "lex.lead"
    assert ng.norm((3, F(5))) == (3, F(0))
    assert ng.norm((-3, F(5))) == (3, F(0))
    assert ng.norm((0, F(-7))) == (0, F(7))
    assert ng.norm(lex.identity) == lex.identity


def _lex_inverse(lex, g):
    a, q = g
    inv = (-a, -q * F(2) ** (-a))
    assert lex.op(g, inv) == lex.identity
    return inv


@given(
    st.tuples(st.integers(-3, 3), rationals),
    st.tuples(st.integers(-3, 3), rationals),
)
def test_lex_head_norm_subadditive_and_symmetric(x, y):
    # the group product twists the tail by a power of two, which is exactly
    # what a plain componentwise absolute value fails on; the head norm
    # survives it
    lex = lookup("lex")
    ng = lex.norms[0]
    prod = lex.op(x, y)
    lhs = ng.norm(prod)
    rhs = lex.op(ng.norm(x), ng.norm(y))
    assert lex.le(lhs, rhs)
    assert ng.norm(_lex_inverse(lex, x)) == ng.norm(x)


def test_lex_induced_metric_needs_no_commutativity():
    lex = lookup("lex")
    space = lex.metrics[0]
    x, y = (1, F(1, 2)), (0, F(3))
    d = space.distance(x, y)
    inv_y = _lex_inverse(lex, y)
    assert d == lex.norms[0].norm(lex.op(x, inv_y))
    assert space.distance(x, x) == lex.identity


def test_partial_point_distances_are_rejected():
    trop = lookup("trop")
    space = trop.metrics[0]
    with pytest.raises(ValueError):
        space.distance(None, 0)
    g0 = lookup("G0")
    with pytest.raises(ValueError):
        g0.metrics[0].distance(None, 2)


def test_product_metric_laws():
    q = lookup("Q")
    base = absolute_value_metric(q)
    prod = product_metric("pair", (base, base))
    assert verify_metric(prod, triples=_cube(prod)) == []
    assert prod.distance((F(0), F(0)), (F(0), F(0))) == prod.codomain.identity


def test_sample_triples_is_deterministic_and_sized():
    pts = list(range(10))
    a = sample_triples(pts, 500, random.Random(7))
    b = sample_triples(pts, 500, random.Random(7))
    c = sample_triples(pts, 500, random.Random(8))
    assert a == b
    assert len(a) == 500
    assert a != c
    assert all(len(t) == 3 and all(p in pts for p in t) for t in a)


def test_verify_metric_accepts_explicit_triples():
    q = lookup("Q")
    space = absolute_value_metric(q)
    triples = sample_triples([F(n, 3) for n in range(-6, 7)], 200, random.Random(0))
    assert verify_metric(space, triples=triples) == []


def test_a_distance_negates_once_and_only_a_negative_difference_again():
    calls = []

    def negate(x):
        calls.append(x)
        return -x

    space = absolute_value_metric(replace(lookup("Q"), negate=negate))
    assert space.distance(F(3), F(1)) == 2
    assert calls == [F(1)]  # the subtraction's negation only
    calls.clear()
    assert space.distance(F(1), F(3)) == 2
    assert calls == [F(3), F(-2)]
    calls.clear()
    assert space.distance(F(2), F(2)) == 0
    assert calls == [F(2)]
