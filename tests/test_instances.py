"""The shipped structure registry: membership, witnesses, grids, formatting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ordalab import (
    CapabilityError,
    betweenness,
    checked_split,
    density_from_unit_interval,
    demarr_density_witness,
    lookup,
    n_split,
    nat_mul,
    registry,
    split_witness,
    verify_archimedean,
    verify_density,
    verify_shrink,
)
from ordalab.poly import RF_ONE, RF_ZERO, RatFunc, X
from ordalab.suites import resolve_grid
from order_oracle import localized_split, module_density_witness, two_fifths_split
from test_poly import ratfuncs

ALL_KEYS = [
    "G0",
    "Id(Z)",
    "Q",
    "Q(i)",
    "Q^2",
    "Z",
    "Z(X)",
    "Z[1/2]",
    "Z[1/3]",
    "lex",
    "trop",
]


def test_registry_keys():
    assert sorted(registry()) == ALL_KEYS


def test_lookup_accepts_aliases():
    assert lookup("rationals") is lookup("Q")
    assert lookup("ZX") is lookup("Z(X)")
    assert lookup("orthant") is lookup("Q^2")
    assert lookup("tropical") is lookup("trop")
    assert lookup("gauss") is lookup("Q(i)")
    with pytest.raises(KeyError):
        lookup("no-such-structure")


def test_eps_grids():
    assert lookup("Q").eps_grid == tuple(F(1, 2**k) for k in range(1, 13))
    zx = lookup("Z(X)").eps_grid
    inv_x = RF_ONE / X
    assert zx == tuple(
        [RatFunc.from_fraction(F(1, 2**k)) for k in range(1, 7)]
        + [inv_x**k for k in range(1, 5)]
    )
    assert lookup("lex").eps_grid == tuple((0, F(1, 2**k)) for k in range(1, 7))
    assert lookup("Z").eps_grid == (8, 4, 2, 1)


def test_density_witness_pins():
    q = lookup("Q")
    w = split_witness(q, None)
    assert checked_split(q, w, F(1)) == (F(2, 5), F(2, 5))
    assert n_split(q, F(1), 3) == [F(2, 5), F(4, 25), F(4, 25)]
    assert n_split(q, F(1), 1) == [F(2, 5)]
    assert betweenness(q, F(0), F(1)) == F(2, 5)

    trop = lookup("trop")
    assert checked_split(trop, split_witness(trop, None), 5) == (4, 4)


SPLIT_ORACLES = {
    "Q": two_fifths_split(F(2, 5)),
    "Z(X)": two_fifths_split(RatFunc((2,), (5,))),
    "Z[1/2]": localized_split(2),
    "Z[1/3]": localized_split(3),
    "Q^2": module_density_witness(lookup("Q"), lambda r, m: (r * m[0], r * m[1]), F(1, 2)),
}


def positive_elements(key):
    if key == "Z(X)":
        return ratfuncs.filter(lambda r: r != 0).map(lambda r: r if r > 0 else -r)
    num = st.integers(1, 10**6)
    if key == "Q^2":
        # the nonnegative cone without its apex; a coordinate may be 0
        coord = st.builds(F, st.integers(0, 10**6), st.integers(1, 10**6))
        return st.tuples(coord, coord).filter(lambda m: m != (0, 0))
    if key == "Q":
        return st.builds(F, num, st.integers(1, 10**6))
    p = 2 if key == "Z[1/2]" else 3
    return st.builds(lambda k, e: F(k, p**e), num, st.integers(0, 16))


@pytest.mark.parametrize("key", sorted(SPLIT_ORACLES))
@given(data=st.data())
def test_registry_splits_match_the_old_splits(key, data):
    # the registry builds these splits with order.py's constructors; they
    # must give the parts the hand-written splits gave, in value and type
    h = lookup(key)
    eps = data.draw(positive_elements(key))
    for x in (eps, *h.eps_grid, *filter(h.is_positive, h.sample)):
        got, want = h.density(x), SPLIT_ORACLES[key](x)
        assert got == want, x
        assert tuple(map(type, got)) == tuple(map(type, want)), x


def test_density_from_unit_interval_pins():
    q = lookup("Q")
    w = density_from_unit_interval(q, F(1, 2))
    assert w(F(1)) == (F(1, 4), F(1, 4))

    zx = lookup("Z(X)")
    wx = density_from_unit_interval(zx, RF_ONE / X)
    lo, hi = wx(RF_ONE)
    assert zx.fmt(lo) == "1/X^2"
    assert zx.fmt(hi) == "(X - 1)/X^2"
    assert zx.lt(RF_ZERO, lo) and zx.lt(RF_ZERO, hi)
    assert zx.lt(zx.op(lo, hi), RF_ONE)
    # at a smaller target the parts scale down by another factor of the anchor
    lo2, hi2 = wx(RF_ONE / X)
    assert zx.fmt(lo2) == "1/X^3"
    assert zx.lt(zx.op(lo2, hi2), RF_ONE / X)


def test_density_from_unit_interval_rejects_bad_anchor():
    q = lookup("Q")
    with pytest.raises(ValueError):
        density_from_unit_interval(q, F(0))
    with pytest.raises(ValueError):
        density_from_unit_interval(q, F(1))


def test_shrink_witness_pins():
    g0 = lookup("G0")
    assert g0.shrink(2, 3) == (-2, -2)


def test_demarr_density_on_gaussians():
    qi = lookup("Q(i)")
    w = demarr_density_witness(qi)
    assert w((F(5), F(0))) == ((F(2), F(0)), (F(2), F(0)))


def test_density_shrink_archimedean_verify_on_rationals():
    q = lookup("Q")
    assert verify_density(q) == []
    assert verify_shrink(q) == []
    assert verify_archimedean(q) == []


def test_integers_are_not_dense():
    z = lookup("Z")
    with pytest.raises(CapabilityError):
        split_witness(z, None)


def test_non_archimedean_invariant():
    # 1/X is positive, sits under every positive grid rational, and no
    # repeated sum of it ever reaches one
    zx = lookup("Z(X)")
    inv_x = RF_ONE / X
    assert zx.lt(zx.identity, inv_x)
    for k in range(1, 7):
        q = RatFunc.from_fraction(F(1, 2**k))
        assert zx.lt(inv_x, q)
    for n in (1, 10, 1000, 10**6):
        assert zx.lt(nat_mul(zx, n, inv_x), zx.one)
    assert zx.archimedean is None
    with pytest.raises(CapabilityError):
        verify_archimedean(zx)


def test_localized_rings_membership():
    z12 = lookup("Z[1/2]")
    assert z12.from_rational(F(3, 8)) == F(3, 8)
    with pytest.raises(ValueError):
        z12.from_rational(F(1, 3))
    z13 = lookup("Z[1/3]")
    assert z13.from_rational(F(2, 9)) == F(2, 9)
    with pytest.raises(ValueError):
        z13.from_rational(F(1, 2))
    with pytest.raises(ValueError):
        z13.invert(F(2, 3))


def divides_out(den, p):
    """The reference membership test: divide p out once per factor."""
    while den % p == 0:
        den //= p
    return den == 1


@settings(max_examples=200)
@given(st.sampled_from((2, 3)), st.integers(0, 5000), st.data())
def test_localized_membership_matches_dividing_out(p, k, data):
    den = p**k * data.draw(st.sampled_from((1, p + 1, 5, 6, 7)))
    ring = lookup(f"Z[1/{p}]")
    expected = divides_out(den, p)
    try:
        ring.from_rational(F(1, den))
        member = True
    except ValueError:
        member = False
    assert member is expected
    try:
        ring.invert(F(den))
        invertible = True
    except ValueError:
        invertible = False
    assert invertible is expected


def test_resolve_grid():
    q = lookup("Q")
    assert resolve_grid(q, ("1/2", "1/8")) == (F(1, 2), F(1, 8))
    assert resolve_grid(q, ()) == q.eps_grid
    zx = lookup("Z(X)")
    got = resolve_grid(zx, ("1/X^2",))
    assert got == ((RF_ONE / X) ** 2,)


@pytest.mark.parametrize("entry", ["n", "1/n", "1/2^n", "pow(1/2, n)", "(n-n)+1"])
def test_grid_entries_must_not_mention_the_index(entry):
    with pytest.raises(ValueError, match=r"mentions the index n; grid entries are constants"):
        resolve_grid(lookup("Q"), ("1/2", entry))


def test_grid_evaluation_errors_name_the_entry_and_no_index():
    with pytest.raises(ValueError) as info:
        resolve_grid(lookup("Q"), ("1/2", "1/(2-2)"))
    assert str(info.value) == "grid entry '1/(2-2)': division by zero"
    with pytest.raises(ValueError) as info:
        resolve_grid(lookup("Z"), ("1/2",))
    assert str(info.value) == "grid entry '1/2': 2 has no inverse among the integers"


DECREASE = "; grid entries must strictly decrease"


@pytest.mark.parametrize("key, grid, message", [
    ("Q", ("1/2", "2/4"), "grid entry '2/4' is not below '1/2'" + DECREASE),
    ("Q", ("1/4", "1/2", "1/4"), "grid entry '1/2' is not below '1/4'" + DECREASE),
    ("Z(X)", ("1/X", "1/2"), "grid entry '1/2' is not below '1/X'" + DECREASE),
    # positivity is checked first
    ("Q", ("1/4", "1/2-1"), "Q: grid value -1/2 is not positive"),
])
def test_grid_entries_must_strictly_decrease(key, grid, message):
    with pytest.raises(ValueError) as info:
        resolve_grid(lookup(key), grid)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ALL_KEYS)
def test_registered_eps_grids_strictly_decrease(key):
    # the rule resolve_grid applies to typed entries holds for the defaults
    h = registry()[key]
    grid = h.eps_grid
    assert grid
    assert all(h.is_positive(e) for e in grid)
    assert all(h.lt(b, a) for a, b in zip(grid, grid[1:]))


@given(st.fractions(min_value=F(-20), max_value=F(20), max_denominator=64))
def test_rational_formatting_round_trips(x):
    q = lookup("Q")
    assert q.from_rational(F(q.fmt(x))) == x
