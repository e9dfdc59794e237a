"""Verifier windows decided by the term's order (the shape fact bounds),
against the walk.

``verify_conv_cert`` and ``verify_cauchy_cert`` pass a window without
walking it when the term's shape names two indices whose values bound every
value of the window: falling powers c·r^n, the partial sums of positive
terms, the alternating sums of falling terms (Leibniz's bound) and the sums
of condensed terms.  Every other window is walked.  The reference is the
same verifier on the same values behind a plain term function, which no
shape answers for, and the every-distance loops of ``tests/scan_oracle.py``:
the violations, with their indices, distances and notes, must agree over
``Q``, ``Z[1/2]``, ``Z[1/3]`` and ``Z(X)``.  The certificates' moduli are
the proved ones, or cut to 1 or to N//2, or fixed indices, so that windows
fail and the walk must still report them; now and then the terms are not
positive or do not fall, and no window may be decided then.
"""

import dataclasses
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ordalab import seq_from_expr
from ordalab.sequences import (
    ConvCert,
    CauchyCert,
    PartialSums,
    Seq,
    cauchy_cert,
    conv_cert,
    shape_fact,
    verify_cauchy_cert,
    verify_conv_cert,
)
from ordalab.series import Series, archimedean_power_modulus, condensed_terms
from reference_registry import reference_registry
from scan_oracle import verify_cauchy_cert_reference, verify_conv_cert_reference
from test_power_terms import HANDLES, KEYS, _compiled, _plain, power_terms, ratios, scales

KINDS = ("values", "plain", "alternating", "condensed")


def _sequence(handle, seq, kind):
    """The values of the power term seq, or the plain, alternating or
    condensed partial sums of it."""
    if kind == "values":
        return seq
    if kind == "alternating":
        sums = PartialSums(handle, seq, True)
        return Seq(f"sum(alt({seq.name}))", sums, sums.sums)
    terms = condensed_terms(handle, seq) if kind == "condensed" else seq
    return Series(handle, terms).partials


def _proved(handle, space, seq, kind, h):
    """The modulus the library proves for the terms seq when they fall,
    else None."""
    if not shape_fact(seq, "falls", handle) or kind == "condensed":
        return None
    if kind == "plain":
        return cauchy_cert(space, Series(handle, seq).partials, h).modulus
    return conv_cert(space, seq, handle.identity, h).modulus


# ratios above 1, whose powers and sums rise and whose alternating sums
# have no Leibniz bound
RISING = {"Q": ("2", "3/2"), "Z[1/2]": ("2", "3/2"), "Z[1/3]": ("3", "4/3"),
          "Z(X)": ("X", "(X+1)")}


@st.composite
def cases(draw):
    """(handle, space, shaped sequence, its plain twin, modulus, grid,
    horizon, window) for a power term that falls three times in six, and
    else rises, alternates in sign with 0 < c and -1 < r < 0, or is any
    c·r^n; window draws the indices of one window the certificate reads,
    and one past it."""
    key = draw(st.sampled_from(KEYS))
    handle = HANDLES[key]
    shape = draw(st.sampled_from(("falling",) * 3 + ("rising", "signed", "any")))
    if shape == "rising":
        src = f"{draw(scales(key, falling=True))}*pow({draw(st.sampled_from(RISING[key]))}, n)"
    elif shape == "signed":
        src = f"{draw(scales(key, falling=True))}*pow(0-{draw(ratios(key, falling=True))}, n)"
    else:
        src = draw(power_terms(key, proper=draw(st.booleans()), falling=shape == "falling"))
    seq = _compiled(key, src)
    kind = draw(st.sampled_from(KINDS))
    # now and then a copy of the space without its _group, where no window
    # is decided
    space = handle.metrics[0]
    if draw(st.integers(0, 7)) == 0:
        space = dataclasses.replace(space)
    # condensed sums read x at 2^(j-1), and Z(X) values grow with the index
    top = 6 if kind == "condensed" else 14 if key == "Z(X)" else 40
    h = draw(st.integers(0, 3 if kind == "condensed" else 16))
    shaped = _sequence(handle, seq, kind)
    plain = _plain(shaped)
    proved = _proved(handle, space, seq, kind, h)
    cut = draw(st.sampled_from(("proved", "one", "half", "fixed")
                               if proved is not None and key != "Z(X)" else ("one", "fixed")))
    if cut == "proved":
        modulus = proved
    elif cut == "half":
        modulus = lambda eps: max(1, proved(eps) // 2)  # noqa: E731
    else:
        k = 1 if cut == "one" else draw(st.integers(1, top))
        modulus = lambda eps: k  # noqa: E731
    n0 = modulus(draw(st.sampled_from(handle.eps_grid)))
    # its ends, the two indices after n0, and any other
    window = (st.sampled_from((n0, n0 + 1, n0 + 2, n0 + h, n0 + h + 1))
              | st.integers(n0, n0 + h + 1))
    # epsilons from the carrier's grid, and distances between two values
    # of that window, so that a bound sits exactly at eps now and then
    pool = list(handle.eps_grid)
    for _ in range(draw(st.integers(0, 3))):
        d = space.distance(plain(draw(window)), plain(draw(window)))
        if handle.is_positive(d):
            pool.append(d)
    grid = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return handle, space, shaped, plain, modulus, grid, h, window


@settings(max_examples=200)
@given(st.data())
def test_decided_cauchy_windows_match_the_walk(data):
    handle, space, shaped, plain, modulus, grid, h, _ = data.draw(cases())
    try:
        got = verify_cauchy_cert(CauchyCert(space, shaped, modulus), grid, h)
    except ValueError as exc:  # a proved modulus past the index cap
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            verify_cauchy_cert(CauchyCert(space, plain, modulus), grid, h)
        return
    reference = CauchyCert(space, plain, modulus)
    assert got == verify_cauchy_cert(reference, grid, h)
    assert [v.values for v in got] == verify_cauchy_cert_reference(reference, grid, h)


@settings(max_examples=200)
@given(st.data())
def test_decided_convergence_windows_match_the_walk(data):
    handle, space, shaped, plain, modulus, grid, h, window = data.draw(cases())
    # 0, or a value of the window moved by a grid epsilon or not, so that a
    # bound sits exactly at limit +- eps now and then
    limit = handle.identity
    if data.draw(st.integers(0, 3)):
        limit = plain(data.draw(window))
        move = data.draw(st.sampled_from((None, handle.op, handle.sub)))
        if move is not None:
            limit = move(limit, data.draw(st.sampled_from(grid)))
    try:
        got = verify_conv_cert(ConvCert(space, shaped, limit, modulus), grid, h)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            verify_conv_cert(ConvCert(space, plain, limit, modulus), grid, h)
        return
    reference = ConvCert(space, plain, limit, modulus)
    assert got == verify_conv_cert(reference, grid, h)
    assert [v.values for v in got] == verify_conv_cert_reference(reference, grid, h)


# Each case below has a window that the fact must leave to the walk, or
# one that only a wrong fact would pass: (term, kind, N, horizon, eps, limit
# or None for the Cauchy verifier).
EDGES = [
    # a falling power's far end: x_1, x_2 = 1/2, 1/4 lie in (3/16, 9/16),
    # x_3 = 1/8 does not; d(x_1, x_2) = 1/4, d(x_1, x_3) = 3/8
    pytest.param("pow(1/2, n)", "values", 1, 2, F(3, 16), F(3, 8), id="power-far-end"),
    pytest.param("pow(1/2, n)", "values", 1, 2, F(3, 8), None, id="power-far-end-cauchy"),
    # a bound exactly at limit + eps (x_3 = 1/8) and at limit - eps
    # (x_5 = 1/32 = 5/32 - 1/8)
    pytest.param("pow(1/2, n)", "values", 3, 2, F(1, 8), F(0), id="limit-plus-eps"),
    pytest.param("pow(1/2, n)", "values", 3, 2, F(1, 8), F(5, 32), id="limit-minus-eps"),
    # no fact for a ratio below 0: x_2 = 1/4 lies outside [x_1, x_3]
    pytest.param("pow(0-1/2, n)", "values", 1, 2, F(3, 8), F(-1, 4), id="no-fall"),
    pytest.param("pow(0-1/2, n)", "values", 1, 2, F(1, 2), None, id="no-fall-cauchy"),
    # the plain sums' far end: s_1..s_4 = 1/2, 3/4, 7/8, 15/16
    pytest.param("pow(1/2, n)", "plain", 1, 3, F(7, 16), None, id="sums-far-end-cauchy"),
    pytest.param("pow(1/2, n)", "plain", 1, 3, F(5, 16), F(5, 8), id="sums-far-end"),
    # Leibniz: s_1..s_3 = 1/2, 1/4, 3/8 lie between s_1 and s_2, not
    # between s_1 and s_3
    pytest.param("pow(1/2, n)", "alternating", 1, 2, F(1, 5), None, id="leibniz"),
    # rising terms have no Leibniz bound: s_1..s_3 = 1/32, -1/32, 3/32
    pytest.param("(1/64)*pow(2, n)", "alternating", 1, 2, F(1, 10), None, id="rising-cauchy"),
    pytest.param("(1/64)*pow(2, n)", "alternating", 1, 2, F(1, 10), F(-1, 32), id="rising"),
    # the condensed sums 1/2, 1, 5/4: their far end, and a distance of
    # exactly eps
    pytest.param("pow(1/2, n)", "condensed", 1, 2, F(3, 4), None, id="condensed-far-end"),
    pytest.param("pow(1/2, n)", "condensed", 1, 1, F(1, 2), None, id="distance-eps"),
]


@pytest.mark.parametrize("src, kind, n0, h, eps, limit", EDGES)
def test_windows_at_the_edge_of_a_bound_are_walked(src, kind, n0, h, eps, limit):
    handle = HANDLES["Q"]
    space = handle.metrics[0]
    shaped = _sequence(handle, _compiled("Q", src), kind)
    plain = _plain(shaped)
    if limit is None:
        got = verify_cauchy_cert(CauchyCert(space, shaped, lambda e: n0), (eps,), h)
        reference = verify_cauchy_cert(CauchyCert(space, plain, lambda e: n0), (eps,), h)
    else:
        got = verify_conv_cert(ConvCert(space, shaped, limit, lambda e: n0), (eps,), h)
        reference = verify_conv_cert(ConvCert(space, plain, limit, lambda e: n0), (eps,), h)
    assert reference and got == reference


def test_the_fact_decides_the_stock_shapes_and_nothing_else():
    handle = HANDLES["Q"]
    space = handle.metrics[0]
    falling, rising = _compiled("Q", "3*pow(1/2, n)"), _compiled("Q", "pow(2, n)")
    bounds = {kind: shape_fact(_sequence(handle, falling, kind), "bounds", space, 5, 4)
              for kind in KINDS}
    assert bounds == {"values": (9, 5), "plain": (5, 9), "alternating": (5, 6),
                      "condensed": (5, 9)}
    assert shape_fact(rising, "bounds", space, 5, 4) is None
    assert shape_fact(_sequence(handle, rising, "alternating"), "bounds", space, 5, 4) is None
    assert shape_fact(_sequence(handle, rising, "plain"), "bounds", space, 5, 4) == (5, 9)
    rational = seq_from_expr("1/n", handle)
    assert shape_fact(_sequence(handle, rational, "plain"), "bounds", space, 5, 4) is None
    # a space without its _group decides nothing
    bare = dataclasses.replace(space)
    assert shape_fact(falling, "bounds", bare, 5, 4) is None
    assert shape_fact(_sequence(handle, falling, "plain"), "bounds", bare, 5, 4) is None


def test_a_decided_window_reads_its_two_bounds_only():
    handle = HANDLES["Q"]
    space = handle.metrics[0]
    seq = _compiled("Q", "pow(1/2, n)")
    assert verify_conv_cert(ConvCert(space, seq, F(0), lambda e: 5), (F(1, 8),), 16) == []
    assert sorted(seq._cache) == [5, 21]
    sums = _sequence(handle, _compiled("Q", "pow(1/2, n)"), "plain")
    assert verify_cauchy_cert(CauchyCert(space, sums, lambda e: 5), (F(1, 8),), 16) == []
    assert sorted(sums._cache) == [5, 21]


def test_archimedean_windows_over_a_falling_ratio_read_their_two_bounds():
    # power_seq builds the sequence: a PowerTerm decides each window from its
    # ends, where the stepping closure of the reference registry walks it
    h = 64
    for handle, ends in ((HANDLES["Q"], lambda n0: (n0, n0 + h)),
                         (reference_registry()["Q"], lambda n0: range(n0, n0 + h + 1))):
        cert = archimedean_power_modulus(handle, handle.metrics[0], F(1, 2))
        grid = handle.eps_grid
        assert verify_conv_cert(cert, grid, h) == []
        read = {n for eps in grid for n in ends(cert.modulus(eps))}
        assert set(cert.seq._cache) == read
