"""Finite-dimensional algebras, their pseudonorms, and p-adic valuations."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    albert_pseudonorm,
    coefficient_pseudonorm,
    element_handle,
    load_algebra_table,
    padic_norm,
    padic_valuation,
    shipped_algebras,
    structure_bound,
    verify_pseudonorm,
)
from ordalab.algebra import is_prime

MINI_GAMMA = [1, 0, 0, 1, 0, 1, -1, 0]  # basis 1, i with i*i = -1


def test_shipped_algebra_keys():
    assert sorted(shipped_algebras()) == ["H(Q)", "M2(Q)", "Q(i)", "Q(sqrt10)"]


def test_algebra_fields_and_bounds():
    algs = shipped_algebras()
    qi = algs["Q(i)"]
    assert qi.n == 2 and qi.basis == ("1", "i")
    assert structure_bound(qi) == F(1)
    assert structure_bound(algs["Q(sqrt10)"]) == F(10)
    assert structure_bound(algs["M2(Q)"]) == F(1)
    assert structure_bound(algs["H(Q)"]) == F(1)
    assert algs["M2(Q)"].basis == ("E11", "E12", "E21", "E22")
    assert algs["H(Q)"].basis == ("1", "i", "j", "k")


def test_multiplication_pins():
    algs = shipped_algebras()
    qi = element_handle(algs["Q(i)"])
    assert qi.second_op((F(0), F(1)), (F(0), F(1))) == (F(-1), F(0))
    m2 = element_handle(algs["M2(Q)"])
    e12 = (F(0), F(1), F(0), F(0))
    e21 = (F(0), F(0), F(1), F(0))
    assert m2.second_op(e12, e21) == (F(1), F(0), F(0), F(0))
    h = element_handle(algs["H(Q)"])
    i4 = (F(0), F(1), F(0), F(0))
    j4 = (F(0), F(0), F(1), F(0))
    k4 = (F(0), F(0), F(0), F(1))
    assert h.second_op(i4, j4) == k4
    assert h.second_op(j4, i4) == tuple(-c for c in k4)


def test_scaled_pseudonorm_pins():
    qi = shipped_algebras()["Q(i)"]
    pn = albert_pseudonorm(qi)
    assert pn.name == "Q(i).scaled-coefficient"
    assert pn.norm((F(1), F(1))) == F(4)
    assert pn.norm((F(0), F(1))) == F(2)
    assert pn.norm((F(0), F(0))) == F(0)
    s10 = shipped_algebras()["Q(sqrt10)"]
    assert albert_pseudonorm(s10).norm((F(0), F(1))) == F(20)


def test_scaled_pseudonorm_is_submultiplicative():
    for key in ("Q(i)", "Q(sqrt10)"):
        alg = shipped_algebras()[key]
        pn = albert_pseudonorm(alg)
        grid = [(F(a), F(b)) for a in range(-1, 2) for b in range(-1, 2)]
        assert verify_pseudonorm(pn, grid) == [], key


def test_unscaled_pseudonorm_fails_without_the_structure_bound():
    s10 = shipped_algebras()["Q(sqrt10)"]
    cn = coefficient_pseudonorm(s10)
    assert cn.name == "Q(sqrt10).coefficient"
    bad = verify_pseudonorm(cn, [(F(0), F(1)), (F(1), F(0))])
    assert bad
    first = bad[0]
    assert first.law == "pseudonorm.submultiplicative"
    assert first.values == ((F(0), F(1)), (F(0), F(1)), F(10), F(1))


def test_load_algebra_table_from_dict():
    a = load_algebra_table({"name": "mini-i", "n": 2, "gamma": MINI_GAMMA})
    assert a.name == "mini-i" and a.n == 2
    assert structure_bound(a) == F(1)
    h = element_handle(a)
    assert h.second_op((F(0), F(1)), (F(0), F(1))) == (F(-1), F(0))


def test_load_algebra_table_from_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(
        json.dumps(
            {"name": "mini-j", "n": 2, "gamma": MINI_GAMMA, "basis": ["u", "v"]}
        )
    )
    a = load_algebra_table(str(path))
    assert a.name == "mini-j" and a.basis == ("u", "v")


def test_load_algebra_table_validates():
    with pytest.raises(ValueError, match="n\\^3"):
        load_algebra_table({"name": "bad", "n": 2, "gamma": [1, 2, 3]})
    with pytest.raises(ValueError, match="positive integer"):
        load_algebra_table({"name": "bad", "n": 0, "gamma": []})
    with pytest.raises(ValueError, match="exact"):
        load_algebra_table({"name": "bad", "n": 2, "gamma": [0.5] * 8})


@pytest.mark.parametrize("entry", ["0.5", "1e3", " 1/2 ", "1/2 ", "+1", "1/-2", "0x1", "1_0"])
def test_load_algebra_table_refuses_inexact_text(entry):
    with pytest.raises(ValueError, match="gamma entries must be exact"):
        load_algebra_table({"n": 1, "gamma": [entry]})


def test_load_algebra_table_reads_exact_text():
    table = load_algebra_table({"n": 1, "gamma": ["-3/6"]})
    assert table.gamma == (((F(-1, 2),),),)
    assert load_algebra_table({"n": 1, "gamma": ["12"]}).gamma == (((F(12),),),)


def test_load_algebra_table_rejects_a_bool_n():
    # bool is an int subclass: true must not be read as n = 1
    with pytest.raises(ValueError, match="table key 'n' must be a positive integer"):
        load_algebra_table({"name": "bad", "n": True, "gamma": ["1"]})


@pytest.mark.parametrize("basis", ["ab", ["a", 2], {"a": 1, "b": 2}])
def test_load_algebra_table_rejects_a_basis_that_is_not_a_list_of_names(basis):
    with pytest.raises(ValueError, match="basis must be a list of name strings"):
        load_algebra_table({"name": "bad", "n": 2, "gamma": MINI_GAMMA, "basis": basis})


def test_matrix_algebra_random_submultiplicativity():
    m2 = shipped_algebras()["M2(Q)"]
    pn = albert_pseudonorm(m2)
    h = element_handle(m2)
    bound = structure_bound(m2)
    rng = random.Random(11)
    for _ in range(200):
        x = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        y = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        assert pn.norm(h.second_op(x, y)) <= bound * pn.norm(x) * pn.norm(y)


def test_padic_pins():
    assert padic_norm(F(12), 2) == -2
    assert padic_norm(F(1, 2), 2) == 1
    assert padic_norm(F(3), 2) == 0
    assert padic_norm(F(0), 2) is None
    assert padic_norm(F(8), 2) == -3
    assert padic_valuation(F(12), 2) == 2
    assert padic_valuation(F(1, 2), 2) == -1
    assert padic_valuation(F(9, 5), 3) == 2


def test_padic_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not prime"):
        padic_norm(F(6), 4)
    with pytest.raises(ValueError, match="no valuation"):
        padic_valuation(F(0), 2)


nonzero_rationals = st.fractions(
    min_value=F(-60), max_value=F(60), max_denominator=48
).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5]))
def test_padic_norm_is_strictly_multiplicative(a, b, p):
    assert is_prime(p)
    assert padic_norm(a * b, p) == padic_norm(a, p) + padic_norm(b, p)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5]))
def test_padic_norm_is_ultrametric(a, b, p):
    if a + b == 0:
        return
    # the norm is reported on a logarithmic scale, so the strong triangle
    # inequality compares exponents
    assert padic_norm(a + b, p) <= max(padic_norm(a, p), padic_norm(b, p))
