"""The term-expression grammar: parsing, pretty-printing, evaluation."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ordalab import (
    EvalError,
    TermError,
    eval_term,
    lookup,
    parse_term_expr,
    pretty,
    seq_from_expr,
)
from ordalab.cli import main

Q = lookup("Q")
ZX = lookup("Z(X)")


def test_pretty_round_trip_pins():
    for src, shown in [
        ("1/2^n", "1/2^n"),
        ("n", "n"),
        ("1 - 2 - 3", "1-2-3"),
        ("8/4/2", "8/4/2"),
        ("2^n", "2^n"),
        ("(1+1/n)*(2-1/n)", "(1+1/n)*(2-1/n)"),
        ("1/X^n", "1/X^n"),
        ("pow(1+1/n, n)", "(1+1/n)^n"),
    ]:
        node = parse_term_expr(src)
        assert pretty(node) == shown
        assert parse_term_expr(pretty(node)) == node


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_round_trip_on_generated_expressions(a, b, k):
    src = f"{a}/{b}^{k} + {b}/n - {a}*n"
    node = parse_term_expr(src)
    assert parse_term_expr(pretty(node)) == node
    expected = F(a, b**k) + F(b, 3) - a * 3
    assert eval_term(node, Q, 3) == expected


def test_eval_pins():
    assert eval_term(parse_term_expr("1/2^n"), Q, 3) == F(1, 8)
    assert eval_term(parse_term_expr("1 - 2 - 3"), Q, 1) == F(-4)
    assert eval_term(parse_term_expr("8/4/2"), Q, 1) == F(1)
    assert eval_term(parse_term_expr("pow(1+1/n, n)"), Q, 2) == F(9, 4)
    assert ZX.fmt(eval_term(parse_term_expr("1/X^n"), ZX, 2)) == "1/X^2"


def test_power_binds_tighter_than_division():
    # 1/2^n reads as 1/(2^n), not (1/2)^n
    assert eval_term(parse_term_expr("1/2^n"), Q, 4) == F(1, 16)


def test_parse_errors_carry_columns():
    with pytest.raises(TermError) as err:
        parse_term_expr("1/+")
    assert str(err.value) == "expected a value, got '+' (column 3)"
    with pytest.raises(TermError, match=r"column 5"):
        parse_term_expr("1/2^")
    with pytest.raises(TermError, match=r"column 1"):
        parse_term_expr("")
    with pytest.raises(TermError, match="natural number or n"):
        parse_term_expr("2^(1/2)")
    with pytest.raises(TermError, match="index variable n"):
        parse_term_expr("pow(1/2, 3)")
    with pytest.raises(TermError):
        parse_term_expr("-3/2")  # no unary minus; write 0-3/2


@pytest.mark.parametrize("src, char, column", [
    ("2^¹", "¹", 3),
    ("1/٣^n", "٣", 3),
    ("1/n²", "²", 4),
    ("1/２", "２", 3),
    ("é+1", "é", 1),
    ("Xé", "é", 2),
    ("x·n", "·", 2),
])
def test_only_ascii_digits_and_letters_lex(src, char, column):
    with pytest.raises(TermError) as err:
        parse_term_expr(src)
    assert str(err.value) == f"unexpected character {char!r} (column {column})"
    assert err.value.column == column


def test_ascii_names_keep_digits_and_underscores():
    assert parse_term_expr("x_1+_2") == parse_term_expr("(x_1)+(_2)")
    assert pretty(parse_term_expr("\tX1 *\n2")) == "X1*2"


def test_a_non_ascii_digit_is_bad_input_on_the_command_line(capsys):
    code = main(["series", "1/٣^n", "--structure", "Q", "--test", "geometric"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "unexpected character '٣' (column 3)" in err


_LONG = "1" * 4301  # one digit past int()'s default limit


@pytest.mark.parametrize("expr, grid, column", [
    (_LONG, "1/2", 1),
    ("2^" + _LONG, "1/2", 3),
    ("1/n", "1/2,1/" + _LONG, 3),
], ids=["literal", "exponent", "grid-entry"])
def test_an_overlong_integer_literal_is_a_term_error(capsys, expr, grid, column):
    code = main(["series", expr, "--structure", "Q", "--test", "zero-limit",
                 "--grid", grid])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(f"integer literal has more than 4300 digits (column {column})\n")


def test_a_4300_digit_literal_parses_and_prints():
    node = parse_term_expr("1/" + _LONG[1:])
    assert parse_term_expr(pretty(node)) == node


def _parens(k):
    return "(" * k + "1/n" + ")" * k


def _sum(k):
    return "+".join(["1/n"] * k)


def _tower(k):
    """A term k levels high whose parentheses nest k - 1 deep: (n+(n+...n))."""
    src = "n"
    for _ in range(k - 1):
        src = f"(n+{src})"
    return src[1:-1] if k > 1 else src


@pytest.mark.parametrize("src", [_parens(100), _sum(99), _tower(100), "(" + _tower(99) + ")",
                                 "pow(" * 99 + "1" + ", n)" * 99],
                         ids=["parens-100", "sum-99", "tower-100", "tower-99-in-parens",
                              "pow-nested-99"])
def test_a_term_at_the_depth_bounds_parses_prints_and_evaluates(src):
    node = parse_term_expr(src)
    assert parse_term_expr(pretty(node)) == node
    seq = seq_from_expr(src, Q)
    assert seq(3) == eval_term(node, Q, 3)


@pytest.mark.parametrize("argv, message", [
    (["series", _parens(101), "--structure", "Q", "--test", "zero-limit"],
     "parentheses nest more than 100 deep (column 101)"),
    (["series", _parens(247), "--structure", "Q", "--test", "zero-limit"],
     "parentheses nest more than 100 deep (column 101)"),
    (["series", _sum(100), "--structure", "Q", "--test", "zero-limit"],
     "term is more than 100 levels high (column 396)"),
    (["series", _sum(984), "--structure", "Q", "--test", "zero-limit"],
     "term is more than 100 levels high (column 396)"),
    (["series", _tower(101), "--structure", "Q", "--test", "zero-limit"],
     "term is more than 100 levels high (column 2)"),
    (["series", "pow(" * 100 + "1" + ", n)" * 100, "--structure", "Q", "--test", "zero-limit"],
     "term is more than 100 levels high (column 1)"),
    (["check", "Q", "--suite", "density", "--grid", "(" * 400 + "1/2" + ")" * 400],
     "parentheses nest more than 100 deep (column 101)"),
], ids=["parens-101", "parens-247", "sum-100", "sum-984", "tower-101", "pow-nested-100",
        "grid-parens-400"])
def test_a_term_past_the_depth_bounds_is_a_term_error(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(message + "\n")


# short strings over the grammar's own characters and a spread of others
_SOURCE_CHARS = st.sampled_from("0123456789nXpow_()+-*/^, ") | st.characters(
    blacklist_categories=("Cs",))


@given(st.text(_SOURCE_CHARS, max_size=12))
def test_every_source_parses_or_raises_a_term_error(src):
    try:
        node = parse_term_expr(src)
    except TermError as exc:
        assert 1 <= exc.column <= len(src) + 1
    else:
        assert parse_term_expr(pretty(node)) == node


def test_eval_errors():
    with pytest.raises(EvalError, match="does not define the symbol 'X'"):
        eval_term(parse_term_expr("X"), Q, 1)
    with pytest.raises(EvalError, match="division by zero at n=2"):
        eval_term(parse_term_expr("1/(n-2)"), Q, 2)


@pytest.mark.parametrize("n", [0, -1, 1.5, True])
def test_eval_term_takes_only_a_positive_integer_index(n):
    # True is an int subclass, but not the index 1
    with pytest.raises(ValueError, match="^index must be a positive integer, got "):
        eval_term(parse_term_expr("1/(n+1)"), Q, n)


def test_a_sequence_takes_only_a_positive_integer_index():
    # seq(True) returned x_1 and cached it under the key True
    seq = seq_from_expr("1/(n+1)", Q)
    with pytest.raises(ValueError, match="^sequence index must be >= 1, got True$"):
        seq(True)
    assert seq._cache == {} and seq(1) == F(1, 2)


@pytest.mark.parametrize("n", [F(5, 2), F(2), 2.5, 2.0])
def test_a_sequence_refuses_a_non_integral_index(n):
    # seq(5/2) returned 2/5 and cached it under the key 5/2, and seq(2.5)
    # failed deep inside with a TypeError
    seq = seq_from_expr("1/n", Q)
    with pytest.raises(ValueError, match=f"^sequence index must be an integer >= 1, got {re.escape(repr(n))}$"):
        seq(n)
    assert seq._cache == {} and seq(2) == F(1, 2)


def test_a_missing_inverse_is_an_eval_error():
    with pytest.raises(EvalError, match="^2 has no inverse among the integers$"):
        eval_term(parse_term_expr("1/2^n"), lookup("Z"), 1)


def test_errors_are_value_errors():
    assert issubclass(TermError, ValueError)
    assert issubclass(EvalError, ValueError)


def test_seq_from_expr():
    s = seq_from_expr("1/n", Q)
    assert s.name == "1/n"
    assert s(4) == F(1, 4)
    zx_seq = seq_from_expr("1/X^n", ZX)
    assert ZX.fmt(zx_seq(3)) == "1/X^3"
