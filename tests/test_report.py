"""Check records and rendering: exactness, byte stability, exit codes."""

import json

import pytest
from hypothesis import given, strategies as st

from ordalab import CheckRecord, exit_code, render_json_lines, render_text


def rec(check_id="a.check", status="pass", witness=("1/2",)):
    return CheckRecord(
        suite="density",
        structure="Q",
        check_id=check_id,
        status=status,
        witness_values=witness,
        paper_anchor="order.dense-between",
    )


def test_record_validates_status():
    with pytest.raises(ValueError, match="bad status"):
        rec(status="meh")


def test_record_rejects_float_text():
    with pytest.raises(ValueError, match="floating-point text"):
        rec(witness=("1.5",))
    with pytest.raises(ValueError, match="floating-point text"):
        rec(witness=("v1.2",))
    with pytest.raises(TypeError):
        rec(witness=(0.5,))


@pytest.mark.parametrize("field", ["suite", "structure", "check_id", "paper_anchor"])
def test_record_rejects_float_text_in_every_field(field):
    fields = dict(suite="density", structure="Q", check_id="a.check", status="pass",
                  paper_anchor="order.dense-between")
    with pytest.raises(ValueError, match="floating-point text"):
        CheckRecord(**{**fields, field: "1.2"})
    with pytest.raises(TypeError):
        CheckRecord(**{**fields, field: 1.2})


def test_record_allows_exact_text():
    assert rec(witness=("1/2", "g^-2", "(X - 1)/X^2", "N(1/8)=9")).witness_values


def test_as_dict_shape():
    d = rec().as_dict()
    assert d == {
        "suite": "density",
        "structure": "Q",
        "check_id": "a.check",
        "status": "pass",
        "witness_values": ["1/2"],
        "paper_anchor": "order.dense-between",
    }


def test_render_json_lines_is_byte_stable_and_exact():
    records = [rec(), rec(check_id="b.check", status="violation", witness=("2", "3"))]
    out1 = render_json_lines(records)
    out2 = render_json_lines(records)
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["check_id"] == "a.check"
    assert parsed[1]["witness_values"] == ["2", "3"]
    # keys come out in a fixed sorted order on every line
    for line in lines:
        keys = list(json.loads(line))
        assert keys == sorted(keys)


def test_render_text_pins():
    out = render_text([rec()])
    lines = out.splitlines()
    assert lines[0] == "        pass  Q  a.check  [1/2]"
    assert lines[-1] == "checks: 1  pass: 1  violations: 0  unverifiable: 0"


def test_exit_code_precedence():
    assert exit_code([]) == 0
    assert exit_code([rec()]) == 0
    assert exit_code([rec(status="unverifiable", witness=())]) == 3
    assert exit_code([rec(), rec(status="violation")]) == 1
    # a violation outranks an unverifiable anywhere in the list
    assert (
        exit_code(
            [
                rec(status="unverifiable", witness=()),
                rec(status="violation"),
            ]
        )
        == 1
    )


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_no_float_ever_slips_into_a_record(x):
    with pytest.raises(TypeError):
        CheckRecord(
            suite="s",
            structure="Q",
            check_id="c",
            status="pass",
            witness_values=(x,),
        )
