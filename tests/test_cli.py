"""The command-line interface: subcommands, config merging, exit codes."""

import json

import pytest

from golden_corpus import GOLDEN, run_case
from ordalab.cli import main


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors exit this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 2
    assert "usage:" in err


def test_list_structures(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    names = [line.split("\t")[0] for line in lines]
    assert names == sorted(names)
    assert names[2] == "Q"
    assert "flags=" in lines[0] and "aliases=" in lines[0]


def test_unknown_structure_is_a_value_error(capsys):
    code, _, err = run(capsys, ["check", "nope"])
    assert code == 2
    assert "unknown structure 'nope'" in err
    assert "Q(i)" in err and "trop" in err  # suggests the available names


def test_check_density_passes_and_pins(capsys):
    code, out, _ = run(capsys, ["check", "Q", "--suite", "density"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 13
    assert all(r["status"] == "pass" for r in records)
    assert records[0]["check_id"] == "density.between"
    assert records[0]["witness_values"] == ["2/5"]
    by_id = {r["check_id"]: r for r in records}
    assert by_id["density.split[1/1024]"]["witness_values"] == ["1/2560", "1/2560"]


def test_check_output_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, ["check", "Q", "--suite", "density", "--seed", "9"])
    code2, out2, _ = run(capsys, ["check", "Q", "--suite", "density", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_text_format(capsys):
    code, out, _ = run(
        capsys, ["check", "Q", "--suite", "density", "--format", "text"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "checks: 13  pass: 13  violations: 0  unverifiable: 0"


def test_unverifiable_exits_three(capsys):
    code, out, _ = run(capsys, ["check", "Z", "--suite", "density"])
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["check_id"], r["status"]) for r in records] == [
        ("density.capability", "unverifiable")
    ]


def test_grid_flag_restricts_the_grid(capsys):
    code, out, _ = run(capsys, ["check", "Q", "--suite", "density", "--grid", "1/2,1/4"])
    assert code == 0
    ids = [json.loads(line)["check_id"] for line in out.splitlines()]
    assert ids == ["density.between", "density.split[1/2]", "density.split[1/4]"]


@pytest.mark.parametrize("argv", [
    ["check", "Q", "--suite", "density", "--grid", ","],
    ["check", "Q", "--suite", "density", "--grid", ""],
    ["series", "1/n", "--structure", "Q", "--test", "zero-limit", "--grid", " "],
])
def test_a_grid_with_no_entries_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: --grid has no entries\n"


def test_a_config_grid_with_no_entries_exits_two(capsys, tmp_path):
    # an empty list is refused as --grid "," is, not read as the default grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": []}))
    code, out, err = run(capsys, ["check", "Q", "--suite", "density", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: config key 'grid' has no entries\n")


def test_a_grid_entry_that_does_not_parse_is_named(capsys, tmp_path):
    code, out, err = run(capsys, ["check", "Q", "--suite", "density", "--grid", "1/2,1/+"])
    assert (code, out, err) == (
        2, "", "error: grid entry '1/+': expected a value, got '+' (column 3)\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [""]}))
    code, out, err = run(capsys, ["check", "Q", "--suite", "density", "--config", str(cfg)])
    assert (code, out, err) == (
        2, "", "error: grid entry '': expected a value, got end of input (column 1)\n")


def test_series_condensation_passes(capsys):
    code, out, _ = run(
        capsys, ["series", "1/2^n", "--structure", "Q", "--test", "condensation"]
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["check_id"] for r in records] == [
        "series.condensation.backward",
        "series.condensation.forward",
    ]
    assert records[1]["witness_values"][:2] == ["N(1/2)=3", "N(1/4)=3"]
    assert records[0]["witness_values"][:2] == ["N(1/2)=7", "N(1/4)=7"]


def test_series_zero_limit_violation_exits_one(capsys):
    code, out, _ = run(capsys, ["series", "n", "--structure", "Q", "--test", "zero-limit"])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["status"] == "violation"
    assert records[0]["witness_values"][:2] == ["modulus.window", "1/2"]


def test_series_parse_error_exits_two(capsys):
    code, _, err = run(
        capsys, ["series", "1/+", "--structure", "Q", "--test", "zero-limit"]
    )
    assert code == 2
    assert "expected a value, got '+' (column 3)" in err


def test_series_value_error_exits_two(capsys):
    code, _, err = run(
        capsys, ["series", "1/n", "--structure", "Z", "--test", "geometric"]
    )
    assert code == 2
    assert "no inverse" in err


@pytest.mark.parametrize("expr, structure, message", [
    ("1/(n-1)", "Q", "error: division by zero at n=1\n"),
    ("1/2^n", "Z", "error: 2 has no inverse among the integers\n"),
])
def test_series_term_evaluation_error_exits_two(capsys, expr, structure, message):
    # a term with no value is bad input, not a limit that fails to hold
    code, out, err = run(
        capsys, ["series", expr, "--structure", structure, "--test", "zero-limit"]
    )
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("expr, test, extra", [
    ("n", "zero-limit", ["--horizon=-5", "--grid", "1/2"]),
    ("2^n", "geometric", ["--horizon=-3"]),
])
def test_series_negative_horizon_exits_two(capsys, expr, test, extra):
    # an empty window would verify nothing and pass a divergent sequence
    code, out, err = run(
        capsys, ["series", expr, "--structure", "Q", "--test", test, *extra]
    )
    assert (code, out, err) == (2, "", "error: horizon must be a positive integer\n")


def test_series_capability_error_exits_three(capsys):
    code, _, err = run(
        capsys, ["series", "1/2^n", "--structure", "trop", "--test", "geometric"]
    )
    assert code == 3
    assert "unverifiable: trop lacks: ring" in err


def test_config_file_supplies_settings(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "Z", "suite": "metric", "seed": 2}))
    code, out, _ = run(capsys, ["check", "--config", str(cfg)])
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["structure"] == "Z" and first["suite"] == "metric"


def test_cli_flags_override_the_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "Z", "suite": "metric", "seed": 2}))
    code, out, _ = run(
        capsys, ["check", "Q", "--config", str(cfg), "--suite", "density"]
    )
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["structure"] == "Q" and first["suite"] == "density"


def test_unknown_config_keys_are_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "Q", "wat": 1}))
    code, _, err = run(capsys, ["check", "--config", str(cfg)])
    assert code == 2
    assert "unknown config keys: ['wat']" in err


def test_config_grid_is_honored(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "Q", "grid": ["1/2", "1/4"]}))
    code, out, _ = run(capsys, ["check", "--config", str(cfg), "--suite", "density"])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_algebra_subcommand(capsys, tmp_path):
    table = tmp_path / "alg.json"
    table.write_text(
        json.dumps({"name": "mini-i", "n": 2, "gamma": [1, 0, 0, 1, 0, 1, -1, 0]})
    )
    code, out, _ = run(capsys, ["algebra", str(table)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["check_id"], r["status"]) for r in records] == [
        ("albert.mini-i", "pass")
    ]


def test_algebra_rejects_a_malformed_table(capsys, tmp_path):
    table = tmp_path / "alg.json"
    table.write_text(json.dumps({"name": "bad", "n": 2, "gamma": [1]}))
    code, _, err = run(capsys, ["algebra", str(table)])
    assert code == 2
    assert "gamma must hold n^3" in err


@pytest.mark.parametrize("entry, message", [
    ("0.5", "error: gamma entries must be exact (integer or rational string)\n"),
    ("1e3", "error: gamma entries must be exact (integer or rational string)\n"),
    (" 1/2 ", "error: gamma entries must be exact (integer or rational string)\n"),
    ("+1", "error: gamma entries must be exact (integer or rational string)\n"),
    ("1/0", "error: gamma entry '1/0' has a zero denominator\n"),
])
def test_algebra_refuses_inexact_and_malformed_entry_text(capsys, tmp_path, entry, message):
    # Fraction reads every one of these; only -?digits(/digits)? is exact text
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"n": 1, "gamma": [entry]}))
    code, out, err = run(capsys, ["algebra", str(path)])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("table, message", [
    ({"n": True, "gamma": ["1"]}, "error: table key 'n' must be a positive integer\n"),
    ({"n": 2, "gamma": [1, 0, 0, 1, 0, 1, -1, 0], "basis": "ab"},
     "error: basis must be a list of name strings\n"),
])
def test_algebra_rejects_a_bool_n_and_a_string_basis(capsys, tmp_path, table, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, ["algebra", str(path)])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("table, message", [
    # mini-i as planes of rows: the loader reads only the flat n^3 list
    ({"n": 2, "gamma": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]},
     "error: gamma must hold n^3 = 8 scalars\n"),
    ({"n": 1, "gamma": [[[1]]]}, "error: gamma must hold n^3 = 1 scalars\n"),
], ids=["n2", "n1"])
def test_algebra_rejects_a_nested_table(capsys, tmp_path, table, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, ["algebra", str(path)])
    assert (code, out, err) == (2, "", message)


def test_algebra_refuses_a_float_name_under_both_formats(capsys, tmp_path):
    # the name lands in the check id albert.v1.2, which reads as a float
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "v1.2", "n": 2, "gamma": [1, 0, 0, 1, 0, 1, -1, 0]}))
    message = "error: floating-point text is not allowed in reports: 'albert.v1.2'\n"
    for fmt in ("json", "text"):
        code, out, err = run(capsys, ["algebra", str(path), "--format", fmt])
        assert (code, out, err) == (2, "", message)


def test_algebra_takes_no_suite_option(capsys):
    # albert was its only value and nothing read it
    code, out, err = run(capsys, ["algebra", "t.json", "--suite", "albert"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --suite albert" in err


def test_the_parser_serves_calls_after_an_argparse_rejection():
    # one parser serves every call in a process: a rejection must leave it
    # as it was for the calls after it
    def golden(name):
        return tuple((GOLDEN / f"{name}.{part}").read_bytes() for part in ("stdout", "stderr"))

    rejection = ["series", "1/n", "--structure", "Q", "--test", "ratio"]
    code, out, err = run_case(rejection)
    assert (code, out) == (2, b"")
    assert b"argument --test: invalid choice: 'ratio'" in err
    check = run_case(["check", "Q", "--suite", "density", "--seed", "0"])
    assert check == (0, *golden("readme-check-Q-density"))
    series = run_case(["series", "1/2^n", "--structure", "Q", "--test", "geometric"])
    assert series == (0, *golden("series-Q-geometric"))
    assert run_case(rejection) == (code, out, err)


@pytest.mark.parametrize("structure", ["Q", "Z(X)", "Z[1/2]"])
def test_a_geometric_ratio_of_one_is_refused_as_such(capsys, structure):
    # refused before 1 - r = 0 is inverted
    code, out, err = run(capsys, ["series", "pow(1,n)", "--structure", structure,
                                  "--test", "geometric"])
    assert (code, out, err) == (2, "", f"error: {structure}: ratio 1 has no geometric limit\n")


@pytest.mark.parametrize("structure, r", [("Q", "1/2"), ("Q", "1"), ("Z[1/3]", "1/3")])
@pytest.mark.parametrize("k", range(2, 7))
def test_an_early_departure_from_the_powers_is_named_before_the_inverse(capsys, structure, r, k):
    # ratio 1 has no geometric limit and 1 - 1/3 has no inverse in Z[1/3]:
    # the departure at index k is named first
    bump = "*".join(f"(n-{i})" for i in range(1, k))
    code, out, err = run(capsys, ["series", f"pow({r},n)+{bump}/3", "--structure", structure,
                                  "--test", "geometric"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(
        f" is not the power sequence of {r} (index {k})\n")
