"""The check-suite runner: coverage, determinism, honest unverifiables."""

import pytest

from ordalab import (
    SUITE_NAMES,
    RunConfig,
    exit_code,
    registry,
    render_json_lines,
    run_suite,
)


def test_suite_names():
    assert SUITE_NAMES == (
        "axioms",
        "density",
        "shrink",
        "metric",
        "sequence",
        "series",
        "condensation",
        "geometric",
        "bernoulli",
        "albert",
    )


def test_run_config_defaults():
    cfg = RunConfig(structure="Q")
    assert cfg.suite == "all"
    assert cfg.grid == ()
    assert cfg.horizon == 64
    assert cfg.seed == 0


def test_run_config_rejects_bools():
    # True is an int to isinstance, but it would seed the rng as "True:..."
    with pytest.raises(ValueError, match="seed must be an integer"):
        RunConfig(structure="Q", suite="bernoulli", seed=True)
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        RunConfig(structure="Q", horizon=True)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(RunConfig(structure="Q", suite="nope"))


def test_rationals_pass_everything():
    recs = run_suite(RunConfig(structure="Q", suite="all"))
    assert len(recs) == 62
    assert {r.status for r in recs} == {"pass"}
    assert exit_code(recs) == 0
    ids = [r.check_id for r in recs]
    assert ids == sorted(ids)


def test_density_records_pin():
    recs = run_suite(RunConfig(structure="Q", suite="density"))
    assert len(recs) == 13
    assert {r.status for r in recs} == {"pass"}
    first = recs[0]
    assert first.check_id == "density.between"
    assert first.witness_values == ("2/5",)
    assert first.paper_anchor == "order.dense-between"
    by_id = {r.check_id: r for r in recs}
    assert by_id["density.split[1/1024]"].witness_values == ("1/2560", "1/2560")


def test_integers_report_density_as_unverifiable():
    recs = run_suite(RunConfig(structure="Z", suite="density"))
    assert [(r.check_id, r.status) for r in recs] == [
        ("density.capability", "unverifiable")
    ]
    assert exit_code(recs) == 3


def test_no_structure_ever_reports_a_violation():
    # every registered structure either verifies a law or says it cannot
    for key in registry():
        recs = run_suite(RunConfig(structure=key, suite="axioms"))
        assert all(r.status != "violation" for r in recs), key


def test_runs_are_deterministic_per_seed():
    a = run_suite(RunConfig(structure="Q", suite="metric", seed=5))
    b = run_suite(RunConfig(structure="Q", suite="metric", seed=5))
    assert render_json_lines(a) == render_json_lines(b)


def test_records_carry_their_structure_and_suite():
    recs = run_suite(RunConfig(structure="lex", suite="metric"))
    assert recs
    assert {r.structure for r in recs} == {"lex"}
    assert {r.suite for r in recs} == {"metric"}
    assert exit_code(recs) == 0
