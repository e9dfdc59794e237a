"""Every golden-corpus invocation still gives its recorded bytes."""

import json

import pytest

from golden_corpus import CASES, GOLDEN, INDEX, run_case

RECORDED = json.loads(INDEX.read_text(encoding="utf-8"))


def test_corpus_matches_the_case_list():
    # a case added, removed or edited without regenerating the corpus
    assert [(c["name"], c["argv"]) for c in RECORDED] == CASES


@pytest.mark.parametrize("case", RECORDED, ids=[c["name"] for c in RECORDED])
def test_golden_bytes(case):
    code, out, err = run_case(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.stdout").read_bytes()
    assert err == (GOLDEN / f"{case['name']}.stderr").read_bytes()
