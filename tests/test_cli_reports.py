"""Exact stdout and exit code of every command in both report formats.

Text reports are ``key: value`` lines; structured reports are JSON documents
(pinned here as the dicts they serialize, in key order, with indent 2).  The
edge cases cover every row whose text form is not the generic one.
"""

import io
import json

import pytest

from shatterlab.cli import main

EX_TEXT = "# three supports over [3]\nn=3\n3\n1,2\n2,3\n1,2,3\n"
EX_SYSTEM_JSON = json.dumps({
    "n": 3,
    "members": [
        {"S": [1, 2], "H": [1]},
        {"S": [1, 3], "H": []},
        {"S": [2, 3], "H": []},
    ],
})
EMPTY_SYSTEM_JSON = json.dumps({"n": 2, "members": []})

EX_SYSTEM_OBJ = {"n": 3, "members": [
    {"S": [1, 2], "H": [1]}, {"S": [1, 3], "H": []}, {"S": [2, 3], "H": []}]}
AUDIT_N2 = {
    "n": 2, "mode": "exhaustive", "seed": None, "families_examined": 16,
    "s_extremal_families": 13, "brute_failures": 0, "missing_witness": 0,
    "machinery_failures": 0, "disagreements": 0, "counterexamples": [], "ok": True,
}

# (argv, stdin) -> (text report, structured report as an object); both exit 0
CASES = {
    "check": (["check"], EX_TEXT, (
        "n: 3\nfamily-size: 4\nshattered-size: 4\nvc-dimension: 1\n"
        "down-set: false\nup-set: false\ns-extremal: true\n"),
        {"n": 3, "family_size": 4, "shattered_size": 4, "vc_dimension": 1,
         "down_set": False, "up_set": False, "s_extremal": True}),
    "decompose": (["decompose"], EX_TEXT,
                  json.dumps(EX_SYSTEM_OBJ, indent=2) + "\n", EX_SYSTEM_OBJ),
    "construct": (["construct"], EX_SYSTEM_JSON, "n=3\n1,2\n3\n2,3\n1,2,3\n",
                  {"n": 3, "sets": [[1, 2], [3], [2, 3], [1, 2, 3]]}),
    "balance": (["balance"], EX_SYSTEM_JSON,
                "n: 3\nmembers: 3\ndefect: 0\npartial[1]: 0\npartial[2]: 1\npartial[3]: -1\n",
                {"n": 3, "members": 3, "defect": 0, "partial_sums": [0, 1, -1]}),
    "balance-empty": (["balance"], EMPTY_SYSTEM_JSON, "n: 2\nmembers: 0\ndefect: 0\n",
                      {"n": 2, "members": 0, "defect": 0, "partial_sums": []}),
    "graph": (["graph"], EX_SYSTEM_JSON, (
        "n: 3\nvertices: 3\nedges: 1-3; 2-3\ndegree-sequence: 1,1,2\n"
        "classification: degree-one-vertex\n"),
        {"n": 3, "vertices": 3, "edges": [[1, 3], [2, 3]], "degrees": [1, 1, 2],
         "classification": "degree-one-vertex"}),
    "graph-empty": (["graph"], EMPTY_SYSTEM_JSON, (
        "n: 2\nvertices: 0\nedges: none\ndegree-sequence: -\nclassification: complete\n"),
        {"n": 2, "vertices": 0, "edges": [], "degrees": [], "classification": "complete"}),
    "augment": (["augment"], EX_SYSTEM_JSON, (
        "chosen-member: 1,2\nadded-set: 1,3\n"
        'successor: {"n": 3, "members": [{"S": [1, 3], "H": []}, {"S": [2, 3], "H": []}]}\n'
        'augmented-family: {"n": 3, "sets": [[1, 2], [3], [1, 3], [2, 3], [1, 2, 3]]}\n'
        "family-size: 5\ns-extremal: true\n"),
        {"chosen_member": [1, 2], "added_set": [1, 3],
         "successor": {"n": 3, "members": [{"S": [1, 3], "H": []}, {"S": [2, 3], "H": []}]},
         "augmented_family": {"n": 3, "sets": [[1, 2], [3], [1, 3], [2, 3], [1, 2, 3]]}}),
    "peel": (["peel"], EX_TEXT, (
        "removed-set: 1,2\n"
        'remaining-family: {"n": 3, "sets": [[3], [2, 3], [1, 2, 3]]}\n'
        "family-size: 3\ns-extremal: true\n"),
        {"removed_set": [1, 2], "remaining_family": {"n": 3, "sets": [[3], [2, 3], [1, 2, 3]]},
         "s_extremal": True}),
    "groebner": (["groebner"], EX_SYSTEM_JSON, (
        "n: 3\norder: 1,2,3\n"
        "generator: x1*x2 - x1\ngenerator: x1*x3 - x1 - x3 + 1\n"
        "generator: x2*x3 - x2 - x3 + 1\ngenerator: x1^2 - x1\n"
        "generator: x2^2 - x2\ngenerator: x3^2 - x3\n"
        "family-size: 4\ndown-set-size: 4\ncounting-equal: true\ngroebner-basis: true\n"
        "standard-monomials: 4\nevaluation-rank: 4\nrank-full: true\nequivalence-holds: true\n"),
        {"n": 3, "order": [1, 2, 3],
         "generators": ["x1*x2 - x1", "x1*x3 - x1 - x3 + 1", "x2*x3 - x2 - x3 + 1",
                        "x1^2 - x1", "x2^2 - x2", "x3^2 - x3"],
         "family_size": 4, "down_set_size": 4, "counting_equal": True, "groebner_basis": True,
         "standard_monomials": 4, "evaluation_rank": 4, "rank_full": True,
         "equivalence_holds": True}),
    "audit": (["audit", "--n", "2"], "", (
        "n: 2\nmode: exhaustive\nseed: -\nfamilies-examined: 16\ns-extremal-families: 13\n"
        "brute-failures: 0\nmissing-witness: 0\nmachinery-failures: 0\ndisagreements: 0\n"
        "ok: true\n"), AUDIT_N2),
}


def run_cli(argv, stdin_text):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_report(case):
    argv, stdin, text, _ = CASES[case]
    assert run_cli(argv, stdin) == (0, text)


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_report(case):
    argv, stdin, _, obj = CASES[case]
    assert run_cli([*argv, "--format", "structured"], stdin) == (
        0, json.dumps(obj, indent=2) + "\n")


@pytest.mark.parametrize("argv, stdin, report", [
    (["decompose"], "n=2\n-\n1,2\n", "error: family shatters 3 sets but has 2 members\n"),
    (["decompose"], "n=1\n-\n1\n",
     "error: the full power set shatters everything; nothing to decompose\n"),
    (["peel"], "n=2\n-\n1,2\n", "error: family is not extremal\n"),
    (["augment"], json.dumps({"n": 3, "members": [
        {"S": [1, 2], "H": [1]}, {"S": [2, 3], "H": [2]}]}),
     "error: system family is not extremal with the full candidate down-set\n"),
])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_not_extremal_report_exits_2(argv, stdin, report, fmt):
    assert run_cli([*argv, "--format", fmt], stdin) == (2, report)
