"""Tests of the benchmark itself: corpus, checker, tracer and runner.

Run with `python -m pytest perfbench` from the root of a checkout.
"""

import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_corpus
import bench_oracle
import bench_verdict
import run
from bench_trace import Tracer, targets

cli = run.load_program()


def _run(command):
    out = io.StringIO()
    code = cli.main(command["argv"], stdin=io.StringIO(command["stdin"]), stdout=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def tour():
    return bench_corpus.tour(random.Random(5))


@pytest.mark.parametrize("workload", bench_corpus.WORKLOADS)
def test_corpus_is_byte_identical_per_seed(workload):
    first = json.dumps(bench_corpus.build(workload, 11))
    assert first == json.dumps(bench_corpus.build(workload, 11))
    assert first != json.dumps(bench_corpus.build(workload, 12))


def test_corpus_covers_every_subcommand(tour):
    assert {c["kind"] for c in tour} == set(cli._COMMANDS)


def test_oracle_matches_known_counts():
    # extremal families over [2] and [3], full power set excluded
    assert bench_oracle.exhaustive_audit_extremal(2) == 13
    assert bench_oracle.exhaustive_audit_extremal(3) == 127
    assert bench_oracle.defect(3, [(0b011, 0b010), (0b110, 0b000), (0b101, 0b000)]) == 0


def test_checker_accepts_the_program_on_the_tour(tour):
    for command in tour:
        code, out = _run(command)
        assert bench_verdict.check(command, code, out) is None, command["argv"]


def test_checker_flags_corrupted_verdicts(tour):
    check = next(c for c in tour if c["kind"] == "check" and "structured" not in c["argv"])
    code, out = _run(check)
    assert "s-extremal: true" in out
    assert bench_verdict.check(check, code, out.replace("s-extremal: true", "s-extremal: false"))
    assert bench_verdict.check(check, 2, out) == "exit code 2, expected 0"
    size = check["expect"]["fields"]["family_size"]
    corrupted = out.replace(f"family-size: {size}", f"family-size: {size + 1}")
    assert "family_size" in bench_verdict.check(check, code, corrupted)

    augment = next(c for c in tour if c["kind"] == "augment")
    code, out = _run(augment)
    wrong = json.loads(json.dumps(augment))
    wrong["expect"]["fields"]["augmented_family"]["sets"].pop()
    assert bench_verdict.check(augment, code, out) is None
    assert "augmented_family" in bench_verdict.check(wrong, code, out)

    audit = next(c for c in tour if c["kind"] == "audit")
    code, out = _run(audit)
    wrong = json.loads(json.dumps(audit))
    wrong["expect"]["fields"]["s_extremal_families"] += 1
    assert "s_extremal_families" in bench_verdict.check(wrong, code, out)


def test_traced_and_untraced_runs_agree(tour):
    plain = [_run(c) for c in tour]
    tracer = Tracer()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets()]
    with tracer.installed():
        traced = [_run(c) for c in tour]
    assert traced == plain
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets()] == originals
    assert tracer.calls["cli.main"] == len(tour)
    assert tracer.busy["families.shattered_sets"] > 0


def test_self_time_excludes_children_and_busy_counts_nesting_once():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    def outer(depth):
        if depth:
            wrapped_outer(depth - 1)
        wrapped_inner()

    wrapped_inner = tracer._wrap("m.inner", inner, None)
    wrapped_outer = tracer._wrap("m.outer", outer, None)
    wrapped_outer(1)
    assert tracer.calls == {"m.outer": 2, "m.inner": 2}
    outer_self = tracer.self_time["m.outer"]
    spans = {s[0]: s for s in tracer.spans}
    total = {name: sum(s[3] - s[2] for s in spans.values() if s[1] == name)
             for name in ("m.outer", "m.inner")}
    root = next(s for s in spans.values() if s[4] == -1)
    assert tracer.busy["m.outer"] == pytest.approx(root[3] - root[2])
    assert outer_self == pytest.approx(root[3] - root[2] - total["m.inner"])
    assert total["m.outer"] > tracer.busy["m.outer"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(bench_corpus.WORKLOADS)
    baseline = json.loads((Path(run.__file__).parent / "baseline.json").read_text())
    for row in baseline["layer_map"]:
        assert set(row["layer_metrics"]) <= set(run.PER_LAYER)
        assert set(row["moves"]) <= set(run.END_TO_END) | set(run.PER_LAYER)
        assert row["workload"] in bench_corpus.WORKLOADS


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no shatterlab package" in proc.stderr
