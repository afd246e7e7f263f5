"""Seeded end-to-end benchmark of the shatterlab command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extremal-pipeline --seed 1 --seconds 30 --trace 0

One client drives `shatterlab.cli.main` in a closed loop, in this process and
thread, over the seeded corpus of `bench_corpus`.  An untimed first pass
checks every verdict against its known answer; then whole timed passes run
while another fits in `--seconds`.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced passes
and reports per-layer figures per traced pass, plus the tracing overhead.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_corpus
import bench_verdict
from bench_trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "cmds_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

_BUSY = (
    "families.shattered_sets", "families.is_s_extremal", "families.complement",
    "families.is_down_set", "families.is_up_set", "sperner.family",
    "sperner.up_complement", "elimination.uncovered_witness",
    "elimination.extend_patterns", "groebner.is_groebner_basis",
    "groebner.standard_monomial_count", "groebner.point_evaluation_rank",
    "groebner.normal_form", "cubes.extremality_defect_by_size",
    "cubes.intersection_graph", "fileio.parse_family", "fileio.parse_system",
    "fileio.emit", "sampling.random_family",
)
_SELF = ("sperner.decompose", "elimination.augment", "elimination.peel",
         "elimination.audit_conjecture", "cli.main")
PER_LAYER = {
    "families.shattered_sets.calls": "count",
    "families.shattered_sets.out_sets": "count",
    "families.shattered_sets.in_members": "count",
    **{f"{name}.busy_s": "s" for name in _BUSY},
    **{f"{name}.self_s": "s" for name in _SELF},
    "groebner.normal_form.calls": "count",
    "elimination.uncovered_witness.found_ratio": "ratio",
    "elimination.audit.extremal_ratio": "ratio",
    "audit.families_per_s": "1/s",
    "audit.extremal_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_program():
    """Import the package from this checkout's `src`, never an installed copy."""
    if not (SRC / "shatterlab" / "__init__.py").is_file():
        raise BenchError(f"no shatterlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    from shatterlab import cli
    if Path(cli.__file__).resolve().parent != SRC / "shatterlab":
        raise BenchError(f"imported {cli.__file__}, not the checkout's package")
    return cli


def measure_setup(samples: int) -> tuple[float, list[float]]:
    """Median time from spawning a fresh interpreter to a built CLI parser.

    The child reads the system-wide monotonic clock once the parser exists, so
    interpreter teardown is not counted.  One spawn first fills the bytecode
    cache and is not counted either.
    """
    code = ("import time, shatterlab.cli as cli; cli.build_parser(); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(samples + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        if i:
            times.append(float(proc.stdout) - start)
    return statistics.median(times), times


class Client:
    """Closed-loop client: runs commands, times them, and keeps their verdicts.

    `check_pass` runs the corpus once, untimed, and checks every result
    against its known answer; that pass also lets caches fill and the heap
    grow before anything is timed.  A timed pass must then reproduce each
    checked result byte for byte, which also holds traced passes to the
    untraced output.
    """

    def __init__(self, cli, corpus):
        self.cli = cli
        self.corpus = corpus
        self.answers: list[tuple[tuple, str | None]] = []   # (result, failure) per entry
        self.failures: list[str] = []
        self.latencies: list[float] = []     # seconds per timed command, in run order
        self.attempted = 0

    def _call(self, command) -> tuple[float, tuple]:
        stdin, out = io.StringIO(command["stdin"]), io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main(command["argv"], stdin=stdin, stdout=out)
        except Exception as exc:   # a command that raises is a failed verdict
            code = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, (code, out.getvalue())

    def _count(self, command, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{' '.join(command['argv'])}: {failure}")

    def check_pass(self) -> None:
        for command in self.corpus:
            _, result = self._call(command)
            code, text = result
            failure = code if isinstance(code, str) else bench_verdict.check(command, code, text)
            self.answers.append((result, failure))
            self._count(command, failure)

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run the corpus once, timed; returns the seconds spent inside commands."""
        total = 0.0
        for command, (answer, failure) in zip(self.corpus, self.answers):
            if tracer is not None:
                tracer.command_id = self.attempted
            elapsed, result = self._call(command)
            self.latencies.append(elapsed)
            total += elapsed
            if result != answer:
                failure = "output differs from the checked first run"
            self._count(command, failure)
        return total


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def audit_rates(corpus, latencies: list[float]) -> tuple[float, float]:
    """Families examined, and extremal families checked, per second inside `audit` commands."""
    examined = extremal = seconds = 0.0
    for k, elapsed in enumerate(latencies):
        command = corpus[k % len(corpus)]
        if command["kind"] == "audit":
            examined += command["expect"]["fields"]["families_examined"]
            extremal += command["expect"]["fields"]["s_extremal_families"]
            seconds += elapsed
    return examined / seconds, extremal / seconds


def untraced_run(client: Client, seconds: float) -> tuple[int, dict]:
    """Whole passes while another fits in `seconds`; returns (passes, end-to-end figures)."""
    passes = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while passes == 0 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        busy += client.run_pass()
        passes += 1
        last = time.perf_counter() - start
    latencies = client.latencies
    # each command's latency is its median over the passes, which keeps a
    # slow stretch of the shared machine from standing in for a slow command
    size = len(client.corpus)
    per_command = [statistics.median(latencies[i::size]) for i in range(size)]
    families_rate, extremal_rate = audit_rates(client.corpus, latencies)
    return passes, {
        "cmds_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(per_command) * 1e3,
        "latency_p90_ms": percentile(per_command, 0.9) * 1e3,
        "audit.families_per_s": families_rate,
        "audit.extremal_per_s": extremal_rate,
    }


def traced_run(client: Client, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes while another pair fits in `seconds`.

    Returns (traced passes, per-layer figures per traced pass, tracer).  The
    overhead compares median traced and untraced pass times; the spans of the
    first traced pass are written to `spans_path`.
    """
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not traced or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        plain.append(client.run_pass())
        with tracer.installed():
            traced.append(client.run_pass(tracer))
        tracer.keep_spans = False
        last = time.perf_counter() - start
    passes = len(traced)
    calls, busy, own, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    values = {
        "families.shattered_sets.calls": calls["families.shattered_sets"] / passes,
        "families.shattered_sets.out_sets": counts["families.shattered_sets.out_sets"] / passes,
        "families.shattered_sets.in_members":
            counts["families.shattered_sets.in_members"] / passes,
        **{f"{name}.busy_s": busy[name] / passes for name in _BUSY},
        **{f"{name}.self_s": own[name] / passes for name in _SELF},
        "groebner.normal_form.calls": calls["groebner.normal_form"] / passes,
        "elimination.uncovered_witness.found_ratio":
            counts["elimination.uncovered_witness.found"]
            / calls["elimination.uncovered_witness"],
        "elimination.audit.extremal_ratio": counts["elimination.audit_conjecture.extremal"]
            / counts["elimination.audit_conjecture.examined"],
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain) - 1,
        "trace.spans": tracer.opened / passes,
    }
    # audit throughput from the untraced passes only; traced passes alternate with them
    untraced = [t for k, t in enumerate(client.latencies)
                if k // len(client.corpus) % 2 == 0]
    values["audit.families_per_s"], values["audit.extremal_per_s"] = audit_rates(
        client.corpus, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return passes, values, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program()
        setup = None if args.trace else measure_setup(SETUP_SAMPLES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    corpus = bench_corpus.build(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(corpus)} commands per pass,"
          f" corpus and known answers built in {time.perf_counter() - start:.2f} s")
    client = Client(cli, corpus)
    start = time.perf_counter()
    client.check_pass()
    print(f"checked pass, untimed: {time.perf_counter() - start:.2f} s")
    # corpus and answers live for the whole run; keep them out of the program's collections
    gc.collect()
    gc.freeze()

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        passes, values, tracer = traced_run(client, args.seconds, spans_path)
        units = PER_LAYER
        print(f"traced run: {passes} traced passes, each after an untraced one;"
              f" figures are per traced pass; spans of the first one in {spans_path}")
        total = tracer.busy["cli.main"]
        shares = sorted(tracer.module_self_time().items(), key=lambda kv: -kv[1])
        print("self time by module, share of traced command time: " + ", ".join(
            f"{module} {seconds / total:.1%}" for module, seconds in shares))
        busiest = sorted(tracer.busy.items(), key=lambda kv: -kv[1])
        print("busy time, share of traced command time: " + ", ".join(
            f"{name} {seconds / total:.1%}" for name, seconds in busiest[1:7]))
    else:
        passes, values = untraced_run(client, args.seconds)
        units = END_TO_END
        values["setup_s"], setup_samples = setup
        print(f"timed run: {passes} passes of {len(corpus)} commands; latency percentiles over"
              f" the {len(corpus)} per-command medians; setup_s over {len(setup_samples)}"
              " fresh interpreters")
        for name in ("audit.families_per_s", "audit.extremal_per_s"):
            print(f"{name}: {values[name]:.6g} 1/s (audit commands only)")
    failed = len(client.failures)
    print(f"error_rate: {failed / client.attempted:.4g} ratio ({failed} of {client.attempted})")
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    for failure in client.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
