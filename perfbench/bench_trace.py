"""Spans around calls into each layer's public functions, recorded from outside the package.

`Tracer.installed()` replaces the module attributes and class methods listed
in `targets()` with recording wrappers and restores the originals on exit.
Names re-imported by other modules (``cli.decompose``, ``elimination.decompose``)
are wrapped where they are looked up.  Per-element and private helpers
(``indicator``, ``__contains__``, ``_definitional_*``) are left alone: a span
costs about a microsecond, which would swamp calls that small.

Each span is (span id, name, start, end, parent span id, command id).
Aggregates are kept as the spans close: calls, busy time (outermost span of
a name only, so nested calls of one name are not counted twice), and self
time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _shattered_counts(args, result):
    return {"out_sets": len(result), "in_members": len(args[0])}


def _witness_counts(args, result):
    return {"found": result is not None}


def _audit_counts(args, result):
    return {"examined": result.families_examined, "extremal": result.extremal_families}


def targets():
    """(owner, attribute, span name, counter hook) for every wrapped call site."""
    from shatterlab import cli, elimination, fileio, groebner, sperner
    from shatterlab.families import SetFamily
    from shatterlab.sperner import SpernerSystem

    out = [(cli, "main", "cli.main", None)]
    for name in ("parse_family", "parse_system"):
        out.append((cli, name, f"fileio.{name}", None))
    for owner, name in ((cli, "family_to_object"), (cli, "system_to_object"),
                        (cli, "certificate_to_object"), (cli, "format_family_text"),
                        (fileio, "family_to_object"), (fileio, "system_to_object")):
        out.append((owner, name, "fileio.emit", None))
    out.append((SetFamily, "shattered_sets", "families.shattered_sets", _shattered_counts))
    for name in ("is_s_extremal", "complement", "is_down_set", "is_up_set"):
        out.append((SetFamily, name, f"families.{name}", None))
    for name in ("family", "up_complement"):
        out.append((SpernerSystem, name, f"sperner.{name}", None))
    for owner in (cli, elimination, sperner):
        out.append((owner, "decompose", "sperner.decompose", None))
    out.append((elimination, "uncovered_witness", "elimination.uncovered_witness",
                _witness_counts))
    out.append((elimination, "extend_patterns", "elimination.extend_patterns", None))
    for owner in (cli, elimination):
        out.append((owner, "augment", "elimination.augment", None))
    out.append((cli, "peel", "elimination.peel", None))
    out.append((cli, "audit_conjecture", "elimination.audit_conjecture", _audit_counts))
    out.append((elimination, "random_family", "sampling.random_family", None))
    for name in ("extremality_defect_by_size", "intersection_graph"):
        out.append((cli, name, f"cubes.{name}", None))
    out.append((cli, "extremality_groebner_report", "groebner.extremality_groebner_report",
                None))
    for name in ("is_groebner_basis", "standard_monomial_count", "point_evaluation_rank",
                 "normal_form"):
        out.append((groebner, name, f"groebner.{name}", None))
    return out


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.command_id = 0
        self.keep_spans = True            # aggregates are kept either way
        self.spans: list[tuple] = []
        self.opened = 0                   # spans started, kept or not
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []      # open spans: [span id, name, child time]
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer.opened, name, 0.0]
            tracer.opened += 1
            stack.append(frame)
            tracer._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] -= 1
                duration = end - start
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], name, start, end, parent, tracer.command_id))
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[2]
                if not tracer._depth[name]:
                    tracer.busy[name] += duration
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def module_self_time(self) -> dict[str, float]:
        """Self time summed per package module (the part of a span name before the dot)."""
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_time.items():
            out[name.split(".")[0]] += value
        return dict(out)

    def write(self, path) -> None:
        """Kept spans as gzipped JSON lines, in the order they closed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
