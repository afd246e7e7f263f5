"""Command-line front end.

Exit codes: 0 when the checked property holds (or the command just computes),
2 when a property is false (not extremal, no witness, nonzero defect), and 1
for usage or input errors.  Reports are deterministic: same input and flags,
same bytes.

Each command builds its report once, as ordered rows ``(key, value)`` that
`_emit` renders as ``key: value`` lines or as JSON keyed by the row key with
``-`` read as ``_``.  Rows with a non-generic text form carry their text lines
third (``[]``: JSON only); `_text_only` rows stay out of the JSON.  A family
value is the `SetFamily` itself, written from its bitset by
`fileio.family_json` (compact in text reports); every other value is what
`json.dumps` writes for it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .cubes import (
    classify_graph,
    extremality_defect_by_size,
    intersection_graph,
)
from .elimination import audit_conjecture, augment, peel
from .errors import FullFamily, NotExtremal, ParseError, ShatterlabError
from .families import SetFamily, elements_of_mask
# unused here, but perfbench's bench_trace.targets() looks up family_to_object and
# certificate_to_object in this module's __dict__ to wrap them
from .fileio import (  # noqa: F401
    certificate_to_object,
    family_json,
    family_to_object,
    format_family_text,
    parse_family,
    parse_system,
    system_to_object,
)
from .groebner import LexOrder, extremality_groebner_report, format_polynomial
from .sperner import decompose

OK, PROPERTY_FALSE, USAGE_ERROR = 0, 2, 1


def _text(value) -> str:
    """The text-report form of a row value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return ",".join(str(v) for v in value) or "-"
    if isinstance(value, dict):
        return json.dumps(value)
    if isinstance(value, SetFamily):
        return family_json(value)
    return str(value)


def _text_only(key: str, value) -> tuple:
    return None, None, [f"{key}: {_text(value)}"]


def _json(value, indent: str = "\n") -> str:
    """What `json.dumps` writes for `value` with a two-space indent, byte for byte.

    `indent` is the line break and indent that precede `value`.  json writes
    no raw line break inside a string, so giving each of its line breaks that
    indent moves the whole value to that depth.  A family is written from its
    bitset by `family_json`.
    """
    if isinstance(value, SetFamily):
        return family_json(value, indent)
    return json.dumps(value, indent=2).replace("\n", indent)


def _emit(rows: list[tuple], fmt: str) -> str:
    if fmt == "structured":
        # the report object, one row at a time; every command has a row
        return "{\n  " + ",\n  ".join(
            json.dumps(key.replace("-", "_")) + ": " + _json(value, "\n  ")
            for key, value, *_ in rows if key is not None) + "\n}\n"
    out = []
    for key, value, *text in rows:
        out += text[0] if text else [f"{key}: {_text(value)}"]
    return "\n".join(out) + "\n"


def _read_input(args, stdin) -> str:
    try:
        if args.input_path:
            with open(args.input_path, "r", encoding="utf-8") as fh:
                return fh.read()
        return (stdin or sys.stdin).read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None


def _cmd_check(args, text):
    fam = parse_family(text)
    shattered = fam.shattered_sets()
    extremal = len(shattered) == len(fam)
    return (OK if extremal else PROPERTY_FALSE), [
        ("n", fam.n),
        ("family-size", len(fam)),
        ("shattered-size", len(shattered)),
        ("vc-dimension", max((s.bit_count() for s in shattered.maximal_elements()), default=None)),
        ("down-set", fam.is_down_set()),
        ("up-set", fam.is_up_set()),
        ("s-extremal", extremal),
    ]


def _cmd_decompose(args, text):
    system = decompose(parse_family(text))
    # the interchange encoding doubles as the text report
    return OK, json.dumps(system_to_object(system), indent=2) + "\n"


def _cmd_construct(args, text):
    fam = parse_system(text).family()
    if args.format == "structured":
        return OK, _json(fam) + "\n"
    return OK, format_family_text(fam)


def _cmd_balance(args, text):
    system = parse_system(text)
    partial = list(extremality_defect_by_size(system))
    defect = sum(partial)
    return (OK if defect == 0 else PROPERTY_FALSE), [
        ("n", system.n),
        ("members", len(system.members)),
        ("defect", defect),
        ("partial-sums", partial, [f"partial[{k}]: {v}" for k, v in enumerate(partial, start=1)]),
    ]


def _cmd_graph(args, text):
    system = parse_system(text)
    graph = intersection_graph(system)
    edges = [[i + 1, j + 1] for i, j in graph.edges()]
    degrees = [graph.degree(i) for i in range(graph.size)]
    return OK, [
        ("n", system.n),
        ("vertices", graph.size),
        ("edges", edges, ["edges: " + ("; ".join(f"{i}-{j}" for i, j in edges) or "none")]),
        ("degrees", degrees, [f"degree-sequence: {_text(degrees)}"]),
        ("classification", classify_graph(graph).value),
    ]


def _cmd_augment(args, text):
    certificate = augment(parse_system(text))
    if certificate is None:
        return PROPERTY_FALSE, [("witness", None)]
    return OK, [
        ("chosen-member", list(elements_of_mask(certificate.chosen_member))),
        ("added-set", list(elements_of_mask(certificate.added_set))),
        ("successor", system_to_object(certificate.successor)),
        ("augmented-family", certificate.augmented_family),
        _text_only("family-size", len(certificate.augmented_family)),
        _text_only("s-extremal", True),
    ]


def _cmd_peel(args, text):
    fam = parse_family(text)
    removed = peel(fam)
    if removed is None:
        return PROPERTY_FALSE, [("witness", None)]
    remaining = fam.without_member(removed)
    return OK, [
        ("removed-set", list(elements_of_mask(removed))),
        ("remaining-family", remaining),
        _text_only("family-size", len(remaining)),
        ("s-extremal", True),
    ]


def _cmd_groebner(args, text):
    system = parse_system(text)
    if args.order is not None and sorted(args.order) != list(range(system.n)):
        raise ParseError(
            f"--order must be a permutation of 1..{system.n}, got "
            + (",".join(str(v + 1) for v in args.order) or "-"))
    order = LexOrder(args.order) if args.order else LexOrder.standard(system.n)
    report = extremality_groebner_report(system, order)
    gens = [format_polynomial(g, order) for g in report.generators]
    good = report.counting_equal and report.groebner and report.rank_full and report.equivalence_holds
    return (OK if good else PROPERTY_FALSE), [
        ("n", system.n),
        ("order", [v + 1 for v in order.priority]),
        ("generators", gens, [f"generator: {g}" for g in gens]),
        ("family-size", report.family_size),
        ("down-set-size", report.down_set_size),
        ("counting-equal", report.counting_equal),
        ("groebner-basis", report.groebner),
        ("standard-monomials", report.standard_monomials),
        ("evaluation-rank", report.evaluation_rank),
        ("rank-full", report.rank_full),
        ("equivalence-holds", report.equivalence_holds),
    ]


def _cmd_audit(args, _input):
    if args.count is not None and args.seed is None:
        raise ParseError("--seed is required with --count")
    if args.seed is not None and args.count is None:
        raise ParseError("--count is required with --seed")
    report = audit_conjecture(args.n, samples=args.count, seed=args.seed)
    seed = "-" if report.seed is None else report.seed
    return (OK if report.ok else PROPERTY_FALSE), [
        ("n", report.n),
        ("mode", report.mode),
        ("seed", report.seed, [f"seed: {seed}"]),
        ("families-examined", report.families_examined),
        ("s-extremal-families", report.extremal_families),
        ("brute-failures", report.brute_failures),
        ("missing-witness", report.missing_witness),
        ("machinery-failures", report.machinery_failures),
        ("disagreements", report.disagreements),
        ("counterexamples", [list(m) for m in report.counterexamples], []),
        ("ok", report.ok),
    ]


# name -> (handler, reads input, help text)
_COMMANDS = {
    "check": (_cmd_check, True,
              "report trace/shattering statistics and extremality of a family"),
    "decompose": (_cmd_decompose, True, "emit the canonical system of an extremal family"),
    "construct": (_cmd_construct, True, "materialize the family of a system"),
    "balance": (_cmd_balance, True, "inclusion-exclusion defect of a system"),
    "graph": (_cmd_graph, True, "intersection graph and its classification"),
    "augment": (_cmd_augment, True, "run one verified extension step on a system"),
    "peel": (_cmd_peel, True, "remove one set from an extremal family, keeping extremality"),
    "groebner": (_cmd_groebner, True,
                 "three-way extremality report (counting, basis test, point rank)"),
    "audit": (_cmd_audit, False,
              "sweep families and compare brute force with the extension step"),
}


class _Parser(argparse.ArgumentParser):
    # usage errors end in one error line and exit 1, not argparse's usage and exit 2
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every `main` call."""
    parser = _Parser(prog="shatterlab",
                     description="Construct, verify, and search shattering-extremal set systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads_input, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_input:
            p.add_argument("--input", dest="input_path", default=None,
                           help="input file (default: standard input)")
        p.add_argument("--format", choices=["text", "structured"], default="text")
        if name == "groebner":
            p.add_argument("--order", default=None,
                           help="comma-separated variable priority, e.g. 2,1,3")
        if name == "audit":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--count", type=int, default=None,
                           help="sample count (omit for the exhaustive sweep)")
            p.add_argument("--seed", type=int, default=None,
                           help="splitmix64 seed; required with --count, refused without it")
    return parser


def main(argv=None, stdin=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handler, reads_input, _ = _COMMANDS[args.command]
    try:
        # --order arrives as text, and an empty --order is the empty priority
        # list; it is read before the input, so a bad order is reported first
        order = getattr(args, "order", None)
        if order is not None:
            try:
                args.order = tuple(int(v) - 1 for v in order.split(",")) if order else ()
            except ValueError:
                raise ParseError(f"bad --order {order!r}") from None
        code, report = handler(args, _read_input(args, stdin) if reads_input else "")
    except (NotExtremal, FullFamily) as exc:
        code, report = PROPERTY_FALSE, f"error: {exc}\n"
    except (ShatterlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    stdout.write(report if isinstance(report, str) else _emit(report, args.format))
    return code


def console_main() -> None:
    raise SystemExit(main())
