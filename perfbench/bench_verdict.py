"""Verdict checker: compares one command's exit code and report with its known answer.

Text reports (``key: value`` lines) and structured (JSON) reports are first
brought to one canonical form, keyed like the JSON report, so a known answer
is written once for both formats.  Every expected field must be present and
equal; fields the known answer does not name are ignored.
"""

from __future__ import annotations

import json

# text report values that are sets ("1,2" or "-"), JSON documents, or edge lists
_SET_KEYS = {"chosen_member", "added_set", "removed_set"}
_JSON_KEYS = {"successor", "augmented_family", "remaining_family"}


def _text_set(value: str) -> list[int]:
    return [] if value == "-" else [int(v) for v in value.split(",")]


def _text_scalar(value: str):
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return value


def _text_report(out: str) -> dict:
    report = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"report line without 'key: value': {line!r}")
        key = key.replace("-", "_")
        if key in _SET_KEYS:
            report[key] = _text_set(value)
        elif key in _JSON_KEYS:
            report[key] = json.loads(value)
        elif key == "edges":
            report[key] = [] if value == "none" else [
                [int(v) for v in edge.split("-")] for edge in value.split("; ")]
        elif key not in report:
            # repeated keys (groebner's `generator`) are not checked
            report[key] = _text_scalar(value)
    return report


def _family_text(out: str) -> dict:
    lines = out.splitlines()
    header, _, n = lines[0].partition("=")
    if header != "n":
        raise ValueError(f"family report starts with {lines[0]!r}")
    return {"n": int(n), "sets": [_text_set(line) for line in lines[1:]]}


def canonical(kind: str, argv: list[str], out: str) -> dict:
    """The report as a dict keyed like the structured format."""
    structured = "structured" in argv
    if kind == "decompose":
        return {"system": json.loads(out)}
    if kind == "construct":
        return {"family": json.loads(out) if structured else _family_text(out)}
    return json.loads(out) if structured else _text_report(out)


def check(command: dict, code: int, out: str) -> str | None:
    """None when the result matches the known answer, else a one-line reason."""
    expect = command["expect"]
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    try:
        report = canonical(command["kind"], command["argv"], out)
    except (ValueError, IndexError) as exc:
        return f"unreadable report: {exc}"
    for key, want in expect["fields"].items():
        if key not in report:
            return f"report lacks {key!r}"
        if report[key] != want:
            return f"{key} is {str(report[key])[:80]}, expected {str(want)[:80]}"
    return None
