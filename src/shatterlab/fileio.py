"""Parsers and canonical serializers for the on-disk formats.

Family text format: a header line ``n=<int>``, then one set per line as
comma-separated 1-based elements (``-`` for the empty set); ``#`` starts a
comment line.  Structured formats are JSON: families as ``{"n":, "sets":}``,
systems as ``{"n":, "members": [{"S":, "H":}]}``, certificates with all four
fields.  Parsing then serializing then parsing is the identity on canonical
values.
"""

from __future__ import annotations

import json

from .errors import ParseError, ShatterlabError
from .families import SetFamily, add_member, check_ground, elements_of_mask, member_bytes
from .sperner import SpernerSystem


# -- families ------------------------------------------------------------------

def parse_family_text(text: str) -> SetFamily:
    n = members = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            key, eq, value = line.partition("=")
            if key.strip() != "n" or not eq:
                raise ParseError("expected header n=<int> before any set line", lineno)
            try:
                n = _ground(int(value.strip()), lineno)
            except ValueError:
                raise ParseError(f"bad ground set size {value.strip()!r}", lineno) from None
            members = member_bytes(n)
            continue
        if not add_member(members, _parse_set_line(line, n, lineno)):
            raise ParseError(f"duplicate set {line!r}", lineno)
    if n is None:
        raise ParseError("missing header line n=<int>")
    return SetFamily(n, int.from_bytes(members, "little"))


def _parse_set_line(line: str, n: int, lineno: int) -> int:
    if line == "-":
        return 0
    elements = []
    for piece in line.split(","):
        piece = piece.strip()
        try:
            elements.append(int(piece))
        except ValueError:
            raise ParseError(f"bad element {piece!r}", lineno) from None
    return _set_mask(elements, n, lineno)


# -- validation shared by the text and JSON encodings ------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ground(n: int, line=None) -> int:
    try:
        check_ground(n)
    except ShatterlabError as exc:
        raise ParseError(str(exc), line) from None
    return n


def _set_mask(elements, n: int, line=None) -> int:
    """Mask of one set given as 1-based elements: non-bool ints in [1, n], no repeats."""
    if not isinstance(elements, list):
        raise ParseError(f"a set must be an array of elements, got {elements!r}", line)
    mask = 0
    for e in elements:
        if not _is_int(e):
            raise ParseError(f"bad element {e!r}", line)
        if not 1 <= e <= n:
            raise ParseError(f"element {e} outside ground set [{n}]", line)
        if mask >> (e - 1) & 1:
            raise ParseError(f"repeated element {e}", line)
        mask |= 1 << (e - 1)
    return mask


def _object_fields(obj, kind: str, field: str) -> tuple[int, list]:
    """The ground set size and the `field` array of a family or system object."""
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} object must be a JSON object")
    if "n" not in obj or field not in obj:
        raise ParseError(f"{kind} object needs fields 'n' and '{field}'")
    n, items = obj["n"], obj[field]
    if not _is_int(n) or not isinstance(items, list):
        raise ParseError(f"'n' must be an integer and '{field}' an array")
    return _ground(n), items


def format_family_text(fam: SetFamily) -> str:
    lines = [f"n={fam.n}"] + [",".join(map(str, elems)) or "-" for elems in fam.sets()]
    return "\n".join(lines) + "\n"


def family_to_object(fam: SetFamily) -> dict:
    return {"n": fam.n, "sets": [list(elems) for elems in fam.sets()]}


def family_from_object(obj) -> SetFamily:
    n, sets = _object_fields(obj, "family", "sets")
    members = member_bytes(n)
    # every set is validated before a duplicate is reported
    if not all([add_member(members, _set_mask(s, n)) for s in sets]):
        raise ParseError("duplicate sets in family")
    return SetFamily(n, int.from_bytes(members, "little"))


def parse_family(text: str) -> SetFamily:
    """Accept either encoding; JSON when the first character is '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return family_from_object(_load_json(text))
    return parse_family_text(text)


# -- systems ---------------------------------------------------------------------

def system_to_object(system: SpernerSystem) -> dict:
    return {
        "n": system.n,
        "members": [
            {"S": list(elements_of_mask(s)), "H": list(elements_of_mask(h))}
            for s, h in system.members
        ],
    }


def system_from_object(obj) -> SpernerSystem:
    n, members = _object_fields(obj, "system", "members")
    pairs = []
    for k, entry in enumerate(members):
        if not isinstance(entry, dict) or "S" not in entry or "H" not in entry:
            raise ParseError(f"member {k} needs fields 'S' and 'H'")
        try:
            pairs.append((_set_mask(entry["S"], n), _set_mask(entry["H"], n)))
        except ParseError as exc:
            raise ParseError(f"member {k}: {exc}") from None
    try:
        return SpernerSystem.of(n, pairs)
    except ShatterlabError as exc:
        raise ParseError(str(exc)) from None


def parse_system(text: str) -> SpernerSystem:
    return system_from_object(_load_json(text))


# -- certificates ------------------------------------------------------------------

def certificate_to_object(cert) -> dict:
    return {
        "chosen_member": list(elements_of_mask(cert.chosen_member)),
        "added_set": list(elements_of_mask(cert.added_set)),
        "successor": system_to_object(cert.successor),
        "augmented_family": family_to_object(cert.augmented_family),
    }


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def roundtrip_stable(text: str) -> bool:
    """Parse, serialize canonically, re-parse: must give the same value."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = _load_json(text)
        if isinstance(obj, dict) and "members" in obj:
            system = system_from_object(obj)
            return system_from_object(system_to_object(system)) == system
        fam = family_from_object(obj)
        return family_from_object(family_to_object(fam)) == fam
    fam = parse_family_text(text)
    return parse_family_text(format_family_text(fam)) == fam
