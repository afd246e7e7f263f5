"""Parsers and canonical serializers for the on-disk formats.

Family text format: a header line ``n=<int>``, then one set per line as
comma-separated 1-based elements (``-`` for the empty set); ``#`` starts a
comment line.  Structured formats are JSON: families as ``{"n":, "sets":}``,
systems as ``{"n":, "members": [{"S":, "H":}]}``, certificates with all four
fields.  Parsing then serializing then parsing is the identity on canonical
values.  Families are the one value big enough to need a JSON writer of
their own: `family_json` writes what `json.dumps` would, from the bitset.
"""

from __future__ import annotations

import json
from array import array
from functools import cache
from itertools import chain, repeat

from .errors import ParseError, ShatterlabError
from .families import (
    SetFamily,
    add_member,
    check_ground,
    elements_of_mask,
    half_tables,
    member_bytes,
)
from .sperner import SpernerSystem


# -- families ------------------------------------------------------------------

def parse_family_text(text: str) -> SetFamily:
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise ParseError("missing header line n=<int>")
    key, eq, value = line.partition("=")
    if key.strip() != "n" or not eq:
        raise ParseError("expected header n=<int> before any set line", lineno)
    try:
        n = _ground(int(value.strip()), lineno)
    except ValueError:
        raise ParseError(f"bad ground set size {value.strip()!r}", lineno) from None
    members, bit = member_bytes(n), _element_bit(n)
    for lineno, line in lines:
        # a canonical set line hits the memo as it stands; any other line is
        # stripped, skipped when blank or a comment, and parsed from scratch
        mask = _memo_mask(line.split(","), bit)
        if mask is None:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            mask = _parse_set_line(line, n, lineno)
        if not add_member(members, mask):
            raise ParseError(f"duplicate set {line!r}", lineno)
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


@cache
def _element_bit(n: int):
    """Lookup from element e of [n], as the text token str(e) or as the int e, to its bit.

    A memo of `_parse_set_line` and `_set_mask` on the sets they accept
    whose elements are canonical tokens or exact ints; see `_memo_mask` and
    `family_from_object`.
    """
    return {key: 1 << (e - 1) for e in range(1, n + 1) for key in (e, str(e))}.__getitem__


def _memo_mask(keys: list, bit) -> int | None:
    """The mask of a set whose elements `keys` all hit the memo `bit`; None on a miss.

    The keys' bits sum to a mask with one bit per key iff no key repeats.
    None sends the line to `_parse_set_line`, which accepts it or gives the
    error message.
    """
    try:
        mask = sum(map(bit, keys))
    except KeyError:
        return None
    return mask if mask.bit_count() == len(keys) else None


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


def _member_texts(fam: SetFamily, sep: str) -> list[str]:
    """Each member of `fam`, ascending, as its elements joined by `sep`.

    Two lookups in the cached tables of (n, sep), one concatenation and one
    slice per member; no element tuple or list is built.
    """
    h, low, high = half_tables(fam.n, sep)
    below, skip = (1 << h) - 1, len(sep)
    return [(low[m & below] + high[m >> h])[skip:] for m in fam.masks]


def format_family_text(fam: SetFamily) -> str:
    lines = _member_texts(fam, ",")
    if fam.bits & 1:
        lines[0] = "-"  # the empty set, always the first member
    return "\n".join([f"n={fam.n}", *lines, ""])


def family_json(fam: SetFamily, indent: str | None = None) -> str:
    """`json.dumps(family_to_object(fam))` byte for byte, or with a line break
    and indent `indent` before `fam`, its `indent=2` form.

    Each member is one string from `_member_texts`; the brackets between the
    sets are the separator of one join, and the text around them goes into
    the first and last string, so the report is copied once.
    """
    # what json writes after an opening bracket, between two items and before
    # a closing bracket in the object (depth 0), the sets (1) and a set (2)
    (open0, sep0, close0), (open1, sep1, close1), (open2, sep2, close2) = (
        ("", ", ", "") if indent is None else
        (indent + "  " * (depth + 1), "," + indent + "  " * (depth + 1), indent + "  " * depth)
        for depth in range(3))
    head = "{" + open0 + '"n": ' + str(fam.n) + sep0 + '"sets": ['
    tail = "]" + close0 + "}"
    texts = _member_texts(fam, sep2)
    if fam.bits & 1:
        # json writes the empty set, the first member, as [] at any indent
        del texts[0]
        head += open1 + "[]" + (sep1 if texts else close1)
    elif texts:
        head += open1
    if not texts:
        return head + tail
    texts[0] = head + "[" + open2 + texts[0]
    texts[-1] += close2 + "]" + close1 + tail
    return (close2 + "]" + sep1 + "[" + open2).join(texts)


def family_to_object(fam: SetFamily) -> dict:
    return {"n": fam.n, "sets": [list(elems) for elems in fam.sets()]}


def family_from_object(obj) -> SetFamily:
    n, sets = _object_fields(obj, "family", "sets")
    # one pass over every set and element; any anomaly (a non-list set, a
    # bool, float or out-of-range element, a repeat, a duplicate set) leaves
    # acceptance and the message to the per-set path below
    if {*map(type, sets)} <= {list} and {*map(type, chain.from_iterable(sets))} <= {int}:
        try:
            # 8 bytes a mask, where a list would hold an int object for each
            masks = array("q", map(sum, map(map, repeat(_element_bit(n)), sets)))
        except KeyError:
            masks = None
        if masks is not None and sum(map(int.bit_count, masks)) == sum(map(len, sets)):
            fam = SetFamily.of(n, masks)
            if len(fam) == len(masks):
                return fam
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

