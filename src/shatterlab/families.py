"""Ground sets, subset masks, and set-family primitives.

A subset of [n] = {1, ..., n} is encoded as an n-bit mask: bit i-1 set iff
element i is in the subset.  Elements are 1-based in all I/O, bit positions
0-based internally.  A family is one 2^n-bit integer `bits`, bit m set iff m
is a member; every set operation works on it, and its ascending mask tuple
`masks` is decoded only on first use, for output.  Other modules use that
encoding through `cube_bits`, `trace_bits`, `minimal_bits`,
`is_extremal_with`, `masks_of_bits`, `add_member` and `SetFamily(n, bits)`;
`half_tables` decodes masks for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator

from .errors import ShatterlabError

# Masks must fit comfortably in one machine word and 2^n must stay enumerable.
MAX_GROUND = 24


def check_ground(n: int) -> None:
    if not 0 <= n <= MAX_GROUND:
        raise ShatterlabError(f"ground set size {n} outside [0, {MAX_GROUND}]")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """1-based elements of a non-negative mask, ascending."""
    if mask < 0:
        raise ShatterlabError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@cache
def half_tables(n: int, sep: str | None = None) -> tuple[int, tuple, tuple]:
    """Decode tables for the masks over [n], split at h = n // 2.

    Returns (h, low, high): `low[m & (2^h - 1)] + high[m >> h]` is
    `elements_of_mask(m)`; with a separator `sep` it is the string that
    writes each element of m after `sep`.
    """
    h = n // 2
    if sep is not None:
        _, low, high = half_tables(n)
        def text(table):
            return tuple("".join(f"{sep}{e}" for e in elems) for elems in table)
        return h, text(low), text(high)
    low = tuple(map(elements_of_mask, range(1 << h)))
    high = tuple(tuple(e + h for e in elements_of_mask(m)) for m in range(1 << (n - h)))
    return h, low, high


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask` in ascending integer order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@cache
def _bit_clear_positions(n: int) -> tuple[int, ...]:
    """Z_x for each bit x < n: the 2^n-bit integer whose set bits are the masks without x."""
    out = []
    for x in range(n):
        pattern, width = (1 << (1 << x)) - 1, 2 << x
        while width < 1 << n:
            pattern |= pattern << width
            width <<= 1
        out.append(pattern)
    return tuple(out)


_BYTE_POSITIONS = tuple(tuple(i for i in range(8) if byte & 1 << i) for byte in range(256))


def masks_of_bits(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of a non-negative bitset, ascending."""
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    return tuple(base + i for base, byte in zip(range(0, len(data) << 3, 8), data) if byte
                 for i in _BYTE_POSITIONS[byte])


@cache
def _bit_halves(n: int) -> tuple[tuple[int, int], ...]:
    """(Z_x, its complement) for each bit x < n: the masks without x and those with x."""
    full = (1 << (1 << n)) - 1
    return tuple((clear, full ^ clear) for clear in _bit_clear_positions(n))


def cube_bits(n: int, support: int, pattern: int) -> int:
    """Bitset of the masks m over [n] with m & support == pattern."""
    bits = (1 << (1 << n)) - 1
    halves = _bit_halves(n)
    while support:
        low = support & -support
        bits &= halves[low.bit_length() - 1][pattern & low != 0]
        support ^= low
    return bits


def trace_bits(n: int, bits: int, s: int) -> int:
    """Bitset of the traces { m & s } of the family with bitset `bits`.

    Projecting element x out is one fold, P | P >> 2^x, kept to the
    positions whose bit x is clear.
    """
    for x, clear in enumerate(_bit_clear_positions(n)):
        if not s & 1 << x:
            bits = (bits | bits >> (1 << x)) & clear
    return bits


def minimal_bits(n: int, bits: int) -> int:
    """Bitset of the inclusion-minimal members of the family with bitset `bits`.

    A, the proper supersets of members, grows one element x at a time:
    A |= ((A | F) & Z_x) << 2^x adds x to each member and each set of A.
    """
    above = 0
    for x, clear in enumerate(_bit_clear_positions(n)):
        above |= ((above | bits) & clear) << (1 << x)
    return bits & ~above


def _shatters(n: int, bits: int, s: int) -> bool:
    """True iff the family with bitset `bits` shatters s: its trace on s has 2^|s| sets."""
    return trace_bits(n, bits, s).bit_count() == 1 << s.bit_count()


def is_extremal_with(n: int, bits: int, down: int) -> bool:
    """True iff the family F with bitset `bits` is extremal with Sh(F) = D, D = `down`.

    The certificate is |D| = |F| and F shatters none of the minimal sets
    of D's complement (`minimal_bits`): one trace each, no Sh(F).
    Sufficient: a set outside D contains a minimal set outside D, and a
    subset of a shattered set is shattered, so Sh(F) lies in D; with
    Pajor's bound |Sh(F)| >= |F|, |F| <= |Sh(F)| <= |D| = |F|, so
    Sh(F) = D.  Necessary: if Sh(F) = D, no set outside D is shattered.
    D need not be a down-set.  This is a theorem, not a heuristic.
    """
    outside = down ^ (1 << (1 << n)) - 1
    return down.bit_count() == bits.bit_count() and not any(
        _shatters(n, bits, s) for s in masks_of_bits(minimal_bits(n, outside)))


def member_bytes(n: int) -> bytearray:
    """The empty family over [n] as little-endian bytes, for `add_member`."""
    check_ground(n)
    return bytearray(((1 << n) + 7) >> 3)


def add_member(members: bytearray, mask: int) -> bool:
    """Set bit `mask` in O(1), where an int would be copied whole; False if already set."""
    old = members[mask >> 3]
    members[mask >> 3] = old | 1 << (mask & 7)
    return members[mask >> 3] != old


def is_antichain(masks: Iterable[int]) -> bool:
    """True iff no mask is a subset of a different one (duplicates fail too)."""
    ms = list(masks)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            if a & b == a or a & b == b:
                return False
    return True


@dataclass(frozen=True)
class SetFamily:
    """A set system over [n] as one 2^n-bit integer: bit m of `bits` set iff m is a member."""

    n: int
    bits: int

    def __post_init__(self):
        check_ground(self.n)
        if not isinstance(self.bits, int):
            raise ShatterlabError(f"a family's bitset must be an int, got {type(self.bits).__name__}")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ShatterlabError(f"bitset outside the 2^{self.n} subsets of [{self.n}]")

    def __repr__(self) -> str:
        # hex, not the dataclass default: str() of an int above 4300 digits raises
        return f"SetFamily({self.n}, {self.bits:#x})"

    @classmethod
    def of(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """The family of arbitrary masks, in any order; repeats count once."""
        members = member_bytes(n)
        for m in masks:
            if not 0 <= m < 1 << n:
                raise ShatterlabError(f"mask {m} has bits outside ground set [{n}]")
            members[m >> 3] |= 1 << (m & 7)
        return cls(n, int.from_bytes(members, "little"))

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "SetFamily":
        return cls(n, (1 << (1 << n)) - 1)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The members as masks, ascending; decoded from `bits` on first use."""
        return masks_of_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask >= 0 and self.bits >> mask & 1 == 1

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as 1-based element tuples, canonical order."""
        h, low, high = half_tables(self.n)
        below = (1 << h) - 1
        return tuple([low[m & below] + high[m >> h] for m in self.masks])

    def is_full(self) -> bool:
        return self.bits.bit_count() == 1 << self.n

    def with_member(self, mask: int) -> "SetFamily":
        self._check_mask(mask)
        return SetFamily(self.n, self.bits | 1 << mask)

    def without_member(self, mask: int) -> "SetFamily":
        """The family minus `mask`; the family itself when `mask` is no member."""
        return SetFamily(self.n, self.bits ^ 1 << mask) if mask in self else self

    # -- traces and shattering -------------------------------------------

    def trace(self, s: int) -> "SetFamily":
        """The family of intersections { F & s : F in self }."""
        self._check_mask(s)
        return SetFamily(self.n, trace_bits(self.n, self.bits, s))

    def is_shattered(self, s: int) -> bool:
        """True iff every subset of s arises as a trace member."""
        self._check_mask(s)
        return _shatters(self.n, self.bits, s)

    def shattered_sets(self) -> "SetFamily":
        """All sets shattered by the family (a down-set); see `_shattered_bits`."""
        return SetFamily(self.n, _shattered_bits(self.bits, self.n))

    def vc_dimension(self) -> int | None:
        """Size of the largest shattered set; None for the empty family."""
        if not self.bits:
            return None
        return max(s.bit_count() for s in self.shattered_sets().maximal_elements())

    def is_s_extremal(self) -> bool:
        """Equality case of the shattering lower bound, |Sh(F)| == |F|."""
        return _shattered_bits(self.bits, self.n).bit_count() == len(self)

    # -- order structure --------------------------------------------------

    def is_down_set(self) -> bool:
        """Every member with x, x removed, is a member: (B & ~Z_x) >> 2^x lies inside B."""
        b = self.bits
        return all(not (b & ~clear) >> (1 << x) & ~b
                   for x, clear in enumerate(_bit_clear_positions(self.n)))

    def is_up_set(self) -> bool:
        """Every member without x, x added, is a member: (B & Z_x) << 2^x lies inside B."""
        b = self.bits
        return all(not (b & clear) << (1 << x) & ~b
                   for x, clear in enumerate(_bit_clear_positions(self.n)))

    def complement(self) -> "SetFamily":
        return SetFamily(self.n, self.bits ^ (1 << (1 << self.n)) - 1)

    def minimal_elements(self) -> "SetFamily":
        """Inclusion-minimal members (an antichain): those with no member below them."""
        return SetFamily(self.n, minimal_bits(self.n, self.bits))

    def maximal_elements(self) -> "SetFamily":
        """Inclusion-maximal members: as `minimal_bits`, removing x, ((B | F) & ~Z_x) >> 2^x."""
        below = 0
        for x, clear in enumerate(_bit_clear_positions(self.n)):
            below |= ((below | self.bits) & ~clear) >> (1 << x)
        return SetFamily(self.n, self.bits & ~below)

    def _check_mask(self, s: int) -> None:
        if s & ~full_mask(self.n):
            raise ShatterlabError(f"mask {s} has bits outside ground set [{self.n}]")


def _shattered_bits(bits: int, n: int) -> int:
    """Bitset of Sh(F), F the family with bitset `bits` over [n]; exact on every family.

    Let F0 and F1 be F split on its top element x: the low and high halves
    of the bitset, the members without x and those with x (x dropped):
        Sh(F) = Sh(F0 | F1)  disjoint-union  x * (Sh(F0) & Sh(F1)).
    A set S without x has the same traces in F as in F0 | F1, and S + x is
    shattered iff every trace on S occurs both without x (in F0) and with
    it (in F1), that is iff both F0 and F1 shatter S.
    No member shatters nothing, and one member shatters only the empty set.
    Splits repeat, most often on elements in no member (F0 = F1), so each
    distinct family is computed once per call.  The memo is keyed on the
    bitset alone: a set holding an element no member has is never
    shattered, so Sh(F) does not depend on the ground set.
    """
    memo: dict[int, int] = {}

    def sh(bits: int, n: int) -> int:
        if bits & (bits - 1) == 0:
            return 1 if bits else 0
        out = memo.get(bits)
        if out is None:
            half = 1 << (n - 1)
            low, high = bits & (1 << half) - 1, bits >> half
            if low == high:
                s = sh(low, n - 1)
                out = s | s << half
            else:
                out = sh(low | high, n - 1) | (sh(low, n - 1) & sh(high, n - 1)) << half
            memo[bits] = out
        return out

    return sh(bits, n)
