"""Ground sets, subset masks, and set-family primitives.

A subset of [n] = {1, ..., n} is encoded as an n-bit mask: bit i-1 set iff
element i is in the subset.  Elements are 1-based in all I/O, bit positions
0-based internally.  A family is a deduplicated tuple of masks in ascending
integer order (the canonical order used for equality and serialization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ShatterlabError

# Masks must fit comfortably in one machine word and 2^n must stay enumerable.
MAX_GROUND = 24


def check_ground(n: int) -> None:
    if not 0 <= n <= MAX_GROUND:
        raise ShatterlabError(f"ground set size {n} outside [0, {MAX_GROUND}]")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build a mask from 1-based elements, validating the range."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ShatterlabError(f"element {e} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask` in ascending integer order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


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
    """A canonical set system over [n]: masks strictly ascending, no duplicates."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        check_ground(self.n)
        top = full_mask(self.n)
        prev = -1
        for m in self.masks:
            if m <= prev:
                raise ShatterlabError("family masks must be strictly ascending (canonical order)")
            if m & ~top:
                raise ShatterlabError(f"mask {m} has bits outside ground set [{self.n}]")
            prev = m

    @classmethod
    def of(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """Canonicalize arbitrary mask iterables (sorts, deduplicates)."""
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from 1-based element lists; duplicate sets are rejected."""
        masks = [mask_from_elements(s, n) for s in sets]
        if len(set(masks)) != len(masks):
            raise ShatterlabError("duplicate sets in family")
        return cls(n, tuple(sorted(masks)))

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "SetFamily":
        return cls(n, tuple(range(1 << n)))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as 1-based element tuples, canonical order."""
        return tuple(elements_of_mask(m) for m in self.masks)

    def is_full(self) -> bool:
        return len(self.masks) == 1 << self.n

    def with_member(self, mask: int) -> "SetFamily":
        return SetFamily.of(self.n, self.masks + (mask,))

    def without_member(self, mask: int) -> "SetFamily":
        return SetFamily(self.n, tuple(m for m in self.masks if m != mask))

    # -- traces and shattering -------------------------------------------

    def trace(self, s: int) -> "SetFamily":
        """The family of intersections { F & s : F in self }."""
        self._check_mask(s)
        return SetFamily.of(self.n, {m & s for m in self.masks})

    def is_shattered(self, s: int) -> bool:
        """True iff every subset of s arises as a trace member."""
        self._check_mask(s)
        want = 1 << s.bit_count()
        if len(self.masks) < want:
            return False
        return len({m & s for m in self.masks}) == want

    def shattered_sets(self) -> "SetFamily":
        """All sets shattered by the family (a down-set).

        Candidates are visited in ascending mask order, so every subset of s
        is decided before s; a candidate is skipped when some immediate
        subset already failed (shattered sets are subset-closed).
        Empty family shatters nothing, by convention.
        """
        masks = self.masks
        if not masks:
            return SetFamily.empty(self.n)
        size = len(masks)
        shattered = {0}
        for s in range(1, 1 << self.n):
            rest = s
            closed = True
            while rest:
                low = rest & -rest
                if (s ^ low) not in shattered:
                    closed = False
                    break
                rest ^= low
            if not closed:
                continue
            want = 1 << s.bit_count()
            if size >= want and len({m & s for m in masks}) == want:
                shattered.add(s)
        return SetFamily(self.n, tuple(sorted(shattered)))

    def vc_dimension(self) -> int | None:
        """Size of the largest shattered set; None for the empty family."""
        if not self.masks:
            return None
        return max(s.bit_count() for s in self.shattered_sets())

    def is_s_extremal(self) -> bool:
        """Equality case of the shattering lower bound: |Sh(F)| == |F|."""
        return len(self.shattered_sets()) == len(self.masks)

    # -- order structure --------------------------------------------------

    def is_down_set(self) -> bool:
        present = set(self.masks)
        for m in self.masks:
            rest = m
            while rest:
                low = rest & -rest
                if (m ^ low) not in present:
                    return False
                rest ^= low
        return True

    def is_up_set(self) -> bool:
        present = set(self.masks)
        top = full_mask(self.n)
        for m in self.masks:
            rest = top & ~m
            while rest:
                low = rest & -rest
                if (m | low) not in present:
                    return False
                rest ^= low
        return True

    def complement(self) -> "SetFamily":
        present = set(self.masks)
        return SetFamily(self.n, tuple(m for m in range(1 << self.n) if m not in present))

    def minimal_elements(self) -> "SetFamily":
        """Inclusion-minimal members (an antichain); smaller masks scanned first."""
        mins = []
        for m in self.masks:
            if not any(g & m == g for g in mins):
                mins.append(m)
        # a later mask can never be a proper subset of an earlier one
        return SetFamily(self.n, tuple(mins))

    def maximal_elements(self) -> "SetFamily":
        maxs: list[int] = []
        for m in reversed(self.masks):
            if not any(m & g == m for g in maxs):
                maxs.append(m)
        return SetFamily(self.n, tuple(reversed(maxs)))

    def _check_mask(self, s: int) -> None:
        if s & ~full_mask(self.n):
            raise ShatterlabError(f"mask {s} has bits outside ground set [{self.n}]")
