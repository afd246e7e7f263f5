"""Antichains with pattern assignments and the families they carve out.

A `SpernerSystem` pairs each member S of an antichain with a pattern H <= S.
Each pair forbids the trace pattern H on S; the sets avoiding every forbidden
pattern form the system's family.  The complement of the antichain's up-closure
is the down-set of candidate shattered sets.  For extremal families this
construction is reversible: `decompose` recovers the unique system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    AmbiguousMissing,
    FullFamily,
    NotAntichain,
    NotExtremal,
    PatternNotInSupport,
    ShatterlabError,
)
from .families import (
    SetFamily,
    check_ground,
    cube_bits,
    full_mask,
    is_antichain,
    masks_of_bits,
    minimal_bits,
    trace_bits,
)


@dataclass(frozen=True)
class SpernerSystem:
    """An antichain with one pattern per member, in canonical (support-ascending) order.

    The family F is extremal with Sh(F) = D, D the up-complement, iff
    |F| = |D|:
    - a set with trace H on S lies in the cube (S, H), so F shatters no
      support, hence no superset of one, and Sh(F) lies in D;
    - Pajor's bound then gives |F| <= |Sh(F)| <= |D|.
    F can be extremal with Sh(F) smaller than D: |F| < |D| then.
    """

    n: int
    members: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_ground(self.n)
        top = full_mask(self.n)
        prev = -1
        for s, h in self.members:
            if s & ~top:
                raise ShatterlabError(f"support {s} outside ground set [{self.n}]")
            if h & ~s:
                raise PatternNotInSupport(f"pattern {h} not contained in support {s}")
            if s <= prev:
                raise NotAntichain("members must be strictly ascending by support mask")
            prev = s
        if not is_antichain(self.supports()):
            raise NotAntichain("supports are not an antichain")

    @classmethod
    def of(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SpernerSystem":
        return cls(n, tuple(sorted(pairs)))

    @classmethod
    def from_anchor(cls, n: int, antichain: Iterable[int], anchor: int) -> "SpernerSystem":
        """Assign every member the pattern cut out by a fixed anchor set."""
        return cls.of(n, [(s, s & anchor) for s in antichain])

    def __len__(self) -> int:
        return len(self.members)

    def supports(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.members)

    def patterns(self) -> tuple[int, ...]:
        return tuple(h for _, h in self.members)

    def up_complement(self) -> SetFamily:
        """Sets containing no member support; complement of the up-closure (a down-set)."""
        return _outside_cubes(self.n, [(s, s) for s, _ in self.members])

    def family(self) -> SetFamily:
        """Sets whose trace on every support differs from that member's pattern."""
        return _outside_cubes(self.n, self.members)


def _outside_cubes(n: int, pairs: Iterable[tuple[int, int]]) -> SetFamily:
    """The sets in none of the cubes (support, pattern)."""
    union = 0
    for support, pattern in pairs:
        union |= cube_bits(n, support, pattern)
    return SetFamily(n, cube_bits(n, 0, 0) ^ union)


def decompose(fam: SetFamily) -> SpernerSystem:
    """Recover the unique system whose family is `fam` (extremal input required).

    Supports are the minimal non-shattered sets; each pattern is that
    support's unique missing trace.  Raises AmbiguousMissing if uniqueness
    fails, which cannot happen for extremal families.
    """
    if fam.is_full():
        raise FullFamily("the full power set shatters everything; nothing to decompose")
    shattered = fam.shattered_sets()
    if len(shattered) != len(fam):
        raise NotExtremal(
            f"family shatters {len(shattered)} sets but has {len(fam)} members")
    n, pairs = fam.n, []
    for s in masks_of_bits(minimal_bits(n, shattered.complement().bits)):
        missing = cube_bits(n, full_mask(n) ^ s, 0) & ~trace_bits(n, fam.bits, s)
        if missing.bit_count() != 1:
            raise AmbiguousMissing(
                f"minimal non-shattered support {s} has {missing.bit_count()} missing patterns")
        pairs.append((s, missing.bit_length() - 1))
    return SpernerSystem(n, tuple(pairs))
