"""Compatibility of pattern cubes, the inclusion-exclusion defect, and the intersection graph.

Two pattern cubes meet iff each support cut by the other's pattern agrees
(the compatibility condition, tested in `_compatibility_rows` alone); the
intersection is then the cube on the union support with the union
pattern.  Summing signed cube sizes over the non-clique index sets
measures how far a system is from extremal: the defect equals
|up-complement| - |family| and vanishes exactly when the
system's family is extremal with the full candidate down-set shattered
(the counting lemma proved in `SpernerSystem`).
It is counted from cover histograms of the cube bitsets, so it enumerates
no index sets and has no member cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NotComplete, VerificationFailed
from .families import cube_bits
from .sperner import SpernerSystem


def _compatibility_rows(system: SpernerSystem) -> list[int]:
    members = system.members
    rows = [0] * len(members)
    for i, (si, hi) in enumerate(members):
        for j in range(i + 1, len(members)):
            sj, hj = members[j]
            if si & hj == sj & hi:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _cover_histogram(n: int, cubes, size: int) -> list[int]:
    """hist[c] = number of points of 2^[n] in exactly c of the cube bitsets.

    Counter j holds bit j of each point's cover count (ripple-carry adds).
    Count values are selected depth-first, skipping empty branches.
    """
    counters: list[int] = []
    for carry in cubes:
        for j, counter in enumerate(counters):
            counters[j] = counter ^ carry
            carry &= counter
            if not carry:
                break
        if carry:
            counters.append(carry)
    hist = [0] * (size + 1)
    stack = [(cube_bits(n, 0, 0), 0, 0)]
    while stack:
        points, j, value = stack.pop()
        if j == len(counters):
            hist[value] = points.bit_count()
            continue
        hit = points & counters[j]
        for part, v in ((points ^ hit, value), (hit, value | 1 << j)):
            if part:
                stack.append((part, j + 1, v))
    return hist


def extremality_defect_by_size(system: SpernerSystem) -> tuple[int, ...]:
    """Signed partial sums of the defect, indexed by index-set size 1..N.

    Entry k-1 sums (-1)^k * 2^(n - |union support|) over the k-element index
    sets that are not cliques of the compatibility relation.  Over all k-sets,
    cube intersections count each point C(c, k) times, c its cover count.
    Pattern cubes meet only on cliques, up-cubes (S, S) always, in a cube of
    the same size.  So entry k-1 is (-1)^k sum_c (u[c] - h[c]) C(c, k) over
    the two cover histograms: coefficient k of p(x + 1) for
    p(x) = sum_c (u[c] - h[c]) x^c, all k at once by Horner's rule.
    """
    n, members = system.n, system.members
    h = _cover_histogram(n, (cube_bits(n, s, p) for s, p in members), len(members))
    u = _cover_histogram(n, (cube_bits(n, s, s) for s, _ in members), len(members))
    shifted: list[int] = []
    for c in reversed(range(len(members) + 1)):
        shifted = [a + b for a, b in zip([u[c] - h[c], *shifted], [*shifted, 0])]
    return tuple(-v if k % 2 else v for k, v in enumerate(shifted) if k)


class GraphClass(Enum):
    HAS_ISOLATED = "isolated-vertex"
    HAS_DEGREE_ONE = "degree-one-vertex"
    COMPLETE = "complete"
    C4 = "four-cycle"
    K4_MINUS = "k4-minus-edge"
    OTHER = "other"


@dataclass(frozen=True)
class IntersectionGraph:
    """Vertices are system members; edges join members whose cubes intersect."""

    size: int
    adjacency: tuple[int, ...]   # row i: bitmask of neighbours of i, no loops

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.size) for j in range(i + 1, self.size)
                     if self.adjacency[i] >> j & 1)

    def is_complete(self) -> bool:
        full = (1 << self.size) - 1
        return all(self.adjacency[i] == full ^ (1 << i) for i in range(self.size))


def intersection_graph(system: SpernerSystem) -> IntersectionGraph:
    rows = _compatibility_rows(system)
    return IntersectionGraph(len(system.members), tuple(rows))


def classify_graph(graph: IntersectionGraph) -> GraphClass:
    """Structural classification, checked in fixed priority order.

    Isolated and degree-one vertices are reported before completeness so that
    one- and two-member systems land on the case their elimination argument
    uses.  The two four-vertex shapes are only reported at size four.
    """
    n = graph.size
    degrees = [graph.degree(i) for i in range(n)]
    if any(d == 0 for d in degrees):
        return GraphClass.HAS_ISOLATED
    if any(d == 1 for d in degrees):
        return GraphClass.HAS_DEGREE_ONE
    if graph.is_complete():
        return GraphClass.COMPLETE
    if n == 4:
        # min degree >= 2 and not complete: a 4-cycle (all degrees 2) or
        # complete-minus-one-edge (degrees 2,2,3,3) are the only options
        if all(d == 2 for d in degrees):
            return GraphClass.C4
        if sorted(degrees) == [2, 2, 3, 3]:
            return GraphClass.K4_MINUS
    return GraphClass.OTHER


def recover_anchor(system: SpernerSystem) -> int:
    """Anchor set reproducing every pattern by intersection; complete graph required.

    This is the paper's anchored case: a complete intersection graph yields
    an anchor, and then every member can be extended: `augment_anchored`
    runs `augment`'s step on a witness read off the anchor, no search.
    The anchor is the union A of all patterns: each S_i & A is the union of
    the S_i & H_j = S_j & H_i, all inside H_i, and H_i itself, so it is H_i.
    That is verified for each member before returning.  In
    `test_acceptance.py`, `_check_claims` rebuilds every complete small
    system from A and `test_criterion_4_*` extends anchored systems.
    """
    graph = intersection_graph(system)
    if not graph.is_complete():
        raise NotComplete("intersection graph is not complete")
    anchor = 0
    for _, h in system.members:
        anchor |= h
    for s, h in system.members:
        if s & anchor != h:
            raise VerificationFailed(
                f"recovered anchor {anchor} does not reproduce pattern {h} on support {s}")
    return anchor
