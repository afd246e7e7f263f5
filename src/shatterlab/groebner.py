"""Exact symbolic layer: cube polynomials, lex orders, division, and the basis test.

Everything runs over the rationals.  Coefficients are ints or stdlib
`Fraction`s: a quotient is an int when the divisor divides it exactly, and a
`Fraction` otherwise, so the ±1 coefficients of the cube polynomials and field
equations stay ints and every result is still exact over Q.  Monomials are
exponent tuples of length n; only the n! lexicographic orders are
implemented, one per variable priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, le, mul, neg, sub

from .errors import (GroundMismatch, InfiniteStaircase, PatternNotInSupport, ShatterlabError,
                     TooLarge, ZeroPolynomial)
from .families import MAX_GROUND, SetFamily, cube_bits, submasks
from .sperner import SpernerSystem, _outside_cubes

Monomial = tuple  # exponent vector of length n


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_from_mask(mask: int, n: int) -> Monomial:
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


@dataclass(frozen=True)
class LexOrder:
    """Lexicographic term order; priority lists 0-based variables, biggest first.

    `key(mono)` is the exponent tuple read in priority order, so the order
    compares monomials as their keys compare.
    """

    priority: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ShatterlabError("priority must be a permutation of the variables")
        # built once per order and not a field, so equality, hash and repr see
        # only the priority; itemgetter returns a bare value for one index and
        # takes no empty index list, but with at most one variable the priority
        # is the identity and tuple() returns the monomial itself
        object.__setattr__(self, "key", itemgetter(*self.priority)
                           if len(self.priority) > 1 else tuple)

    @classmethod
    def standard(cls, n: int) -> "LexOrder":
        return cls(tuple(range(n)))


class Polynomial:
    """Sparse multivariate polynomial: exponent tuple of n ints >= 0 -> nonzero int or Fraction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n, self.terms = n, {}
        for m, c in (terms or {}).items():
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ShatterlabError(f"coefficient {c!r} is not an int or a Fraction")
            if type(m) is not tuple or len(m) != n or not all(type(e) is int and e >= 0 for e in m):
                raise ShatterlabError(f"monomial {m!r} is not a tuple of {n} non-negative ints")
            if c != 0:
                self.terms[m] = c

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def evaluate_at_mask(self, mask: int):
        """Value at the 0/1 characteristic vector of `mask`.

        On 0/1 points every positive power collapses to the variable itself,
        so a monomial contributes iff its support lies inside the mask.
        """
        return sum((c for m, c in self.terms.items()
                    if all(mask >> i & 1 for i, e in enumerate(m) if e)), Fraction(0))

    def __repr__(self):
        return f"Polynomial({self.n}, {self.terms!r})"


# -- generators ---------------------------------------------------------------

def cube_polynomial(n: int, support: int, pattern: int) -> Polynomial:
    """Product of the pattern variables and (x_i - 1) over the rest of the support.

    Expanded form: one squarefree term per subset of the complementary part,
    all coefficients +-1.  Nonzero at a 0/1 point exactly when the point's set
    meets the support in the pattern.
    """
    if support >> n:
        raise ShatterlabError(f"support {support} outside ground set [{n}]")
    if pattern & ~support:
        raise PatternNotInSupport(f"pattern {pattern} not contained in support {support}")
    rest = support & ~pattern
    k = rest.bit_count()
    terms = {}
    for t in submasks(rest):
        sign = 1 if (k - t.bit_count()) % 2 == 0 else -1
        terms[mono_from_mask(pattern | t, n)] = sign
    return Polynomial(n, terms)


def field_equations(n: int) -> list[Polynomial]:
    """x_i^2 - x_i for each variable; vanish on every 0/1 point."""
    out = []
    for i in range(n):
        sq = tuple(2 if j == i else 0 for j in range(n))
        lin = tuple(1 if j == i else 0 for j in range(n))
        out.append(Polynomial(n, {sq: 1, lin: -1}))
    return out


def system_generators(system: SpernerSystem) -> list[Polynomial]:
    """One cube polynomial per member, then the field equations."""
    polys = [cube_polynomial(system.n, s, h) for s, h in system.members]
    polys.extend(field_equations(system.n))
    return polys


# -- division and the basis criterion ----------------------------------------

def _check_arity(n: int, order: LexOrder) -> None:
    if len(order.priority) != n:
        # a short priority list ignores variables and breaks well-ordering
        raise ShatterlabError(
            f"order over {len(order.priority)} variables applied to {n}-variable polynomial")


def leading_monomial(p: Polynomial, order: LexOrder) -> Monomial:
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has no leading monomial")
    _check_arity(p.n, order)
    return max(p.terms, key=order.key)


def _quotient(a, b):
    """a / b, exact: an int when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return Fraction(a, b)


def _add_multiple(work: dict, p: Polynomial, coeff, shift: Monomial) -> list:
    """work += coeff * x^shift * p in place, dropping the terms that cancel.

    Returns the monomials that were not in work before.
    """
    new = []
    for m, c in p.terms.items():
        mm = mono_mul(m, shift)
        s = work.get(mm)
        if s is None:
            work[mm] = coeff * c
            new.append(mm)
        else:
            s += coeff * c
            if s == 0:
                del work[mm]
            else:
                work[mm] = s
    return new


def normal_form(p: Polynomial, basis: list[Polynomial], order: LexOrder) -> Polynomial:
    """Remainder of p under multivariate division by the basis.

    Strategy is fixed for determinism: reduce the order-largest reducible
    term, using the first basis element whose leading monomial divides it.
    The result has no term divisible by any basis leading monomial.

    Each term is visited once, largest first, from a heap of negated order
    keys.  Reducing a term adds only smaller terms, since a monomial order is
    multiplicative, so the terms visited before it stay irreducible and the
    largest reducible term is always the next one popped.
    """
    _check_arity(p.n, order)
    lead = [(leading_monomial(b, order), b) for b in basis]
    key = order.key
    work = dict(p.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    seen = set(work)
    while heap:
        mono = heappop(heap)[1]
        if mono not in work:
            continue
        for lm, b in lead:
            if mono_divides(lm, mono):
                break
        else:
            continue
        for mm in _add_multiple(work, b, -_quotient(work[mono], b.terms[lm]),
                                mono_div(mono, lm)):
            if mm not in seen:
                seen.add(mm)
                heappush(heap, (tuple(map(neg, key(mm))), mm))
    return Polynomial(p.n, work)


def s_polynomial(f: Polynomial, g: Polynomial, order: LexOrder) -> Polynomial:
    """Difference of f and g, each made monic and shifted to the lcm of the leads."""
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = mono_lcm(lmf, lmg)
    work: dict = {}
    _add_multiple(work, f, _quotient(1, f.terms[lmf]), mono_div(lcm, lmf))
    _add_multiple(work, g, -_quotient(1, g.terms[lmg]), mono_div(lcm, lmg))
    return Polynomial(f.n, work)


def is_groebner_basis(basis: list[Polynomial], order: LexOrder) -> bool:
    """Buchberger criterion: every pairwise S-polynomial reduces to zero.

    Pairs with coprime leading monomials are skipped (product criterion);
    no other shortcut is used.
    """
    lead = [leading_monomial(b, order) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not any(map(mul, lead[i], lead[j])):
                continue
            if not normal_form(s_polynomial(basis[i], basis[j], order), basis, order).is_zero():
                return False
    return True


def standard_monomial_count(basis: list[Polynomial], order: LexOrder) -> int:
    """Number of monomials divisible by no basis leading monomial.

    Finite only when every variable has a pure-power leading monomial
    bounding its exponent; otherwise the staircase is infinite and we refuse.
    Bounds must be <= 2, as in every report basis: the staircase is then in
    the {0,1} box, and the count is one popcount of a bitset over 2^[n].
    """
    lead = [leading_monomial(b, order) for b in basis]
    # the order, not the basis, fixes n: no generators over n >= 1 variables
    # leave every variable unbounded
    n = len(order.priority)
    if any(all(e == 0 for e in lm) for lm in lead):
        return 0
    bounds: dict[int, int] = {}
    for lm in lead:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            bounds[nz[0]] = min(lm[nz[0]], bounds.get(nz[0], lm[nz[0]]))
    missing = [i + 1 for i in range(n) if i not in bounds]
    if missing:
        raise InfiniteStaircase(f"no pure-power leading monomial for variables {missing}")
    if n > MAX_GROUND or max(bounds.values(), default=0) > 2:
        raise TooLarge(f"staircase count needs exponent bounds <= 2 "
                       f"and at most {MAX_GROUND} variables")
    squarefree = {sum(1 << i for i, e in enumerate(lm) if e) for lm in lead if max(lm) == 1}
    return len(_outside_cubes(n, [(t, t) for t in squarefree]))


# -- exact linear algebra ------------------------------------------------------

def containment_matrix(row_family: SetFamily, col_family: SetFamily) -> list[list[int]]:
    """0/1 matrix: entry 1 iff the row set is contained in the column set.

    Rows play the role of squarefree monomials evaluated at the 0/1 points of
    the columns.
    """
    _check_same_ground(row_family, col_family)
    return [[1 if t & f == t else 0 for f in col_family.masks] for t in row_family.masks]


def integer_matrix_rank(matrix: list[list[int]]) -> int:
    """Exact rank by fraction-free (division-preserving) elimination."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, rows):
            row_i = m[i]
            row_r = m[rank]
            f = row_i[c]
            if f:
                for j in range(c + 1, cols):
                    row_i[j] = (row_r[c] * row_i[j] - f * row_r[j]) // prev
            else:
                for j in range(c + 1, cols):
                    row_i[j] = (row_r[c] * row_i[j]) // prev
            row_i[c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def _check_same_ground(a: SetFamily, b: SetFamily) -> None:
    if a.n != b.n:
        raise GroundMismatch(f"families over [{a.n}] and [{b.n}]")


def point_evaluation_rank(fam: SetFamily, monomial_sets: SetFamily) -> int:
    """Rank over Q of the matrix of x^T (T in monomial_sets) at the points of fam.

    Row T is the bitset of the members containing T.  The rows are reduced
    over GF(2) by an XOR basis keyed by lowest set bit, stopping once the
    rank reaches min(|fam|, |monomial_sets|).  The lowest bit of row T is the
    smallest member containing T, so the rows arrive nearly in echelon form.
    Each XOR clears the row's lowest bit and sets none below it, so the
    lowest bit strictly rises and elimination ends.  The pivot rule does not
    change the GF(2) rank of the rows seen so far, so the rank and the point
    where it stops are those of any other rule.  The certificate is exact
    over Q: a minor that is nonzero mod 2 is an odd integer, so the rational
    rank is at least the GF(2) rank and at most the smaller dimension.  Only
    when the GF(2) rank falls short is the exact `integer_matrix_rank` run.

    `extremality_groebner_report` never takes that fallback.  There fam is
    the family F of a Sperner system and monomial_sets its up-complement D,
    and the matrix has rank |F| over every field, GF(2) included.  Each cube
    polynomial is monic with leading monomial x^S under every monomial
    order and vanishes on F; the field equations x_i^2 - x_i are monic too.
    Division by monic polynomials needs no inverse, so over any field the
    multilinear interpolant of a function on F reduces to a polynomial with
    the same values on F and no term divisible by any x^S or x_i^2: its
    monomials are x^T with T in D.  So the rows span all functions on F,
    |F| <= |D|, and the GF(2) rank reaches the minimum |F|.
    """
    _check_same_ground(fam, monomial_sets)
    full = min(len(fam), len(monomial_sets))
    pivots: dict[int, int] = {}
    for t in monomial_sets.masks:
        if len(pivots) == full:
            break
        row = fam.bits & cube_bits(fam.n, t, t)
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    if len(pivots) == full:
        return full
    return integer_matrix_rank(containment_matrix(monomial_sets, fam))


# -- the equivalence report ----------------------------------------------------

MAX_REPORT_GROUND = 8
MAX_REPORT_MEMBERS = 6


@dataclass(frozen=True)
class GroebnerReport:
    family_size: int
    down_set_size: int
    counting_equal: bool        # family size equals down-set size
    groebner: bool              # generator set passes the basis criterion
    standard_monomials: int
    evaluation_rank: int
    rank_full: bool             # rank equals family size
    equivalence_holds: bool     # counting_equal == groebner; False is a hard failure
    generators: tuple[Polynomial, ...] = field(repr=False)  # the basis tested


def extremality_groebner_report(system: SpernerSystem, order: LexOrder) -> GroebnerReport:
    """Three independent routes to extremality: counting, basis test, point rank."""
    if system.n > MAX_REPORT_GROUND:
        raise TooLarge(f"ground set {system.n} exceeds cap {MAX_REPORT_GROUND}")
    if len(system.members) > MAX_REPORT_MEMBERS:
        raise TooLarge(f"{len(system.members)} members exceeds cap {MAX_REPORT_MEMBERS}")
    _check_arity(system.n, order)
    fam = system.family()
    down = system.up_complement()
    counting = len(fam) == len(down)
    basis = system_generators(system)
    groebner = is_groebner_basis(basis, order)
    standard = standard_monomial_count(basis, order)
    rank = point_evaluation_rank(fam, down)
    return GroebnerReport(
        family_size=len(fam),
        down_set_size=len(down),
        counting_equal=counting,
        groebner=groebner,
        standard_monomials=standard,
        evaluation_rank=rank,
        rank_full=rank == len(fam),
        equivalence_holds=counting == groebner,
        generators=tuple(basis),
    )


# -- printing -----------------------------------------------------------------

def format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(p: Polynomial, order: LexOrder) -> str:
    """Terms sorted descending by the order; integer or fraction coefficients."""
    if p.is_zero():
        return "0"
    pieces = []
    for mono in sorted(p.terms, key=order.key, reverse=True):
        c = p.terms[mono]
        mono_str = format_monomial(mono)
        negative = c < 0
        mag = -c if negative else c
        if mono_str == "1":
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
