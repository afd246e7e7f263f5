"""Brute-force oracles and hypothesis strategies shared by the test modules.

The oracles follow the definitions directly (filter the power set, enumerate
every pattern) and stay independent of the library's pruned/bitmap paths.
"""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import strategies as st

from shatterlab import (InfiniteStaircase, LexOrder, Polynomial, SetFamily, SpernerSystem,
                        leading_monomial)


# -- definitional oracles -------------------------------------------------------

def brute_trace(masks, s):
    return {m & s for m in masks}


def brute_is_shattered(masks, n, s):
    traces = brute_trace(masks, s)
    sub = s
    while True:
        if sub not in traces:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & s


def brute_shattered(masks, n):
    return {s for s in range(1 << n) if brute_is_shattered(masks, n, s)}


def brute_is_extremal(masks, n):
    if not masks:
        return True
    return len(brute_shattered(masks, n)) == len(masks)


def brute_is_down_set(masks, n):
    present = set(masks)
    return all(g in present for m in masks for g in range(m + 1) if g & m == g)


def brute_is_up_set(masks, n):
    present = set(masks)
    return all(g in present for m in masks for g in range(m, 1 << n) if g & m == m)


def brute_cube(n, support, pattern):
    return {f for f in range(1 << n) if f & support == pattern}


def brute_up_closure(n, supports):
    return {f for f in range(1 << n) if any(f & s == s for s in supports)}


def brute_family(n, pairs):
    return {f for f in range(1 << n) if all(f & s != h for s, h in pairs)}


def brute_missing(masks, n, s):
    traces = brute_trace(masks, s)
    out = set()
    sub = s
    while True:
        if sub not in traces:
            out.add(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & s


def brute_minimal(masks):
    return {m for m in masks if not any(g & m == g and g != m for g in masks)}


def brute_maximal(masks):
    return {m for m in masks if not any(m & g == m and g != m for g in masks)}


def brute_addable(masks, n):
    present = set(masks)
    return [f for f in range(1 << n) if f not in present
            and brute_is_extremal(tuple(sorted(present | {f})), n)]


def brute_removable(masks, n):
    return [f for f in masks if brute_is_extremal(tuple(m for m in masks if m != f), n)]


def brute_witnesses(n, pairs):
    """All (index, mask) with the mask in cube index but in no other cube."""
    out = []
    for i, (si, hi) in enumerate(pairs):
        for f in sorted(brute_cube(n, si, hi)):
            if all(f & sj != hj for j, (sj, hj) in enumerate(pairs) if j != i):
                out.append((i, f))
    return out


def brute_defect_by_size(system):
    """Defect partial sums by enumerating all 2^N index sets.

    Every term is recomputed from scratch: no unions or clique bits carried
    over.  Two members meet when their cubes, filtered from the power set,
    share a set, so the compatibility lemma is checked here, not assumed.
    """
    members = system.members
    n, big_n = system.n, len(members)
    cubes = [brute_cube(n, s, h) for s, h in members]
    meet = [[not a.isdisjoint(b) for b in cubes] for a in cubes]
    naive = [0] * big_n
    for bits in range(1, 1 << big_n):
        chosen = [i for i in range(big_n) if bits >> i & 1]
        clique = all(meet[i][j] for a, i in enumerate(chosen) for j in chosen[a + 1:])
        if clique:
            continue
        union = 0
        for i in chosen:
            union |= members[i][0]
        k = len(chosen)
        term = 1 << (n - union.bit_count())
        naive[k - 1] += term if k % 2 == 0 else -term
    return tuple(naive)


def brute_standard_monomial_count(basis, order):
    """Standard monomials by walking the whole box of pure-power bounds."""
    from itertools import product
    lead = [leading_monomial(b, order) for b in basis]
    n = len(order.priority)
    if any(all(e == 0 for e in lm) for lm in lead):
        return 0
    bounds = [None] * n
    for lm in lead:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            i = nz[0]
            bounds[i] = lm[i] if bounds[i] is None else min(bounds[i], lm[i])
    if None in bounds:
        raise InfiniteStaircase("a variable has no pure-power leading monomial")
    count = 0
    for mono in product(*(range(b) for b in bounds)):
        if not any(all(x <= y for x, y in zip(lm, mono)) for lm in lead):
            count += 1
    return count


def _reference_key(order):
    return lambda mono: tuple(mono[v] for v in order.priority)


def _reference_add_multiple(work, p, coeff, shift):
    """work += coeff * x^shift * p in place, dropping the terms that cancel."""
    for m, c in p.terms.items():
        mm = tuple(x + y for x, y in zip(m, shift))
        s = work.get(mm, 0) + coeff * c
        if s == 0:
            work.pop(mm, None)
        else:
            work[mm] = s


def reference_normal_form(p, basis, order):
    """Remainder of p under division by the basis, by a sorted scan per step.

    Each step sorts the whole remainder, largest first, and reduces the first
    term that a basis leading monomial divides, with the first such basis
    element; every quotient is a Fraction.  Order keys, leading monomials and
    the reduction step are spelled out here, apart from the library's.
    """
    key = _reference_key(order)
    lead = [(max(b.terms, key=key), b) for b in basis]
    work = dict(p.terms)
    while True:
        target = None
        for mono in sorted(work, key=key, reverse=True):
            for lm, b in lead:
                if all(x <= y for x, y in zip(lm, mono)):
                    target = (mono, lm, b)
                    break
            if target:
                break
        if target is None:
            return Polynomial(p.n, work)
        mono, lm, b = target
        _reference_add_multiple(work, b, -Fraction(work[mono], b.terms[lm]),
                                tuple(x - y for x, y in zip(mono, lm)))


def reference_is_groebner_basis(basis, order):
    """Buchberger criterion over `reference_normal_form`, coprime leads skipped."""
    key = _reference_key(order)
    lead = [max(b.terms, key=key) for b in basis]
    for i, j in combinations(range(len(basis)), 2):
        if all(a == 0 or b == 0 for a, b in zip(lead[i], lead[j])):
            continue
        lcm = tuple(map(max, lead[i], lead[j]))
        work = {}
        for sign, g, lm in ((1, basis[i], lead[i]), (-1, basis[j], lead[j])):
            _reference_add_multiple(work, g, Fraction(sign, g.terms[lm]),
                                    tuple(x - y for x, y in zip(lcm, lm)))
        if reference_normal_form(Polynomial(basis[i].n, work), basis, order).terms:
            return False
    return True


def evaluate_at_mask(p, mask):
    """Value of polynomial p at the 0/1 characteristic vector of `mask`.

    On 0/1 points every positive power collapses to the variable itself,
    so a monomial contributes iff its support lies inside the mask.
    """
    return sum((c for m, c in p.terms.items()
                if all(mask >> i & 1 for i, e in enumerate(m) if e)), Fraction(0))


def containment_matrix(rows, cols):
    """0/1 matrix over two SetFamilys: entry 1 iff the row set lies inside the column set."""
    return [[1 if t & f == t else 0 for f in cols.masks] for t in rows.masks]


def gf2_rank(matrix):
    """Plain Gaussian elimination mod 2 on 0/1 lists (rank oracle over GF(2))."""
    m = [[x % 2 for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_rank(matrix):
    """Plain Gaussian elimination over stdlib fractions (rank oracle)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_parse_set_lines(n, lines):
    """Masks of set lines over [n] (header on line 1), ascending, or the first error message.

    Each line is stripped; blank lines and ``#`` comments are skipped, ``-``
    is the empty set, and every other line is comma-separated tokens, each
    stripped and read by `int()`; all tokens are read before any is range
    checked.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        elements = []
        for piece in ([] if line == "-" else line.split(",")):
            try:
                elements.append(int(piece.strip()))
            except ValueError:
                return f"line {lineno}: bad element {piece.strip()!r}"
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                return f"line {lineno}: element {e} outside ground set [{n}]"
            if mask & 1 << (e - 1):
                return f"line {lineno}: repeated element {e}"
            mask |= 1 << (e - 1)
        if mask in seen:
            return f"line {lineno}: duplicate set {line!r}"
        seen.add(mask)
    return tuple(sorted(seen))


def reference_family_from_sets(n, sets):
    """Masks of a JSON family's sets over [n], ascending, or the first error message.

    Sets are read one at a time: a set must be a list, and each element a
    non-bool int in [1, n] that does not repeat; a duplicate set is reported
    only after every set has been read.
    """
    masks = []
    for elements in sets:
        if not isinstance(elements, list):
            return f"a set must be an array of elements, got {elements!r}"
        mask = 0
        for e in elements:
            if not isinstance(e, int) or isinstance(e, bool):
                return f"bad element {e!r}"
            if not 1 <= e <= n:
                return f"element {e} outside ground set [{n}]"
            if mask & 1 << (e - 1):
                return f"repeated element {e}"
            mask |= 1 << (e - 1)
        masks.append(mask)
    if len(set(masks)) < len(masks):
        return "duplicate sets in family"
    return tuple(sorted(masks))


def lex_orders(n):
    """Every lex order on n variables."""
    return [LexOrder(perm) for perm in permutations(range(n))]


def minimalize(masks):
    mins = []
    for m in sorted(set(masks)):
        if not any(g & m == g for g in mins):
            mins.append(m)
    return tuple(mins)


# -- strategies ------------------------------------------------------------------

@st.composite
def families(draw, min_n=0, max_n=6, allow_empty=True):
    n = draw(st.integers(min_n, max_n))
    min_size = 0 if allow_empty else 1
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), min_size=min_size))
    return SetFamily.of(n, masks)


@st.composite
def antichains(draw, min_n=1, max_n=6, max_members=4):
    """(n, antichain masks): minimal elements of a drawn mask list."""
    n = draw(st.integers(min_n, max_n))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_members))
    return n, minimalize(raw)


@st.composite
def systems(draw, min_n=1, max_n=6, max_members=4):
    n, supports = draw(antichains(min_n=min_n, max_n=max_n, max_members=max_members))
    pairs = [(s, s & draw(st.integers(0, (1 << n) - 1))) for s in supports]
    return SpernerSystem.of(n, pairs)


@st.composite
def anchored_systems(draw, min_n=1, max_n=6, max_members=4):
    """(n, antichain, anchor) triples."""
    n, supports = draw(antichains(min_n=min_n, max_n=max_n, max_members=max_members))
    anchor = draw(st.integers(0, (1 << n) - 1))
    return n, supports, anchor


def all_small_antichains(n, max_members):
    """Every antichain of 2^[n] with 1..max_members members (supports only)."""
    from itertools import combinations
    out = []
    all_masks = range(1 << n)
    for size in range(1, max_members + 1):
        for combo in combinations(all_masks, size):
            if all(a & b != a and a & b != b
                   for i, a in enumerate(combo) for b in combo[i + 1:]):
                out.append(combo)
    return out


def all_pattern_assignments(supports):
    """Every pattern tuple for the given supports (cartesian product of submasks)."""
    from itertools import product
    choice_lists = []
    for s in supports:
        subs = []
        sub = s
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & s
        choice_lists.append(subs)
    return product(*choice_lists)
