"""Known answers computed without the program under test.

Every function here works from the definitions on plain ints (bit m of a
family's indicator set iff mask m is a member) and imports nothing from
shatterlab, so a defect on the program's timed path cannot also hide in the
answer it is checked against.
"""

from __future__ import annotations

from functools import lru_cache

_MASK64 = (1 << 64) - 1


def subsets(s: int) -> list[int]:
    """Submasks of s, ascending."""
    out = []
    sub = s
    while True:
        out.append(sub)
        if sub == 0:
            return out[::-1]
        sub = (sub - 1) & s


def elements(mask: int) -> list[int]:
    """1-based elements of a mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def family_of(n: int, pairs) -> list[int]:
    """Sets whose trace on each support differs from that member's pattern."""
    return [x for x in range(1 << n) if all(x & s != h for s, h in pairs)]


def down_set(n: int, supports) -> list[int]:
    """Sets containing no support."""
    return [x for x in range(1 << n) if all(x & s != s for s in supports)]


def defect(n: int, pairs) -> int:
    """|down-set| - |family| by inclusion-exclusion over index sets.

    The cubes of an index set meet iff their patterns agree pairwise on the
    shared support; the up-cubes of the supports always meet.  Both
    intersections then have 2^(n - |union of supports|) members.
    """
    k = len(pairs)
    total = 0
    for idx in range(1, 1 << k):
        chosen = [pairs[i] for i in range(k) if idx >> i & 1]
        union = 0
        for s, _ in chosen:
            union |= s
        meets = all(h1 & s2 == h2 & s1 for s1, h1 in chosen for s2, h2 in chosen)
        if not meets:
            sign = 1 if len(chosen) % 2 == 0 else -1
            total += sign << (n - union.bit_count())
    return total


def compatible(p: tuple[int, int], q: tuple[int, int], n: int) -> bool:
    """True iff some set lies in both cubes (by search, not by formula)."""
    (s1, h1), (s2, h2) = p, q
    return any(x & s1 == h1 and x & s2 == h2 for x in range(1 << n))


def shattered_count(members, n: int, stop_above: int | None = None) -> int:
    """Number of sets S with every subset of S a trace, straight from the definition."""
    count = 0
    for s in range(1 << n):
        width = 1 << s.bit_count()
        if len(members) < width:
            continue
        seen = 0
        for m in members:
            seen |= 1 << (m & s)
        # traces of S are submasks of S, so S is shattered iff all of them occur
        if seen.bit_count() == width:
            count += 1
            if stop_above is not None and count > stop_above:
                return count
    return count


def is_extremal(members, n: int) -> bool:
    return shattered_count(members, n, stop_above=len(members)) == len(members)


def first_witness(n: int, pairs) -> tuple[int, int] | None:
    """(support, smallest set) of the first member whose cube escapes the others."""
    for i, (s, h) in enumerate(pairs):
        free = ((1 << n) - 1) & ~s
        for sub in subsets(free):
            x = h | sub
            if all(x & s2 != h2 for j, (s2, h2) in enumerate(pairs) if j != i):
                return s, x
    return None


def complement_system(n: int, pairs, members) -> list[tuple[int, int]]:
    """System of the complement family of an extremal family, by duality.

    S is shattered by the complement iff [n] - S is not strongly traced by the
    family, and for an extremal family the strongly traced sets are the
    down-set.  So the minimal non-shattered sets of the complement are the
    minimal transversals of the supports, and the pattern of a transversal T
    is the one trace P whose whole cube (T, P) lies inside the family.
    """
    supports = [s for s, _ in pairs]
    hitting = [t for t in range(1 << n) if all(t & s for s in supports)]
    hit = set(hitting)
    minimal = [t for t in hitting
               if not any((t & ~(1 << i)) in hit for i in range(n) if t >> i & 1)]
    present = set(members)
    out = []
    for t in minimal:
        free = subsets(((1 << n) - 1) & ~t)
        inside = [p for p in subsets(t) if all(p | f in present for f in free)]
        if len(inside) != 1:
            raise ValueError(f"transversal {t} has {len(inside)} cubes inside the family")
        out.append((t, inside[0]))
    return out


# -- audit tallies -----------------------------------------------------------------

def splitmix_family(seed: int, n: int, count: int) -> list[tuple[int, ...]]:
    """The families a random audit draws: one splitmix64 bit per subset, low masks first."""
    state = seed & _MASK64
    width = 1 << n
    out = []
    for _ in range(count):
        bits = 0
        filled = 0
        while filled < width:
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            bits |= (z ^ (z >> 31)) << filled
            filled += 64
        out.append(tuple(m for m in range(width) if bits >> m & 1))
    return out


def random_audit_extremal(seed: int, n: int, count: int) -> int:
    """Extremal families (full power set excluded) among a random audit's draws."""
    full = 1 << n
    return sum(1 for fam in splitmix_family(seed, n, count)
               if len(fam) != full and is_extremal(fam, n))


@lru_cache(maxsize=None)
def exhaustive_audit_extremal(n: int) -> int:
    """Extremal proper families over [n], all 2^(2^n) of them, n <= 4.

    A family is an indicator int over the 2^n masks; its trace set on S is
    assembled from per-byte tables, so the sweep stays a few table lookups
    per (family, S) pair.
    """
    width = 1 << n
    chunks = max(1, width // 8)
    chunk_bits = min(width, 8)
    tables = []
    for s in range(width):
        per_chunk = []
        for c in range(chunks):
            row = []
            for byte in range(1 << chunk_bits):
                seen = 0
                for b in range(chunk_bits):
                    if byte >> b & 1:
                        seen |= 1 << ((c * chunk_bits + b) & s)
                row.append(seen)
            per_chunk.append(row)
        tables.append((1 << s.bit_count(), per_chunk))
    low = (1 << chunk_bits) - 1
    total = 0
    for fam in range(1 << width):
        size = fam.bit_count()
        if size == width:
            continue
        count = 0
        for want, per_chunk in tables:
            if size < want:
                continue
            seen = 0
            for c in range(chunks):
                seen |= per_chunk[c][fam >> (c * chunk_bits) & low]
            if seen.bit_count() == want:
                count += 1
                if count > size:
                    break
        if count == size:
            total += 1
    return total
