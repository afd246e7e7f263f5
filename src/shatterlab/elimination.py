"""One-set extension machinery for extremal families.

The extension step:  pick a member whose cube is not covered by the other
cubes, take the smallest uncovered set as witness, replace the member by the
minimal supersets that keep the antichain property, and give each new support
the unique pattern choice that keeps the witness uncovered.  The successor
system's family is the old family plus the witness, and it is extremal again.
Peeling removes a set instead, by running the same step on the complement.

Every certificate is verified before it is returned: the pattern-extension
step is the subtlest part, so nothing is trusted.  `augment` checks
extremality by the antichain criterion (`families.is_extremal_with`), a
theorem rather than a heuristic, so its checks are complete without
computing Sh(F); `peel` checks it with `SetFamily.is_s_extremal`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptyInput, NotExtremal, ShatterlabError, TooLarge, VerificationFailed,
                     WitnessNotEligible)
from .families import (SetFamily, check_ground, cube_bits, full_mask, is_extremal_with,
                       masks_of_bits)
from .sperner import SpernerSystem, decompose
from .sampling import SplitMix64, random_family


@dataclass(frozen=True)
class EliminationCertificate:
    """Auditable record of one verified extension step."""

    chosen_member: int            # support of the replaced member
    added_set: int                # the witness joining the family
    successor: SpernerSystem
    augmented_family: SetFamily


def uncovered_witness(system: SpernerSystem) -> tuple[int, int] | None:
    """First member (canonical order) whose cube escapes the union of the others.

    Returns (member index, smallest escaping mask), or None when every cube is
    covered by the rest.  Scanning order makes certificates reproducible.
    """
    members = system.members
    if not members:
        raise EmptyInput("system has no members")
    cubes = [cube_bits(system.n, s, h) for s, h in members]
    for i, escaping in enumerate(cubes):
        for j, other in enumerate(cubes):
            if j != i:
                escaping &= ~other
        if escaping:
            return i, (escaping & -escaping).bit_length() - 1
    return None


def successor_members(system: SpernerSystem, index: int) -> tuple[int, ...]:
    """One-element extensions of the chosen support that contain no other member.

    Replacing the chosen member by these keeps an antichain and grows the
    up-complement by exactly the chosen support.
    """
    members = system.members
    if not 0 <= index < len(members):
        raise EmptyInput(f"member index {index} out of range")
    s0 = members[index][0]
    rest = [s for j, (s, _) in enumerate(members) if j != index]
    out = []
    free = full_mask(system.n) & ~s0
    while free:
        low = free & -free
        candidate = s0 | low
        if not any(s & candidate == s for s in rest):
            out.append(candidate)
        free ^= low
    return tuple(out)


def extend_patterns(system: SpernerSystem, index: int, witness: int) -> SpernerSystem:
    """Successor system that keeps the witness outside every cube.

    Each new support adds one element v to the chosen support; its pattern is
    the old pattern, plus v exactly when the witness misses v.  That is the
    unique choice of the two candidate patterns excluding the witness, since
    they split the old cube in the v direction.
    """
    members = system.members
    candidates = successor_members(system, index)
    s0, h0 = members[index]
    if witness & s0 != h0:
        raise WitnessNotEligible(f"witness {witness} is not in the chosen cube")
    for j, (sj, hj) in enumerate(members):
        if j != index and witness & sj == hj:
            raise WitnessNotEligible(f"witness {witness} is covered by member {j}")
    pairs = [members[j] for j in range(len(members)) if j != index]
    for candidate in candidates:
        v = candidate & ~s0
        new_h = h0 if witness & v else h0 | v
        if witness & candidate == new_h:
            raise VerificationFailed("pattern extension failed to exclude the witness")
        pairs.append((candidate, new_h))
    return SpernerSystem.of(system.n, pairs)


def augment(system: SpernerSystem) -> EliminationCertificate | None:
    """Run one verified extension step, or return None when no witness exists.

    The input system must produce an extremal family whose shattered sets are
    exactly the up-complement (checked).  The returned certificate has been
    re-verified: successor down-set, family growth by exactly the witness,
    and extremality of the result with the successor down-set.  Both
    extremality checks are the antichain criterion of `is_extremal_with`,
    which proves Sh(F) = D without computing Sh(F).
    """
    fam, down = system.family(), system.up_complement()
    if not is_extremal_with(system.n, fam.bits, down.bits):
        raise NotExtremal("system family is not extremal with the full candidate down-set")
    found = uncovered_witness(system)
    if found is None:
        return None
    index, witness = found
    s0 = system.members[index][0]
    successor = extend_patterns(system, index, witness)
    new_fam = successor.family()
    new_down = successor.up_complement()
    if new_down.bits != down.bits | 1 << s0:
        raise VerificationFailed("successor down-set is not the old one plus the chosen support")
    if new_fam.bits != fam.bits | 1 << witness:
        raise VerificationFailed("successor family is not the old one plus the witness")
    if not is_extremal_with(system.n, new_fam.bits, new_down.bits):
        raise VerificationFailed("augmented family is not extremal with the successor down-set")
    return EliminationCertificate(
        chosen_member=s0,
        added_set=witness,
        successor=successor,
        augmented_family=new_fam,
    )


def augment_anchored(n: int, antichain: list[int], anchor: int, index: int) -> EliminationCertificate:
    """Extension step for anchored systems; succeeds for every member choice.

    This is the paper's anchored case: a complete intersection graph yields
    an anchor (`recover_anchor`), and then every member can be extended.
    The successor keeps the anchor assignment (each pattern is support cut by
    the anchor), so no witness search is needed: the family grows by exactly
    one set regardless of which member is replaced.  In `test_acceptance.py`,
    `test_criterion_4_*` verifies 1000 such steps and `_check_claims` the
    anchor of every complete small system.
    """
    if not antichain:
        raise EmptyInput("antichain has no members")
    system = SpernerSystem.from_anchor(n, antichain, anchor)
    new_supports = list(successor_members(system, index))
    fam = system.family()
    s0 = system.members[index][0]
    new_supports += [s for j, (s, _) in enumerate(system.members) if j != index]
    successor = SpernerSystem.from_anchor(n, new_supports, anchor)
    new_fam = successor.family()
    if len(new_fam) != len(fam) + 1:
        raise VerificationFailed("anchored successor family did not grow by exactly one set")
    added = new_fam.bits & ~fam.bits
    if added.bit_count() != 1:
        raise VerificationFailed("anchored successor family is not a superset of the old family")
    return EliminationCertificate(
        chosen_member=s0,
        added_set=added.bit_length() - 1,
        successor=successor,
        augmented_family=new_fam,
    )


def peel(fam: SetFamily) -> int | None:
    """A member whose removal keeps the family extremal, or None if none is found.

    Runs the extension step on the decomposition of the complement and maps
    the added set back: adding to the complement is removing from the family.
    The removal is re-verified before returning: `is_s_extremal` compares
    |Sh(F)| with |F| on the family without the removed set.
    """
    if not fam.bits:
        raise EmptyInput("cannot peel the empty family")
    if not fam.is_s_extremal():
        raise NotExtremal("family is not extremal")
    certificate = augment(decompose(fam.complement()))
    if certificate is None:
        return None
    removed = certificate.added_set
    if removed not in fam:
        raise VerificationFailed("dual witness is not a family member")
    if not fam.without_member(removed).is_s_extremal():
        raise VerificationFailed("removal did not preserve extremality")
    return removed


# -- conjecture audits ------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Tally of one extension-conjecture sweep; every failure field should be zero."""

    n: int
    mode: str                      # "exhaustive" or "random"
    seed: int | None
    families_examined: int
    extremal_families: int
    brute_failures: int            # extremal proper family with no addable set at all
    missing_witness: int           # decomposition had no uncovered witness
    machinery_failures: int        # witness existed but the extension step failed
    disagreements: int             # witness existence vs brute-force addability mismatch
    counterexamples: tuple[tuple[int, ...], ...]   # first five offending families

    @property
    def ok(self) -> bool:
        return (self.brute_failures == 0 and self.missing_witness == 0
                and self.machinery_failures == 0 and self.disagreements == 0)


def _definitional_is_extremal(members: tuple[int, ...], n: int) -> bool:
    # straight from the definition, independent of the library path: count
    # the shattered sets, and stop once they outnumber the members (Pajor's
    # bound makes |Sh(F)| >= |F|, so equality is the only way to extremal)
    if not members:
        return True
    count = 0
    for s in range(1 << n):
        if len({m & s for m in members}) == 1 << s.bit_count():
            count += 1
            if count > len(members):
                return False
    return count == len(members)


def _brute_addable_exists(members: tuple[int, ...], n: int) -> bool:
    present = set(members)
    for f in range(1 << n):
        if f in present:
            continue
        if _definitional_is_extremal(tuple(sorted(present | {f})), n):
            return True
    return False


def _audit_one(masks: tuple[int, ...], n: int) -> tuple[bool, bool, bool]:
    """(brute addable, witness found, machinery verified) for one extremal family."""
    brute_ok = _brute_addable_exists(masks, n)
    fam = SetFamily.of(n, masks)
    try:
        # augment raises VerificationFailed only after it has found a witness
        certificate = augment(decompose(fam))
    except VerificationFailed:
        return brute_ok, True, False
    if certificate is None:
        return brute_ok, False, False
    return brute_ok, True, certificate.augmented_family.bits == fam.bits | 1 << certificate.added_set


def audit_conjecture(n: int, samples: int | None = None, seed: int | None = None) -> AuditReport:
    """Sweep families and compare brute-force addability with the extension step.

    Exhaustive mode (samples None) enumerates all 2^(2^n) families and needs
    n <= 4.  Random mode draws `samples` families with the documented scheme:
    each subset of [n] is included independently with probability 1/2, bits
    taken from a splitmix64 stream seeded with `seed`; it needs n <= 10, as
    the definitional oracle costs 2^n |F| per sample.
    """
    check_ground(n)
    if samples is None:
        if seed is not None:
            raise ShatterlabError(f"seed {seed} given without a sample count")
        if n > 4:
            raise TooLarge(f"exhaustive audit needs n <= 4, got {n}")
        mode = "exhaustive"
        total = 1 << (1 << n)
        family_iter = map(masks_of_bits, range(total))
        examined = total
    else:
        if seed is None:
            raise EmptyInput("random audit mode requires a seed")
        if samples < 0:
            raise ShatterlabError(f"sample count must be non-negative, got {samples}")
        if n > 10:
            raise TooLarge(f"random audit needs n <= 10, got {n}")
        mode = "random"
        rng = SplitMix64(seed)
        family_iter = (random_family(rng, n) for _ in range(samples))
        examined = samples

    full = tuple(range(1 << n))
    extremal = brute_failures = missing = machinery_failures = disagreements = 0
    bad: list[tuple[int, ...]] = []

    def note(masks):
        if len(bad) < 5:
            bad.append(masks)

    for masks in family_iter:
        if masks == full or not _definitional_is_extremal(masks, n):
            continue
        extremal += 1
        brute_ok, witness_found, machinery_ok = _audit_one(masks, n)
        if not brute_ok:
            brute_failures += 1
            note(masks)
        if not witness_found:
            missing += 1
            note(masks)
        if witness_found and not machinery_ok:
            machinery_failures += 1
            note(masks)
        if witness_found != brute_ok:
            disagreements += 1
            note(masks)

    return AuditReport(
        n=n,
        mode=mode,
        seed=seed,
        families_examined=examined,
        extremal_families=extremal,
        brute_failures=brute_failures,
        missing_witness=missing,
        machinery_failures=machinery_failures,
        disagreements=disagreements,
        counterexamples=tuple(bad),
    )
