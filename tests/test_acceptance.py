"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
a failed assertion marks the criterion failed.  All sweeps are seeded and
deterministic.
"""

import time

from shatterlab import (
    SetFamily,
    SpernerSystem,
    SplitMix64,
    audit_conjecture,
    augment_anchored,
    extremality_defect_by_size,
    extremality_groebner_report,
    intersection_graph,
    LexOrder,
    random_antichain,
    random_system,
    recover_anchor,
    uncovered_witness,
)
from shatterlab.families import cube_bits

EX_MEMBERS = ((0b011, 0b001), (0b101, 0), (0b110, 0))


def report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_worked_instance_end_to_end():
    start = time.monotonic()
    system = SpernerSystem.of(3, EX_MEMBERS)
    fam = system.family()
    down = system.up_complement()
    assert fam == SetFamily.of(3, [0b100, 0b011, 0b110, 0b111])
    assert down == SetFamily.of(3, [0b000, 0b001, 0b010, 0b100])
    assert len(fam) == 4 and len(down) == 4
    assert fam.is_s_extremal()
    assert fam.shattered_sets() == down
    # no anchor reproduces this pattern assignment
    for anchor in range(8):
        anchored = SpernerSystem.from_anchor(3, [s for s, _ in EX_MEMBERS], anchor)
        assert anchored.patterns() != system.patterns()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"worked instance reconstructed, no anchor matches ({elapsed:.3f}s)")


def test_criterion_2_exhaustive_extension_audit():
    start = time.monotonic()
    totals = {}
    for n in (2, 3, 4):
        rep = audit_conjecture(n)
        assert rep.brute_failures == 0
        assert rep.missing_witness == 0
        assert rep.machinery_failures == 0
        assert rep.disagreements == 0
        assert rep.ok
        totals[n] = rep.extremal_families
    assert totals[2] == 13 and totals[3] == 127 and totals[4] == 5529
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(2, f"audits n=2,3,4 clean over {totals} extremal families ({elapsed:.1f}s)")


def test_criterion_3_counting_equivalence_random():
    rng = SplitMix64(0x5EED3)
    checked = 0
    for _ in range(10_000):
        n = 1 + rng.below(8)
        system = random_system(rng, n, 6)
        fam = system.family()
        down = system.up_complement()
        shattered = fam.shattered_sets()
        counting = len(fam) == len(down)
        extremal_with_down = len(shattered) == len(fam) and shattered == down
        assert counting == extremal_with_down
        checked += 1
    report(3, f"counting equivalence held on {checked} random systems")


def test_criterion_4_anchored_extension_always_verified():
    rng = SplitMix64(0x5EED4)
    for _ in range(1_000):
        n = 1 + rng.below(8)
        supports = random_antichain(rng, n, 5)
        anchor = rng.bits(n)
        index = rng.below(len(supports))
        base = SpernerSystem.from_anchor(n, supports, anchor).family()
        cert = augment_anchored(n, list(supports), anchor, index)
        assert len(cert.augmented_family) == len(base) + 1
        assert set(base.masks) < set(cert.augmented_family.masks)
        assert all(h == s & anchor for s, h in cert.successor.members)
        assert cert.augmented_family == cert.successor.family()
    report(4, "1000 anchored extension steps verified")


def test_criterion_5_small_balanced_systems_have_witnesses():
    rng = SplitMix64(0x5EED5)
    hits = 0
    attempts = 0
    while hits < 1_000:
        attempts += 1
        assert attempts < 200_000
        n = 1 + rng.below(8)
        system = random_system(rng, n, 4)
        fam = system.family()
        down = system.up_complement()
        if len(fam) != len(down):
            continue
        assert fam.shattered_sets() == down
        assert uncovered_witness(system) is not None
        hits += 1
    report(5, f"{hits} balanced systems (<=4 members) all had witnesses "
              f"({attempts} sampled)")


def test_criterion_6_defect_identity_random():
    rng = SplitMix64(0x5EED6)
    for _ in range(10_000):
        n = 1 + rng.below(8)
        system = random_system(rng, n, 6)
        assert sum(extremality_defect_by_size(system)) == \
            len(system.up_complement()) - len(system.family())
    report(6, "defect equals the size difference on 10000 random systems")


def test_criterion_7_groebner_equivalence_random():
    start = time.monotonic()
    rng = SplitMix64(0x5EED7)
    for _ in range(200):
        n = 1 + rng.below(6)
        system = random_system(rng, n, 4)
        rep = extremality_groebner_report(system, LexOrder.standard(n))
        assert rep.equivalence_holds
        if rep.counting_equal:
            assert rep.rank_full
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, f"200 basis-vs-counting reports consistent ({elapsed:.1f}s)")


def _check_claims(system):
    cubes = [cube_bits(system.n, s, h) for s, h in system.members]
    for i, a in enumerate(cubes):
        for j, b in enumerate(cubes):
            if i != j:
                assert a & ~b
    graph = intersection_graph(system)
    if any(graph.degree(i) <= 1 for i in range(graph.size)):
        assert uncovered_witness(system) is not None
    if graph.is_complete():
        assert uncovered_witness(system) is not None
        anchor = recover_anchor(system)
        rebuilt = SpernerSystem.from_anchor(system.n, list(system.supports()), anchor)
        assert rebuilt.family() == system.family()


def test_criterion_8_small_system_claims():
    from helpers import all_pattern_assignments, all_small_antichains
    count = 0
    for n in (1, 2, 3, 4):
        for supports in all_small_antichains(n, 3):
            for patterns in all_pattern_assignments(supports):
                _check_claims(SpernerSystem.of(n, list(zip(supports, patterns))))
                count += 1
    rng = SplitMix64(0x5EED8)
    sampled = 0
    while sampled < 2_000:
        supports = random_antichain(rng, 4, 4)
        if len(supports) != 4:
            continue
        pairs = [(s, s & rng.bits(4)) for s in supports]
        _check_claims(SpernerSystem.of(4, pairs))
        sampled += 1
    report(8, f"claims held on {count} exhaustive small systems "
              f"and {sampled} random 4-member systems")


def test_criterion_9_sauer_shelah_and_duality_exhaustive():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        extremal = set()
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if len(fam.shattered_sets()) < len(fam):
                raise AssertionError(f"shattering bound failed for {masks}")
            if fam.is_s_extremal():
                extremal.add(masks)
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            comp = tuple(m for m in range(1 << n) if not bits >> m & 1)
            assert (masks in extremal) == (comp in extremal)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, f"bound and duality exhaustive through n=4 ({elapsed:.1f}s)")
