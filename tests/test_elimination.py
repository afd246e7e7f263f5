"""Tests for witness search, pattern extension, the augment/peel steps, and the audits."""

import pytest
from hypothesis import given, settings

import helpers
from shatterlab import (
    EmptyInput,
    NotExtremal,
    SetFamily,
    ShatterlabError,
    SplitMix64,
    SpernerSystem,
    TooLarge,
    VerificationFailed,
    WitnessNotEligible,
    audit_conjecture,
    augment,
    augment_anchored,
    decompose,
    extend_patterns,
    extremality_defect_by_size,
    intersection_graph,
    peel,
    random_antichain,
    random_family,
    successor_members,
    uncovered_witness,
)
from shatterlab import elimination, families
from shatterlab.elimination import _brute_addable_exists, _definitional_is_extremal

EX_SYSTEM = SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0), (0b110, 0)])
EX_FAMILY = EX_SYSTEM.family()


class TestUncoveredWitness:
    def test_example(self):
        # first member's cube escapes at {1,3}
        assert uncovered_witness(EX_SYSTEM) == (0, 0b101)

    def test_single_member_yields_pattern(self):
        system = SpernerSystem.of(3, [(0b011, 0b001)])
        assert uncovered_witness(system) == (0, 0b001)

    def test_third_member_is_covered(self):
        # the last cube lies inside the union of the other two
        s3, h3 = EX_SYSTEM.members[2]
        others = EX_SYSTEM.members[:2]
        for f in families.masks_of_bits(families.cube_bits(3, s3, h3)):
            assert any(f & s == h for s, h in others)

    def test_empty_system(self):
        with pytest.raises(EmptyInput):
            uncovered_witness(SpernerSystem.of(3, []))

    @given(helpers.systems())
    def test_matches_brute_force(self, system):
        brute = helpers.brute_witnesses(system.n, system.members)
        got = uncovered_witness(system)
        if brute:
            assert got == brute[0]
        else:
            assert got is None


class TestSuccessorMembers:
    def test_example_has_no_successors(self):
        assert successor_members(EX_SYSTEM, 0) == ()

    def test_single_member_grows(self):
        system = SpernerSystem.of(2, [(0b01, 0b01)])
        assert successor_members(system, 0) == (0b11,)

    def test_full_support_has_none(self):
        system = SpernerSystem.of(3, [(0b111, 0)])
        assert successor_members(system, 0) == ()

    @pytest.mark.parametrize("index", [-1, -2, 2, 5])
    def test_index_out_of_range(self, index):
        # a negative index must not wrap around to a member from the end
        system = SpernerSystem.of(4, [(0b0011, 0), (0b0100, 0)])
        assert successor_members(system, 1) == (5, 6, 12)
        with pytest.raises(EmptyInput, match=f"member index {index} out of range"):
            successor_members(system, index)

    @given(helpers.systems())
    def test_postcondition(self, system):
        for index in range(len(system.members)):
            s0 = system.members[index][0]
            new = successor_members(system, index)
            supports = [s for j, (s, _) in enumerate(system.members) if j != index]
            supports.extend(new)
            successor = SpernerSystem.from_anchor(system.n, supports, 0)  # patterns irrelevant
            want = set(system.up_complement().masks) | {s0}
            assert set(successor.up_complement().masks) == want


class TestExtendPatterns:
    def test_example(self):
        got = extend_patterns(EX_SYSTEM, 0, 0b101)
        assert got.members == ((0b101, 0), (0b110, 0))

    def test_growing_case(self):
        system = SpernerSystem.of(2, [(0b01, 0b01)])
        got = extend_patterns(system, 0, 0b01)
        assert got.members == ((0b11, 0b11),)

    def test_witness_outside_cube(self):
        with pytest.raises(WitnessNotEligible):
            extend_patterns(EX_SYSTEM, 0, 0b010)

    def test_witness_covered_elsewhere(self):
        # {1} sits in the first cube but also in the third
        with pytest.raises(WitnessNotEligible):
            extend_patterns(EX_SYSTEM, 0, 0b001)

    @pytest.mark.parametrize("index", [-3, -1, 3])
    def test_index_out_of_range(self, index):
        # -3 is member 0 counted from the end: {1,3} is in its cube, not covered
        assert extend_patterns(EX_SYSTEM, 0, 0b101).members == ((0b101, 0), (0b110, 0))
        with pytest.raises(EmptyInput, match=f"member index {index} out of range"):
            extend_patterns(EX_SYSTEM, index, 0b101)

    @given(helpers.systems())
    def test_witness_stays_outside_every_cube(self, system):
        found = uncovered_witness(system)
        if found is None:
            return
        index, witness = found
        successor = extend_patterns(system, index, witness)
        assert all(witness & s != h for s, h in successor.members)


class TestAugment:
    def test_example_certificate(self):
        cert = augment(EX_SYSTEM)
        assert cert.chosen_member == 0b011
        assert cert.added_set == 0b101
        assert cert.successor.members == ((0b101, 0), (0b110, 0))
        assert cert.augmented_family.masks == (0b011, 0b100, 0b101, 0b110, 0b111)
        assert cert.augmented_family.shattered_sets().masks == (0, 1, 2, 3, 4)

    def test_adds_last_missing_set(self):
        for n in (1, 2, 3):
            fam = SetFamily.full(n).without_member((1 << n) - 1)
            cert = augment(decompose(fam))
            assert cert.added_set == (1 << n) - 1
            assert cert.augmented_family == SetFamily.full(n)

    def test_rejects_unbalanced_system(self):
        system = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])
        with pytest.raises(NotExtremal):
            augment(system)

    def test_monotone_chain(self):
        fam = EX_SYSTEM.family()
        cert = augment(EX_SYSTEM)
        new_fam = cert.augmented_family
        assert len(fam) <= len(new_fam)
        assert len(new_fam) == len(new_fam.shattered_sets())
        assert len(new_fam.shattered_sets()) == len(cert.successor.up_complement())
        assert len(cert.successor.up_complement()) == len(fam) + 1

    @given(helpers.anchored_systems())
    def test_anchored_systems_always_augment(self, triple):
        n, supports, anchor = triple
        system = SpernerSystem.from_anchor(n, supports, anchor)
        if system.family().is_full():
            return
        cert = augment(system)
        assert cert is not None
        assert len(cert.augmented_family) == len(system.family()) + 1

    def test_certificates_never_compute_shattered_sets(self, monkeypatch):
        # augment's checks are decided by counting |F| = |D| alone: they
        # never enumerate Sh(F), not even on a rejection
        def refuse(*args):
            raise AssertionError("Sh(F) was computed")
        monkeypatch.setattr(families, "_shattered_bits", refuse)
        monkeypatch.setattr(SetFamily, "shattered_sets", refuse)
        assert augment(EX_SYSTEM).added_set == 0b101
        anchored = SpernerSystem.from_anchor(
            10, [0b0000000111, 0b0000011100, 0b0001110000, 0b0111000000, 0b1000100010], 0b0101010101)
        cert = augment(anchored)
        assert cert.augmented_family.bits == anchored.family().bits | 1 << cert.added_set
        with pytest.raises(NotExtremal):
            augment(SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)]))
        monkeypatch.undo()
        assert cert.augmented_family.is_s_extremal()

    def test_non_extremal_families_rejected(self):
        rng = SplitMix64(7)
        non_extremal = [SetFamily.of(2, [0b00, 0b11]), EX_FAMILY.with_member(0)]
        non_extremal += [random_family(rng, n) for n in (4, 6, 8, 10)]
        for fam in non_extremal:
            assert not _definitional_is_extremal(fam.bits, fam.n)
            assert not fam.is_s_extremal()

    @given(helpers.systems())
    def test_certificate_invariants(self, system):
        fam = system.family()
        down = system.up_complement()
        if len(fam) != len(down):
            return
        cert = augment(system)
        if cert is None:
            return
        assert cert.added_set not in fam
        assert cert.augmented_family == fam.with_member(cert.added_set)
        assert cert.augmented_family.is_s_extremal()
        assert set(cert.successor.up_complement().masks) == set(down.masks) | {cert.chosen_member}


class TestAugmentAnchored:
    def test_anchor_example(self):
        cert = augment_anchored(3, [0b011, 0b101, 0b110], 0b001, 0)
        base = SpernerSystem.from_anchor(3, [0b011, 0b101, 0b110], 0b001).family()
        assert base.masks == (0b010, 0b100, 0b110, 0b111)
        assert cert.added_set == 0b101
        assert cert.augmented_family == base.with_member(0b101)

    def test_single_full_support(self):
        cert = augment_anchored(2, [0b11], 0b01, 0)
        assert cert.augmented_family == SetFamily.full(2)

    def test_every_index_works(self):
        supports = [0b011, 0b101, 0b110]
        for index in range(3):
            for anchor in range(8):
                cert = augment_anchored(3, supports, anchor, index)
                base = SpernerSystem.from_anchor(3, supports, anchor).family()
                assert len(cert.augmented_family) == len(base) + 1
                assert set(base.masks) < set(cert.augmented_family.masks)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range(self, index):
        # the witness is read from the chosen member: -1 must not wrap to the last one
        supports = [0b011, 0b101, 0b110]
        assert augment_anchored(3, supports, 0b001, 2).chosen_member == 0b110
        with pytest.raises(EmptyInput, match=f"member index {index} out of range"):
            augment_anchored(3, supports, 0b001, index)

    def test_empty_anchor_succeeds(self):
        cert = augment_anchored(3, [0b011, 0b110], 0, 1)
        assert len(cert.augmented_family) == \
            len(SpernerSystem.from_anchor(3, [0b011, 0b110], 0).family()) + 1

    @given(helpers.anchored_systems())
    def test_successor_keeps_the_anchor_assignment(self, triple):
        n, supports, anchor = triple
        cert = augment_anchored(n, list(supports), anchor, 0)
        assert all(h == s & anchor for s, h in cert.successor.members)
        assert cert.augmented_family == cert.successor.family()


class TestPeel:
    def test_singleton_empty_set(self):
        for n in (1, 2, 3):
            fam = SetFamily.of(n, [0])
            assert peel(fam) == 0
            assert fam.without_member(0).is_s_extremal()

    def test_example_family(self):
        removed = peel(EX_FAMILY)
        assert removed in helpers.brute_removable(EX_FAMILY.masks, 3)

    def test_full_family(self):
        assert peel(SetFamily.full(3)) is not None

    def test_down_sets_peel(self):
        fam = SetFamily.of(3, [0b000, 0b001, 0b010, 0b011])
        removed = peel(fam)
        assert removed is not None
        assert fam.without_member(removed).is_s_extremal()

    def test_errors(self):
        with pytest.raises(EmptyInput):
            peel(SetFamily.empty(2))
        with pytest.raises(NotExtremal):
            peel(SetFamily.of(2, [0, 3]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_duality_exhaustive(self, n):
        for bits in range(1, 1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if not fam.is_s_extremal():
                continue
            removable = helpers.brute_removable(masks, n)
            removed = peel(fam)
            if removed is None:
                assert removable == []
            else:
                assert removed in removable

    def test_duality_exhaustive_n4(self):
        # direct removal search versus the dual extension route
        n = 4
        for bits in range(1, 1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if not fam.is_s_extremal():
                continue
            removed = peel(fam)
            assert removed is not None
            assert fam.without_member(removed).is_s_extremal()


class TestSmallSystemClaims:
    """Pairwise non-containment, the degree-one case, and the complete case."""

    @given(helpers.systems())
    def test_no_cube_contains_another(self, system):
        cubes = [helpers.brute_cube(system.n, s, h) for s, h in system.members]
        for i, a in enumerate(cubes):
            for j, b in enumerate(cubes):
                if i != j:
                    assert not a <= b

    @given(helpers.systems())
    def test_low_degree_vertex_gives_witness(self, system):
        graph = intersection_graph(system)
        if any(graph.degree(i) <= 1 for i in range(graph.size)):
            assert uncovered_witness(system) is not None

    @given(helpers.systems())
    def test_complete_graph_gives_witness(self, system):
        if intersection_graph(system).is_complete():
            assert uncovered_witness(system) is not None

    @settings(max_examples=200)
    @given(helpers.systems(max_members=4))
    def test_small_balanced_systems_have_witnesses(self, system):
        if len(system.members) <= 4 and sum(extremality_defect_by_size(system)) == 0:
            assert uncovered_witness(system) is not None


class TestAudit:
    def test_exhaustive_n2(self):
        report = audit_conjecture(2)
        assert report.families_examined == 16
        assert report.extremal_families == 13
        assert report.ok and report.counterexamples == ()

    def test_exhaustive_n3(self):
        report = audit_conjecture(3)
        assert report.families_examined == 256
        assert report.extremal_families == 127
        assert report.ok

    def test_exhaustive_cap(self):
        with pytest.raises(TooLarge):
            audit_conjecture(5)

    def test_random_cap(self):
        with pytest.raises(TooLarge):
            audit_conjecture(11, samples=1, seed=1)

    def test_random_mode_needs_seed(self):
        with pytest.raises(EmptyInput):
            audit_conjecture(4, samples=10)

    def test_exhaustive_mode_refuses_seed(self):
        # the sweep draws nothing, so the report would name a seed it never used
        with pytest.raises(ShatterlabError, match="seed 1 given without a sample count"):
            audit_conjecture(2, seed=1)
        assert audit_conjecture(2, seed=None).seed is None

    @pytest.mark.parametrize("seed", [42 + 2 ** 64, 42 - 2 ** 64, -1, 2 ** 64])
    def test_seed_outside_64_bits(self, seed):
        # masking such a seed to 64 bits would draw another seed's families
        with pytest.raises(ShatterlabError, match=r"seed must be in \[0, 2\^64\)"):
            audit_conjecture(5, samples=300, seed=seed)
        with pytest.raises(ShatterlabError, match=r"seed must be in \[0, 2\^64\)"):
            SplitMix64(seed)
        assert SplitMix64(2 ** 64 - 1).state == 2 ** 64 - 1
        assert audit_conjecture(5, samples=3, seed=0).seed == 0

    def test_oracle_independent_of_library_kernels(self, monkeypatch):
        # the audit's oracle is the anchor the kernels are checked against, so
        # it decides from its own table even when every kernel refuses to run
        rng = SplitMix64(0x0AC1E)
        cases = [(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
        for n, draws in ((5, 20), (6, 10), (7, 5)):
            cases += [(n, random_family(rng, n).bits) for _ in range(draws)]
            supports = random_antichain(rng, n, 4)
            extremal = SpernerSystem.from_anchor(n, supports, rng.bits(n)).family()
            cases += [(n, extremal.bits), (n, extremal.complement().bits)]
        expected = []
        for n, bits in cases:
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            expected.append((helpers.brute_is_extremal(masks, n),
                             bool(helpers.brute_addable(masks, n))))
        # the anchored families and their complements are extremal
        assert sum(e for (n, _), (e, _) in zip(cases, expected) if n >= 5) >= 6

        def refuse(*args):
            raise AssertionError("the oracle called a library kernel")
        for module in (families, elimination):
            for name in ("cube_bits", "trace_bits", "minimal_bits", "_shattered_bits"):
                if name in vars(module):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(SetFamily, "shattered_sets", refuse)
        elimination._pattern_cubes.cache_clear()
        got = [(_definitional_is_extremal(bits, n), _brute_addable_exists(bits, n))
               for n, bits in cases]
        assert got == expected

    # the families with bitsets 0-4 over [3], all extremal: the first five
    # failures when every extremal family fails, each recorded once
    FIRST_EXTREMAL_N3 = ((), (0,), (1,), (0, 1), (2,))

    def test_missing_witness_tallies(self, monkeypatch):
        # no extremal family gets a witness, while brute force finds an
        # addable set for each: both tallies count all 127
        monkeypatch.setattr(elimination, "augment", lambda system: None)
        report = audit_conjecture(3)
        assert report.extremal_families == 127
        assert report.missing_witness == report.disagreements == 127
        assert report.brute_failures == report.machinery_failures == 0
        assert not report.ok
        assert report.counterexamples == self.FIRST_EXTREMAL_N3

    def test_machinery_failure_tallies(self, monkeypatch):
        def fail(system):
            raise VerificationFailed("forced")
        monkeypatch.setattr(elimination, "augment", fail)
        report = audit_conjecture(3)
        assert report.machinery_failures == 127
        assert report.missing_witness == report.disagreements == report.brute_failures == 0
        assert not report.ok
        assert report.counterexamples == self.FIRST_EXTREMAL_N3

    def test_random_mode_deterministic(self):
        a = audit_conjecture(5, samples=200, seed=99)
        b = audit_conjecture(5, samples=200, seed=99)
        assert a == b
        assert a.mode == "random" and a.families_examined == 200
        assert a.ok
