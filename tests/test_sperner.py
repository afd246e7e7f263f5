"""Tests for cube bitsets, system constructions, and the canonical decomposition."""

import pytest
from hypothesis import given, settings

import helpers
from shatterlab import (
    FullFamily,
    NotAntichain,
    NotExtremal,
    PatternNotInSupport,
    SetFamily,
    SpernerSystem,
    cube_polynomial,
    decompose,
    submasks,
)
from shatterlab.families import cube_bits, masks_of_bits

# supports {1,2},{1,3},{2,3} with patterns {1},-,- over [3]
EX_SYSTEM = SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0), (0b110, 0)])
EX_FAMILY = SetFamily.of(3, [0b100, 0b011, 0b110, 0b111])


def cube(n, support, pattern):
    return masks_of_bits(cube_bits(n, support, pattern))


class TestCube:
    """The subcube of sets F with F & support == pattern, as a bitset."""

    def test_superset_cube_example(self):
        assert cube(3, 0b011, 0b011) == (0b011, 0b111)

    def test_superset_cube_trivial(self):
        assert cube(2, 0b11, 0b11) == (0b11,)

    def test_pattern_cube_examples(self):
        assert cube(3, 0b011, 0b001) == (0b001, 0b101)
        assert cube(3, 0b101, 0) == (0b000, 0b010)
        assert cube(3, 0b110, 0) == (0b000, 0b001)

    def test_pattern_equal_support_is_superset_cube(self):
        for s in range(1 << 3):
            assert set(cube(3, s, s)) == helpers.brute_up_closure(3, [s])

    def test_rejects_pattern_outside_support(self):
        # the cube polynomial is built from a bare (support, pattern) and checks it
        with pytest.raises(PatternNotInSupport):
            cube_polynomial(3, 0b011, 0b100)

    def test_full_support_single_member(self):
        assert cube(3, 0b111, 0b101) == (0b101,)

    def test_empty_support_is_power_set(self):
        assert cube_bits(2, 0, 0) == SetFamily.full(2).bits

    @given(helpers.systems())
    def test_member_count_and_oracle(self, system):
        for s, h in system.members:
            bits = cube_bits(system.n, s, h)
            assert bits.bit_count() == 1 << (system.n - s.bit_count())
            assert set(masks_of_bits(bits)) == helpers.brute_cube(system.n, s, h)


class TestSystemValidation:
    def test_rejects_comparable_supports(self):
        with pytest.raises(NotAntichain):
            SpernerSystem.of(3, [(0b001, 0), (0b011, 0)])

    def test_rejects_duplicate_supports(self):
        with pytest.raises(NotAntichain):
            SpernerSystem.of(3, [(0b001, 0), (0b001, 1)])

    def test_rejects_pattern_outside_support(self):
        with pytest.raises(PatternNotInSupport):
            SpernerSystem.of(3, [(0b011, 0b100)])

    def test_degenerate_empty_support(self):
        system = SpernerSystem.of(3, [(0, 0)])
        assert system.family().masks == ()
        assert system.up_complement().masks == ()
        with pytest.raises(NotAntichain):
            SpernerSystem.of(3, [(0, 0), (0b001, 0)])


class TestConstructions:
    # the up-closure of the supports is the complement of the up-complement
    def test_up_closure_example(self):
        closure = EX_SYSTEM.up_complement().complement()
        assert closure.masks == (0b011, 0b101, 0b110, 0b111)
        assert closure.is_up_set()

    def test_up_closure_trivial(self):
        assert SpernerSystem.of(3, []).up_complement().complement().masks == ()
        assert SpernerSystem.of(2, [(0, 0)]).up_complement().complement() == SetFamily.full(2)

    def test_up_complement_example(self):
        assert EX_SYSTEM.up_complement().masks == (0, 1, 2, 4)
        assert EX_SYSTEM.up_complement().is_down_set()

    def test_up_complement_trivial(self):
        assert SpernerSystem.of(2, []).up_complement() == SetFamily.full(2)
        full = (1 << 3) - 1
        assert SpernerSystem.of(3, [(full, 0)]).up_complement() == \
            SetFamily.full(3).without_member(full)

    def test_family_example(self):
        assert EX_SYSTEM.family() == EX_FAMILY

    def test_family_trivial(self):
        assert SpernerSystem.of(3, []).family() == SetFamily.full(3)

    def test_family_two_member(self):
        system = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])
        assert system.family().masks == (0b000, 0b100, 0b110, 0b111)

    @given(helpers.systems())
    def test_constructions_match_oracles(self, system):
        n, pairs = system.n, system.members
        assert set(system.up_complement().complement().masks) == \
            helpers.brute_up_closure(n, [s for s, _ in pairs])
        assert set(system.family().masks) == helpers.brute_family(n, pairs)

    @given(helpers.systems())
    def test_family_members_avoid_every_pattern(self, system):
        for f in system.family():
            assert all(f & s != h for s, h in system.members)


class TestAnchors:
    def test_from_anchor_example(self):
        system = SpernerSystem.from_anchor(3, [0b011, 0b101, 0b110], 0b001)
        assert system.patterns() == (0b001, 0b001, 0)

    def test_anchor_extremes(self):
        supports = [0b011, 0b101, 0b110]
        assert SpernerSystem.from_anchor(3, supports, 0).patterns() == (0, 0, 0)
        assert SpernerSystem.from_anchor(3, supports, 0b111).patterns() == (0b011, 0b101, 0b110)

    def test_from_anchor_rejects_non_antichain(self):
        with pytest.raises(NotAntichain):
            SpernerSystem.from_anchor(3, [0b001, 0b011], 0)

    @given(helpers.anchored_systems())
    def test_anchored_systems_are_extremal(self, triple):
        # anchored patterns always satisfy the counting equality
        n, supports, anchor = triple
        system = SpernerSystem.from_anchor(n, supports, anchor)
        fam = system.family()
        down = system.up_complement()
        assert len(fam) == len(down)
        assert fam.shattered_sets() == down


class TestMissingPatterns:
    """The subsets of s that are no trace of the family; `decompose` reads patterns off them."""

    @staticmethod
    def missing(fam, s):
        return set(submasks(s)) - set(fam.trace(s).masks)

    def test_example(self):
        assert self.missing(EX_FAMILY, 0b011) == {0b001}

    def test_shattered_has_none(self):
        assert self.missing(EX_FAMILY, 0b100) == set()

    def test_empty_family_misses_everything(self):
        assert self.missing(SetFamily.empty(2), 0b01) == {0, 1}

    @given(helpers.families())
    def test_matches_oracle(self, fam):
        for s in range(1 << fam.n):
            assert self.missing(fam, s) == helpers.brute_missing(fam.masks, fam.n, s)


class TestDecompose:
    def test_example(self):
        assert decompose(EX_FAMILY).members == ((0b011, 0b001), (0b101, 0), (0b110, 0))

    def test_near_full_family(self):
        fam = SetFamily.of(2, [0, 1, 2])
        assert decompose(fam).members == ((0b11, 0b11),)

    def test_three_support_family(self):
        fam = SetFamily.of(3, [0b000, 0b100, 0b110, 0b111])
        assert decompose(fam).members == ((0b011, 0b001), (0b101, 0b001), (0b110, 0b010))

    def test_empty_family(self):
        assert decompose(SetFamily.empty(2)).members == ((0, 0),)

    def test_rejects_full_family(self):
        with pytest.raises(FullFamily):
            decompose(SetFamily.full(2))

    def test_rejects_non_extremal(self):
        with pytest.raises(NotExtremal):
            decompose(SetFamily.of(2, [0, 3]))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_roundtrip_exhaustive(self, n):
        for bits in range((1 << (1 << n)) - 1):   # skip the full family
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if not fam.is_s_extremal():
                continue
            system = decompose(fam)
            assert system.family() == fam
            assert system.up_complement() == fam.shattered_sets()
            # the pattern on every support is the unique missing trace
            for s, h in system.members:
                assert helpers.brute_missing(masks, n, s) == {h}

    def test_roundtrip_exhaustive_n4(self):
        n = 4
        for bits in range((1 << (1 << n)) - 1):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if not fam.is_s_extremal():
                continue
            system = decompose(fam)
            assert system.family() == fam
            assert system.up_complement() == fam.shattered_sets()

    @given(helpers.anchored_systems())
    def test_recovers_anchored_systems(self, triple):
        n, supports, anchor = triple
        system = SpernerSystem.from_anchor(n, supports, anchor)
        fam = system.family()
        if fam.is_full():
            return
        assert decompose(fam) == system


class TestCountingEquivalence:
    """Size equality holds exactly when the family is extremal with the full down-set."""

    @given(helpers.systems())
    def test_random(self, system):
        fam = system.family()
        down = system.up_complement()
        shattered = fam.shattered_sets()
        assert set(shattered.masks) <= set(down.masks)
        equal = len(fam) == len(down)
        extremal_with_down = len(shattered) == len(fam) and shattered == down
        assert equal == extremal_with_down

    @settings(max_examples=50)
    @given(helpers.systems(max_n=4, max_members=3))
    def test_shattered_always_inside_down_set(self, system):
        shattered = system.family().shattered_sets()
        down = set(system.up_complement().masks)
        assert all(s in down for s in shattered)

    def test_exhaustive_small(self):
        for supports in helpers.all_small_antichains(3, 2):
            for patterns in helpers.all_pattern_assignments(supports):
                system = SpernerSystem.of(3, list(zip(supports, patterns)))
                fam = system.family()
                down = system.up_complement()
                shattered = fam.shattered_sets()
                equal = len(fam) == len(down)
                assert equal == (len(shattered) == len(fam) and shattered == down)
