"""Tests for the family primitives: traces, shattering, extremality, order structure."""

import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from shatterlab import (SetFamily, ShatterlabError, SplitMix64, SpernerSystem, augment,
                        elements_of_mask, is_antichain, peel, random_antichain, random_family)
from shatterlab.elimination import _definitional_is_extremal
from shatterlab.families import cube_bits, masks_of_bits, minimal_bits
from shatterlab.fileio import family_from_object


def masks_of(*sets, n):
    return family_from_object({"n": n, "sets": list(sets)})


# the running 4-member example over [3]: {3}, {1,2}, {2,3}, {1,2,3}
EX_FAMILY = masks_of([3], [1, 2], [2, 3], [1, 2, 3], n=3)


class TestConstruction:
    def test_canonical_order(self):
        fam = SetFamily.of(2, [3, 0, 1, 3])
        assert fam.masks == (0, 1, 3)

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ShatterlabError):
            SetFamily.of(2, [4])

    def test_rejects_unsorted_direct(self):
        with pytest.raises(ShatterlabError):
            SetFamily(2, (1, 0))

    def test_rejects_bad_ground(self):
        with pytest.raises(ShatterlabError):
            SetFamily.of(25, [])
        with pytest.raises(ShatterlabError):
            SetFamily.of(-1, [])

    def test_from_bits_keeps_bits(self):
        fam = SetFamily(3, 0b10011001)
        assert fam == SetFamily.of(3, (0, 3, 4, 7)) and fam.bits == 0b10011001
        assert SetFamily(0, 1).masks == (0,)

    def test_from_bits_rejects_bad_ground(self):
        for n in (-1, 25):
            with pytest.raises(ShatterlabError, match="ground set size"):
                SetFamily(n, 0)

    @pytest.mark.parametrize("n, bits", [(0, 2), (2, 1 << 4), (3, -1), (3, 1 << 8 | 1)])
    def test_from_bits_rejects_out_of_range_bitset(self, n, bits):
        with pytest.raises(ShatterlabError, match="bitset outside"):
            SetFamily(n, bits)

    def test_with_and_without_member(self):
        assert EX_FAMILY.with_member(0) == SetFamily.of(3, EX_FAMILY.masks + (0,))
        assert EX_FAMILY.with_member(0b011) == EX_FAMILY
        assert EX_FAMILY.without_member(0b011) == SetFamily.of(3, (0b100, 0b110, 0b111))
        for mask in (-1, -8, 8, 1 << 40):
            with pytest.raises(ShatterlabError, match="outside ground set"):
                EX_FAMILY.with_member(mask)
            assert EX_FAMILY.without_member(mask) is EX_FAMILY
        assert EX_FAMILY.without_member(0) is EX_FAMILY

    def test_elements_of_mask_rejects_negative(self):
        # a negative mask has infinitely many set bits, so decoding it never ended
        assert elements_of_mask(0b1011) == (1, 2, 4)
        for mask in (-1, -2, -(1 << 40)):
            with pytest.raises(ShatterlabError, match="negative"):
                elements_of_mask(mask)


class TestTrace:
    def test_example_trace(self):
        got = EX_FAMILY.trace(0b011)
        assert got == masks_of([], [2], [1, 2], n=3)

    def test_empty_selector(self):
        assert EX_FAMILY.trace(0).masks == (0,)
        assert SetFamily.empty(3).trace(0).masks == ()

    def test_full_cube_traces_fully(self):
        assert SetFamily.full(2).trace(0b01) == masks_of([], [1], n=2)

    @given(helpers.families())
    def test_trace_size_bound(self, fam):
        for s in range(1 << fam.n):
            t = fam.trace(s)
            assert len(t) <= min(len(fam), 1 << s.bit_count())
            assert set(t.masks) == helpers.brute_trace(fam.masks, s)


class TestShattering:
    def test_example_not_shattering_pair(self):
        # {1} is the missing trace pattern on {1,2}
        assert not EX_FAMILY.is_shattered(0b011)

    def test_empty_set_shattered_iff_nonempty(self):
        assert EX_FAMILY.is_shattered(0)
        assert not SetFamily.empty(3).is_shattered(0)

    def test_singleton_shattered(self):
        assert EX_FAMILY.is_shattered(0b100)

    def test_example_shattered_sets(self):
        assert EX_FAMILY.shattered_sets().masks == (0, 1, 2, 4)

    def test_empty_family_shatters_nothing(self):
        assert SetFamily.empty(3).shattered_sets().masks == ()

    def test_single_member_shatters_only_empty(self):
        assert SetFamily.of(3, [5]).shattered_sets().masks == (0,)

    @given(helpers.families())
    def test_matches_definitional_oracle(self, fam):
        assert set(fam.shattered_sets().masks) == helpers.brute_shattered(fam.masks, fam.n)

    @given(helpers.families())
    def test_sauer_shelah(self, fam):
        assert len(fam.shattered_sets()) >= len(fam)

    @given(helpers.families())
    def test_shattered_is_down_set(self, fam):
        assert fam.shattered_sets().is_down_set()

    @given(helpers.families(allow_empty=False))
    def test_sauer_inequality(self, fam):
        k = fam.vc_dimension() + 1
        bound = sum(math.comb(fam.n, i) for i in range(k))
        assert len(fam) <= bound


class TestVcDimension:
    def test_example(self):
        assert EX_FAMILY.vc_dimension() == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_full_cube(self, n):
        assert SetFamily.full(n).vc_dimension() == n

    def test_empty(self):
        assert SetFamily.empty(3).vc_dimension() is None


class TestExtremality:
    def test_example_is_extremal(self):
        assert EX_FAMILY.is_s_extremal()

    @given(helpers.families())
    def test_down_sets_are_extremal(self, fam):
        down = _down_closure(fam)
        assert down.is_s_extremal()
        assert down.shattered_sets() == down

    def test_gap_pair_not_extremal(self):
        assert not masks_of([], [1, 2], n=2).is_s_extremal()

    def test_empty_family_is_extremal(self):
        assert SetFamily.empty(4).is_s_extremal()


class TestOrderStructure:
    def test_down_set_example(self):
        assert masks_of([], [1], [2], n=2).is_down_set()

    def test_up_set_example(self):
        up = masks_of([1, 2], [1, 3], [2, 3], [1, 2, 3], n=3)
        assert up.is_up_set()
        assert not up.is_down_set()

    def test_empty_family_is_both(self):
        assert SetFamily.empty(2).is_down_set()
        assert SetFamily.empty(2).is_up_set()

    def test_complement_example(self):
        assert EX_FAMILY.complement() == masks_of([], [1], [2], [1, 3], n=3)

    @given(helpers.families())
    def test_complement_involution(self, fam):
        assert fam.complement().complement() == fam

    def test_complement_of_empty(self):
        assert SetFamily.empty(2).complement() == SetFamily.full(2)

    def test_minimal_elements_example(self):
        fam = masks_of([1, 2], [1, 3], [2, 3], [1, 2, 3], n=3)
        assert fam.minimal_elements() == masks_of([1, 2], [1, 3], [2, 3], n=3)

    def test_maximal_elements_example(self):
        fam = masks_of([1, 2], [1, 3], [2, 3], [1, 2, 3], n=3)
        assert fam.maximal_elements() == masks_of([1, 2, 3], n=3)

    def test_antichain_fixed_points(self):
        anti = masks_of([1], [2, 3], n=3)
        assert anti.minimal_elements() == anti
        assert anti.maximal_elements() == anti
        assert SetFamily.empty(3).minimal_elements().masks == ()

    @given(helpers.families())
    def test_minimal_elements_form_antichain(self, fam):
        mins = fam.minimal_elements().masks
        assert set(mins) == helpers.brute_minimal(fam.masks)
        for i, a in enumerate(mins):
            for b in mins[i + 1:]:
                assert a & b != a and a & b != b

    def test_is_antichain_superset_before_subset(self):
        # ascending lists reach only the first clause of the pairwise test
        assert not is_antichain([0b011, 0b001])
        assert not is_antichain([0b001, 0b011])

    @given(st.lists(st.integers(0, 15), max_size=6))
    def test_is_antichain_matches_brute_minimal(self, masks):
        # in any member order: distinct masks that are all minimal
        want = len(set(masks)) == len(masks) and helpers.brute_minimal(masks) == set(masks)
        assert is_antichain(masks) == want


class TestRandomSweeps:
    """Seeded sweeps at the sizes hypothesis does not reach comfortably."""

    def test_below_rejects_bound_below_one(self):
        # no integer lies in [0, bound) then, so rejection sampling never ended
        rng = SplitMix64(1)
        assert {rng.below(1) for _ in range(20)} == {0}
        for bound in (0, -1, -5):
            with pytest.raises(ShatterlabError, match="below 1"):
                rng.below(bound)
        with pytest.raises(ShatterlabError, match="below 1"):
            random_antichain(rng, 3, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sauer_shelah_thousand_families(self, n):
        rng = SplitMix64(0xA5EED + n)
        for _ in range(1000):
            fam = random_family(rng, n)
            assert len(fam.shattered_sets()) >= len(fam)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complement_duality_random(self, n):
        rng = SplitMix64(0xD0A1 + n)
        for _ in range(200):
            fam = random_family(rng, n)
            assert fam.is_s_extremal() == fam.complement().is_s_extremal()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_complement_duality_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            assert fam.is_s_extremal() == fam.complement().is_s_extremal()


class TestShatteredSetsAgainstOracles:
    """The shattered-set kernel and the other bitset operations against the definitional oracles."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_family_exhaustive(self, n):
        everything = range(1 << n)
        probes = range(-1, (1 << n) + 1)
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            shattered = fam.shattered_sets()
            assert shattered.masks == tuple(sorted(helpers.brute_shattered(masks, n)))
            assert set(masks_of_bits(minimal_bits(n, bits))) == helpers.brute_minimal(masks)
            extremal = _definitional_is_extremal(bits, n)
            assert extremal == helpers.brute_is_extremal(masks, n) == fam.is_s_extremal() \
                == helpers.is_extremal_with(n, bits, shattered.bits)
            assert fam.is_down_set() == helpers.brute_is_down_set(masks, n)
            assert fam.is_up_set() == helpers.brute_is_up_set(masks, n)
            assert fam.complement().masks == tuple(sorted(set(everything).difference(masks)))
            assert tuple(m for m in probes if m in fam) == masks
            if n <= 3:
                for s in everything:
                    assert set(fam.trace(s).masks) == helpers.brute_trace(masks, s)
        # the certificate against every set of sets D, down-set or not: true
        # iff F is extremal with Sh(F) = D
        if n <= 3:
            for bits in range(1 << (1 << n)):
                masks = masks_of_bits(bits)
                shattered = helpers.brute_shattered(masks, n)
                for d in range(1 << (1 << n)):
                    expected = shattered == set(masks_of_bits(d)) and len(masks) == d.bit_count()
                    assert helpers.is_extremal_with(n, bits, d) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_cube_bits_exhaustive(self, n):
        for support in range(1 << n):
            for pattern in range(1 << n):
                if pattern & ~support == 0:
                    got = masks_of_bits(cube_bits(n, support, pattern))
                    assert got == tuple(sorted(helpers.brute_cube(n, support, pattern)))

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_extremal_families_complements_and_edits(self, n):
        # Anchored systems give extremal families whose shattered sets reach
        # deep into the cube; their complements shatter only small sets.
        # Adding or removing one member gives families next to extremal ones.
        rng = SplitMix64(0x5EED5 + n)
        not_extremal = 0
        for _ in range(2):
            fam = _anchored_extremal(rng, n)
            for base in (fam, fam.complement()):
                assert _definitional_is_extremal(base.bits, n)
                outside = base.complement().masks
                edits = (base.without_member(base.masks[rng.below(len(base))]),
                         base.with_member(outside[rng.below(len(outside))]))
                for g in (base, *edits):
                    assert set(g.shattered_sets().masks) == helpers.brute_shattered(g.masks, n)
                    extremal = _definitional_is_extremal(g.bits, n)
                    assert g.is_s_extremal() == extremal
                    not_extremal += not extremal
        assert not_extremal > 0

    @pytest.mark.parametrize("n", [12, 13, 14, 15, 16, 18])
    def test_shattered_sets_certified(self, n):
        # No reference kernel: Sh(F) = D follows when D is a down-set whose
        # maximal elements F shatters (so D lies in Sh(F)) and F shatters
        # none of D's minimal non-members (so Sh(F) lies in D).  Anchored
        # families and their complements are extremal; one-member edits of
        # them mostly are not.
        rng = SplitMix64(0x5B117 + n)
        fam = _anchored_extremal(rng, n)
        not_extremal = 0
        for base in (fam, fam.complement()):
            outside = base.complement().masks
            edits = (base.without_member(base.masks[rng.below(len(base))]),
                     base.with_member(outside[rng.below(len(outside))]))
            for g in (base, *edits):
                down = g.shattered_sets()
                assert down.is_down_set()
                assert all(g.is_shattered(s) for s in down.maximal_elements())
                assert not any(g.is_shattered(s) for s in down.complement().minimal_elements())
                extremal = g.is_s_extremal()
                assert extremal == helpers.is_extremal_with(n, g.bits, down.bits)
                assert g is not base or extremal
                not_extremal += not extremal
        assert not_extremal > 0


class TestBitsetRepresentation:
    """The bitset is the family; masks are decoded only when asked for."""

    def test_bits_is_the_only_stored_family(self):
        assert [f.name for f in dataclasses.fields(SetFamily)] == ["n", "bits"]
        fam = SetFamily(3, 0b10011001)
        assert "masks" not in fam.__dict__
        assert fam.masks == (0, 3, 4, 7) and "masks" in fam.__dict__
        for bad in ((0, 3), [0b1001], "9", 9.0, None):
            with pytest.raises(ShatterlabError, match="must be an int"):
                SetFamily(3, bad)

    def test_repr_is_the_constructor_call(self):
        assert repr(SetFamily.of(2, [0, 3])) == "SetFamily(2, 0x9)"
        # an int of more than 4300 decimal digits has no str(): the
        # dataclass default repr raised from n = 14 on
        assert repr(SetFamily.full(16)).startswith("SetFamily(16, 0xffff")

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_minimal_and_maximal_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            fam = SetFamily(n, bits)
            assert set(fam.minimal_elements().masks) == helpers.brute_minimal(fam.masks)
            assert set(fam.maximal_elements().masks) == helpers.brute_maximal(fam.masks)

    @given(helpers.families(max_n=8))
    def test_minimal_and_maximal_against_definition(self, fam):
        assert set(fam.minimal_elements().masks) == helpers.brute_minimal(fam.masks)
        assert set(fam.maximal_elements().masks) == helpers.brute_maximal(fam.masks)

    def test_n20_pipeline_never_decodes(self):
        # the anchored system of the BENCH_*.json rows at n = 20
        rng = random.Random(6020)
        supports = set()
        while len(supports) < 7:
            supports.add(sum(1 << e for e in rng.sample(range(20), 3)))
        system = SpernerSystem.from_anchor(20, sorted(supports), rng.getrandbits(20))
        fam, down = system.family(), system.up_complement()
        shattered, outside = fam.shattered_sets(), fam.complement()
        assert len(fam) == len(down) == 463904 and shattered == down
        cert = augment(system)
        assert (cert.chosen_member, cert.added_set) == (0b1000010100, 0b1000000001)
        assert cert.augmented_family.bits == fam.bits | 1 << cert.added_set
        removed = peel(fam)
        assert removed == 0b1100000101 and removed in fam
        for g in (fam, down, shattered, outside, cert.augmented_family):
            assert "masks" not in g.__dict__


def _anchored_extremal(rng, n):
    """Family of an anchored system on 3 to 6 supports of 2 to 4 elements."""
    supports = []
    for _ in range(3 + rng.below(4)):
        elements = list(range(n))
        support = 0
        for _ in range(2 + rng.below(3)):
            support |= 1 << elements.pop(rng.below(len(elements)))
        supports.append(support)
    antichain = SetFamily.of(n, supports).minimal_elements().masks
    return SpernerSystem.from_anchor(n, antichain, rng.bits(n)).family()


def _down_closure(fam):
    out = set()
    for m in fam.masks:
        sub = m
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return SetFamily.of(fam.n, out)
