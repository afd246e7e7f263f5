"""Tests for the compatibility lemma, the defect sum, and the intersection graph."""

import random

import pytest
from hypothesis import given, settings

import helpers
from shatterlab import (
    GraphClass,
    IntersectionGraph,
    NotAntichain,
    NotComplete,
    PatternNotInSupport,
    SetFamily,
    SpernerSystem,
    augment_anchored,
    classify_graph,
    extremality_defect_by_size,
    intersection_graph,
    recover_anchor,
    submasks,
)
from shatterlab.families import cube_bits, masks_of_bits

EX_SYSTEM = SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0), (0b110, 0)])
EX_FAMILY = EX_SYSTEM.family()


class TestIndicator:
    """The compatibility test si & hj == sj & hi, as the intersection graph applies it."""

    def test_example_pair_is_incompatible(self):
        assert intersection_graph(SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0)])).edges() == ()

    def test_disjoint_supports_always_compatible(self):
        for h1 in submasks(0b001):
            for h2 in submasks(0b110):
                graph = intersection_graph(SpernerSystem.of(3, [(0b001, h1), (0b110, h2)]))
                assert graph.edges() == ((0, 1),)

    def test_rejects_bad_pattern(self):
        # the graph only sees members the system has validated
        with pytest.raises(PatternNotInSupport):
            SpernerSystem.of(3, [(0b001, 0b010), (0b110, 0)])


class TestIntersectCubes:
    """Compatible cubes meet in the cube on the union support and pattern; others not at all."""

    def test_meeting_pair(self):
        got = cube_bits(3, 0b011, 0b001) & cube_bits(3, 0b110, 0)
        assert got == cube_bits(3, 0b111, 0b001)
        assert masks_of_bits(got) == (0b001,)

    def test_disjoint_pair(self):
        assert cube_bits(3, 0b011, 0b001) & cube_bits(3, 0b101, 0) == 0

    def test_superset_cubes_reduce_to_union_rule(self):
        assert cube_bits(4, 0b0011, 0b0011) & cube_bits(4, 0b0110, 0b0110) == \
            cube_bits(4, 0b0111, 0b0111)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_soundness(self, n):
        cubes = [(s, h) for s in range(1 << n) for h in submasks(s)]
        for s1, h1 in cubes:
            for s2, h2 in cubes:
                want = cube_bits(n, s1 | s2, h1 | h2) if s1 & h2 == s2 & h1 else 0
                assert cube_bits(n, s1, h1) & cube_bits(n, s2, h2) == want


class TestIntersectMany:
    """Cubes meet iff every pair does (a clique), in the cube on the unions."""

    def test_all_three_example_cubes_disjoint(self):
        common = cube_bits(3, 0, 0)
        for s, h in EX_SYSTEM.members:
            common &= cube_bits(3, s, h)
        assert common == 0

    def test_first_and_third(self):
        (s1, h1), _, (s3, h3) = EX_SYSTEM.members
        assert cube_bits(3, s1, h1) & cube_bits(3, s3, h3) == cube_bits(3, 0b111, 0b001)

    @given(helpers.systems(max_members=4))
    def test_agrees_with_folded_pairwise(self, system):
        n = system.n
        common, support, pattern = cube_bits(n, 0, 0), 0, 0
        for s, h in system.members:
            common &= cube_bits(n, s, h)
            support, pattern = support | s, pattern | h
        if intersection_graph(system).is_complete():
            assert common == cube_bits(n, support, pattern)
        else:
            assert common == 0


class TestDefect:
    def test_example_balances(self):
        assert sum(extremality_defect_by_size(EX_SYSTEM)) == 0
        assert extremality_defect_by_size(EX_SYSTEM) == (0, 1, -1)

    def test_two_member_gap(self):
        system = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])
        assert sum(extremality_defect_by_size(system)) == 1

    @given(helpers.anchored_systems())
    def test_anchored_always_zero(self, triple):
        n, supports, anchor = triple
        system = SpernerSystem.from_anchor(n, supports, anchor)
        assert sum(extremality_defect_by_size(system)) == 0

    @given(helpers.systems(max_n=8, max_members=6))
    def test_defect_equals_size_difference(self, system):
        down = system.up_complement()
        fam = system.family()
        assert sum(extremality_defect_by_size(system)) == len(down) - len(fam)

    @given(helpers.systems())
    def test_zero_defect_iff_extremal_with_down_set(self, system):
        fam = system.family()
        shattered = fam.shattered_sets()
        zero = sum(extremality_defect_by_size(system)) == 0
        assert zero == (len(shattered) == len(fam) and shattered == system.up_complement())

    def test_empty_system(self):
        assert sum(extremality_defect_by_size(SpernerSystem.of(3, []))) == 0

    @settings(max_examples=200)
    @given(helpers.systems(max_n=8, max_members=10))
    def test_partial_sums_match_naive_expansion(self, system):
        assert extremality_defect_by_size(system) == helpers.brute_defect_by_size(system)

    def test_partial_sums_match_naive_expansion_exhaustive(self):
        for supports in helpers.all_small_antichains(3, 3):
            for patterns in helpers.all_pattern_assignments(supports):
                system = SpernerSystem.of(3, list(zip(supports, patterns)))
                assert extremality_defect_by_size(system) == helpers.brute_defect_by_size(system)

    @staticmethod
    def _check_large(system):
        # identities that need no 2^N enumeration
        partial = extremality_defect_by_size(system)
        assert len(partial) == len(system.members)
        assert sum(partial) == len(system.up_complement()) - len(system.family())
        assert partial[0] == 0
        pairs = sum(1 << (system.n - (si | sj).bit_count())
                    for a, (si, hi) in enumerate(system.members)
                    for (sj, hj) in system.members[a + 1:]
                    if si & hj != sj & hi)
        assert partial[1] == pairs
        return partial

    @staticmethod
    def _random_system(seed, n, size, members):
        rng = random.Random(seed)
        supports = rng.sample([s for s in range(1 << n) if s.bit_count() == size], members)
        return SpernerSystem.of(n, [(s, s & rng.getrandbits(n)) for s in supports])

    def test_twenty_one_members(self):
        partial = self._check_large(self._random_system(21, 12, 4, 21))
        assert any(partial)
        # the system the old 20-member cap refused: disjoint supports always meet
        system = SpernerSystem.from_anchor(21, [1 << i for i in range(21)], 0)
        assert self._check_large(system) == (0,) * 21

    def test_two_hundred_members_at_n16(self):
        partial = self._check_large(self._random_system(200, 16, 6, 200))
        assert sum(partial) > 0


class TestIntersectionGraph:
    def test_example_graph(self):
        graph = intersection_graph(EX_SYSTEM)
        assert graph.edges() == ((0, 2), (1, 2))
        assert [graph.degree(i) for i in range(3)] == [1, 1, 2]
        assert classify_graph(graph) == GraphClass.HAS_DEGREE_ONE

    @given(helpers.anchored_systems())
    def test_anchored_graph_is_complete(self, triple):
        n, supports, anchor = triple
        graph = intersection_graph(SpernerSystem.from_anchor(n, supports, anchor))
        assert graph.is_complete()

    def test_single_member_graph(self):
        graph = intersection_graph(SpernerSystem.of(3, [(0b011, 0b001)]))
        assert graph.size == 1 and graph.edges() == ()
        assert classify_graph(graph) == GraphClass.HAS_ISOLATED

    @given(helpers.systems())
    def test_edges_match_member_intersections(self, system):
        graph = intersection_graph(system)
        cubes = [cube_bits(system.n, s, h) for s, h in system.members]
        for i in range(graph.size):
            for j in range(i + 1, graph.size):
                assert bool(graph.adjacency[i] >> j & 1) == bool(cubes[i] & cubes[j])


class TestClassification:
    def _graph(self, n, edges):
        rows = [0] * n
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return IntersectionGraph(n, tuple(rows))

    def test_complete(self):
        k4 = self._graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert classify_graph(k4) == GraphClass.COMPLETE

    def test_four_cycle(self):
        c4 = self._graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert classify_graph(c4) == GraphClass.C4

    def test_k4_minus_edge(self):
        g = self._graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert classify_graph(g) == GraphClass.K4_MINUS

    def test_priority_order(self):
        # degree-one beats complete for two vertices
        k2 = self._graph(2, [(0, 1)])
        assert classify_graph(k2) == GraphClass.HAS_DEGREE_ONE
        path = self._graph(4, [(0, 1), (1, 2), (2, 3)])
        assert classify_graph(path) == GraphClass.HAS_DEGREE_ONE
        isolated = self._graph(3, [(0, 1)])
        assert classify_graph(isolated) == GraphClass.HAS_ISOLATED

    def test_other_needs_five_vertices(self):
        c5 = self._graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert classify_graph(c5) == GraphClass.OTHER


class TestRecoverAnchor:
    def test_recovers_union_of_patterns(self):
        system = SpernerSystem.from_anchor(3, [0b011, 0b101, 0b110], 0b001)
        anchor = recover_anchor(system)
        assert anchor == 0b001
        assert all(s & anchor == h for s, h in system.members)

    def test_zero_patterns(self):
        system = SpernerSystem.from_anchor(3, [0b011, 0b110], 0)
        assert recover_anchor(system) == 0

    def test_full_patterns(self):
        system = SpernerSystem.of(3, [(0b011, 0b011), (0b110, 0b110)])
        assert recover_anchor(system) == 0b111

    def test_rejects_incomplete_graph(self):
        with pytest.raises(NotComplete):
            recover_anchor(EX_SYSTEM)

    @given(helpers.systems())
    def test_complete_graphs_reconstruct_the_system(self, system):
        if not intersection_graph(system).is_complete():
            return
        anchor = recover_anchor(system)
        rebuilt = SpernerSystem.from_anchor(system.n, list(system.supports()), anchor)
        assert rebuilt == system
        assert rebuilt.family() == system.family()


class TestAntichainExtremality:
    """F is extremal with Sh(F) the antichain's up-complement: `helpers.is_extremal_with`."""

    @staticmethod
    def extremal_with_up_complement(fam, antichain):
        down = SpernerSystem.of(fam.n, [(s, 0) for s in antichain]).up_complement()
        return helpers.is_extremal_with(fam.n, fam.bits, down.bits)

    def test_example_family(self):
        assert self.extremal_with_up_complement(EX_FAMILY, [0b011, 0b101, 0b110])

    def test_maximum_class_instance(self):
        fam = SetFamily.of(3, [0b000, 0b001, 0b010, 0b100])
        assert self.extremal_with_up_complement(fam, [0b011, 0b101, 0b110])

    def test_full_family_fails(self):
        assert not self.extremal_with_up_complement(SetFamily.full(3), [0b001])

    def test_rejects_non_antichain(self):
        # the anchored extension step takes a bare antichain and checks it
        with pytest.raises(NotAntichain):
            augment_anchored(3, [0b001, 0b011], 0, 0)

    @given(helpers.families(min_n=1), helpers.antichains())
    def test_generalized_bound(self, fam, pair):
        n, supports = pair
        if n != fam.n:
            return
        # a family shattering no member of an antichain is no larger than
        # the antichain's up-complement
        if not any(fam.is_shattered(s) for s in supports):
            assert len(fam) <= len(SpernerSystem.of(n, [(s, 0) for s in supports]).up_complement())

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_equivalence_with_plain_extremality_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            anti = fam.shattered_sets().complement().minimal_elements()
            assert fam.is_s_extremal() == self.extremal_with_up_complement(fam, anti.masks)

    def test_equivalence_with_plain_extremality_n4(self):
        n = 4
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            anti = fam.shattered_sets().complement().minimal_elements()
            assert fam.is_s_extremal() == self.extremal_with_up_complement(fam, anti.masks)
