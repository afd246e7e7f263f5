"""Tests for the exact symbolic layer: polynomials, division, basis test, rank."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from shatterlab import (
    GroundMismatch,
    InfiniteStaircase,
    LexOrder,
    Polynomial,
    SetFamily,
    ShatterlabError,
    SpernerSystem,
    TooLarge,
    VerificationFailed,
    ZeroPolynomial,
    cube_polynomial,
    extremality_groebner_report,
    field_equations,
    format_polynomial,
    is_groebner_basis,
    leading_monomial,
    normal_form,
    point_evaluation_rank,
    s_polynomial,
    standard_monomial_count,
    submasks,
    system_generators,
)

EX_SYSTEM = SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0), (0b110, 0)])
LEX = LexOrder.standard(3)


def poly(n, terms):
    return Polynomial(n, terms)


class TestCubePolynomial:
    def test_two_element_support(self):
        got = cube_polynomial(3, 0b011, 0b001)
        assert got == poly(3, {(1, 1, 0): 1, (1, 0, 0): -1})

    def test_pattern_equal_support(self):
        assert cube_polynomial(3, 0b101, 0b101) == poly(3, {(1, 0, 1): 1})

    def test_single_negative_factor(self):
        assert cube_polynomial(2, 0b01, 0) == poly(2, {(1, 0): 1, (0, 0): -1})

    @pytest.mark.parametrize("support, pattern", [(0b100, 0), (0b110, 0b100), (-1, 0)])
    def test_support_outside_ground_set(self, support, pattern):
        # an element beyond n has no variable; dropping it changed the cube
        with pytest.raises(ShatterlabError, match=rf"support {support} outside ground set \[2\]"):
            cube_polynomial(2, support, pattern)

    @given(helpers.systems(max_n=5))
    def test_term_count_and_unit_coefficients(self, system):
        for s, h in system.members:
            p = cube_polynomial(system.n, s, h)
            assert len(p.terms) == 1 << (s & ~h).bit_count()
            assert all(c in (1, -1) for c in p.terms.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_evaluation_law_exhaustive(self, n):
        for s in range(1 << n):
            for h in submasks(s):
                p = cube_polynomial(n, s, h)
                for f in range(1 << n):
                    nonzero = helpers.evaluate_at_mask(p, f) != 0
                    assert nonzero == (f & s == h)


class TestPolynomialConstructor:
    def test_float_coefficient_refused_before_division(self):
        # used to reach normal_form and fail there with a TypeError from Fraction(a, b)
        with pytest.raises(ShatterlabError, match="coefficient 0.5"):
            normal_form(Polynomial(1, {(1,): 0.5}), [poly(1, {(1,): 1})], LexOrder.standard(1))

    def test_short_monomial_refused_before_leading_monomial(self):
        # used to reach LexOrder.key and fail there with an IndexError
        with pytest.raises(ShatterlabError, match=r"monomial \(1,\) is not a tuple of 3 "):
            leading_monomial(Polynomial(3, {(1,): 1}), LexOrder.standard(3))

    @pytest.mark.parametrize("n, terms", [
        (1, {(1,): True}), (1, {(1,): 1.0}), (1, {(1,): "1"}), (1, {(1,): 0.0}),
        (2, {(1, -1): 1}), (2, {(1, 1.0): 1}), (2, {(1, True): 1}), (2, {"10": 1}),
    ])
    def test_refuses_bad_input(self, n, terms):
        with pytest.raises(ShatterlabError):
            Polynomial(n, terms)

    def test_keeps_exact_nonzero_terms(self):
        p = Polynomial(2, {(1, 0): 3, (0, 2): Fraction(1, 2), (0, 0): 0})
        assert p.terms == {(1, 0): 3, (0, 2): Fraction(1, 2)}


class TestLeadingMonomial:
    def test_simple(self):
        assert leading_monomial(poly(3, {(1, 1, 0): 1, (1, 0, 0): -1}), LEX) == (1, 1, 0)

    def test_constant(self):
        assert leading_monomial(poly(3, {(0, 0, 0): 1}), LEX) == (0, 0, 0)

    def test_square_beats_linear(self):
        assert leading_monomial(poly(1, {(2,): 1, (1,): -1}), LexOrder.standard(1)) == (2,)

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            leading_monomial(Polynomial(2), LexOrder.standard(2))

    def test_rejects_order_arity_mismatch(self):
        with pytest.raises(ShatterlabError):
            leading_monomial(poly(3, {(0, 0, 2): 1}), LexOrder.standard(2))

    def test_cube_polynomial_leads_with_full_support(self):
        n = 3
        for s in range(1 << n):
            for h in submasks(s):
                p = cube_polynomial(n, s, h)
                for order in helpers.lex_orders(n):
                    lm = leading_monomial(p, order)
                    assert lm == tuple(1 if s >> i & 1 else 0 for i in range(n))
                    assert abs(p.terms[lm]) == 1


class TestNormalForm:
    def test_one_division_step(self):
        basis = [poly(1, {(2,): 1, (1,): -1})]
        got = normal_form(poly(1, {(2,): 1}), basis, LexOrder.standard(1))
        assert got == poly(1, {(1,): 1})

    def test_reduces_basis_member_to_zero(self):
        basis = system_generators(EX_SYSTEM)
        for g in basis:
            assert normal_form(g, basis, LEX).is_zero()

    def test_result_supported_on_standard_monomials(self):
        basis = system_generators(EX_SYSTEM)
        got = normal_form(poly(3, {(1, 1, 1): 1}), basis, LEX)
        standard = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert set(got.terms) <= standard

    @given(st.integers(0, (1 << 6) - 1), st.integers(0, 5))
    def test_idempotent_and_fully_reduced(self, bits, seed):
        basis = system_generators(EX_SYSTEM)
        terms = {}
        for i, m in enumerate(((1, 1, 1), (2, 0, 0), (1, 1, 0), (0, 2, 1), (1, 0, 0), (0, 0, 0))):
            if bits >> i & 1:
                terms[m] = Fraction(seed + i + 1)
        p = Polynomial(3, terms)
        r = normal_form(p, basis, LEX)
        assert normal_form(r, basis, LEX) == r
        lead = [leading_monomial(b, LEX) for b in basis]
        for mono in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in lead)

    def test_preserves_values_on_the_family(self):
        # p - normal_form(p) lies in the ideal, so values agree on every member point
        basis = system_generators(EX_SYSTEM)
        fam = EX_SYSTEM.family()
        for terms in ({(1, 1, 1): 2}, {(2, 1, 0): 1, (0, 0, 1): 3}, {(1, 0, 1): 1, (0, 0, 0): -1}):
            p = poly(3, terms)
            r = normal_form(p, basis, LEX)
            for f in fam:
                assert helpers.evaluate_at_mask(p, f) == helpers.evaluate_at_mask(r, f)


    @pytest.mark.parametrize("n", [4, 2])
    def test_rejects_polynomial_arity_mismatch(self, n):
        # the basis matches the order but p does not: with more variables the
        # division never ended, with fewer the order's key indexed past p
        x1_minus_1 = poly(3, {(1, 0, 0): 1, (0, 0, 0): -1})
        p = poly(n, {(1,) * n: 1})
        with pytest.raises(ShatterlabError,
                           match=f"order over 3 variables applied to {n}-variable polynomial"):
            normal_form(p, [x1_minus_1], LEX)

    def test_division_stays_exact(self):
        f = Polynomial(1, {(1,): 2, (0,): 1})
        got = normal_form(Polynomial(1, {(1,): 1}), [f], LexOrder.standard(1))
        assert got.terms == {(0,): Fraction(-1, 2)}
        assert all(type(c) is Fraction for c in got.terms.values())


@st.composite
def division_inputs(draw):
    """(p, basis, orders): random polynomials over n = 0..4 variables, exponents up to 3.

    Coefficients are ints and Fractions, non-monic leads such as 2 and 3/2
    included; the orders are every lex order for n <= 3 and one drawn for n = 4.
    """
    n = draw(st.integers(0, 4))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.one_of(st.sampled_from([1, -1, 2, Fraction(3, 2)]), st.integers(-3, 3),
                       st.fractions(-2, 2, max_denominator=3))
    polys = st.dictionaries(monos, coeffs, max_size=4).map(lambda terms: Polynomial(n, terms))
    p = draw(polys)
    basis = draw(st.lists(polys.filter(lambda b: not b.is_zero()), max_size=3))
    if n <= 3:
        orders = helpers.lex_orders(n)
    else:
        orders = [LexOrder(tuple(draw(st.permutations(range(n)))))]
    return p, basis, orders


class TestDivisionAgainstReference:
    @settings(max_examples=200)
    @given(division_inputs())
    def test_normal_form_matches_sorted_scan(self, inputs):
        # same reduction sequence, so the same remainder, term by term
        p, basis, orders = inputs
        for order in orders:
            assert normal_form(p, basis, order).terms == \
                helpers.reference_normal_form(p, basis, order).terms

    @settings(max_examples=100)
    @given(division_inputs(), st.booleans())
    def test_basis_verdict_matches_reference_buchberger(self, inputs, with_field_equations):
        _, basis, orders = inputs
        if with_field_equations:
            basis = basis + field_equations(len(orders[0].priority))
        for order in orders:
            assert is_groebner_basis(basis, order) == \
                helpers.reference_is_groebner_basis(basis, order)


class TestLexOrder:
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_key_reads_exponents_in_priority_order(self, n):
        rng = random.Random(n)
        for _ in range(20):
            order = LexOrder(tuple(rng.sample(range(n), n)))
            mono = tuple(rng.randrange(4) for _ in range(n))
            assert order.key(mono) == tuple(mono[v] for v in order.priority)
            assert type(order.key(mono)) is tuple

    def test_equality_hash_and_repr_see_only_the_priority(self):
        assert [f.name for f in dataclasses.fields(LexOrder)] == ["priority"]
        for priority in [(), (0,), (1, 0), (2, 0, 1)]:
            order = LexOrder(priority)
            assert order == LexOrder(priority) and hash(order) == hash((priority,))
            assert repr(order) == f"LexOrder(priority={priority!r})"
        assert LexOrder((0, 1)) != LexOrder((1, 0))
        assert len({LexOrder((0, 1)), LexOrder((0, 1)), LexOrder((1, 0))}) == 2


class TestSPolynomial:
    def test_leading_terms_cancel(self):
        f = poly(2, {(1, 1): 1, (1, 0): -1})
        g = poly(2, {(0, 2): 1, (0, 1): -1})
        s = s_polynomial(f, g, LexOrder.standard(2))
        lcm = (1, 2)
        assert lcm not in s.terms

    def test_equal_inputs_cancel_completely(self):
        f = poly(2, {(1, 1): 1, (0, 1): 2})
        assert s_polynomial(f, f, LexOrder.standard(2)).is_zero()

    def test_coprime_leads_reduce_to_zero(self):
        f = poly(2, {(2, 0): 1, (1, 0): -1})
        g = poly(2, {(0, 2): 1, (0, 1): -1})
        s = s_polynomial(f, g, LexOrder.standard(2))
        assert normal_form(s, [f, g], LexOrder.standard(2)).is_zero()

    def test_integer_leading_coefficient_stays_exact(self):
        f = Polynomial(1, {(1,): 2, (0,): 1})
        got = s_polynomial(f, Polynomial(1, {(1,): 1}), LexOrder.standard(1))
        assert got.terms == {(0,): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_zero_input(self):
        with pytest.raises(ZeroPolynomial):
            s_polynomial(Polynomial(2), poly(2, {(1, 0): 1}), LexOrder.standard(2))


class TestGroebnerBasis:
    def test_example_system_is_groebner(self):
        assert is_groebner_basis(system_generators(EX_SYSTEM), LEX)

    def test_unbalanced_system_is_not(self):
        system = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])
        for order in helpers.lex_orders(3):
            assert not is_groebner_basis(system_generators(system), order)

    def test_field_equations_alone(self):
        assert is_groebner_basis(field_equations(3), LEX)

    @settings(max_examples=40)
    @given(helpers.systems(max_n=4, max_members=3))
    def test_counting_oracle(self, system):
        # the basis test must agree with the size comparison, for every system
        want = len(system.family()) == len(system.up_complement())
        got = is_groebner_basis(system_generators(system), LexOrder.standard(system.n))
        assert got == want

    @settings(max_examples=25)
    @given(helpers.systems(max_n=3, max_members=3))
    def test_one_lex_order_decides_all(self, system):
        basis = system_generators(system)
        verdicts = {is_groebner_basis(basis, order) for order in helpers.lex_orders(system.n)}
        assert len(verdicts) == 1


class TestStandardMonomials:
    def test_example_system(self):
        assert standard_monomial_count(system_generators(EX_SYSTEM), LEX) == 4

    def test_field_equations_only(self):
        assert standard_monomial_count(field_equations(3), LEX) == 8

    def test_full_support_member(self):
        system = SpernerSystem.of(3, [(0b111, 0b010)])
        assert standard_monomial_count(system_generators(system), LEX) == 7

    def test_matches_down_set_size(self):
        for supports in helpers.all_small_antichains(3, 2):
            for patterns in helpers.all_pattern_assignments(supports):
                system = SpernerSystem.of(3, list(zip(supports, patterns)))
                count = standard_monomial_count(system_generators(system), LEX)
                assert count == len(system.up_complement())

    def test_infinite_staircase(self):
        with pytest.raises(InfiniteStaircase):
            standard_monomial_count([poly(2, {(1, 1): 1})], LexOrder.standard(2))

    def test_constant_leading_monomial(self):
        assert standard_monomial_count([poly(2, {(0, 0): 1})], LexOrder.standard(2)) == 0

    def test_empty_basis_has_infinite_staircase(self):
        with pytest.raises(InfiniteStaircase):
            standard_monomial_count([], LexOrder.standard(3))

    def test_empty_basis_without_variables(self):
        # the ring of constants: the one monomial 1 is standard
        assert standard_monomial_count([], LexOrder.standard(0)) == 1


class TestStandardMonomialsAgainstBox:
    @staticmethod
    @st.composite
    def bases(draw):
        """Field equations plus random squarefree and x_i^2 polynomials, under a lex order."""
        n = draw(st.integers(1, 5))
        order = LexOrder(tuple(draw(st.permutations(range(n)))))
        exponents = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        with_square = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
            lambda m: 2 in m)
        coeffs = st.integers(-3, 3).filter(bool)
        extra = draw(st.lists(
            st.dictionaries(st.one_of(exponents, with_square).map(tuple), coeffs,
                            min_size=1, max_size=4),
            max_size=5))
        basis = field_equations(n) + [poly(n, terms) for terms in extra]
        return draw(st.permutations(basis)), order

    @given(bases())
    def test_matches_box_enumeration(self, pair):
        basis, order = pair
        assert standard_monomial_count(basis, order) == \
            helpers.brute_standard_monomial_count(basis, order)

    def test_cube_bound_is_refused(self):
        with pytest.raises(TooLarge):
            standard_monomial_count([poly(1, {(3,): 1})], LexOrder.standard(1))
        with pytest.raises(TooLarge):
            standard_monomial_count([poly(2, {(3, 0): 1, (0, 0): -1}), poly(2, {(0, 2): 1})],
                                    LexOrder.standard(2))
        # a 2^25-bit staircase is refused up front, not built
        with pytest.raises(TooLarge):
            standard_monomial_count(field_equations(25), LexOrder.standard(25))


def assert_rank_or_raises(fam, monomial_sets):
    """The rank is the rational one, and the call raises iff the GF(2) rank falls short."""
    matrix = helpers.containment_matrix(monomial_sets, fam)
    if helpers.gf2_rank(matrix) < min(len(fam), len(monomial_sets)):
        with pytest.raises(VerificationFailed, match="falls short"):
            point_evaluation_rank(fam, monomial_sets)
    else:
        assert point_evaluation_rank(fam, monomial_sets) == helpers.fraction_rank(matrix)


class TestRank:
    def test_example_square_matrix(self):
        points = SetFamily.of(3, [0b011, 0b100, 0b110, 0b111])
        monomials = SetFamily.of(3, [0, 1, 2, 4])
        assert point_evaluation_rank(points, monomials) == 4

    def test_down_set_is_unitriangular(self):
        fam = SetFamily.of(3, [0b000, 0b001, 0b010, 0b011, 0b100])
        assert point_evaluation_rank(fam, fam) == len(fam)

    def test_single_empty_row(self):
        fam = SetFamily.of(3, [0b001, 0b110])
        assert point_evaluation_rank(fam, SetFamily.of(3, [0])) == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_pair_exhaustive(self, n):
        every = [SetFamily.of(n, tuple(m for m in range(1 << n) if bits >> m & 1))
                 for bits in range(1 << (1 << n))]
        for rows in every:
            for cols in every:
                assert_rank_or_raises(cols, rows)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_fraction_gauss(self, data):
        n = data.draw(st.integers(3, 5))
        masks = st.frozensets(st.integers(0, (1 << n) - 1), max_size=12)
        rows = SetFamily.of(n, data.draw(masks))
        cols = SetFamily.of(n, data.draw(masks))
        assert_rank_or_raises(cols, rows)

    def test_gf2_deficient_matrix_raises(self):
        # rows {1},{2},{3} against columns {1,2},{1,3},{2,3}: determinant -2,
        # so rank 2 over GF(2) but 3 over Q; 2 would understate the rank
        rows = SetFamily.of(3, [0b001, 0b010, 0b100])
        cols = SetFamily.of(3, [0b011, 0b101, 0b110])
        assert helpers.containment_matrix(rows, cols) == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        with pytest.raises(VerificationFailed, match=r"GF\(2\) rank 2 falls short of 3"):
            point_evaluation_rank(cols, rows)

    def test_refuses_mismatched_ground_sets(self):
        # mask 0b100 lies outside [2]; it must not be read as a set over [2]
        fam = SetFamily.of(3, [0b001, 0b100])
        monomials = SetFamily.of(2, [0b00, 0b01])
        with pytest.raises(GroundMismatch):
            point_evaluation_rank(fam, monomials)
        with pytest.raises(GroundMismatch):
            point_evaluation_rank(monomials, fam)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_extremal_families_have_full_rank_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily.of(n, masks)
            if masks and fam.is_s_extremal():
                assert point_evaluation_rank(fam, fam.shattered_sets()) == len(fam)


class TestReport:
    def test_example_report(self):
        report = extremality_groebner_report(EX_SYSTEM, LEX)
        assert report.counting_equal and report.groebner and report.rank_full
        assert report.equivalence_holds
        assert report.standard_monomials == 4
        # the basis the report tested is the one the CLI prints
        assert report.generators == tuple(system_generators(EX_SYSTEM))
        assert "generators" not in repr(report)

    def test_unbalanced_report(self):
        system = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])
        report = extremality_groebner_report(system, LEX)
        assert not report.counting_equal and not report.groebner
        assert report.equivalence_holds
        assert report.family_size == 4 and report.down_set_size == 5

    def test_empty_system(self):
        report = extremality_groebner_report(SpernerSystem.of(2, []), LexOrder.standard(2))
        assert report.counting_equal and report.groebner
        assert report.family_size == 4 and report.standard_monomials == 4

    def test_degenerate_empty_support_member(self):
        # the cube polynomial of (empty support, empty pattern) is the constant 1,
        # the ideal is the whole ring, and the carved family is empty
        system = SpernerSystem.of(2, [(0, 0)])
        report = extremality_groebner_report(system, LexOrder.standard(2))
        assert report.family_size == 0 and report.down_set_size == 0
        assert report.counting_equal and report.groebner and report.equivalence_holds
        assert report.standard_monomials == 0 and report.evaluation_rank == 0

    def test_report_rank_never_falls_short(self):
        # the docstring's theorem: report matrices have full rank |F| over GF(2),
        # so the rank never raises VerificationFailed on a report pair
        systems = [SpernerSystem.of(n, list(zip(supports, patterns)))
                   for n in range(4)
                   for supports in helpers.all_small_antichains(n, 3)
                   for patterns in helpers.all_pattern_assignments(supports)]
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(6, 8)
            triples = [m for m in range(1 << n) if m.bit_count() == 3]
            supports = rng.sample(triples, rng.randint(2, 6))
            systems.append(SpernerSystem.of(n, [(s, s & rng.getrandbits(n)) for s in supports]))
        for system in systems:
            report = extremality_groebner_report(system, LexOrder.standard(system.n))
            assert report.evaluation_rank == report.family_size

    def test_rejects_order_arity_mismatch(self):
        # with no generators the mismatch must not pass as an infinite staircase
        with pytest.raises(ShatterlabError, match="order over 2 variables applied to 0-variable"):
            extremality_groebner_report(SpernerSystem.of(0, []), LexOrder.standard(2))

    def test_caps(self):
        with pytest.raises(TooLarge):
            extremality_groebner_report(SpernerSystem.of(9, []), LexOrder.standard(9))
        wide = SpernerSystem.from_anchor(8, [1 << i for i in range(7)], 0)
        with pytest.raises(TooLarge):
            extremality_groebner_report(wide, LexOrder.standard(8))


class TestFormatting:
    def test_example_generators(self):
        gens = system_generators(EX_SYSTEM)
        assert format_polynomial(gens[0], LEX) == "x1*x2 - x1"
        assert format_polynomial(gens[1], LEX) == "x1*x3 - x1 - x3 + 1"
        assert format_polynomial(gens[3], LEX) == "x1^2 - x1"

    def test_zero_and_fractions(self):
        assert format_polynomial(Polynomial(2), LexOrder.standard(2)) == "0"
        p = Polynomial(2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 2)})
        assert format_polynomial(p, LexOrder.standard(2)) == "3/2*x1 - 1/2"

    def test_respects_variable_priority(self):
        p = poly(2, {(1, 0): 1, (0, 1): 1})
        assert format_polynomial(p, LexOrder((0, 1))) == "x1 + x2"
        assert format_polynomial(p, LexOrder((1, 0))) == "x2 + x1"
