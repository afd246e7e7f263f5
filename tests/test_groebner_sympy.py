"""sympy as an independent oracle for the basis test and the division.

G is a Gröbner basis exactly when its leading monomials generate the leading
ideal of <G>, that is, when every leading monomial of the reduced basis that
sympy computes is divisible by a leading monomial of G.  Over a Gröbner basis
the remainder of division is unique, so `normal_form` must match sympy's
`reduced` whatever division strategy either side uses.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from shatterlab import (
    LexOrder,
    Polynomial,
    SpernerSystem,
    is_groebner_basis,
    leading_monomial,
    normal_form,
    system_generators,
)

sympy = pytest.importorskip("sympy")

EX_SYSTEM = SpernerSystem.of(3, [(0b011, 0b001), (0b101, 0), (0b110, 0)])
UNBALANCED = SpernerSystem.of(3, [(0b011, 0b001), (0b110, 0b010)])


def _gens(order: LexOrder):
    """sympy symbols in priority order, so sympy's lex is this order."""
    return [sympy.Symbol(f"x{v + 1}") for v in order.priority]


def _to_sympy(p: Polynomial):
    xs = sympy.symbols(f"x1:{p.n + 1}")
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, m)))
                       for m, c in p.terms.items()))


def _from_sympy(expr, order: LexOrder) -> Polynomial:
    terms = {}
    for exps, c in sympy.Poly(expr, *_gens(order)).terms():
        mono = [0] * len(order.priority)
        for v, e in zip(order.priority, exps):
            mono[v] = e
        terms[tuple(mono)] = Fraction(int(c.p), int(c.q))
    return Polynomial(len(order.priority), terms)


def sympy_verdict(basis: list[Polynomial], order: LexOrder) -> bool:
    gens = _gens(order)
    reduced = sympy.groebner([_to_sympy(g) for g in basis], *gens, order="lex")
    ours = [order.key(leading_monomial(g, order)) for g in basis]
    return all(any(all(a <= b for a, b in zip(lm, theirs)) for lm in ours)
               for theirs in (sympy.Poly(g, *gens).monoms()[0] for g in reduced.exprs))


def orders_for(n: int):
    return helpers.lex_orders(n) if n <= 3 else [LexOrder.standard(n)]


def test_basis_verdict_matches_sympy_on_fixed_systems():
    systems = [EX_SYSTEM, UNBALANCED]
    for n in (1, 2):
        for supports in helpers.all_small_antichains(n, 2):
            for patterns in helpers.all_pattern_assignments(supports):
                systems.append(SpernerSystem.of(n, list(zip(supports, patterns))))
    verdicts = set()
    for system in systems:
        basis = system_generators(system)
        for order in orders_for(system.n):
            got = is_groebner_basis(basis, order)
            assert got == sympy_verdict(basis, order)
            verdicts.add(got)
    assert verdicts == {True, False}


@settings(max_examples=60)
@given(helpers.systems(max_n=4, max_members=3))
def test_basis_verdict_matches_sympy(system):
    basis = system_generators(system)
    for order in orders_for(system.n):
        assert is_groebner_basis(basis, order) == sympy_verdict(basis, order)


@settings(max_examples=60)
@given(helpers.systems(max_n=4, max_members=3), st.data())
def test_normal_form_matches_sympy_remainder(system, data):
    n = system.n
    basis = system_generators(system)
    order = data.draw(st.sampled_from(list(orders_for(n))))
    assume(is_groebner_basis(basis, order))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    terms = data.draw(st.dictionaries(monos, st.integers(-5, 5), max_size=6))
    p = Polynomial(n, terms)
    _, remainder = sympy.reduced(_to_sympy(p), [_to_sympy(g) for g in basis],
                                 *_gens(order), order="lex")
    assert normal_form(p, basis, order) == _from_sympy(remainder, order)
