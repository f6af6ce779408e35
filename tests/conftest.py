import math
import random
from fractions import Fraction

import pytest

from charcalc.exactring import (
    GradedPoly,
    GradedRing,
    Monomial,
    RingPresentation,
    monomials_of_degree,
)


@pytest.fixture
def rng():
    return random.Random(20260810)


def evaluate(p: GradedPoly, values: dict[int, Fraction]) -> Fraction:
    """Independent evaluation oracle: plug rationals into a polynomial."""
    total = Fraction(0)
    for monomial, coeff in p.terms.items():
        value = coeff
        for index, exponent in monomial.exps:
            value *= values[index] ** exponent
        total += value
    return total


def random_poly(ring: GradedRing, rng: random.Random, max_terms: int = 5,
                max_exponent: int = 3) -> GradedPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = {
            i: rng.randint(0, max_exponent)
            for i in range(ring.ngens)
            if rng.random() < 0.6
        }
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[Monomial.make(exps)] = terms.get(Monomial.make(exps), Fraction(0)) + coeff
    return GradedPoly(ring, terms)


def clear_denominators(terms: dict) -> dict:
    """Oracle: ``terms`` times the lcm of their denominators, as integers with
    the same span."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}


def sparse_row(p: GradedPoly, index: dict[Monomial, int]) -> dict[int, int]:
    """Oracle: the coordinates of ``p`` over the columns of ``index``, cleared
    of denominators."""
    return {index[m]: c for m, c in clear_denominators(p.terms).items()}


def fraction_rule_presentation() -> RingPresentation:
    """Rules with ``Fraction`` coefficients in two degree-2 generators."""
    ring = GradedRing(("x", "y"), (2, 2))
    x, y = ring.gens()
    rules = {
        Monomial.of(0, 2): (x * y).scale(Fraction(1, 3)) - (y * y).scale(Fraction(2, 5)),
        Monomial.make({0: 1, 1: 2}): (y ** 3).scale(Fraction(3, 7)),
        Monomial.of(1, 4): ring.zero(),
    }
    return RingPresentation(ring, rules)


def first_head(pres: RingPresentation, monomial: Monomial) -> Monomial | None:
    """Oracle for the rule lookup: the first head, in rule order, dividing ``monomial``."""
    return next((lhs for lhs in pres.rules if lhs.divides(monomial)), None)


def is_reducible(pres: RingPresentation, monomial: Monomial) -> bool:
    return first_head(pres, monomial) is not None


def enumerated_basis(pres: RingPresentation, degree: int) -> list[Monomial]:
    """Oracle: every monomial of the degree, largest first, that no rule divides."""
    return [m for m in monomials_of_degree(pres.ring, degree) if not is_reducible(pres, m)]


def monomial_normal_form(pres: RingPresentation, p: GradedPoly) -> GradedPoly:
    """Oracle: rewriting on ``Monomial`` keys with ``Fraction`` coefficients,
    as the presentation ran it before its packed kernel.  Each monomial's
    normal form is memoized; the first head in rule order rewrites it."""
    cache: dict[Monomial, dict[Monomial, Fraction]] = {}

    def add_scaled(out, terms, factor):
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + factor * c

    for monomial in p.terms:
        stack = [monomial]
        while stack:
            m = stack[-1]
            if m in cache:
                stack.pop()
                continue
            lhs = first_head(pres, m)
            if lhs is None:
                cache[m] = {m: Fraction(1)}
                stack.pop()
                continue
            quotient = m / lhs
            rhs = pres.rules[lhs]
            children = [quotient * m2 for m2 in rhs.terms]
            missing = [c for c in children if c not in cache]
            if missing:
                stack.extend(missing)
                continue
            acc: dict[Monomial, Fraction] = {}
            for child, c2 in zip(children, rhs.terms.values()):
                add_scaled(acc, cache[child], c2)
            cache[m] = acc
            stack.pop()
    out: dict[Monomial, Fraction] = {}
    for monomial, coeff in p.terms.items():
        add_scaled(out, cache[monomial], coeff)
    return GradedPoly(pres.ring, out)
