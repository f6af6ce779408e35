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


def enumerated_basis(pres: RingPresentation, degree: int) -> list[Monomial]:
    """Oracle: every monomial of the degree, largest first, that no rule divides."""
    return [m for m in monomials_of_degree(pres.ring, degree) if not pres.is_reducible(m)]
