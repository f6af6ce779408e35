import math
import random
from fractions import Fraction

import pytest

from charcalc.exactring import (
    GradedPoly,
    GradedRing,
    Monomial,
    RingPresentation,
    _eliminate,
    _make_primitive,
    _reduce_forward,
    _reduce_kept,
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


# -- the echelon kernel and its oracles ----------------------------------------


def dense_pivots(rows, width):
    """Oracle: forward elimination on dense rows; pivot column -> normalized row."""
    pivots = {}
    for row in rows:
        current = list(row)
        for col in range(width):
            if not current[col]:
                continue
            if col in pivots:
                factor = current[col]
                current = [a - factor * b for a, b in zip(current, pivots[col])]
            else:
                inv = Fraction(1) / current[col]
                pivots[col] = [a * inv for a in current]
                break
    return pivots


def dense_in_span(rows, target):
    """Oracle: is the dense target in the row span of the dense rows?"""
    pivots = dense_pivots(rows, len(target))
    current = list(target)
    for col in range(len(target)):
        if not current[col]:
            continue
        if col not in pivots:
            return False
        factor = current[col]
        current = [a - factor * b for a, b in zip(current, pivots[col])]
    return not any(current)


def _back_substitute(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon form of forward-eliminated ``pivots``, which are reduced
    against each other in place; rows are divided by their leading entries
    only once, at the end."""
    order = sorted(pivots)
    for k in range(len(order) - 1, 0, -1):
        col = order[k]
        row = pivots[col]
        for other_col in order[:k]:
            other = pivots[other_col]
            if col in other:
                _eliminate(other, row, col)
                _make_primitive(other, other_col)
    return {
        col: {j: Fraction(c, row[col]) for j, c in row.items()}
        for col, row in pivots.items()
    }


def forward_pivots(rows):
    """Integer pivot rows of forward elimination; each row is cleared of
    denominators first, and the given rows are left as they are."""
    pivots = {}
    _reduce_forward([clear_denominators(row) for row in rows], pivots)
    return pivots


def row_reduce(rows):
    """Oracle: the reduced row echelon form by forward elimination into
    integer pivot rows, then back-substitution of every pivot row; pivot
    column -> row."""
    return _back_substitute(forward_pivots(rows))


def kept_row_reduce(rows):
    """The reduced row echelon form as the completion computes a kept rule:
    ``_reduce_kept`` on each pivot row alone, divided by its leading entry."""
    pivots = forward_pivots(rows)
    reduced = {}
    for col in pivots:
        row = _reduce_kept(pivots, col)
        reduced[col] = {j: Fraction(c, row[col]) for j, c in row.items()}
    return reduced


def fraction_row_reduce(rows):
    """Oracle: the reduced row echelon form computed over Fractions throughout."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        current = dict(row)
        while current:
            col = min(current)
            value = current[col]
            if col in pivots:
                del current[col]
                for j, b in pivots[col].items():
                    if j == col:
                        continue
                    updated = current.get(j, Fraction(0)) - value * b
                    if updated:
                        current[j] = updated
                    else:
                        current.pop(j, None)
            else:
                inv = Fraction(1) / value
                pivots[col] = {j: c * inv for j, c in current.items()}
                break
    # back-substitute so every pivot row is reduced against the others
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for other_col in sorted(pivots):
            if other_col >= col:
                break
            other = pivots[other_col]
            value = other.get(col)
            if not value:
                continue
            del other[col]
            for j, b in row.items():
                if j == col:
                    continue
                updated = other.get(j, Fraction(0)) - value * b
                if updated:
                    other[j] = updated
                else:
                    other.pop(j, None)
    return pivots


def random_dense_matrix(rng, height, width):
    """Dense rows of mostly-zero Fractions, with some repeated, zero and combined rows."""
    rows = []
    for _ in range(height):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.25:
            rows.append([Fraction(0)] * width)
        elif len(rows) >= 2 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3
                else Fraction(0)
                for _ in range(width)
            ])
    return rows
