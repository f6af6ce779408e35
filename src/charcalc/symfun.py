"""Symmetric polynomial calculus in finitely many variables.

Provides the monomial symmetric sums ``s_I`` indexed by partitions, the
elementary symmetric polynomials, conversion of a symmetric polynomial to the
elementary basis by triangular elimination along the dominance order, and the
coefficient extraction used when pairing characteristic classes against
spherical generators.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactring import (
    CharcalcError,
    GradedPoly,
    GradedRing,
    InvalidInputError,
    Monomial,
    Rational,
    parse_int,
)

__all__ = [
    "ArityError",
    "SymmetryError",
    "Partition",
    "SymExpr",
    "ElemExpr",
    "variable_ring",
    "sigma_ring",
    "monomial_symmetric",
    "elementary",
    "to_elementary",
    "to_monomial_basis",
    "sigma_top_coefficient",
]


class ArityError(CharcalcError):
    """A partition is longer than the number of available variables."""


class SymmetryError(CharcalcError):
    """A polynomial claimed to be symmetric is not."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; ``()`` is the empty partition."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise InvalidInputError("partition parts must be positive")
            if i and self.parts[i - 1] < p:
                raise InvalidInputError("partition parts must be weakly decreasing")

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(parts))

    @staticmethod
    def parse(text: str) -> "Partition":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        body = body.strip()
        if not body:
            return Partition(())
        return Partition(tuple(parse_int(x.strip()) for x in body.split(",")))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(tuple(cols))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def variable_ring(v: int) -> GradedRing:
    """Ring of ``v`` degree-2 variables, the ambient for symmetric polynomials."""
    if v < 1:
        raise InvalidInputError("need at least one variable")
    return GradedRing(tuple(f"t{i + 1}" for i in range(v)), (2,) * v)


def sigma_ring(v: int) -> GradedRing:
    """Abstract ring of elementary symmetric generators, sigma_i of degree 2i."""
    if v < 1:
        raise InvalidInputError("need at least one variable")
    return GradedRing(
        tuple(f"sigma{i + 1}" for i in range(v)),
        tuple(2 * (i + 1) for i in range(v)),
    )


def monomial_symmetric(I: Partition, v: int) -> GradedPoly:
    """The monomial symmetric sum ``s_I``: all distinct monomials of shape ``I``.

    Each distinct monomial appears with coefficient one.
    """
    if len(I) > v:
        raise ArityError(f"partition {I} has more parts than variables ({v})")
    ambient = variable_ring(v)
    # Each distinct part value goes on a set of still-free positions, so the
    # work is proportional to the orbit, not to v!.
    assignments: list[dict[int, int]] = [{}]
    for value, count in Counter(I.parts).items():
        assignments = [
            {**assigned, **dict.fromkeys(chosen, value)}
            for assigned in assignments
            for chosen in itertools.combinations(
                [i for i in range(v) if i not in assigned], count
            )
        ]
    return GradedPoly(ambient, {Monomial.make(a): Fraction(1) for a in assignments})


def elementary(k: int, v: int, ring: GradedRing | None = None) -> GradedPoly:
    """Elementary symmetric polynomial sigma_k in ``v`` variables; zero for k > v."""
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    ambient = ring if ring is not None else variable_ring(v)
    if ambient.ngens != v:
        raise InvalidInputError("ring does not have the declared number of variables")
    if k > v:
        return ambient.zero()
    if k == 0:
        return ambient.one()
    terms = {
        Monomial.make({i: 1 for i in subset}): Fraction(1)
        for subset in itertools.combinations(range(v), k)
    }
    return GradedPoly(ambient, terms)


def _pattern(monomial: Monomial) -> Partition:
    return Partition(tuple(sorted((e for _, e in monomial.exps), reverse=True)))


def _check_symmetric(p: GradedPoly, v: int) -> None:
    seen: dict[Partition, Fraction] = {}
    counts: dict[Partition, int] = {}
    for monomial, coeff in p.terms.items():
        shape = _pattern(monomial)
        if shape in seen:
            if seen[shape] != coeff:
                raise SymmetryError("coefficients differ within a permutation orbit")
            counts[shape] += 1
        else:
            seen[shape] = coeff
            counts[shape] = 1
    for shape, count in counts.items():
        padded = shape.parts + (0,) * (v - len(shape))
        orbit = math.factorial(v) // math.prod(
            math.factorial(m) for m in Counter(padded).values()
        )
        if count != orbit:
            raise SymmetryError(f"orbit of shape {shape} is incomplete")


@dataclass(frozen=True)
class SymExpr:
    """A linear combination of monomial symmetric functions in ``v`` variables."""

    coeffs: Mapping[Partition, Fraction]
    v: int

    def expand(self) -> GradedPoly:
        out = variable_ring(self.v).zero()
        for shape, coeff in self.coeffs.items():
            out = out + monomial_symmetric(shape, self.v).scale(coeff)
        return out

    def coefficient(self, I: Partition) -> Fraction:
        return self.coeffs.get(I, Fraction(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda kv: (kv[0].weight, kv[0].parts))
        from .exactring import format_rational

        return " + ".join(f"{format_rational(c)}*s{shape}" for shape, c in items)


@dataclass(frozen=True)
class ElemExpr:
    """A polynomial in the abstract elementary symmetric generators."""

    poly: GradedPoly
    v: int

    def expand(self) -> GradedPoly:
        """Substitute sigma_k by its expansion, recovering the symmetric polynomial."""
        target = variable_ring(self.v)
        assignments = {
            f"sigma{k}": elementary(k, self.v, target) for k in range(1, self.v + 1)
        }
        return self.poly.substitute(assignments, target)

    def __str__(self) -> str:
        return str(self.poly)


def to_elementary(p: GradedPoly, v: int) -> ElemExpr:
    """Express a symmetric polynomial exactly in the elementary basis.

    Works by triangular elimination: the graded-lex leading monomial of a
    symmetric polynomial has weakly decreasing exponents, and subtracting the
    elementary monomial indexed by the conjugate partition strictly lowers it.
    """
    if p.ring.ngens != v:
        raise InvalidInputError("polynomial does not have the declared number of variables")
    if any(d != 2 for d in p.ring.degrees):
        raise InvalidInputError("symmetric calculus expects degree-2 variables")
    _check_symmetric(p, v)
    sigma = sigma_ring(v)
    out = sigma.zero()
    work = p
    while not work.is_zero():
        lead = work.leading_monomial()
        coeff = work.coefficient(lead)
        shape = Partition(tuple(e for _, e in lead.exps))
        conj = shape.conjugate()
        sigma_mono = Monomial.make(
            {i: sum(1 for part in conj.parts if part == i + 1) for i in range(v)}
        )
        out = out + GradedPoly(sigma, {sigma_mono: coeff})
        expansion = p.ring.one()
        for part in conj.parts:
            expansion = expansion * elementary(part, v, p.ring)
        work = work - expansion.scale(coeff)
    return ElemExpr(out, v)


def to_monomial_basis(p: GradedPoly) -> SymExpr:
    """Decompose a symmetric polynomial as a combination of the ``s_I``."""
    v = p.ring.ngens
    _check_symmetric(p, v)
    coeffs: dict[Partition, Fraction] = {}
    for monomial, coeff in p.terms.items():
        coeffs[_pattern(monomial)] = coeff
    return SymExpr(coeffs, v)


def sigma_top_coefficient(e: ElemExpr, k: int) -> Rational:
    """Coefficient of the linear monomial sigma_k."""
    if k < 1 or k > e.v:
        return Fraction(0)
    return e.poly.coefficient(Monomial.of(k - 1))
