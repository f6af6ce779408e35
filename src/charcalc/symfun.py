"""Symmetric polynomial calculus in finitely many variables.

Provides the monomial symmetric sums ``s_I`` indexed by partitions, the
elementary symmetric polynomials, conversion of a symmetric polynomial to the
elementary basis by triangular elimination on partitions (0-1 matrix counts),
and the coefficient extraction used when pairing characteristic classes
against spherical generators.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Mapping

from .exactring import (
    CharcalcError,
    Frozen,
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
    "orbit_size",
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


class Partition(Frozen):
    """Weakly decreasing tuple of positive integers; ``()`` is the empty partition."""

    __slots__ = _FIELDS = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        super().__init__(parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise InvalidInputError("partition parts must be positive")
            if i and parts[i - 1] < p:
                raise InvalidInputError("partition parts must be weakly decreasing")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

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


def _check_arity(I: Partition, v: int) -> None:
    if len(I) > v:
        raise ArityError(f"partition {I} has more parts than variables ({v})")


def orbit_size(I: Partition, v: int) -> int:
    """How many monomials of shape ``I`` there are in ``v`` variables, the term
    count of ``s_I``: v!/((v - len(I))! * the product of the factorials of the
    part multiplicities); zero when ``I`` has more parts than ``v``."""
    return math.perm(v, len(I)) // math.prod(map(math.factorial, Counter(I.parts).values()))


def monomial_symmetric(I: Partition, v: int) -> GradedPoly:
    """The monomial symmetric sum ``s_I``: all distinct monomials of shape ``I``.

    Each distinct monomial appears with coefficient one.
    """
    _check_arity(I, v)
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


def _check_symmetric(p: GradedPoly, v: int) -> dict[Partition, Fraction]:
    """The ``s_I`` coefficients of ``p``, shapes in first-occurrence order;
    raises ``SymmetryError`` unless every permutation orbit is whole and
    constant."""
    seen: dict[tuple[int, ...], Fraction] = {}
    counts: dict[tuple[int, ...], int] = {}
    for monomial, coeff in p.terms.items():
        shape = tuple(sorted((e for _, e in monomial.exps), reverse=True))
        if shape in seen:
            if seen[shape] != coeff:
                raise SymmetryError("coefficients differ within a permutation orbit")
            counts[shape] += 1
        else:
            seen[shape] = coeff
            counts[shape] = 1
    coeffs: dict[Partition, Fraction] = {}
    for shape, coeff in seen.items():
        partition = Partition(shape)
        if counts[shape] != orbit_size(partition, v):
            raise SymmetryError(f"orbit of shape {partition} is incomplete")
        coeffs[partition] = coeff
    return coeffs


def _dominated(shape: tuple[int, ...], v: int) -> list[tuple[int, ...]]:
    """Partitions of ``sum(shape)`` with at most ``v`` parts that ``shape``
    dominates, lexicographically decreasing: ``shape`` itself comes first."""
    bounds = list(itertools.accumulate(shape)) or [0]
    out: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], total: int, largest: int) -> None:
        if total == bounds[-1]:
            out.append(prefix)
        elif len(prefix) < v:
            cap = min(largest, bounds[min(len(prefix), len(bounds) - 1)] - total)
            for part in range(cap, 0, -1):
                build(prefix + (part,), total + part, part)

    build((), 0, bounds[0])
    return out


@functools.lru_cache(maxsize=None)
def _zero_one_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of 0-1 matrices with row sums ``rows`` and column sums ``cols``,
    two partitions (weakly decreasing, no zeros)."""
    if sum(rows) != sum(cols):
        return 0
    if len(rows) > len(cols):
        # the count is symmetric under transposing; peel rows off the shorter side
        return _zero_one_count(cols, rows)
    if not rows or rows[0] == 1:
        # rows of ones: a multinomial coefficient
        return math.factorial(len(rows)) // math.prod(map(math.factorial, cols))
    groups = [(c, len(list(g))) for c, g in itertools.groupby(cols)]
    later = list(itertools.accumulate((m for _, m in reversed(groups)), initial=0))[::-1]
    total = 0

    def take(i: int, need: int, ways: int, left: tuple[int, ...]) -> None:
        # the first row takes k of the m columns in group i, whose sums are c;
        # left stays weakly decreasing, since the next group's c is at most c - 1
        nonlocal total
        if i == len(groups):
            total += ways * _zero_one_count(rows[1:], left[: len(left) - left.count(0)])
            return
        c, m = groups[i]
        for k in range(max(0, need - later[i + 1]), min(m, need) + 1):
            take(i + 1, need - k, ways * math.comb(m, k), left + (c,) * (m - k) + (c - 1,) * k)

    take(0, rows[0], 1, ())
    return total


class SymExpr(Frozen):
    """A linear combination of monomial symmetric functions in ``v`` variables."""

    __slots__ = _FIELDS = ("coeffs", "v")

    def __init__(self, coeffs: Mapping[Partition, Fraction], v: int) -> None:
        super().__init__(coeffs, v)
        for shape in coeffs:
            _check_arity(shape, v)

    def to_elementary(self) -> ElemExpr:
        """The same function in the elementary basis, by leading-term elimination on
        partitions: ``e_{lead'} = sum_mu M(lead', mu) m_mu`` over the ``mu`` that
        ``lead`` dominates, ``M`` counting 0-1 matrices (Macdonald I.6)."""
        work = {shape.parts: Fraction(c) for shape, c in self.coeffs.items() if c}
        out: dict[Monomial, Fraction] = {}
        while work:
            lead = max(work, key=lambda parts: (sum(parts), parts))
            coeff = work.pop(lead)
            conj = Partition(lead).conjugate().parts
            out[Monomial.make(Counter(part - 1 for part in conj))] = coeff
            # the first shape is lead itself, where M is 1; shapes with more
            # than v parts vanish in v variables, so they are never listed
            for shape in _dominated(lead, self.v)[1:]:
                work[shape] = work.get(shape, 0) - coeff * _zero_one_count(conj, shape)
            work = {shape: c for shape, c in work.items() if c}
        return ElemExpr(GradedPoly(sigma_ring(self.v), out), self.v)

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


class ElemExpr(Frozen):
    """A polynomial in the abstract elementary symmetric generators."""

    __slots__ = _FIELDS = ("poly", "v")

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
    """Express a symmetric polynomial exactly in the elementary basis, through
    its monomial symmetric sums (``SymExpr.to_elementary``)."""
    if p.ring.ngens != v:
        raise InvalidInputError("polynomial does not have the declared number of variables")
    if any(d != 2 for d in p.ring.degrees):
        raise InvalidInputError("symmetric calculus expects degree-2 variables")
    return to_monomial_basis(p).to_elementary()


def to_monomial_basis(p: GradedPoly) -> SymExpr:
    """Decompose a symmetric polynomial as a combination of the ``s_I``."""
    v = p.ring.ngens
    return SymExpr(_check_symmetric(p, v), v)


def sigma_top_coefficient(e: ElemExpr, k: int) -> Rational:
    """Coefficient of the linear monomial sigma_k."""
    if k < 1 or k > e.v:
        return Fraction(0)
    return e.poly.coefficient(Monomial.of(k - 1))
