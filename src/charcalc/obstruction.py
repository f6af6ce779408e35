"""Degree-wise linear algebra over presented rings and the homotopy criteria.

Everything here reduces to exact linear algebra in a single degree: bases of
quotient components, ideal membership against a list of homogeneous
generators, the square and cube criteria for detecting evaluation images and
higher products, and the hard Lefschetz predicate.  These are rank questions,
answered by the completion's forward elimination alone (``_reduce_forward``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactring import (
    GradedPoly,
    InvalidInputError,
    Monomial,
    RingPresentation,
)
from .flagcoh import _reduce_forward, basis_monomials

__all__ = [
    "DegreeBasis",
    "ObstructionInput",
    "degree_basis",
    "ideal_membership",
    "pairing_kernel",
    "whitehead_square_criterion",
    "whitehead_cube_criterion",
    "hard_lefschetz_check",
]


@dataclass(frozen=True)
class DegreeBasis:
    """Ordered basis of normal-form monomials for one degree component."""

    degree: int
    monomials: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def degree_basis(pres: RingPresentation, d: int) -> DegreeBasis:
    """Basis of the degree-d component: the irreducible monomials of degree d."""
    return DegreeBasis(d, tuple(basis_monomials(pres, d)))


def _sparse_row(p: GradedPoly, index: Mapping[Monomial, int]) -> dict[int, Fraction]:
    """Coordinates of ``p`` as a sparse row ``{column: coefficient}``."""
    try:
        return {index[monomial]: coeff for monomial, coeff in p.terms.items()}
    except KeyError:
        raise InvalidInputError("polynomial leaves the expected degree component") from None


def _product_rows(
    pres: RingPresentation,
    p: GradedPoly,
    monomials: Sequence[Monomial],
    index: Mapping[Monomial, int],
) -> list[dict[int, Fraction]]:
    """Sparse rows of ``normal_form(p*m)``, one for each monomial ``m``."""
    return [
        _sparse_row(pres.normal_form(p * GradedPoly(pres.ring, {m: Fraction(1)})), index)
        for m in monomials
    ]


def ideal_membership(
    z: GradedPoly, gens: Sequence[GradedPoly], pres: RingPresentation
) -> bool:
    """Decide whether ``z`` lies in the ideal the generators span, degree-wise.

    ``z`` and the generators must be homogeneous.  ``z`` is a member exactly
    when it adds no pivot to the forward-eliminated products of each
    generator with the monomials of the complementary degree.
    """
    if z.ring != pres.ring:
        raise InvalidInputError("z does not live in the presented ring")
    if not z.is_homogeneous():
        raise InvalidInputError("z must be homogeneous")
    reduced = pres.normal_form(z)
    if reduced.is_zero():
        return True
    d = reduced.homogeneous_degree()
    index = {m: j for j, m in enumerate(basis_monomials(pres, d))}
    target = _sparse_row(reduced, index)
    pivots: dict[int, dict[int, int]] = {}
    for g in gens:
        if g.ring != pres.ring:
            raise InvalidInputError("ideal generator in a different ring")
        g_reduced = pres.normal_form(g)
        if g_reduced.is_zero():
            continue
        if not g_reduced.is_homogeneous():
            raise InvalidInputError("ideal generators must be homogeneous")
        e = g_reduced.homogeneous_degree()
        if e > d:
            continue
        multipliers = basis_monomials(pres, d - e)
        _reduce_forward(_product_rows(pres, g_reduced, multipliers, index), pivots)
    rank = len(pivots)
    _reduce_forward([target], pivots)
    return len(pivots) == rank


@dataclass(frozen=True)
class ObstructionInput:
    """Ring of the space, the degree-2 pairing functional, and the test class.

    ``alpha_pairing`` assigns a rational to each degree-2 basis monomial (by
    generator name); unlisted generators pair to zero.  ``c`` must pair
    nontrivially.
    """

    pres: RingPresentation
    alpha_pairing: Mapping[str, Fraction | int]
    c: GradedPoly

    def __post_init__(self) -> None:
        if self.c.ring != self.pres.ring:
            raise InvalidInputError("c does not live in the presented ring")
        if self.c.is_zero() or not self.c.is_homogeneous() or self.c.homogeneous_degree() != 2:
            raise InvalidInputError("c must be homogeneous of degree 2")
        if not any(Fraction(v) for v in self.alpha_pairing.values()):
            raise InvalidInputError("the pairing functional is identically zero")

    def pairing_value(self, p: GradedPoly) -> Fraction:
        reduced = self.pres.normal_form(p)
        total = Fraction(0)
        ring = self.pres.ring
        for monomial, coeff in reduced.terms.items():
            if monomial.degree(ring) != 2:
                raise InvalidInputError("pairing is only defined in degree 2")
            if monomial.total_exponent() != 1:
                raise InvalidInputError("degree-2 monomial is not a single generator")
            name = ring.generators[monomial.exps[0][0]]
            total += coeff * Fraction(self.alpha_pairing.get(name, 0))
        return total


def pairing_kernel(data: ObstructionInput) -> list[GradedPoly]:
    """Basis of the kernel of the pairing inside the degree-2 component."""
    pres = data.pres
    basis = basis_monomials(pres, 2)
    values = [
        data.pairing_value(GradedPoly(pres.ring, {m: Fraction(1)})) for m in basis
    ]
    reference = next((j for j, v in enumerate(values) if v), None)
    kernel: list[GradedPoly] = []
    for j, monomial in enumerate(basis):
        if j == reference:
            continue
        terms = {monomial: Fraction(1)}
        if values[j]:
            assert reference is not None
            terms[basis[reference]] = -values[j] / values[reference]
        kernel.append(GradedPoly(pres.ring, terms))
    return kernel


def _power_in_kernel_ideal(data: ObstructionInput, e: int) -> bool:
    """Does ``c**e`` lie in the ideal generated by the kernel of the pairing?"""
    if data.pairing_value(data.c) == 0:
        raise InvalidInputError("c must pair nontrivially against alpha")
    return ideal_membership(data.c ** e, pairing_kernel(data), data.pres)


def whitehead_square_criterion(data: ObstructionInput) -> bool:
    """True when the square of the pairing-positive class dies in the kernel ideal.

    The answer does not depend on which class with nonzero pairing is chosen:
    rescaling c and shifting it by kernel elements do not change the verdict.
    """
    return _power_in_kernel_ideal(data, 2)


def whitehead_cube_criterion(data: ObstructionInput) -> bool:
    """True when the cube of the class lies in the kernel ideal.

    This membership is all that is checked: every generator has even degree,
    so the ring has no odd-degree component to test.
    """
    return _power_in_kernel_ideal(data, 3)


def hard_lefschetz_check(pres: RingPresentation, a: GradedPoly, n: int) -> bool:
    """Does multiplication by a^k map degree n-k isomorphically onto degree n+k?

    ``n`` is half the top degree of the presentation; all k from 1 to n are
    checked, with odd or empty components passing vacuously only when both
    sides are zero-dimensional.  Degree k holds when the product rows of the
    source basis reach full rank under forward elimination.
    """
    if a.ring != pres.ring:
        raise InvalidInputError("a does not live in the presented ring")
    if a.is_zero() or not a.is_homogeneous() or a.homogeneous_degree() != 2:
        raise InvalidInputError("a must be homogeneous of degree 2")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    power = pres.ring.one()
    for k in range(1, n + 1):
        power = pres.normal_form(power * a)
        source = basis_monomials(pres, n - k)
        target = basis_monomials(pres, n + k)
        if len(source) != len(target):
            return False
        index = {m: j for j, m in enumerate(target)}
        pivots: dict[int, dict[int, int]] = {}
        _reduce_forward(_product_rows(pres, power, source, index), pivots)
        if len(pivots) != len(source):
            return False
    return True

