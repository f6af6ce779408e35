"""Coupling classes and the characteristic classes obtained by fiber integration.

Given a presented total space with a Leray-Hirsch fiber basis, a degree-2
class ``u`` restricting to the fiber class, and the half fiber dimension
``n``, the coupling class is the unique correction of ``u`` by a base class
whose (n+1)-st power integrates to zero along the fiber.  Powers of the
coupling class then push forward to the mu classes; a section pullback gives
the pointed variant nu, and mixing in vertical classes gives the general
mixed classes (the kappa classes in the surface-bundle shape).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exactring import (
    CharcalcError,
    Frozen,
    GradedPoly,
    InvalidInputError,
    RingPresentation,
)
from .flagcoh import fiber_integrate

__all__ = [
    "DegeneracyError",
    "CouplingInput",
    "MixedIndex",
    "coupling_class",
    "mu_class",
    "nu_class",
    "mixed_class",
]


class DegeneracyError(CharcalcError):
    """The fiber class is degenerate: its n-th power integrates to zero."""


class CouplingInput(Frozen):
    """Total-space data for the coupling construction.

    ``section_pullback`` optionally assigns base classes to fiber generators,
    modelling the pullback along a section; base generators are fixed.
    ``fiber_volume``, the scalar integral of u^n over the fiber, is computed
    once, here: nondegeneracy is part of the type, so it must be invertible.
    """

    _FIELDS = ("pres", "u", "n", "section_pullback")
    __slots__ = _FIELDS + ("fiber_volume",)

    def __init__(
        self,
        pres: RingPresentation,
        u: GradedPoly,
        n: int,
        section_pullback: Mapping[str, GradedPoly] | None = None,
    ) -> None:
        super().__init__(pres, u, n, section_pullback)
        if pres.fiber_basis is None:
            raise InvalidInputError("coupling needs a presentation with a fiber basis")
        if u.ring != pres.ring:
            raise InvalidInputError("u does not live in the presented ring")
        if u.is_zero() or not u.is_homogeneous() or u.homogeneous_degree() != 2:
            raise InvalidInputError("u must be homogeneous of degree 2")
        if n < 0:
            raise InvalidInputError("fiber dimension must be nonnegative")
        volume = fiber_integrate(u ** n, pres)
        constant = volume.constant_term()
        if volume != volume.ring.constant(constant):
            raise DegeneracyError("u^n does not integrate to a scalar")
        if constant == 0:
            raise DegeneracyError("u^n integrates to zero; the fiber class is degenerate")
        object.__setattr__(self, "fiber_volume", constant)


def coupling_class(data: CouplingInput) -> GradedPoly:
    """The normalized extension: u minus its fiber-volume-weighted correction.

    Returns ``u - pullback(integral(u^{n+1})) / ((n+1) V)`` where ``V`` is the
    fiber volume ``integral(u^n)``; by construction the (n+1)-st power of the
    result has vanishing fiber integral and the fiber restriction is that of
    ``u``.
    """
    excess = fiber_integrate(data.u ** (data.n + 1), data.pres)
    correction = excess.scale(Fraction(1, data.n + 1) / data.fiber_volume)
    return data.u - correction


def mu_class(data: CouplingInput, k: int) -> GradedPoly:
    """Fiber integral of the (n+k)-th power of the coupling class."""
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    a_tilde = coupling_class(data)
    return fiber_integrate(a_tilde ** (data.n + k), data.pres)


def section_pullback(data: CouplingInput, p: GradedPoly) -> GradedPoly:
    """Apply the section pullback: fiber generators are substituted away."""
    if data.section_pullback is None:
        raise InvalidInputError("no section pullback was supplied")
    pres = data.pres
    assignments: dict[str, GradedPoly] = {}
    for index in sorted(pres.fiber_generators):
        name = pres.ring.generators[index]
        if name not in data.section_pullback:
            raise InvalidInputError(f"section pullback does not cover fiber generator {name}")
        image = data.section_pullback[name]
        if image.ring != pres.ring:
            raise InvalidInputError(f"section image of {name} is not in the presented ring")
        if any(
            set(m.support()) & set(pres.fiber_generators) for m in image.terms
        ):
            raise InvalidInputError(f"section image of {name} must be a base class")
        assignments[name] = image
    return p.substitute(assignments)


def nu_class(data: CouplingInput, k: int) -> GradedPoly:
    """Pointed variant: normalize ``u`` to vanish along the section, then integrate.

    Unlike the mu classes, ``k = 1`` is meaningful and generally nonzero.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    a_pointed = data.u - section_pullback(data, data.u)
    return fiber_integrate(a_pointed ** (data.n + k), data.pres)


class MixedIndex(Frozen):
    """Exponent data for a mixed class: coupling power k and vertical exponents."""

    __slots__ = _FIELDS = ("k", "exponents", "vertical_classes")

    def __init__(
        self, k: int, exponents: tuple[int, ...], vertical_classes: tuple[GradedPoly, ...]
    ) -> None:
        super().__init__(k, exponents, vertical_classes)
        if k < 0:
            raise InvalidInputError("coupling exponent must be nonnegative")
        if len(exponents) != len(vertical_classes):
            raise InvalidInputError("need one exponent per vertical class")
        if any(e < 0 for e in exponents):
            raise InvalidInputError("exponents must be nonnegative")


def mixed_class(data: CouplingInput, idx: MixedIndex) -> GradedPoly:
    """Fiber integral of ``coupling^k`` times powers of the vertical classes."""
    for position, cls in enumerate(idx.vertical_classes, start=1):
        if cls.ring != data.pres.ring:
            raise InvalidInputError(f"vertical class {position} is not in the presented ring")
        if not cls.is_zero() and (
            not cls.is_homogeneous() or cls.homogeneous_degree() != 2 * position
        ):
            raise InvalidInputError(
                f"vertical class {position} must be homogeneous of degree {2 * position}"
            )
    integrand = data.pres.ring.one()
    if idx.k:
        integrand = coupling_class(data) ** idx.k
    for cls, exponent in zip(idx.vertical_classes, idx.exponents):
        if exponent:
            integrand = integrand * (cls ** exponent)
    return fiber_integrate(integrand, data.pres)
