"""Exact circle-action integrals on complex projective space.

A weighted circle action on CP^n is encoded by its integer weights on the
homogeneous coordinates.  In moment coordinates the normalized Hamiltonian is
an affine function on the standard simplex, and every integral this module
computes reduces to a closed form: monomial integrals over the simplex; for
powers of the moment, complete homogeneous polynomials of its vertex values;
and for products of several moments, the Dirichlet moment sum over maps from
the factors to the vertices.  No integrand is expanded.

Normalization: the symplectic volume is one, i.e. the integral of a function
f against the volume form equals n! times its plain integral over the
simplex.  Outputs carry this convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactring import (
    CharcalcError,
    Frozen,
    GradedPoly,
    GradedRing,
    InvalidInputError,
    Monomial,
    Rational,
)

__all__ = [
    "TrivialActionError",
    "WeightedCircleAction",
    "simplex_ring",
    "simplex_integral",
    "normalized_moment",
    "moment_integral",
    "mu_of_circle",
    "su_weight_vector",
    "su_product_integral",
    "nu1_at_fixed_point",
]


class TrivialActionError(CharcalcError):
    """All weights agree, so the induced action on CP^n is trivial."""


class WeightedCircleAction(Frozen):
    """Circle acting on CP^n with integer weights (w_0, ..., w_n)."""

    __slots__ = _FIELDS = ("n", "weights")

    def __init__(self, n: int, weights: tuple[int, ...]) -> None:
        super().__init__(n, weights)
        if n < 1:
            raise InvalidInputError("need n >= 1")
        if len(weights) != n + 1:
            raise InvalidInputError(f"need {n + 1} weights, got {len(weights)}")
        if len(set(weights)) == 1:
            raise TrivialActionError("all weights are equal; the action is trivial")

    def mean_weight(self) -> Fraction:
        return Fraction(sum(self.weights), self.n + 1)


def simplex_ring(n: int) -> GradedRing:
    """Coordinate ring of the moment simplex: x_1, ..., x_n."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    return GradedRing(tuple(f"x{i + 1}" for i in range(n)), (2,) * n)


def simplex_integral(alpha: Sequence[int], n: int) -> Rational:
    """Exact monomial integral over the standard simplex.

    ``integral of x^alpha over {x_i >= 0, sum x_i <= 1}`` equals
    ``prod(alpha_i!) / (n + |alpha|)!``.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    exponents = tuple(alpha)
    if len(exponents) > n:
        raise InvalidInputError("exponent vector longer than the dimension")
    if any(a < 0 for a in exponents):
        raise InvalidInputError("exponents must be nonnegative")
    numerator = 1
    for a in exponents:
        numerator *= math.factorial(a)
    return Fraction(numerator, math.factorial(n + sum(exponents)))


def normalized_moment(action: WeightedCircleAction) -> GradedPoly:
    """Mean-zero moment polynomial on the simplex.

    The unnormalized moment is ``w_0 + sum_j (w_j - w_0) x_j`` (value w_j at
    the j-th vertex); subtracting the mean weight makes its integral vanish.
    """
    w = action.weights
    terms = {Monomial.of(j - 1): w[j] - w[0] for j in range(1, action.n + 1)}
    return GradedPoly(simplex_ring(action.n), {Monomial.one(): w[0] - action.mean_weight(), **terms})


def moment_integral(p: GradedPoly, n: int) -> Rational:
    """Integral against the unit-volume form: n! times the simplex integral."""
    total = Fraction(0)
    for monomial, coeff in p.terms.items():
        exponents = [0] * n
        for index, e in monomial.exps:
            if index >= n:
                raise InvalidInputError("polynomial uses more variables than the dimension")
            exponents[index] = e
        total += coeff * simplex_integral(exponents, n)
    return Fraction(math.factorial(n)) * total


def mu_of_circle(action: WeightedCircleAction, k: int) -> Rational:
    """Scalar coefficient of the k-th power class pulled back to the circle.

    Equals ``(-1)^k C(n+k, n)`` times the moment integral of ``H^k``, which
    for an affine ``H`` with vertex values ``u = w - mean`` is
    ``(-1)^k h_k(u)``, the complete homogeneous polynomial.  It vanishes for
    ``k = 1`` by the mean-zero normalization and is positive for every even
    ``k`` on a nontrivial action (even ``h_k`` are positive definite).
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    # h_k of the integer vertex values (n+1) u_j, by adding one variable at
    # a time: h_i(..., x) = h_i(...) + x h_{i-1}(..., x)
    total, size = sum(action.weights), action.n + 1
    h = [1] + [0] * k
    for w in action.weights:
        x = size * w - total
        for i in range(1, k + 1):
            h[i] += x * h[i - 1]
    return Fraction((-1) ** k * h[k], size ** k)


def su_weight_vector(ell: int, j: int) -> tuple[int, ...]:
    """The j-th standard traceless weight vector in SU(ell).

    ``j = 1`` gives (1, -1, 0, ...); in general j ones followed by -j and
    zero padding.
    """
    if ell < 2 or not 1 <= j <= ell - 1:
        raise InvalidInputError("need 1 <= j <= ell - 1")
    return (1,) * j + (-j,) + (0,) * (ell - j - 1)


def su_product_integral(ell: int, k: int) -> Rational:
    """Moment integral of H_1^2 H_2 ... H_{k-1} on CP^{ell-1}.

    The H_j are the normalized moments of the standard commuting circles.
    The unit-volume integral over the n-simplex of m affine forms with vertex
    values ``a_{i,v}`` is the Dirichlet moment sum ``n!/(n+m)!`` times the
    sum over maps f from forms to vertices of
    ``prod_i a_{i,f(i)} * prod_v |f^-1(v)|!`` (Lasserre-Avrachenkov, Amer.
    Math. Monthly 2001).  Grouping the forms by vertex makes that a subset
    convolution over the vertices, the multi-form version of the ``h_k``
    recurrence in ``mu_of_circle``.
    """
    if not 2 <= k <= ell:
        raise InvalidInputError("need 2 <= k <= ell")
    # integer vertex values ell*w - sum(w) = ell * (w - mean), one row per form
    forms = [su_weight_vector(ell, j) for j in (1, *range(1, k))]
    values = [[ell * w - sum(weights) for w in weights] for weights in forms]
    m, n = len(values), ell - 1
    # sums[S]: the moment sum restricted to the forms in the bit set S, over
    # the vertices seen so far.  A form that vanishes at a vertex cannot go
    # there, and taking the vertices with the fewest such live forms first
    # keeps the table small.
    live = [sum(1 << i for i in range(m) if values[i][v]) for v in range(n + 1)]
    sums = {0: 1}
    for v in sorted(range(n + 1), key=lambda v: live[v].bit_count()):
        # block[T] = |T|! * prod_{i in T} a_{i,v}, over the subsets T of live[v]
        block = {0: 1}
        for i in range(m):
            if live[v] >> i & 1:
                block.update({T | 1 << i: c * values[i][v] for T, c in block.items()})
        block = {T: c * math.factorial(T.bit_count()) for T, c in block.items()}
        grown = dict(sums)
        for S, s in sums.items():
            free = live[v] & ~S
            T = free
            while T:
                grown[S | T] = grown.get(S | T, 0) + s * block[T]
                T = (T - 1) & free
        sums = grown
    total = sums.get((1 << m) - 1, 0)
    return Fraction(math.factorial(n) * total, math.factorial(n + m) * ell ** m)


def nu1_at_fixed_point(action: WeightedCircleAction, vertex: int) -> Rational:
    """Integral of ``H - H(p)`` at the fixed point sitting over a vertex.

    Under the mean-zero normalization this is ``-H(p) = mean - w_vertex``; it
    is nonzero exactly when the vertex weight differs from the mean, in
    particular at every strict maximum or minimum of the moment map.
    """
    if not 0 <= vertex <= action.n:
        raise InvalidInputError(f"vertex must be in 0..{action.n}")
    return action.mean_weight() - Fraction(action.weights[vertex])
