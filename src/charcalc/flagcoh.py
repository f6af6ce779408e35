"""Cohomology-ring presentations and fiber integration.

Builds the rings this calculator actually computes in: flag manifolds and
Grassmannians presented by formal inversion of the total-class identity,
projectivized bundles over small bases, and products of even spheres with
square-zero generators.  Fiber integration reads off the coefficient of the
top fiber class in a Leray-Hirsch presentation.

Relations are turned into rewrite rules degree by degree with exact linear
elimination: within each degree the span of the monomial multiples of the
relations is row-reduced against the graded-lex monomial order, and each
pivot not already covered by a lower-degree rule becomes a rule.  The result
is a terminating, confluent system on the finitely many degrees that matter
(everything above the top degree reduces to zero), without any general-purpose
Groebner machinery.  The elimination clears denominators and runs over the
integers, fraction-free; only the finished rows become ``Fraction`` rows.

Not every multiple is eliminated.  Rows enter in relation order, and the
multiple ``m*r_i`` is left out when ``m`` is a leading monomial of the span
of ``r_1..r_{i-1}`` in its own degree: the signature criterion of matrix-F5
(Faugere, ISSAC 2002; Bardet-Faugere-Salvy, J. Symb. Comput. 2015).  Such a
row lies in the span of the rows that are kept, so every degree's span and
its reduced echelon form, hence the rules, are unchanged; on the flag and
Grassmannian relations no kept row reduces to zero.

Above the top degree the quotient vanishes: forward elimination must reach
full rank there, the reduced echelon form is then the identity, and each
monomial no earlier rule divides becomes a rule ``m -> 0`` without
back-substitution.  Up to the top degree the non-pivot columns are the
irreducible monomials, so a flag presentation reads its basis off them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .exactring import (
    GradedPoly,
    GradedRing,
    InvalidInputError,
    Monomial,
    PresentationError,
    RingPresentation,
    RuleIndex,
    monomials_of_degree,
)

__all__ = [
    "FlagSpec",
    "SphereProductSpec",
    "point_presentation",
    "sphere_product_ring",
    "inverse_series",
    "grassmannian_presentation",
    "flag_presentation",
    "projective_bundle",
    "fiber_integrate",
    "phi_pullback",
    "basis_monomials",
    "dimension_vector",
]

# Families a projectivized bundle accepts as its base.
_BUNDLE_BASE_FAMILIES = ("point", "sphere_product", "grassmannian", "flag")


@dataclass(frozen=True)
class FlagSpec:
    """Block sizes (m_1, ..., m_k), weakly decreasing and positive."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise InvalidInputError("flag spec needs at least one block")
        for i, m in enumerate(self.dims):
            if m < 1:
                raise InvalidInputError("flag block sizes must be positive")
            if i and self.dims[i - 1] < m:
                raise InvalidInputError("flag block sizes must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class SphereProductSpec:
    """Even dimensions (2d_1, ..., 2d_r) of a product of spheres."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise InvalidInputError("sphere product needs at least one factor")
        for d in self.dims:
            if d <= 0 or d % 2 != 0:
                raise InvalidInputError(f"sphere dimension {d} is not a positive even number")


def point_presentation() -> RingPresentation:
    """The one-point base: no generators, one basis element."""
    ring = GradedRing((), ())
    return RingPresentation(
        ring,
        {},
        fiber_basis=(Monomial.one(),),
        family="point",
        top_degree=0,
    )


def sphere_product_ring(
    spec: SphereProductSpec | Sequence[int], names: Sequence[str] | None = None
) -> RingPresentation:
    """Free ring on one generator per sphere modulo squares.

    The fiber basis consists of all square-free monomials; the top class is
    the product of all generators.
    """
    if not isinstance(spec, SphereProductSpec):
        spec = SphereProductSpec(tuple(spec))
    r = len(spec.dims)
    gen_names = tuple(names) if names is not None else tuple(f"y{j}" for j in range(r))
    if len(gen_names) != r:
        raise InvalidInputError("need one name per sphere factor")
    ring = GradedRing(gen_names, spec.dims)
    rules = {Monomial.of(j, 2): ring.zero() for j in range(r)}
    basis = [
        Monomial.make({j: 1 for j in subset})
        for size in range(r + 1)
        for subset in itertools.combinations(range(r), size)
    ]
    # degree ascending, largest first within a degree: the top class ends it
    basis.sort(key=lambda m: (m.degree(ring), tuple(-e for e in m.dense(ring))))
    relations = tuple(ring.gen(j) ** 2 for j in range(r))
    return RingPresentation(
        ring,
        rules,
        fiber_basis=tuple(basis),
        relations=relations,
        family="sphere_product",
        top_degree=sum(spec.dims),
    )


def inverse_series(v: int, d: int) -> list[GradedPoly]:
    """Homogeneous pieces f_1, ..., f_d of ``(1 + y_1 + ... + y_v)^(-1)``.

    f_i has degree 2i; the defining recurrence is
    ``f_i = -(y_1 f_{i-1} + ... + y_v f_{i-v})`` with f_0 = 1.
    """
    if v < 1 or d < 1:
        raise InvalidInputError("need v >= 1 and d >= 1")
    ambient = GradedRing(
        tuple(f"y{i + 1}" for i in range(v)), tuple(2 * (i + 1) for i in range(v))
    )
    return _inverse_pieces(ambient, [ambient.gen(j) for j in range(v)], d)[1:]


def _inverse_pieces(ring: GradedRing, y: Sequence[GradedPoly], d: int) -> list[GradedPoly]:
    """f_0 = 1, f_1, ..., f_d of ``(1 + y[0] + y[1] + ...)^(-1)``, y[j] of degree 2(j+1)."""
    pieces: list[GradedPoly] = [ring.one()]
    for i in range(1, d + 1):
        acc = ring.zero()
        for j in range(1, min(i, len(y)) + 1):
            acc = acc + y[j - 1] * pieces[i - j]
        pieces.append(-acc)
    return pieces


def _rref_rules(
    ring: GradedRing,
    relations: Sequence[GradedPoly],
    top_degree: int,
    basis: list[Monomial] | None = None,
) -> dict[Monomial, GradedPoly]:
    """Complete homogeneous relations into a confluent rule set.

    Processes every even degree up to ``top_degree + max generator degree``;
    above the top degree the quotient must vanish, which the elimination
    verifies as it goes.

    Each degree's rows are fed to elimination in relation order, and the row
    ``m*r_i`` is skipped when ``m`` is a leading monomial of the span of
    ``r_1..r_{i-1}`` in degree ``deg m`` (the matrix-F5 signature criterion).
    If ``g`` in that span leads with ``m``, then ``m*r_i = g*r_i - (g-m)*r_i``:
    ``g*r_i`` lies in the span of the multiples of ``r_1..r_{i-1}`` and
    ``(g-m)*r_i`` in that of rows ``m'*r_i`` with ``m' < m``.  So the span in
    every degree, and with it the reduced echelon form, is unchanged; the skip
    needs no regularity of the relations.

    Above the top degree forward elimination must reach full rank, and then
    the reduced echelon form is the identity: back-substitution is skipped
    and every monomial not divisible by an earlier rule becomes ``m -> 0``.
    Up to the top degree the non-pivot columns, all of them below the lowest
    relation degree, are exactly the monomials no rule divides; when
    ``basis`` is given, they are appended to it as the quotient's basis.
    """
    if not relations:
        return {}
    for r in relations:
        if r.is_zero() or not r.is_homogeneous():
            raise PresentationError("relations must be nonzero and homogeneous")
    max_gen = max(ring.degrees) if ring.degrees else 0
    limit = top_degree + max_gen
    rules: dict[Monomial, GradedPoly] = {}
    heads = RuleIndex()
    rel_degrees = [r.homogeneous_degree() for r in relations]
    rel_terms = [[(m.dense(ring), c) for m, c in r.terms.items()] for r in relations]
    max_rel_degree = max(rel_degrees)
    # degree -> dense exponent vectors of its monomials, kept while the
    # degree can still be a multiplier degree
    vectors: dict[int, list[tuple[int, ...]]] = {}
    # degree -> column of a leading monomial of the span -> index of the
    # relation whose rows first produced it
    introduced: dict[int, dict[int, int]] = {}

    for degree in range(0, limit + 1, 2):
        columns = monomials_of_degree(ring, degree)
        vectors[degree] = dense = [m.dense(ring) for m in columns]
        vectors.pop(degree - max_rel_degree - 2, None)
        introduced.pop(degree - max_rel_degree - 2, None)
        if not columns:
            continue
        index = {e: j for j, e in enumerate(dense)}
        pivots: dict[int, dict[int, int]] = {}
        leads: dict[int, int] = {}
        for i, (rel_degree, terms) in enumerate(zip(rel_degrees, rel_terms)):
            if rel_degree > degree:
                continue
            earlier = introduced.get(degree - rel_degree, {})
            rows = [
                {index[tuple(map(add, multiplier, t))]: c for t, c in terms}
                for j, multiplier in enumerate(vectors[degree - rel_degree])
                if earlier.get(j, i) >= i
            ]
            before = len(pivots)
            _reduce_forward(rows, pivots)
            for col in itertools.islice(pivots, before, None):
                leads[col] = i
        introduced[degree] = leads
        if degree <= top_degree:
            reduced = _back_substitute(pivots)
            if basis is not None:
                basis.extend(m for j, m in enumerate(columns) if j not in pivots)
        elif len(pivots) == len(columns):  # full rank: the reduced form is the identity
            reduced = dict.fromkeys(range(len(columns)), {})
        else:
            raise PresentationError(
                f"quotient does not vanish above its top degree (degree {degree})"
            )
        for pivot_col, row in sorted(reduced.items()):
            lhs = columns[pivot_col]
            if heads.find(lhs) is not None:
                continue
            rhs_terms = {columns[j]: -c for j, c in row.items() if j != pivot_col}
            rules[lhs] = GradedPoly(ring, rhs_terms)
            heads.add(lhs)
    return rules


def _reduce_forward(rows: list[dict[int, Fraction]], pivots: dict[int, dict[int, int]]) -> None:
    """Echelon ``rows`` into ``pivots`` (pivot column -> integer row) in place.

    Each row is cleared of denominators and eliminated over the integers; a
    row that does not reduce to zero adds one pivot, in insertion order.
    """
    for row in rows:
        scale = math.lcm(*(c.denominator for c in row.values()))
        current = {j: c.numerator * (scale // c.denominator) for j, c in row.items()}
        while current:
            col = min(current)
            if col not in pivots:
                pivots[col] = _make_primitive(current, col)
                break
            _eliminate(current, pivots[col], col)


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


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> None:
    """Clear ``row[col]`` in place: row <- (b/g)*row - (a/g)*pivot.

    Here ``a = row[col]``, ``b = pivot[col]`` and ``g = gcd(a, b)``, so the
    result stays integral; pivot rows lead with ``b > 0``, so a pivot row
    being back-substituted keeps a positive leading entry.
    """
    a, b = row.pop(col), pivot[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        for j in row:
            row[j] *= b
    for j, p in pivot.items():
        if j == col:
            continue
        updated = row.get(j, 0) - a * p
        if updated:
            row[j] = updated
        else:
            row.pop(j, None)


def _make_primitive(row: dict[int, int], col: int) -> dict[int, int]:
    """Divide a row by the gcd of its entries, making ``row[col]`` positive."""
    g = math.gcd(*row.values())
    if row[col] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def basis_monomials(pres: RingPresentation, degree: int) -> list[Monomial]:
    """Irreducible monomials of the given degree, largest first.

    Enumerated once per presentation and degree; each call returns a fresh list."""
    cache = pres._basis_cache
    if degree not in cache:
        cache[degree] = tuple(
            m for m in monomials_of_degree(pres.ring, degree) if not pres.is_reducible(m)
        )
    return list(cache[degree])


def dimension_vector(pres: RingPresentation) -> list[int]:
    """Quotient dimensions in degrees 0, 2, ..., top_degree."""
    if pres.top_degree is None:
        raise InvalidInputError("presentation has no recorded top degree")
    return [
        len(basis_monomials(pres, degree))
        for degree in range(0, pres.top_degree + 1, 2)
    ]


def grassmannian_presentation(m: int, k: int) -> RingPresentation:
    """Cohomology of the Grassmannian U(m+k)/U(m)xU(k) on generators y_1..y_k.

    y_i has degree 2i; the relations are the inverse-series components in
    degrees m+1 through m+k.  Both orders of (m, k) are accepted; they present
    dual Grassmannians with equal dimension vectors.
    """
    if m < 1 or k < 1:
        raise InvalidInputError("need m >= 1 and k >= 1")
    return _flag_presentation_cached((m, k))


def flag_presentation(spec: FlagSpec | Sequence[int]) -> RingPresentation:
    """Cohomology of the flag manifold U(l)/U(m_1)x...xU(m_k)."""
    if not isinstance(spec, FlagSpec):
        spec = FlagSpec(tuple(spec))
    return _flag_presentation_cached(spec.dims)


@functools.lru_cache(maxsize=None)
def _flag_presentation_cached(dims: tuple[int, ...]) -> RingPresentation:
    """Every presentation of U(l)/U(m_1)x...xU(m_k); two blocks are a Grassmannian.

    The generators are the Chern classes of the blocks 2..k; the first
    block's classes are eliminated through the inverse of the total class.
    Relations are the components of the total-class identity in degrees
    m_1 + 1 through l.
    """
    if len(dims) == 1:
        return point_presentation()  # a single block is a point
    m1, tail = dims[0], dims[1:]
    if len(tail) == 1:
        names = [f"y{i + 1}" for i in range(tail[0])]
    else:
        names = [f"y{alpha + 2}_{i + 1}" for alpha, size in enumerate(tail) for i in range(size)]
    ring = GradedRing(tuple(names), tuple(2 * (i + 1) for size in tail for i in range(size)))

    # Total class of the later blocks, times its inverse series up to degree m1.
    total, offset = ring.one(), 0
    for size in tail:
        total = total * sum(ring.gens()[offset:offset + size], ring.one())
        offset += size
    classes = [total.graded_component(2 * j) for j in range(1, sum(tail) + 1)]
    product = sum(_inverse_pieces(ring, classes, m1), ring.zero()) * total
    relations = [product.graded_component(2 * d) for d in range(m1 + 1, m1 + sum(tail) + 1)]
    if any(r.is_zero() for r in relations):
        raise PresentationError("expected a nonzero relation component")

    top_degree = 2 * sum(a * b for a, b in itertools.combinations(dims, 2))
    family = "grassmannian" if len(tail) == 1 else "flag"
    basis: list[Monomial] = []
    rules = _rref_rules(ring, relations, top_degree, basis)
    if sum(1 for b in basis if b.degree(ring) == top_degree) != 1:
        raise PresentationError("top degree component is not one-dimensional")
    return RingPresentation(
        ring,
        rules,
        fiber_basis=tuple(basis),
        relations=tuple(relations),
        family=family,
        top_degree=top_degree,
    )


def projective_bundle(
    base: RingPresentation, chern: Sequence[GradedPoly], n: int
) -> RingPresentation:
    """Projectivization of a rank n+1 bundle presented over a small base.

    ``chern`` lists the classes c_1, ..., c_{n+1} of the bundle (zero entries
    allowed).  The hyperplane-type generator ``c`` satisfies the convention
    ``sum_{i=0}^{n+1} c_i c^{n+1-i} = 0`` with c_0 = 1, oriented as the rule
    ``c^{n+1} -> -sum_{i>=1} c_i c^{n+1-i}``.  The fiber basis is 1, c, ...,
    c^n.
    """
    if n < 0:
        raise InvalidInputError("fiber dimension must be nonnegative")
    if base.family not in _BUNDLE_BASE_FAMILIES:
        raise InvalidInputError(
            f"base family {base.family!r} is not supported for bundle constructions"
        )
    if len(chern) != n + 1:
        raise InvalidInputError(f"need exactly {n + 1} Chern classes, got {len(chern)}")
    for i, c_i in enumerate(chern, start=1):
        if c_i.ring != base.ring:
            raise InvalidInputError(f"c_{i} does not live in the base ring")
        if not c_i.is_zero() and (
            not c_i.is_homogeneous() or c_i.homogeneous_degree() != 2 * i
        ):
            raise InvalidInputError(f"c_{i} must be homogeneous of degree {2 * i}")

    base_ring = base.ring
    ring = GradedRing(("c",) + base_ring.generators, (2,) + base_ring.degrees)
    shift = {i: i + 1 for i in range(base_ring.ngens)}

    rules: dict[Monomial, GradedPoly] = {}
    for lhs, rhs in base.rules.items():
        rules[Monomial.make({shift[i]: e for i, e in lhs.exps})] = rhs.remap(ring, shift)
    replacement = ring.zero()
    for i, c_i in enumerate(chern, start=1):
        if c_i.is_zero():
            continue
        replacement = replacement - c_i.remap(ring, shift) * (ring.gen(0) ** (n + 1 - i))
    rules[Monomial.of(0, n + 1)] = replacement

    basis = tuple(Monomial.of(0, j) for j in range(n + 1))
    relations = tuple(r.remap(ring, shift) for r in base.relations)
    relations = relations + ((ring.gen(0) ** (n + 1)) - replacement,)
    base_top = base.top_degree if base.top_degree is not None else 0
    return RingPresentation(
        ring,
        rules,
        fiber_basis=basis,
        relations=relations,
        family="projective_bundle",
        top_degree=base_top + 2 * n,
    )


def fiber_integrate(p: GradedPoly, pres: RingPresentation) -> GradedPoly:
    """Gysin pushforward: base coefficient of the top fiber class of ``p``."""
    return pres.fiber_coefficient(p, pres.top_fiber_class())


def phi_pullback(k: int) -> GradedPoly:
    """Product of the weight forms of the standard commuting circles.

    In the square-zero ring of k+1 two-spheres this is
    ``(y_0 + ... + y_k)(-y_0 - y_1 + y_2 + ... + y_k) *
    prod_{j=2..k} (-j y_j + sum_{i>j} y_i)``.  A product of k+1 linear forms
    in k+1 square-zero generators is the permanent of their coefficient rows
    times ``y_0 ... y_k``.  Row j >= 2 has no entry left of column j, so
    choosing columns from the last row up forces every such row onto its
    diagonal entry -j; rows 0 and 1 then fill columns 0 and 1, and both ways
    give -1.  The permanent is ``2 (-1)^k k!``.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    ring = GradedRing(tuple(f"y{j}" for j in range(k + 1)), (2,) * (k + 1))
    top = Monomial.make({j: 1 for j in range(k + 1)})
    return GradedPoly(ring, {top: 2 * (-1) ** k * math.factorial(k)})
