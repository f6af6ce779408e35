"""Cohomology-ring presentations and fiber integration.

Builds the rings this calculator actually computes in: flag manifolds and
Grassmannians presented by formal inversion of the total-class identity,
projectivized bundles over small bases, and products of even spheres with
square-zero generators.  Fiber integration reads off the coefficient of the
top fiber class in a Leray-Hirsch presentation.

Relations are turned into rewrite rules degree by degree with exact linear
elimination: within each degree the span of the monomial multiples of the
relations is echelonized against the graded-lex monomial order, and each
pivot not already covered by a lower-degree rule becomes a rule.  The result
is a terminating, confluent system on the finitely many degrees that matter
(everything above the top degree reduces to zero), without any general-purpose
Groebner machinery.  Each relation is cleared of denominators once, and the
elimination, ``exactring``'s echelon kernel, runs over the integers,
fraction-free; only the rules become ``Fraction`` polynomials.  Monomials and
relations are packed on the keys of one ``exactring.HeadIndex``, whose
docstring gives the layout and which holds the rule heads found so far.

Not every multiple is eliminated.  Rows enter in relation order, and the
multiple ``m*r_i`` is left out when ``m`` is a leading monomial of the span
of ``r_1..r_{i-1}`` in its own degree: the signature criterion of matrix-F5
(Faugere, ISSAC 2002; Bardet-Faugere-Salvy, J. Symb. Comput. 2015).  Such a
row lies in the span of the rows that are kept, so every degree's span and
its reduced echelon form, hence the rules, are unchanged; on the flag and
Grassmannian relations no kept row reduces to zero.

Only the rows that become rules are reduced.  Up to the top degree a pivot
whose monomial an earlier rule head divides is dropped as it stands; a kept
pivot row alone is cleared of the other pivot columns, smallest first, by
the forward-eliminated rows, which gives its reduced echelon row.  Above the
top degree the quotient vanishes: forward elimination must reach full rank
there, and each monomial no earlier rule divides becomes a rule ``m -> 0``.

Up to the top degree the non-pivot columns are the irreducible monomials, so
a flag presentation reads its whole basis off the completion.  Every
presentation built here stores that basis, and ``basis_monomials`` and
``dimension_vector`` look it up instead of testing monomials against rules.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactring import (
    Frozen,
    GradedPoly,
    GradedRing,
    HeadIndex,
    InvalidInputError,
    Monomial,
    PresentationError,
    RingPresentation,
    _reduce_forward,
    _reduce_kept,
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


class FlagSpec(Frozen):
    """Block sizes (m_1, ..., m_k), weakly decreasing and positive."""

    __slots__ = _FIELDS = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        super().__init__(dims)
        if not dims:
            raise InvalidInputError("flag spec needs at least one block")
        for i, m in enumerate(dims):
            if m < 1:
                raise InvalidInputError("flag block sizes must be positive")
            if i and dims[i - 1] < m:
                raise InvalidInputError("flag block sizes must be weakly decreasing")


class SphereProductSpec(Frozen):
    """Even dimensions (2d_1, ..., 2d_r) of a product of spheres."""

    __slots__ = _FIELDS = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        super().__init__(dims)
        if not dims:
            raise InvalidInputError("sphere product needs at least one factor")
        for d in dims:
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
        basis=(Monomial.one(),),
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
        fiber_basis=basis,
        relations=relations,
        family="sphere_product",
        top_degree=sum(spec.dims),
        basis=basis,
    )


def inverse_series(v: int, d: int) -> list[GradedPoly]:
    """Homogeneous pieces f_1, ..., f_d of ``(1 + y_1 + ... + y_v)^(-1)``.

    f_i has degree 2i; the coefficient of y^a in it is the signed multinomial
    ``(-1)^t t!/(a_1! ... a_v!)`` with ``t = a_1 + ... + a_v``.
    """
    if v < 1 or d < 1:
        raise InvalidInputError("need v >= 1 and d >= 1")
    ambient = GradedRing(
        tuple(f"y{i + 1}" for i in range(v)), tuple(2 * (i + 1) for i in range(v))
    )
    return [_inverse_piece(ambient, (v,), 2 * i) for i in range(1, d + 1)]


def _inverse_piece(ring: GradedRing, blocks: Sequence[int], degree: int) -> GradedPoly:
    """Part of degree ``degree`` of the product over the blocks of ``(1 + y_1 + ...
    + y_s)^(-1)``, the generators of ``ring`` running block by block, y_i in degree
    2i.  Each factor is a geometric series, so y^a has the signed multinomial
    ``(-1)^t t!/(a_1! ... a_s!)``, ``t = a_1 + ... + a_s``, here a product of
    binomials; the blocks multiply theirs."""
    block = [b for b, size in enumerate(blocks) for _ in range(size)]
    terms = {}
    for m in monomials_of_degree(ring, degree):
        coeff, t, current = 1, 0, -1
        for i, e in m.exps:
            if block[i] != current:
                current, t = block[i], 0
            t += e
            coeff *= (-1) ** e * math.comb(t, e)
        terms[m] = Fraction(coeff)
    return GradedPoly._wrap(ring, terms)


def _rref_rules(
    ring: GradedRing,
    relations: Sequence[GradedPoly],
    top_degree: int,
    basis: list[Monomial] | None = None,
) -> dict[Monomial, GradedPoly]:
    """Complete homogeneous relations into a confluent rule set.

    Processes every even degree up to ``top_degree + max generator degree``;
    above the top degree the quotient must vanish, which the elimination
    verifies as it goes.  Each relation is cleared of denominators once, so
    every row is built as an integer row.

    Each degree's rows are fed to elimination in relation order, and the row
    ``m*r_i`` is skipped when ``m`` is a leading monomial of the span of
    ``r_1..r_{i-1}`` in degree ``deg m`` (the matrix-F5 signature criterion).
    If ``g`` in that span leads with ``m``, then ``m*r_i = g*r_i - (g-m)*r_i``:
    ``g*r_i`` lies in the span of the multiples of ``r_1..r_{i-1}`` and
    ``(g-m)*r_i`` in that of rows ``m'*r_i`` with ``m' < m``.  So the span in
    every degree, and with it the reduced echelon form, is unchanged; the skip
    needs no regularity of the relations.

    Up to the top degree a pivot becomes a rule only when no earlier rule
    head divides its monomial, and only that row is brought to reduced form
    (``_reduce_kept``); the other pivot rows stay as forward elimination left
    them.  The non-pivot columns, all of them below the lowest relation
    degree, are exactly the monomials no rule divides; when ``basis`` is
    given, they are appended to it as the quotient's basis.  Above the top
    degree forward elimination must reach full rank, and then the reduced
    echelon form is the identity: every monomial not divisible by an earlier
    rule becomes ``m -> 0``.
    """
    if not relations:
        return {}
    for r in relations:
        if r.is_zero() or not r.is_homogeneous():
            raise PresentationError("relations must be nonzero and homogeneous")
    max_gen = max(ring.degrees) if ring.degrees else 0
    limit = top_degree + max_gen
    rules: dict[Monomial, GradedPoly] = {}
    heads = HeadIndex(ring, limit)
    rel_degrees = [r.homogeneous_degree() for r in relations]
    rel_terms = [list(heads.pack(r)[0].items()) for r in relations]
    max_rel_degree = max(rel_degrees)
    # degree -> packed keys of its monomials, kept while the degree can still
    # be a multiplier degree
    vectors: dict[int, list[int]] = {}
    # degree -> column of a leading monomial of the span -> index of the
    # relation whose rows first produced it
    introduced: dict[int, dict[int, int]] = {}

    for degree in range(0, limit + 1, 2):
        columns = monomials_of_degree(ring, degree)
        vectors[degree] = keys = [heads.key(m) for m in columns]
        vectors.pop(degree - max_rel_degree - 2, None)
        introduced.pop(degree - max_rel_degree - 2, None)
        if not columns:
            continue
        index = {key: j for j, key in enumerate(keys)}
        pivots: dict[int, dict[int, int]] = {}
        leads: dict[int, int] = {}
        for i, (rel_degree, terms) in enumerate(zip(rel_degrees, rel_terms)):
            if rel_degree > degree:
                continue
            earlier = introduced.get(degree - rel_degree, {})
            rows = [
                {index[multiplier + t]: c for t, c in terms}
                for j, multiplier in enumerate(vectors[degree - rel_degree])
                if earlier.get(j, i) >= i
            ]
            before = len(pivots)
            _reduce_forward(rows, pivots)
            for col in itertools.islice(pivots, before, None):
                leads[col] = i
        introduced[degree] = leads
        if degree > top_degree and len(pivots) < len(columns):
            raise PresentationError(
                f"quotient does not vanish above its top degree (degree {degree})"
            )
        if degree <= top_degree and basis is not None:
            basis.extend(m for j, m in enumerate(columns) if j not in pivots)
        for col in sorted(pivots):
            lhs = columns[col]
            if heads.find(keys[col]) is not None:
                continue
            rhs: dict[Monomial, Fraction] = {}
            if degree <= top_degree:  # above it the reduced form is the identity
                row = _reduce_kept(pivots, col)
                lead = row.pop(col)
                rhs = {columns[j]: Fraction(-c, lead) for j, c in sorted(row.items())}
            rules[lhs] = GradedPoly(ring, rhs)
            heads.add(keys[col])
    return rules


def basis_monomials(pres: RingPresentation, degree: int) -> list[Monomial]:
    """Irreducible monomials of the given degree, largest first: a lookup in
    the presentation's basis.  Each call returns a fresh list."""
    if pres.basis is None:
        raise PresentationError("presentation has no basis")
    return list(pres.basis_by_degree.get(degree, ()))


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

    # Total class of the later blocks, times its inverse up to degree 2 m1.
    total, offset = ring.one(), 0
    for size in tail:
        total = total * sum(ring.gens()[offset:offset + size], ring.one())
        offset += size
    product = sum((_inverse_piece(ring, tail, 2 * i) for i in range(m1 + 1)), ring.zero()) * total
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
        fiber_basis=basis,
        relations=tuple(relations),
        family=family,
        top_degree=top_degree,
        basis=basis,
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

    fiber_basis = tuple(Monomial.of(0, j) for j in range(n + 1))
    # the heads are the base heads and c^(n+1), in disjoint generators, so a
    # monomial is irreducible exactly when its base part is and c has
    # exponent at most n
    basis = [
        Monomial.make({0: j, **{shift[i]: e for i, e in b.exps}})
        for b in base.basis
        for j in range(n + 1)
    ]
    basis.sort(key=lambda m: (m.degree(ring), tuple(-e for e in m.dense(ring))))
    relations = tuple(r.remap(ring, shift) for r in base.relations)
    relations = relations + ((ring.gen(0) ** (n + 1)) - replacement,)
    base_top = base.top_degree if base.top_degree is not None else 0
    return RingPresentation(
        ring,
        rules,
        fiber_basis=fiber_basis,
        relations=relations,
        family="projective_bundle",
        top_degree=base_top + 2 * n,
        basis=basis,
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
