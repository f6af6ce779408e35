import math
import random
from fractions import Fraction

import pytest

from charcalc.exactring import (
    GradedPoly,
    InvalidInputError,
    Monomial,
    PresentationError,
    RingPresentation,
    monomials_of_degree,
    parse_poly,
)
from charcalc import flagcoh
from charcalc.cli import _parse_space
from charcalc.flagcoh import (
    FlagSpec,
    SphereProductSpec,
    _rref_rules,
    basis_monomials,
    dimension_vector,
    fiber_integrate,
    flag_presentation,
    grassmannian_presentation,
    inverse_series,
    phi_pullback,
    point_presentation,
    projective_bundle,
    sphere_product_ring,
)

from conftest import (
    dense_pivots,
    enumerated_basis,
    fraction_row_reduce,
    is_reducible,
    random_poly,
    row_reduce,
)


def quotient_dims_oracle(pres, degree):
    """Independent rank computation from the stored relations (no rules)."""
    ring = pres.ring
    columns = monomials_of_degree(ring, degree)
    index = {m: j for j, m in enumerate(columns)}
    rows = []
    for relation in pres.relations:
        e = relation.homogeneous_degree()
        if e > degree:
            continue
        for multiplier in monomials_of_degree(ring, degree - e):
            row = [Fraction(0)] * len(columns)
            for monomial, coeff in relation.terms.items():
                row[index[multiplier * monomial]] += coeff
            rows.append(row)
    return len(columns) - len(dense_pivots(rows, len(columns)))


# -- inverse series -------------------------------------------------------------


def test_inverse_series_one_variable_geometric():
    series = inverse_series(1, 6)
    ring = series[0].ring
    y = ring.gen(0)
    for i, f in enumerate(series, start=1):
        assert f == (-y) ** i


def test_inverse_series_two_variables():
    series = inverse_series(2, 2)
    ring = series[0].ring
    assert series[0] == parse_poly(ring, "-y1")
    assert series[1] == parse_poly(ring, "y1^2 - y2")


def test_inverse_series_identity_through_degree_twelve():
    for v in (1, 2, 3, 4):
        series = inverse_series(v, 12)
        ring = series[0].ring
        total = ring.one()
        for i in range(v):
            total = total + ring.gen(i)
        inverse = ring.one()
        for f in series:
            inverse = inverse + f
        product = total * inverse
        assert product.graded_component(0) == ring.one()
        for degree in range(2, 25, 2):
            assert product.graded_component(degree).is_zero(), (v, degree)


def test_inverse_series_pure_power_coefficient():
    for v in (1, 2, 3):
        for i, f in enumerate(inverse_series(v, 6), start=1):
            assert f.coefficient(Monomial.of(0, i)) == (-1) ** i


def recurrence_pieces(ring, y, d):
    """Oracle: f_0 = 1, f_1, ..., f_d of ``(1 + y[0] + y[1] + ...)^(-1)``, y[j] of
    degree 2(j+1), by the recurrence ``f_i = -(y_1 f_{i-1} + ... + y_v f_{i-v})``
    in polynomial products and sums."""
    pieces = [ring.one()]
    for i in range(1, d + 1):
        acc = ring.zero()
        for j in range(1, min(i, len(y)) + 1):
            acc = acc + y[j - 1] * pieces[i - j]
        pieces.append(-acc)
    return pieces


def recurrence_relations(ring, dims):
    """Oracle: the flag relations, the inverse of the later blocks' total class
    taken by the recurrence on the graded components of that class."""
    m1, tail = dims[0], dims[1:]
    total, offset = ring.one(), 0
    for size in tail:
        total = total * sum(ring.gens()[offset:offset + size], ring.one())
        offset += size
    classes = [total.graded_component(2 * j) for j in range(1, sum(tail) + 1)]
    product = sum(recurrence_pieces(ring, classes, m1), ring.zero()) * total
    return tuple(product.graded_component(2 * d) for d in range(m1 + 1, m1 + sum(tail) + 1))


def test_inverse_series_matches_the_recurrence():
    for v, degrees in [(v, range(1, 13)) for v in range(1, 7)] + [(10, [20])]:
        ring = inverse_series(v, 1)[0].ring
        oracle = recurrence_pieces(ring, ring.gens(), max(degrees))[1:]
        for d in degrees:
            series = inverse_series(v, d)
            assert all(f.ring == ring for f in series)
            assert [f.terms for f in series] == [f.terms for f in oracle[:d]], (v, d)


def test_flag_relations_match_the_recurrence():
    spaces = [(m, k) for m in range(1, 5) for k in range(1, 5)] + [
        dims for total in range(2, 7) for dims in weakly_decreasing_compositions(total, total)
        if len(dims) > 1
    ]
    for dims in spaces:
        pres = flagcoh._flag_presentation_cached(dims)
        assert pres.relations == recurrence_relations(pres.ring, dims), dims


def test_inverse_series_needs_no_polynomial_arithmetic(monkeypatch):
    want = [str(f) for f in inverse_series(5, 9)]

    def refuse(*_):
        raise AssertionError("polynomial arithmetic")

    monkeypatch.setattr(GradedPoly, "__add__", refuse)
    monkeypatch.setattr(GradedPoly, "__mul__", refuse)
    assert [str(f) for f in inverse_series(5, 9)] == want
    assert len(inverse_series(10_000, 3)[-1].terms) == 3


# -- Grassmannians and flags ----------------------------------------------------


def test_projective_line_presentation():
    pres = grassmannian_presentation(1, 1)
    assert pres.ring.generators == ("y1",)
    y = pres.ring.gen(0)
    assert pres.normal_form(y ** 2).is_zero()
    assert dimension_vector(pres) == [1, 1]


def test_projective_plane_type_presentation():
    pres = grassmannian_presentation(2, 1)
    y = pres.ring.gen(0)
    assert pres.normal_form(y ** 3).is_zero()
    assert not pres.normal_form(y ** 2).is_zero()
    assert dimension_vector(pres) == [1, 1, 1]


def test_gr22_dimension_vector_and_oracle():
    pres = grassmannian_presentation(2, 2)
    assert dimension_vector(pres) == [1, 1, 2, 1, 1]
    for degree in range(0, 13, 2):
        expected = quotient_dims_oracle(pres, degree)
        got = len(basis_monomials(pres, degree))
        assert got == expected, degree


def test_grassmannian_duality_dimension_vectors():
    for m in range(1, 5):
        for k in range(1, 5):
            left = dimension_vector(grassmannian_presentation(m, k))
            right = dimension_vector(grassmannian_presentation(k, m))
            assert left == right


def test_grassmannian_totals():
    for m in range(1, 4):
        for k in range(1, 4):
            total = sum(dimension_vector(grassmannian_presentation(m, k)))
            assert total == math.comb(m + k, k)


def test_grassmannian_is_the_two_block_flag():
    assert grassmannian_presentation(3, 2) is flag_presentation((3, 2))
    assert grassmannian_presentation(3, 2).family == "grassmannian"
    assert flag_presentation((2, 1, 1)).family == "flag"
    # the dual order is accepted, and presents generators y1..y3
    assert grassmannian_presentation(2, 3).ring.generators == ("y1", "y2", "y3")


def test_flag_small_cases():
    assert dimension_vector(flag_presentation((1, 1))) == [1, 1]
    assert dimension_vector(flag_presentation((2, 1))) == [1, 1, 1]
    assert dimension_vector(flag_presentation((1, 1, 1))) == [1, 2, 2, 1]
    assert sum(dimension_vector(flag_presentation(FlagSpec((2, 2))))) == 6


def test_flag_matches_oracle_and_multinomial():
    pres = flag_presentation((2, 1, 1))
    dims = dimension_vector(pres)
    assert sum(dims) == 12  # the multinomial 4!/(2! 1! 1!)
    for degree in range(0, pres.top_degree + 3, 2):
        assert len(basis_monomials(pres, degree)) == quotient_dims_oracle(pres, degree)


def q_multinomial(dims):
    """Oracle: coefficients of [l]!_q / prod [m_i]!_q, by integer polynomial arithmetic."""

    def multiply(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def q_factorial(n):
        out = [1]
        for i in range(1, n + 1):
            out = multiply(out, [1] * i)
        return out

    quotient = q_factorial(sum(dims))
    for m in dims:
        divisor = q_factorial(m)  # monic, constant term 1
        remainder = list(quotient)
        out = [0] * (len(quotient) - len(divisor) + 1)
        for i in reversed(range(len(out))):
            out[i] = remainder[i + len(divisor) - 1]
            for j, c in enumerate(divisor):
                remainder[i + j] -= out[i] * c
        assert not any(remainder)
        quotient = out
    return quotient


def weakly_decreasing_compositions(total, largest):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in weakly_decreasing_compositions(total - first, first):
            yield (first,) + rest


def test_dimension_vectors_match_q_multinomial():
    assert q_multinomial((2, 2)) == [1, 1, 2, 1, 1]
    for m in range(1, 5):
        for k in range(1, 5):
            pres = grassmannian_presentation(m, k)
            assert dimension_vector(pres) == q_multinomial((m, k)), (m, k)
    flags = [
        dims
        for total in range(1, 7)
        for dims in weakly_decreasing_compositions(total, total)
    ]
    assert len(flags) == 1 + 2 + 3 + 5 + 7 + 11
    for dims in flags:
        assert dimension_vector(flag_presentation(dims)) == q_multinomial(dims), dims


def all_multiples_rref_rules(ring, relations, top_degree, row_reduce=row_reduce):
    """Oracle: completion from every monomial multiple of every relation.

    This is ``_rref_rules`` without its row selection: each degree's matrix
    holds all multiples, most of which reduce to zero.
    """
    rules = {}
    limit = top_degree + max(ring.degrees)
    for degree in range(min(r.homogeneous_degree() for r in relations), limit + 1, 2):
        columns = monomials_of_degree(ring, degree)
        index = {m: j for j, m in enumerate(columns)}
        rows = []
        for relation in relations:
            rel_degree = relation.homogeneous_degree()
            for multiplier in monomials_of_degree(ring, degree - rel_degree):
                rows.append(
                    {index[multiplier * m]: c for m, c in relation.terms.items()}
                )
        pivots = row_reduce(rows)
        for pivot_col, row in sorted(pivots.items()):
            lhs = columns[pivot_col]
            if any(known.divides(lhs) for known in rules):
                continue
            rhs_terms = {columns[j]: -c for j, c in row.items() if j != pivot_col}
            rules[lhs] = GradedPoly(ring, rhs_terms)
        assert degree <= top_degree or len(pivots) == len(columns)
    return rules


def assert_same_rules(shipped, oracle):
    assert list(shipped) == list(oracle)
    assert [str(rhs) for rhs in shipped.values()] == [str(rhs) for rhs in oracle.values()]


# the spaces the presentation-build benchmark builds (pairs are Grassmannians
# gr(m,k)), and flag(2,2,2)
BENCHMARK_SPACES = [(m, k) for m in range(1, 5) for k in range(1, 5)] + [
    (1, 1, 1),
    (2, 1, 1),
    (3, 1, 1),
    (4, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (1, 1, 1, 1),
    (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
    (2, 2, 2),
]


@pytest.mark.parametrize("dims", BENCHMARK_SPACES, ids=lambda dims: ",".join(map(str, dims)))
def test_completion_matches_all_multiples(dims):
    pres = grassmannian_presentation(*dims) if len(dims) == 2 else flag_presentation(dims)
    shipped = _rref_rules(pres.ring, pres.relations, pres.top_degree)
    assert list(shipped) == list(pres.rules)
    oracle = all_multiples_rref_rules(pres.ring, pres.relations, pres.top_degree)
    assert_same_rules(shipped, oracle)


def test_completion_matches_fraction_kernel():
    spaces = [
        grassmannian_presentation(2, 2),
        grassmannian_presentation(3, 3),
        grassmannian_presentation(2, 4),
        flag_presentation((2, 1, 1)),
        flag_presentation((1, 1, 1, 1)),
        flag_presentation((3, 2, 1)),
    ]
    for pres in spaces:
        shipped = _rref_rules(pres.ring, pres.relations, pres.top_degree)
        oracle = all_multiples_rref_rules(
            pres.ring, pres.relations, pres.top_degree, row_reduce=fraction_row_reduce
        )
        assert list(shipped) == list(pres.rules)
        assert_same_rules(shipped, oracle)


@pytest.mark.parametrize("dims", BENCHMARK_SPACES, ids=lambda dims: ",".join(map(str, dims)))
def test_completion_basis_matches_irreducible_monomials(dims):
    """The basis read off the completion's non-pivot columns is the set of
    monomials no rule divides, in the same order."""
    pres = grassmannian_presentation(*dims) if len(dims) == 2 else flag_presentation(dims)
    want = [
        m for degree in range(0, pres.top_degree + 1, 2) for m in enumerated_basis(pres, degree)
    ]
    assert list(pres.fiber_basis) == want
    assert pres.basis == pres.fiber_basis


@pytest.mark.parametrize("dims", BENCHMARK_SPACES, ids=lambda dims: ",".join(map(str, dims)))
def test_rules_above_the_top_are_monomials(dims):
    """Above the top degree the quotient vanishes: every monomial there is
    reducible, and every rule heading in those degrees is ``m -> 0``."""
    pres = grassmannian_presentation(*dims) if len(dims) == 2 else flag_presentation(dims)
    ring = pres.ring
    for lhs, rhs in pres.rules.items():
        if lhs.degree(ring) > pres.top_degree:
            assert rhs.is_zero(), lhs.text(ring)
    for degree in range(pres.top_degree + 2, pres.top_degree + max(ring.degrees) + 1, 2):
        assert all(is_reducible(pres, m) for m in monomials_of_degree(ring, degree))


@pytest.mark.parametrize("dims", [
    (4, 4), (1, 1, 1, 1, 1),
    pytest.param("gr:4,5", id="gr4,5"),  # the longest head list, 102 heads
    pytest.param("sphere:" + ",".join(["2"] * 16), id="sphere2x16"),  # the widest keys
])
def test_indexed_rule_lookup_matches_linear_scan(dims):
    pres = _parse_space(dims) if isinstance(dims, str) else flag_presentation(dims)
    ring = pres.ring
    rng = random.Random(f"lookup:{dims}")
    for _ in range(400):
        m = Monomial.make({i: rng.randint(0, 6) for i in range(ring.ngens)})
        scan = next((lhs for lhs in pres.rules if lhs.divides(m)), None)
        heads = pres._rewriter(m.degree(ring)).heads
        assert heads.find(heads.key(m)) == (None if scan is None else heads.key(scan))


@pytest.mark.parametrize("dims, rank", [((4, 4), 647), ((1, 1, 1, 1, 1), 1245)])
def test_completion_rows_equal_rank(monkeypatch, dims, rank):
    """Every row handed to elimination adds a pivot: none reduces to zero."""
    pres = flag_presentation(dims)
    ring = pres.ring
    limit = pres.top_degree + max(ring.degrees)
    quotient = dimension_vector(pres)
    assert rank == sum(
        len(monomials_of_degree(ring, degree))
        - (quotient[degree // 2] if degree <= pres.top_degree else 0)
        for degree in range(0, limit + 1, 2)
    )
    counts = {"rows": 0, "pivots": 0}
    forward = flagcoh._reduce_forward

    def counting(rows, pivots):
        counts["rows"] += len(rows)
        added = forward(rows, pivots)
        counts["pivots"] += added
        return added

    monkeypatch.setattr(flagcoh, "_reduce_forward", counting)
    assert_same_rules(_rref_rules(ring, pres.relations, pres.top_degree), pres.rules)
    assert counts == {"rows": rank, "pivots": rank}


def test_flag_spec_validation():
    with pytest.raises(InvalidInputError):
        FlagSpec((1, 2))
    with pytest.raises(InvalidInputError):
        FlagSpec((2, 0))


def test_flag_normal_form_consistency():
    # product of normal forms agrees with normal form of products
    pres = flag_presentation((1, 1, 1))
    a, b = pres.ring.gens()
    p = (a + b) ** 3
    assert pres.normal_form(p) == pres.normal_form(
        pres.normal_form((a + b) ** 2) * pres.normal_form(a + b)
    )


# -- sphere products ------------------------------------------------------------


def test_sphere_product_basis():
    pres = sphere_product_ring([2, 2])
    texts = [m.text(pres.ring) for m in pres.fiber_basis]
    assert texts == ["1", "y0", "y1", "y0*y1"]


def test_sphere_product_square_expansion():
    pres = sphere_product_ring([2, 2, 2])
    y0, y1, y2 = pres.ring.gens()
    total = (y0 + y1 + y2) ** 2
    assert pres.normal_form(total) == (y0 * y1 + y0 * y2 + y1 * y2).scale(2)


def test_sphere_product_top_coefficient_of_conjugates():
    pres = sphere_product_ring([2, 2])
    y0, y1 = pres.ring.gens()
    assert fiber_integrate((y0 + y1) * (y0 - y1), pres).is_zero()


def test_sphere_product_rejects_odd_dimensions():
    with pytest.raises(InvalidInputError):
        sphere_product_ring([3])
    with pytest.raises(InvalidInputError):
        SphereProductSpec((2, 5))


# -- projectivized bundles ------------------------------------------------------


def test_projective_space_over_point():
    point = point_presentation()
    for n in (1, 2, 3):
        pres = projective_bundle(point, [point.ring.zero()] * (n + 1), n)
        c = pres.ring.gen("c")
        assert pres.normal_form(c ** (n + 1)).is_zero()
        assert not pres.normal_form(c ** n).is_zero()
        assert fiber_integrate(c ** n, pres) == pres.ring.one()
        assert fiber_integrate(c ** (n - 1), pres).is_zero()


def test_bundle_over_s4_two_step_rewrite():
    base = sphere_product_ring([4], names=("b",))
    beta = base.ring.gen(0)
    pres = projective_bundle(base, [base.ring.zero(), beta], 1)
    c = pres.ring.gen("c")
    lifted_beta = pres.ring.gen("b")
    assert pres.normal_form(c ** 3) == -(lifted_beta * c)
    # substitution check: c^3 = c * c^2 and c^2 reduces to -beta
    assert pres.normal_form(c * (c ** 2) + lifted_beta * c).is_zero()


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(2, n + 2)])
def test_pushforward_of_top_powers(n, k):
    base = sphere_product_ring([2 * k], names=("b",))
    beta = base.ring.gen(0)
    chern = [base.ring.zero()] * (n + 1)
    chern[k - 1] = beta
    pres = projective_bundle(base, chern, n)
    c = pres.ring.gen("c")
    value = fiber_integrate(c ** (n + k), pres)
    assert value == -pres.ring.gen("b")
    # powers that do not line up with the base class integrate to zero
    for j in range(1, n + 2):
        if j != k:
            assert fiber_integrate(c ** (n + j), pres).is_zero()


def test_projection_formula(rng):
    base = sphere_product_ring([4], names=("b",))
    pres = projective_bundle(base, [base.ring.zero(), base.ring.gen(0)], 1)
    lifted_beta = pres.ring.gen("b")
    for _ in range(20):
        p = random_poly(pres.ring, rng, max_exponent=2)
        z = lifted_beta.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        lhs = fiber_integrate(z * p, pres)
        rhs = pres.normal_form(z * fiber_integrate(p, pres))
        assert pres.normal_form(lhs) == rhs


def test_fiber_degree_below_top_integrates_to_zero():
    pres = sphere_product_ring([2, 2, 2])
    y0, y1, y2 = pres.ring.gens()
    for p in (pres.ring.one(), y0, y0 * y1, y1 + y2, (y0 + y1) ** 2):
        top_part = fiber_integrate(p, pres)
        manual = pres.normal_form(p).coefficient(Monomial.make({0: 1, 1: 1, 2: 1}))
        assert top_part == pres.ring.constant(manual)


def test_projective_bundle_validations():
    base = sphere_product_ring([4], names=("b",))
    beta = base.ring.gen(0)
    with pytest.raises(InvalidInputError):
        projective_bundle(base, [beta], 1)  # wrong length
    with pytest.raises(InvalidInputError):
        projective_bundle(base, [beta, base.ring.zero()], 1)  # degree mismatch
    tower = projective_bundle(base, [base.ring.zero(), beta], 1)
    with pytest.raises(InvalidInputError):
        projective_bundle(tower, [tower.ring.zero()] * 2, 1)  # towers rejected


def test_flag_as_bundle_base():
    base = flag_presentation((1, 1))
    y = base.ring.gen(0)
    pres = projective_bundle(base, [y.scale(2), base.ring.zero()], 1)
    c = pres.ring.gen("c")
    assert pres.normal_form(c ** 2) == -(pres.ring.gen("y1") * c).scale(2)


def _bundle_over(base, degree_two_coefficients, n):
    """P(E) of rank n+1 over ``base``: c_1 is the given combination of the
    degree-2 generators, c_2 the square of c_1, and the rest zero."""
    ring = base.ring
    c1 = ring.zero()
    for g, d, a in zip(ring.gens(), ring.degrees, degree_two_coefficients):
        if d == 2:
            c1 = c1 + g.scale(a)
    chern = [c1, c1 * c1] + [ring.zero()] * (n - 1)
    return projective_bundle(base, chern[: n + 1], n)


STORED_BASIS_SPACES = {
    "point": lambda: point_presentation(),
    "sphere:2,4,2": lambda: sphere_product_ring([2, 4, 2]),
    "sphere:2^5": lambda: sphere_product_ring([2] * 5),
    "cp1": lambda: _parse_space("cp1"),
    "cp4": lambda: _parse_space("cp4"),
    "pe:2,2": lambda: _parse_space("pe:2,2"),
    "pe:3,1": lambda: _parse_space("pe:3,1"),
    "pe:1,2": lambda: _parse_space("pe:1,2"),
    "trivial over s6": lambda: projective_bundle(
        sphere_product_ring([6]), [sphere_product_ring([6]).ring.zero()] * 3, 2
    ),
    "bundle over spheres": lambda: _bundle_over(sphere_product_ring([2, 2, 4]), (1, -2, 0), 2),
    "bundle over gr(2,2)": lambda: _bundle_over(grassmannian_presentation(2, 2), (3,), 2),
    "bundle over gr(3,2)": lambda: _bundle_over(grassmannian_presentation(3, 2), (1,), 1),
    "bundle over flag(2,1,1)": lambda: _bundle_over(flag_presentation((2, 1, 1)), (1, -1), 2),
    "bundle over flag(1,1,1)": lambda: _bundle_over(flag_presentation((1, 1, 1)), (2, 0), 3),
    "gr(2,3)": lambda: grassmannian_presentation(2, 3),
    "flag(3,2,1)": lambda: flag_presentation((3, 2, 1)),
}


@pytest.mark.parametrize("space", STORED_BASIS_SPACES)
def test_stored_basis_matches_enumeration(space):
    """The basis each constructor stores is the list of monomials no rule
    divides, by ascending degree and largest first, and every degree's
    lookup is the enumeration of that degree."""
    pres = STORED_BASIS_SPACES[space]()
    top = pres.top_degree
    want = [m for degree in range(0, top + 1) for m in enumerated_basis(pres, degree)]
    assert list(pres.basis) == want
    for degree in range(-2, top + 5):
        assert basis_monomials(pres, degree) == enumerated_basis(pres, degree), degree
    assert sum(dimension_vector(pres)) == len(pres.basis)


def test_basis_lookup_needs_a_stored_basis():
    pres = grassmannian_presentation(2, 2)
    with pytest.raises(PresentationError, match="no basis"):
        basis_monomials(RingPresentation(pres.ring, pres.rules), 2)
    with pytest.raises(PresentationError, match="ordered by degree"):
        RingPresentation(pres.ring, pres.rules, basis=pres.basis[::-1])


# -- the square-zero product ----------------------------------------------------


def test_phi_pullback_small_values():
    ring1 = phi_pullback(1).ring
    assert phi_pullback(1) == parse_poly(ring1, "-2*y0*y1")
    ring2 = phi_pullback(2).ring
    assert phi_pullback(2) == parse_poly(ring2, "4*y0*y1*y2")


def test_phi_pullback_closed_form():
    for k in range(1, 7):
        value = phi_pullback(k)
        ring = value.ring
        top = Monomial.make({j: 1 for j in range(k + 1)})
        expected = GradedPoly(ring, {top: Fraction(2 * (-1) ** k * math.factorial(k))})
        assert value == expected


def expanded_phi_pullback(k):
    """Oracle: the whole product in the free ring, reduced once at the end."""
    pres = sphere_product_ring([2] * (k + 1))
    y = pres.ring.gens()
    product = sum(y[1:], y[0]) * (sum(y[2:], -y[0] - y[1]))
    for j in range(2, k + 1):
        product = product * sum(y[j + 1:], y[j].scale(-j))
    return pres.normal_form(product)


def test_phi_pullback_matches_expand_then_reduce():
    for k in range(1, 8):
        value = phi_pullback(k)
        expected = expanded_phi_pullback(k)
        assert value == expected
        assert str(value) == str(expected)


def permanent(rows):
    """Oracle: Ryser's formula ``(-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij``.

    The column subsets S run in Gray-code order, so each step adds or drops
    one column from the row sums.
    """
    n = len(rows)
    sums = [0] * n
    total = 0
    for step in range(1, 1 << n):
        column = (step & -step).bit_length() - 1
        subset = step ^ (step >> 1)
        sign = 1 if subset >> column & 1 else -1
        for i, row in enumerate(rows):
            sums[i] += sign * row[column]
        total += (-1) ** bin(subset).count("1") * math.prod(sums)
    return (-1) ** n * total


def test_permanent_oracle_small_cases():
    assert permanent([[2]]) == 2
    assert permanent([[1, 2], [3, 4]]) == 10
    assert permanent([[1] * 4] * 4) == 24


def test_phi_pullback_matches_permanent():
    # a product of k+1 linear forms in k+1 square-zero generators is the
    # permanent of their coefficient rows times y_0 ... y_k
    for k in range(1, 15):
        rows = [[1] * (k + 1), [-1, -1] + [1] * (k - 1)]
        rows += [[0] * j + [-j] + [1] * (k - j) for j in range(2, k + 1)]
        top = Monomial.make({j: 1 for j in range(k + 1)})
        value = phi_pullback(k)
        assert value.terms == {top: permanent(rows)}
        assert value.ring.generators == tuple(f"y{j}" for j in range(k + 1))


def test_phi_pullback_rejects_zero():
    with pytest.raises(InvalidInputError):
        phi_pullback(0)
