import math
import random
from fractions import Fraction

import pytest

from charcalc.exactring import (
    GradedPoly,
    InvalidInputError,
    Monomial,
    RingPresentation,
    monomials_of_degree,
    parse_poly,
)
from charcalc import flagcoh
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

from conftest import random_poly
from test_obstruction import fraction_row_reduce, row_reduce


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
    rank = 0
    pivots = {}
    for row in rows:
        current = list(row)
        for col in range(len(columns)):
            if not current[col]:
                continue
            if col in pivots:
                factor = current[col]
                current = [a - factor * b for a, b in zip(current, pivots[col])]
            else:
                inv = Fraction(1) / current[col]
                pivots[col] = [a * inv for a in current]
                rank += 1
                break
    return len(columns) - rank


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
    assert sum(dims) == FlagSpec((2, 1, 1)).multinomial() == 12
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
        for total in range(1, 6)
        for dims in weakly_decreasing_compositions(total, total)
    ]
    for dims in flags + [(2, 2, 2)]:
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
    probe = RingPresentation(pres.ring, pres.rules)
    want = [
        m for degree in range(0, pres.top_degree + 1, 2) for m in basis_monomials(probe, degree)
    ]
    assert list(pres.fiber_basis) == want


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
        assert all(pres.is_reducible(m) for m in monomials_of_degree(ring, degree))


@pytest.mark.parametrize("dims", [(4, 4), (1, 1, 1, 1, 1)])
def test_indexed_rule_lookup_matches_linear_scan(dims):
    pres = flag_presentation(dims)
    ring = pres.ring
    rng = random.Random(f"lookup:{dims}")
    for _ in range(400):
        m = Monomial.make({i: rng.randint(0, 6) for i in range(ring.ngens)})
        scan = next((lhs for lhs in pres.rules if lhs.divides(m)), None)
        assert pres._find_rule(m) == scan


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
        before = len(pivots)
        forward(rows, pivots)
        counts["rows"] += len(rows)
        counts["pivots"] += len(pivots) - before

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


def test_phi_pullback_rejects_zero():
    with pytest.raises(InvalidInputError):
        phi_pullback(0)
