import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.exactring import (
    BasisError,
    GradedRing,
    InvalidInputError,
    Monomial,
    PresentationError,
    RingMismatchError,
    RingPresentation,
    RuleIndex,
    fiber_coefficient,
    format_rational,
    graded_component,
    monomials_of_degree,
    normal_form,
    parse_poly,
    parse_rational,
    poly_arith,
    poly_pow,
)

from conftest import evaluate, random_poly


@pytest.fixture
def xy():
    return GradedRing(("x1", "x2"), (2, 2))


def test_ring_rejects_odd_degrees():
    with pytest.raises(InvalidInputError):
        GradedRing(("y",), (3,))
    with pytest.raises(InvalidInputError):
        GradedRing(("y",), (0,))
    with pytest.raises(InvalidInputError):
        GradedRing(("y", "y"), (2, 2))


def test_product_of_conjugates(xy):
    a = parse_poly(xy, "x1 + x2")
    b = parse_poly(xy, "x1 - x2")
    assert a * b == parse_poly(xy, "x1^2 - x2^2")


def test_square_expansion_matches_evaluation_oracle(xy, rng):
    p = parse_poly(xy, "1 - 2*x1 - x2")
    square = p * p
    expected = parse_poly(xy, "1 - 4*x1 - 2*x2 + 4*x1^2 + 4*x1*x2 + x2^2")
    assert square == expected
    for _ in range(20):
        values = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(2)}
        assert evaluate(square, values) == evaluate(p, values) ** 2


def test_multiplication_by_zero(xy, rng):
    p = random_poly(xy, rng)
    assert (p * xy.zero()).is_zero()
    assert poly_arith(p, xy.zero(), "mul").is_zero()


def test_ring_mismatch_raises(xy):
    other = GradedRing(("z",), (2,))
    with pytest.raises(RingMismatchError):
        poly_arith(xy.one(), other.one(), "add")


def test_pow_matches_repeated_multiplication(xy, rng):
    p = random_poly(xy, rng, max_terms=3, max_exponent=2)
    explicit = xy.one()
    for e in range(5):
        assert poly_pow(p, e) == explicit
        explicit = explicit * p


def test_graded_component_examples():
    ring = GradedRing(("y1",), (2,))
    p = parse_poly(ring, "1 + y1 + y1^2")
    assert graded_component(p, 2) == parse_poly(ring, "y1")
    assert graded_component(ring.zero(), 4).is_zero()
    cube = parse_poly(ring, "1 + y1") ** 3
    assert graded_component(cube, 4) == parse_poly(ring, "3*y1^2")


@settings(max_examples=50)
@given(st.integers(0, 400))
def test_graded_components_sum_to_poly(seed):
    rng = random.Random(seed)
    ring = GradedRing(("a", "b", "c"), (2, 4, 2))
    p = random_poly(ring, rng)
    total = ring.zero()
    for degree in range(0, p.degree() + 1, 2):
        total = total + graded_component(p, degree)
    assert total == p


def square_zero_presentation(n, fiber_basis=None):
    ring = GradedRing(tuple(f"y{i}" for i in range(n)), (2,) * n)
    rules = {Monomial.of(i, 2): ring.zero() for i in range(n)}
    return ring, RingPresentation(ring, rules, fiber_basis=fiber_basis)


def test_normal_form_square_zero():
    ring, pres = square_zero_presentation(2)
    y0 = ring.gen(0)
    assert normal_form(y0 ** 2, pres).is_zero()
    assert normal_form(y0 ** 2 * ring.gen(1), pres).is_zero()


def test_normal_form_single_rewrite_checked_by_substitution():
    # c^2 -> -alpha with alpha square-zero; then c^3 -> -alpha*c.
    ring = GradedRing(("c", "alpha"), (2, 4))
    alpha = ring.gen(1)
    rules = {
        Monomial.of(0, 2): -alpha,
        Monomial.of(1, 2): ring.zero(),
    }
    pres = RingPresentation(ring, rules)
    c = ring.gen(0)
    got = normal_form(c ** 3, pres)
    assert got == -(alpha * c)
    # substitution check: c^3 = c * c^2 = c * (-alpha) in the quotient
    assert normal_form(c * (c ** 2) - c * (-alpha), pres).is_zero()


def test_normal_form_idempotent_and_multiplicative(rng):
    ring, pres = square_zero_presentation(3)
    for _ in range(25):
        p = random_poly(ring, rng, max_exponent=2)
        q = random_poly(ring, rng, max_exponent=2)
        nf_p = normal_form(p, pres)
        assert normal_form(nf_p, pres) == nf_p
        assert normal_form(p * q, pres) == normal_form(
            normal_form(p, pres) * normal_form(q, pres), pres
        )


def test_presentation_rejects_order_increasing_rule():
    ring = GradedRing(("a", "b"), (2, 2))
    # replacement a*b is larger than b^2 in graded lex, so this must be rejected
    with pytest.raises(PresentationError):
        RingPresentation(ring, {Monomial.of(1, 2): ring.gen(0) * ring.gen(1)})


def test_presentation_rejects_inhomogeneous_rule():
    ring = GradedRing(("a",), (2,))
    with pytest.raises(PresentationError):
        RingPresentation(ring, {Monomial.of(0, 2): ring.one()})


def test_fiber_coefficient_identity_and_zero_cases():
    basis = (Monomial.one(), Monomial.of(0), Monomial.of(1), Monomial.of(0) * Monomial.of(1))
    ring, pres = square_zero_presentation(2, fiber_basis=basis)
    top = basis[-1]
    z = ring.one().scale(Fraction(3, 7))
    assert fiber_coefficient(z * ring.gen(0) * ring.gen(1), pres, top) == z
    assert fiber_coefficient(ring.one(), pres, top).is_zero()
    with pytest.raises(BasisError):
        fiber_coefficient(ring.one(), pres, Monomial.of(0, 2))


def test_fiber_coefficient_projectivized_relation():
    # ring with fiber generator c over a sphere base: c^2 -> -alpha
    ring = GradedRing(("c", "alpha"), (2, 4))
    alpha = ring.gen(1)
    pres = RingPresentation(
        ring,
        {Monomial.of(0, 2): -alpha, Monomial.of(1, 2): ring.zero()},
        fiber_basis=(Monomial.one(), Monomial.of(0)),
    )
    c = ring.gen(0)
    assert fiber_coefficient(c ** 2, pres, Monomial.of(0)).is_zero()
    assert fiber_coefficient(c ** 2, pres, Monomial.one()) == -alpha


def test_monomials_of_degree_sorted_and_complete():
    ring = GradedRing(("a", "b"), (2, 4))
    monos = monomials_of_degree(ring, 8)
    texts = [m.text(ring) for m in monos]
    assert texts == ["a^4", "a^2*b", "b^2"]
    assert monomials_of_degree(ring, 3) == []


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from([2, 4, 6, 8]), min_size=0, max_size=5),
    st.integers(-2, 24),
)
def test_monomials_of_degree_matches_sorted_enumeration(degrees, degree):
    """The walk's order is the explicitly sorted, de-duplicated one."""
    ring = GradedRing(tuple(f"x{i}" for i in range(len(degrees))), tuple(degrees))
    vectors = itertools.product(*(range(max(degree, 0) // d + 1) for d in degrees))
    want = {
        Monomial.make(dict(enumerate(v)))
        for v in vectors
        if degree >= 0 and sum(e * d for e, d in zip(v, degrees)) == degree
    }
    ordered = sorted(want, key=lambda m: m.order_key(ring), reverse=True)
    assert monomials_of_degree(ring, degree) == ordered


def linear_rule_scan(heads, monomial):
    """Oracle for ``RuleIndex.find``: the first head, in order, dividing ``monomial``."""
    for head in heads:
        if head.divides(monomial):
            return head
    return None


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_rule_index_matches_linear_scan(seed):
    rng = random.Random(seed)
    ngens = rng.randint(1, 5)

    def monomial(top):
        return Monomial.make({i: rng.randint(0, top) for i in range(ngens)})

    heads = list(dict.fromkeys(m for m in (monomial(3) for _ in range(12)) if not m.is_one()))
    index = RuleIndex(heads)
    for _ in range(40):
        m = monomial(5)
        assert index.find(m) == linear_rule_scan(heads, m)


def test_canonical_encoding_golden():
    ring = GradedRing(("x1", "x2"), (2, 2))
    p = parse_poly(ring, "1 - 2*x1 - x2") ** 2
    assert str(p) == "1 + -4*x1 + -2*x2 + 4*x1^2 + 4*x1*x2 + 1*x2^2"
    assert str(ring.zero()) == "0"
    assert str(ring.constant(Fraction(-7, 3))) == "-7/3"


def test_format_rational_prints_past_the_int_digit_limit():
    big = 7 ** 7000  # 5916 digits; str(int) stops at 4300
    numerator, denominator = format_rational(Fraction(-big, 3)).split("/")
    assert denominator == "3" and len(numerator) == 5917
    assert int(Decimal(numerator)) == -big


def test_rational_round_trip(rng):
    for _ in range(200):
        q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q


def test_parse_poly_round_trip(xy, rng):
    for _ in range(25):
        p = random_poly(xy, rng)
        assert parse_poly(xy, str(p)) == p


def test_parse_poly_errors(xy):
    with pytest.raises(InvalidInputError):
        parse_poly(xy, "x1 +")
    with pytest.raises(InvalidInputError):
        parse_poly(xy, "x1 x2")
    with pytest.raises(InvalidInputError):
        parse_poly(xy, "unknown")
    with pytest.raises(InvalidInputError):
        parse_poly(xy, "")
    with pytest.raises(InvalidInputError):
        parse_poly(xy, "x1 ^ x2")
