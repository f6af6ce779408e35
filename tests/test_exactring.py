import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charcalc import exactring
from charcalc.cli import _parse_space, _trivial_bundle
from charcalc.exactring import (
    BasisError,
    GradedPoly,
    GradedRing,
    HeadIndex,
    InvalidInputError,
    Monomial,
    PresentationError,
    RingMismatchError,
    RingPresentation,
    _reduce_forward,
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

from charcalc.flagcoh import basis_monomials, grassmannian_presentation, projective_bundle

from conftest import (
    clear_denominators,
    dense_pivots,
    enumerated_basis,
    evaluate,
    fraction_row_reduce,
    fraction_rule_presentation,
    kept_row_reduce,
    monomial_normal_form,
    monomial_quotient,
    random_dense_matrix,
    random_poly,
    row_reduce,
)


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


def test_generator_index_reads_the_names_once():
    """``index`` looks a name up in a dict built with the ring; the dict is
    no field, so equality, hash and the fields' arity stay those of the
    generators and degrees."""
    names = tuple(f"y{i}" for i in range(300))
    ring = GradedRing(names, (2,) * 300)
    assert [ring.index(name) for name in names] == list(range(300))
    assert GradedRing._FIELDS == ("generators", "degrees")
    assert ring == GradedRing(names, (2,) * 300) and hash(ring) == hash((names, (2,) * 300))
    for name in ("z", "y300", "Y0", ""):
        with pytest.raises(InvalidInputError) as info:
            ring.index(name)
        assert str(info.value) == f"unknown generator {name!r}"
    with pytest.raises(AttributeError):
        ring._positions = {}


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([2, 4, 6, 8]), min_size=0, max_size=5),
    st.integers(-2, 24),
)
@example(degrees=[2] * 5, degree=23)
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


def test_monomials_of_degree_stops_below_the_later_generators():
    # ten thousand generators in degrees 2, 4, ...: a walk that went on past
    # the generators it can still use would recurse through all of them
    ring = GradedRing(tuple(f"y{i}" for i in range(10_000)),
                      tuple(2 * (i + 1) for i in range(10_000)))
    assert [m.text(ring) for m in monomials_of_degree(ring, 6)] == ["y0^3", "y0*y1", "y2"]
    assert len(monomials_of_degree(ring, 72)) == 17977  # the partitions of 36


def linear_rule_scan(heads, monomial):
    """Oracle for ``HeadIndex.find``: the first head, in order, dividing ``monomial``."""
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
    index = HeadIndex(GradedRing(tuple(f"t{i}" for i in range(ngens)), (2,) * ngens), 10 * ngens)
    for head in heads:
        index.add(index.key(head))
    for _ in range(40):
        m = monomial(5)
        want = linear_rule_scan(heads, m)
        assert index.find(index.key(m)) == (None if want is None else index.key(want))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_head_index_layout_contract(data):
    """``HeadIndex(ring, degree)`` on generators of degrees 2, 4 and 6: the
    fields are the narrowest that reach ``degree`` and hold every monomial up
    to ``capacity``, keys add as monomials multiply, the guard-bit test agrees
    with ``Monomial.divides``, and ``pack`` clears denominators reversibly."""
    degrees = tuple(data.draw(st.lists(st.sampled_from((2, 4, 6)), min_size=1, max_size=4)))
    ring = GradedRing(tuple(f"t{i}" for i in range(len(degrees))), degrees)
    degree = data.draw(st.integers(0, 80))
    heads = HeadIndex(ring, degree)
    low = min(degrees)
    assert heads.capacity >= degree
    assert heads.width == 1 or (low << (heads.width - 1)) - 1 < degree
    mask = (1 << heads.width) - 1

    def monomial(budget):
        exps = {}
        for i in data.draw(st.permutations(range(len(degrees)))):
            exps[i] = data.draw(st.integers(0, budget // degrees[i]))
            budget -= exps[i] * degrees[i]
        return Monomial.make(exps)

    for _ in range(4):
        a = monomial(heads.capacity)
        key = heads.key(a)
        assert key & heads.guards == 0
        assert all((key >> heads.shifts[i]) & mask == a.exponent(i) for i in range(ring.ngens))
        b = monomial(heads.capacity - a.degree(ring))
        assert heads.key(a) + heads.key(b) == heads.key(a * b)

        m = a * b if data.draw(st.booleans()) else monomial(heads.capacity)
        probe = HeadIndex(ring, degree)
        probe.add(heads.key(a))
        divides = a.divides(m)
        assert probe.find(heads.key(m)) == (heads.key(a) if divides else None)
        if divides:
            assert heads.key(m) - heads.key(a) == heads.key(monomial_quotient(m, a))

    p = GradedPoly(ring, {
        monomial(heads.capacity): Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 12)))
        for _ in range(data.draw(st.integers(0, 5)))
    })
    packed, den = heads.pack(p)
    assert den == math.lcm(*(c.denominator for c in p.terms.values()))
    assert packed == {heads.key(m): n for m, n in clear_denominators(p.terms).items()}
    assert exactring._unpack(ring, packed, den, heads.stride) == p


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


# -- the kernel against its former bodies ---------------------------------------
#
# The oracles below are the kernel as it was before monomials cached their hash
# and products merged sorted pairs: monomials multiplied through a dict and
# ``Monomial.make``, coefficients accumulated from ``Fraction(0)``, every
# intermediate polynomial re-validated by the public constructor, and normal
# forms summed one scaled term at a time.  Rule heads are found by a linear
# scan in rule order.


def old_monomial_mul(a, b):
    merged = dict(a.exps)
    for i, e in b.exps:
        merged[i] = merged.get(i, 0) + e
    return Monomial.make(merged)


def old_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = old_monomial_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return GradedPoly(p.ring, out)


def old_add(p, q):
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = out.get(m, Fraction(0)) + c
    return GradedPoly(p.ring, out)


def old_scale(p, factor):
    return GradedPoly(p.ring, {m: factor * c for m, c in p.terms.items()})


def old_normal_form(pres, p):
    cache = {}

    def reduce(m):
        if m not in cache:
            lhs = linear_rule_scan(pres.rules, m)
            if lhs is None:
                cache[m] = GradedPoly(pres.ring, {m: Fraction(1)})
            else:
                quotient = monomial_quotient(m, lhs)
                acc = pres.ring.zero()
                for m2, c2 in pres.rules[lhs].terms.items():
                    acc = old_add(acc, old_scale(reduce(old_monomial_mul(quotient, m2)), c2))
                cache[m] = acc
        return cache[m]

    out = pres.ring.zero()
    for m, c in p.terms.items():
        out = old_add(out, old_scale(reduce(m), c))
    return out


KERNEL_SPACES = ["gr:3,3", "gr:4,4", "flag:3,2,1", "pe:2,2", "pe:3,1", "sphere:2,2,4", "sphere:2,2,2,2"]


@pytest.mark.parametrize("space", KERNEL_SPACES)
def test_kernel_matches_former_bodies(space):
    pres = _parse_space(space)
    ring = pres.ring
    rng = random.Random(space)
    for _ in range(12):
        p = random_poly(ring, rng, max_terms=4, max_exponent=3)
        q = random_poly(ring, rng, max_terms=4, max_exponent=3)
        product = p * q
        assert product.terms == old_mul(p, q).terms
        assert (p + q).terms == old_add(p, q).terms
        assert (p - p).terms == {}
        assert normal_form(product, pres).terms == old_normal_form(pres, product).terms
        assert normal_form(p + q, pres).terms == old_normal_form(pres, old_add(p, q)).terms
        assert all(isinstance(c, Fraction) and c for c in product.terms.values())


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_monomial_product_is_the_merged_exponents(seed):
    rng = random.Random(seed)
    ngens = rng.randint(1, 7)

    def monomial():
        return Monomial.make({i: rng.randint(0, 3) for i in range(ngens) if rng.random() < 0.5})

    a, b = monomial(), monomial()
    merged = {i: a.exponent(i) + b.exponent(i) for i in range(ngens)}
    product = a * b
    assert product == Monomial.make(merged) == old_monomial_mul(a, b)
    assert product.exps == Monomial.make(merged).exps
    assert hash(product) == hash(Monomial.make(merged))
    assert b * a == product


def test_unit_monomial_is_the_identity():
    m = Monomial.make({0: 2, 3: 1})
    assert Monomial(()) * m == m and m * Monomial(()) == m
    assert Monomial.one() * m is m and m * Monomial.one() is m
    assert Monomial.one() * Monomial.one() == Monomial.one()


def test_monomial_is_a_plain_value_class():
    m = Monomial(((0, 2), (3, 1)))
    assert not hasattr(Monomial, "__dataclass_fields__")
    assert repr(m) == "Monomial(exps=((0, 2), (3, 1)))"
    assert m == Monomial.make({3: 1, 0: 2}) and hash(m) == hash(Monomial.make({3: 1, 0: 2}))
    assert m != ((0, 2), (3, 1))
    assert m.__eq__(((0, 2), (3, 1))) is NotImplemented
    assert len({m, Monomial(((0, 2), (3, 1))), Monomial.of(0, 2)}) == 2
    with pytest.raises(InvalidInputError):
        Monomial.make({0: -1})
    with pytest.raises(InvalidInputError):
        Monomial.of(0, -1)


def test_cancelled_terms_are_dropped(xy):
    x, y = xy.gen(0), xy.gen(1)
    product = (x + y) * (x - y)
    assert Monomial.make({0: 1, 1: 1}) not in product.terms
    assert product.terms == {Monomial.of(0, 2): Fraction(1), Monomial.of(1, 2): Fraction(-1)}
    assert (x + y + (-x)).terms == {Monomial.of(1): Fraction(1)}
    assert x.scale(0).terms == {}


def test_public_constructor_still_validates(xy):
    m = Monomial.of(0)
    with pytest.raises(InvalidInputError):
        GradedPoly(xy, {m: 1.5})
    with pytest.raises(InvalidInputError):
        xy.gen(0).scale(0.5)
    p = GradedPoly(xy, {m: 3, Monomial.of(1): 0})
    assert p.terms == {m: Fraction(3)} and type(p.terms[m]) is Fraction


# -- the packed rewriting kernel against the Monomial-keyed oracle ---------------


def presentation_family(name):
    """``pgr:m,k`` is P(E) over gr(m, k) with c_i(E) the i-th generator,
    ``fractions`` has rules with Fraction coefficients, and every other name
    is a CLI space."""
    if name == "fractions":
        return fraction_rule_presentation()
    if name.startswith("pgr:"):
        m, k = map(int, name[4:].split(","))
        base = grassmannian_presentation(m, k)
        return projective_bundle(base, base.ring.gens(), k - 1)
    return _parse_space(name)


NF_FAMILIES = [
    "gr:3,3", "gr:2,4", "flag:3,2,1", "flag:2,1,1", "cp4", "pe:2,2", "pe:3,1",
    "pgr:2,2", "pgr:2,3", "sphere:2,2,4", "sphere:2,2,2,2", "fractions",
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NF_FAMILIES), st.integers(0, 10**6))
def test_packed_normal_form_matches_monomial_oracle(name, seed):
    """On every family, with the presentation's warm kernel and with a fresh
    one, the packed normal form is the oracle's, with Fraction coefficients."""
    pres = presentation_family(name)
    rng = random.Random(seed)
    p = random_poly(pres.ring, rng, max_terms=6, max_exponent=rng.randint(1, 5))
    want = monomial_normal_form(pres, p)
    for target in (pres, RingPresentation(pres.ring, pres.rules)):
        got = target.normal_form(p)
        assert got == want
        assert all(type(m) is Monomial for m in got.terms)
        assert all(type(c) is Fraction and c for c in got.terms.values())


def test_kernel_widens_for_inputs_above_its_fields():
    """A key may only hold exponents its fields fit: an input of a degree
    above the kernel's capacity rebuilds it with wider fields."""
    base = grassmannian_presentation(2, 2)
    pres = RingPresentation(base.ring, base.rules)
    y1 = pres.ring.gen(0)
    square = pres.normal_form(y1 * y1)
    first = pres._rewriter(0)
    assert 400 > first.heads.capacity
    assert pres.normal_form(y1 ** 200) == monomial_normal_form(pres, y1 ** 200) == pres.ring.zero()
    assert pres._rewriter(0) is not first and pres._rewriter(0).heads.capacity >= 400
    assert pres.normal_form(y1 * y1) == square


def test_kernel_sizes_fields_by_degree_not_input_exponents():
    """``y -> x^2`` has a larger exponent on the right than on the left, so
    ``y^3`` fits the fields its rule needs, yet its normal form ``x^6`` does not."""
    ring = GradedRing(("y", "x"), (4, 2))
    pres = RingPresentation(ring, {Monomial.of(0): ring.gen(1) ** 2})
    assert pres._rewriter(0).heads.capacity < 12
    assert pres.normal_form(ring.gen(0) ** 3) == ring.gen(1) ** 6
    for e in range(1, 40):
        p = ring.gen(0) ** e + ring.gen(1).scale(Fraction(1, 3)) * ring.gen(0) ** (e // 2)
        assert pres.normal_form(p) == monomial_normal_form(pres, p)


def test_fraction_rules_take_the_denominator_path():
    pres = fraction_rule_presentation()
    x = pres.ring.gen(0)
    got = pres.normal_form(x ** 3)
    assert got == monomial_normal_form(pres, x ** 3)
    assert any(c.denominator > 1 for c in got.terms.values())
    cache = pres._rewriter(0).cache
    assert any(den > 1 for _, den in cache.values())


def test_rules_are_read_only_and_a_cycle_is_refused():
    """The constructor checks every rule once: ``rules`` cannot be edited
    afterwards, editing the dict it was given changes nothing, and a rule
    that undoes another, beside a zero rule or not, does not lower the order."""
    ring = GradedRing(("x", "y", "z"), (2, 2, 2))
    x, y, _ = ring.gens()
    given = {Monomial.of(0, 2): y * y}
    pres = RingPresentation(ring, given)
    with pytest.raises(TypeError):
        pres.rules[Monomial.of(1, 2)] = x * x
    with pytest.raises(TypeError):
        del pres.rules[Monomial.of(0, 2)]
    given[Monomial.of(1, 2)] = x * x
    assert list(pres.rules) == [Monomial.of(0, 2)]
    assert pres.normal_form(x * x) == y * y
    cycle = {Monomial.of(0, 2): y * y, Monomial.of(1, 2): x * x}
    for rules in (cycle, {Monomial.of(2, 2): ring.zero(), **cycle}):
        with pytest.raises(PresentationError, match="y\\^2 does not decrease the monomial order"):
            RingPresentation(ring, rules)


@pytest.mark.parametrize("space", ["gr:3,3", "flag:3,2,1", "pe:2,2", "sphere:2,4"])
def test_memoized_basis_matches_a_fresh_enumeration(space):
    pres = _parse_space(space)
    for degree in range(-2, pres.top_degree + 5):
        fresh = enumerated_basis(pres, degree)
        first = basis_monomials(pres, degree)
        assert first == fresh
        first.append(Monomial.of(0, 99))
        first.reverse()
        assert basis_monomials(pres, degree) == fresh


# The oracles below are the kernel products ran on before packed keys:
# monomials merged pair by pair, Fraction coefficients accumulated through
# ``dict.get``; powers multiply the running power by the base over that
# product.  The packed kernel must give the same terms in the same order.


def fraction_mul(p, q):
    out = {}
    get = out.get
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = m1 * m2
            c = get(m)
            out[m] = c1 * c2 if c is None else c + c1 * c2
    return GradedPoly._wrap(p.ring, out)


def fraction_pow(p, exponent):
    result = p.ring.one()
    for _ in range(exponent):
        result = fraction_mul(result, p)
    return result


def assert_same_terms(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction and c for c in got.terms.values())
    assert all(type(m) is Monomial for m in got.terms)


WIDE_RING = GradedRing(tuple(f"z{i}" for i in range(24)), tuple(2 + 2 * (i % 2) for i in range(24)))


@pytest.mark.parametrize("space", [*KERNEL_SPACES, "wide"])
def test_packed_kernel_matches_fraction_kernel(space):
    ring = WIDE_RING if space == "wide" else _parse_space(space).ring
    rng = random.Random(f"packed {space}")
    for _ in range(10):
        p = random_poly(ring, rng, max_terms=5, max_exponent=4)
        q = random_poly(ring, rng, max_terms=5, max_exponent=4)
        assert_same_terms(p * q, fraction_mul(p, q))
        assert_same_terms(q * p, fraction_mul(q, p))
        assert_same_terms(p * p, fraction_mul(p, p))
        for e in (0, 1, 2, 3, 5):
            assert_same_terms(p**e, fraction_pow(p, e))
    small = random_poly(ring, rng, max_terms=3, max_exponent=2)
    assert_same_terms(small**13, fraction_pow(small, 13))


def test_packed_kernel_keeps_order_through_cancellation(xy):
    x, y = xy.gen(0), xy.gen(1)
    half = Fraction(1, 2)
    p = x**2 + x * y - y**2 * half  # x^2*y^2 cancels in p^2
    square = p * p
    assert Monomial.make({0: 2, 1: 2}) not in square.terms
    assert_same_terms(square, fraction_mul(p, p))
    assert_same_terms(p**2, fraction_pow(p, 2))
    for e in (3, 4, 13):
        assert_same_terms(p**e, fraction_pow(p, e))
    q = x - y
    assert_same_terms((x + y) * q, fraction_mul(x + y, q))
    assert list(((x + y) * q).terms) == [Monomial.of(0, 2), Monomial.of(1, 2)]
    # x^2*y^2 sums 1 - 1 + 2, passing through zero, and keeps its first
    # position; x*y^3 sums 1 - 1 and is dropped
    r = x**2 + x * y + y**2
    s = y**2 - x * y + x**2 * 2
    product = r * s
    assert_same_terms(product, fraction_mul(r, s))
    assert list(product.terms.items())[0] == (Monomial.make({0: 2, 1: 2}), Fraction(2))
    assert Monomial.make({0: 1, 1: 3}) not in product.terms
    assert_same_terms((p - p) * p, xy.zero())


def test_packed_kernel_on_zero_and_constants(xy):
    zero, one = xy.zero(), xy.one()
    c = xy.constant(Fraction(-3, 2))
    p = xy.gen(0) * Fraction(5, 6) - xy.gen(1) ** 3
    for left, right in [(zero, p), (p, zero), (zero, zero), (c, p), (p, c), (c, c), (one, p)]:
        assert_same_terms(left * right, fraction_mul(left, right))
    for base in (zero, one, c, p):
        for e in (0, 1, 13):
            assert_same_terms(base**e, fraction_pow(base, e))
    assert (zero**0).terms == {Monomial.one(): Fraction(1)}
    assert (zero**13).terms == {}
    assert (c**13).terms == {Monomial.one(): Fraction(-3, 2) ** 13}


def test_single_term_products_skip_packing(xy, monkeypatch):
    # a product by one term shifts the other operand's monomials in its term
    # order, on either side, with coefficient 1 or not, and never packs
    x, y = xy.gen(0), xy.gen(1)
    p = x**2 * Fraction(1, 3) - x * y + y**3 * 2 + xy.constant(5)
    singles = [xy.one(), x, y**2 * Fraction(-3, 4), xy.constant(7), x * y * Fraction(2)]

    def refuse(*_):
        raise AssertionError("a single-term product was packed")

    monkeypatch.setattr(exactring, "_pack", refuse)
    for t in singles:
        for left, right in [(p, t), (t, p), (t, t), (xy.zero(), t), (t, xy.zero())]:
            assert_same_terms(left * right, fraction_mul(left, right))
    assert list((p * x).terms) == [m * Monomial.of(0) for m in p.terms]
    assert list((x * p).terms) == list((p * x).terms)
    monkeypatch.undo()
    for space in KERNEL_SPACES:
        ring = _parse_space(space).ring
        rng = random.Random(f"single term {space}")
        for _ in range(10):
            p = random_poly(ring, rng, max_terms=6, max_exponent=4)
            t = random_poly(ring, rng, max_terms=1, max_exponent=4)
            assert_same_terms(p * t, fraction_mul(p, t))
            assert_same_terms(t * p, fraction_mul(t, p))


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("over", [-1, 0])
def test_packed_fields_do_not_carry(width, over):
    # Exponent sums of exactly 2**width - 1 and 2**width in every field: a
    # field one bit too narrow would carry into the next generator.
    ring = GradedRing(("a", "b", "c", "d"), (2, 2, 4, 2))
    total = 2**width + over
    low = total // 2
    high = total - low
    p = GradedPoly(ring, {Monomial.make({0: low, 1: high, 2: low, 3: high}): Fraction(2, 3),
                          Monomial.make({1: low, 3: 1}): -1})
    q = GradedPoly(ring, {Monomial.make({0: high, 1: low, 2: high, 3: low}): Fraction(-5, 4),
                          Monomial.make({0: 1, 2: high}): 3})
    product = p * q
    assert_same_terms(product, fraction_mul(p, q))
    assert Monomial.make({0: total, 1: total, 2: total, 3: total}) in product.terms
    for exponent, top in [(total, 1), (1, total), *([(total // 3, 3)] if total % 3 == 0 else [])]:
        r = GradedPoly(ring, {Monomial.make({0: top, 1: top, 2: 1}): Fraction(1, 2),
                              Monomial.make({2: top, 3: 1}): -1})
        power = r**exponent
        assert_same_terms(power, fraction_pow(r, exponent))
        assert Monomial.make({0: total, 1: total, 2: exponent}) in power.terms


def field_by_field_unpack(ring, packed, den, width):
    # the former body of _unpack: one shift per field, empty fields included
    mask = (1 << width) - 1
    share = {}.setdefault
    terms = {}
    for key, numerator in packed.items():
        pairs = []
        i = 0
        while key:
            if e := key & mask:
                pairs.append(share((i, e), (i, e)))
            key >>= width
            i += 1
        terms[Monomial(tuple(pairs))] = Fraction(numerator, den)
    poly = GradedPoly.__new__(GradedPoly)
    poly.ring, poly.terms = ring, terms
    return poly


@pytest.mark.parametrize("ngens", [1, 3, 24, 300])
def test_unpack_matches_field_by_field_unpack(ngens):
    # sparse keys (runs of empty fields, below, between and above the set
    # ones), dense keys and the constant key, in a seeded order
    ring = GradedRing(tuple(f"t{i}" for i in range(ngens)), (2,) * ngens)
    rng = random.Random(f"unpack {ngens}")
    for width in (1, 2, 3, 7, 64):
        packed = {0: 5}
        for _ in range(40):
            fields = rng.sample(range(ngens), rng.randint(1, min(ngens, rng.choice((1, 2, 4, ngens)))))
            key = sum(rng.randint(1, (1 << width) - 1) << (i * width) for i in fields)
            packed[key] = rng.choice((-3, -1, 1, 2, 7))
        for den in (1, 6):
            got = exactring._unpack(ring, packed, den, width)
            assert_same_terms(got, field_by_field_unpack(ring, packed, den, width))
            assert [m.exps for m in got.terms] == [
                m.exps for m in field_by_field_unpack(ring, packed, den, width).terms
            ]


def dense_sorted_terms(p):
    # the former body: a dense exponent vector of the ring's length per term
    def key(item):
        degree, dense = item[0].order_key(p.ring)
        return (degree, tuple(-e for e in dense))

    return sorted(p.terms.items(), key=key)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_sorted_terms_match_the_dense_order(seed):
    rng = random.Random(seed)
    ring = [WIDE_RING, GradedRing(("a", "b", "c"), (2, 4, 2))][seed % 2]
    p = random_poly(ring, rng, max_terms=12, max_exponent=3)
    p = p * random_poly(ring, rng, max_terms=3, max_exponent=2)
    assert p.sorted_terms() == dense_sorted_terms(p)


# -- deferred powers, reduced in the quotient ------------------------------------


def power_base(ring, rng, kind):
    """A base of two or more terms with Fraction coefficients; ``constant``
    adds a unit term, and ``zero`` is the empty polynomial."""
    if kind == "zero":
        return ring.zero()
    p = ring.zero()
    while len(p.terms) < 2:
        p = p + random_poly(ring, rng, max_terms=3, max_exponent=2)
    if kind == "constant":
        p = p + ring.constant(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    return p


def up_to_positive_factor(rows):
    return [{j: Fraction(c, abs(row[min(row)])) for j, c in row.items()} for row in rows]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NF_FAMILIES), st.sampled_from(["terms", "constant", "zero"]),
       st.integers(0, 6), st.integers(0, 10**6))
def test_deferred_power_matches_the_expansion_oracle(name, kind, e, seed):
    """On every family, with the warm kernel and a fresh one, the normal form
    of a deferred power is the oracle's normal form of the expanded power; its
    terms, equality, hash and text are the expansion's, and its product rows
    are the expansion's up to a positive factor per row."""
    pres = presentation_family(name)
    ring = pres.ring
    p = power_base(ring, random.Random(seed), kind)
    expansion = fraction_pow(p, e)
    want = monomial_normal_form(pres, expansion)
    multipliers = [Monomial.one(), Monomial.of(0), Monomial.of(ring.ngens - 1, 2)]
    columns = sorted({m for t in multipliers
                      for m in monomial_normal_form(pres, expansion * GradedPoly(ring, {t: 1})).terms},
                     key=lambda m: m.order_key(ring))
    for target in (pres, RingPresentation(ring, pres.rules)):
        got = target.normal_form(p**e)
        assert got == want
        assert all(type(m) is Monomial for m in got.terms)
        assert all(type(c) is Fraction and c for c in got.terms.values())
        rows = target.product_rows(p**e, multipliers, columns)
        assert up_to_positive_factor(rows) == up_to_positive_factor(
            target.product_rows(expansion, multipliers, columns))
    power = p**e
    assert (type(power) is exactring._Power) == (len(p.terms) > 1)
    assert power.degree() == expansion.degree()
    assert hash(power) == hash(expansion)
    assert str(power) == str(expansion)
    assert power == expansion and expansion == p**e
    assert_same_terms(power, expansion)


def test_one_term_powers_stay_eager(xy):
    x, y = xy.gens()
    assert "__getattr__" not in vars(GradedPoly)
    for base in (x, y.scale(Fraction(-2, 3)), xy.constant(5), x * y * 2, xy.zero()):
        for e in (0, 1, 2, 7, 1000):
            power = base**e
            assert type(power) is GradedPoly
            assert_same_terms(power, fraction_pow(base, e))
    with pytest.raises(InvalidInputError):
        (x + y) ** -1


def refuse_expansion(monkeypatch):
    def refuse(*_):
        raise AssertionError("a power was expanded in the free ring")

    monkeypatch.setattr(exactring, "_expand_power", refuse)


def test_quotient_powers_never_expand(monkeypatch):
    from charcalc.coupling import CouplingInput, coupling_class, mu_class
    from charcalc.flagcoh import fiber_integrate
    from charcalc.obstruction import hard_lefschetz_check

    spheres = _parse_space("sphere:" + ",".join(["2"] * 9))
    ys = spheres.ring.gens()
    a = ys[0]
    for i, y in enumerate(ys[1:], 2):
        a = a + y.scale(i)
    # (sum i*y_i)^6 with y_i^2 = 0 is 6! times the elementary sum of degree 6
    want = GradedPoly(spheres.ring, {
        Monomial.make(dict.fromkeys(subset, 1)): 720 * math.prod(i + 1 for i in subset)
        for subset in itertools.combinations(range(9), 6)
    })
    pe21, pe22 = _parse_space("pe:2,1"), _parse_space("pe:2,2")
    c21 = pe21.ring.gen("c")
    u21 = c21 + pe21.ring.gen("b").scale(3)
    mu_want = {}
    for pres, u in ((pe22, pe22.ring.gen("c")), (pe21, u21)):
        data = CouplingInput(pres, u, 2)
        for k in (1, 2, 3):
            mu_want[pres, k] = fiber_integrate(fraction_pow(coupling_class(data), 2 + k), pres)
    refuse_expansion(monkeypatch)
    assert spheres.normal_form(a**6) == want
    assert type(a**6) is exactring._Power
    for pres, u in ((pe22, pe22.ring.gen("c")), (pe21, u21)):
        data = CouplingInput(pres, u, 2)
        for k in (1, 2, 3):
            assert mu_class(data, k) == mu_want[pres, k]
    gr33 = _parse_space("gr:3,3")
    assert hard_lefschetz_check(gr33, gr33.ring.gen("y1"), gr33.top_degree // 2)
    s3 = _parse_space("sphere:2,2,2")
    y0, y1, y2 = s3.ring.gens()
    assert hard_lefschetz_check(s3, y0 + y1.scale(2) - y2, 3)
    assert not hard_lefschetz_check(s3, y0 + y1, 3)


def test_quotient_power_stops_at_zero(monkeypatch):
    """Once the running power is zero no further product is taken; a power
    that never reaches zero takes one product a rung.  The base is not a
    linear form, so it climbs the ladder."""
    pres = _parse_space("sphere:2,2,2")
    y0, y1, _ = pres.ring.gens()
    a = y0 + y1 + y0 * y1
    products = []
    real = exactring._packed_mul
    monkeypatch.setattr(exactring, "_packed_mul", lambda x, y: products.append(1) or real(x, y))
    assert pres.normal_form(a**2) == y0 * y1 * 2
    assert len(products) == 1  # a * a
    products.clear()
    assert pres.normal_form(a**1000).is_zero()
    assert len(products) == 2  # a^2, then a^3 = 0 ends the climb
    # a unit term keeps every rung nonzero: (1 + c)^10000 on CP^3 climbs them all
    cp3 = _parse_space("cp3")
    c = cp3.ring.gen("c")
    products.clear()
    assert cp3.normal_form((cp3.ring.one() + c) ** 10000) == GradedPoly(
        cp3.ring, {Monomial.of(0, j): math.comb(10000, j) for j in range(4)})
    assert len(products) == 9999


# -- powers of linear forms in closed form ---------------------------------------
# A linear form in distinct generators is raised by the multinomial walk, in the
# free ring and in every quotient by monomials whose base generators have
# pure-power heads.  The ladder, with the walk switched off, is the oracle: same
# terms, same values, same order.


def mixed_head_presentation():
    """y0^3, y1^2 and y2^2 -> 0, and the head y0*y1 -> 0 of two generators."""
    ring = GradedRing(("y0", "y1", "y2"), (2, 2, 4))
    heads = [Monomial.of(0, 3), Monomial.of(1, 2), Monomial.of(2, 2), Monomial.make({0: 1, 1: 1})]
    return RingPresentation(ring, dict.fromkeys(heads, ring.zero()))


def second_power_presentation():
    """y0^2 -> 0 and then y0^4 -> 0, two pure-power heads of one generator, and y1^3 -> 0."""
    ring = GradedRing(("y0", "y1"), (2, 2))
    heads = [Monomial.of(0, 2), Monomial.of(1, 3), Monomial.of(0, 4)]
    return RingPresentation(ring, dict.fromkeys(heads, ring.zero()))


def linear_space(name):
    """``cp3xs2xs4`` is the trivial CP^3 bundle over S^2 x S^4: c^4 -> 0 beside
    the sphere heads; a CP^n alone has one generator, so no power of two terms."""
    if name == "cp3xs2xs4":
        base = _parse_space("sphere:2,4")
        return projective_bundle(base, [base.ring.zero()] * 4, 3)
    return _parse_space(name)


LINEAR_SPACES = ["sphere:2,4,6", "sphere:2,2,2,2,2", "s2xs2", "cp3xs2xs4"]


def linear_form(data, ring):
    """A sum of generators, possibly repeated, with fractional and negative
    coefficients."""
    p = ring.zero()
    for i in data.draw(st.lists(st.integers(0, ring.ngens - 1), min_size=2, max_size=ring.ngens + 2)):
        c = Fraction(data.draw(st.integers(-4, 4).filter(bool)), data.draw(st.integers(1, 3)))
        p = p + ring.gen(i).scale(c)
    return p


def ladder_terms(compute):
    """``list(compute().terms.items())`` with the multinomial walk switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactring, "_linear_generators", lambda p: [])
        return list(compute().terms.items())


def walked_terms(compute):
    """``list(compute().terms.items())``, checked to take no polynomial product."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactring, "_packed_mul", lambda *_: pytest.fail("a product was taken"))
        return list(compute().terms.items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_power_is_the_ladder_in_the_free_ring(data):
    ring = GradedRing(("y0", "y1", "y2", "y3"), (2, 4, 2, 4))
    p = linear_form(data, ring)
    assume(len(p.terms) > 1)
    e = data.draw(st.integers(0, 12))
    assert walked_terms(lambda: p**e) == ladder_terms(lambda: p**e)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LINEAR_SPACES), st.data())
def test_linear_power_is_the_ladder_in_monomial_quotients(name, data):
    """Exponents run past the total cap, where the power is zero."""
    pres = linear_space(name)
    p = linear_form(data, pres.ring)
    assume(len(p.terms) > 1)
    e = data.draw(st.integers(0, 9))
    got = walked_terms(lambda: pres.normal_form(p**e))
    assert got == ladder_terms(lambda: RingPresentation(pres.ring, pres.rules).normal_form(p**e))
    assert got == list(monomial_normal_form(pres, fraction_pow(p, e)).terms.items())


def test_linear_power_merges_repeated_generators_and_stops_past_the_caps():
    ring = GradedRing(("y0", "y1"), (2, 4))
    p = parse_poly(ring, "y0 + 2*y0 + y1")
    assert p == parse_poly(ring, "3*y0 + y1")
    assert walked_terms(lambda: p**3) == ladder_terms(lambda: p**3) == list(
        parse_poly(ring, "27*y0^3 + 27*y0^2*y1 + 9*y0*y1^2 + y1^3").terms.items())
    # the caps add to 3 on S^2 x S^4 x S^6
    spheres = _parse_space("sphere:2,4,6")
    y0, y1, y2 = spheres.ring.gens()
    assert walked_terms(lambda: spheres.normal_form((y0 + y1 + y2) ** 4)) == []


def test_other_bases_still_climb_the_ladder(monkeypatch):
    """A constant term, a generator to a higher power, a rule with terms on
    the right (P(E) over S^4), a generator without a pure-power head, a head of
    two generators (y0*y1 -> 0) or two powers of one generator keep the
    ladder."""
    walks = []
    real = exactring._linear_power
    monkeypatch.setattr(exactring, "_linear_power", lambda *args: walks.append(1) or real(*args))
    spheres = _parse_space("sphere:2,2,2")
    y0, y1, _ = spheres.ring.gens()
    pe22 = _parse_space("pe:2,2")
    c, b = pe22.ring.gens()
    ring = GradedRing(("x", "y"), (2, 2))
    x, y = ring.gens()
    free_y = RingPresentation(ring, {Monomial.of(0, 2): ring.zero()})
    assert spheres.normal_form((spheres.ring.one() + y0 + y1) ** 3) == spheres.ring.one() + (y0 + y1).scale(3) + y0 * y1 * 6
    assert spheres.normal_form((y0 + y1 * y1) ** 2) == GradedPoly(spheres.ring, {})
    assert pe22.normal_form((c + b) ** 3) == monomial_normal_form(pe22, fraction_pow(c + b, 3))
    assert free_y.normal_form((x + y) ** 3) == (y**3 + x * y * y * 3)
    assert ((x + ring.one()) ** 3).terms and ((x + y * y) ** 3).terms
    mixed = mixed_head_presentation()
    u0, u1, u2 = mixed.ring.gens()
    assert mixed.normal_form((u0 - u1 + u2) ** 4).is_zero()
    assert list(mixed.normal_form((u0 - u1 + u2) ** 3).terms.items()) == [(Monomial.make({0: 2, 2: 1}), 3)]
    second = second_power_presentation()
    v0, v1 = second.ring.gens()
    for pres, p in ((mixed, u0.scale(Fraction(-1, 2)) + u1 * 3 + u2), (second, v0 - v1.scale(2))):
        for e in range(6):
            assert pres.normal_form(p**e) == monomial_normal_form(pres, fraction_pow(p, e))
    assert walks == []
    assert spheres.normal_form((y0 + y1) ** 2) == y0 * y1 * 2 and walks == [1]


def test_built_spaces_cap_every_rule_or_none():
    """Every built space whose rules are all m -> 0 has one pure-power head per
    capped generator, so the walk needs no rule lookup; the others climb."""
    capped = {"point", "s2xs2", "sphere:2,4,6", "cp3", "cpn:2", "trivial"}
    for name in ["point", "s2xs2", "sphere:2,4,6", "cp3", "cpn:2", "gr:2,3", "flag:2,1,1", "pe:2,2", "trivial"]:
        pres = _trivial_bundle(2, 2) if name == "trivial" else _parse_space(name)
        caps = pres._rewriter(0).caps
        assert (caps is not None) == (name in capped), name
        if caps is not None:
            assert len(caps) == len(pres.rules)
            assert all(Monomial.of(i, c + 1) in pres.rules for i, c in caps.items())


# -- zero rules and the power ladder ---------------------------------------------


def zero_rule_presentation(rules=None):
    """x^2 -> 0 heads the rules, and x*y^2 -> 3*y^3 has terms on the right."""
    ring = GradedRing(("x", "y"), (2, 2))
    y = ring.gen(1)
    return RingPresentation(ring, rules or {
        Monomial.of(0, 2): ring.zero(),
        Monomial.make({0: 1, 1: 2}): (y ** 3).scale(3),
    })


def test_zero_rules_rewrite_without_a_nested_combine(monkeypatch):
    calls = []
    combine = exactring._Rewriter.combine
    monkeypatch.setattr(exactring._Rewriter, "combine",
                        lambda self, pairs: calls.append(1) or combine(self, pairs))
    pres = zero_rule_presentation()
    x, y = pres.ring.gens()
    p = x * x + x * x * y * Fraction(1, 2) + x * x * y ** 3 * 5
    assert pres.normal_form(p).is_zero() and len(calls) == 1
    assert pres._rewriter(0).cache[pres._rewriter(0).heads.key(Monomial.of(0, 2))] == ({}, 1)
    calls.clear()
    assert pres.normal_form(x * y * y) == (y ** 3).scale(3) and len(calls) == 2
    assert monomial_normal_form(pres, p + x * y * y) == pres.normal_form(p + x * y * y)


def assert_positive_multiple(row, want):
    assert row.keys() == want.keys()
    if want:
        j = next(iter(want))
        scale = Fraction(row[j], want[j])
        assert scale > 0 and all(row[i] == scale * c for i, c in want.items())


@pytest.mark.parametrize("space", KERNEL_SPACES)
def test_power_rows_climb_the_ladder_of_deferred_powers(space):
    """For random degree-2 classes, each rung's rows are positive multiples
    of ``product_rows(a**k, ...)``'s, for every k up to the top and one past
    it, and a piece with no multipliers yields no rows."""
    pres = _parse_space(space)
    ring = pres.ring
    rng = random.Random(f"ladder {space}")
    top = pres.top_degree
    degree_two = [g for g, d in zip(ring.gens(), ring.degrees) if d == 2]
    for _ in range(3):
        a = ring.zero()
        while len(a.terms) < min(2, len(degree_two)):
            a = a + degree_two[rng.randrange(len(degree_two))].scale(
                Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2)))
        pieces = []
        for k in range(1, top // 2 + 2):
            d = rng.randrange(0, max(top - 2 * k, 0) + 1, 2)
            pieces.append((basis_monomials(pres, d), basis_monomials(pres, d + 2 * k)))
        pieces[rng.randrange(len(pieces))] = ([], basis_monomials(pres, top))
        fresh = RingPresentation(ring, pres.rules)
        ladder = list(fresh.power_rows(a, pieces))
        assert len(ladder) == len(pieces)
        for k, ((multipliers, columns), rows) in enumerate(zip(pieces, ladder), 1):
            want = pres.product_rows(a ** k, multipliers, columns)
            assert len(rows) == len(want) == len(multipliers)
            for row, w in zip(rows, want):
                assert_positive_multiple(row, w)


def test_power_rows_size_the_kernel_once_and_climb_lazily(monkeypatch):
    """One kernel holds every rung, even when a later piece reaches a degree
    the first does not, and a rung is multiplied only when its rows are asked
    for: one ``_packed_mul`` per rung after the first."""
    base = _parse_space("sphere:2,2,2,2")
    pres = RingPresentation(base.ring, base.rules)
    ys = pres.ring.gens()
    a = ys[0] + ys[1].scale(2) - ys[2] + ys[3].scale(Fraction(1, 3))
    products = []
    real = exactring._packed_mul
    monkeypatch.setattr(exactring, "_packed_mul", lambda x, y: products.append(1) or real(x, y))
    one = Monomial.one()
    pieces = [([one], basis_monomials(base, 2 * k)) for k in range(1, 5)]
    # a^5 * y0^11 has degree 32, the least a key needs five bits for; a^4 *
    # y0^11 would fit in four
    pieces.append(([Monomial.of(0, 11)], []))
    ladder = pres.power_rows(a, pieces)
    assert next(ladder) == [{0: 3, 1: 6, 2: -3, 3: 1}] and products == []
    kernel = pres._kernel
    assert kernel.heads.capacity >= 32
    assert next(ladder) and len(products) == 1
    assert [len(rows) for rows in ladder] == [1, 1, 1] and len(products) == 4
    assert pres._kernel is kernel


# -- the echelon kernel against Fraction and dense elimination -------------------


def test_row_reduce_agrees_with_dense_oracle(rng):
    for _ in range(150):
        height, width = rng.randint(0, 12), rng.randint(1, 12)
        rows = random_dense_matrix(rng, height, width)
        sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
        pivots = row_reduce(sparse)
        assert_same_pivots(pivots, fraction_row_reduce(sparse))
        assert_same_pivots(kept_row_reduce(sparse), pivots)
        assert len(pivots) == len(dense_pivots(rows, width))
        for col, row in pivots.items():
            assert row[col] == 1
            assert all(not row.get(other) for other in pivots if other != col)
        # the rank each call adds, as the rank questions read it
        half = height // 2
        forward = {}
        first = _reduce_forward([clear_denominators(row) for row in sparse[:half]], forward)
        assert first == len(forward) == len(dense_pivots(rows[:half], width))
        second = _reduce_forward([clear_denominators(row) for row in sparse[half:]], forward)
        assert first + second == len(pivots)


def assert_same_pivots(got, expected):
    assert got == expected
    assert all(type(c) is Fraction for row in got.values() for c in row.values())


def test_row_reduce_matches_fraction_kernel_on_large_entries(rng):
    # entries p/q with |p|, q up to 2^40 exercise the denominator and content gcds
    for _ in range(60):
        height, width = rng.randint(1, 8), rng.randint(1, 8)
        rows = []
        for _ in range(height):
            if rows and rng.random() < 0.2:
                rows.append(dict(rng.choice(rows)))
                continue
            row = {}
            for j in range(width):
                if rng.random() < 0.5:
                    bits = rng.choice((3, 20, 40))
                    p = rng.randint(-(2 ** bits), 2 ** bits)
                    if p:
                        row[j] = Fraction(p, rng.randint(1, 2 ** bits))
            rows.append(row)
        assert_same_pivots(row_reduce(rows), fraction_row_reduce(rows))
        assert_same_pivots(kept_row_reduce(rows), fraction_row_reduce(rows))


def test_row_reduce_matches_fraction_kernel_on_edge_cases():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    cases = [
        [],
        [{}],
        [{}, {}, {}],
        [{0: half, 2: third}, {0: half, 2: third}],
        [{1: third}, {}, {1: third}, {0: half, 1: half}],
        [{0: Fraction(2), 1: Fraction(-4)}, {0: Fraction(3), 2: Fraction(6)}],
        [{0: 2, 1: -4, 3: 6}, {1: 3, 2: 9}, {0: -5, 3: 1}],
        [{0: 6, 1: 4}, {0: 9, 1: 6}],
    ]
    for rows in cases:
        assert_same_pivots(row_reduce(rows), fraction_row_reduce(rows))
        assert_same_pivots(kept_row_reduce(rows), fraction_row_reduce(rows))
    assert row_reduce([]) == {}
    assert row_reduce([{}, {}]) == {}
    # by hand: the row space is the orthogonal complement of (1/5, 8/5, -8/15, 1)
    assert row_reduce([{0: 2, 1: -4, 3: 6}, {1: 3, 2: 9}, {0: -5, 3: 1}]) == {
        0: {0: 1, 3: Fraction(-1, 5)},
        1: {1: 1, 3: Fraction(-8, 5)},
        2: {2: 1, 3: Fraction(8, 15)},
    }
