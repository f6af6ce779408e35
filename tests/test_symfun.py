import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.exactring import GradedPoly, GradedRing, InvalidInputError, Monomial, parse_poly
from charcalc.symfun import (
    ArityError,
    ElemExpr,
    Partition,
    SymExpr,
    SymmetryError,
    _check_symmetric,
    _dominated,
    _zero_one_count,
    elementary,
    monomial_symmetric,
    orbit_size,
    sigma_ring,
    sigma_top_coefficient,
    to_elementary,
    to_monomial_basis,
    variable_ring,
)


def test_partition_parsing_and_validation():
    assert Partition.parse("(3,1)").parts == (3, 1)
    assert Partition.parse("3,1") == Partition.of(3, 1)
    assert Partition.parse("()").parts == ()
    assert str(Partition.of(2, 1, 1)) == "(2,1,1)"
    with pytest.raises(InvalidInputError):
        Partition.of(1, 2)
    with pytest.raises(InvalidInputError):
        Partition.of(0)


def test_conjugate():
    assert Partition.of(3, 1).conjugate() == Partition.of(2, 1, 1)
    assert Partition.of(2, 2).conjugate() == Partition.of(2, 2)
    assert Partition(()).conjugate() == Partition(())


def test_monomial_symmetric_basic():
    ring = variable_ring(2)
    assert monomial_symmetric(Partition.of(1, 1), 2) == parse_poly(ring, "t1*t2")
    assert monomial_symmetric(Partition.of(2), 2) == parse_poly(ring, "t1^2 + t2^2")


def test_monomial_symmetric_enumeration_oracle():
    # independent enumeration: all injective assignments of parts to slots
    poly = monomial_symmetric(Partition.of(3, 1), 4)
    expected = set()
    for i, j in itertools.permutations(range(4), 2):
        expected.add((("t", i, 3), ("t", j, 1)))
    got = set()
    for monomial in poly.terms:
        pieces = tuple(sorted(("t", idx, e) for idx, e in monomial.exps))
        key = tuple(sorted((("t", idx, e) for idx, e in monomial.exps),
                           key=lambda t: -t[2]))
        got.add(key)
    assert len(poly.terms) == 12
    assert got == expected
    assert all(c == 1 for c in poly.terms.values())


def test_orbit_size_counts_the_orbit():
    for v in range(1, 7):
        for I in [Partition(())] + partitions_up_to(7, 8):
            if len(I) > v:
                assert orbit_size(I, v) == 0
                continue
            distinct = set(itertools.permutations(I.parts + (0,) * (v - len(I))))
            assert orbit_size(I, v) == len(distinct) == len(monomial_symmetric(I, v).terms)


def test_monomial_symmetric_arity_error():
    with pytest.raises(ArityError):
        monomial_symmetric(Partition.of(1, 1, 1), 2)


def test_elementary_examples():
    ring = variable_ring(3)
    assert elementary(2, 3) == parse_poly(ring, "t1*t2 + t1*t3 + t2*t3")
    assert elementary(0, 3) == ring.one()
    assert elementary(4, 4) == parse_poly(variable_ring(4), "t1*t2*t3*t4")
    assert elementary(5, 4).is_zero()


def test_s_one_power_equals_elementary():
    for v in range(1, 6):
        for k in range(1, v + 1):
            assert monomial_symmetric(Partition.of(*([1] * k)), v) == elementary(k, v)


def test_to_elementary_s2_two_variables():
    elem = to_elementary(monomial_symmetric(Partition.of(2), 2), 2)
    sigma = elem.poly.ring
    assert elem.poly == parse_poly(sigma, "sigma1^2 - 2*sigma2")


def test_to_elementary_rejects_asymmetric():
    ring = variable_ring(2)
    with pytest.raises(SymmetryError):
        to_elementary(parse_poly(ring, "t1"), 2)
    with pytest.raises(SymmetryError):
        to_elementary(parse_poly(ring, "t1^2 + 2*t2^2"), 2)


def test_sigma4_coefficients_for_weight_four_partitions():
    # frozen values checked against the degree-8 pairing computation
    table = {
        Partition.of(3, 1): Fraction(4),
        Partition.of(2, 2): Fraction(2),
        Partition.of(2, 1, 1): Fraction(-4),
        Partition.of(1, 1, 1, 1): Fraction(1),
    }
    for shape, expected in table.items():
        elem = to_elementary(monomial_symmetric(shape, 4), 4)
        assert sigma_top_coefficient(elem, 4) == expected


def test_sigma_top_out_of_range_is_zero():
    elem = to_elementary(monomial_symmetric(Partition.of(2), 2), 2)
    assert sigma_top_coefficient(elem, 3) == 0
    assert sigma_top_coefficient(elem, 0) == 0


def partitions_up_to(weight, max_len):
    out = []

    def build(remaining, largest, prefix):
        if prefix and len(prefix) <= max_len:
            out.append(Partition(tuple(prefix)))
        if len(prefix) == max_len:
            return
        for part in range(min(remaining, largest), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(weight, weight, [])
    return [p for p in out if p.weight <= weight]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_random_symmetric(seed):
    rng = random.Random(seed)
    v = rng.randint(1, 6)
    shapes = [p for p in partitions_up_to(8, v)]
    chosen = rng.sample(shapes, k=min(len(shapes), rng.randint(1, 4)))
    poly = variable_ring(v).zero()
    for shape in chosen:
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        poly = poly + monomial_symmetric(shape, v).scale(coeff)
    elem = to_elementary(poly, v)
    assert elem.expand() == poly


def test_orbits_match_permutation_oracle(rng):
    # oracle: the orbit as the distinct permutations of the zero-padded shape
    for v in range(1, 7):
        ring = variable_ring(v)
        for shape in [Partition(())] + partitions_up_to(5, v):
            padded = shape.parts + (0,) * (v - len(shape))
            orbit = {
                Monomial.make({i: e for i, e in enumerate(assignment) if e})
                for assignment in set(itertools.permutations(padded))
            }
            poly = monomial_symmetric(shape, v)
            assert set(poly.terms) == orbit
            assert all(c == 1 for c in poly.terms.values())
            coeff = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            whole = GradedPoly(ring, dict.fromkeys(orbit, coeff))
            assert to_monomial_basis(whole).coeffs == {shape: coeff}
            if len(orbit) > 1:
                partial = dict.fromkeys(orbit, coeff)
                del partial[rng.choice(sorted(orbit, key=lambda m: m.exps))]
                with pytest.raises(SymmetryError):
                    to_monomial_basis(GradedPoly(ring, partial))
    assert len(monomial_symmetric(Partition.of(2, 1), 12).terms) == 132


def test_to_elementary_linear(rng):
    v = 3
    p = monomial_symmetric(Partition.of(2, 1), v)
    q = monomial_symmetric(Partition.of(3), v)
    a, b = Fraction(3, 2), Fraction(-7)
    combined = to_elementary(p.scale(a) + q.scale(b), v)
    separate = to_elementary(p, v).poly.scale(a) + to_elementary(q, v).poly.scale(b)
    assert combined.poly == separate


def test_to_monomial_basis_round_trip():
    poly = (
        monomial_symmetric(Partition.of(2, 2), 4).scale(5)
        + monomial_symmetric(Partition.of(3, 1), 4).scale(2)
    )
    sym = to_monomial_basis(poly)
    assert sym.coefficient(Partition.of(2, 2)) == 5
    assert sym.coefficient(Partition.of(3, 1)) == 2
    assert sym.coefficient(Partition.of(4)) == 0
    assert sym.expand() == poly


def two_pass_monomial_basis(p: GradedPoly) -> SymExpr:
    """The former ``to_monomial_basis``, kept as the oracle: one pass checks the
    orbits, building a ``Partition`` per term, and a second pass builds them
    all again for the coefficients."""
    v = p.ring.ngens

    def pattern(monomial):
        return Partition(tuple(sorted((e for _, e in monomial.exps), reverse=True)))

    seen, counts = {}, {}
    for monomial, coeff in p.terms.items():
        shape = pattern(monomial)
        if shape in seen:
            if seen[shape] != coeff:
                raise SymmetryError("coefficients differ within a permutation orbit")
            counts[shape] += 1
        else:
            seen[shape] = coeff
            counts[shape] = 1
    for shape, count in counts.items():
        if count != orbit_size(shape, v):
            raise SymmetryError(f"orbit of shape {shape} is incomplete")
    coeffs = {}
    for monomial, coeff in p.terms.items():
        coeffs[pattern(monomial)] = coeff
    return SymExpr(coeffs, v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(["drop", "recoefficient", "stray"]),
                                       max_size=3))
def test_one_pass_monomial_basis_matches_two_pass(seed, damages):
    # no damage leaves the polynomial symmetric; several damages raise
    # several errors, and the first one found must be the same
    rng = random.Random(seed)
    v = rng.randint(1, 4)
    shapes = [Partition(())] + partitions_up_to(5, v)
    terms = {}
    for shape in rng.sample(shapes, k=rng.randint(1, 4)):
        coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        terms.update(dict.fromkeys(monomial_symmetric(shape, v).terms, coeff))
    for damage in damages:
        victim = rng.choice(list(terms))
        if damage == "drop" and len(terms) > 1:
            del terms[victim]
        elif damage == "recoefficient":
            terms[victim] += 1
        elif damage == "stray":
            stray = Monomial.of(rng.randrange(v), rng.randint(6, 7))
            terms[stray] = terms.get(stray, 0) + 1
    # the term order decides which shape comes first and which error is raised
    items = list(terms.items())
    rng.shuffle(items)
    p = GradedPoly(variable_ring(v), dict(items))
    try:
        want = two_pass_monomial_basis(p)
    except SymmetryError as exc:
        with pytest.raises(SymmetryError) as raised:
            to_monomial_basis(p)
        assert str(raised.value) == str(exc)
        return
    got = to_monomial_basis(p)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert got.v == want.v


def test_elem_expr_encoding():
    elem = to_elementary(monomial_symmetric(Partition.of(1, 1), 2), 2)
    assert str(elem) == "1*sigma2"


# -- the partition-indexed elimination against the v-variable loop ------------


def leading_monomial(p: GradedPoly) -> Monomial:
    """The largest monomial of ``p`` in graded lex."""
    if not p.terms:
        raise InvalidInputError("zero polynomial has no leading monomial")
    return max(p.terms, key=lambda m: m.order_key(p.ring))


def old_to_elementary(p: GradedPoly, v: int) -> ElemExpr:
    """The former implementation, kept as the oracle: the same leading-term
    elimination, through products of elementary polynomials in v variables."""
    if p.ring.ngens != v:
        raise InvalidInputError("polynomial does not have the declared number of variables")
    if any(d != 2 for d in p.ring.degrees):
        raise InvalidInputError("symmetric calculus expects degree-2 variables")
    _check_symmetric(p, v)
    sigma = sigma_ring(v)
    out = sigma.zero()
    work = p
    while not work.is_zero():
        lead = leading_monomial(work)
        coeff = work.coefficient(lead)
        shape = Partition(tuple(e for _, e in lead.exps))
        conj = shape.conjugate()
        sigma_mono = Monomial.make(
            {i: sum(1 for part in conj.parts if part == i + 1) for i in range(v)}
        )
        out = out + GradedPoly(sigma, {sigma_mono: coeff})
        expansion = p.ring.one()
        for part in conj.parts:
            expansion = expansion * elementary(part, v, p.ring)
        work = work - expansion.scale(coeff)
    return ElemExpr(out, v)


def partitions_of(n):
    """Every partition of n, the empty one for n = 0."""
    return [Partition(())] if n == 0 else [p for p in partitions_up_to(n, n) if p.weight == n]


def dominates(lam, mu):
    return all(sum(mu.parts[:k]) <= sum(lam.parts[:k]) for k in range(1, len(mu) + 1))


def brute_zero_one_count(rows, cols):
    """0-1 matrices with the given row and column sums, one row at a time."""
    count = 0
    for choice in itertools.product(
        *(itertools.combinations(range(len(cols)), r) for r in rows)
    ):
        sums = [0] * len(cols)
        for chosen in choice:
            for j in chosen:
                sums[j] += 1
        count += tuple(sums) == tuple(cols)
    return count


def test_to_elementary_matches_variable_loop_on_every_small_partition():
    pairs = 0
    for n in range(7):
        for shape in partitions_of(n):
            for v in range(max(1, len(shape)), 9):
                s_I = monomial_symmetric(shape, v)
                want = str(old_to_elementary(s_I, v))
                assert str(to_elementary(s_I, v)) == want, (shape, v)
                assert str(SymExpr({shape: Fraction(1)}, v).to_elementary()) == want
                pairs += 1
    assert pairs == 192


def test_to_elementary_matches_variable_loop_on_combinations(rng):
    for _ in range(40):
        v = rng.randint(1, 5)
        shapes = [Partition(())] + partitions_up_to(7, v)
        poly = variable_ring(v).zero()
        for shape in rng.sample(shapes, k=rng.randint(2, 5)):
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            poly = poly + monomial_symmetric(shape, v).scale(coeff)
        got = to_elementary(poly, v)
        assert str(got) == str(old_to_elementary(poly, v))
        assert got.poly == old_to_elementary(poly, v).poly
        assert got.expand() == poly


def test_sigma_top_matches_power_sum_closed_form():
    # s_I = (-1)^(l-1) (l-1)!/prod(mult!) p_n + decomposables, and
    # p_n = (-1)^(n-1) n sigma_n + decomposables, for n = |I| <= v
    for n in range(1, 10):
        for shape in partitions_of(n):
            mults = math.prod(math.factorial(shape.parts.count(p)) for p in set(shape.parts))
            want = Fraction((-1) ** (len(shape) - 1) * math.factorial(len(shape) - 1), mults)
            want *= (-1) ** (n - 1) * n
            for v in (n, n + 2):
                elem = SymExpr({shape: Fraction(1)}, v).to_elementary()
                assert sigma_top_coefficient(elem, n) == want, (shape, v)


def test_zero_one_count_matches_enumeration():
    for n in range(7):
        for rows in partitions_of(n):
            for cols in partitions_of(n):
                assert _zero_one_count(rows.parts, cols.parts) == brute_zero_one_count(
                    rows.parts, cols.parts
                ), (rows, cols)


def test_zero_one_count_is_unitriangular_in_dominance_order():
    for n in range(9):
        for lam in partitions_of(n):
            conj = lam.conjugate().parts
            assert _zero_one_count(conj, lam.parts) == 1
            for mu in partitions_of(n):
                if not dominates(lam, mu):
                    assert _zero_one_count(conj, mu.parts) == 0, (lam, mu)
                else:
                    assert _zero_one_count(conj, mu.parts) >= 1, (lam, mu)


def test_dominated_lists_exactly_the_dominated_shapes():
    for n in range(9):
        for lam in partitions_of(n):
            for v in range(max(1, len(lam)), n + 2):
                want = [mu.parts for mu in partitions_of(n) if len(mu) <= v and dominates(lam, mu)]
                assert _dominated(lam.parts, v) == sorted(want, reverse=True), (lam, v)
                assert _dominated(lam.parts, v)[0] == lam.parts


def test_sym_expr_checks_arity_and_drops_zero_coefficients():
    with pytest.raises(ArityError, match=r"partition \(3,1\) has more parts than variables \(1\)"):
        SymExpr({Partition.of(3, 1): Fraction(1)}, 1)
    elem = SymExpr({Partition.of(2): Fraction(0), Partition(()): Fraction(3)}, 2).to_elementary()
    assert str(elem) == "3"
    assert str(SymExpr({}, 3).to_elementary()) == "0"
    assert elem.poly.ring == sigma_ring(2)


def test_to_elementary_rejects_ring_mismatches():
    with pytest.raises(InvalidInputError):
        to_elementary(monomial_symmetric(Partition.of(2, 1), 3), 4)
    ring = GradedRing(("a", "b"), (2, 4))
    with pytest.raises(InvalidInputError):
        to_elementary(parse_poly(ring, "a*b"), 2)


def test_to_elementary_builds_no_variable_products(monkeypatch):
    # the conversion works on partitions: products of polynomials never run
    def refuse(*_):
        raise AssertionError("polynomial product formed")

    monkeypatch.setattr(GradedPoly, "__mul__", refuse)
    elem = SymExpr({Partition.of(4, 3, 2, 1): Fraction(1)}, 10).to_elementary()
    assert sigma_top_coefficient(elem, 10) == 60
