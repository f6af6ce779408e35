import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.exactring import GradedPoly, InvalidInputError, Monomial, parse_poly
from charcalc.symfun import (
    ArityError,
    Partition,
    SymmetryError,
    elementary,
    monomial_symmetric,
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


def test_elem_expr_encoding():
    elem = to_elementary(monomial_symmetric(Partition.of(1, 1), 2), 2)
    assert str(elem) == "1*sigma2"
