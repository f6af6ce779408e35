import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.equivariant import (
    TrivialActionError,
    WeightedCircleAction,
    moment_integral,
    mu_of_circle,
    normalized_moment,
    nu1_at_fixed_point,
    simplex_integral,
    simplex_ring,
    su_product_integral,
    su_weight_vector,
)
from charcalc.exactring import GradedPoly, InvalidInputError, parse_poly


# -- independent iterated-integration oracle -------------------------------------


def _multinomial_expand(v, power):
    """(1 - x_1 - ... - x_v)^power as {exponent tuple: coefficient}."""
    out = {}
    for combo in itertools.product(range(power + 1), repeat=v):
        total = sum(combo)
        if total > power:
            continue
        coeff = Fraction(math.factorial(power))
        for a in combo:
            coeff /= math.factorial(a)
        coeff /= math.factorial(power - total)
        coeff *= (-1) ** total
        out[combo] = out.get(combo, Fraction(0)) + coeff
    return out


def simplex_integral_oracle(alpha, n):
    """Integrate x^alpha over the simplex by symbolic one-variable steps."""
    exps = tuple(alpha) + (0,) * (n - len(alpha))
    poly = {exps: Fraction(1)}
    for m in range(n, 0, -1):
        out = {}
        for exponents, coeff in poly.items():
            e = exponents[m - 1]
            scale = coeff / (e + 1)
            for combo, c in _multinomial_expand(m - 1, e + 1).items():
                key = tuple(exponents[i] + combo[i] for i in range(m - 1))
                out[key] = out.get(key, Fraction(0)) + scale * c
        poly = out
    return poly.get((), Fraction(0))


def test_simplex_integral_examples():
    assert simplex_integral((0, 0), 2) == Fraction(1, 2)
    assert simplex_integral((1, 0), 2) == Fraction(1, 6)
    assert simplex_integral((2, 0), 2) == Fraction(1, 12)
    assert simplex_integral((), 3) == Fraction(1, 6)


def test_simplex_closed_form_matches_oracle_small():
    for n in (1, 2, 3):
        for total in range(0, 5):
            for alpha in itertools.product(range(total + 1), repeat=n):
                if sum(alpha) != total:
                    continue
                assert simplex_integral(alpha, n) == simplex_integral_oracle(alpha, n)


def test_simplex_integral_validation():
    with pytest.raises(InvalidInputError):
        simplex_integral((1, 2, 3), 2)
    with pytest.raises(InvalidInputError):
        simplex_integral((-1,), 2)


# -- moment polynomials ----------------------------------------------------------


def test_normalized_moment_values():
    ring = simplex_ring(1)
    h = normalized_moment(WeightedCircleAction(1, (1, 0)))
    assert h == parse_poly(ring, "1/2 - x1")
    assert moment_integral(h, 1) == 0

    ring2 = simplex_ring(2)
    h2 = normalized_moment(WeightedCircleAction(2, (1, -1, 0)))
    assert h2 == parse_poly(ring2, "1 - 2*x1 - x2")
    assert moment_integral(h2, 2) == 0


def test_normalized_moment_matches_a_sum_of_terms(rng, monkeypatch):
    """Oracle: the moment as a sum of one-term polynomials, zeros dropped, in
    the same term order; the moment itself adds no polynomials."""
    cases = [(3, (0, 0, 1, 0)), (2, (1, 2, 3)), (4, (5, -5, 5, 0, 1))]
    cases += [(n, tuple(rng.randint(-3, 3) for _ in range(n + 1)))
              for n in rng.choices(range(1, 7), k=30)]
    for n, weights in cases:
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        ring = simplex_ring(n)
        want = ring.constant(Fraction(weights[0]) - action.mean_weight())
        for j in range(1, n + 1):
            want = want + ring.gen(j - 1).scale(weights[j] - weights[0])
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "__add__", None)
            got = normalized_moment(action)
        assert list(got.terms.items()) == list(want.terms.items()), weights


def test_trivial_action_rejected():
    with pytest.raises(TrivialActionError):
        WeightedCircleAction(2, (5, 5, 5))


def test_moment_integral_examples():
    ring = simplex_ring(1)
    assert moment_integral(ring.one(), 1) == 1
    assert moment_integral(parse_poly(ring, "x1 - 1/2") ** 2, 1) == Fraction(1, 12)
    ring3 = simplex_ring(3)
    assert moment_integral(ring3.one(), 3) == 1


def test_moment_integral_of_normalized_moment_vanishes(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        assert moment_integral(normalized_moment(action), n) == 0


# -- the circle classes ----------------------------------------------------------


def test_mu_of_circle_examples():
    assert mu_of_circle(WeightedCircleAction(1, (1, 0)), 1) == 0
    assert mu_of_circle(WeightedCircleAction(1, (1, 0)), 2) == Fraction(1, 4)
    assert mu_of_circle(WeightedCircleAction(2, (1, -1, 0)), 2) == 1


def test_mu_of_circle_even_nonvanishing(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        for k in (2, 4, 6):
            assert mu_of_circle(action, k) != 0


def expanded_mu_of_circle(action, k):
    """Oracle: expand H^k over the simplex and integrate it monomial by monomial."""
    h = normalized_moment(action)
    value = moment_integral(h ** k, action.n)
    sign = -1 if k % 2 else 1
    return Fraction(sign * math.comb(action.n + k, action.n)) * value


def test_mu_of_circle_matches_expansion(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        weights = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        for k in range(1, 7):
            assert mu_of_circle(action, k) == expanded_mu_of_circle(action, k), (weights, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(lambda w: len(set(w)) > 1),
    st.integers(1, 5),
)
def test_mu_of_circle_even_powers_are_positive(weights, half_k):
    # even complete homogeneous polynomials are positive definite (Hunter 1977)
    action = WeightedCircleAction(len(weights) - 1, tuple(weights))
    assert mu_of_circle(action, 2 * half_k) > 0


def test_mu_of_circle_scaling(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        weights = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        for factor in (2, -3):
            scaled = WeightedCircleAction(n, tuple(factor * w for w in weights))
            for k in (1, 2, 3, 4):
                assert mu_of_circle(scaled, k) == Fraction(factor) ** k * mu_of_circle(action, k)


def test_mu_of_circle_permutation_invariance(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        weights = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        shuffled = list(weights)
        rng.shuffle(shuffled)
        permuted = WeightedCircleAction(n, tuple(shuffled))
        for k in (1, 2, 3):
            assert mu_of_circle(action, k) == mu_of_circle(permuted, k)


def test_mu_of_circle_shift_invariance(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        weights = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        shifted = WeightedCircleAction(n, tuple(w + 7 for w in weights))
        for k in (1, 2, 3, 4):
            assert mu_of_circle(action, k) == mu_of_circle(shifted, k)


# -- the standard commuting circles ----------------------------------------------


def test_su_weight_vectors():
    assert su_weight_vector(4, 1) == (1, -1, 0, 0)
    assert su_weight_vector(4, 2) == (1, 1, -2, 0)
    assert su_weight_vector(4, 3) == (1, 1, 1, -3)
    with pytest.raises(InvalidInputError):
        su_weight_vector(3, 3)


def test_su_product_integral_values():
    # frozen values, recomputed through the independent simplex oracle below
    assert su_product_integral(2, 2) == Fraction(1, 3)
    assert su_product_integral(3, 3) == Fraction(1, 15)
    assert su_product_integral(4, 2) == Fraction(1, 10)
    assert su_product_integral(6, 4) == Fraction(1, 252)
    assert su_product_integral(8, 6) == Fraction(1, 5148)
    assert su_product_integral(10, 8) == Fraction(1, 97240)
    # the free-ring expansion takes seconds here
    assert su_product_integral(12, 10) == Fraction(1, 1763580)


def test_su_product_integral_nonzero_panel():
    for ell in range(2, 5):
        for k in range(2, ell + 1):
            assert su_product_integral(ell, k) != 0


def test_su_product_matches_oracle():
    for ell in (2, 3, 4):
        for k in range(2, ell + 1):
            n = ell - 1
            integrand = normalized_moment(
                WeightedCircleAction(n, su_weight_vector(ell, 1))
            ) ** 2
            for j in range(2, k):
                integrand = integrand * normalized_moment(
                    WeightedCircleAction(n, su_weight_vector(ell, j))
                )
            direct = Fraction(0)
            for monomial, coeff in integrand.terms.items():
                alpha = [0] * n
                for index, e in monomial.exps:
                    alpha[index] = e
                direct += coeff * simplex_integral_oracle(alpha, n)
            assert su_product_integral(ell, k) == math.factorial(n) * direct


def expanded_su_product(ell, k):
    """Oracle: the former body, which multiplies the moment polynomials in the
    free ring and integrates the product term by term."""
    n = ell - 1
    integrand = normalized_moment(WeightedCircleAction(n, su_weight_vector(ell, 1))) ** 2
    for j in range(2, k):
        integrand = integrand * normalized_moment(WeightedCircleAction(n, su_weight_vector(ell, j)))
    return moment_integral(integrand, n)


def test_su_product_matches_expansion():
    cases = [(ell, k) for ell in range(2, 8) for k in range(2, ell + 1)] + [(8, 6)]
    for ell, k in cases:
        assert su_product_integral(ell, k) == expanded_su_product(ell, k), (ell, k)


def test_su_product_range_validation():
    with pytest.raises(InvalidInputError):
        su_product_integral(3, 4)
    with pytest.raises(InvalidInputError):
        su_product_integral(3, 1)


# -- fixed-point values ----------------------------------------------------------


def test_nu1_values():
    action = WeightedCircleAction(1, (1, 0))
    assert nu1_at_fixed_point(action, 0) == Fraction(-1, 2)
    assert nu1_at_fixed_point(action, 1) == Fraction(1, 2)


def test_nu1_vanishes_at_average_vertex():
    action = WeightedCircleAction(2, (0, 1, -1))
    assert nu1_at_fixed_point(action, 0) == 0


def test_nu1_nonzero_at_extrema(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        if len(set(weights)) == 1:
            continue
        action = WeightedCircleAction(n, weights)
        top = max(range(n + 1), key=lambda j: weights[j])
        bottom = min(range(n + 1), key=lambda j: weights[j])
        assert nu1_at_fixed_point(action, top) != 0
        assert nu1_at_fixed_point(action, bottom) != 0


def test_nu1_matches_moment_integral():
    # the closed form agrees with actually integrating H - H(p)
    action = WeightedCircleAction(2, (3, -1, 0))
    h = normalized_moment(action)
    ring = h.ring
    for vertex, point in ((0, (0, 0)), (1, (1, 0)), (2, (0, 1))):
        value_at_p = h.constant_term()
        for index, coord in enumerate(point):
            if coord:
                value_at_p += h.coefficient(
                    next(m for m in ring.gen(index).terms)
                )
        shifted = h - ring.constant(value_at_p)
        assert nu1_at_fixed_point(action, vertex) == moment_integral(shifted, 2)


def test_nu1_vertex_validation():
    action = WeightedCircleAction(1, (1, 0))
    with pytest.raises(InvalidInputError):
        nu1_at_fixed_point(action, 2)
