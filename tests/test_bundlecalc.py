import itertools
import math
from fractions import Fraction

import pytest

from charcalc.bundlecalc import (
    Dual,
    EvaluationModelError,
    Lambda2,
    Sum,
    Tensor,
    Trivial,
    Universal,
    chern_class,
    chern_roots,
    parse_bundle_expr,
    sphere_eval,
    total_chern_class,
    universal_leaves,
)
from charcalc.exactring import InvalidInputError
from charcalc.symfun import (
    Partition,
    sigma_top_coefficient,
    to_elementary,
    to_monomial_basis,
)


def test_ranks():
    E = Universal(4)
    assert E.rank == 4
    assert Dual(E).rank == 4
    assert Sum(E, Trivial(3)).rank == 7
    assert Tensor(E, Universal(2)).rank == 8
    assert Lambda2(E).rank == 6


def test_roots_universal():
    roots = chern_roots(Universal(2))
    ring = roots[0].ring
    assert [str(r) for r in roots] == ["1*t1", "1*t2"]
    assert ring.generators == ("t1", "t2")


def test_roots_lambda2():
    roots = chern_roots(Lambda2(Universal(4)))
    ring = roots[0].ring
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    expected = [ring.gen(i) + ring.gen(j) for i, j in pairs]
    assert roots == expected


def test_roots_shared_leaf_dual_sum():
    E = Universal(2)
    roots = chern_roots(Sum(E, Dual(E)))
    ring = roots[0].ring
    assert ring.ngens == 2
    assert roots == [ring.gen(0), ring.gen(1), -ring.gen(0), -ring.gen(1)]


def test_roots_distinct_leaves_get_disjoint_blocks():
    roots = chern_roots(Sum(Universal(2), Universal(3)))
    assert roots[0].ring.ngens == 5


def test_roots_tensor_and_trivial():
    E, F = Universal(2), Universal(2)
    roots = chern_roots(Tensor(E, F))
    ring = roots[0].ring
    expected = [ring.gen(i) + ring.gen(2 + j) for i in range(2) for j in range(2)]
    assert roots == expected
    assert all(r.is_zero() for r in chern_roots(Trivial(3)))


def test_top_chern_class_is_elementary():
    for m in range(1, 5):
        cls = chern_class(Universal(m), m)
        ring = cls.ring
        product = ring.one()
        for i in range(m):
            product = product * ring.gen(i)
        assert cls == product


def test_chern_class_above_rank_vanishes():
    assert chern_class(Universal(3), 4).is_zero()
    assert chern_class(Lambda2(Universal(3)), 4).is_zero()


def small_bundles(E, F):
    return [E, F, Dual(E), Sum(E, Trivial(1)), Lambda2(E)]


def test_whitney_formula():
    # c_k(E + F) equals the convolution of the summands' classes, computed in
    # the ambient root ring of the sum so the blocks line up.
    E, F = Universal(2), Universal(3)
    for left, right in itertools.product(small_bundles(E, F), repeat=2):
        total = Sum(left, right)
        bound = 2 * (left.rank + right.rank)
        left_total = total_chern_class_in(total, left, bound)
        right_total = total_chern_class_in(total, right, bound)
        product = left_total * right_total
        for k in range(0, left.rank + right.rank + 1):
            assert chern_class(total, k) == product.graded_component(2 * k)


def total_chern_class_in(ambient_expr, part_expr, max_degree):
    """Total class of a summand computed inside the ambient root ring."""
    from charcalc.bundlecalc import root_ring

    ring, offsets = root_ring(ambient_expr)

    def roots_of(node):
        from charcalc.bundlecalc import Universal, Trivial, Dual, Sum, Tensor, Lambda2

        if isinstance(node, Universal):
            start = offsets[id(node)]
            return [ring.gen(start + i) for i in range(node.m)]
        if isinstance(node, Trivial):
            return [ring.zero()] * node.r
        if isinstance(node, Dual):
            return [-r for r in roots_of(node.inner)]
        if isinstance(node, Sum):
            return roots_of(node.left) + roots_of(node.right)
        if isinstance(node, Tensor):
            return [a + b for a in roots_of(node.left) for b in roots_of(node.right)]
        if isinstance(node, Lambda2):
            inner = roots_of(node.inner)
            return [inner[i] + inner[j] for i in range(len(inner)) for j in range(i + 1, len(inner))]
        raise AssertionError(node)

    total = ring.one()
    for root in roots_of(part_expr):
        total = (total * (ring.one() + root)).truncate(max_degree)
    return total


def test_duality_sign():
    E = Universal(3)
    for k in range(0, 4):
        assert chern_class(Dual(E), k) == chern_class(E, k).scale((-1) ** k)
    L = Lambda2(Universal(4))
    for k in range(0, 7):
        assert chern_class(Dual(L), k) == chern_class(L, k).scale((-1) ** k)


def test_trivial_summand_does_not_change_classes():
    E = Universal(3)
    padded = Sum(E, Trivial(2))
    for k in range(0, 4):
        assert chern_class(padded, k) == chern_class(E, k)


def test_odd_classes_of_conjugate_sum_vanish():
    for m in range(1, 5):
        E = Universal(m)
        doubled = Sum(E, Dual(E))
        for k in range(1, 2 * m + 1, 2):
            assert chern_class(doubled, k).is_zero()


def test_lambda2_rank4_monomial_symmetric_expansion():
    cls = chern_class(Lambda2(Universal(4)), 4)
    sym = to_monomial_basis(cls)
    assert dict(sym.coeffs) == {
        Partition.of(3, 1): Fraction(2),
        Partition.of(2, 2): Fraction(5),
        Partition.of(2, 1, 1): Fraction(13),
        Partition.of(1, 1, 1, 1): Fraction(30),
    }


def test_sphere_eval_values():
    E = Universal(4)
    assert sphere_eval(E, 4) == 6
    assert sphere_eval(Lambda2(E), 4) == -24
    combo = Lambda2(E)
    for _ in range(4):
        combo = Sum(combo, E)
    assert combo.rank == 22
    assert sphere_eval(combo, 4) == 0


def test_sphere_eval_additive_over_sum():
    E = Universal(3)
    left = Lambda2(E)
    right = Sum(E, Trivial(1))
    for k in (1, 2, 3):
        assert sphere_eval(Sum(left, right), k) == sphere_eval(left, k) + sphere_eval(right, k)


def expanded_sphere_eval(expr, k):
    """Oracle: expand c_k over the Chern roots, convert it to the elementary
    basis and read off ``(k-1)!`` times the coefficient of sigma_k."""
    v = universal_leaves(expr)[0].m
    cls = chern_class(expr, k)
    if cls.is_zero():
        return Fraction(0)
    elem = to_elementary(cls, v)
    return Fraction(math.factorial(k - 1)) * sigma_top_coefficient(elem, k)


# The tree shapes of the benchmark's sphere panel, over one leaf.
SPHERE_TEMPLATES = [
    lambda e: e,
    lambda e: Lambda2(e),
    lambda e: Sum(e, Trivial(1)),
    lambda e: Tensor(e, e),
    lambda e: Sum(Lambda2(e), e),
    lambda e: Lambda2(Sum(e, Trivial(1))),
    lambda e: Sum(Tensor(e, e), Lambda2(e)),
    lambda e: Tensor(Sum(e, Trivial(1)), e),
]


def test_sphere_eval_matches_expansion():
    for m in range(1, 6):
        for template in SPHERE_TEMPLATES:
            E = Universal(m)
            plain = template(E)
            # the oracle needs seconds for ranks 25 to 35; duals there only repeat signs
            variants = [plain, template(Dual(E)), Dual(plain)] if plain.rank <= 16 else [plain]
            for expr in variants:
                for k in range(1, m + 2):
                    assert sphere_eval(expr, k) == expanded_sphere_eval(expr, k), (expr, k)


def test_sphere_eval_past_the_leaf_rank_is_zero():
    E = Universal(2)
    for expr in (E, Lambda2(E), Tensor(E, Dual(E)), Sum(E, Trivial(3))):
        assert sphere_eval(expr, 3) == 0
        assert sphere_eval(expr, 50) == 0


def test_sphere_eval_multiple_leaves_rejected():
    with pytest.raises(EvaluationModelError):
        sphere_eval(Sum(Universal(2), Universal(2)), 2)


def test_parse_bundle_expr():
    expr = parse_bundle_expr("sum(E4,dual(E4),lambda2(E4),triv(2))")
    assert expr.rank == 4 + 4 + 6 + 2
    # shared leaf: only one block of four roots
    assert chern_roots(expr)[0].ring.ngens == 4
    assert sphere_eval(parse_bundle_expr("lambda2(E4)"), 4) == -24
    with pytest.raises(InvalidInputError):
        parse_bundle_expr("spam(E2)")
    with pytest.raises(InvalidInputError):
        parse_bundle_expr("sum(E2)")
    with pytest.raises(InvalidInputError):
        parse_bundle_expr("E2 trailing")


def test_balanced_tensor_matches_left_deep():
    expr = parse_bundle_expr("tensor(E2,E2,E2,E2,E2)")
    E = universal_leaves(expr)[0]
    left_deep = E
    for _ in range(4):
        left_deep = Tensor(left_deep, E)
    assert chern_roots(expr) == chern_roots(left_deep)
    for k in range(1, 4):
        assert chern_class(expr, k) == chern_class(left_deep, k)
        assert sphere_eval(expr, k) == sphere_eval(left_deep, k)


def test_deep_nesting_walks_without_recursion():
    E = Universal(2)
    expr = E
    for _ in range(10000):
        expr = Dual(expr)
    assert universal_leaves(expr) == [E]
    assert chern_roots(expr) == chern_roots(E)
    assert chern_class(expr, 2) == chern_class(E, 2)
    assert sphere_eval(Dual(expr), 1) == -sphere_eval(E, 1)


def test_rank_walks_without_recursion():
    expr = Universal(2)
    for _ in range(10000):
        expr = Dual(expr)
    assert expr.rank == 2
    assert Lambda2(Tensor(expr, Trivial(3))).rank == 15


def test_tensor_with_line_shifts_roots():
    # tensoring with a line bundle adds its root to each root
    E, L = Universal(2), Universal(1)
    roots = chern_roots(Tensor(E, L))
    ring = roots[0].ring
    assert roots == [ring.gen(0) + ring.gen(2), ring.gen(1) + ring.gen(2)]
