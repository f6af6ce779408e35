import functools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charcalc.exactring import (
    GradedPoly,
    InvalidInputError,
    RingPresentation,
    monomials_of_degree,
)
from charcalc import exactring
from charcalc.cli import _parse_space
from charcalc.flagcoh import (
    flag_presentation,
    grassmannian_presentation,
    point_presentation,
    projective_bundle,
    sphere_product_ring,
)
from charcalc.obstruction import (
    ObstructionInput,
    degree_basis,
    hard_lefschetz_check,
    ideal_membership,
    pairing_kernel,
    whitehead_cube_criterion,
    whitehead_square_criterion,
)

from conftest import (
    dense_in_span,
    enumerated_basis,
    fraction_row_reduce,
    fraction_rule_presentation,
    is_reducible,
    random_dense_matrix,
    sparse_row,
)


def projective_space(n):
    point = point_presentation()
    return projective_bundle(point, [point.ring.zero()] * (n + 1), n)


def product_of_spheres():
    return sphere_product_ring([2, 2], names=("s1", "s2"))


def eliminating(pres):
    """A copy of ``pres`` in the custom family, on which hard Lefschetz is
    answered by elimination rather than by a family's closed form."""
    return RingPresentation(
        pres.ring, pres.rules, relations=pres.relations, family="custom",
        top_degree=pres.top_degree, basis=pres.basis,
    )


# -- degree bases ----------------------------------------------------------------


def test_degree_basis_truncated_polynomial_ring():
    pres = projective_space(2)  # ring on c with c^3 -> 0
    basis = degree_basis(pres, 4)
    assert [m.text(pres.ring) for m in basis.monomials] == ["c^2"]
    assert basis.dimension == 1
    assert degree_basis(pres, 6).dimension == 0
    assert degree_basis(pres, -2).dimension == 0
    assert degree_basis(pres, 3).dimension == 0


def test_degree_basis_grassmannian_vector():
    pres = grassmannian_presentation(2, 2)
    dims = [degree_basis(pres, d).dimension for d in range(0, 9, 2)]
    assert dims == [1, 1, 2, 1, 1]
    assert sum(dims) == 6


# -- ideal membership ------------------------------------------------------------


def test_zero_is_always_member():
    pres = projective_space(2)
    assert ideal_membership(pres.ring.zero(), [], pres)
    assert ideal_membership(pres.ring.zero(), [pres.ring.gen(0)], pres)


def test_membership_shortcuts_skip_elimination(monkeypatch):
    """``z = 0``, and ``c^3`` whose normal form in CP^2 is 0, are members
    without any elimination; the generators are still validated first."""
    pres = projective_space(2)
    c = pres.ring.gen("c")

    def refuse(*_):
        raise AssertionError("a membership shortcut eliminated")

    monkeypatch.setattr(exactring, "_eliminate", refuse)
    monkeypatch.setattr(exactring, "_make_primitive", refuse)
    assert ideal_membership(c ** 3, [c ** 2], pres)
    assert ideal_membership(pres.ring.zero(), [c], pres)
    with pytest.raises(InvalidInputError, match="generators must be homogeneous"):
        ideal_membership(pres.ring.zero(), [c + c ** 2], pres)


def test_membership_in_square_zero_ring():
    pres = product_of_spheres()
    s1, s2 = pres.ring.gens()
    assert ideal_membership(s1 * s2, [s2], pres)
    assert ideal_membership(s1 * s2, [s1], pres)
    assert not ideal_membership(s1 * s2, [], pres)
    assert not ideal_membership(s1, [s2], pres)


def test_membership_empty_ideal():
    pres = projective_space(2)
    c = pres.ring.gen(0)
    assert not ideal_membership(c ** 2, [], pres)


def test_membership_requires_homogeneous():
    pres = projective_space(2)
    c = pres.ring.gen(0)
    with pytest.raises(InvalidInputError):
        ideal_membership(c + c ** 2, [c], pres)


def brute_force_membership(z, gens, pres):
    """Oracle: enumerate products against all monomials and eliminate densely."""
    reduced = pres.normal_form(z)
    if reduced.is_zero():
        return True
    d = reduced.homogeneous_degree()
    columns = [
        m for m in monomials_of_degree(pres.ring, d) if not is_reducible(pres, m)
    ]
    index = {m: j for j, m in enumerate(columns)}

    def vector(p):
        out = [Fraction(0)] * len(columns)
        for monomial, coeff in p.terms.items():
            out[index[monomial]] = coeff
        return out

    rows = []
    for g in gens:
        e = pres.normal_form(g).homogeneous_degree()
        for multiplier in monomials_of_degree(pres.ring, d - e):
            product = pres.normal_form(g * GradedPoly(pres.ring, {multiplier: 1}))
            rows.append(vector(product))
    return dense_in_span(rows, vector(reduced))


def test_membership_agrees_with_brute_force(rng):
    pres = grassmannian_presentation(2, 2)
    y1, y2 = pres.ring.gens()
    candidates = [y1 ** 2, y2, y1 * y2, y1 ** 3, y2 ** 2, y1 ** 2 * y2, (y1 ** 2 + y2)]
    gen_choices = [[y1], [y2], [y1 ** 2], [y2 - y1 ** 2], [y1, y2], []]
    for z in candidates:
        for gens in gen_choices:
            assert ideal_membership(z, gens, pres) == brute_force_membership(z, gens, pres)


def test_membership_agrees_with_dense_oracle(rng):
    # In a product of two-spheres the degree-2 component has the generators
    # as its basis, and a linear generator has only the multiplier 1, so
    # ideal membership there is exactly span membership of coefficient rows.
    spheres = {}
    for _ in range(150):
        height, width = rng.randint(0, 12), rng.randint(1, 12)
        rows = random_dense_matrix(rng, height, width)
        if width not in spheres:
            spheres[width] = sphere_product_ring([2] * width)
        pres = spheres[width]
        ring = pres.ring
        columns = degree_basis(pres, 2).monomials

        def linear(vector):
            return GradedPoly(ring, {m: a for m, a in zip(columns, vector)})

        if rows and rng.random() < 0.5:
            target = [Fraction(0)] * width
            for row in rows:
                t = Fraction(rng.randint(-2, 2))
                target = [x + t * y for x, y in zip(target, row)]
        else:
            target = [Fraction(rng.randint(-2, 2)) for _ in range(width)]
        gens = [linear(row) for row in rows]
        assert ideal_membership(linear(target), gens, pres) == dense_in_span(rows, target)


# -- the square and cube criteria ------------------------------------------------


def test_pairing_kernel():
    pres = product_of_spheres()
    data = ObstructionInput(pres, {"s1": 1, "s2": 2}, pres.ring.gen("s1"))
    kernel = pairing_kernel(data)
    assert len(kernel) == 1
    assert data.pairing_value(kernel[0]) == 0


def test_square_criterion_projective_spaces():
    cp1 = projective_space(1)
    assert whitehead_square_criterion(
        ObstructionInput(cp1, {"c": 1}, cp1.ring.gen("c"))
    )
    cp2 = projective_space(2)
    assert not whitehead_square_criterion(
        ObstructionInput(cp2, {"c": 1}, cp2.ring.gen("c"))
    )


def test_square_criterion_product_of_spheres():
    pres = product_of_spheres()
    data = ObstructionInput(pres, {"s1": 1}, pres.ring.gen("s1"))
    assert whitehead_square_criterion(data)


def test_square_criterion_pairing_zero_rejected():
    pres = product_of_spheres()
    with pytest.raises(InvalidInputError):
        whitehead_square_criterion(
            ObstructionInput(pres, {"s1": 1}, pres.ring.gen("s2"))
        )


def test_square_criterion_invariance_under_allowed_moves():
    pres = product_of_spheres()
    s1, s2 = pres.ring.gens()
    base = whitehead_square_criterion(ObstructionInput(pres, {"s1": 1}, s1))
    for scale in (1, -1, Fraction(2, 3), 5):
        for shift in (0, 1, -2):
            c = s1.scale(scale) + s2.scale(shift)
            got = whitehead_square_criterion(ObstructionInput(pres, {"s1": 1}, c))
            assert got == base
    cp2 = projective_space(2)
    base2 = whitehead_square_criterion(ObstructionInput(cp2, {"c": 1}, cp2.ring.gen("c")))
    for scale in (2, Fraction(-1, 2)):
        c = cp2.ring.gen("c").scale(scale)
        assert whitehead_square_criterion(ObstructionInput(cp2, {"c": 1}, c)) == base2


def test_cube_criterion_values():
    cp2 = projective_space(2)
    assert whitehead_cube_criterion(ObstructionInput(cp2, {"c": 1}, cp2.ring.gen("c")))
    cp3 = projective_space(3)
    assert not whitehead_cube_criterion(
        ObstructionInput(cp3, {"c": 1}, cp3.ring.gen("c"))
    )
    pres = product_of_spheres()
    assert whitehead_cube_criterion(ObstructionInput(pres, {"s1": 1}, pres.ring.gen("s1")))


def test_cube_criterion_invariance():
    cp3 = projective_space(3)
    base = whitehead_cube_criterion(ObstructionInput(cp3, {"c": 1}, cp3.ring.gen("c")))
    for scale in (3, Fraction(-2, 5)):
        c = cp3.ring.gen("c").scale(scale)
        assert whitehead_cube_criterion(ObstructionInput(cp3, {"c": 1}, c)) == base


# -- hard Lefschetz ---------------------------------------------------------------


def test_hard_lefschetz_projective_spaces():
    for n in range(1, 9):
        pres = projective_space(n)
        for scale in (1, -1, Fraction(7, 2)):
            assert hard_lefschetz_check(pres, pres.ring.gen("c").scale(scale), n)


def test_hard_lefschetz_product_of_spheres():
    pres = product_of_spheres()
    s1, s2 = pres.ring.gens()
    assert not hard_lefschetz_check(pres, s1, 2)
    assert hard_lefschetz_check(pres, s1 + s2, 2)


def test_hard_lefschetz_grassmannian():
    """y1 on gr(m, k) is a Kahler class up to scale."""
    for m in range(1, 5):
        for k in range(1, 5):
            pres = grassmannian_presentation(m, k)
            for scale in (1, -2, Fraction(3, 5)):
                assert hard_lefschetz_check(pres, pres.ring.gen("y1").scale(scale), m * k)


def test_hard_lefschetz_full_flag():
    pres = flag_presentation((1, 1, 1))
    a, b = pres.ring.gens()
    # a alone is degenerate in this ring, but a generic combination works
    assert hard_lefschetz_check(pres, a + b.scale(2), 3) or hard_lefschetz_check(
        pres, a.scale(2) + b, 3
    )


def expanded_hard_lefschetz(pres, a, n):
    """Oracle: every power a^k expanded in the free ring, ranks over Fractions."""
    for k in range(1, n + 1):
        source = degree_basis(pres, n - k).monomials
        target = degree_basis(pres, n + k).monomials
        if len(source) != len(target):
            return False
        index = {m: j for j, m in enumerate(target)}
        power = a ** k
        rows = [
            {index[m]: c for m, c in pres.normal_form(
                power * GradedPoly(pres.ring, {monomial: Fraction(1)})
            ).terms.items()}
            for monomial in source
        ]
        if len(fraction_row_reduce(rows)) != len(rows):
            return False
    return True


def test_hard_lefschetz_matches_expanded_powers(rng):
    spaces = [
        (projective_space(4), 4),
        (sphere_product_ring([2, 2, 2]), 3),
        (flag_presentation((1, 1, 1)), 3),
        (flag_presentation((2, 1, 1)), 5),
        (grassmannian_presentation(3, 2), 6),
        (eliminating(sphere_product_ring([2, 2, 2])), 3),
    ]
    for pres, n in spaces:
        degree_two = [g for g, d in zip(pres.ring.gens(), pres.ring.degrees) if d == 2]
        for _ in range(4):
            a = pres.ring.zero()
            for g in degree_two:
                a = a + g.scale(rng.choice([-2, -1, 0, 1, 3]))
            if a.is_zero():
                continue
            assert hard_lefschetz_check(pres, a, n) == expanded_hard_lefschetz(pres, a, n)


@pytest.mark.parametrize("space", ["gr:3,3", "flag:2,1,1", "pe:2,2", "sphere:2,2,4", "fractions"])
def test_product_rows_are_positive_multiples_of_normal_form_rows(space, rng):
    """Each packed row is a positive multiple of the coordinates of
    ``normal_form(p*m)`` cleared of denominators."""
    pres = fraction_rule_presentation() if space == "fractions" else _parse_space(space)
    for e in (2, 4):
        for d in range(e, e + 8, 2):
            multipliers = enumerated_basis(pres, d - e)
            columns = enumerated_basis(pres, d)
            index = {m: j for j, m in enumerate(columns)}
            for _ in range(3):
                p = pres.normal_form(GradedPoly(pres.ring, {
                    m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for m in enumerated_basis(pres, e)
                }))
                rows = pres.product_rows(p, multipliers, columns)
                assert len(rows) == len(multipliers)
                for m, row in zip(multipliers, rows):
                    want = sparse_row(pres.normal_form(p * GradedPoly(pres.ring, {m: 1})), index)
                    assert row.keys() == want.keys()
                    if want:
                        j = next(iter(want))
                        scale = Fraction(row[j], want[j])
                        assert scale > 0
                        assert all(row[k] == scale * c for k, c in want.items())


@functools.lru_cache(maxsize=None)
def spheres(r):
    return sphere_product_ring([2] * r)


@functools.lru_cache(maxsize=None)
def sphere_products(dims):
    pres = sphere_product_ring(dims)
    return pres, eliminating(pres)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
def test_hard_lefschetz_on_two_spheres_needs_every_weight(weights):
    """On a product of r 2-spheres, a = sum w_i y_i has a^r = r! prod(w_i) times
    the top class, so hard Lefschetz holds exactly when no weight is zero."""
    pres = spheres(len(weights))
    a = pres.ring.zero()
    for y, w in zip(pres.ring.gens(), weights):
        a = a + y.scale(w)
    if a.is_zero():
        return
    assert hard_lefschetz_check(pres, a, len(weights)) == all(weights)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 2, 2, 4, 6)), st.integers(-3, 3)),
                min_size=1, max_size=10))
@example([(2, w) for w in range(1, 11)])
@example([(2, 1)] * 9 + [(2, 0)])
@example([(2, 1), (4, 0), (2, -2)])
@example([(6, 0), (2, 3)])
def test_hard_lefschetz_closed_form_matches_elimination(factors):
    """On a product of spheres of dimensions 2, 4 and 6, the closed form
    answers as the elimination does on a custom copy of the presentation;
    below half the top degree the product is not answered in closed form."""
    pres, custom = sphere_products(tuple(d for d, _ in factors))
    a = pres.ring.zero()
    for y, (d, w) in zip(pres.ring.gens(), factors):
        if d == 2:
            a = a + y.scale(w)
    assume(not a.is_zero())
    half = pres.top_degree // 2
    for n in (half, half - 1):
        assert hard_lefschetz_check(pres, a, n) == hard_lefschetz_check(custom, a, n)


def test_hard_lefschetz_multiplies_once_per_rung(monkeypatch):
    """On seven 2-spheres, as a custom presentation, the elimination climbs
    NF(a), ..., NF(a^7): six products, one per rung after the first, where
    raising each a**k anew takes more."""
    pres = eliminating(spheres(7))
    a = pres.ring.zero()
    for i, y in enumerate(pres.ring.gens()):
        a = a + y.scale(i + 1)
    products = []
    real = exactring._packed_mul
    monkeypatch.setattr(exactring, "_packed_mul", lambda x, y: products.append(1) or real(x, y))
    assert hard_lefschetz_check(pres, a, 7)
    assert len(products) == 6


def test_hard_lefschetz_validation():
    pres = projective_space(2)
    with pytest.raises(InvalidInputError):
        hard_lefschetz_check(pres, pres.ring.gen("c") ** 2, 2)


def test_rank_questions_never_back_substitute(monkeypatch):
    """Membership, the criteria and hard Lefschetz only ask for a rank, so
    forward elimination answers them without reducing any row further."""
    gr = grassmannian_presentation(2, 2)
    cp2 = projective_space(2)
    cp3 = projective_space(3)
    spheres = eliminating(product_of_spheres())

    def refuse(pivots, col):
        raise AssertionError("reduced rows are not needed for a rank")

    monkeypatch.setattr(exactring, "_reduce_kept", refuse)
    y1, y2 = gr.ring.gens()
    assert ideal_membership(y1 * y2, [y2], gr)
    assert not ideal_membership(y1 ** 2, [y2], gr)
    assert hard_lefschetz_check(gr, y1, 4)
    assert not hard_lefschetz_check(spheres, spheres.ring.gen("s1"), 2)
    c2, c3 = cp2.ring.gen("c"), cp3.ring.gen("c")
    assert not whitehead_square_criterion(ObstructionInput(cp2, {"c": 1}, c2))
    assert whitehead_cube_criterion(ObstructionInput(cp2, {"c": 1}, c2))
    assert not whitehead_cube_criterion(ObstructionInput(cp3, {"c": 1}, c3))
