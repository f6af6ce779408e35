import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.exactring import (
    GradedPoly,
    InvalidInputError,
    monomials_of_degree,
)
from charcalc import exactring, flagcoh, obstruction
from charcalc.cli import _parse_space
from charcalc.flagcoh import (
    _eliminate,
    _make_primitive,
    _reduce_forward,
    _reduce_kept,
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
    clear_denominators,
    enumerated_basis,
    fraction_rule_presentation,
    is_reducible,
    sparse_row,
)


def projective_space(n):
    point = point_presentation()
    return projective_bundle(point, [point.ring.zero()] * (n + 1), n)


def product_of_spheres():
    return sphere_product_ring([2, 2], names=("s1", "s2"))


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

    monkeypatch.setattr(flagcoh, "_reduce_forward", refuse)
    monkeypatch.setattr(obstruction, "_reduce_forward", refuse)
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


def dense_pivots(rows, width):
    """Oracle: forward elimination on dense rows; pivot column -> normalized row."""
    pivots = {}
    for row in rows:
        current = list(row)
        for col in range(width):
            if not current[col]:
                continue
            if col in pivots:
                factor = current[col]
                current = [a - factor * b for a, b in zip(current, pivots[col])]
            else:
                inv = Fraction(1) / current[col]
                pivots[col] = [a * inv for a in current]
                break
    return pivots


def dense_in_span(rows, target):
    """Oracle: is the dense target in the row span of the dense rows?"""
    pivots = dense_pivots(rows, len(target))
    current = list(target)
    for col in range(len(target)):
        if not current[col]:
            continue
        if col not in pivots:
            return False
        factor = current[col]
        current = [a - factor * b for a, b in zip(current, pivots[col])]
    return not any(current)


def _back_substitute(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon form of forward-eliminated ``pivots``, which are reduced
    against each other in place; rows are divided by their leading entries
    only once, at the end."""
    order = sorted(pivots)
    for k in range(len(order) - 1, 0, -1):
        col = order[k]
        row = pivots[col]
        for other_col in order[:k]:
            other = pivots[other_col]
            if col in other:
                _eliminate(other, row, col)
                _make_primitive(other, other_col)
    return {
        col: {j: Fraction(c, row[col]) for j, c in row.items()}
        for col, row in pivots.items()
    }


def forward_pivots(rows):
    """Integer pivot rows of forward elimination; each row is cleared of
    denominators first, and the given rows are left as they are."""
    pivots = {}
    _reduce_forward([clear_denominators(row) for row in rows], pivots)
    return pivots


def row_reduce(rows):
    """Oracle: the reduced row echelon form by forward elimination into
    integer pivot rows, then back-substitution of every pivot row; pivot
    column -> row."""
    return _back_substitute(forward_pivots(rows))


def kept_row_reduce(rows):
    """The reduced row echelon form as the completion computes a kept rule:
    ``_reduce_kept`` on each pivot row alone, divided by its leading entry."""
    pivots = forward_pivots(rows)
    reduced = {}
    for col in pivots:
        row = _reduce_kept(pivots, col)
        reduced[col] = {j: Fraction(c, row[col]) for j, c in row.items()}
    return reduced


def fraction_row_reduce(rows):
    """Oracle: the reduced row echelon form computed over Fractions throughout."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        current = dict(row)
        while current:
            col = min(current)
            value = current[col]
            if col in pivots:
                del current[col]
                for j, b in pivots[col].items():
                    if j == col:
                        continue
                    updated = current.get(j, Fraction(0)) - value * b
                    if updated:
                        current[j] = updated
                    else:
                        current.pop(j, None)
            else:
                inv = Fraction(1) / value
                pivots[col] = {j: c * inv for j, c in current.items()}
                break
    # back-substitute so every pivot row is reduced against the others
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for other_col in sorted(pivots):
            if other_col >= col:
                break
            other = pivots[other_col]
            value = other.get(col)
            if not value:
                continue
            del other[col]
            for j, b in row.items():
                if j == col:
                    continue
                updated = other.get(j, Fraction(0)) - value * b
                if updated:
                    other[j] = updated
                else:
                    other.pop(j, None)
    return pivots


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


def random_dense_matrix(rng, height, width):
    """Dense rows of mostly-zero Fractions, with some repeated, zero and combined rows."""
    rows = []
    for _ in range(height):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.25:
            rows.append([Fraction(0)] * width)
        elif len(rows) >= 2 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3
                else Fraction(0)
                for _ in range(width)
            ])
    return rows


def test_row_reduce_agrees_with_dense_oracle(rng):
    # In a product of two-spheres the degree-2 component has the generators
    # as its basis, and a linear generator has only the multiplier 1, so
    # ideal membership there is exactly span membership of coefficient rows.
    spheres = {}
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


def test_hard_lefschetz_multiplies_once_per_rung(monkeypatch):
    """On seven 2-spheres the check climbs NF(a), ..., NF(a^7): six products,
    one per rung after the first, where raising each a**k anew takes more."""
    pres = spheres(7)
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
    spheres = product_of_spheres()

    def refuse(pivots, col):
        raise AssertionError("reduced rows are not needed for a rank")

    monkeypatch.setattr(flagcoh, "_reduce_kept", refuse)
    y1, y2 = gr.ring.gens()
    assert ideal_membership(y1 * y2, [y2], gr)
    assert not ideal_membership(y1 ** 2, [y2], gr)
    assert hard_lefschetz_check(gr, y1, 4)
    assert not hard_lefschetz_check(spheres, spheres.ring.gen("s1"), 2)
    c2, c3 = cp2.ring.gen("c"), cp3.ring.gen("c")
    assert not whitehead_square_criterion(ObstructionInput(cp2, {"c": 1}, c2))
    assert whitehead_cube_criterion(ObstructionInput(cp2, {"c": 1}, c2))
    assert not whitehead_cube_criterion(ObstructionInput(cp3, {"c": 1}, c3))
