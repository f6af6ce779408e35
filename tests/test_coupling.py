import math
from fractions import Fraction

import pytest

from charcalc import coupling
from charcalc.coupling import (
    CouplingInput,
    DegeneracyError,
    MixedIndex,
    coupling_class,
    mixed_class,
    mu_class,
    nu_class,
)
from charcalc.exactring import GradedRing, InvalidInputError, Monomial, RingPresentation
from charcalc.flagcoh import fiber_integrate, projective_bundle, sphere_product_ring


def trivial_surface_bundle():
    """S^2 x S^2 viewed as a trivial bundle: fiber generator y0, base b."""
    ring = GradedRing(("y0", "b"), (2, 2))
    rules = {Monomial.of(0, 2): ring.zero(), Monomial.of(1, 2): ring.zero()}
    return RingPresentation(
        ring, rules, fiber_basis=(Monomial.one(), Monomial.of(0)), top_degree=4
    )


def twisted_line_bundle(k=1):
    """P(E) over S^2 with c_1(E) = b: a nontrivial sphere bundle with section."""
    base = sphere_product_ring([2], names=("b",))
    chern = [base.ring.gen(0), base.ring.zero()][: k + 1]
    while len(chern) < k + 1:
        chern.append(base.ring.zero())
    return projective_bundle(base, chern, k)


def s4_bundle(n=1, k=2):
    base = sphere_product_ring([2 * k], names=("b",))
    chern = [base.ring.zero()] * (n + 1)
    chern[k - 1] = base.ring.gen(0)
    return projective_bundle(base, chern, n)


def test_trivial_bundle_coupling_is_fiber_class():
    pres = trivial_surface_bundle()
    u = pres.ring.gen("y0")
    data = CouplingInput(pres, u, 1)
    assert coupling_class(data) == u
    for k in (1, 2):
        assert mu_class(data, k).is_zero()


def test_fiber_volume_is_integrated_once(monkeypatch):
    pres = s4_bundle(2, 2)
    data = CouplingInput(pres, pres.ring.gen("c"), 2)
    calls = []
    original = coupling.fiber_integrate
    monkeypatch.setattr(
        coupling, "fiber_integrate", lambda p, pres: calls.append(p) or original(p, pres)
    )
    for _ in range(3):
        coupling_class(data)
    assert data.fiber_volume == 1
    assert len(calls) == 3  # one excess integral per call, no volume integral


def test_twisted_u_coupling_still_normalizes():
    # u mixes fiber and base directions; the correction must fix it exactly
    pres = trivial_surface_bundle()
    u = pres.ring.gen("y0") + pres.ring.gen("b").scale(3)
    data = CouplingInput(pres, u, 1)
    a_tilde = coupling_class(data)
    assert fiber_integrate(a_tilde ** 2, pres).is_zero()
    assert a_tilde == pres.ring.gen("y0")


def test_s4_bundle_coupling_and_mu():
    pres = s4_bundle()
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 1)
    assert coupling_class(data) == c  # correction vanishes here
    assert mu_class(data, 1).is_zero()
    assert mu_class(data, 2) == -pres.ring.gen("b")


def test_coupling_correction_nonzero_case():
    pres = twisted_line_bundle()
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 1)
    a_tilde = coupling_class(data)
    assert a_tilde == c + pres.ring.gen("b").scale(Fraction(1, 2))
    assert fiber_integrate(a_tilde ** 2, pres).is_zero()
    assert mu_class(data, 1).is_zero()


def linear_solve_oracle(data):
    """Independent solve of the normalization: sample the affine map
    z -> integral((u - z)^(n+1)) on each degree-2 base direction and solve."""
    pres = data.pres
    ring = pres.ring
    base_dirs = [
        ring.gen(i)
        for i in range(ring.ngens)
        if i not in pres.fiber_generators and ring.degrees[i] == 2
    ]
    u, n = data.u, data.n
    at_zero = fiber_integrate(u ** (n + 1), pres)
    correction = ring.zero()
    remaining = at_zero
    for direction in base_dirs:
        at_one = fiber_integrate((u - direction) ** (n + 1), pres)
        at_two = fiber_integrate((u - direction.scale(2)) ** (n + 1), pres)
        slope = at_one - at_zero
        # affineness check: the second sample must continue the same line
        assert at_two - at_one == slope
        # want the coefficient t with remaining + t*slope = 0 in this direction
        target = remaining.coefficient(next(iter(direction.terms)))
        slope_value = slope.coefficient(next(iter(direction.terms)))
        if target == 0:
            continue
        assert slope_value != 0
        t = -target / slope_value
        correction = correction + direction.scale(t)
        remaining = fiber_integrate((u - correction) ** (n + 1), pres)
    assert remaining.is_zero()
    return u - correction


def test_closed_form_matches_linear_solve_oracle():
    cases = [
        (trivial_surface_bundle(), "y0", 1),
        (s4_bundle(), "c", 1),
        (twisted_line_bundle(), "c", 1),
        (s4_bundle(n=2, k=2), "c", 2),
    ]
    for pres, gen_name, n in cases:
        data = CouplingInput(pres, pres.ring.gen(gen_name), n)
        assert coupling_class(data) == linear_solve_oracle(data)


def test_uniqueness_of_normalization():
    pres = s4_bundle(n=1, k=2)
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 1)
    a_tilde = coupling_class(data)
    # adding any degree-2 base class with nonzero pairing breaks normalization
    pres2 = twisted_line_bundle()
    data2 = CouplingInput(pres2, pres2.ring.gen("c"), 1)
    a2 = coupling_class(data2)
    z = pres2.ring.gen("b")
    for scale in (1, -2, Fraction(1, 3)):
        shifted = a2 + z.scale(scale)
        assert not fiber_integrate(shifted ** 2, pres2).is_zero()
    assert fiber_integrate(a_tilde ** 2, pres).is_zero()


def test_degeneracy_error():
    pres = trivial_surface_bundle()
    base_class = pres.ring.gen("b")
    with pytest.raises(DegeneracyError):
        coupling_class(CouplingInput(pres, base_class, 1))


def test_coupling_input_validation():
    pres = trivial_surface_bundle()
    with pytest.raises(InvalidInputError):
        CouplingInput(pres, pres.ring.gen("y0") ** 2, 1)
    no_basis = RingPresentation(pres.ring, pres.rules)
    with pytest.raises(InvalidInputError):
        CouplingInput(no_basis, no_basis.ring.gen("y0"), 1)


def test_nu_trivial_bundle_vanishes():
    pres = trivial_surface_bundle()
    u = pres.ring.gen("y0")
    data = CouplingInput(pres, u, 1, section_pullback={"y0": pres.ring.zero()})
    for k in (1, 2):
        assert nu_class(data, k).is_zero()


def test_nu_nonzero_on_twisted_bundle():
    pres = twisted_line_bundle()
    data = CouplingInput(pres, pres.ring.gen("c"), 1, section_pullback={"c": pres.ring.zero()})
    value = nu_class(data, 1)
    assert value == -pres.ring.gen("b")
    assert mu_class(data, 1).is_zero()


def test_nu_with_section_normalized_class_is_mu_type():
    # if u already vanishes along the section, nu integrates plain powers of u
    pres = trivial_surface_bundle()
    u = pres.ring.gen("y0")
    data = CouplingInput(pres, u, 1, section_pullback={"y0": pres.ring.zero()})
    for k in (1, 2, 3):
        assert nu_class(data, k) == fiber_integrate(u ** (1 + k), pres)


def test_nu_requires_section():
    pres = twisted_line_bundle()
    data = CouplingInput(pres, pres.ring.gen("c"), 1)
    with pytest.raises(InvalidInputError):
        nu_class(data, 1)


def test_nu_mu_difference_expansion():
    # nu_k equals the binomial expansion of the coupling class shifted by the
    # base class w with sigma*(u + pullback(w)) = 0
    pres = twisted_line_bundle()
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 1, section_pullback={"c": pres.ring.zero()})
    a_tilde = coupling_class(data)
    w = (c - section_pullback_value(data)) - a_tilde
    n = data.n
    for k in (1, 2, 3):
        expected = pres.ring.zero()
        for j in range(0, n + k + 1):
            expected = expected + (
                fiber_integrate(a_tilde ** (n + k - j), pres) * (w ** j)
            ).scale(math.comb(n + k, j))
        assert pres.normal_form(nu_class(data, k)) == pres.normal_form(expected)


def section_pullback_value(data):
    from charcalc.coupling import section_pullback

    return section_pullback(data, data.u)


def test_mixed_class_reduces_to_mu_type():
    pres = s4_bundle(n=2, k=2)
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 2)
    # no vertical classes: plain powers of the coupling class
    assert mixed_class(data, MixedIndex(0, (), ())).is_zero()  # k < n
    assert mixed_class(data, MixedIndex(1, (), ())).is_zero()
    assert mixed_class(data, MixedIndex(2, (), ())) == pres.ring.one()  # volume
    for k in (3, 4):
        assert mixed_class(data, MixedIndex(k, (), ())) == mu_class(data, k - 2)
    # no coupling factor: plain pushforward of the vertical classes
    idx = MixedIndex(0, (2,), (c.scale(2),))
    assert mixed_class(data, idx) == fiber_integrate((c.scale(2)) ** 2, pres)


def test_mixed_class_surface_bundle_kappa_shape():
    # genus-zero fiber: vertical tangent class of P(E) over S^2 is 2c + b
    pres = twisted_line_bundle()
    c, b = pres.ring.gen("c"), pres.ring.gen("b")
    data = CouplingInput(pres, c, 1)
    vertical = c.scale(2) + b
    kappa1 = mixed_class(data, MixedIndex(0, (2,), (vertical,)))
    # (2c + b)^2 = 4c^2 + 4cb; c^2 -> -cb, so the pushforward is -4b + 4b = 0
    assert kappa1.is_zero()
    kappa0 = mixed_class(data, MixedIndex(0, (1,), (vertical,)))
    assert kappa0 == pres.ring.constant(2)


def test_mixed_class_degree_validation():
    pres = twisted_line_bundle()
    c = pres.ring.gen("c")
    data = CouplingInput(pres, c, 1)
    with pytest.raises(InvalidInputError):
        mixed_class(data, MixedIndex(0, (1,), (c ** 2,)))  # degree 4 in slot 1
