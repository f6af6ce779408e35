"""The ``paper`` subcommand's battery of reference computations.

Each anchor re-runs one computation the package is built around and returns
``(passed, detail)``; ``cli.paper_suite`` runs them in order.  Only ``paper``
needs them, so the CLI imports this module on first use.  Anchors call the
library through its modules' attributes, so a patched function is the one
they run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import bundlecalc, coupling, equivariant, flagcoh, obstruction, symfun
from .cli import _projective_space, _sphere_base_bundle
from .exactring import Monomial, RingPresentation, format_rational

# Fixed weight panel: (n, weights), all nontrivial, n <= 4.
_WEIGHT_PANEL: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1, (1, 0)),
    (1, (3, -2)),
    (2, (1, -1, 0)),
    (2, (2, 1, -3)),
    (3, (1, 1, -2, 0)),
    (3, (5, -1, -1, -3)),
    (4, (1, 1, 1, -3, 0)),
    (4, (2, -2, 3, 0, 1)),
)


def _anchor_lambda2_expansion() -> tuple[bool, str]:
    E = bundlecalc.Universal(4)
    cls = bundlecalc.chern_class(bundlecalc.Lambda2(E), 4)
    got = symfun.to_monomial_basis(cls)
    expected = {
        symfun.Partition.of(3, 1): Fraction(2),
        symfun.Partition.of(2, 2): Fraction(5),
        symfun.Partition.of(2, 1, 1): Fraction(13),
        symfun.Partition.of(1, 1, 1, 1): Fraction(30),
    }
    return dict(got.coeffs) == expected, str(got)


def _anchor_sigma4_coefficients() -> tuple[bool, str]:
    pairs = {
        symfun.Partition.of(3, 1): Fraction(4),
        symfun.Partition.of(2, 2): Fraction(2),
        symfun.Partition.of(2, 1, 1): Fraction(-4),
        symfun.Partition.of(1, 1, 1, 1): Fraction(1),
    }
    values = []
    ok = True
    for shape, expected in pairs.items():
        elem = symfun.to_elementary(symfun.monomial_symmetric(shape, 4), 4)
        value = symfun.sigma_top_coefficient(elem, 4)
        values.append(f"{shape}:{format_rational(value)}")
        ok = ok and value == expected
    return ok, " ".join(values)


def _anchor_sphere_rank4() -> tuple[bool, str]:
    value = bundlecalc.sphere_eval(bundlecalc.Universal(4), 4)
    return value == 6, format_rational(value)


def _anchor_sphere_lambda2() -> tuple[bool, str]:
    value = bundlecalc.sphere_eval(bundlecalc.Lambda2(bundlecalc.Universal(4)), 4)
    return value == -24, format_rational(value)


def _anchor_sphere_combination() -> tuple[bool, str]:
    E = bundlecalc.Universal(4)
    expr: bundlecalc.BundleExpr = bundlecalc.Lambda2(E)
    for _ in range(4):
        expr = bundlecalc.Sum(expr, E)
    value = bundlecalc.sphere_eval(expr, 4)
    return value == 0, format_rational(value)


def _anchor_conjugate_sum() -> tuple[bool, str]:
    for m in range(1, 5):
        E = bundlecalc.Universal(m)
        doubled = bundlecalc.Sum(E, bundlecalc.Dual(E))
        for k in range(1, 2 * m + 1, 2):
            if not bundlecalc.chern_class(doubled, k).is_zero():
                return False, f"c_{k} of the rank-{2 * m} doubled bundle is nonzero"
    return True, "odd classes vanish through rank 8"


def _anchor_square_zero_product() -> tuple[bool, str]:
    # the weight forms multiplied out in the free ring and reduced in the
    # square-zero ring, against the closed form
    for k in range(1, 7):
        pres = flagcoh.sphere_product_ring([2] * (k + 1))
        y = pres.ring.gens()
        product = sum(y[1:], y[0]) * sum(y[2:], -y[0] - y[1])
        for j in range(2, k + 1):
            product = product * sum(y[j + 1:], y[j].scale(-j))
        result = pres.normal_form(product)
        if result != flagcoh.phi_pullback(k):
            return False, f"k={k}: got {result}"
    return True, "matches 2*(-1)^k*k! times the top class for k <= 6"


def _anchor_circle_mu1() -> tuple[bool, str]:
    for n, weights in _WEIGHT_PANEL:
        action = equivariant.WeightedCircleAction(n, weights)
        if equivariant.mu_of_circle(action, 1) != 0:
            return False, f"weights {weights}"
    return True, f"vanishes on all {len(_WEIGHT_PANEL)} panel actions"


def _anchor_circle_mu_even() -> tuple[bool, str]:
    for n, weights in _WEIGHT_PANEL:
        action = equivariant.WeightedCircleAction(n, weights)
        for k in (2, 4, 6):
            if equivariant.mu_of_circle(action, k) == 0:
                return False, f"weights {weights}, k={k}"
    return True, "nonzero for even k <= 6 on the panel"


def _bundle_cases() -> list[tuple[int, int, RingPresentation]]:
    cases = []
    for n in range(1, 5):
        for k in range(2, n + 2):
            cases.append((n, k, _sphere_base_bundle(n, k)))
    return cases


def _anchor_pushforward_nonzero() -> tuple[bool, str]:
    for n, k, pres in _bundle_cases():
        data = coupling.CouplingInput(pres, pres.ring.gen("c"), n)
        value = coupling.mu_class(data, k)
        beta = pres.ring.gen("b")
        if value.is_zero():
            return False, f"n={n}, k={k}: zero pushforward"
        ratio = None
        for monomial, coeff in value.terms.items():
            if monomial != next(iter(beta.terms)):
                return False, f"n={n}, k={k}: not a multiple of the base class"
            ratio = coeff
        if not ratio:
            return False, f"n={n}, k={k}"
    return True, "nonzero multiple of the base class for 2 <= k <= n+1 <= 5"


def _anchor_coupling_normalization() -> tuple[bool, str]:
    for n, k, pres in _bundle_cases():
        data = coupling.CouplingInput(pres, pres.ring.gen("c"), n)
        a_tilde = coupling.coupling_class(data)
        if not flagcoh.fiber_integrate(a_tilde ** (n + 1), pres).is_zero():
            return False, f"n={n}, k={k}"
    return True, "coupling power n+1 integrates to zero exactly"


def _anchor_coupling_mu1() -> tuple[bool, str]:
    for n, k, pres in _bundle_cases():
        data = coupling.CouplingInput(pres, pres.ring.gen("c"), n)
        if not coupling.mu_class(data, 1).is_zero():
            return False, f"n={n}, k={k}"
    return True, "first class vanishes identically"


def _anchor_series_identity() -> tuple[bool, str]:
    for v in range(1, 5):
        series = flagcoh.inverse_series(v, 12)
        ring = series[0].ring
        total = ring.one()
        for i in range(v):
            total = total + ring.gen(i)
        inverse = ring.one()
        for f in series:
            inverse = inverse + f
        product = total * inverse
        for degree in range(2, 25, 2):
            if not product.graded_component(degree).is_zero():
                return False, f"v={v}, degree {degree}"
    return True, "(1+y)(1+f) = 1 through degree 24 for up to 4 variables"


def _anchor_series_sign() -> tuple[bool, str]:
    for v in (1, 2, 3):
        series = flagcoh.inverse_series(v, 6)
        for i, f in enumerate(series, start=1):
            coeff = f.coefficient(Monomial.of(0, i))
            if coeff != Fraction((-1) ** i):
                return False, f"v={v}, i={i}: coefficient {format_rational(coeff)}"
    return True, "leading pure-power coefficient alternates in sign"


def _anchor_grassmannian_dims() -> tuple[bool, str]:
    for m in range(1, 5):
        for k in range(1, 5):
            pres = flagcoh.grassmannian_presentation(m, k)
            total = sum(flagcoh.dimension_vector(pres))
            if total != math.comb(m + k, k):
                return False, f"({m},{k}): total {total}"
    return True, "totals match the binomial count for block sizes up to 4"


def _anchor_flag_dims() -> tuple[bool, str]:
    pres = flagcoh.flag_presentation((1, 1, 1))
    dims = flagcoh.dimension_vector(pres)
    return (sum(dims) == 6 and dims == [1, 2, 2, 1]), f"dims {dims}"


def _anchor_su_products() -> tuple[bool, str]:
    values = []
    for ell in range(2, 5):
        for k in range(2, ell + 1):
            value = equivariant.su_product_integral(ell, k)
            values.append(f"({ell},{k})={format_rational(value)}")
            if value == 0:
                return False, f"({ell},{k}) vanishes"
    return True, " ".join(values)


def _anchor_moment_extrema() -> tuple[bool, str]:
    for n, weights in _WEIGHT_PANEL:
        action = equivariant.WeightedCircleAction(n, weights)
        top = max(range(n + 1), key=lambda j: weights[j])
        bottom = min(range(n + 1), key=lambda j: weights[j])
        for vertex in (top, bottom):
            if equivariant.nu1_at_fixed_point(action, vertex) == 0:
                return False, f"weights {weights}, vertex {vertex}"
    return True, "nonzero at every extremal vertex of the panel"


def _anchor_pointed_class() -> tuple[bool, str]:
    pres = _sphere_base_bundle(1, 1)
    data = coupling.CouplingInput(
        pres, pres.ring.gen("c"), 1, section_pullback={"c": pres.ring.zero()}
    )
    value = coupling.nu_class(data, 1)
    return not value.is_zero(), str(value)


def _anchor_square_criteria() -> tuple[bool, str]:
    cp1 = _projective_space(1)
    cp2 = _projective_space(2)
    s2s2 = flagcoh.sphere_product_ring([2, 2], names=("s1", "s2"))
    got = (
        obstruction.whitehead_square_criterion(
            obstruction.ObstructionInput(cp1, {"c": 1}, cp1.ring.gen("c"))
        ),
        obstruction.whitehead_square_criterion(
            obstruction.ObstructionInput(cp2, {"c": 1}, cp2.ring.gen("c"))
        ),
        obstruction.whitehead_square_criterion(
            obstruction.ObstructionInput(s2s2, {"s1": 1}, s2s2.ring.gen("s1"))
        ),
    )
    return got == (True, False, True), f"cp1={got[0]} cp2={got[1]} s2xs2={got[2]}"


def _anchor_cube_criteria() -> tuple[bool, str]:
    cp2 = _projective_space(2)
    cp3 = _projective_space(3)
    got = (
        obstruction.whitehead_cube_criterion(
            obstruction.ObstructionInput(cp2, {"c": 1}, cp2.ring.gen("c"))
        ),
        obstruction.whitehead_cube_criterion(
            obstruction.ObstructionInput(cp3, {"c": 1}, cp3.ring.gen("c"))
        ),
    )
    return got == (True, False), f"cp2={got[0]} cp3={got[1]}"


def _anchor_lefschetz() -> tuple[bool, str]:
    results = []
    for n in range(1, 7):
        cpn = _projective_space(n)
        results.append(obstruction.hard_lefschetz_check(cpn, cpn.ring.gen("c"), n))
    gr = flagcoh.grassmannian_presentation(2, 2)
    results.append(obstruction.hard_lefschetz_check(gr, gr.ring.gen("y1"), 4))
    s2s2 = flagcoh.sphere_product_ring([2, 2], names=("s1", "s2"))
    failing = obstruction.hard_lefschetz_check(s2s2, s2s2.ring.gen("s1"), 2)
    ok = all(results) and not failing
    return ok, f"projective+grassmannian hold, degenerate product fails={not failing}"


_ANCHORS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("lambda2-rank4-degree4-expansion", _anchor_lambda2_expansion),
    ("elementary-sigma4-coefficients", _anchor_sigma4_coefficients),
    ("sphere-pairing-rank4-top", _anchor_sphere_rank4),
    ("sphere-pairing-lambda2-rank4", _anchor_sphere_lambda2),
    ("sphere-pairing-rank22-combination", _anchor_sphere_combination),
    ("conjugate-sum-odd-classes-vanish", _anchor_conjugate_sum),
    ("square-zero-circle-product", _anchor_square_zero_product),
    ("circle-mu1-vanishes", _anchor_circle_mu1),
    ("circle-mu-even-nonzero", _anchor_circle_mu_even),
    ("projectivization-pushforward-nonzero", _anchor_pushforward_nonzero),
    ("coupling-normalization-exact", _anchor_coupling_normalization),
    ("coupling-mu1-vanishes", _anchor_coupling_mu1),
    ("series-inversion-identity", _anchor_series_identity),
    ("series-leading-coefficient-sign", _anchor_series_sign),
    ("grassmannian-dimension-count", _anchor_grassmannian_dims),
    ("full-flag-dimension-count", _anchor_flag_dims),
    ("su-moment-product-nonzero", _anchor_su_products),
    ("moment-extremum-detects-point", _anchor_moment_extrema),
    ("pointed-class-nonzero-instance", _anchor_pointed_class),
    ("square-criterion-values", _anchor_square_criteria),
    ("cube-criterion-values", _anchor_cube_criteria),
    ("lefschetz-values", _anchor_lefschetz),
)
