"""Command-line front end.

Every operation of the library is reachable from exactly one subcommand (see
OP_REGISTRY), all inputs are flags, and all output is deterministic: JSON by
default, plain text with ``--output text``.  Rationals are always serialized
as ``p/q`` strings, never as floats.

The ``paper`` subcommand re-runs the battery of reference computations the
package is built around and reports one pass/fail line per anchor.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from . import bundlecalc, coupling, equivariant, flagcoh, obstruction, symfun
from .exactring import (
    CharcalcError,
    GradedPoly,
    GradedRing,
    InvalidInputError,
    Monomial,
    RingPresentation,
    format_rational,
    graded_component,
    parse_int,
    parse_signed_int,
    parse_poly,
    parse_rational,
    poly_arith,
    poly_pow,
)

__all__ = ["main", "run", "paper_suite", "OP_REGISTRY"]

# Canonical exposure map: qualified operation -> owning subcommand.
OP_REGISTRY = {
    "exactring.poly_arith": "poly",
    "exactring.poly_pow": "poly",
    "exactring.graded_component": "poly",
    "exactring.normal_form": "bundle",
    "exactring.fiber_coefficient": "bundle",
    "symfun.monomial_symmetric": "sym",
    "symfun.elementary": "sym",
    "symfun.to_elementary": "sym",
    "symfun.sigma_top_coefficient": "sym",
    "bundlecalc.chern_roots": "chern",
    "bundlecalc.chern_class": "chern",
    "bundlecalc.sphere_eval": "chern",
    "flagcoh.inverse_series": "flag",
    "flagcoh.grassmannian_presentation": "flag",
    "flagcoh.flag_presentation": "flag",
    "flagcoh.projective_bundle": "bundle",
    "flagcoh.sphere_product_ring": "bundle",
    "flagcoh.fiber_integrate": "bundle",
    "flagcoh.phi_pullback": "bundle",
    "coupling.coupling_class": "mu",
    "coupling.mu_class": "mu",
    "coupling.nu_class": "mu",
    "coupling.mixed_class": "mu",
    "equivariant.simplex_integral": "equi",
    "equivariant.normalized_moment": "equi",
    "equivariant.moment_integral": "equi",
    "equivariant.mu_of_circle": "equi",
    "equivariant.su_product_integral": "equi",
    "equivariant.nu1_at_fixed_point": "equi",
    "obstruction.degree_basis": "obstruct",
    "obstruction.ideal_membership": "obstruct",
    "obstruction.whitehead_square_criterion": "obstruct",
    "obstruction.whitehead_cube_criterion": "obstruct",
    "obstruction.hard_lefschetz_check": "obstruct",
    "cli.paper_suite": "paper",
}


# -- small input parsers -------------------------------------------------------

_T = TypeVar("_T")


def _from_flag(flag: str, parse: Callable[..., _T], *args) -> _T:
    """Run ``parse(*args)`` on a flag's text; an input error names the flag."""
    try:
        return parse(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{flag}: {exc}") from exc


def _int_flag(text: str) -> int:
    """The argparse type of every integer flag: decimal digits, as ``parse_int``
    reads them; argparse names the flag in the error."""
    try:
        return parse_int(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_int_list(text: str, flag: str, parse: Callable[[str], int] = parse_int) -> list[int]:
    """Comma-separated integers, each read by ``parse``; errors name ``flag``.
    Blank text is the empty list, but an empty entry (``2,,1``) is an error."""
    if not text.strip():
        return []
    return [_from_flag(flag, parse, piece.strip()) for piece in text.split(",")]


def _parse_space(text: str) -> RingPresentation:
    """Named desk-scale spaces: point, sphere:…, s2xs2, cpN, cpn:N, gr:M,K, flag:…, pe:N,K."""
    spec = text.strip().lower()
    if spec == "point":
        return flagcoh.point_presentation()
    if spec == "s2xs2":
        return flagcoh.sphere_product_ring([2, 2], names=("s1", "s2"))
    if spec.startswith("sphere:"):
        dims = _parse_int_list(spec[len("sphere:"):], "--space")
        return _from_flag("--space", flagcoh.sphere_product_ring, dims)
    if spec.startswith("cpn:"):
        dims = _parse_int_list(spec[len("cpn:"):], "--space")
        if len(dims) != 1:
            raise InvalidInputError("--space: cpn takes exactly one integer")
        return _projective_space(dims[0])
    if spec.startswith("cp"):
        return _projective_space(_from_flag("--space", parse_int, spec[2:]))
    if spec.startswith("gr:"):
        dims = _parse_int_list(spec[len("gr:"):], "--space")
        if len(dims) != 2:
            raise InvalidInputError("--space: gr takes exactly two block sizes")
        return _from_flag("--space", flagcoh.grassmannian_presentation, dims[0], dims[1])
    if spec.startswith("flag:"):
        dims = _parse_int_list(spec[len("flag:"):], "--space")
        return _from_flag("--space", flagcoh.flag_presentation, dims)
    if spec.startswith("pe:"):
        dims = _parse_int_list(spec[len("pe:"):], "--space")
        if len(dims) != 2:
            raise InvalidInputError("--space: pe takes fiber dimension and base half-dimension")
        return _sphere_base_bundle(dims[0], dims[1])
    raise InvalidInputError(f"--space: unknown space {text!r}")


def _projective_space(n: int) -> RingPresentation:
    if n < 1:
        raise InvalidInputError("--space: projective space needs n >= 1")
    point = flagcoh.point_presentation()
    zeros = [point.ring.zero()] * (n + 1)
    return flagcoh.projective_bundle(point, zeros, n)


def _sphere_base_bundle(n: int, k: int) -> RingPresentation:
    """P(E) over the 2k-sphere with c_k(E) the sphere class and others zero."""
    if not 1 <= k <= n + 1:
        raise InvalidInputError("--space: need 1 <= k <= n + 1")
    base = flagcoh.sphere_product_ring([2 * k], names=("b",))
    chern = [base.ring.zero()] * (n + 1)
    chern[k - 1] = base.ring.gen(0)
    return flagcoh.projective_bundle(base, chern, n)


def _trivial_bundle(n: int, base_half_dim: int) -> RingPresentation:
    base = flagcoh.sphere_product_ring([2 * base_half_dim], names=("b",))
    zeros = [base.ring.zero()] * (n + 1)
    return flagcoh.projective_bundle(base, zeros, n)


def _rational_payload(value: Fraction) -> dict:
    return {"value": format_rational(value)}


# -- subcommand handlers --------------------------------------------------------


def _parse_gens(text: str) -> GradedRing:
    try:
        pieces = [piece.split(":") for piece in text.split(",")]
        names = tuple(name.strip() for name, _ in pieces)
        degrees = tuple(parse_int(degree.strip()) for _, degree in pieces)
    except ValueError:
        raise InvalidInputError("expected name:degree pairs like y1:2,y2:4") from None
    return GradedRing(names, degrees)


def _cmd_poly(args) -> tuple[dict, int]:
    ring = _from_flag("--gens", _parse_gens, args.gens)
    a = _from_flag("--a", parse_poly, ring, args.a)
    if args.op in ("add", "mul"):
        if args.b is None:
            raise InvalidInputError("--b: required for add and mul")
        result = poly_arith(a, _from_flag("--b", parse_poly, ring, args.b), args.op)
    elif args.op == "pow":
        if args.e is None:
            raise InvalidInputError("--e: required for pow")
        result = poly_pow(a, args.e)
    else:
        result = a
    if args.component is not None:
        result = graded_component(result, args.component)
    return {"result": str(result), "degree": result.degree()}, 0


def _cmd_sym(args) -> tuple[dict, int]:
    if args.op in ("monomial", "to-elementary", "sigma-top"):
        if args.partition is None:
            raise InvalidInputError("--partition: required for this operation")
        I = _from_flag("--partition", symfun.Partition.parse, args.partition)
    if args.op == "monomial":
        return {"poly": str(symfun.monomial_symmetric(I, args.vars))}, 0
    if args.op == "elementary":
        if args.k is None:
            raise InvalidInputError("--k: required for elementary")
        return {"poly": str(symfun.elementary(args.k, args.vars))}, 0
    if args.op == "to-elementary":
        elem = symfun.to_elementary(symfun.monomial_symmetric(I, args.vars), args.vars)
        return {"elementary": str(elem)}, 0
    if args.op == "sigma-top":
        if args.k is None:
            raise InvalidInputError("--k: required for sigma-top")
        elem = symfun.to_elementary(symfun.monomial_symmetric(I, args.vars), args.vars)
        return _rational_payload(symfun.sigma_top_coefficient(elem, args.k)), 0
    raise InvalidInputError(f"--op: unknown operation {args.op!r}")


def _cmd_chern(args) -> tuple[dict, int]:
    expr = _from_flag("--expr", bundlecalc.parse_bundle_expr, args.expr)
    if args.eval == "sphere":
        return _rational_payload(bundlecalc.sphere_eval(expr, args.k)), 0
    if args.emit == "roots":
        roots = bundlecalc.chern_roots(expr)
        return {"rank": len(roots), "roots": [str(r) for r in roots]}, 0
    cls = bundlecalc.chern_class(expr, args.k)
    if args.emit == "monomial-symmetric":
        return {"monomial_symmetric": str(symfun.to_monomial_basis(cls))}, 0
    return {"class": str(cls), "degree": 2 * args.k}, 0


def _presentation_payload(pres: RingPresentation, emit: str) -> dict:
    if emit == "dims":
        dims = flagcoh.dimension_vector(pres)
        return {"dim_by_degree": dims, "total": sum(dims)}
    if emit == "relations":
        return {
            "generators": list(pres.ring.generators),
            "relations": [str(r) for r in pres.relations],
            "dim_by_degree": flagcoh.dimension_vector(pres),
        }
    if emit == "basis":
        if pres.fiber_basis is None:
            raise InvalidInputError("--emit: presentation has no recorded basis")
        return {"basis": [m.text(pres.ring) for m in pres.fiber_basis]}
    raise InvalidInputError(f"--emit: unknown mode {emit!r}")


def _cmd_flag(args) -> tuple[dict, int]:
    if args.inverse_series is not None:
        if args.inverse_series < 1:
            raise InvalidInputError("--inverse-series: need at least one variable")
        if args.degree is None or args.degree < 1:
            raise InvalidInputError("--degree: a degree of at least 1 is required with --inverse-series")
        series = flagcoh.inverse_series(args.inverse_series, args.degree)
        return {"series": [str(f) for f in series]}, 0
    if args.dims is None:
        raise InvalidInputError("--dims: required unless --inverse-series is used")
    dims = _parse_int_list(args.dims, "--dims")
    pres = _from_flag("--dims", flagcoh.flag_presentation, dims)
    return _presentation_payload(pres, args.emit), 0


def _cmd_bundle(args) -> tuple[dict, int]:
    if args.phi is not None:
        result = flagcoh.phi_pullback(args.phi)
        return {"class": str(result)}, 0
    pres = _parse_space(args.space)
    if args.integrate is not None:
        p = _from_flag("--integrate", parse_poly, pres.ring, args.integrate)
        result = flagcoh.fiber_integrate(p, pres)
        return {"class": str(result), "degree": result.degree()}, 0
    if args.normal is not None:
        p = _from_flag("--normal", parse_poly, pres.ring, args.normal)
        return {"normal_form": str(pres.normal_form(p))}, 0
    if args.coefficient is not None:
        if args.basis_element is None:
            raise InvalidInputError("--basis-element: required with --coefficient")
        p = _from_flag("--coefficient", parse_poly, pres.ring, args.coefficient)
        b_poly = _from_flag("--basis-element", parse_poly, pres.ring, args.basis_element)
        if len(b_poly.terms) != 1 or set(b_poly.terms.values()) != {Fraction(1)}:
            raise InvalidInputError("--basis-element: expected a single monic monomial")
        b = next(iter(b_poly.terms))
        return {"class": str(pres.fiber_coefficient(p, b))}, 0
    return _presentation_payload(pres, args.emit), 0


def _coupling_input(args) -> coupling.CouplingInput:
    base_text = args.base.strip().lower()
    if not base_text.startswith("s"):
        raise InvalidInputError("--base: expected an even sphere like s4")
    base_dim = _from_flag("--base", parse_int, base_text[1:])
    if base_dim % 2:
        raise InvalidInputError("--base: sphere dimension must be even")
    if args.space == "pcn-bundle":
        pres = _sphere_base_bundle(args.n, base_dim // 2)
    elif args.space == "trivial":
        pres = _trivial_bundle(args.n, base_dim // 2)
    else:
        raise InvalidInputError(f"--space: unknown coupling space {args.space!r}")
    section = {"c": pres.ring.zero()} if args.nu else None
    return coupling.CouplingInput(pres, pres.ring.gen("c"), args.n, section)


def _cmd_mu(args) -> tuple[dict, int]:
    data = _coupling_input(args)
    if args.emit == "coupling":
        cls = coupling.coupling_class(data)
        return {"class": str(cls), "degree": 2}, 0
    if args.kappa is not None:
        # relative tangent class of the projectivization: (n+1)c + c_1(E)
        vertical = data.pres.ring.gen("c").scale(args.n + 1)
        if args.space == "pcn-bundle" and args.base.strip().lower() == "s2":
            vertical = vertical + data.pres.ring.gen("b")
        idx = coupling.MixedIndex(0, (args.kappa,), (vertical,))
        result = coupling.mixed_class(data, idx)
        return {"class": str(result), "degree": result.degree()}, 0
    if args.k is None:
        raise InvalidInputError("--k: required")
    if args.nu:
        result = coupling.nu_class(data, args.k)
    else:
        result = coupling.mu_class(data, args.k)
    return {"class": str(result), "degree": 2 * args.k}, 0


def _cmd_equi(args) -> tuple[dict, int]:
    payload: dict
    if args.equi_op in ("mu", "nu1", "moment"):
        action = equivariant.WeightedCircleAction(
            args.n, tuple(_parse_int_list(args.weights, "--weights", parse_signed_int))
        )
    if args.equi_op == "mu":
        payload = _rational_payload(equivariant.mu_of_circle(action, args.k))
    elif args.equi_op == "su-product":
        payload = _rational_payload(equivariant.su_product_integral(args.ell, args.k))
    elif args.equi_op == "nu1":
        payload = _rational_payload(equivariant.nu1_at_fixed_point(action, args.vertex))
    elif args.equi_op == "simplex":
        alpha = _parse_int_list(args.alpha, "--alpha")
        payload = _rational_payload(equivariant.simplex_integral(alpha, args.n))
    elif args.equi_op == "moment":
        payload = {"moment": str(equivariant.normalized_moment(action))}
    elif args.equi_op == "integral":
        ring = equivariant.simplex_ring(args.n)
        p = _from_flag("--poly", parse_poly, ring, args.poly)
        payload = _rational_payload(equivariant.moment_integral(p, args.n))
    else:
        raise InvalidInputError(f"unknown equi operation {args.equi_op!r}")
    payload["normalization"] = "unit-volume"
    return payload, 0


def _alpha_pairing(pres: RingPresentation, text: str) -> dict[str, Fraction]:
    degree_two = [
        name for name, degree in zip(pres.ring.generators, pres.ring.degrees)
        if degree == 2
    ]
    if text.strip() == "line":
        if not degree_two:
            raise InvalidInputError("--alpha: space has no degree-2 generator")
        return {degree_two[0]: Fraction(1)}
    pairing: dict[str, Fraction] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise InvalidInputError("--alpha: expected 'line' or name=value pairs")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in pres.ring.generators:
            raise InvalidInputError(f"--alpha: unknown generator {name!r}")
        if name not in degree_two:
            raise InvalidInputError(f"--alpha: {name!r} is not a degree-2 generator")
        pairing[name] = _from_flag("--alpha", parse_rational, value)
    return pairing


def _degree_two_class(pres: RingPresentation, text: str) -> GradedPoly:
    c = _from_flag("--class", parse_poly, pres.ring, text)
    if c.is_zero() or not c.is_homogeneous() or c.homogeneous_degree() != 2:
        raise InvalidInputError("--class: must be homogeneous of degree 2")
    return c


def _cmd_obstruct(args) -> tuple[dict, int]:
    pres = _parse_space(args.space)
    if args.obstruct_op == "dims":
        basis = obstruction.degree_basis(pres, args.degree)
        return {
            "degree": args.degree,
            "dimension": basis.dimension,
            "basis": [m.text(pres.ring) for m in basis.monomials],
        }, 0
    if args.obstruct_op == "member":
        z = _from_flag("--z", parse_poly, pres.ring, args.z)
        gens = [
            _from_flag("--gens", parse_poly, pres.ring, piece)
            for piece in args.gens.split(";") if piece.strip()
        ]
        return {"member": obstruction.ideal_membership(z, gens, pres)}, 0
    if args.obstruct_op == "hl":
        if pres.top_degree is None:
            raise InvalidInputError("--space: presentation has no recorded top degree")
        a = _degree_two_class(pres, args.cls)
        holds = obstruction.hard_lefschetz_check(pres, a, pres.top_degree // 2)
        return {"criterion": holds, "half_top_degree": pres.top_degree // 2}, 0
    pairing = _alpha_pairing(pres, args.alpha)
    if not any(pairing.values()):
        raise InvalidInputError("--alpha: the pairing functional is identically zero")
    if args.cls is not None:
        c = _degree_two_class(pres, args.cls)
    else:
        c = pres.ring.gen(next(name for name, value in pairing.items() if value))
    data = obstruction.ObstructionInput(pres, pairing, c)
    if data.pairing_value(c) == 0:
        raise InvalidInputError("--class: must pair nontrivially against --alpha")
    criterion, degree = {
        "square": (obstruction.whitehead_square_criterion, 4),
        "cube": (obstruction.whitehead_cube_criterion, 6),
    }[args.obstruct_op]
    return {"criterion": criterion(data), "degree_checked": degree, "hypothesis_checked": "none"}, 0


# -- the reference computation suite --------------------------------------------

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
    for k in range(1, 7):
        result = flagcoh.phi_pullback(k)
        ring = result.ring
        top = Monomial.make({j: 1 for j in range(k + 1)})
        expected = GradedPoly(
            ring, {top: Fraction(2 * (-1) ** k * math.factorial(k))}
        )
        if result != expected:
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


def paper_suite() -> dict:
    """Run every reference anchor; report one entry per anchor."""
    anchors = []
    failed = 0
    for anchor_id, runner in _ANCHORS:
        ok, detail = runner()
        if not ok:
            failed += 1
        anchors.append(
            {"id": anchor_id, "status": "pass" if ok else "fail", "detail": detail}
        )
    return {"anchors": anchors, "passed": len(anchors) - failed, "failed": failed}


def _cmd_paper(args) -> tuple[dict, int]:
    report = paper_suite()
    return report, 0 if report["failed"] == 0 else 1


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcalc",
        description="exact characteristic-class calculator",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="polynomial arithmetic in a declared ring")
    p_poly.add_argument("--gens", required=True, help="name:degree pairs, comma separated")
    p_poly.add_argument("--a", required=True)
    p_poly.add_argument("--b")
    p_poly.add_argument("--op", choices=("add", "mul", "pow", "none"), default="none")
    p_poly.add_argument("--e", type=_int_flag)
    p_poly.add_argument("--component", type=_int_flag)
    p_poly.set_defaults(handler=_cmd_poly)

    p_sym = sub.add_parser("sym", help="symmetric function calculus")
    p_sym.add_argument(
        "--op",
        choices=("monomial", "elementary", "to-elementary", "sigma-top"),
        required=True,
    )
    p_sym.add_argument("--partition")
    p_sym.add_argument("--vars", type=_int_flag, required=True)
    p_sym.add_argument("--k", type=_int_flag)
    p_sym.set_defaults(handler=_cmd_sym)

    p_chern = sub.add_parser("chern", help="Chern classes of bundle expressions")
    p_chern.add_argument("--expr", required=True)
    p_chern.add_argument("--k", type=_int_flag, required=True)
    p_chern.add_argument("--eval", choices=("sphere", "none"), default="none")
    p_chern.add_argument(
        "--emit", choices=("class", "roots", "monomial-symmetric"), default="class"
    )
    p_chern.set_defaults(handler=_cmd_chern)

    p_flag = sub.add_parser("flag", help="flag manifold presentations")
    p_flag.add_argument("--dims")
    p_flag.add_argument("--emit", choices=("relations", "basis", "dims"), default="dims")
    p_flag.add_argument("--inverse-series", type=_int_flag, dest="inverse_series")
    p_flag.add_argument("--degree", type=_int_flag)
    p_flag.set_defaults(handler=_cmd_flag)

    p_bundle = sub.add_parser("bundle", help="presented total spaces and fiber integration")
    p_bundle.add_argument("--space", default="point")
    p_bundle.add_argument("--emit", choices=("relations", "basis", "dims"), default="dims")
    p_bundle.add_argument("--integrate")
    p_bundle.add_argument("--normal")
    p_bundle.add_argument("--coefficient")
    p_bundle.add_argument("--basis-element", dest="basis_element")
    p_bundle.add_argument("--phi", type=_int_flag)
    p_bundle.set_defaults(handler=_cmd_bundle)

    p_mu = sub.add_parser("mu", help="coupling classes and their fiber integrals")
    p_mu.add_argument("--space", choices=("pcn-bundle", "trivial"), required=True)
    p_mu.add_argument("--base", required=True, help="even sphere base, e.g. s4")
    p_mu.add_argument("--n", type=_int_flag, required=True)
    p_mu.add_argument("--k", type=_int_flag)
    p_mu.add_argument("--emit", choices=("class", "coupling"), default="class")
    p_mu.add_argument("--nu", action="store_true", help="use the section-normalized class")
    p_mu.add_argument("--kappa", type=_int_flag, help="exponent for the vertical-class shape")
    p_mu.set_defaults(handler=_cmd_mu)

    p_equi = sub.add_parser("equi", help="exact circle-action integrals")
    equi_sub = p_equi.add_subparsers(dest="equi_op", required=True)
    eq_mu = equi_sub.add_parser("mu")
    eq_mu.add_argument("--n", type=_int_flag, required=True)
    eq_mu.add_argument("--weights", required=True)
    eq_mu.add_argument("--k", type=_int_flag, required=True)
    eq_su = equi_sub.add_parser("su-product")
    eq_su.add_argument("--ell", type=_int_flag, required=True)
    eq_su.add_argument("--k", type=_int_flag, required=True)
    eq_nu = equi_sub.add_parser("nu1")
    eq_nu.add_argument("--n", type=_int_flag, required=True)
    eq_nu.add_argument("--weights", required=True)
    eq_nu.add_argument("--vertex", type=_int_flag, required=True)
    eq_simplex = equi_sub.add_parser("simplex")
    eq_simplex.add_argument("--alpha", required=True)
    eq_simplex.add_argument("--n", type=_int_flag, required=True)
    eq_moment = equi_sub.add_parser("moment")
    eq_moment.add_argument("--n", type=_int_flag, required=True)
    eq_moment.add_argument("--weights", required=True)
    eq_integral = equi_sub.add_parser("integral")
    eq_integral.add_argument("--poly", required=True)
    eq_integral.add_argument("--n", type=_int_flag, required=True)
    for sub_parser in (eq_mu, eq_su, eq_nu, eq_simplex, eq_moment, eq_integral):
        sub_parser.set_defaults(handler=_cmd_equi)

    p_ob = sub.add_parser("obstruct", help="cohomological product criteria")
    ob_sub = p_ob.add_subparsers(dest="obstruct_op", required=True)
    ob_square = ob_sub.add_parser("square")
    ob_cube = ob_sub.add_parser("cube")
    for sub_parser in (ob_square, ob_cube):
        sub_parser.add_argument("--space", required=True)
        sub_parser.add_argument("--alpha", default="line")
        sub_parser.add_argument("--class", dest="cls")
    ob_hl = ob_sub.add_parser("hl")
    ob_hl.add_argument("--space", required=True)
    ob_hl.add_argument("--class", dest="cls", required=True)
    ob_dims = ob_sub.add_parser("dims")
    ob_dims.add_argument("--space", required=True)
    ob_dims.add_argument("--degree", type=_int_flag, required=True)
    ob_member = ob_sub.add_parser("member")
    ob_member.add_argument("--space", required=True)
    ob_member.add_argument("--z", required=True)
    ob_member.add_argument("--gens", default="", help="semicolon-separated generators")
    for sub_parser in (ob_square, ob_cube, ob_hl, ob_dims, ob_member):
        sub_parser.set_defaults(handler=_cmd_obstruct)

    p_paper = sub.add_parser("paper", help="re-run the reference computation suite")
    p_paper.set_defaults(handler=_cmd_paper)

    _allow_global_flags_anywhere(parser)
    return parser


def _allow_global_flags_anywhere(parser: argparse.ArgumentParser) -> None:
    """Let --output appear after the subcommand as well.

    SUPPRESS keeps an unused subparser occurrence from clobbering a value
    parsed at the top level.
    """
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                child.add_argument(
                    "--output", choices=("json", "text"), default=argparse.SUPPRESS
                )
                _allow_global_flags_anywhere(child)


def _emit(payload: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    lines = []
    if "anchors" in payload:
        for anchor in payload["anchors"]:
            lines.append(f"{anchor['status'].upper():4} {anchor['id']}: {anchor['detail']}")
        lines.append(f"passed {payload['passed']} failed {payload['failed']}")
        return "\n".join(lines)
    for key in sorted(payload):
        lines.append(f"{key}: {payload[key]}")
    return "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload, code = args.handler(args)
    except CharcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(_emit(payload, args.output))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
