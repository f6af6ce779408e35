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


# Largest n accepted for --space cpN / cpn:N, and for the fiber dimension N of
# --space pe:N,K, checked before any list is built.
MAX_PROJECTIVE_DIM = 10_000
# Most factors of --space sphere:...; the ring builds and checks all 2^r
# square-free basis monomials before any query.
MAX_SPHERE_FACTORS = 16
# Largest --partition weight for sym --op to-elementary|sigma-top.
MAX_SYM_WEIGHT = 16
# Largest --vars for every sym op, and --inverse-series for flag, checked
# before any ring or orbit is built.
MAX_SYM_VARS = 10_000
# Most terms sym --op monomial|elementary and flag --inverse-series print,
# counted before any is built.
MAX_SYM_TERMS = 10**5
# Largest rank of a chern --expr bundle, and most root variables its universal
# leaves may hold, checked before any root or pairing.
MAX_BUNDLE_RANK = 10_000
# Most work chern may do to build a class (without --eval sphere): rank x
# C(g + k, k) for g root variables, checked before any root is built.
MAX_CHERN_WORK = 5 * 10**5
# Largest k for bundle --phi: the class has k+1 generators and k! in it.
MAX_PHI = 10_000
# Largest --ell for equi su-product: the moment sum visits up to 3^k subset
# pairs, k <= ell.
MAX_SU_ELL = 12
# Most work poly --op pow may do, checked before the power: e x C(e + g - 1, g - 1)
# for g terms, which bounds the coefficient products of the power's ladder.
MAX_POWER_WORK = 2 * 10**6


# -- small input parsers -------------------------------------------------------

_T = TypeVar("_T")


def _from_flag(flag: str, call: Callable[..., _T], *args) -> _T:
    """``call(*args)`` on a flag's value; a charcalc error it raises names the flag."""
    try:
        return call(*args)
    except CharcalcError as exc:
        raise InvalidInputError(f"{flag}: {exc}") from exc


def _int_flag(low: int = 0, high: int | None = None) -> Callable[[str], int]:
    """The argparse type of an integer flag: decimal digits, as ``parse_int``
    reads them, from ``low`` up to the budget ``high``.  The parser's error
    names the flag."""

    def parse(text: str) -> int:
        try:
            value = parse_int(text)
        except InvalidInputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is over the budget of {high}")
        return value

    return parse


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
        if len(dims) > MAX_SPHERE_FACTORS:
            raise InvalidInputError(
                f"--space: {len(dims)} sphere factors are over the budget of {MAX_SPHERE_FACTORS}"
            )
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
        if dims[0] > MAX_PROJECTIVE_DIM:
            raise InvalidInputError(
                f"--space: fiber dimension {dims[0]} is over the budget of {MAX_PROJECTIVE_DIM}")
        return _from_flag("--space", _sphere_base_bundle, dims[0], dims[1])
    raise InvalidInputError(f"--space: unknown space {text!r}")


def _projective_space(n: int) -> RingPresentation:
    if not 1 <= n <= MAX_PROJECTIVE_DIM:
        raise InvalidInputError(f"--space: projective space needs 1 <= n <= {MAX_PROJECTIVE_DIM}")
    point = flagcoh.point_presentation()
    zeros = [point.ring.zero()] * (n + 1)
    return flagcoh.projective_bundle(point, zeros, n)


def _sphere_base_bundle(n: int, k: int) -> RingPresentation:
    """P(E) over the 2k-sphere with c_k(E) the sphere class and others zero."""
    if not 1 <= k <= n + 1:
        raise InvalidInputError("need 1 <= k <= n + 1")
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
        g = len(a.terms)
        if _over_work_budget(args.e if g else 0, args.e, g - 1, MAX_POWER_WORK):
            raise InvalidInputError(
                f"--e: the power is over the work budget of {MAX_POWER_WORK} "
                f"(e x C(e + g - 1, g - 1) with g = {g} terms)"
            )
        result = poly_pow(a, args.e)
    else:
        result = a
    if args.component is not None:
        result = graded_component(result, args.component)
    return {"result": str(result), "degree": result.degree()}, 0


def _over_work_budget(start: int, n: int, k: int, budget: int) -> bool:
    """Whether ``start x C(n + k, k)`` is over ``budget``.  The count climbs one
    factor of C(n + k, k) at a time and stops past the budget."""
    work = start
    for j in range(1, k + 1):
        if work > budget:
            break
        work = work * (n + j) // j  # start * C(n + j, j), exactly
    return work > budget


def _check_sym_terms(count: int, what: str, v: int) -> None:
    if count > MAX_SYM_TERMS:
        raise InvalidInputError(
            f"--vars: {what} in {v} variables has more than the budget of {MAX_SYM_TERMS} terms"
        )


def _cmd_sym(args) -> tuple[dict, int]:
    if args.op == "elementary":
        if args.k is None:
            raise InvalidInputError("--k: required for elementary")
        _check_sym_terms(math.comb(args.vars, args.k), f"sigma_{args.k}", args.vars)
        return {"poly": str(symfun.elementary(args.k, args.vars))}, 0
    if args.partition is None:
        raise InvalidInputError("--partition: required for this operation")
    I = _from_flag("--partition", symfun.Partition.parse, args.partition)
    if args.op == "sigma-top" and args.k is None:
        raise InvalidInputError("--k: required for sigma-top")
    if args.op == "monomial":
        _check_sym_terms(symfun.orbit_size(I, args.vars), f"s{I}", args.vars)
        return {"poly": str(_from_flag("--partition", symfun.monomial_symmetric, I, args.vars))}, 0
    if I.weight > MAX_SYM_WEIGHT:
        raise InvalidInputError(f"--partition: weight {I.weight} is over the budget of {MAX_SYM_WEIGHT}")
    elem = _from_flag("--partition", symfun.SymExpr, {I: Fraction(1)}, args.vars).to_elementary()
    if args.op == "to-elementary":
        return {"elementary": str(elem)}, 0
    return _rational_payload(symfun.sigma_top_coefficient(elem, args.k)), 0


def _check_rank(expr: bundlecalc.BundleExpr) -> None:
    """Refuse a bundle over ``MAX_BUNDLE_RANK``, or whose universal leaves hold
    more root variables than that (a rank-0 tensor factor hides them from the
    rank).  Each rank is capped one past the budget as the fold climbs, since
    nested lambda2 doubles the rank's bit length at each level; the rules are
    monotone, so the capped rank is over the budget exactly when the true one is."""
    cap = MAX_BUNDLE_RANK + 1

    def visit(node: bundlecalc.BundleExpr, inner: list[int]) -> int:
        return min(bundlecalc._rank(node, inner), cap)

    if bundlecalc._fold(expr, visit) == cap:
        raise InvalidInputError(f"--expr: rank is over the budget of {MAX_BUNDLE_RANK}")
    if sum(leaf.m for leaf in bundlecalc.universal_leaves(expr)) > MAX_BUNDLE_RANK:
        raise InvalidInputError(
            f"--expr: the universal leaves hold more than {MAX_BUNDLE_RANK} root variables"
        )


def _check_chern_work(expr: bundlecalc.BundleExpr, k: int) -> None:
    """Refuse a class whose build is over ``MAX_CHERN_WORK``.  The total class
    is a product of rank factors ``1 + root`` in g root variables, truncated
    at degree 2k, so each partial product has at most C(g + k, k) terms; past
    the rank the product stops growing, so k counts at most the rank."""
    rank = expr.rank
    g = sum(leaf.m for leaf in bundlecalc.universal_leaves(expr))
    if _over_work_budget(rank, g, min(k, rank), MAX_CHERN_WORK):
        raise InvalidInputError(
            f"--k: the class is over the work budget of {MAX_CHERN_WORK} "
            f"(rank x C(g + k, k) with rank {rank} and g = {g} root variables)"
        )


def _cmd_chern(args) -> tuple[dict, int]:
    expr = _from_flag("--expr", bundlecalc.parse_bundle_expr, args.expr)
    _check_rank(expr)
    if args.eval == "sphere":
        if args.k < 1:
            raise InvalidInputError("--k: must be at least 1 with --eval sphere")
        return _rational_payload(_from_flag("--expr", bundlecalc.sphere_eval, expr, args.k)), 0
    if args.emit == "roots":
        roots = bundlecalc.chern_roots(expr)
        return {"rank": len(roots), "roots": [str(r) for r in roots]}, 0
    _check_chern_work(expr, args.k)
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
    return {"basis": [m.text(pres.ring) for m in pres.fiber_basis]}


def _check_series_terms(v: int, d: int) -> None:
    """Refuse an inverse series of more than ``MAX_SYM_TERMS`` terms.  Piece i
    has one term per partition of i into parts <= v, so at least one; the count
    adds one part size at a time and stops past the budget."""
    total = d
    if d <= MAX_SYM_TERMS:
        counts = [1] * (d + 1)  # partitions into parts <= 1
        for part in range(2, min(v, d) + 1):
            if total > MAX_SYM_TERMS:
                break
            for i in range(part, d + 1):
                counts[i] += counts[i - part]
            total = sum(counts) - 1
    if total > MAX_SYM_TERMS:
        raise InvalidInputError(
            f"--degree: the series in {v} variables has more than the budget of {MAX_SYM_TERMS} terms"
        )


def _cmd_flag(args) -> tuple[dict, int]:
    if args.inverse_series is not None:
        if args.degree is None or args.degree < 1:
            raise InvalidInputError("--degree: a degree of at least 1 is required with --inverse-series")
        _check_series_terms(args.inverse_series, args.degree)
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
        return {"class": str(_from_flag("--basis-element", pres.fiber_coefficient, p, b))}, 0
    return _presentation_payload(pres, args.emit), 0


def _coupling_input(args) -> coupling.CouplingInput:
    base_text = args.base.strip().lower()
    if not base_text.startswith("s"):
        raise InvalidInputError("--base: expected an even sphere like s4")
    base_dim = _from_flag("--base", parse_int, base_text[1:])
    if base_dim % 2:
        raise InvalidInputError("--base: sphere dimension must be even")
    build = _sphere_base_bundle if args.space == "pcn-bundle" else _trivial_bundle
    pres = _from_flag("--base", build, args.n, base_dim // 2)
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
    result = _from_flag("--k", coupling.nu_class if args.nu else coupling.mu_class, data, args.k)
    return {"class": str(result), "degree": 2 * args.k}, 0


def _cmd_equi(args) -> tuple[dict, int]:
    if args.equi_op in ("mu", "nu1", "moment"):
        weights = tuple(_parse_int_list(args.weights, "--weights", parse_signed_int))
        action = _from_flag("--weights", equivariant.WeightedCircleAction, args.n, weights)
    if args.equi_op == "mu":
        value = equivariant.mu_of_circle(action, args.k)
    elif args.equi_op == "su-product":
        value = _from_flag("--k", equivariant.su_product_integral, args.ell, args.k)
    elif args.equi_op == "nu1":
        value = _from_flag("--vertex", equivariant.nu1_at_fixed_point, action, args.vertex)
    elif args.equi_op == "simplex":
        alpha = _parse_int_list(args.alpha, "--alpha")
        value = _from_flag("--alpha", equivariant.simplex_integral, alpha, args.n)
    elif args.equi_op == "integral":
        ring = equivariant.simplex_ring(args.n)
        p = _from_flag("--poly", parse_poly, ring, args.poly)
        value = equivariant.moment_integral(p, args.n)
    else:
        moment = equivariant.normalized_moment(action)
        return {"moment": str(moment), "normalization": "unit-volume"}, 0
    return {**_rational_payload(value), "normalization": "unit-volume"}, 0


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
        if not z.is_homogeneous():
            raise InvalidInputError("--z: must be homogeneous")
        gens = [
            _from_flag("--gens", parse_poly, pres.ring, piece)
            for piece in args.gens.split(";") if piece.strip()
        ]
        return {"member": _from_flag("--gens", obstruction.ideal_membership, z, gens, pres)}, 0
    if args.obstruct_op == "hl":
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


def paper_suite() -> dict:
    """Run every reference anchor; report one entry per anchor.  The anchors
    live in ``charcalc.paper``, imported here so that no other command pays
    for compiling them."""
    from . import paper

    anchors = []
    failed = 0
    for anchor_id, runner in paper._ANCHORS:
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


class _Parser(argparse.ArgumentParser):
    """A parser whose errors take the one path every CLI error takes: an
    ``InvalidInputError`` that ``run`` prints as one ``error: --flag: reason``
    line, in place of argparse's usage block.  At a subcommand position it names
    the first option there the parser does not know, or else ``<subcommand>``."""

    _seen: Sequence[str] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._seen = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        message = message.removeprefix("argument ")
        commands = self._get_positional_actions()  # the subcommand, in a parser that has one
        if message.startswith("unrecognized arguments: "):
            message = f"{message.split()[2].split('=')[0]}: unrecognized argument"
        elif commands and commands[0].dest in (message.split(":")[0], message.split()[-1]):
            unknown = [a.split("=")[0] for a in self._seen
                       if a.startswith("-") and a.split("=")[0] not in self._option_string_actions]
            if unknown:
                message = f"{unknown[0]}: {self.prog} takes a subcommand before it"
            else:  # "<dest>: invalid choice: 'x' (choose from ...)" or "... required: <dest>"
                reason = message.partition(": ")[2].split(" (")[0]
                message = f"<subcommand>: {'required' if message.endswith(commands[0].dest) else reason}"
            message += f" (choose from {', '.join(commands[0].choices)})"
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    # every parser takes --output, before or after a subcommand; SUPPRESS keeps a
    # parser that did not see it from overwriting the value another one parsed
    output = _Parser(add_help=False)
    output.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)

    def add(subparsers, name: str, **kwargs) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, parents=[output], **kwargs)

    parser = _Parser(
        prog="charcalc",
        description="exact characteristic-class calculator",
        parents=[output],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = add(sub, "poly", help="polynomial arithmetic in a declared ring")
    p_poly.add_argument("--gens", required=True, help="name:degree pairs, comma separated")
    p_poly.add_argument("--a", required=True)
    p_poly.add_argument("--b")
    p_poly.add_argument("--op", choices=("add", "mul", "pow", "none"), default="none")
    p_poly.add_argument("--e", type=_int_flag())
    p_poly.add_argument("--component", type=_int_flag())
    p_poly.set_defaults(handler=_cmd_poly)

    p_sym = add(sub, "sym", help="symmetric function calculus")
    p_sym.add_argument(
        "--op",
        choices=("monomial", "elementary", "to-elementary", "sigma-top"),
        required=True,
    )
    p_sym.add_argument("--partition")
    p_sym.add_argument("--vars", type=_int_flag(1, MAX_SYM_VARS), required=True)
    p_sym.add_argument("--k", type=_int_flag())
    p_sym.set_defaults(handler=_cmd_sym)

    p_chern = add(sub, "chern", help="Chern classes of bundle expressions")
    p_chern.add_argument("--expr", required=True)
    p_chern.add_argument("--k", type=_int_flag(), required=True)
    p_chern.add_argument("--eval", choices=("sphere", "none"), default="none")
    p_chern.add_argument(
        "--emit", choices=("class", "roots", "monomial-symmetric"), default="class"
    )
    p_chern.set_defaults(handler=_cmd_chern)

    p_flag = add(sub, "flag", help="flag manifold presentations")
    p_flag.add_argument("--dims")
    p_flag.add_argument("--emit", choices=("relations", "basis", "dims"), default="dims")
    p_flag.add_argument("--inverse-series", type=_int_flag(1, MAX_SYM_VARS), dest="inverse_series")
    p_flag.add_argument("--degree", type=_int_flag())
    p_flag.set_defaults(handler=_cmd_flag)

    p_bundle = add(sub, "bundle", help="presented total spaces and fiber integration")
    p_bundle.add_argument("--space", default="point")
    p_bundle.add_argument("--emit", choices=("relations", "basis", "dims"), default="dims")
    p_bundle.add_argument("--integrate")
    p_bundle.add_argument("--normal")
    p_bundle.add_argument("--coefficient")
    p_bundle.add_argument("--basis-element", dest="basis_element")
    p_bundle.add_argument("--phi", type=_int_flag(1, MAX_PHI))
    p_bundle.set_defaults(handler=_cmd_bundle)

    p_mu = add(sub, "mu", help="coupling classes and their fiber integrals")
    p_mu.add_argument("--space", choices=("pcn-bundle", "trivial"), required=True)
    p_mu.add_argument("--base", required=True, help="even sphere base, e.g. s4")
    p_mu.add_argument("--n", type=_int_flag(), required=True)
    p_mu.add_argument("--k", type=_int_flag())
    p_mu.add_argument("--emit", choices=("class", "coupling"), default="class")
    p_mu.add_argument("--nu", action="store_true", help="use the section-normalized class")
    p_mu.add_argument("--kappa", type=_int_flag(), help="exponent for the vertical-class shape")
    p_mu.set_defaults(handler=_cmd_mu)

    p_equi = add(sub, "equi", help="exact circle-action integrals")
    equi_sub = p_equi.add_subparsers(dest="equi_op", required=True)
    eq_mu = add(equi_sub, "mu")
    eq_mu.add_argument("--n", type=_int_flag(1), required=True)
    eq_mu.add_argument("--weights", required=True)
    eq_mu.add_argument("--k", type=_int_flag(1), required=True)
    eq_su = add(equi_sub, "su-product")
    eq_su.add_argument("--ell", type=_int_flag(0, MAX_SU_ELL), required=True)
    eq_su.add_argument("--k", type=_int_flag(), required=True)
    eq_nu = add(equi_sub, "nu1")
    eq_nu.add_argument("--n", type=_int_flag(1), required=True)
    eq_nu.add_argument("--weights", required=True)
    eq_nu.add_argument("--vertex", type=_int_flag(), required=True)
    eq_simplex = add(equi_sub, "simplex")
    eq_simplex.add_argument("--alpha", required=True)
    eq_simplex.add_argument("--n", type=_int_flag(1), required=True)
    eq_moment = add(equi_sub, "moment")
    eq_moment.add_argument("--n", type=_int_flag(1), required=True)
    eq_moment.add_argument("--weights", required=True)
    eq_integral = add(equi_sub, "integral")
    eq_integral.add_argument("--poly", required=True)
    eq_integral.add_argument("--n", type=_int_flag(1), required=True)
    for sub_parser in (eq_mu, eq_su, eq_nu, eq_simplex, eq_moment, eq_integral):
        sub_parser.set_defaults(handler=_cmd_equi)

    p_ob = add(sub, "obstruct", help="cohomological product criteria")
    ob_sub = p_ob.add_subparsers(dest="obstruct_op", required=True)
    ob_square = add(ob_sub, "square")
    ob_cube = add(ob_sub, "cube")
    for sub_parser in (ob_square, ob_cube):
        sub_parser.add_argument("--space", required=True)
        sub_parser.add_argument("--alpha", default="line")
        sub_parser.add_argument("--class", dest="cls")
    ob_hl = add(ob_sub, "hl")
    ob_hl.add_argument("--space", required=True)
    ob_hl.add_argument("--class", dest="cls", required=True)
    ob_dims = add(ob_sub, "dims")
    ob_dims.add_argument("--space", required=True)
    ob_dims.add_argument("--degree", type=_int_flag(), required=True)
    ob_member = add(ob_sub, "member")
    ob_member.add_argument("--space", required=True)
    ob_member.add_argument("--z", required=True)
    ob_member.add_argument("--gens", default="", help="semicolon-separated generators")
    for sub_parser in (ob_square, ob_cube, ob_hl, ob_dims, ob_member):
        sub_parser.set_defaults(handler=_cmd_obstruct)

    p_paper = add(sub, "paper", help="re-run the reference computation suite")
    p_paper.set_defaults(handler=_cmd_paper)

    return parser


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
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(output="json"))
        payload, code = args.handler(args)
    except CharcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(_emit(payload, args.output))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
