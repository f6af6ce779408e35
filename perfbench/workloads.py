"""Fixtures, seeded query lists and answer checks for the library workloads.

Imported only by ``worker.py``, in a process that has put the checkout's
``src`` on the path.  A query is ``(label, call, check)``: ``call`` is the
timed library call, ``check`` compares its result with an oracle from
``oracles.py`` and returns ``None`` or a description of the wrong answer.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import oracles as O


def to_dict(poly) -> dict:
    return {m.dense(poly.ring): c for m, c in poly.terms.items()}


def from_dict(cc, ring, p: dict):
    return cc.GradedPoly(
        ring, {cc.Monomial.make({i: e for i, e in enumerate(m) if e}): c for m, c in p.items()}
    )


def expect_poly(want: dict):
    def check(result) -> str | None:
        got = to_dict(result)
        if got != want:
            return f"got {result}, expected {want}"
        return None

    return check


def expect_value(want):
    def check(result) -> str | None:
        return None if result == want else f"got {result}, expected {want}"

    return check


def small_rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 1, 2, 3]))
    return value


def random_homogeneous(rng: random.Random, weights: tuple, w: int, terms: int) -> dict:
    monomials = O.monomials_of_weight(weights, w)
    if not monomials:
        return {}
    chosen = rng.sample(monomials, min(terms, len(monomials)))
    return {m: small_rational(rng) for m in chosen}


# -- presentation-build ---------------------------------------------------------------

GRASSMANNIANS = [(m, k) for m in range(1, 5) for k in range(1, 5)]
FLAG_LADDER = [
    (1, 1, 1),
    (2, 1, 1),
    (3, 1, 1),
    (4, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (1, 1, 1, 1),
    (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
]
# The three slowest spaces are built once per round; every other space
# LIGHT_REPEATS times, each build in its own fresh process.  That gives 113
# builds, so the 90th percentile has ten builds above it and falls in the
# middle of the five flag(2,1,1,1) builds rather than between two spaces.
HEAVY = {(4, 4), (3, 4), (1, 1, 1, 1, 1)}
LIGHT_REPEATS = 5


def build_list(seed: int) -> list[tuple[int, ...]]:
    spaces = []
    for dims in GRASSMANNIANS + FLAG_LADDER:
        spaces += [dims] * (1 if dims in HEAVY else LIGHT_REPEATS)
    random.Random(seed).shuffle(spaces)
    return spaces


def build_space(cc, dims: tuple[int, ...]):
    """One cold build: return the presentation, its dimension vector and the
    nanoseconds they took.  The caller checks them with ``check_presentation``."""
    import time

    start = time.perf_counter_ns()
    if len(dims) == 2:
        pres = cc.flagcoh.grassmannian_presentation(*dims)
    else:
        pres = cc.flagcoh.flag_presentation(dims)
    dims_got = cc.flagcoh.dimension_vector(pres)
    return pres, dims_got, time.perf_counter_ns() - start


def check_presentation(cc, pres, dims, dims_got, seed) -> str | None:
    want = O.dimension_vector(dims)
    if dims_got != want:
        return f"{dims}: dimension vector {dims_got}, expected {want}"
    oracle = O.QuotientOracle(dims)
    if tuple(d // 2 for d in pres.ring.degrees) != oracle.weights:
        return f"{dims}: generator degrees {pres.ring.degrees} differ from the textbook ring"
    rng = random.Random(f"{seed}:{dims}")
    relations = [from_dict(cc, pres.ring, r) for r in oracle.relations]
    relations += list(pres.relations)
    combination = pres.ring.zero()
    for relation in relations:
        if not pres.normal_form(relation).is_zero():
            return f"{dims}: relation {relation} does not reduce to zero"
        w = rng.randrange(0, 3)
        h = random_homogeneous(rng, oracle.weights, w, 2) if w else {(0,) * len(oracle.weights): Fraction(1)}
        combination = combination + from_dict(cc, pres.ring, h) * relation
    if not pres.normal_form(combination).is_zero():
        return f"{dims}: a combination of relations does not reduce to zero"
    return None


# -- ring-query -------------------------------------------------------------------------

PE_CASES = [(n, k) for n in range(1, 5) for k in range(2, n + 2)]
GR_BUNDLE_BASES = [(2, 2), (3, 2), (2, 3)]


def ring_fixtures(cc) -> dict:
    fl = cc.flagcoh
    fx: dict = {
        "gr33": fl.grassmannian_presentation(3, 3),
        "gr44": fl.grassmannian_presentation(4, 4),
        "flag321": fl.flag_presentation((3, 2, 1)),
    }
    point = fl.point_presentation()
    for n in range(1, 9):
        fx[f"cp{n}"] = fl.projective_bundle(point, [point.ring.zero()] * (n + 1), n)
    for n, k in PE_CASES:
        base = fl.sphere_product_ring([2 * k], names=("b",))
        chern = [base.ring.zero()] * (n + 1)
        chern[k - 1] = base.ring.gen(0)
        fx[f"pe{n},{k}"] = fl.projective_bundle(base, chern, n)
    for m, k in GR_BUNDLE_BASES:
        base = fl.grassmannian_presentation(m, k)
        fx[f"pgr{m},{k}"] = fl.projective_bundle(base, base.ring.gens(), k - 1)
    for r in range(1, 10):
        fx[f"s{r}"] = fl.sphere_product_ring([2] * r)
    return fx


def ring_queries(cc, fx: dict, seed: int) -> list:
    rng = random.Random(seed)
    oracles = {
        "gr33": O.QuotientOracle((3, 3)),
        "gr44": O.QuotientOracle((4, 4)),
        "flag321": O.QuotientOracle((3, 2, 1)),
    }
    for m, k in GR_BUNDLE_BASES:
        oracles[f"gr{m},{k}"] = O.QuotientOracle((m, k))
    queries: list = []
    queries += _normal_form_queries(cc, fx, oracles, rng)
    queries += _fiber_queries(cc, fx, oracles, rng)
    queries += _coupling_queries(cc, fx, rng)
    queries += _membership_queries(cc, fx, rng)
    queries += _lefschetz_queries(cc, fx, rng)
    queries += _criterion_queries(cc, fx, rng)
    rng.shuffle(queries)
    return queries


def _normal_form_queries(cc, fx, oracles, rng) -> list:
    out = []
    for i in range(100):
        name = ("gr33", "gr44", "flag321")[i % 3]
        pres, oracle = fx[name], oracles[name]
        if i % 2:
            w = rng.randrange(1, oracle.top_weight + 3)
            p = random_homogeneous(rng, oracle.weights, w, rng.randrange(1, 6))
        else:
            linear = random_homogeneous(rng, oracle.weights, 1, 3)
            e = rng.randrange(2, oracle.top_weight + 2)
            p = O.ppow(linear, e, len(oracle.weights))
            poly = from_dict(cc, pres.ring, linear)
            out.append((f"nf-pow {name} e={e}", _nf_pow(pres, poly, e), expect_poly(oracle.normal_form(p))))
            continue
        poly = from_dict(cc, pres.ring, p)
        out.append((f"nf {name}", _nf(pres, poly), expect_poly(oracle.normal_form(p))))
    for _ in range(20):
        n = rng.randrange(1, 9)
        pres = fx[f"cp{n}"]
        q = small_rational(rng)
        e = rng.randrange(1, n + 4)
        want = O.cpn_nf({(e,): q**e}, n)
        poly = pres.ring.gen("c").scale(q)
        out.append((f"nf-pow cp{n} e={e}", _nf_pow(pres, poly, e), expect_poly(want)))
    for _ in range(25):
        n, k = rng.choice(PE_CASES)
        pres = fx[f"pe{n},{k}"]
        p = {}
        for _ in range(rng.randrange(1, 4)):
            p = O.padd(p, {(rng.randrange(0, n + 2 * k + 2), rng.randrange(0, 3)): small_rational(rng)})
        out.append((f"nf pe{n},{k}", _nf(pres, from_dict(cc, pres.ring, p)), expect_poly(O.pe_nf(p, n, k))))
    for r in range(2, 10):
        for e in sorted({2, (r + 1) // 2, min(r, 6)}):
            pres = fx[f"s{r}"]
            coeffs = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(r)]
            want = {}
            for subset in itertools.combinations(range(r), e):
                value = math.factorial(e) * math.prod(coeffs[i] for i in subset)
                want[tuple(1 if i in subset else 0 for i in range(r))] = Fraction(value)
            linear = {tuple(1 if i == j else 0 for i in range(r)): Fraction(c) for j, c in enumerate(coeffs)}
            out.append((f"nf-pow s{r} e={e}", _nf_pow(pres, from_dict(cc, pres.ring, linear), e), expect_poly(want)))
    return out


def _nf(pres, poly):
    return lambda: pres.normal_form(poly)


def _nf_pow(pres, poly, e):
    return lambda: pres.normal_form(poly**e)


def _fiber_queries(cc, fx, oracles, rng) -> list:
    fi = cc.flagcoh.fiber_integrate
    out = []
    for _ in range(20):
        n, k = rng.choice(PE_CASES)
        pres = fx[f"pe{n},{k}"]
        p = {}
        for _ in range(rng.randrange(1, 4)):
            p = O.padd(p, {(rng.randrange(n, n + 2 * k + 1), rng.randrange(0, 2)): small_rational(rng)})
        want = {(0, e): c for (a, e), c in O.pe_nf(p, n, k).items() if a == n}
        out.append((f"integrate pe{n},{k}", _call(fi, from_dict(cc, pres.ring, p), pres), expect_poly(want)))
    for _ in range(10):
        n = rng.randrange(1, 9)
        pres = fx[f"cp{n}"]
        p = {(rng.randrange(0, n + 2),): small_rational(rng) for _ in range(3)}
        want = {(0,): c for (a,), c in p.items() if a == n}
        out.append((f"integrate cp{n}", _call(fi, from_dict(cc, pres.ring, p), pres), expect_poly(want)))
    for _ in range(10):
        r = rng.randrange(2, 10)
        pres = fx[f"s{r}"]
        p = random_homogeneous(rng, (1,) * r, r, 4)
        p[(1,) * r] = small_rational(rng)
        want = {(0,) * r: c for m, c in O.sphere_product_nf(p).items() if m == (1,) * r}
        out.append((f"integrate s{r}", _call(fi, from_dict(cc, pres.ring, p), pres), expect_poly(want)))
    for _ in range(15):
        m, k = rng.choice(GR_BUNDLE_BASES)
        pres, base = fx[f"pgr{m},{k}"], oracles[f"gr{m},{k}"]
        n = k - 1
        a = rng.randrange(0, n + m + 2)
        beta = rng.choice(O.monomials_of_weight(base.weights, rng.randrange(0, 3)))
        # p_!(c^(n+j) beta) = s_j beta, s = 1/c(E) the Segre class
        want_base = base.normal_form(O.pmul(base.inverse[a - n], {beta: Fraction(1)})) if a >= n else {}
        want = {(0,) + mono: c for mono, c in want_base.items()}
        p = from_dict(cc, pres.ring, {(a,) + beta: Fraction(1)})
        out.append((f"integrate pgr{m},{k} c^{a}", _call(fi, p, pres), expect_poly(want)))
    return out


def _call(fn, *args):
    return lambda: fn(*args)


def _coupling_queries(cc, fx, rng) -> list:
    co = cc.coupling
    out = []
    for _ in range(40):
        n, k = rng.choice(PE_CASES)
        pres = fx[f"pe{n},{k}"]
        c = pres.ring.gen("c")
        kind = rng.choice(["mu", "nu", "mixed", "coupling"])
        if kind == "coupling":
            data = co.CouplingInput(pres, c, n)
            out.append((f"coupling pe{n},{k}", _call(co.coupling_class, data), _check_coupling(n, k)))
            continue
        j = rng.randrange(1, 2 * k + 2)
        if kind == "mixed":
            scale = rng.choice([1, 2, -1, 3])
            e = rng.randrange(0, 3)
            data = co.CouplingInput(pres, c, n)
            idx = co.MixedIndex(j, (e,), (c.scale(scale),))
            want = _segre(j + e - n, k, Fraction(scale) ** e)
            out.append((f"mixed pe{n},{k} j={j} e={e}", _call(co.mixed_class, data, idx), expect_poly(want)))
            continue
        section = {"c": pres.ring.zero()} if kind == "nu" else None
        data = co.CouplingInput(pres, c, n, section)
        fn = co.nu_class if kind == "nu" else co.mu_class
        out.append((f"{kind} pe{n},{k} j={j}", _call(fn, data, j), expect_poly(_segre(j, k, 1))))
    return out


def _segre(j: int, k: int, scale) -> dict:
    """s_j of the bundle with total class 1 + b, b of weight k and b^2 = 0."""
    if j == 0:
        return {(0, 0): Fraction(scale)}
    if j == k:
        return {(0, 1): -Fraction(scale)}
    return {}


def _check_coupling(n: int, k: int):
    def check(result) -> str | None:
        got = to_dict(result)
        power = O.pe_nf(O.ppow(got, n + 1, 2), n, k)
        if any(a == n for (a, _), c in power.items()):
            return f"coupling class {result}: its power n+1 integrates to {power}"
        if got != {(1, 0): Fraction(1)}:
            return f"coupling class {result}, expected c (k >= 2 leaves c unchanged)"
        return None

    return check


def _membership_queries(cc, fx, rng) -> list:
    member = cc.obstruction.ideal_membership
    out = []
    for i in range(60):
        name, m, k = (("gr33", 3, 3), ("gr44", 4, 4))[i % 2]
        pres = fx[name]
        gens = pres.ring.gens()[1:]
        weights = tuple(range(1, k + 1))
        if i % 4 < 2:
            d = rng.randrange(1, m + 4)
            z = pres.ring.gen("y1") ** d
            out.append((f"member {name} y1^{d}", _call(member, z, gens, pres), expect_value(d >= m + 1)))
            continue
        w = rng.randrange(2, m * k + 1)
        z = pres.ring.zero()
        for i, g in enumerate(gens, start=2):
            if w >= i:
                h = random_homogeneous(rng, weights, w - i, 2) if w > i else {(0,) * k: Fraction(1)}
                z = z + from_dict(cc, pres.ring, h) * g
        if z.is_zero():
            z = gens[0]
        out.append((f"member {name} combination w={w}", _call(member, z, gens, pres), expect_value(True)))
    return out


def _lefschetz_queries(cc, fx, rng) -> list:
    hl = cc.obstruction.hard_lefschetz_check
    out = []
    for name in ("gr33", "gr44"):
        pres = fx[name]
        a = pres.ring.gen("y1").scale(small_rational(rng))
        out.append((f"hl {name}", _call(hl, pres, a, pres.top_degree // 2), expect_value(True)))
    for _ in range(6):
        n = rng.randrange(1, 9)
        pres = fx[f"cp{n}"]
        a = pres.ring.gen("c").scale(small_rational(rng))
        out.append((f"hl cp{n}", _call(hl, pres, a, n), expect_value(True)))
    for r, degenerate in itertools.product(range(3, 8), (False,) * 5 + (True,)):
        pres = fx[f"s{r}"]
        weights = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(r)]
        if degenerate:
            weights[rng.randrange(r)] = 0
        a = pres.ring.zero()
        for y, w in zip(pres.ring.gens(), weights):
            a = a + y.scale(w)
        out.append((f"hl s{r} {weights}", _call(hl, pres, a, r), expect_value(all(weights))))
    return out


def _criterion_queries(cc, fx, rng) -> list:
    ob = cc.obstruction
    out = []
    for _ in range(20):
        n = rng.randrange(1, 9)
        pres = fx[f"cp{n}"]
        data = ob.ObstructionInput(
            pres, {"c": small_rational(rng)}, pres.ring.gen("c").scale(small_rational(rng))
        )
        if rng.random() < 0.5:
            out.append((f"square cp{n}", _call(ob.whitehead_square_criterion, data), expect_value(n == 1)))
        else:
            out.append((f"cube cp{n}", _call(ob.whitehead_cube_criterion, data), expect_value(n <= 2)))
    return out


# -- splitting-pairing --------------------------------------------------------------------


def to_bundle(cc, tree: tuple, leaf):
    head = tree[0]
    if head == "E":
        return leaf
    if head == "triv":
        return cc.Trivial(tree[1])
    if head == "dual":
        return cc.Dual(to_bundle(cc, tree[1], leaf))
    if head == "lambda2":
        return cc.Lambda2(to_bundle(cc, tree[1], leaf))
    node = cc.Sum if head == "sum" else cc.Tensor
    return node(to_bundle(cc, tree[1], leaf), to_bundle(cc, tree[2], leaf))


SPHERE_TEMPLATES = [
    lambda e: e,
    lambda e: ("lambda2", e),
    lambda e: ("sum", e, ("triv", 1)),
    lambda e: ("tensor", e, e),
    lambda e: ("sum", ("lambda2", e), e),
    lambda e: ("lambda2", ("sum", e, ("triv", 1))),
    lambda e: ("sum", ("tensor", e, e), ("lambda2", e)),
    lambda e: ("tensor", ("sum", e, ("triv", 1)), e),
]


def sphere_schedule() -> list[tuple[tuple, int]]:
    """Fixed (tree, k) shapes: rank at most 16, k next to the leaf rank."""
    out = [(("tensor", ("E", 6), ("dual", ("E", 6))), 6)]  # the largest anchor
    for m in range(1, 7):
        for template in SPHERE_TEMPLATES:
            tree = template(("E", m))
            if O.rank(tree) > 16:
                continue
            out += [(tree, k) for k in (m - 1, m, m + 1) if 1 <= k <= 6]
    return out


def vary(rng: random.Random, tree: tuple) -> tuple:
    """Same rank and size: duals inserted and operands swapped at random."""
    head = tree[0]
    if head in ("E", "triv"):
        out = tree
    elif head in ("dual", "lambda2"):
        out = (head, vary(rng, tree[1]))
    else:
        left, right = vary(rng, tree[1]), vary(rng, tree[2])
        out = (head, right, left) if rng.random() < 0.5 else (head, left, right)
    return ("dual", out) if head != "triv" and rng.random() < 0.3 else out


# Circle actions with C(n+k, k) <= 1716, which keeps each under a quarter second.
CIRCLE_SIZES = [(n, k) for n in range(1, 9) for k in range(1, 9) if math.comb(n + k, k) <= 1716]


def partitions(total: int, largest: int | None = None):
    """Partitions of ``total`` as weakly decreasing tuples, largest first."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


ELEMENTARY_CASES = [
    (parts, v)
    for v in (3, 5, 8)
    for total in range(1, 6)
    for parts in partitions(total)
    if len(parts) <= v
]


def splitting_queries(cc, seed: int) -> list:
    """Fixed shapes and sizes, so every seed costs about the same; the seed
    draws the trees' duals and operand order, the weights and the points."""
    rng = random.Random(seed)
    out: list = []
    for tree, k in sphere_schedule():
        tree = vary(rng, tree)
        leaf = cc.Universal(O.leaf_rank(tree))
        expr = to_bundle(cc, tree, leaf)
        out.append((f"sphere_eval {O.tree_text(tree)} k={k}", _call(cc.sphere_eval, expr, k), expect_value(O.sphere_pairing(tree, k))))
    for n, k in CIRCLE_SIZES:
        # one positive and one negative weight keep the action nontrivial
        weights = [rng.randrange(1, 6), rng.randrange(-5, 0)]
        weights += [rng.randrange(-5, 6) for _ in range(n - 1)]
        rng.shuffle(weights)
        weights = tuple(weights)
        action = cc.WeightedCircleAction(n, weights)
        out.append((f"mu_of_circle {weights} k={k}", _call(cc.mu_of_circle, action, k), expect_value(O.circle_mu(weights, k))))
    for ell in range(2, 6):
        for k in range(2, ell + 1):
            out.append((f"su_product {ell},{k}", _call(cc.su_product_integral, ell, k), expect_value(O.su_product(ell, k))))
    for k in range(1, 11):
        out.append((f"phi_pullback {k}", _call(cc.phi_pullback, k), _check_phi(k)))
    for parts, v in ELEMENTARY_CASES:
        out.append((f"to_elementary s{parts} v={v}", _to_elementary(cc, parts, v), _check_elementary(parts, v, rng)))
    rng.shuffle(out)
    return out


def _check_phi(k: int):
    def check(result) -> str | None:
        want = {(1,) * (k + 1): O.phi_coefficient(k)}
        got = to_dict(result)
        return None if got == want else f"got {result}, expected {want}"

    return check


def _to_elementary(cc, parts, v):
    partition = cc.Partition(parts)

    def call():
        source = cc.symfun.monomial_symmetric(partition, v)
        return source, cc.symfun.to_elementary(source, v)

    return call


def _check_elementary(parts, v, rng: random.Random):
    points = [[Fraction(rng.randrange(-7, 8), rng.randrange(1, 4)) for _ in range(v)] for _ in range(2)]

    def check(result) -> str | None:
        source, elem = result
        terms = to_dict(source)
        if len(terms) != O.orbit_size(parts, v) or any(
            c != 1 or tuple(sorted((e for e in m if e), reverse=True)) != parts
            for m, c in terms.items()
        ):
            return f"monomial_symmetric{parts} in {v} variables is not the orbit sum"
        for point in points:
            want = O.evaluate(terms, point)
            got = O.evaluate(to_dict(elem.poly), O.elementary_values(point))
            if got != want:
                return f"elementary form {elem} evaluates to {got}, expected {want} at {point}"
        return None

    return check
