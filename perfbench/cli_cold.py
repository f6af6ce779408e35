"""Command list and output checks for the cli-cold workload.

Every command runs as ``python -m charcalc.cli ...`` in a fresh process.  The
list holds the README's golden commands, at least one command per
subcommand, the two slow anchors (hard Lefschetz on gr(4,4) and ``paper``),
three inputs that fail today, and seeded small commands up to ``ROUND_SIZE``.
Nothing here imports charcalc: outputs are checked against ``oracles.py``.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import oracles as O

ROUND_SIZE = 100

# Malformed input must exit 2 with a one-line diagnostic naming the flag
# (README, exit codes).  These three exit 1 today; each counts as failed
# until the error boundary is fixed.
KNOWN_FAULTS = [
    (["obstruct", "square", "--space", "cpn:"], "--space", "IndexError in _parse_space"),
    (["obstruct", "square", "--space", "cp2", "--alpha", "c=abc"], "--alpha",
     "Fraction ValueError in _alpha_pairing"),
    (["obstruct", "square", "--space", "cp2", "--alpha", "c=1/0"], "--alpha",
     "ZeroDivisionError in _alpha_pairing"),
]


def _value(want: Fraction, **extra):
    def check(payload: dict) -> str | None:
        got = payload.get("value")
        if got is None or Fraction(got) != want:
            return f"value {got}, expected {want}"
        for key, value in extra.items():
            if payload.get(key) != value:
                return f"{key} {payload.get(key)!r}, expected {value!r}"
        return None

    return check


def _fields(**want):
    def check(payload: dict) -> str | None:
        for key, value in want.items():
            if payload.get(key) != value:
                return f"{key} {payload.get(key)!r}, expected {value!r}"
        return None

    return check


def _poly(key: str, names: tuple[str, ...], want: dict, **extra):
    def check(payload: dict) -> str | None:
        text = payload.get(key)
        if text is None or O.parse_canonical(text, names) != want:
            return f"{key} {text!r}, expected {want}"
        return _fields(**extra)(payload)

    return check


def _dims(dims: tuple[int, ...]):
    want = O.dimension_vector(dims)
    return _fields(dim_by_degree=want, total=sum(want))


def _paper(payload: dict) -> str | None:
    if payload.get("passed") != 22 or payload.get("failed") != 0:
        return f"paper passed {payload.get('passed')} failed {payload.get('failed')}"
    return None


def _segre_text(j: int, k: int) -> dict:
    return {(0, 1): Fraction(-1)} if j == k else {}


def fixed_commands() -> list[tuple[list[str], object]]:
    e4 = ("E", 4)
    return [
        (["chern", "--expr", "lambda2(E4)", "--k", "4", "--eval", "sphere"],
         _value(O.sphere_pairing(("lambda2", e4), 4))),
        (["flag", "--dims", "2,2", "--emit", "dims"], _dims((2, 2))),
        (["equi", "mu", "--n", "2", "--weights", "1,-1,0", "--k", "2"],
         _value(O.circle_mu((1, -1, 0), 2), normalization="unit-volume")),
        (["mu", "--space", "pcn-bundle", "--base", "s4", "--n", "1", "--k", "2"],
         _poly("class", ("c", "b"), _segre_text(2, 2), degree=4)),
        (["obstruct", "hl", "--space", "gr:2,2", "--class", "y1"],
         _fields(criterion=True, half_top_degree=4)),
        (["paper"], _paper),
        (["obstruct", "hl", "--space", "gr:4,4", "--class", "y1"],
         _fields(criterion=True, half_top_degree=16)),
        (["poly", "--gens", "y1:2,y2:4", "--a", "y1+y2", "--op", "pow", "--e", "3"],
         _poly("result", ("y1", "y2"), O.ppow({(1, 0): Fraction(1), (0, 1): Fraction(1)}, 3, 2), degree=12)),
        (["sym", "--op", "sigma-top", "--partition", "3,1", "--vars", "4", "--k", "4"],
         _value(O.sigma_top_of_monomial_symmetric((3, 1), 4, 4))),
        (["bundle", "--space", "pe:2,2", "--integrate", "c^4"],
         _poly("class", ("c", "b"), _segre_text(2, 2), degree=4)),
    ]


def seeded_commands(rng: random.Random, count: int) -> list[tuple[list[str], object]]:
    makers = [
        _sphere_cmd, _flag_cmd, _equi_mu_cmd, _su_cmd, _simplex_cmd, _nu1_cmd,
        _mu_cmd, _integrate_cmd, _cp_normal_cmd, _phi_cmd, _criterion_cmd,
        _hl_cmd, _obstruct_dims_cmd, _member_cmd, _sigma_cmd, _poly_cmd,
    ]
    return [rng.choice(makers)(rng) for _ in range(count)]


def _sphere_cmd(rng):
    m = rng.randrange(1, 5)
    while True:
        tree = random_tree(rng, m, 10, 2)
        if O.leaf_rank(tree) == m:
            break
    k = rng.randrange(1, min(m, 4) + 2)
    return (["chern", "--expr", O.tree_text(tree), "--k", str(k), "--eval", "sphere"],
            _value(O.sphere_pairing(tree, k)))


def random_tree(rng: random.Random, m: int, max_rank: int, depth: int) -> tuple:
    leaf = ("E", m)
    if depth == 0 or rng.random() < 0.3:
        return leaf if rng.random() < 0.85 else ("triv", rng.randrange(1, 3))
    kind = rng.choice(["dual", "sum", "tensor", "lambda2"])
    if kind == "dual":
        return ("dual", random_tree(rng, m, max_rank, depth - 1))
    if kind == "lambda2":
        inner = random_tree(rng, m, max_rank, depth - 1)
        tree = ("lambda2", inner)
    else:
        tree = (kind, random_tree(rng, m, max_rank, depth - 1), random_tree(rng, m, max_rank, depth - 1))
    return tree if O.rank(tree) <= max_rank else leaf


LIGHT_SPACES = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (1, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1)]


def _flag_cmd(rng):
    dims = rng.choice(LIGHT_SPACES)
    return (["flag", "--dims", ",".join(map(str, dims)), "--emit", "dims"], _dims(dims))


def _weights(rng, n):
    while True:
        w = tuple(rng.randrange(-4, 5) for _ in range(n + 1))
        if len(set(w)) > 1:
            return w


def _equi_mu_cmd(rng):
    n, k = rng.randrange(1, 5), rng.randrange(1, 5)
    w = _weights(rng, n)
    return (["equi", "mu", "--n", str(n), "--weights=" + ",".join(map(str, w)), "--k", str(k)],
            _value(O.circle_mu(w, k), normalization="unit-volume"))


def _su_cmd(rng):
    ell = rng.randrange(2, 6)
    k = rng.randrange(2, ell + 1)
    return (["equi", "su-product", "--ell", str(ell), "--k", str(k)], _value(O.su_product(ell, k)))


def _simplex_cmd(rng):
    n = rng.randrange(1, 5)
    alpha = [rng.randrange(0, 4) for _ in range(rng.randrange(1, n + 1))]
    # Dirichlet: the integral of x^alpha over the standard simplex
    want = Fraction(1)
    for a in alpha:
        want *= math.factorial(a)
    want /= math.factorial(n + sum(alpha))
    return (["equi", "simplex", "--alpha", ",".join(map(str, alpha)), "--n", str(n)], _value(want))


def _nu1_cmd(rng):
    n = rng.randrange(1, 5)
    w = _weights(rng, n)
    v = rng.randrange(0, n + 1)
    want = Fraction(sum(w), n + 1) - w[v]
    return (["equi", "nu1", "--n", str(n), "--weights=" + ",".join(map(str, w)), "--vertex", str(v)],
            _value(want))


def _mu_cmd(rng):
    n = rng.randrange(1, 4)
    k = rng.randrange(2, n + 2)
    j = rng.randrange(1, 2 * k + 1)
    base = f"s{2 * k}"
    args = ["mu", "--space", "pcn-bundle", "--base", base, "--n", str(n)]
    kind = rng.choice(["mu", "nu", "coupling"])
    if kind == "coupling":
        return (args + ["--emit", "coupling"],
                _poly("class", ("c", "b"), {(1, 0): Fraction(1)}, degree=2))
    extra = ["--nu"] if kind == "nu" else []
    return (args + ["--k", str(j)] + extra, _poly("class", ("c", "b"), _segre_text(j, k), degree=2 * j))


def _integrate_cmd(rng):
    n = rng.randrange(1, 4)
    k = rng.randrange(2, n + 2)
    a, e = rng.randrange(n, n + 2 * k + 1), rng.randrange(0, 2)
    text = f"c^{a}*b" if e else f"c^{a}"
    want = {(0, f): c for (x, f), c in O.pe_nf({(a, e): Fraction(1)}, n, k).items() if x == n}
    return (["bundle", "--space", f"pe:{n},{k}", "--integrate", text], _poly("class", ("c", "b"), want))


def _cp_normal_cmd(rng):
    n = rng.randrange(1, 7)
    q, e = rng.randrange(-3, 4) or 1, rng.randrange(1, n + 3)
    want = O.cpn_nf({(e,): Fraction(q) ** e}, n)
    return (["bundle", "--space", f"cp{n}", f"--normal={q ** e}*c^{e}"],
            _poly("normal_form", ("c",), want))


def _phi_cmd(rng):
    k = rng.randrange(1, 6)
    names = tuple(f"y{i}" for i in range(k + 1))
    return (["bundle", "--phi", str(k)], _poly("class", names, {(1,) * (k + 1): O.phi_coefficient(k)}))


def _criterion_cmd(rng):
    n = rng.randrange(1, 6)
    if rng.random() < 0.5:
        return (["obstruct", "square", "--space", f"cp{n}"], _fields(criterion=n == 1, degree_checked=4))
    return (["obstruct", "cube", "--space", f"cp{n}"], _fields(criterion=n <= 2, degree_checked=6))


def _hl_cmd(rng):
    if rng.random() < 0.5:
        n = rng.randrange(1, 7)
        return (["obstruct", "hl", "--space", f"cp{n}", "--class", "c"],
                _fields(criterion=True, half_top_degree=n))
    r = rng.randrange(2, 5)
    weights = [rng.choice([0, 1, 2, -1]) for _ in range(r)]
    weights[rng.randrange(r)] = 1  # the class must be nonzero to be a valid input
    text = " + ".join(f"{w}*y{i}" for i, w in enumerate(weights))
    return (["obstruct", "hl", "--space", "sphere:" + ",".join(["2"] * r), "--class=" + text],
            _fields(criterion=all(weights), half_top_degree=r))


def _obstruct_dims_cmd(rng):
    m, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
    d = rng.randrange(0, 2 * m * k + 2)
    vector = O.dimension_vector((m, k))
    want = vector[d // 2] if d % 2 == 0 and d // 2 < len(vector) else 0
    return (["obstruct", "dims", "--space", f"gr:{m},{k}", "--degree", str(d)],
            _fields(dimension=want, degree=d))


def _member_cmd(rng):
    m, k = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
    d = rng.randrange(1, m + 3)
    gens = ";".join(f"y{i}" for i in range(2, k + 1))
    return (["obstruct", "member", "--space", f"gr:{m},{k}", "--z", f"y1^{d}", "--gens", gens],
            _fields(member=d >= m + 1))


def _sigma_cmd(rng):
    v = rng.randrange(2, 6)
    total = rng.randrange(1, v + 1)
    parts = []
    left = total
    while left:
        p = rng.randrange(1, left + 1)
        parts.append(p)
        left -= p
    parts.sort(reverse=True)
    parts = tuple(parts)
    k = total if rng.random() < 0.8 else rng.randrange(1, v + 1)
    return (["sym", "--op", "sigma-top", "--partition", ",".join(map(str, parts)), "--vars", str(v),
             "--k", str(k)], _value(O.sigma_top_of_monomial_symmetric(parts, k, v)))


def _poly_cmd(rng):
    a = {(rng.randrange(0, 3), rng.randrange(0, 2)): Fraction(rng.randrange(1, 4)) for _ in range(2)}
    e = rng.randrange(1, 5)
    text = " + ".join(f"{c}*y1^{i}*y2^{j}" if i or j else f"{c}" for (i, j), c in a.items())
    want = O.ppow(a, e, 2)
    degree = max((2 * i + 4 * j for (i, j) in want), default=0)
    return (["poly", "--gens", "y1:2,y2:4", "--a", text, "--op", "pow", "--e", str(e)],
            _poly("result", ("y1", "y2"), want, degree=degree))


def round_commands(seed: int) -> list[tuple[list[str], object, tuple | None]]:
    """The round's commands as (argv, check, (flag, fault) or None), in seeded order."""
    rng = random.Random(seed)
    fixed = [(argv, check, None) for argv, check in fixed_commands()]
    faults = [(argv, None, (flag, fault)) for argv, flag, fault in KNOWN_FAULTS]
    count = ROUND_SIZE - len(fixed) - len(faults)
    seeded = [(argv, check, None) for argv, check in seeded_commands(rng, count)]
    commands = fixed + seeded + faults
    rng.shuffle(commands)
    return commands


def check_output(check, stdout: str) -> str | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON: {stdout[:200]!r}"
    return check(payload)


def check_fault(flag: str, fault: str, code: int, stderr: str) -> str | None:
    lines = stderr.strip().splitlines()
    if code == 2 and len(lines) == 1 and flag in lines[0]:
        return None
    return f"{fault}: exit {code} (expected 2 naming {flag}): {stderr.strip()}"
