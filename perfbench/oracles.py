"""Independent answers for every query the benchmark sends to charcalc.

Nothing here imports charcalc.  Each oracle is a closed form from the
mathematics or a separate implementation of the same definition, so a later
change that computes an answer a new way is judged by the mathematics, never
by a stored copy of an earlier output.

Polynomials are plain dicts mapping exponent tuples to Fractions; a ring is
described by the weights (half degrees) of its generators, in the order the
library lists them.  Monomials are ordered graded-lexicographically, larger
weight first and then larger exponent tuple first, which is the order in
which the library orients its rewrite rules.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- small polynomial arithmetic ---------------------------------------------------


def padd(a: dict, b: dict, scale: Fraction | int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = Fraction(v)
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: Fraction(c) for m, c in out.items() if c}


def ppow(a: dict, e: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = pmul(out, a)
    return out


def weight(m: tuple, weights: tuple) -> int:
    return sum(e * w for e, w in zip(m, weights))


def monomials_of_weight(weights: tuple, w: int) -> list[tuple]:
    """All exponent tuples of the given weight, largest first in graded lex."""
    out: list[tuple] = []

    def walk(i: int, left: int, chosen: list[int]) -> None:
        if i == len(weights):
            if left == 0:
                out.append(tuple(chosen))
            return
        for e in range(left // weights[i], -1, -1):
            chosen.append(e)
            walk(i + 1, left - e * weights[i], chosen)
            chosen.pop()

    walk(0, w, [])
    out.sort(reverse=True)
    return out


# -- q-multinomial dimension vectors ----------------------------------------------


def _qpoly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qfactorial(n: int) -> list[int]:
    out = [1]
    for i in range(1, n + 1):
        out = _qpoly_mul(out, [1] * i)
    return out


def _qpoly_div(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = a[i + len(b) - 1] // b[-1]
        out[i] = q
        for j, y in enumerate(b):
            a[i + j] -= q * y
    if any(a):
        raise ArithmeticError("q-polynomial division left a remainder")
    return out


def dimension_vector(dims: tuple[int, ...]) -> list[int]:
    """Betti numbers of U(l)/U(m_1)x...xU(m_k): the q-multinomial coefficient."""
    out = _qfactorial(sum(dims))
    for m in dims:
        out = _qpoly_div(out, _qfactorial(m))
    return out


# -- Grassmannian and flag rings by degree-wise elimination ---------------------------


class QuotientOracle:
    """Normal forms in Q[y]/I computed from first principles.

    ``I`` is generated by the components of weight m_1 + 1, ..., l of
    ``1/T``, where ``T`` is the product of the total classes of the blocks
    after the first: the textbook presentation of the flag manifold
    U(l)/U(m_1)x...xU(m_k).  In each weight the span of all monomial
    multiples of the relations is brought to reduced echelon form along the
    graded-lex order; the normal form is the unique representative free of
    echelon pivots.
    """

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        blocks = dims[1:]
        self.weights = tuple(i + 1 for size in blocks for i in range(size))
        n = len(self.weights)
        self.top_weight = sum(a * b for a, b in itertools.combinations(dims, 2))
        one = (0,) * n
        total = {one: Fraction(1)}
        offset = 0
        for size in blocks:
            factor = {one: Fraction(1)}
            for i in range(size):
                e = [0] * n
                e[offset + i] = 1
                factor[tuple(e)] = Fraction(1)
            total = pmul(total, factor)
            offset += size
        ell = sum(dims)
        by_weight: list[dict] = [{}] * (ell + 1)
        for m, c in total.items():
            w = weight(m, self.weights)
            by_weight[w] = padd(by_weight[w], {m: c})
        inverse = [{one: Fraction(1)}]
        for j in range(1, ell + 1):
            acc: dict = {}
            for i in range(1, j + 1):
                if by_weight[i]:
                    acc = padd(acc, pmul(by_weight[i], inverse[j - i]))
            inverse.append({m: -c for m, c in acc.items()})
        self.inverse = inverse
        self.relations = [inverse[j] for j in range(dims[0] + 1, ell + 1)]
        self._echelon: dict[int, dict[tuple, dict]] = {}

    def echelon(self, w: int) -> dict[tuple, dict]:
        """Reduced echelon form of the weight-w part of I: pivot -> row."""
        if w in self._echelon:
            return self._echelon[w]
        pivots: dict[tuple, dict] = {}
        for rel in self.relations:
            rw = weight(next(iter(rel)), self.weights)
            if rw > w:
                continue
            for mult in monomials_of_weight(self.weights, w - rw):
                row = {
                    tuple(a + b for a, b in zip(m, mult)): c for m, c in rel.items()
                }
                while row:
                    lead = max(row)
                    if lead in pivots:
                        row = padd(row, pivots[lead], -row[lead])
                    else:
                        inv = 1 / row[lead]
                        pivots[lead] = {m: c * inv for m, c in row.items()}
                        break
        for lead in sorted(pivots):
            row = pivots[lead]
            for other_lead, other in pivots.items():
                if other_lead != lead and lead in other:
                    pivots[other_lead] = padd(other, row, -other[lead])
        self._echelon[w] = pivots
        return pivots

    def normal_form(self, p: dict) -> dict:
        out: dict = {}
        parts: dict[int, dict] = {}
        for m, c in p.items():
            parts.setdefault(weight(m, self.weights), {})[m] = c
        for w, part in parts.items():
            pivots = self.echelon(w)
            for lead in [m for m in part if m in pivots]:
                if lead in part:
                    part = padd(part, pivots[lead], -part[lead])
            out = padd(out, part)
        return out

    def basis_size(self, w: int) -> int:
        return len(monomials_of_weight(self.weights, w)) - len(self.echelon(w))


# -- closed-form normal forms ---------------------------------------------------------


def sphere_product_nf(p: dict) -> dict:
    """Q[y_0..y_r]/(y_i^2): every monomial with a square vanishes."""
    return {m: c for m, c in p.items() if max(m, default=0) <= 1}


def cpn_nf(p: dict, n: int) -> dict:
    """Q[c]/(c^{n+1})."""
    return {m: c for m, c in p.items() if m[0] <= n}


def pe_nf(p: dict, n: int, k: int) -> dict:
    """Q[c, b]/(c^{n+1} + b c^{n+1-k}, b^2): the CP^n bundle over S^{2k}.

    Exponents are (c, b).  Rewriting c^{n+1} to -b c^{n+1-k} raises the b
    exponent, which dies at 2.
    """
    out: dict = {}
    for (a, e), coeff in p.items():
        sign = 1
        while a > n and e < 2:
            a -= k
            e += 1
            sign = -sign
        if e < 2:
            out = padd(out, {(a, e): coeff * sign})
    return out


# -- characteristic numbers ----------------------------------------------------------


def rank(tree: tuple) -> int:
    head = tree[0]
    if head == "E":
        return tree[1]
    if head == "triv":
        return tree[1]
    if head == "dual":
        return rank(tree[1])
    if head == "sum":
        return rank(tree[1]) + rank(tree[2])
    if head == "tensor":
        return rank(tree[1]) * rank(tree[2])
    if head == "lambda2":
        r = rank(tree[1])
        return r * (r - 1) // 2
    raise ValueError(f"unknown node {head!r}")


def power_sum_multiplier(tree: tuple, k: int) -> int:
    """a_k(F) with p_k(F) = a_k(F) p_k(E) modulo decomposables (Newton)."""
    head = tree[0]
    if head == "E":
        return 1
    if head == "triv":
        return 0
    if head == "dual":
        return (-1) ** k * power_sum_multiplier(tree[1], k)
    if head == "sum":
        return power_sum_multiplier(tree[1], k) + power_sum_multiplier(tree[2], k)
    if head == "tensor":
        left, right = tree[1], tree[2]
        return rank(left) * power_sum_multiplier(right, k) + rank(
            right
        ) * power_sum_multiplier(left, k)
    if head == "lambda2":
        return (rank(tree[1]) - 2 ** (k - 1)) * power_sum_multiplier(tree[1], k)
    raise ValueError(f"unknown node {head!r}")


def leaf_rank(tree: tuple) -> int:
    if tree[0] == "E":
        return tree[1]
    return max((leaf_rank(t) for t in tree[1:] if isinstance(t, tuple)), default=0)


def sphere_pairing(tree: tuple, k: int) -> Fraction:
    """<c_k(F), sphere> = (k-1)! a_k(F); zero once k exceeds the leaf rank."""
    if k > leaf_rank(tree):
        return Fraction(0)
    return Fraction(math.factorial(k - 1) * power_sum_multiplier(tree, k))


def tree_text(tree: tuple) -> str:
    head = tree[0]
    if head == "E":
        return f"E{tree[1]}"
    if head == "triv":
        return f"triv({tree[1]})"
    if head in ("dual", "lambda2"):
        return f"{head}({tree_text(tree[1])})"
    return f"{head}({tree_text(tree[1])},{tree_text(tree[2])})"


def complete_homogeneous(values: list[Fraction], k: int) -> Fraction:
    """h_k(values) by the recurrence h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j h_{k-1}(x_1..x_j)."""
    h = [Fraction(1)] + [Fraction(0)] * k
    for x in values:
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


def circle_mu(weights: tuple[int, ...], k: int) -> Fraction:
    """mu_k of a circle action on CP^n: (-1)^k h_k(w - mean(w))."""
    mean = Fraction(sum(weights), len(weights))
    return (-1) ** k * complete_homogeneous([w - mean for w in weights], k)


def simplex_average(vertex_values: list[list[Fraction]]) -> Fraction:
    """Average over the simplex of a product of affine functions.

    Each factor is given by its values at the n+1 vertices.  With barycentric
    coordinates, the Dirichlet moments E[prod lambda_i^{a_i}] = n! prod a_i! /
    (n + sum a)! turn the product into a sum over assignments of factors to
    vertices.
    """
    n = len(vertex_values[0]) - 1
    k = len(vertex_values)
    total = Fraction(0)
    for assignment in itertools.product(range(n + 1), repeat=k):
        term = Fraction(1)
        for factor, vertex in zip(vertex_values, assignment):
            term *= factor[vertex]
            if not term:
                break
        if not term:
            continue
        moments = 1
        for vertex in set(assignment):
            moments *= math.factorial(assignment.count(vertex))
        total += term * moments
    return total * math.factorial(n) / math.factorial(n + k)


def su_weights(ell: int, j: int) -> tuple[int, ...]:
    return (1,) * j + (-j,) + (0,) * (ell - j - 1)


def su_product(ell: int, k: int) -> Fraction:
    """Unit-volume integral of H_1^2 H_2 ... H_{k-1} on CP^{ell-1}."""

    def centered(weights):
        mean = Fraction(sum(weights), len(weights))
        return [w - mean for w in weights]

    factors = [centered(su_weights(ell, 1))] * 2
    factors += [centered(su_weights(ell, j)) for j in range(2, k)]
    return simplex_average(factors)


def phi_coefficient(k: int) -> Fraction:
    """phi_pullback(k) is this multiple of y_0 y_1 ... y_k."""
    return Fraction(2 * (-1) ** k * math.factorial(k))


def sigma_top_of_monomial_symmetric(parts: tuple[int, ...], k: int, v: int) -> Fraction:
    """Coefficient of sigma_k in s_I, from the linear term of s_I in power sums.

    s_I = (-1)^(l-1) (l-1)!/prod(mult!) p_|I| + decomposables, and
    p_k = (-1)^(k-1) k sigma_k + decomposables.
    """
    if sum(parts) != k or k > v or len(parts) > v:
        return Fraction(0)
    length = len(parts)
    mults = 1
    for part in set(parts):
        mults *= math.factorial(parts.count(part))
    return Fraction((-1) ** (length - 1) * math.factorial(length - 1), mults) * (
        (-1) ** (k - 1) * k
    )


def elementary_values(point: list[Fraction]) -> list[Fraction]:
    """e_1, ..., e_v at a point, from the coefficients of prod (1 + t_i x)."""
    coeffs = [Fraction(1)]
    for t in point:
        coeffs = [a + t * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return coeffs[1:]


def orbit_size(parts: tuple[int, ...], v: int) -> int:
    padded = parts + (0,) * (v - len(parts))
    out = math.factorial(v)
    for part in set(padded):
        out //= math.factorial(padded.count(part))
    return out


def evaluate(p: dict, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        term = Fraction(c)
        for e, x in zip(m, point):
            term *= x**e
        total += term
    return total


# -- the library's text encoding of polynomials -----------------------------------------


def parse_canonical(text: str, names: tuple[str, ...]) -> dict:
    """Read the ``p/q*y1^2*y2 + ...`` encoding into an exponent-tuple dict."""
    index = {name: i for i, name in enumerate(names)}
    out: dict = {}
    if text.strip() == "0":
        return out
    for chunk in text.split(" + "):
        pieces = chunk.strip().split("*")
        coeff = Fraction(pieces[0])
        exps = [0] * len(names)
        for piece in pieces[1:]:
            name, _, power = piece.partition("^")
            exps[index[name]] += int(power) if power else 1
        out = padd(out, {tuple(exps): coeff})
    return out


def self_check() -> None:
    """Check the oracles against the paper's anchors before trusting them."""
    e4 = ("E", 4)
    anchors = [
        (sphere_pairing(e4, 4), 6),
        (sphere_pairing(("lambda2", e4), 4), -24),
    ]
    combo: tuple = ("lambda2", e4)
    for _ in range(4):
        combo = ("sum", combo, e4)
    anchors.append((sphere_pairing(combo, 4), 0))
    anchors.append((dimension_vector((1, 1, 1)), [1, 2, 2, 1]))
    flag111 = QuotientOracle((1, 1, 1))
    anchors.append(([flag111.basis_size(w) for w in range(4)], [1, 2, 2, 1]))
    anchors.append((sigma_top_of_monomial_symmetric((3, 1), 4, 4), 4))
    anchors.append((sigma_top_of_monomial_symmetric((2, 1, 1), 4, 4), -4))
    # two independent routes to the circle integrals must agree
    for weights, k in (((1, -1, 0), 2), ((2, 1, -3), 3), ((5, -1, -1, -3), 4)):
        mean = Fraction(sum(weights), len(weights))
        centered = [w - mean for w in weights]
        binom = math.comb(len(weights) - 1 + k, k)
        anchors.append(
            (circle_mu(weights, k), (-1) ** k * binom * simplex_average([centered] * k))
        )
    anchors.append((circle_mu((1, -1, 0), 2), 1))
    for got, want in anchors:
        if got != want:
            raise AssertionError(f"oracle self-check failed: got {got}, expected {want}")
