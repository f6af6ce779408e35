"""Splitting-principle Chern calculus for formal bundle expressions.

Bundle expressions are syntax trees over universal, trivial, dual, sum,
tensor and second-exterior-power constructors.  Each distinct universal leaf
owns a disjoint block of degree-2 root variables; a leaf that appears several
times in one expression (by object identity, or by name in the text grammar)
shares its block across occurrences.  Chern classes come from the graded
components of the product of ``1 + root`` over all roots; the sphere pairing
has a closed form and needs no roots at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, TypeVar

from .exactring import (
    CharcalcError,
    Frozen,
    GradedPoly,
    GradedRing,
    InvalidInputError,
    Rational,
    parse_int,
    tokenize,
)

__all__ = [
    "EvaluationModelError",
    "BundleExpr",
    "Universal",
    "Trivial",
    "Dual",
    "Sum",
    "Tensor",
    "Lambda2",
    "chern_roots",
    "chern_class",
    "total_chern_class",
    "sphere_eval",
    "parse_bundle_expr",
]


_T = TypeVar("_T")


class EvaluationModelError(CharcalcError):
    """Sphere pairing is only defined for expressions over one universal leaf."""


class BundleExpr:
    """Base class for bundle expression nodes."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return _fold(self, _rank)


class Universal(BundleExpr):
    """Universal rank-m bundle; identity of the node identifies the root block."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        self.m = m
        if m < 1:
            raise InvalidInputError("universal bundle rank must be positive")

    def __repr__(self) -> str:
        return f"Universal(m={self.m!r})"


class Trivial(Frozen, BundleExpr):
    __slots__ = _FIELDS = ("r",)

    def __init__(self, r: int) -> None:
        super().__init__(r)
        if r < 0:
            raise InvalidInputError("trivial bundle rank must be nonnegative")


class Dual(Frozen, BundleExpr):
    __slots__ = _FIELDS = ("inner",)


class Sum(Frozen, BundleExpr):
    __slots__ = _FIELDS = ("left", "right")


class Tensor(Frozen, BundleExpr):
    __slots__ = _FIELDS = ("left", "right")


class Lambda2(Frozen, BundleExpr):
    __slots__ = _FIELDS = ("inner",)


def _children(node: BundleExpr) -> tuple[BundleExpr, ...]:
    if isinstance(node, (Dual, Lambda2)):
        return (node.inner,)
    if isinstance(node, (Sum, Tensor)):
        return (node.left, node.right)
    if isinstance(node, (Universal, Trivial)):
        return ()
    raise InvalidInputError(f"unknown bundle node {node!r}")


def _fold(expr: BundleExpr, visit: Callable[[BundleExpr, list[_T]], _T]) -> _T:
    """``visit(node, values of its children)`` bottom-up over the tree, with an
    explicit stack, so nesting depth is not bounded by the recursion limit."""
    values: list[_T] = []
    stack: list[tuple[BundleExpr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        children = _children(node)
        if expanded:
            start = len(values) - len(children)
            values[start:] = [visit(node, values[start:])]
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
    return values[0]


def _rank(node: BundleExpr, inner: list[int]) -> int:
    """The rank of ``node`` from the ranks of its children; a ``_fold`` visit."""
    if isinstance(node, Universal):
        return node.m
    if isinstance(node, Trivial):
        return node.r
    if isinstance(node, Dual):
        return inner[0]
    if isinstance(node, Lambda2):
        return inner[0] * (inner[0] - 1) // 2
    if isinstance(node, Sum):
        return inner[0] + inner[1]
    return inner[0] * inner[1]


def universal_leaves(expr: BundleExpr) -> list[Universal]:
    """Distinct universal leaves in first-visit order (identity-based)."""
    seen: dict[int, Universal] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Universal):
            seen.setdefault(id(node), node)
        stack.extend(reversed(_children(node)))
    return list(seen.values())


def root_ring(expr: BundleExpr) -> tuple[GradedRing, dict[int, int]]:
    """Ambient ring of root variables and the block offset per leaf (by id)."""
    leaves = universal_leaves(expr)
    total = sum(leaf.m for leaf in leaves)
    if total == 0:
        ring = GradedRing(("t1",), (2,))
        return ring, {}
    ring = GradedRing(tuple(f"t{i + 1}" for i in range(total)), (2,) * total)
    offsets: dict[int, int] = {}
    position = 0
    for leaf in leaves:
        offsets[id(leaf)] = position
        position += leaf.m
    return ring, offsets


def chern_roots(expr: BundleExpr) -> list[GradedPoly]:
    """Chern roots as degree-2 linear forms; length equals the rank."""
    ring, offsets = root_ring(expr)

    def roots_of(node: BundleExpr, inner: list[list[GradedPoly]]) -> list[GradedPoly]:
        if isinstance(node, Universal):
            start = offsets[id(node)]
            return [ring.gen(start + i) for i in range(node.m)]
        if isinstance(node, Trivial):
            return [ring.zero() for _ in range(node.r)]
        if isinstance(node, Dual):
            return [-r for r in inner[0]]
        if isinstance(node, Sum):
            return inner[0] + inner[1]
        if isinstance(node, Tensor):
            return [a + b for a in inner[0] for b in inner[1]]
        roots = inner[0]  # Lambda2
        return [
            roots[i] + roots[j]
            for i in range(len(roots))
            for j in range(i + 1, len(roots))
        ]

    return _fold(expr, roots_of)


def total_chern_class(expr: BundleExpr, max_degree: int) -> GradedPoly:
    """Product of ``1 + root`` truncated above ``max_degree`` (an even bound)."""
    roots = chern_roots(expr)
    if not roots:
        ring, _ = root_ring(expr)
        return ring.one()
    ring = roots[0].ring
    total = ring.one()
    for root in roots:
        total = (total * (ring.one() + root)).truncate(max_degree)
    return total


def chern_class(expr: BundleExpr, k: int) -> GradedPoly:
    """k-th Chern class: the degree-2k part of the total class; zero past the rank."""
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    return total_chern_class(expr, 2 * k).graded_component(2 * k)


def sphere_eval(expr: BundleExpr, k: int) -> Rational:
    """Pair ``c_k`` with the spherical generator of the single universal leaf.

    Normalized so that the rank-4 universal bundle pairs to 6 in degree 8:
    ``(k-1)!`` times the coefficient of sigma_k in the elementary expression
    of the class, which is ``a_k`` of ``_rank_and_power_sum`` (and zero when
    k exceeds the leaf rank, where sigma_k vanishes).
    """
    leaves = universal_leaves(expr)
    if len(leaves) != 1:
        raise EvaluationModelError(
            "sphere pairing needs an expression over exactly one universal leaf"
        )
    if k < 1:
        raise InvalidInputError("k must be positive")
    if k > leaves[0].m:
        return Fraction(0)
    return Fraction(math.factorial(k - 1) * _rank_and_power_sum(expr, k)[1])


def _rank_and_power_sum(expr: BundleExpr, k: int) -> tuple[int, int]:
    """Rank of ``expr`` and the integer ``a_k`` with ``p_k(roots) = a_k p_k(leaf)``
    modulo decomposables; by Newton's identity ``c_k = (-1)^(k-1) p_k / k``,
    ``a_k`` is then the sigma_k-coefficient of ``c_k``."""

    def visit(node: BundleExpr, inner: list[tuple[int, int]]) -> tuple[int, int]:
        ranks = [rank for rank, _ in inner]
        rank = _rank(node, ranks)
        if isinstance(node, Universal):
            return rank, 1
        if isinstance(node, Trivial):
            return rank, 0
        if isinstance(node, Dual):
            return rank, (-1) ** k * inner[0][1]
        if isinstance(node, Lambda2):
            return rank, (ranks[0] - 2 ** (k - 1)) * inner[0][1]
        (left_rank, left), (right_rank, right) = inner
        if isinstance(node, Sum):
            return rank, left + right
        return rank, left_rank * right + right_rank * left

    return _fold(expr, visit)


def _balanced(node: type, args: list[BundleExpr]) -> BundleExpr:
    """``node`` folded over ``args`` as a balanced tree: shallow recursion, and
    the same leaves, root order and classes as the left-deep fold."""
    if len(args) == 1:
        return args[0]
    middle = len(args) // 2
    return node(_balanced(node, args[:middle]), _balanced(node, args[middle:]))


def parse_bundle_expr(text: str) -> BundleExpr:
    """Parse the text grammar: ``E4``, ``dual(X)``, ``sum(X,Y)``, ``tensor(X,Y)``,
    ``lambda2(X)``, ``triv(r)``.  Occurrences of the same ``E<m>`` token share
    one universal leaf."""
    tokens = tokenize(text)
    pos = 0
    leaves: dict[str, Universal] = {}

    def error(message: str) -> InvalidInputError:
        return InvalidInputError(f"{message} in {text!r}")

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise error("unexpected end of expression")
        pos += 1
        return tokens[pos - 1]

    def expect(token: str) -> None:
        if take() != token:
            raise error(f"expected {token!r}")

    def parse_node() -> BundleExpr:
        word = take()
        if word.startswith("E"):
            if word not in leaves:
                leaves[word] = Universal(parse_int(word[1:]))
            return leaves[word]
        if word == "triv":
            expect("(")
            r = parse_int(take())
            expect(")")
            return Trivial(r)
        if word in ("dual", "lambda2"):
            expect("(")
            inner = parse_node()
            expect(")")
            return Dual(inner) if word == "dual" else Lambda2(inner)
        if word in ("sum", "tensor"):
            expect("(")
            args = [parse_node()]
            while tokens[pos:pos + 1] == [","]:
                take()
                args.append(parse_node())
            expect(")")
            if len(args) < 2:
                raise error(f"{word} needs at least two arguments")
            return _balanced(Sum if word == "sum" else Tensor, args)
        raise error(f"unknown constructor {word!r}")

    try:
        node = parse_node()
    except RecursionError:
        raise InvalidInputError("bundle expression is nested too deeply") from None
    if pos != len(tokens):
        raise error("trailing input")
    return node
