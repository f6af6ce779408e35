"""Exact graded polynomial rings and rewrite-rule quotient presentations.

Every other module trades in one currency: :class:`GradedPoly`, a sparse
multivariate polynomial with `fractions.Fraction` coefficients over a ring of
named generators carrying even degrees.  Quotient rings are presented by
rewrite rules oriented along a graded lexicographic order; presentations may
designate a Leray-Hirsch fiber basis, which is what turns coefficient
extraction into fiber integration downstream.

Products, powers and normal forms run on packed monomials, laid out as
:class:`HeadIndex` describes: one int per monomial and integer numerators over
one denominator.  Presentations rewrite on such keys and hand integer rows of
``NF(p*m)``, and of ``NF(a**k * m)`` for a ladder of powers, to the rank
questions (``RingPresentation.product_rows`` and ``power_rows``);
``Fraction``s and ``Monomial``s appear only in results.  The echelon kernel
on such rows is here too: ``_reduce_forward`` eliminates over the integers
and returns the rank the rows add; ``_reduce_kept`` gives a reduced row.

No floating point enters anywhere: coefficients are arbitrary-precision
rationals, reduced and with positive denominator by construction.
"""

from __future__ import annotations

import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Rational",
    "CharcalcError",
    "InvalidInputError",
    "RingMismatchError",
    "PresentationError",
    "BasisError",
    "GradedRing",
    "Monomial",
    "GradedPoly",
    "RingPresentation",
    "HeadIndex",
    "poly_arith",
    "poly_pow",
    "graded_component",
    "normal_form",
    "fiber_coefficient",
    "monomials_of_degree",
    "tokenize",
    "parse_int",
    "parse_signed_int",
    "parse_poly",
    "parse_rational",
    "format_rational",
]

# Reduced form, positive denominator, arbitrary precision: exactly what
# fractions.Fraction guarantees, so that is the Rational type.
Rational = Fraction


class CharcalcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CharcalcError):
    """Arguments violate a documented precondition."""


class RingMismatchError(CharcalcError):
    """Operands live in different ambient rings."""


class PresentationError(CharcalcError):
    """A rewrite presentation is malformed or inconsistent."""


class BasisError(CharcalcError):
    """A requested fiber-basis element is not part of the presentation."""


def _frac(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidInputError(f"expected an integer or Fraction, got {value!r}")


def format_rational(q: Fraction) -> str:
    """Canonical encoding: ``p/q``, or ``p`` when the denominator is one.

    ``Decimal`` prints integers of any length, past the ``str(int)`` digit
    limit that stays in place to bound ``parse_int``."""
    numerator = str(Decimal(q.numerator))
    if q.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(q.denominator)}"


class Frozen:
    """Base of the immutable value classes.  A subclass lists its fields in
    ``_FIELDS`` and ``__slots__``; ``__init__`` sets each once, in order, by
    position and then by name, and a subclass that validates calls it before
    its checks.  Equality and hash use the tuple of fields, as a frozen
    dataclass's do, and assignment afterwards raises.  Importing
    ``dataclasses`` would load ``inspect`` and a dozen more modules on every
    cold start."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._FIELDS
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)}); "
                                f"got {len(values)} by position and ({', '.join(named)}) by name")
            values += tuple(named[name] for name in rest)
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GradedRing(Frozen):
    """An ordered list of named generators with positive even degrees.

    Generator position fixes the monomial order: lower index means more
    significant in the lexicographic tie-break.
    """

    _FIELDS = ("generators", "degrees")
    __slots__ = _FIELDS + ("_positions",)  # name -> index, not compared

    def __init__(self, generators: tuple[str, ...], degrees: tuple[int, ...]) -> None:
        super().__init__(generators, degrees)
        if len(generators) != len(degrees):
            raise InvalidInputError("generator and degree lists differ in length")
        object.__setattr__(self, "_positions", {name: i for i, name in enumerate(generators)})
        if len(self._positions) != len(generators):
            raise InvalidInputError("generator names must be distinct")
        for name, degree in zip(generators, degrees):
            if not name or not name.replace("_", "").isalnum() or name[0].isdigit():
                raise InvalidInputError(f"bad generator name {name!r}")
            if degree <= 0 or degree % 2 != 0:
                raise InvalidInputError(
                    f"generator {name} has degree {degree}; only positive even degrees are supported"
                )

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise InvalidInputError(f"unknown generator {name!r}") from None

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    def one(self) -> "GradedPoly":
        return GradedPoly(self, {Monomial.one(): Fraction(1)})

    def constant(self, value: int | Fraction) -> "GradedPoly":
        return GradedPoly(self, {Monomial.one(): _frac(value)})

    def gen(self, which: int | str) -> "GradedPoly":
        index = which if isinstance(which, int) else self.index(which)
        if not 0 <= index < self.ngens:
            raise InvalidInputError(f"generator index {index} out of range")
        return GradedPoly(self, {Monomial.of(index): Fraction(1)})

    def gens(self) -> list["GradedPoly"]:
        return [self.gen(i) for i in range(self.ngens)]


class Monomial:
    """Sparse monomial: index-sorted ``(generator, exponent)`` pairs, exponents > 0.
    Never mutated; the hash is computed once, at construction."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        self.exps = exps
        self._hash = hash((exps,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial(exps={self.exps!r})"

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    @staticmethod
    def of(index: int, exponent: int = 1) -> "Monomial":
        if exponent < 0:
            raise InvalidInputError("negative exponent")
        if exponent == 0:
            return Monomial(())
        return Monomial(((index, exponent),))

    @staticmethod
    def make(exponents: Mapping[int, int]) -> "Monomial":
        pairs = []
        for index in sorted(exponents):
            e = exponents[index]
            if e < 0:
                raise InvalidInputError("negative exponent")
            if e:
                pairs.append((index, e))
        return Monomial(tuple(pairs))

    def is_one(self) -> bool:
        return not self.exps

    def exponent(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

    def degree(self, ring: GradedRing) -> int:
        return sum(e * ring.degrees[i] for i, e in self.exps)

    def total_exponent(self) -> int:
        return sum(e for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ia, ea), (ib, eb) = a[i], b[j]
            if ia < ib:
                merged.append(a[i])
                i += 1
            elif ib < ia:
                merged.append(b[j])
                j += 1
            else:
                merged.append((ia, ea + eb))
                i += 1
                j += 1
        return Monomial((*merged, *a[i:], *b[j:]))

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(i) >= e for i, e in self.exps)

    def dense(self, ring: GradedRing) -> tuple[int, ...]:
        vector = [0] * ring.ngens
        for i, e in self.exps:
            vector[i] = e
        return tuple(vector)

    def order_key(self, ring: GradedRing) -> tuple[int, tuple[int, ...]]:
        """Graded lexicographic key: larger key means larger monomial."""
        return (self.degree(ring), self.dense(ring))

    def text(self, ring: GradedRing) -> str:
        if self.is_one():
            return "1"
        parts = []
        for i, e in self.exps:
            name = ring.generators[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


class GradedPoly:
    """Sparse exact polynomial attached to an ambient :class:`GradedRing`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[Monomial, int | Fraction]):
        self.ring = ring
        self.terms = {m: value for m, c in terms.items() if (value := _frac(c))}

    @classmethod
    def _wrap(cls, ring: GradedRing, terms: dict[Monomial, Fraction]) -> "GradedPoly":
        """Internal results: ``terms`` already holds Fractions, so only zeros are dropped."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = {m: c for m, c in terms.items() if c}
        return poly

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self.terms.get(monomial, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get(Monomial.one(), Fraction(0))

    def degree(self) -> int:
        """Top degree of the support; zero for the zero polynomial."""
        if not self.terms:
            return 0
        return max(m.degree(self.ring) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree(self.ring) for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        degrees = {m.degree(self.ring) for m in self.terms}
        if len(degrees) != 1:
            raise InvalidInputError("polynomial is not homogeneous")
        return degrees.pop()

    def graded_component(self, degree: int) -> "GradedPoly":
        return GradedPoly(
            self.ring,
            {m: c for m, c in self.terms.items() if m.degree(self.ring) == degree},
        )

    def truncate(self, max_degree: int) -> "GradedPoly":
        return GradedPoly(
            self.ring,
            {m: c for m, c in self.terms.items() if m.degree(self.ring) <= max_degree},
        )

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by (degree ascending, monomial order descending).

        Within a degree the order compares dense exponent vectors
        lexicographically.  The index-sorted pairs, read as ``(-i, e)``,
        compare the same way, so no vector of the ring's length is built."""
        items = sorted(self.terms.items(), reverse=True,
                       key=lambda item: [(-i, e) for i, e in item[0].exps])
        items.sort(key=lambda item: item[0].degree(self.ring))
        return items

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "GradedPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different ambient rings")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_ring(other)
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            prev = get(m)
            out[m] = c if prev is None else prev + c
        return GradedPoly._wrap(self.ring, out)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._wrap(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: "GradedPoly | int | Fraction") -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        # by one term: shift the other operand's monomials, in its term order;
        # distinct monomials stay distinct, so nothing merges or cancels
        many, one = (other, self) if len(self.terms) == 1 else (self, other)
        if len(one.terms) == 1:
            ((t, c0),) = one.terms.items()
            poly = GradedPoly.__new__(GradedPoly)
            poly.ring, poly.terms = self.ring, {m * t: c * c0 for m, c in many.terms.items()}
            return poly
        width = (_max_exponent(self) + _max_exponent(other)).bit_length()
        a, a_den = _pack(self, width)
        b, b_den = _pack(other, width)
        return _unpack(self.ring, _packed_mul(a, b), a_den * b_den, width)

    def __rmul__(self, other: "int | Fraction") -> "GradedPoly":
        return self.scale(other)

    def scale(self, value: int | Fraction) -> "GradedPoly":
        factor = _frac(value)
        return GradedPoly._wrap(self.ring, {m: factor * c for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "GradedPoly":
        """Eager for one term; deferred (:class:`_Power`) for more."""
        if exponent < 0:
            raise InvalidInputError("negative exponent")
        if len(self.terms) > 1:
            power = _Power.__new__(_Power)
            power.ring, power.base, power.exponent = self.ring, self, exponent
            return power
        if exponent == 0:
            return self.ring.one()
        return GradedPoly._wrap(self.ring, {
            Monomial(tuple((i, e * exponent) for i, e in m.exps)): c**exponent
            for m, c in self.terms.items()
        })

    def substitute(
        self, assignments: Mapping[str, "GradedPoly"], ring: GradedRing | None = None
    ) -> "GradedPoly":
        """Evaluate with some generators replaced by polynomials.

        Unassigned generators must exist (by name) in the target ring.
        """
        target = ring if ring is not None else self.ring
        images: dict[int, GradedPoly] = {}
        for i, name in enumerate(self.ring.generators):
            if name in assignments:
                image = assignments[name]
                if image.ring != target:
                    raise RingMismatchError(f"image of {name} is not in the target ring")
                images[i] = image
            else:
                images[i] = target.gen(target.index(name))
        out = target.zero()
        for monomial, coeff in self.terms.items():
            value = target.constant(coeff)
            for i, e in monomial.exps:
                value = value * (images[i] ** e)
            out = out + value
        return out

    def remap(self, ring: GradedRing, index_map: Mapping[int, int]) -> "GradedPoly":
        """Transport into another ring along a generator index map."""
        out: dict[Monomial, Fraction] = {}
        for monomial, coeff in self.terms.items():
            moved = Monomial.make({index_map[i]: e for i, e in monomial.exps})
            out[moved] = out.get(moved, Fraction(0)) + coeff
        return GradedPoly(ring, out)

    # -- canonical encoding -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for monomial, coeff in self.sorted_terms():
            coeff_text = format_rational(coeff)
            if monomial.is_one():
                chunks.append(coeff_text)
            else:
                chunks.append(f"{coeff_text}*{monomial.text(self.ring)}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"GradedPoly({self})"


class _Power(GradedPoly):
    """``base ** exponent``, the base of two or more terms.  ``terms`` is expanded
    in the free ring on first read, in closed form for a linear form in distinct
    generators; a presentation reduces the power unexpanded."""

    __slots__ = ("base", "exponent")

    def __getattr__(self, name: str):  # only while the ``terms`` slot is unset
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = _expand_power(self.base, self.exponent)
        return terms

    def degree(self) -> int:  # exact: (top component of the base) ** exponent != 0
        return self.exponent * self.base.degree()


# Products and powers run on the packed terms of HeadIndex with no guard bits:
# ``width`` is the whole field and holds the largest exponent any product can
# reach, so adding keys multiplies monomials with no carry between fields.
# Terms keep their first-occurrence order throughout.


def _max_exponent(p: GradedPoly) -> int:
    return max((e for m in p.terms for _, e in m.exps), default=0)


def _pack(p: GradedPoly, width: int) -> tuple[dict[int, int], int]:
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    packed = {}
    for m, c in p.terms.items():
        key = 0
        for i, e in m.exps:
            key |= e << (i * width)
        packed[key] = c.numerator * (den // c.denominator)
    return packed, den


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """``a * b``: each term of ``a`` with each of ``b``, in that order."""
    out: dict[int, int] = {}
    get = out.get
    b_items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _expand_power(p: GradedPoly, exponent: int) -> dict[Monomial, Fraction]:
    """The terms of ``p ** exponent`` in the free ring.  A linear form in distinct
    generators takes the multinomial closed form, ``_linear_power``; any other
    base is multiplied into the running power ``exponent - 1`` times, which for a
    sparse base takes fewer coefficient products than squaring (Fateman 1974)."""
    width = (exponent * _max_exponent(p)).bit_length()
    base, den = _pack(p, width)
    if _linear_generators(p):
        result = _linear_power(base, exponent)
    else:
        result = base if exponent else {0: 1}
        for _ in range(exponent - 1):
            result = _packed_mul(result, base)
    return _unpack(p.ring, result, den**exponent, width).terms


def _linear_generators(p: GradedPoly) -> list[int]:
    """The generators of ``p``'s terms if each is one to the first power, else []."""
    gens = [m.exps[0][0] for m in p.terms if len(m.exps) == 1 and m.exps[0][1] == 1]
    return gens if len(gens) == len(p.terms) else []


def _linear_power(base: dict[int, int], exponent: int, caps=None) -> dict[int, int]:
    """The numerators of ``(sum n_i u_i) ** exponent`` for ``base = {u_i: n_i}``, each
    u_i the packed key of a distinct generator: u^a for each |a| = exponent, with
    exponent!/prod(a_i!) * prod(n_i ** a_i).  The walk fixes a_1, then a_2, ...,
    each from largest to smallest: the order in which the ladder first meets the
    terms.  ``caps[i]`` bounds a_i, and a branch the later caps cannot fill ends."""
    gens = [(u, [n**a for a in range(min(cap, exponent) + 1)], cap)
            for (u, n), cap in zip(base.items(), caps or itertools.repeat(exponent)) if cap]
    room = list(itertools.accumulate([cap for *_, cap in reversed(gens)], initial=0))[::-1]
    out: dict[int, int] = {} if exponent else {0: 1}

    def walk(start: int, left: int, key: int, c: int) -> None:
        # the terms key * u^b, |b| = left, b zero before start; leaves at a == left
        if left == 1:
            for u, powers, _ in gens[start:]:
                out[key + u] = c * powers[1]
            return
        for j in range(start, len(gens)):
            if room[j] < left:
                break
            u, powers, cap = gens[j]
            for a in range(min(left, cap), max(left - room[j + 1], 1) - 1, -1):
                k = key + a * u
                if a == left:
                    out[k] = c * powers[a]
                else:
                    walk(j + 1, left - a, k, c * math.comb(left, a) * powers[a])

    if 0 < exponent <= room[0]:
        walk(0, exponent, 0, 1)
    return out


def _unpack(ring: GradedRing, packed: dict[int, int], den: int, width: int) -> GradedPoly:
    """The polynomial of ``packed`` over ``den``.  Equal ``(i, e)`` pairs are
    shared between its monomials, which keeps large cached results small.
    A run of empty fields is skipped in one shift, by the trailing-zero count."""
    mask = (1 << width) - 1
    share = {}.setdefault
    terms = {}
    for key, numerator in packed.items():
        pairs = []
        i = 0
        while key:
            if e := key & mask:
                pairs.append(share((i, e), (i, e)))
                key >>= width
                i += 1
            else:
                skip = ((key & -key).bit_length() - 1) // width
                key >>= skip * width
                i += skip
        terms[Monomial(tuple(pairs))] = Fraction(numerator, den)
    # _packed_mul dropped the zeros already, so no copy filters them again
    poly = GradedPoly.__new__(GradedPoly)
    poly.ring, poly.terms = ring, terms
    return poly


def poly_arith(a: GradedPoly, b: GradedPoly, op: str) -> GradedPoly:
    """Ring arithmetic with explicit operation name (`add` or `mul`)."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise InvalidInputError(f"unknown operation {op!r}")


def poly_pow(a: GradedPoly, exponent: int) -> GradedPoly:
    return a**exponent


def graded_component(p: GradedPoly, degree: int) -> GradedPoly:
    """Sum of the terms of ``p`` of total degree exactly ``degree``."""
    if degree < 0:
        raise InvalidInputError("degree must be nonnegative")
    return p.graded_component(degree)


def monomials_of_degree(ring: GradedRing, degree: int) -> list[Monomial]:
    """All monomials of the given total degree, largest first in graded lex.

    The walk fixes exponents generator by generator, each from largest to
    smallest, so it emits the monomials in descending order.  It ends a branch
    once the remaining degree is below that of every later generator."""
    if degree < 0 or (degree and not ring.degrees):
        return []
    results: list[Monomial] = []
    degrees = ring.degrees
    last = len(degrees) - 1
    lows = list(itertools.accumulate(reversed(degrees), min))[::-1]

    def walk(index: int, remaining: int, chosen: list[tuple[int, int]]) -> None:
        if remaining == 0:
            results.append(Monomial(tuple(chosen)))
            return
        if remaining < lows[index]:
            return
        step = degrees[index]
        if index == last:
            if remaining % step == 0:
                results.append(Monomial((*chosen, (index, remaining // step))))
            return
        for e in range(remaining // step, 0, -1):
            chosen.append((index, e))
            walk(index + 1, remaining - e * step, chosen)
            chosen.pop()
        walk(index + 1, remaining, chosen)

    walk(0, degree, [])
    return results


class HeadIndex:
    """Packed keys of ``ring``'s monomials up to ``degree``, and rule heads on
    them in insertion order.

    A key holds exponent ``e_i`` in ``width`` bits from ``shifts[i]`` on, under
    a guard bit no key sets (``stride = width + 1``).  ``width`` is the bit
    length of ``degree // low``, ``low`` the least generator degree, so keys
    of degree up to ``capacity = (low << width) - 1`` fit and add as their
    monomials multiply.  With G the guard bits, h divides m when
    ``((m | G) - h) & G == G``, and m / h is then m - h (Monagan and Pearce,
    CASC 2007).  ``pack`` puts a polynomial on the keys, as integer numerators
    over the lcm of its denominators.  ``find`` scans the heads in insertion
    order and returns the first that divides the key, or None.
    """

    def __init__(self, ring: GradedRing, degree: int):
        low = min(ring.degrees, default=2)
        self.width = width = max(degree // low, 1).bit_length()
        self.capacity = (low << width) - 1
        self.stride = width + 1
        self.shifts = tuple(i * self.stride for i in range(ring.ngens))
        self.guards = sum(1 << (shift + width) for shift in self.shifts)
        self._heads: list[int] = []

    def key(self, monomial: Monomial) -> int:
        shifts = self.shifts
        return sum(e << shifts[i] for i, e in monomial.exps)

    def pack(self, p: GradedPoly) -> tuple[dict[int, int], int]:
        return _pack(p, self.stride)

    def add(self, head: int) -> None:
        self._heads.append(head)

    def find(self, key: int) -> int | None:
        guards = self.guards
        high = key | guards
        for head in self._heads:
            if (high - head) & guards == guards:
                return head
        return None


class _Rewriter:
    """The packed rewriting kernel of one presentation.

    Rewriting keeps the degree, so a key within ``heads.capacity`` never
    reaches an exponent its field cannot hold.  Right-hand sides are cleared
    of denominators once; ``cache`` maps a key to its normal form as integer
    numerators by output key over one positive denominator, and ``monomials``
    turns output keys back into ``Monomial``s.  If the rules are y^(c+1) -> 0,
    at most one per generator y, ``caps`` maps each such y to c; else it is
    None.
    """

    def __init__(self, pres: "RingPresentation", degree: int):
        self.ring = pres.ring
        self.heads = heads = HeadIndex(pres.ring, degree)
        self.rules = {heads.key(lhs): heads.pack(rhs) for lhs, rhs in pres.rules.items()}
        for head in self.rules:
            heads.add(head)
        caps = {lhs.exps[0][0]: lhs.exps[0][1] - 1
                for lhs, rhs in pres.rules.items() if len(lhs.exps) == 1 and not rhs.terms}
        self.caps = caps if len(caps) == len(pres.rules) else None
        self.cache: dict[int, tuple[dict[int, int], int]] = {}
        self.monomials: dict[int, Monomial] = {}

    def combine(self, pairs: Iterable[tuple[int, int]]) -> tuple[dict[int, int], int]:
        """``sum(n * NF(key))`` over ``pairs``, as integer numerators by output
        key over one positive denominator."""
        pairs = list(pairs)
        cache = self.cache
        parts = [cache.get(key) or self._reduce(key) for key, _ in pairs]
        den = math.lcm(*[d for _, d in parts])
        acc: dict[int, int] = {}
        get = acc.get
        for (_, n), (terms, d) in zip(pairs, parts):
            if d != den:
                n *= den // d
            for key, t in terms.items():
                acc[key] = get(key, 0) + n * t
        return {key: t for key, t in acc.items() if t}, den

    def powers(self, base: dict[int, int], den: int) -> Iterator[tuple[dict[int, int], int]]:
        """NF(a), NF(a**2), ... lazily, each as ``combine`` gives it, from NF(a) =
        ``base`` over ``den``: every rung is NF(previous rung * NF(a))."""
        rung, rung_den = base, den
        while True:
            yield rung, rung_den
            rung, nf_den = self.combine(_packed_mul(rung, base).items())
            rung_den *= den * nf_den

    def _reduce(self, key: int) -> tuple[dict[int, int], int]:
        cache, find, rules = self.cache, self.heads.find, self.rules
        stack = [key]
        while stack:
            m = stack[-1]
            if m in cache:
                stack.pop()
                continue
            head = find(m)
            if head is None:
                cache[m] = ({m: 1}, 1)
                stack.pop()
                continue
            rhs, rhs_den = rules[head]
            if not rhs:  # m -> 0: nothing to combine
                cache[m] = ({}, 1)
                stack.pop()
                continue
            quotient = m - head
            children = [(quotient + k, n) for k, n in rhs.items()]
            missing = [c for c, _ in children if c not in cache]
            if missing:
                stack.extend(missing)
                continue
            terms, den = self.combine(children)
            den *= rhs_den
            if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
                terms, den = {k: t // g for k, t in terms.items()}, den // g
            cache[m] = (terms, den)
            stack.pop()
        return cache[key]

    def poly(self, terms: dict[int, int], den: int) -> GradedPoly:
        """The polynomial of ``terms`` over ``den``; unseen keys are unpacked once."""
        memo = self.monomials
        if new := {key: 1 for key in terms if key not in memo}:
            memo.update(zip(new, _unpack(self.ring, new, 1, self.heads.stride).terms))
        poly = GradedPoly.__new__(GradedPoly)
        poly.ring = self.ring
        if den == 1:
            poly.terms = {memo[key]: Fraction(n) for key, n in terms.items()}
        else:
            poly.terms = {memo[key]: Fraction(n, den) for key, n in terms.items()}
        return poly


class RingPresentation:
    """A graded ring together with an oriented, terminating rewrite system.

    ``rules`` maps a leading monomial to its replacement.  The constructor
    checks that every replacement is degree-homogeneous of the same degree and
    strictly smaller in graded lex, and ``rules`` is a read-only view of the
    rules it checked.  Graded lex is a monomial order with finitely many
    monomials in each degree, so rewriting terminates on every input.

    ``fiber_basis``, when present, is the ordered Leray-Hirsch basis
    ``b_0 = 1, ..., b_N`` with ``b_N`` the top fiber class; the generators
    appearing in it are the fiber directions and everything else is treated as
    pulled back from the base.  ``basis``, when present, lists every monomial
    no rule divides, by ascending degree and largest first within a degree;
    ``basis_by_degree`` groups it by degree.

    Normal forms are taken to be unique, as for every presentation ``flagcoh``
    builds; then NF(ab) = NF(NF(a) NF(b)), and powers are reduced in the quotient.

    Instances are immutable after construction apart from the packed
    rewriting kernel and its cache of monomial normal forms, built on first
    use; assigning to ``rules[m]`` raises ``TypeError``.
    """

    def __init__(
        self,
        ring: GradedRing,
        rules: Mapping[Monomial, GradedPoly],
        fiber_basis: Sequence[Monomial] | None = None,
        relations: Sequence[GradedPoly] = (),
        family: str = "custom",
        top_degree: int | None = None,
        basis: Sequence[Monomial] | None = None,
    ):
        self.ring = ring
        self.rules = MappingProxyType(dict(rules))
        self.relations = tuple(relations)
        self.family = family
        self.top_degree = top_degree
        self._kernel: _Rewriter | None = None
        self.basis = None if basis is None else tuple(basis)
        self.basis_by_degree: dict[int, tuple[Monomial, ...]] = {}
        for degree, group in itertools.groupby(self.basis or (), lambda m: m.degree(ring)):
            if degree <= next(reversed(self.basis_by_degree), -1):
                raise PresentationError("basis is not ordered by degree")
            self.basis_by_degree[degree] = tuple(group)

        for lhs, rhs in self.rules.items():
            if lhs.is_one():
                raise PresentationError("the unit monomial cannot head a rewrite rule")
            if rhs.ring != ring:
                raise RingMismatchError("rule replacement lives in a different ring")
            lhs_degree = lhs.degree(ring)
            lhs_key = lhs.order_key(ring)
            for monomial in rhs.terms:
                if monomial.degree(ring) != lhs_degree:
                    raise PresentationError(
                        f"rule for {lhs.text(ring)} is not degree-homogeneous"
                    )
                if monomial.order_key(ring) >= lhs_key:
                    raise PresentationError(
                        f"rule for {lhs.text(ring)} does not decrease the monomial order"
                    )

        if fiber_basis is not None:
            basis = tuple(fiber_basis)
            if not basis or not basis[0].is_one():
                raise PresentationError("fiber basis must start with b_0 = 1")
            if len(set(basis)) != len(basis):
                raise PresentationError("fiber basis has repeated elements")
            heads = self._rewriter(max(b.degree(ring) for b in basis)).heads
            if any(heads.find(heads.key(b)) is not None for b in basis):
                raise PresentationError("fiber basis element is reducible")
            self.fiber_basis: tuple[Monomial, ...] | None = basis
            support: set[int] = set()
            for b in basis:
                support |= b.support()
            self.fiber_generators: frozenset[int] = frozenset(support)
        else:
            self.fiber_basis = None
            self.fiber_generators = frozenset()

    # -- rewriting -----------------------------------------------------------

    def _rewriter(self, degree: int) -> _Rewriter:
        """The packed kernel, built on first use and rebuilt with wider fields
        when ``degree`` exceeds what its fields hold."""
        kernel = self._kernel
        if kernel is None or degree > kernel.heads.capacity:
            top = max((lhs.degree(self.ring) for lhs in self.rules), default=0)
            kernel = self._kernel = _Rewriter(self, max(degree, top))
        return kernel

    def _reduced(self, p: GradedPoly, degree: int = 0) -> tuple[_Rewriter, dict[int, int], int]:
        """The kernel, fit for ``p`` and for keys up to ``degree``, and NF(p) as
        integer numerators by key over one positive denominator.  A deferred
        power is never expanded.  If the kernel has ``caps`` (sphere products,
        CP^n) and its base is a linear form in capped generators, it is
        ``_linear_power`` under the caps.  Otherwise it climbs the ladder of its
        reduced base, one product and normal form a rung, stopping at the first
        zero rung, which a base with a constant term never reaches."""
        base, e = (p.base, p.exponent) if p.__class__ is _Power else (p, 1)
        kernel = self._rewriter(max(p.degree(), degree))
        packed, den = kernel.heads.pack(base)
        caps = kernel.caps
        if caps and (gens := _linear_generators(base)) and all(i in caps for i in gens):
            return kernel, _linear_power(packed, e, [caps[i] for i in gens]), den**e
        base, nf_den = kernel.combine(packed.items())
        ladder = kernel.powers(base, den * nf_den)
        terms, den = {0: 1}, 1
        for terms, den in itertools.islice(ladder, e):
            if not terms:
                break
        return kernel, terms, den

    def normal_form(self, p: GradedPoly) -> GradedPoly:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial is not in the presented ring")
        kernel, terms, den = self._reduced(p)
        return kernel.poly(terms, den)

    def product_rows(
        self, p: GradedPoly, multipliers: Sequence[Monomial], columns: Sequence[Monomial]
    ) -> list[dict[int, int]]:
        """Integer rows ``{position in columns: coefficient}`` of ``NF(p*m)``, one per
        ``m`` in ``multipliers``, each up to a positive factor, which keeps ranks; a
        term outside ``columns`` is an input error.  No product polynomial is built."""
        return next(self.power_rows(p, [(multipliers, columns)]))

    def power_rows(
        self, a: GradedPoly, pieces: Sequence[tuple[Sequence[Monomial], Sequence[Monomial]]]
    ) -> Iterator[list[dict[int, int]]]:
        """For k = 1, 2, ..., lazily, the rows of ``NF(a**k * m)`` as ``product_rows``
        gives them, over ``pieces[k - 1] = (multipliers, columns)``.  NF(a) is taken
        once and the rungs climb ``_Rewriter.powers``, all on the keys of a kernel
        sized up front for every piece, since a rebuild would change them."""
        ring, degree = self.ring, 0
        for k, (multipliers, columns) in enumerate(pieces, 1):
            top = max((m.degree(ring) for m in multipliers), default=0)
            degree = max(degree, k * a.degree() + top, *(m.degree(ring) for m in columns))
        kernel, base, den = self._reduced(a, degree)
        key = kernel.heads.key
        for (multipliers, columns), (rung, _) in zip(pieces, kernel.powers(base, den)):
            index = {key(m): j for j, m in enumerate(columns)}
            rows = []
            for shift in map(key, multipliers):
                row, _ = kernel.combine((t + shift, n) for t, n in rung.items())
                try:
                    rows.append({index[t]: c for t, c in row.items()})
                except KeyError:
                    raise InvalidInputError("polynomial leaves the expected degree component") from None
            yield rows

    # -- Leray-Hirsch decomposition -------------------------------------------

    def split_monomial(self, monomial: Monomial) -> tuple[Monomial, Monomial]:
        """Split into (fiber part, base part) along the fiber generators."""
        fiber = {i: e for i, e in monomial.exps if i in self.fiber_generators}
        base = {i: e for i, e in monomial.exps if i not in self.fiber_generators}
        return Monomial.make(fiber), Monomial.make(base)

    def fiber_coefficient(self, p: GradedPoly, b: Monomial) -> GradedPoly:
        if self.fiber_basis is None:
            raise PresentationError("presentation has no fiber basis")
        if b not in self.fiber_basis:
            raise BasisError(f"{b.text(self.ring)} is not a fiber basis element")
        reduced = self.normal_form(p)
        out: dict[Monomial, Fraction] = {}
        for monomial, coeff in reduced.terms.items():
            fiber, base = self.split_monomial(monomial)
            if fiber not in self.fiber_basis:
                raise PresentationError(
                    f"normal form contains fiber part {fiber.text(self.ring)} outside the declared basis"
                )
            if fiber == b:
                out[base] = out.get(base, Fraction(0)) + coeff
        return GradedPoly(self.ring, out)

    def top_fiber_class(self) -> Monomial:
        if self.fiber_basis is None:
            raise PresentationError("presentation has no fiber basis")
        return self.fiber_basis[-1]

    def __repr__(self) -> str:
        gens = ", ".join(self.ring.generators)
        return f"RingPresentation([{gens}], {len(self.rules)} rules, family={self.family!r})"


def _reduce_forward(rows: list[dict[int, int]], pivots: dict[int, dict[int, int]]) -> int:
    """Echelon integer ``rows`` into ``pivots`` (pivot column -> row) in place.

    The rows are consumed: each is eliminated over the integers, and one that
    does not reduce to zero is made primitive and becomes a pivot row, in
    insertion order.  Returns how many rows added a pivot: the rank they add.
    """
    before = len(pivots)
    for current in rows:
        while current:
            col = min(current)
            if col not in pivots:
                pivots[col] = _make_primitive(current, col)
                break
            _eliminate(current, pivots[col], col)
    return len(pivots) - before


def _reduce_kept(pivots: dict[int, dict[int, int]], col: int) -> dict[int, int]:
    """A copy of pivot row ``col`` cleared of every other pivot column.

    The pivot columns after ``col`` are cleared in one ascending sweep, each
    by its unreduced pivot row.  A pivot row holds only columns from its own
    on, so clearing column j adds only columns after j, and a column the
    sweep has passed stays clear.  The result is the reduced echelon row of
    ``col`` times its leading entry.
    """
    row = dict(pivots[col])
    for j in sorted(pivots):
        if j > col and j in row:
            _eliminate(row, pivots[j], j)
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> None:
    """Clear ``row[col]`` in place: row <- (b/g)*row - (a/g)*pivot.

    Here ``a = row[col]``, ``b = pivot[col]`` and ``g = gcd(a, b)``, so the
    result stays integral; pivot rows lead with ``b > 0``, so a kept row
    being reduced keeps a positive leading entry.
    """
    a, b = row.pop(col), pivot[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        for j in row:
            row[j] *= b
    for j, p in pivot.items():
        if j == col:
            continue
        updated = row.get(j, 0) - a * p
        if updated:
            row[j] = updated
        else:
            row.pop(j, None)


def _make_primitive(row: dict[int, int], col: int) -> dict[int, int]:
    """Divide a row by the gcd of its entries, making ``row[col]`` positive."""
    g = math.gcd(*row.values())
    if row[col] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def normal_form(p: GradedPoly, pres: RingPresentation) -> GradedPoly:
    """Reduce ``p`` to its unique irreducible representative in the quotient."""
    return pres.normal_form(p)


def fiber_coefficient(p: GradedPoly, pres: RingPresentation, b: Monomial) -> GradedPoly:
    """Base-ring coefficient of the fiber basis element ``b`` in ``p``."""
    return pres.fiber_coefficient(p, b)


# -- text input ---------------------------------------------------------------


# One lexer for polynomial and bundle text: a number (``p`` or ``p/q`` in
# decimal digits), a name, or any other single non-space character.
_NUMBER = r"\d+(?:/\d+)?"
_TOKEN = re.compile(rf"{_NUMBER}|[^\W\d]\w*|\S")
_RATIONAL = re.compile(rf"\s*[+-]?{_NUMBER}\s*")


def tokenize(text: str) -> list[str]:
    """Number, name and single-character tokens of ``text``; whitespace separates."""
    return _TOKEN.findall(text)


def parse_int(token: str) -> int:
    """A nonnegative integer written in ASCII decimal digits; anything else,
    other scripts' digits included, is an input error."""
    if not (token.isascii() and token.isdecimal()):
        raise InvalidInputError(f"expected decimal digits, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise InvalidInputError(f"integer of {len(token)} digits is too long") from None


def parse_signed_int(token: str) -> int:
    """An integer in ASCII decimal digits after an optional ``+`` or ``-``."""
    sign = token[:1]
    if sign in ("+", "-"):
        value = parse_int(token[1:])
        return -value if sign == "-" else value
    return parse_int(token)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``p/q`` (or ``p``) encoding of a rational, optionally signed."""
    if not _RATIONAL.fullmatch(text):
        raise InvalidInputError(f"malformed rational {text!r}")
    body = text.strip()
    numerator, _, denominator = body.lstrip("+-").partition("/")
    p = parse_int(numerator)
    q = parse_int(denominator) if denominator else 1
    if q == 0:
        raise InvalidInputError(f"zero denominator in {text!r}")
    return Fraction(-p if body[0] == "-" else p, q)


def parse_poly(ring: GradedRing, text: str) -> GradedPoly:
    """Parse sums of terms like ``2*y1^2*y2 - 1/3*y3 + 4`` in the given ring."""
    tokens = tokenize(text)
    if not tokens:
        raise InvalidInputError("empty polynomial text")
    terms: dict[Monomial, Fraction] = {}
    pos = 0

    def parse_factor() -> GradedPoly:
        nonlocal pos
        if pos >= len(tokens):
            raise InvalidInputError("polynomial ends unexpectedly")
        token = tokens[pos]
        pos += 1
        if token[0].isdecimal():
            return ring.constant(parse_rational(token))
        base = ring.gen(token)
        if pos < len(tokens) and tokens[pos] == "^":
            if pos + 1 >= len(tokens):
                raise InvalidInputError("exponent expected after '^'")
            base = base ** parse_int(tokens[pos + 1])
            pos += 2
        return base

    def parse_term() -> GradedPoly:
        nonlocal pos
        value = parse_factor()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            value = value * parse_factor()
        return value

    def parse_signs() -> Fraction:
        # the canonical encoding writes negative coefficients after '+',
        # so runs of signs like '+ -' must collapse
        nonlocal pos
        sign = Fraction(1)
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise InvalidInputError("polynomial ends after a sign")
        return sign

    while True:
        sign = parse_signs()
        for m, c in parse_term().terms.items():  # one dict; a cancelled term leaves it
            terms[m] = terms.get(m, 0) + sign * c
            if not terms[m]:
                del terms[m]
        if pos >= len(tokens):
            return GradedPoly._wrap(ring, terms)
        if tokens[pos] not in "+-":
            raise InvalidInputError(f"expected '+' or '-', found {tokens[pos]!r}")
