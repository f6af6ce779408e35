"""The immutable value classes: equality and hash by the tuple of their fields,
assignment refused, keyword construction, and identity for universal leaves."""

from fractions import Fraction

import pytest

from charcalc.bundlecalc import Dual, Lambda2, Sum, Tensor, Trivial, Universal
from charcalc.cli import _projective_space, _sphere_base_bundle
from charcalc.coupling import CouplingInput, MixedIndex
from charcalc.equivariant import WeightedCircleAction
from charcalc.exactring import GradedRing, Monomial
from charcalc.flagcoh import FlagSpec, SphereProductSpec
from charcalc.obstruction import DegreeBasis, ObstructionInput
from charcalc.symfun import ElemExpr, Partition, SymExpr, sigma_ring

LEAF = Universal(3)
BUNDLE = _sphere_base_bundle(1, 2)
CP2 = _projective_space(2)
SIGMA = sigma_ring(2)

# name: (fields, make, a value differing in one field)
CASES = {
    "GradedRing": (("generators", "degrees"),
                   lambda: GradedRing(("a", "b"), (2, 4)),
                   lambda: GradedRing(("a", "b"), (2, 2))),
    "Partition": (("parts",), lambda: Partition((3, 1)), lambda: Partition((2, 2))),
    "SymExpr": (("coeffs", "v"),
                lambda: SymExpr({Partition((2,)): Fraction(1)}, 2),
                lambda: SymExpr({Partition((2,)): Fraction(1)}, 3)),
    "ElemExpr": (("poly", "v"), lambda: ElemExpr(SIGMA.gen(0), 2),
                 lambda: ElemExpr(SIGMA.gen(1), 2)),
    "Trivial": (("r",), lambda: Trivial(2), lambda: Trivial(3)),
    "Dual": (("inner",), lambda: Dual(LEAF), lambda: Dual(Trivial(1))),
    "Sum": (("left", "right"), lambda: Sum(LEAF, Trivial(1)), lambda: Sum(LEAF, Trivial(2))),
    "Tensor": (("left", "right"), lambda: Tensor(LEAF, LEAF), lambda: Tensor(LEAF, Trivial(1))),
    "Lambda2": (("inner",), lambda: Lambda2(LEAF), lambda: Lambda2(Universal(3))),
    "FlagSpec": (("dims",), lambda: FlagSpec((2, 1)), lambda: FlagSpec((2, 2))),
    "SphereProductSpec": (("dims",), lambda: SphereProductSpec((2, 4)),
                          lambda: SphereProductSpec((4, 2))),
    "CouplingInput": (("pres", "u", "n", "section_pullback"),
                      lambda: CouplingInput(BUNDLE, BUNDLE.ring.gen("c"), 1),
                      lambda: CouplingInput(BUNDLE, BUNDLE.ring.gen("c"), 1,
                                            {"c": BUNDLE.ring.zero()})),
    "MixedIndex": (("k", "exponents", "vertical_classes"),
                   lambda: MixedIndex(0, (1,), (BUNDLE.ring.gen("c"),)),
                   lambda: MixedIndex(1, (1,), (BUNDLE.ring.gen("c"),))),
    "WeightedCircleAction": (("n", "weights"), lambda: WeightedCircleAction(2, (1, -1, 0)),
                             lambda: WeightedCircleAction(2, (1, 0, -1))),
    "DegreeBasis": (("degree", "monomials"), lambda: DegreeBasis(2, (Monomial.of(0),)),
                    lambda: DegreeBasis(4, (Monomial.of(0),))),
    "ObstructionInput": (("pres", "alpha_pairing", "c"),
                         lambda: ObstructionInput(CP2, {"c": 1}, CP2.ring.gen("c")),
                         lambda: ObstructionInput(CP2, {"c": 2}, CP2.ring.gen("c"))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_follows_its_fields(name):
    fields, make, other = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    values = tuple(getattr(a, field) for field in fields)
    assert a == b and not a != b
    assert a != other() and not a == other()
    assert a != values and a != object()
    try:
        want = hash(values)
    except TypeError:  # a dict field, as in a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    assert repr(a) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert type(a)(**dict(zip(fields, values))) == a
    assert not hasattr(a, "__dict__")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, field) for field in fields) == values


def test_value_class_hashes_are_the_field_tuples():
    assert hash(Partition.of(3, 1)) == hash(((3, 1),))
    assert hash(GradedRing(("a",), (2,))) == hash((("a",), (2,)))
    assert hash(FlagSpec((2, 1))) == hash(((2, 1),))
    assert hash(Sum(LEAF, Trivial(0))) == hash((LEAF, Trivial(0)))
    assert hash(Trivial(0)) == hash((0,))
    # so sets of them iterate in the same order as sets of the tuples
    shapes = [Partition.of(*p) for p in ((3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (4,))]
    assert [s.parts for s in set(shapes)] == [t[0] for t in {(s.parts,) for s in shapes}]


def test_universal_leaves_compare_by_identity():
    a, b = Universal(3), Universal(3)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2
    assert Sum(a, b) != Sum(b, a) and Sum(a, b) == Sum(a, b)
    assert repr(a) == "Universal(m=3)"
    assert Universal(m=3).m == 3
    a.m = 4  # a leaf was never frozen
    assert a.rank == 4


def test_value_classes_check_on_construction():
    for build in (lambda: GradedRing(("a",), (3,)), lambda: Partition((1, 2)),
                  lambda: Trivial(-1), lambda: Universal(0), lambda: FlagSpec(()),
                  lambda: SphereProductSpec((3,)), lambda: WeightedCircleAction(1, (2, 2)),
                  lambda: MixedIndex(-1, (), ()), lambda: SymExpr({Partition((1, 1, 1)): 1}, 2),
                  lambda: CouplingInput(CP2, CP2.ring.gen("c").scale(0), 1),
                  lambda: ObstructionInput(CP2, {"c": 0}, CP2.ring.gen("c"))):
        with pytest.raises(Exception) as info:
            build()
        assert not isinstance(info.value, AttributeError)


def test_coupling_input_volume_is_computed_once_and_not_compared():
    data = CouplingInput(BUNDLE, BUNDLE.ring.gen("c"), 1, section_pullback=None)
    assert data.fiber_volume == 1
    assert data == CouplingInput(BUNDLE, BUNDLE.ring.gen("c"), 1)
    with pytest.raises(AttributeError):
        data.fiber_volume = 2


def test_fields_are_assigned_by_position_then_name_and_checked_for_arity():
    left, right = LEAF, Trivial(1)
    assert Sum(left, right) == Sum(left, right=right) == Sum(right=right, left=left)
    assert DegreeBasis(2, monomials=()).monomials == ()
    message = "Sum takes the fields (left, right); got {} by position and ({}) by name"
    for args, named, shown in [((left,), {}, ""), ((left, right, right), {}, ""),
                               ((left,), {"left": left}, "left"),
                               ((left, right), {"extra": 1}, "extra"),
                               ((), {"left": left, "rite": right}, "left, rite")]:
        with pytest.raises(TypeError) as info:
            Sum(*args, **named)
        assert str(info.value) == message.format(len(args), shown)
    with pytest.raises(TypeError, match=r"Dual takes the fields \(inner\)"):
        Dual()
    # a class that validates keeps its own signature
    with pytest.raises(TypeError):
        Trivial()
