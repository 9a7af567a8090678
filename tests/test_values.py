"""The value types: equality within one type, hash, repr, immutability,
copies and pickles.

Each frozen type is checked against an equal instance, against a
subclass and against an unrelated record type holding the same field
values, and through `copy`, `deepcopy` and `pickle`.  The intersection
poset is the one mutable type: it compares by its fields and is
unhashable.
"""

import copy
import pickle

import pytest

from tfpoly.arrangements import FiniteCosetProduct, IntersectionPoset, finite_semilattice
from tfpoly.config import Record, run_scope
from tfpoly.graph import EdgeSubset, MultiGraph, Orientation
from tfpoly.invariants import tutte
from tfpoly.oracles import omega_value
from tfpoly.orientations import OrientationClass
from tfpoly.tensionflow import FiniteAbelianGroup, GroupElementFunction, IntegerEdgeFunction
from tfpoly.verification import CheckResult

Z3 = FiniteAbelianGroup((3,))

# (make a fresh instance, its repr)
VALUES = [
    (
        lambda: MultiGraph(3, ((0, 1), (1, 2), (2, 2))),
        "MultiGraph(vertex_count=3, edges=((0, 1), (1, 2), (2, 2)))",
    ),
    (lambda: Orientation((False, True, False)), "Orientation(flips=(False, True, False))"),
    (lambda: EdgeSubset(0b101, 3), "EdgeSubset(mask=5, width=3)"),
    (lambda: FiniteAbelianGroup((2, 3)), "FiniteAbelianGroup(cyclic_orders=(2, 3))"),
    (
        lambda: GroupElementFunction(Z3, ((1,), (0,))),
        "GroupElementFunction(group=FiniteAbelianGroup(cyclic_orders=(3,)), values=((1,), (0,)))",
    ),
    (lambda: IntegerEdgeFunction((0, 1, -2)), "IntegerEdgeFunction(values=(0, 1, -2))"),
    (
        lambda: FiniteCosetProduct((frozenset({(0,)}),)),
        "FiniteCosetProduct(factors=(frozenset({(0,)}),))",
    ),
    (
        lambda: OrientationClass(Orientation((True,)), 2, EdgeSubset(1, 1), EdgeSubset(0, 1)),
        "OrientationClass(representative=Orientation(flips=(True,)), size=2, "
        "b=EdgeSubset(mask=1, width=1), c=EdgeSubset(mask=0, width=1))",
    ),
    (
        lambda: CheckResult("name", False, ("line",)),
        "CheckResult(name='name', passed=False, lines=('line',))",
    ),
]
IDS = [text.partition("(")[0] for _, text in VALUES]


def twin(value, base):
    """An instance of a new subclass of base (value's own type, or
    Record) with value's field values."""
    fields = type(value).__slots__
    cls = type(f"Twin{type(value).__name__}", (base,), {"__slots__": fields if base is Record else ()})
    other = object.__new__(cls)
    for name in fields:
        object.__setattr__(other, name, getattr(value, name))
    return other


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_a_value_equals_only_an_equal_value_of_its_own_type(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in type(a).__slots__))
    for other in (twin(a, type(a)), twin(a, Record)):
        assert a != other and other != a
        assert not a == other


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_a_value_prints_its_fields_by_name(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_a_value_cannot_be_changed(make, text):
    value = make()
    field = type(value).__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_a_value_copies_and_pickles_to_an_equal_value(make, text):
    value = make()
    for other in (
        copy.copy(value),
        copy.deepcopy(value),
        *(
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
    ):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)


def test_a_frozen_value_still_checks_its_fields():
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        EdgeSubset(0b100, 2)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    with pytest.raises(ValueError):
        GroupElementFunction(Z3, ((4,),))


def test_the_intersection_poset_is_mutable_and_unhashable():
    ambient = [FiniteAbelianGroup((4,))]
    member = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]])
    poset, again = finite_semilattice(ambient, [member]), finite_semilattice(ambient, [member])
    assert poset == again and poset is not again
    assert repr(poset) == (
        f"IntersectionPoset(elements={poset.elements!r}, variables=(), "
        f"weights={poset.weights!r}, mu=[1, -1])"
    )
    with pytest.raises(TypeError):
        hash(poset)
    again.mu = [1, 0]
    assert poset != again
    assert IntersectionPoset(poset.elements, (), poset.weights, [1, 0]) == again
    for other in (copy.deepcopy(poset), pickle.loads(pickle.dumps(poset))):
        assert type(other) is IntersectionPoset and other == poset


# -- sequences given as lists are kept as tuples ---------------------------------


@pytest.mark.parametrize(
    ("given", "as_tuples"),
    [
        (
            lambda: MultiGraph(3, [(0, 1), [1, 2], (0, 2)]),
            lambda: MultiGraph(3, ((0, 1), (1, 2), (0, 2))),
        ),
        (lambda: Orientation([False, True]), lambda: Orientation((False, True))),
        (lambda: FiniteAbelianGroup([2, 2]), lambda: FiniteAbelianGroup((2, 2))),
        (
            lambda: FiniteCosetProduct([{(0,), (1,)}]),
            lambda: FiniteCosetProduct((frozenset({(0,), (1,)}),)),
        ),
    ],
    ids=["MultiGraph", "Orientation", "FiniteAbelianGroup", "FiniteCosetProduct"],
)
def test_lists_are_kept_as_tuples(given, as_tuples):
    value = given()
    assert value == as_tuples()
    assert hash(value) == hash(as_tuples())
    assert repr(value) == repr(as_tuples())


def test_graphs_and_groups_from_lists_key_the_run_memo():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    klein = FiniteAbelianGroup([2, 2])
    want = tutte(g), omega_value(g, klein, klein)
    with run_scope():
        assert (tutte(g), omega_value(g, klein, klein)) == want


def test_a_whole_space_member_given_as_a_list_is_refused():
    z2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="member 0 is the whole space"):
        finite_semilattice([z2], [FiniteCosetProduct([frozenset({(0,), (1,)})])])
