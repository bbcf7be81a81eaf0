"""The library's value types are named tuples: immutable, hashable, equal
within their type, `_replace`-able and picklable, with their properties and
methods kept."""

import pickle

import pytest

from signedconn import (
    Block,
    CircuitClassification,
    CircuitVerdict,
    ComponentPartition,
    HararyBipartition,
    HypercyclicKind,
    HypercyclicVerdict,
    SignedGraph,
    Theta,
    Walk,
    WitnessPair,
    block_decomposition,
    chain_with_sign,
    classify_circuit,
    classify_hypercyclic,
    contains_theta,
    frame_components,
    harary_bipartition,
    witness_chains,
)
from signedconn.io import fixture
from signedconn.structure import Core
from signedconn.sweep import Violation


def _pendant_triangle():
    # a negative triangle 0-1-2 with the pendant edge 0-3
    return SignedGraph.from_triples(4, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (3, 0, 1)])


# Each builds a fresh value from a fresh graph, so two calls give equal values
# that are distinct objects.
SAMPLES = {
    HararyBipartition: lambda: harary_bipartition(fixture("C4")),
    Walk: lambda: chain_with_sign(fixture("T-"), 0, 2, -1),
    CircuitClassification: lambda: classify_circuit(fixture("TIGHT"), range(6)),
    ComponentPartition: lambda: frame_components(fixture("LOOSE")),
    WitnessPair: lambda: witness_chains(fixture("T-"), 0, 1),
    Block: lambda: block_decomposition(fixture("LOOSE")).blocks[0],
    Core: lambda: block_decomposition(fixture("LOOSE")).cores[0],
    Theta: lambda: contains_theta(fixture("THETA")),
    HypercyclicVerdict: lambda: classify_hypercyclic(
        _pendant_triangle(), Walk(3, ((3, True), (0, True), (1, True), (2, True)))
    ),
    Violation: lambda: Violation(4, "rank mismatch", fixture("LOOSE")),
}

TYPES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


@TYPES
def test_equal_values_hash_alike(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(a)  # a named tuple equals its plain tuple


@TYPES
def test_a_changed_field_makes_a_different_value(cls):
    value = SAMPLES[cls]()
    first = cls._fields[0]
    changed = value._replace(**{first: None})
    assert type(changed) is cls
    assert changed != value
    assert getattr(changed, first) is None
    assert changed[1:] == value[1:]


@TYPES
def test_replace_with_the_same_fields_is_equal(cls):
    value = SAMPLES[cls]()
    assert value._replace(**value._asdict()) == value
    with pytest.raises(ValueError):
        value._replace(no_such_field=1)


@TYPES
def test_assignment_raises_attribute_error(cls):
    value = SAMPLES[cls]()
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], getattr(value, cls._fields[0]))
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@TYPES
def test_pickle_round_trip(cls):
    value = SAMPLES[cls]()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls
    assert back == value and hash(back) == hash(value)


def test_partition_q_counts_classes_and_isolated_vertices():
    part = ComponentPartition("frame", (frozenset({0, 1}), frozenset({2})), frozenset({5, 6}))
    assert part.q == 4
    assert part._replace(isolated_vertices=frozenset()).q == 2
    assert ComponentPartition("sign", (frozenset({0}),)).isolated_vertices == frozenset()


def test_circuit_classification_in_frame_and_in_lift():
    shapes = {
        CircuitVerdict.POSITIVE_CYCLE: (True, True),
        CircuitVerdict.TIGHT_HANDCUFF: (True, True),
        CircuitVerdict.LOOSE_HANDCUFF: (True, False),
        CircuitVerdict.DISJOINT_PAIR: (False, True),
        CircuitVerdict.NOT_A_CIRCUIT: (False, False),
    }
    for verdict, (frame, lift) in shapes.items():
        c = CircuitClassification(verdict)
        assert (c.in_frame, c.in_lift) == (frame, lift)
        assert c.cycles == () and c.chain == frozenset()
    assert classify_circuit(fixture("TIGHT"), range(6)).verdict is CircuitVerdict.TIGHT_HANDCUFF


def test_harary_bipartition_switched_is_the_union():
    bip = HararyBipartition((frozenset({1, 3}), frozenset(), frozenset({6})))
    assert bip.switched == frozenset({1, 3, 6})
    assert harary_bipartition(fixture("N2")).switched == frozenset({1})


def test_block_is_cycle():
    assert Block(frozenset({0, 1, 2}), frozenset({0, 1, 2}), False, True, 0).is_cycle
    assert not Block(frozenset({0}), frozenset({0, 1}), True, False, 0).is_cycle  # a bridge
    assert not Block(frozenset(), frozenset({0}), True, False, 0).is_cycle  # an isolated vertex
    assert Block(frozenset({0}), frozenset({0}), False, False, 0).is_cycle  # a loop


def test_walk_len_counts_steps_and_edge_ids_lists_them():
    w = Walk(3, ((3, True), (0, True), (1, False)))
    assert len(w) == 3 and w.edge_ids() == [3, 0, 1]
    assert len(Walk(0, ())) == 0 and Walk(0, ()).edge_ids() == []
    moved = w._replace(steps=((2, True),))
    assert len(moved) == 1 and moved.start == 3
    assert len(pickle.loads(pickle.dumps(w))) == 3
    start, steps = w  # the two fields unpack, whatever len says
    assert (start, steps) == (3, w.steps)


def test_hypercyclic_defaults():
    verdict = HypercyclicVerdict(HypercyclicKind.NOT_HYPERCYCLIC)
    assert verdict.cycle is None
    assert verdict.arm_from_start == verdict.arm_from_end == verdict.shared_segment == frozenset()
