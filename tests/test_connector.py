"""Connector semantics: the golden interaction sets and counting laws."""

from __future__ import annotations

import itertools

import pytest

from bipkit.connector import inner, interaction_set, leaf, motif_connector_interactions
from bipkit.errors import LogicDomainError
from bipkit.model import Connector, SYNCHRON, TRIGGER
from helpers import pi, ports_only

S = pi("X", 1, "s")
R1 = pi("X", 1, "r1")
R2 = pi("X", 1, "r2")


def test_rendezvous():
    got = interaction_set([leaf(S), leaf(R1), leaf(R2)])
    assert ports_only(got) == {"r11 r21 s1"}


def test_broadcast():
    got = interaction_set([leaf(S, TRIGGER), leaf(R1), leaf(R2)])
    assert ports_only(got) == {"s1", "r11 s1", "r21 s1", "r11 r21 s1"}


def test_hierarchical_trigger_subconnector():
    got = interaction_set([leaf(S), inner(TRIGGER, [leaf(R1), leaf(R2)])])
    assert ports_only(got) == {"r11 r21", "r11 r21 s1"}


def test_hierarchical_trigger_sender():
    got = interaction_set([leaf(S, TRIGGER), inner(SYNCHRON, [leaf(R1), leaf(R2)])])
    assert ports_only(got) == {"s1", "r11 r21 s1"}


def test_hierarchical_nested_trigger():
    got = interaction_set(
        [leaf(S, TRIGGER), inner(SYNCHRON, [leaf(R1, TRIGGER), leaf(R2)])]
    )
    assert ports_only(got) == {"s1", "r11 s1", "r11 r21 s1"}


def test_fanin_connector_interactions():
    # One p synchron against two q triggers: six interactions, p never alone.
    connector = Connector.of(
        (pi("T1", 1, "p"), SYNCHRON),
        (pi("T2", 1, "q"), TRIGGER),
        (pi("T2", 2, "q"), TRIGGER),
    )
    got = motif_connector_interactions(connector)
    assert ports_only(got) == {"q1", "q2", "q1 q2", "p1 q1", "p1 q2", "p1 q1 q2"}


def test_binary_rendezvous_and_singleton():
    assert ports_only(
        motif_connector_interactions(
            Connector.of((pi("A", 1, "p"), SYNCHRON), (pi("B", 1, "q"), SYNCHRON))
        )
    ) == {"p1 q1"}
    assert ports_only(
        motif_connector_interactions(Connector.of((pi("A", 1, "p"), TRIGGER)))
    ) == {"p1"}


def test_duplicate_leaf_rejected():
    message = "duplicate port instance X.s#1 in connector"
    with pytest.raises(LogicDomainError, match=message):
        interaction_set([leaf(S), leaf(S, TRIGGER)])
    with pytest.raises(LogicDomainError, match=message):
        interaction_set([leaf(S), leaf(R1), leaf(S, TRIGGER)])


def test_empty_connector_rejected():
    with pytest.raises(ValueError, match="at least one child"):
        interaction_set([])
    with pytest.raises(ValueError, match="at least one child"):
        motif_connector_interactions(Connector(frozenset()))


def test_unknown_typing_rejected():
    with pytest.raises(ValueError, match="unknown typing 'both'"):
        interaction_set([leaf(S), leaf(R1, "both")])
    with pytest.raises(ValueError, match="unknown typing 'both'"):
        motif_connector_interactions(Connector.of((S, SYNCHRON), (R1, "both")))


def flat(ports, typings):
    """The flat connector with one leaf per (port, typing)."""
    return interaction_set([leaf(p, typ) for p, typ in zip(ports, typings)])


def test_flat_count_formula():
    """k ports with t triggers: (2^t - 1) * 2^(k-t) interactions; 1 when t=0."""
    for k in range(1, 7):
        ports = [pi("X", i, "p") for i in range(1, k + 1)]
        for typings in itertools.product([SYNCHRON, TRIGGER], repeat=k):
            got = flat(ports, typings)
            t = sum(1 for typ in typings if typ == TRIGGER)
            expected = (2**t - 1) * 2 ** (k - t) if t else 1
            assert len(got) == expected, (k, typings)


def test_interactions_are_nonempty_subsets_of_leaves():
    for k in range(1, 6):
        ports = [pi("X", i, "p") for i in range(1, k + 1)]
        for typings in itertools.product([SYNCHRON, TRIGGER], repeat=k):
            for interaction in flat(ports, typings):
                assert interaction
                assert interaction <= set(ports)


def test_retyping_synchron_to_trigger_never_shrinks():
    for k in range(1, 6):
        ports = [pi("X", i, "p") for i in range(1, k + 1)]
        for typings in itertools.product([SYNCHRON, TRIGGER], repeat=k):
            base = flat(ports, typings)
            for j, typ in enumerate(typings):
                if typ == SYNCHRON:
                    retyped = list(typings)
                    retyped[j] = TRIGGER
                    wider = flat(ports, retyped)
                    assert base <= wider


def test_hierarchy_flattens_when_all_synchron():
    # an all-synchron tree denotes the same single interaction as its flat form
    tree = [leaf(S), inner(SYNCHRON, [leaf(R1), inner(SYNCHRON, [leaf(R2)])])]
    assert interaction_set(tree) == interaction_set([leaf(S), leaf(R1), leaf(R2)])
