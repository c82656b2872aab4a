"""Interaction semantics of flat and hierarchical connectors.

A connector is a tree whose leaves carry port instances and whose nodes are
typed synchron or trigger.  A node's interactions combine one interaction
from each chosen child: if every child is a synchron, all children must be
chosen; otherwise any non-empty subset of children containing at least one
trigger may form an interaction.

A flat connector, such as a diagram motif forms, is the tree with one leaf
per end (:func:`motif_connector_interactions`).  The engine never expands a
connector: it takes the allowed set as orbits (``diagram.diagram_orbits``),
and this tree is their specification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import LogicDomainError
from .model import Connector, Interaction, PortInstance, SYNCHRON, TRIGGER


@dataclass(frozen=True)
class ConnectorNode:
    typing: str
    port: Optional[PortInstance] = None
    children: tuple["ConnectorNode", ...] = ()

    def __post_init__(self):
        if (self.port is None) == (not self.children):
            raise ValueError("a node is either a leaf with a port or an inner node with children")
        if self.typing not in (SYNCHRON, TRIGGER):
            raise ValueError(f"unknown typing {self.typing!r}")

    @property
    def is_leaf(self) -> bool:
        return self.port is not None

    def leaves(self) -> list[PortInstance]:
        if self.is_leaf:
            return [self.port]
        return [p for child in self.children for p in child.leaves()]


def leaf(port: PortInstance, typing: str = SYNCHRON) -> ConnectorNode:
    return ConnectorNode(typing=typing, port=port)


def inner(typing: str, children: Sequence[ConnectorNode]) -> ConnectorNode:
    return ConnectorNode(typing=typing, children=tuple(children))


def _combine(children: Sequence[ConnectorNode]) -> frozenset[Interaction]:
    """Interactions formed from one sub-interaction of each chosen child."""
    child_sets = [_node_interactions(c) for c in children]
    triggers = [i for i, c in enumerate(children) if c.typing == TRIGGER]

    if not triggers:
        choices = [tuple(range(len(children)))]
    else:
        choices = [
            subset
            for size in range(1, len(children) + 1)
            for subset in itertools.combinations(range(len(children)), size)
            if any(i in triggers for i in subset)
        ]

    result: set[Interaction] = set()
    for subset in choices:
        for parts in itertools.product(*(child_sets[i] for i in subset)):
            result.add(frozenset().union(*parts))
    return frozenset(result)


def _node_interactions(node: ConnectorNode) -> frozenset[Interaction]:
    if node.is_leaf:
        return frozenset({frozenset({node.port})})
    return _combine(node.children)


def interaction_set(children: Sequence[ConnectorNode]) -> frozenset[Interaction]:
    """All interactions of the connector whose top-level arms are ``children``.

    The root itself carries no typing; only the arms do.  Raises
    LogicDomainError when two leaves carry the same port instance.
    """
    if not children:
        raise ValueError("a connector needs at least one child")
    seen: set[PortInstance] = set()
    for child in children:
        for port in child.leaves():
            if port in seen:
                raise LogicDomainError(f"duplicate port instance {port} in connector")
            seen.add(port)
    return _combine(children)


def motif_connector_interactions(connector: Connector) -> frozenset[Interaction]:
    """Interactions of a flat connector produced by a diagram motif: the tree
    with one leaf per end."""
    return interaction_set([leaf(port, typing) for port, typing in sorted(connector.ends)])
