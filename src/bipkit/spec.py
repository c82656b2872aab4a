"""Specifications that no command runs, loaded on first use.

:func:`conforms` states what a configuration of a diagram is, connector by
connector, with no search; the tests hold ``diagram.enumerate_configurations``
to it.  The package reads this module's names through a module
``__getattr__`` (``bipkit.conforms``), so the command line never imports it.
"""

from __future__ import annotations

from collections import Counter

from .diagram import Binding, _end_numbers, check_binding
from .model import ArchitectureDiagram, Configuration, PortInstance, PortTypeRef


def conforms(configuration: Configuration, d: ArchitectureDiagram, binding: Binding) -> bool:
    """Does the configuration satisfy every motif's multiplicity/typing and
    degree constraints under the binding, on instances numbered 1..n?"""
    check_binding(d, binding)
    groups = dict(configuration.groups)
    if groups.keys() - {m.name for m in d.motifs}:
        return False
    for motif in d.motifs:
        group = groups.get(motif.name)
        if not group:
            return False
        numbers = [(end, _end_numbers(d, end, binding)) for end in motif.ends]
        ends = {end.port: (n, end.typing) for end, (n, _, _) in numbers}
        for connector in group:
            by_ref: dict[PortTypeRef, int] = {}
            for pi, typing in connector.ends:
                ref = pi.type_ref
                n, end_typing = ends.get(ref, (0, None))
                if typing != end_typing or not 1 <= pi.index <= n:
                    return False
                by_ref[ref] = by_ref.get(ref, 0) + 1
            for end, (_, m, _) in numbers:
                if by_ref.get(end.port, 0) != m:
                    return False
        involved = Counter(pi for connector in group for pi, _ in connector.ends)
        for end, (n, _, deg) in numbers:
            for i in range(1, n + 1):
                if involved[PortInstance(end.port.component_type, i, end.port.port)] != deg:
                    return False
    return True
