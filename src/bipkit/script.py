"""Event scripts: the JSON file a run reads each cycle's guard updates and
spontaneous events from (docs/formats.md, "Event scripts").

:meth:`EventScript.from_json` checks a script's shape: a malformed one
raises ScriptError located by its JSON path.  :func:`_check_script` checks
that each item names an instance, guard and event of the model, once per run
or replay, before cycle 0, and :func:`_item_fault` words and locates the
first fault it finds.  :mod:`bipkit.engine` imports ``EventScript`` and
``ScriptEntry``, so they are reachable there too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, NoReturn, Optional

from .errors import ScriptError

if TYPE_CHECKING:  # annotations only: the engine imports this module
    from .engine import InstanceState, _Target
    from .model import ArchitectureDiagram


@dataclass(frozen=True)
class ScriptEntry:
    events: tuple[tuple[str, str], ...] = ()  # (instance id, event)
    guards: tuple[tuple[str, str, bool], ...] = ()  # (instance id, guard, value)


@dataclass(frozen=True)
class EventScript:
    entries: tuple[ScriptEntry, ...] = ()

    @classmethod
    def from_json(cls, text: str) -> "EventScript":
        """Parse a script; a malformed one raises ScriptError located by its
        JSON path, e.g. ``cycles[0].events[0]: missing "target"``."""
        data = json.loads(text)
        if not isinstance(data, dict) or _typed(data.get("schema")) != (int, 1):
            raise ScriptError('event scripts need a {"schema": 1, "cycles": [...]} object')
        cycles = data.get("cycles", [])
        if not isinstance(cycles, list):
            raise ScriptError("cycles: expected a list")
        return cls(entries=tuple(_well_formed_entry(raw) or _script_entry(raw, index)
                                 for index, raw in enumerate(cycles)))


# The fields of the objects a script cycle lists under each key, with their
# JSON types.
_SCRIPT_FIELDS = {
    "events": (("target", str), ("event", str)),
    "guards": (("target", str), ("guard", str), ("value", bool)),
}
_JSON_TYPE_NAMES = {str: "a string", bool: "true or false"}


def _well_formed_entry(raw) -> Optional[ScriptEntry]:
    """A script cycle checked by one comprehension per key, or None when
    some item fails a check: :func:`_script_entry` then locates it."""
    try:
        events, guards = raw.get("events", []), raw.get("guards", [])
        if type(events) is list and type(guards) is list:
            events = tuple([(item["target"], item["event"]) for item in events])
            guards = tuple([(item["target"], item["guard"], item["value"]) for item in guards])
            if (all([type(t) is str and type(e) is str for t, e in events])
                    and all([type(t) is str and type(g) is str and type(v) is bool
                             for t, g, v in guards])):
                return ScriptEntry(events, guards)
    except (AttributeError, KeyError, TypeError):  # not an object, or a missing field
        pass
    return None


def _script_entry(raw: dict, index: int) -> ScriptEntry:
    """Cycle ``index`` of a script, checked field by field against
    ``_SCRIPT_FIELDS``; the first problem raises ScriptError at its JSON path."""
    where = f"cycles[{index}]"
    if not isinstance(raw, dict):
        raise ScriptError(f"{where}: expected an object")
    parsed = {}
    for key, fields in _SCRIPT_FIELDS.items():
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise ScriptError(f"{where}.{key}: expected a list")
        rows = []
        for position, item in enumerate(items):
            if not isinstance(item, dict):
                raise ScriptError(f"{where}.{key}[{position}]: expected an object")
            row = []
            for name, kind in fields:
                if name not in item:
                    raise ScriptError(f'{where}.{key}[{position}]: missing "{name}"')
                value = item[name]
                if not isinstance(value, kind):
                    raise ScriptError(
                        f"{where}.{key}[{position}].{name}: expected "
                        f"{_JSON_TYPE_NAMES[kind]}, got {json.dumps(value)}"
                    )
                row.append(value)
            rows.append(tuple(row))
        parsed[key] = tuple(rows)
    return ScriptEntry(**parsed)


def _check_script(
    entries: tuple[ScriptEntry, ...], found: Mapping[str, _Target | InstanceState],
    resolve: Callable[[str], Optional[_Target | InstanceState]], d: ArchitectureDiagram
) -> None:
    """Check the script entries a run uses against the model, before cycle 0.

    A target's instance is looked up in ``found``.  At a target's first
    item ``resolve`` gives it, or None, and keeps it in ``found``, so each
    distinct target is resolved once and every later item costs one dict
    lookup.  An item whose target is no instance, or that names a guard or
    spontaneous event its instance's type does not declare, raises
    ScriptError located at its path in the script, e.g.
    ``cycles[2].events[0]: event targets unknown instance 'Route#9'``."""
    types = d.types_by_name
    for index, entry in enumerate(entries):
        for item in entry.guards:
            inst = found.get(item[0]) or resolve(item[0])
            if inst is None or item[1] not in types[inst.type_name].guards:
                _item_fault(index, "guards", entry.guards, item, inst is None)
        for item in entry.events:
            inst = found.get(item[0]) or resolve(item[0])
            if inst is None or item[1] not in types[inst.type_name].spontaneous_events:
                _item_fault(index, "events", entry.events, item, inst is None)


# What a fault under each key says targets, and what it says is declared.
_ITEM_WORDS = {"guards": ("guard update", "guard"), "events": ("event", "spontaneous event")}


def _item_fault(index: int, key: str, items: tuple, item: tuple, unknown: bool) -> NoReturn:
    """Raise the ScriptError of an item the model refuses: its target is no
    instance (``unknown``), or its type declares no such guard or event.
    The item's position is looked up only here: the first equal item is the
    one raising, since an earlier copy would have raised."""
    subject, declared = _ITEM_WORDS[key]
    problem = (f"{subject} targets unknown instance {item[0]!r}" if unknown
               else f"{item[0]} declares no {declared} {item[1]!r}")
    raise ScriptError(f"cycles[{index}].{key}[{items.index(item)}]: {problem}")


def _typed(value):
    """A JSON value that keeps each scalar's type: true and 1.0 are not 1."""
    return {k: _typed(v) for k, v in value.items()} if type(value) is dict else (type(value), value)
