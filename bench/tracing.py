"""Spans around bipkit's public functions, installed from outside the package.

While installed, every call of a traced function records one span: the id of
the operation it belongs to (one CLI command or one library call made by the
benchmark), its own id, the id of the span that was open when it was called,
its name, its start and end (``time.perf_counter`` seconds) and, for some
functions, a count measured at the call boundary.  Spans stay in memory until
the run writes them out.

Installing replaces every binding of a traced function inside the ``bipkit``
package (``cli`` imports some of them by name, ``engine`` others), so calls
the package makes internally are traced too.  Uninstalling restores the
originals, so untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import sys
import time

# Module of the bipkit package -> public functions that get a span.  The
# per-phase spans inside one engine cycle need tracing inside engine.py and
# are not recorded here.
TRACED = {
    "cli": ("main",),
    "dsl": ("parse_model",),
    "model": ("validate_model",),
    "diagram": (
        "check_encodable",
        "diagram_interactions",
        "unique_configuration",
        "enumerate_configurations",
        "proposition_sweep",
    ),
    "connector": ("motif_connector_interactions",),
    "encoder": ("encode_macros",),
    "logic": (
        "allowed_interactions",
        "expand_require",
        "expand_accept",
        "instantiate_foil",
        "satisfying_interactions",
    ),
    "engine": ("run", "init_state", "trace_to_json", "replay_validate", "EventScript.from_json"),
}

# Counts taken at a call boundary, from (positional args, keyword args, result).
COUNTS = {
    "diagram.diagram_interactions": lambda args, kwargs, result: len(result),
    "diagram.enumerate_configurations": lambda args, kwargs, result: len(result),
    "logic.allowed_interactions": lambda args, kwargs, result: len(result),
    "logic.satisfying_interactions": lambda args, kwargs, result: len(
        set(kwargs["universe"] if "universe" in kwargs else args[1])),
}

# Fields of one span record.
OP, ID, PARENT, NAME, START, END, COUNT = range(7)


class Tracer:
    """Records spans while installed; ``op`` is the current operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self.op, len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                record[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "bipkit"]
        for short, names in TRACED.items():
            module = sys.modules["bipkit." + short]
            for name in names:
                span_name = f"{short}.{name}"
                owner_name, _, method = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    print(f"tracing: bipkit.{span_name} is gone; no spans for it", file=sys.stderr)
                    continue
                if isinstance(original, classmethod):
                    self._saved.append((owner, method, original))
                    setattr(owner, method, classmethod(self._wrap(span_name, original.__func__)))
                    continue
                wrapper = self._wrap(span_name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    result = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            result[s[PARENT]] -= s[END] - s[START]
    return result


def outermost(spans: list[list], index: int) -> bool:
    """True when no enclosing span has the same name (no double counting)."""
    name, parent = spans[index][NAME], spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True
