"""Exception hierarchy shared across the toolchain."""

from __future__ import annotations


class BipError(Exception):
    """Base class for all bipkit errors."""


class LogicDomainError(BipError):
    """A formula referenced a port instance or variable outside its universe."""


class CapacityError(BipError):
    """An enumeration exceeded its configured search bound."""


class EncodabilityError(BipError):
    """The diagram does not define a unique conforming architecture."""


class MacroEncodingError(BipError):
    """The diagram cannot be turned into Require/Accept macros as written."""


class LivelockError(BipError):
    """An instance kept firing internal transitions past its per-cycle budget."""

    def __init__(self, instance: str):
        self.instance = instance
        super().__init__(f"internal-transition budget exhausted for {instance}")


class ScriptError(BipError):
    """An event script referenced an undeclared instance, event, or guard."""
