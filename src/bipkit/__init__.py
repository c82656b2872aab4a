"""bipkit: parse, check, encode, and execute parameterized BIP coordination models."""

from importlib import resources

from .connector import (
    ConnectorNode,
    inner,
    interaction_set,
    leaf,
    motif_connector_interactions,
)
from .diagram import (
    Binding,
    EncodabilityReport,
    EnumerationResult,
    check_encodable,
    diagram_interactions,
    diagram_orbits,
    enumerate_configurations,
    enumerate_diagram_configurations,
    proposition_sweep,
    unique_configuration,
)
from .dsl import ParseError, ParseFailure, load_model, parse_guard_expr, parse_model, serialize_model
from .encoder import (
    MacroSpec,
    emit_macros_text,
    emit_xml,
    encode_macros,
    export_behavior_json,
    parse_macros_xml,
)
from .engine import (
    EngineConfig,
    EventScript,
    ScriptEntry,
    SplitMix64,
    enabled_ports,
    init_state,
    replay_validate,
    run,
    trace_to_json,
)
from .errors import (
    BipError,
    CapacityError,
    EncodabilityError,
    LivelockError,
    LogicDomainError,
    MacroEncodingError,
    ScriptError,
)
from .logic import (
    AcceptRule,
    RequireOption,
    RequireRule,
    allowed_interactions,
    allowed_orbits,
    eval_pil,
    expand_accept,
    expand_require,
    instantiate_foil,
    satisfying_interactions,
)
from .model import (
    ArchitectureDiagram,
    CardExpr,
    ComponentType,
    Configuration,
    Connector,
    ConnectorMotif,
    Interaction,
    MotifEnd,
    Orbit,
    PortInstance,
    PortTypeRef,
    Transition,
    ValidationIssue,
    validate_behavior,
    validate_diagram,
    validate_model,
)

__version__ = "0.1.0"


def bundled_model_path(name: str):
    """Filesystem path of a bundled example model, e.g. ``star.bip``."""
    return resources.files(__name__) / "models" / name


def load_bundled_model(name: str):
    """Parse one of the example models shipped with the package."""
    return parse_model(bundled_model_path(name).read_text(encoding="utf-8"), filename=name)


def __getattr__(name: str):
    """``bipkit.spec``'s names, which no command runs: imported on first use."""
    if name == "conforms":
        from .spec import conforms

        return conforms
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
