"""Manipulable multi-agent argumentation.

Exact Dung-style semantics over attack graphs, epistemic agent models with
per-agent scopes and awareness, fact-prioritised attack reversal, public
announcement dynamics, deception/honesty detection, and trust revision,
plus a scenario file format and CLI to replay games deterministically.
"""

from .frames import AnnouncementEvent, ArgumentationFrame, combine, restrict
from .semantics import (
    ExtensionSet,
    SemanticsKind,
    semantics,
    sorted_extensions,
)
from .oracle import MAX_ORACLE_ARGS, oracle_semantics, random_frame
from .preferences import adjust, derive_inter
from .state import (
    VIEWS,
    MmaState,
    Violation,
    ViolationsError,
    adjusted_perceived,
    perceived,
    public_model,
    trust_adjusted_public_model,
    validate,
    view,
)
from .dynamics import (
    AnnouncementError,
    TrustPolicy,
    Verdict,
    announce,
    check_announcement,
    step,
    update,
)
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    Trace,
    TraceStep,
    bundled_scenarios,
    dumps_scenario,
    dumps_trace,
    fixture_path,
    load_scenario,
    parse_scenario,
    query,
    run,
    state_at,
)
from .export import export_graph

__version__ = "0.1.0"
