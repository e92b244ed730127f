"""Manipulable multi-agent argumentation.

Exact Dung-style semantics over attack graphs, epistemic agent models with
per-agent scopes and awareness, fact-prioritised attack reversal, public
announcement dynamics, deception/honesty detection, and trust revision,
plus a scenario file format and CLI to replay games deterministically.
"""

from .frames import (
    DUNG,
    EMPTY_FRAME,
    INTERSECTION,
    PRE_DUNG,
    UNION,
    ArgumentationFrame,
    combine,
    restrict,
)
from .semantics import (
    CREDULOUS,
    SKEPTICAL,
    ExtensionSet,
    SemanticsKind,
    acceptance,
    complete_sets,
    defends,
    grounded_set,
    is_conflict_free,
    preferred_sets,
    semantics,
    sorted_extensions,
)
from .oracle import MAX_ORACLE_ARGS, oracle_semantics, random_frame
from .preferences import (
    InterPreference,
    IntraPreference,
    adjust,
    derive_inter,
)
from .state import (
    VIEWS,
    MmaState,
    Violation,
    adjusted_perceived,
    perceived,
    public_model,
    trust_adjusted_public_model,
    trust_adjusted_public_semantics,
    trust_neutral_local_semantics,
    trust_neutral_public_semantics,
    validate,
    view,
)
from .dynamics import (
    AnnouncementError,
    AnnouncementEvent,
    TrustPolicy,
    Verdict,
    announce,
    check_announcement,
    detect,
    restrict_extensions,
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
from .export import export_graph, to_dot

__version__ = "0.1.0"
