"""repro — a reproduction of "The Good, the Bad, and the Differences:
Better Network Diagnostics with Differential Provenance" (SIGCOMM 2016).

The package layers, bottom to top:

- :mod:`repro.datalog` — an NDlog engine (the RapidNet stand-in);
- :mod:`repro.provenance` — the temporal provenance graph, recorders
  for inferred / reported / external-specification modes, and the
  naive tree-diff baselines;
- :mod:`repro.replay` — base-event logging, deterministic replay,
  checkpoint/rollback forking of candidate replays;
- :mod:`repro.observability` — the metrics registry and span-tree
  tracing threaded through all of the above (docs/observability.md);
- :mod:`repro.core` — the DiffProv algorithm itself;
- :mod:`repro.sdn`, :mod:`repro.mapreduce` — the two evaluation
  substrates (declarative OpenFlow model + black-box emulator, and the
  instrumented WordCount runtime);
- :mod:`repro.scenarios` — the paper's diagnostic scenarios;
- :mod:`repro.survey` — the Section 2.4 Outages survey.

The stable programmatic entry point is :class:`repro.api.Session`
(re-exported here), which fronts all of the above.  Quickstart::

    from repro import Session

    session = Session(scenario="SDN1", minimize=True)
    print(session.diagnose().summary())

    # or with your own program and executions:
    session = Session(program=program, good=execution, bad=execution,
                      good_event=good, bad_event=bad)
    report = session.diagnose()

The algorithm classes live in their canonical submodule
(``from repro.core import DiffProv, DiffProvOptions``).
"""

from .addresses import IPv4Address, Prefix, ip, prefix
from .core import DiagnosisReport
from .datalog import (
    Engine,
    EngineConfig,
    Tuple,
    parse_program,
    parse_rule,
    parse_tuple,
)
from .errors import (
    DegradedResultWarning,
    DiagnosisFailure,
    FaultError,
    FaultSpecError,
    ImmutableChangeRequired,
    NodeUnreachableError,
    NonInvertibleError,
    ParseError,
    ReproError,
    SeedTypeMismatch,
    StepLimitExceeded,
)
from .faults import FaultInjector, FaultPlan
from .observability import (
    ManualClock,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    Tracer,
)
from .provenance import (
    ProvenanceGraph,
    ProvenanceRecorder,
    ProvenanceTree,
    naive_diff,
    provenance_query,
    tree_edit_distance,
)
from .repair import RollbackPlan, RollbackPlanner
from .replay import Change, EventLog, Execution, ReplayCache
from .api import Session

__version__ = "1.0.0"

__all__ = [
    "Session",
    "IPv4Address",
    "Prefix",
    "ip",
    "prefix",
    "DiagnosisReport",
    "Engine",
    "EngineConfig",
    "Tuple",
    "parse_program",
    "parse_rule",
    "parse_tuple",
    "ReproError",
    "ParseError",
    "DiagnosisFailure",
    "SeedTypeMismatch",
    "ImmutableChangeRequired",
    "NonInvertibleError",
    "StepLimitExceeded",
    "FaultError",
    "FaultSpecError",
    "NodeUnreachableError",
    "DegradedResultWarning",
    "FaultPlan",
    "FaultInjector",
    "Telemetry",
    "NullTelemetry",
    "ManualClock",
    "MetricsRegistry",
    "Tracer",
    "ProvenanceGraph",
    "ProvenanceRecorder",
    "ProvenanceTree",
    "provenance_query",
    "naive_diff",
    "tree_edit_distance",
    "RollbackPlan",
    "RollbackPlanner",
    "Change",
    "EventLog",
    "Execution",
    "ReplayCache",
    "__version__",
]
