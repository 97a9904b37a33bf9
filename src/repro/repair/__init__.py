"""Provenance-guided rollback planning (docs/repair.md).

This package closes the loop from *diagnosis* to *repair*.  It sits on
top of — and is deliberately distinct from — the condition-repair
machinery in :mod:`repro.core.repair`:

- **Condition repair** (``core/repair.py``) is *value synthesis*: given
  a rule condition that fails under the bad-side binding, compute a
  changed field value that makes it hold (widen a prefix, invert an
  arithmetic computation).  It answers "what should this tuple say
  instead?" and runs *inside* the DiffProv loop, producing the change
  set Δ(B→G).

- **Rollback planning** (this package) is *plan selection and
  verification*: given the finished diagnosis — its root-cause tuples
  and the synthesized values — decide *which* base tuples/config
  entries to revert, to what, and verify each candidate plan
  counterfactually by replaying the bad execution with the plan
  applied.  A plan survives only if the bad symptom disappears **and**
  a regression suite of good probes still holds; survivors are ranked
  by edit size and blast radius.

The entry points an operator actually uses live one layer up:
``Session.repair()`` / ``Session.diagnose(repair=True)``, the CLI's
``diffprov repair`` / ``diffprov diagnose --repair``, the service
protocol's ``repair`` option, and the streaming monitor's ``repair``
flag.  All of them attach the planner's deterministic section as
``report.repair`` (part of ``canonical_dict()``: byte-identical across
replay-cache × crash-resume).
"""

from .planner import (
    MAX_LISTED_PROBES,
    MAX_PLANS,
    REJECT_PROBES,
    REJECT_REPLAY,
    REJECT_SYMPTOM,
    RollbackPlan,
    RollbackPlanner,
)
from .probes import alive_state, derived_alive_state, probe_suite

__all__ = [
    "RollbackPlan",
    "RollbackPlanner",
    "MAX_PLANS",
    "MAX_LISTED_PROBES",
    "REJECT_SYMPTOM",
    "REJECT_PROBES",
    "REJECT_REPLAY",
    "alive_state",
    "derived_alive_state",
    "probe_suite",
]
