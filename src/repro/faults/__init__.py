"""Deterministic fault injection for the distributed provenance stack.

Two halves:

- :class:`FaultPlan` — a declarative, immutable description of fault
  rates and windows, parseable from a compact spec string.
- :class:`FaultInjector` — a seeded executor of a plan; every decision
  it makes is recorded, so the same ``(plan, purpose)`` pair replays
  the identical fault schedule byte-for-byte.

Hook points live in the layers themselves: the engine's cross-node
message delivery, the provenance recorder's event log, the emulated
network's links/switches, and the partitioned provenance store's remote
fetches.  A ``None`` injector (or a zero plan) is a guaranteed no-op.
"""

from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["FaultInjector", "FaultPlan"]
