"""Good-behaviour probe suites for rollback verification.

A rollback plan must clear the bad symptom *without breaking anything
that worked*.  The regression evidence used here is the engine's state
tables: every **derived** state tuple (a delivered packet, a computed
forwarding decision, a reduce output) that is alive both in the
unmodified bad replay and in the *reference* replay (the bad log with
the full diagnosis Δ applied) demonstrably (a) held before the
rollback and (b) is compatible with the intended fix.  A candidate
plan that makes one of them disappear breaks good behaviour and is
vetoed.

Event tables are excluded on purpose: events are instants, not state,
and their terminal effects (e.g. ``delivered``) are state tuples
anyway.  Base tuples are excluded from the *probe* suite — they are
the plan's inputs, not its observable behaviour — but they do count
toward the blast radius (:func:`alive_state` includes them), so a plan
that leaves stale configuration behind ranks below one that doesn't.
"""

from __future__ import annotations

from typing import FrozenSet, List

from ..datalog.tuples import TableKind, Tuple

__all__ = [
    "state_tables",
    "alive_state",
    "derived_alive_state",
    "probe_suite",
    "is_base",
    "Baseline",
]


def state_tables(program) -> List[str]:
    """Names of the program's non-event tables, sorted (deterministic)."""
    return sorted(
        name
        for name, schema in program.schemas.items()
        if schema.kind != TableKind.EVENT
    )


def is_base(store, tup: Tuple) -> bool:
    """Whether ``store`` holds ``tup`` as a base tuple."""
    record = store.record(tup)
    return record is not None and record.is_base


def _graph_state(result, program):
    """Live state tuples of a ``base_only`` store's graph, else ``None``.

    An emulated result's store views the data-plane configuration only
    (and can ``delta`` itself against another view in O(changed
    entries)); what the traffic derived lives in the graph, O(traffic).
    """
    if not result.store.base_only:
        return None
    tables = set(state_tables(program))
    return [t for t in result.graph.live_tuples() if t.table in tables]


def alive_state(result, program) -> FrozenSet[Tuple]:
    """Every live state tuple of a replayed world, base and derived.

    This is the *definition* of the final-state footprint: the
    symmetric difference of two footprints counts how far apart two
    post-fix worlds ended up.  The planner works on
    :meth:`Baseline.delta`, which falls back to it on engine stores;
    the tests use it as their oracle.
    """
    store = result.store
    alive = set(_graph_state(result, program) or ())
    for table in state_tables(program):
        alive.update(store.tuples(table))
    return frozenset(alive)


def derived_alive_state(result, program) -> FrozenSet[Tuple]:
    """Live *derived* state tuples only — the observable behaviour."""
    store = result.store
    live = _graph_state(result, program)
    if live is None:
        live = alive_state(result, program)
    return frozenset(tup for tup in live if not is_base(store, tup))


def probe_suite(pristine, reference, program) -> FrozenSet[Tuple]:
    """The good probes: derived state alive in both worlds.

    ``pristine`` is the unmodified bad replay, ``reference`` the replay
    with the full diagnosis Δ applied.  Intersecting the two excludes
    the symptom (gone in the reference) and anything the fix itself
    newly derives (absent pristine) — what remains is behaviour that
    held before the incident *and* survives the intended fix, i.e.
    exactly what no rollback plan may break.
    """
    return derived_alive_state(pristine, program) & derived_alive_state(
        reference, program
    )


class Baseline:
    """The pristine world P, reduced to what ``δ(R) = alive(R) △ P`` needs.

    Verification is exact on deltas alone: a probe (⊆ P) fails iff it is
    in δ(plan), and the blast radius is ``|δ(plan) △ δ(reference)|``.
    For engine results P is :func:`alive_state`, computed once per
    planner.  For emulated results it is the pristine configuration
    view (an O(switches) fork) plus the O(traffic) derived half, so
    nothing scans the configuration.  Holds tuples and that view only —
    never an engine, recorder or graph.
    """

    def __init__(self, pristine, program):
        self.program = program
        store = pristine.store
        self.config = store if store.base_only else None
        footprint = alive_state if self.config is None else derived_alive_state
        self.alive = footprint(pristine, program)

    def delta(self, result) -> FrozenSet[Tuple]:
        """``alive(result) △ P`` without materializing what they share."""
        if self.config is None:
            return alive_state(result, self.program) ^ self.alive
        derived = derived_alive_state(result, self.program) ^ self.alive
        return derived | result.store.delta(self.config)
