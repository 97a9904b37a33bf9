"""Deterministic delta-driven evaluator for NDlog programs.

The engine processes a FIFO queue of base-tuple insertions/deletions and
derived-tuple appearances.  Each dequeued item advances a logical clock,
so every run of the same program over the same input sequence produces
the identical sequence of events — the determinism assumption that both
deterministic replay (Section 5) and DiffProv's roll-back/roll-forward
reasoning (Section 2.6) rest on.

A recorder (see :mod:`repro.provenance.recorder`) can be attached to
observe INSERT/DELETE/APPEAR/DISAPPEAR/DERIVE/UNDERIVE events as they
happen; the engine itself keeps no provenance.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple as PyTuple

from ..errors import EvaluationError, SchemaError, StepLimitExceeded
from ..observability import active as _active_telemetry
from .aggregates import evaluate_aggregates
from .columnar import ColumnarStore
from .compiled import compile_rule
from .config import EngineConfig
from .expr import Const, Expr, Var
from .rules import Atom, Program, Rule
from .state import Derivation, Store, sort_key
from .trail import Trail
from .tuples import TableKind, Tuple, TupleStore

__all__ = ["Engine", "GLOBAL_NODE"]

GLOBAL_NODE = "_"

# Sentinel distinguishing "not compiled yet" from "not compilable".
_UNCOMPILED = object()


class Engine:
    """Evaluates an NDlog :class:`Program` over a stream of base events."""

    def __init__(
        self,
        program: Program,
        recorder=None,
        faults=None,
        step_limit: Optional[int] = None,
        telemetry=None,
        config: Optional[EngineConfig] = None,
    ):
        self.program = program
        self.recorder = recorder
        # Backend selection (see repro.datalog.config): "compiled" runs
        # per-rule closures over the indexed ColumnarStore; "reference"
        # is the interpreted linear-scan join over the plain Store, the
        # oracle that *proves* the fast path changes cost, not results
        # (see tests/datalog/test_index_equivalence.py).
        self.config = EngineConfig.coerce(config)
        self._backend = self.config.backend
        # Optional FaultInjector applied to cross-node message delivery
        # (drop/duplicate/reorder/delay); None means perfect links.
        self.faults = faults
        # Optional Telemetry (repro.observability); None disables all
        # instrumentation at the cost of one attribute test per event.
        self.telemetry = _active_telemetry(telemetry)
        # Total events processed; with step_limit set, exceeding it
        # raises StepLimitExceeded (a runaway-replay guard).
        self.steps = 0
        self.step_limit = step_limit
        # Optional repro.resilience.Deadline checked every 64 steps;
        # expiry aborts the run with DeadlineExceeded.
        self.deadline = None
        self.store = (
            ColumnarStore(program.schemas)
            if self._backend == "compiled"
            else Store(program.schemas)
        )
        self._queue: deque = deque()
        # In-flight delayed messages: [remaining_steps, seq, item].
        self._delayed: List[list] = []
        self._delay_seq = 0
        self._clock = 0
        self._next_derivation_id = 1
        # Interning pool: every tuple entering the engine (base events
        # and rule heads) is collapsed to one canonical instance, so
        # join equality usually short-circuits on identity and hashes /
        # sort keys are computed once per distinct fact.
        self._tuples = TupleStore()
        # Compiled join closures (backend="compiled"), keyed by (rule
        # name, trigger index) — rule names are unique per program
        # (Program._validate).  Built lazily on first firing.  None
        # marks the one firing shape the compiler leaves to the
        # interpreter: a rule whose final settle would leave unbound
        # leftovers, so the EvaluationError is raised by one code path.
        self._compiled_plans: Dict[PyTuple[str, int], object] = {}
        # The undo trail of the open checkpoint, if any.
        self._trail: Optional[Trail] = None
        self._located_tables = self._find_located_tables()
        self._validate_event_usage()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # Telemetry holds wall clocks and open span stacks — strip it so
        # engine state can be snapshotted (replay cache); callers
        # reattach their own instance after restore.
        state = self.__dict__.copy()
        state["telemetry"] = None
        # Deadlines hold a live clock callable and belong to the run
        # that set them, not to the snapshot.
        state["deadline"] = None
        # The interning pool is a pure cache: dropping it keeps
        # snapshots small, and it repopulates on first use after a
        # restore.  Correctness never depends on two equal tuples being
        # the same object (pickle's memo already preserves identity
        # within one payload).
        state["_tuples"] = TupleStore()
        # Compiled closures capture store/telemetry access and are not
        # picklable; they rebuild on first firing.
        state["_compiled_plans"] = {}
        # A snapshot taken inside a checkpoint is a standalone state.
        state["_trail"] = None
        return state

    # -- checkpoint / rollback -----------------------------------------------

    def checkpoint(self) -> None:
        """Open an undo trail; :meth:`rollback` returns to this state.

        Covers the store, the (annotated, lossless) recorder and the
        engine's own counters and queues.  Rollback is exact from any
        later state, including mid-``run()`` — ``StepLimitExceeded``
        and ``DeadlineExceeded`` leave events queued.  One level only.
        """
        if self._trail is not None:
            raise EvaluationError("engine already has an open checkpoint")
        if self.faults is not None and not self.faults.plan.host_only():
            raise EvaluationError(
                "message-fault PRNG streams cannot be rolled back"
            )
        trail = Trail()
        if self.recorder is not None:
            self.recorder.checkpoint(trail)
        trail.attrs(self, "steps", "_clock", "_next_derivation_id",
                    "_delay_seq", "_queue", "_delayed")
        # The candidate works on copies; rollback puts the originals back.
        self._queue = deque(self._queue)
        self._delayed = [list(entry) for entry in self._delayed]
        if self.faults is not None:
            trail.attrs(self.faults, "counters")
            self.faults.counters = dict(self.faults.counters)
        self.store._trail = self._trail = trail

    @property
    def in_checkpoint(self) -> bool:
        return self._trail is not None

    def rollback(self) -> None:
        """Undo everything since :meth:`checkpoint`, newest first."""
        trail = self._trail
        if trail is None:
            raise EvaluationError("engine has no open checkpoint")
        # Detach first: the inverses run through the same mutators.
        self.store._trail = self._trail = None
        if self.recorder is not None:
            self.recorder.checkpoint(None)
        trail.undo()

    # -- public API ----------------------------------------------------------

    @property
    def now(self) -> int:
        return self._clock

    def node_of(self, tup: Tuple) -> str:
        """The node a tuple lives on (its location field, if located)."""
        if tup.table in self._located_tables and tup.args:
            return str(tup.args[0])
        return GLOBAL_NODE

    def insert(self, tup: Tuple, mutable: Optional[bool] = None) -> None:
        """Enqueue a base-tuple insertion (processed by :meth:`run`)."""
        self._check(tup)
        self._queue.append(("base_insert", self._tuples.intern(tup), mutable))

    def delete(self, tup: Tuple) -> None:
        """Enqueue a base-tuple deletion."""
        self._check(tup)
        self._queue.append(("base_delete", self._tuples.intern(tup)))

    def run(self) -> int:
        """Drain the queue to a fixpoint; returns events processed.

        Delayed messages age by one step per processed event.  When the
        queue empties while messages are still in flight, the soonest
        batch is forced out: a delay reorders delivery but can never
        lose a message, so ``run`` still reaches the same fixpoint set.
        """
        processed = 0
        while self._queue or self._delayed:
            if not self._queue:
                self._release_soonest_delayed()
                continue
            self._step()
            processed += 1
            if self._delayed:
                self._age_delayed()
        return processed

    def insert_and_run(self, tup: Tuple, mutable: Optional[bool] = None) -> int:
        self.insert(tup, mutable)
        return self.run()

    def fire_aggregates(self) -> int:
        """Evaluate aggregate rules once (barrier semantics) and run.

        Used by batch workloads (MapReduce) where aggregates are only
        meaningful after all contributions have arrived.  Returns the
        number of aggregate tuples derived.
        """
        derived = 0
        for rule, head, contributors, env in evaluate_aggregates(
            self.program, self.store
        ):
            # The trigger is the contribution that appeared last — the
            # precondition that would have completed the aggregate.
            trigger_index = max(
                range(len(contributors)),
                key=lambda i: (self._appear_time(contributors[i]), -i),
            )
            derivation = self._make_derivation(
                rule, head, contributors, env, trigger_index=trigger_index
            )
            self._record_derive(derivation)
            self._queue.append(("derived", derivation))
            derived += 1
        self.run()
        return derived

    def lookup(self, table: str) -> List[Tuple]:
        """Live tuples of a state table, deterministically ordered."""
        return self.store.tuples(table)

    def _appear_time(self, tup: Tuple) -> int:
        record = self.store.record(tup)
        if record is None or record.appear_time is None:
            return -1
        return record.appear_time

    def exists(self, tup: Tuple) -> bool:
        return self.store.alive(tup)

    # -- queue processing ------------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _step(self) -> None:
        self.steps += 1
        if self.telemetry is not None:
            self.telemetry.inc("engine.steps")
            # Depth includes the event being processed this step.
            self.telemetry.set_max(
                "engine.queue_depth_max", len(self._queue) + 1
            )
        if self.deadline is not None and (self.steps & 63) == 0:
            # Cheap cadence: one clock read per 64 events keeps the
            # deadline responsive without taxing the hot loop.
            self.deadline.check("engine.run")
        if self.step_limit is not None and self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"engine exceeded its step budget of {self.step_limit} "
                f"events; the replayed system appears to diverge (e.g. a "
                f"forwarding loop introduced by a candidate change)"
            )
        item = self._queue.popleft()
        kind = item[0]
        if kind == "base_insert":
            self._process_base_insert(item[1], item[2])
        elif kind == "base_delete":
            self._process_base_delete(item[1])
        elif kind == "derived":
            self._process_derived(item[1])
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unknown queue item {kind!r}")

    def _process_base_insert(self, tup: Tuple, mutable: Optional[bool]) -> None:
        time = self._tick()
        node = self.node_of(tup)
        schema = self.program.schema(tup.table)
        if self.recorder is not None:
            effective = mutable if mutable is not None else schema.mutable
            self.recorder.on_insert(node, tup, time, effective)
        if schema.kind == TableKind.EVENT:
            if self.recorder is not None:
                self.recorder.on_appear(node, tup, time, ("insert", None))
            self._fire_rules(tup, time)
            return
        appeared = self.store.add_base_support(tup, time, mutable)
        if appeared:
            if self.recorder is not None:
                self.recorder.on_appear(node, tup, time, ("insert", None))
            self._fire_rules(tup, time)

    def _process_base_delete(self, tup: Tuple) -> None:
        time = self._tick()
        node = self.node_of(tup)
        schema = self.program.schema(tup.table)
        if schema.kind == TableKind.EVENT:
            raise SchemaError(f"cannot delete event tuple {tup}")
        if self.recorder is not None:
            self.recorder.on_delete(node, tup, time)
        disappeared = self.store.remove_base_support(tup)
        if disappeared:
            if self.recorder is not None:
                self.recorder.on_disappear(node, tup, time, ("delete", None))
            self._cascade_disappear(tup)

    def _process_derived(self, derivation: Derivation) -> None:
        time = self._tick()
        head = derivation.head
        node = self.node_of(head)
        schema = self.program.schema(head.table)
        if schema.kind == TableKind.EVENT:
            if self.recorder is not None:
                self.recorder.on_appear(node, head, time, ("derive", derivation))
            self._fire_rules(head, time)
            return
        appeared = self.store.add_derivation(derivation, time)
        if appeared:
            if self.recorder is not None:
                self.recorder.on_appear(node, head, time, ("derive", derivation))
            self._fire_rules(head, time)

    def _cascade_disappear(self, tup: Tuple) -> None:
        """Underive everything that depended on a vanished tuple."""
        worklist = deque([tup])
        while worklist:
            gone = worklist.popleft()
            for derivation_id in sorted(self.store.dependents_of(gone)):
                derivation = self.store.derivations[derivation_id]
                time = self._tick()
                head = derivation.head
                node = self.node_of(head)
                disappeared = self.store.remove_derivation(derivation_id)
                if self.recorder is not None:
                    self.recorder.on_underive(
                        self.node_of(derivation.trigger), derivation, time
                    )
                if disappeared:
                    if self.recorder is not None:
                        self.recorder.on_disappear(
                            node, head, time, ("underive", derivation)
                        )
                    worklist.append(head)

    # -- rule firing -------------------------------------------------------------

    def _fire_rules(self, delta: Tuple, time: int) -> None:
        telemetry = self.telemetry
        # program.triggers is a dispatch index: only the (rule, body
        # position) pairs that can actually consume this delta are
        # visited, in the same order the old full-rule scan produced.
        for rule, trigger_index in self.program.triggers(delta.table):
            for env, body in self._bindings_for(rule, trigger_index, delta):
                if telemetry is not None:
                    telemetry.inc("engine.rule_firings." + rule.name)
                head = self._evaluate_head(rule.head, env)
                derivation = self._make_derivation(
                    rule, head, body, env, trigger_index, time
                )
                self._record_derive(derivation)
                self._emit(derivation)

    def _emit(self, derivation: Derivation) -> None:
        """Enqueue a derived delta, subjecting cross-node hops to faults.

        A derivation whose head lives on a different node than its
        trigger models a network message (Section 2.2); only those are
        eligible for drop/duplicate/reorder/delay.  Local derivations
        and global (unlocated) tuples always go straight to the queue.
        """
        item = ("derived", derivation)
        telemetry = self.telemetry
        if self.faults is None and telemetry is None:
            self._queue.append(item)
            return
        src = self.node_of(derivation.trigger)
        dst = self.node_of(derivation.head)
        if src == dst or GLOBAL_NODE in (src, dst):
            self._queue.append(item)
            return
        if telemetry is not None:
            telemetry.inc("engine.messages.sent")
        if self.faults is None:
            self._queue.append(item)
            return
        actions = self.faults.message_actions(src, dst)
        if telemetry is not None:
            if not actions:
                telemetry.inc("engine.messages.dropped")
            if len(actions) > 1:
                telemetry.inc("engine.messages.duplicated", len(actions) - 1)
            delayed = sum(1 for delay in actions if delay > 0)
            if delayed:
                telemetry.inc("engine.messages.delayed", delayed)
        for delay in actions:
            if delay <= 0:
                self._queue.append(item)
            else:
                self._delay_seq += 1
                self._delayed.append([delay, self._delay_seq, item])

    def _age_delayed(self) -> None:
        ready = []
        for entry in self._delayed:
            entry[0] -= 1
            if entry[0] <= 0:
                ready.append(entry)
        if ready:
            for entry in ready:
                self._delayed.remove(entry)
            ready.sort(key=lambda entry: entry[1])
            for _, _, item in ready:
                self._queue.append(item)

    def _release_soonest_delayed(self) -> None:
        soonest = min(entry[0] for entry in self._delayed)
        ready = [entry for entry in self._delayed if entry[0] == soonest]
        for entry in ready:
            self._delayed.remove(entry)
        ready.sort(key=lambda entry: entry[1])
        for _, _, item in ready:
            self._queue.append(item)

    def _make_derivation(
        self,
        rule: Rule,
        head: Tuple,
        body: Iterable[Tuple],
        env: Dict[str, object],
        trigger_index: int,
        time: Optional[int] = None,
    ) -> Derivation:
        revocable = all(
            self.program.schema(atom.table).kind == TableKind.STATE
            for atom in rule.body
        ) and not rule.is_aggregate
        derivation = Derivation(
            self._next_derivation_id,
            rule.name,
            self._tuples.intern(head),
            tuple(body),
            env,
            trigger_index,
            time if time is not None else self._clock,
            revocable,
        )
        self._next_derivation_id += 1
        return derivation

    def _record_derive(self, derivation: Derivation) -> None:
        if self.recorder is not None:
            node = self.node_of(derivation.trigger)
            self.recorder.on_derive(node, derivation, derivation.time)

    def _evaluate_head(self, head: Atom, env: Dict[str, object]) -> Tuple:
        args = [arg.evaluate(env) for arg in head.args]
        return self._tuples.make(head.table, args)

    # -- join machinery ----------------------------------------------------------

    def _bindings_for(
        self, rule: Rule, trigger_index: int, delta: Tuple
    ) -> Iterator[PyTuple[Dict[str, object], PyTuple]]:
        """Backend dispatch: compiled closure, else the reference join.
        Both yield byte-identical bindings."""
        if self._backend == "compiled":
            key = (rule.name, trigger_index)
            plan = self._compiled_plans.get(key, _UNCOMPILED)
            if plan is _UNCOMPILED:
                plan = compile_rule(self, rule, trigger_index)
                self._compiled_plans[key] = plan
            if plan is not None:
                return plan.bindings(self, delta)
        return self._bindings(rule, trigger_index, delta)

    def _bindings(
        self, rule: Rule, trigger_index: int, delta: Tuple
    ) -> Iterator[PyTuple[Dict[str, object], PyTuple]]:
        """All complete bindings of ``rule`` with ``delta`` at the trigger.

        The reference join: every non-trigger atom is a linear scan of
        its table.  Yields ``(env, body_tuples)`` pairs in deterministic
        order; body tuples are ordered to match ``rule.body``.
        """
        env: Dict[str, object] = {}
        if not _match_atom(rule.body[trigger_index], delta, env):
            return
        pending_assigns = list(rule.assignments)
        pending_conds = list(rule.conditions)
        if not self._settle(env, pending_assigns, pending_conds):
            return
        remaining = [i for i in range(len(rule.body)) if i != trigger_index]
        slots: List[Optional[Tuple]] = [None] * len(rule.body)
        slots[trigger_index] = delta
        yield from self._extend(
            rule, remaining, slots, env, pending_assigns, pending_conds
        )

    def _extend(self, rule, remaining, slots, env, assigns, conds):
        if not remaining:
            if assigns or conds:
                env = dict(env)
                if not self._settle(env, list(assigns), list(conds), final=True):
                    return
            yield env, tuple(slots)
            return
        index = remaining[0]
        candidates = self._candidates(rule.body[index], env, assigns, conds)
        for candidate, new_env, new_assigns, new_conds in candidates:
            slots[index] = candidate
            yield from self._extend(
                rule, remaining[1:], slots, new_env, new_assigns, new_conds
            )
            slots[index] = None

    def _candidates(self, atom: Atom, env, assigns, conds):
        """Matching stored tuples for a body atom, selector applied.

        Each yielded element carries the extended environment and the
        not-yet-consumed assignments/conditions.
        """
        matched = []
        for candidate in self.store.tuples(atom.table):
            new_env = dict(env)
            if not _match_atom(atom, candidate, new_env):
                continue
            new_assigns = list(assigns)
            new_conds = list(conds)
            if not self._settle(new_env, new_assigns, new_conds):
                continue
            matched.append((candidate, new_env, new_assigns, new_conds))
        if atom.selector is None or not matched:
            return matched
        # argmax selection: keep the single best candidate.  Key
        # expressions may reference any bound variable; ties are broken
        # by the candidate tuple's own order for determinism.
        def selector_key(entry):
            candidate, new_env, _, _ = entry
            keys = tuple(key.evaluate(new_env) for key in atom.selector.keys)
            return (keys, sort_key(candidate))

        best = max(matched, key=selector_key)
        return [best]

    def _settle(self, env, assigns, conds, final: bool = False) -> bool:
        """Evaluate assignments/conditions whose variables are bound.

        Mutates ``env``, ``assigns`` and ``conds`` in place; returns
        False as soon as a condition fails.  With ``final=True`` it is
        an error for anything to remain unbound.
        """
        progress = True
        while progress:
            progress = False
            for assignment in list(assigns):
                if assignment.expr.variables() <= env.keys():
                    value = assignment.expr.evaluate(env)
                    if assignment.var in env:
                        if env[assignment.var] != value:
                            return False
                    else:
                        env[assignment.var] = value
                    assigns.remove(assignment)
                    progress = True
            for condition in list(conds):
                if condition.variables() <= env.keys():
                    try:
                        ok = condition.holds(env)
                    except EvaluationError:
                        ok = False
                    if not ok:
                        return False
                    conds.remove(condition)
                    progress = True
        if final and (assigns or conds):
            raise EvaluationError(
                f"unbound variables remain in {assigns or conds}"
            )
        return True

    # -- validation -----------------------------------------------------------

    def _check(self, tup: Tuple) -> None:
        schema = self.program.schemas.get(tup.table)
        if schema is None:
            raise SchemaError(f"unknown table {tup.table!r}")
        if tup.arity != schema.arity:
            raise SchemaError(
                f"tuple {tup} has arity {tup.arity}, expected {schema.arity}"
            )

    def _find_located_tables(self) -> frozenset:
        located = set()
        for rule in self.program.rules:
            for atom in (rule.head, *rule.body):
                if atom.location is not None:
                    located.add(atom.table)
        return frozenset(located)

    def _validate_event_usage(self) -> None:
        for rule in self.program.rules:
            event_atoms = [
                atom
                for atom in rule.body
                if self.program.schema(atom.table).kind == TableKind.EVENT
            ]
            if len(event_atoms) > 1:
                raise SchemaError(
                    f"rule {rule.name!r} joins two event tables "
                    f"({', '.join(a.table for a in event_atoms)}); event "
                    f"tuples are transient and cannot be joined"
                )
            if rule.is_aggregate and event_atoms:
                raise SchemaError(
                    f"aggregate rule {rule.name!r} cannot read event tables"
                )


def _match_atom(atom: Atom, tup: Tuple, env: Dict[str, object]) -> bool:
    """Match a body atom against a concrete tuple, extending ``env``."""
    if atom.table != tup.table or atom.arity != tup.arity:
        return False
    for arg, value in zip(atom.args, tup.args):
        if isinstance(arg, Var):
            bound = env.get(arg.name, _UNSET)
            if bound is _UNSET:
                env[arg.name] = value
            elif bound != value:
                return False
        elif isinstance(arg, Const):
            if arg.value != value:
                return False
        elif isinstance(arg, Expr):
            free = arg.variables() - env.keys()
            if free:
                return False
            if arg.evaluate(env) != value:
                return False
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"bad body atom argument {arg!r}")
    return True


class _Unset:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover
        return "<unset>"


_UNSET = _Unset()

# Public alias: the matching primitive is also used by DiffProv when it
# searches the bad execution for competitor/blocker tuples.
match_atom = _match_atom
