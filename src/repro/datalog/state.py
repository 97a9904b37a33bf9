"""Tuple storage with support counting.

Derived tuples are kept alive by *supports*: a base insertion, or an
active derivation.  When the last support disappears, the tuple
disappears and the loss cascades to everything derived from it (the
paper models this as UNDERIVE/DISAPPEAR vertexes, Section 3.2).

Derivations triggered by *event* tuples (packets, job submissions) are
permanent: once a packet has caused a flow entry to be used, deleting
the flow entry later does not retroactively un-forward the packet.
Only derivations whose bodies consist entirely of state tuples are
revocable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple as PyTuple

from ..errors import SchemaError
from .tuples import TableSchema, Tuple

__all__ = [
    "Derivation",
    "TupleRecord",
    "Store",
    "flat_key",
    "order_key",
    "sort_key",
]


# Inside one piece of a flat key: NUL -> \x01\x01 and \x01 -> \x01\x02.
# The escapes sort in the characters' own order and contain no NUL, so
# NUL, which then sorts below every character of a piece, can separate
# the pieces without reordering anything.
_ESCAPES = str.maketrans({"\x00": "\x01\x01", "\x01": "\x01\x02"})


def flat_key(values, texts=None) -> str:
    """A deterministic total order over sequences of mixed value types.

    One string: each value's type name and ``str()``, escaped and
    joined with NUL.  Comparing two keys gives the order of the nested
    ``((type name, str), ...)`` tuples it flattens, and equal keys mean
    equal nested tuples, so every sort compares one string instead of
    walking pairs of pairs.  ``texts``, if given, are the values'
    ``str()`` already computed.
    """
    pieces = []
    for value, text in zip(values, texts or map(str, values)):
        pieces.append(type(value).__name__)
        pieces.append(text)
    key = "\x00".join(pieces)
    if "\x01" in key or key.count("\x00") != len(pieces) - 1:
        key = "\x00".join([piece.translate(_ESCAPES) for piece in pieces])
    return key


def order_key(tup: Tuple) -> str:
    """The deterministic order of tuples: :func:`flat_key` of the args."""
    return flat_key(tup.args)


def sort_key(tup: Tuple) -> str:
    """:func:`order_key`, cached on the tuple (tuples are immutable and
    usually interned), because candidate lists are re-sorted on every
    join.  A one-off sort uses :func:`order_key`: a cached key is a
    string about as long as the tuple's text, kept for as long as the
    tuple lives.
    """
    key = tup._sort_key
    if key is None:
        key = order_key(tup)
        object.__setattr__(tup, "_sort_key", key)
    return key


class Derivation:
    """One firing of a rule: the head, the body tuples, the binding."""

    __slots__ = (
        "id",
        "rule_name",
        "head",
        "body",
        "env",
        "trigger_index",
        "time",
        "revocable",
        "active",
    )

    def __init__(
        self,
        id: int,
        rule_name: str,
        head: Tuple,
        body: PyTuple,
        env: Dict[str, object],
        trigger_index: int,
        time: int,
        revocable: bool,
    ):
        self.id = id
        self.rule_name = rule_name
        self.head = head
        self.body = tuple(body)
        self.env = dict(env)
        self.trigger_index = trigger_index
        self.time = time
        self.revocable = revocable
        self.active = True

    @property
    def trigger(self) -> Tuple:
        return self.body[self.trigger_index]

    def __repr__(self):
        return (
            f"Derivation(#{self.id} {self.rule_name}: {self.head} :- "
            f"{', '.join(str(b) for b in self.body)} @t{self.time})"
        )


class TupleRecord:
    """Liveness bookkeeping for a stored tuple."""

    __slots__ = ("tuple", "base_supports", "mutable", "derivations", "appear_time")

    def __init__(self, tup: Tuple):
        self.tuple = tup
        self.base_supports = 0
        self.mutable: Optional[bool] = None
        self.derivations: Set[int] = set()
        self.appear_time: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.base_supports > 0 or bool(self.derivations)

    @property
    def is_base(self) -> bool:
        return self.base_supports > 0


class Store:
    """All live state tuples, grouped by table, plus derivation records.

    This is the reference evaluator's store: every query is a linear
    pass over a table's sorted live view.  The indexed subclass the
    compiled backend runs on is
    :class:`repro.datalog.columnar.ColumnarStore`.
    """

    # Derived state lives here too, not only in the provenance graph
    # (the store shape of repro.replay.substrate).
    base_only = False

    def __init__(self, schemas: Dict[str, TableSchema]):
        self.schemas = schemas
        self._tables: Dict[str, Dict[Tuple, TupleRecord]] = {
            name: {} for name in schemas
        }
        self.derivations: Dict[int, Derivation] = {}
        # Reverse index: body tuple -> ids of active revocable derivations
        # that depend on it.
        self._dependents: Dict[Tuple, Set[int]] = {}
        # A cached sorted live view per table, dropped whenever a tuple
        # of that table changes liveness.
        self._sorted_cache: Dict[str, List[Tuple]] = {}
        # The engine's undo trail while it has an open checkpoint
        # (repro.datalog.trail); every mutator below reports to it.
        self._trail = None

    def __getstate__(self):
        # Sorted views are pure caches over _tables; dropping them
        # keeps replay-cache snapshots small.  They are rebuilt lazily
        # on first use after a restore.
        state = self.__dict__.copy()
        state["_sorted_cache"] = {}
        state["_trail"] = None
        return state

    # -- queries -------------------------------------------------------------

    def record(self, tup: Tuple) -> Optional[TupleRecord]:
        table = self._tables.get(tup.table)
        if table is None:
            return None
        return table.get(tup)

    def alive(self, tup: Tuple) -> bool:
        record = self.record(tup)
        return record is not None and record.alive

    def tuples(self, table: str) -> List[Tuple]:
        """Live tuples of a table, in deterministic order (cached)."""
        cached = self._sorted_cache.get(table)
        if cached is None:
            records = self._tables.get(table)
            if records is None:
                raise SchemaError(f"unknown table {table!r}")
            cached = [rec.tuple for rec in records.values() if rec.alive]
            cached.sort(key=sort_key)
            self._sorted_cache[table] = cached
        # Callers may mutate their view; hand out a copy.
        return list(cached)

    def tuples_matching(self, table: str, position: int, value) -> List[Tuple]:
        """Live tuples of a table with ``args[position] == value``."""
        return self.tuples_matching_at(table, (position,), (value,))

    def tuples_matching_at(
        self, table: str, positions: PyTuple[int, ...], values: PyTuple
    ) -> List[Tuple]:
        """Live tuples with ``args[p] == v`` for each (p, v) pair, in
        the same deterministic order as :meth:`tuples`."""
        pairs = list(zip(positions, values))
        return [
            tup
            for tup in self.tuples(table)
            if all(p < tup.arity and tup.args[p] == v for p, v in pairs)
        ]

    def tuples_covering(self, table, location, position, address) -> None:
        """No prefix index: callers fall back to :meth:`tuples_matching`."""
        return None

    def _note_liveness_change(self, tup: Tuple, alive: bool) -> None:
        if self._trail is not None:
            self._trail.call(self._note_liveness_change, tup, not alive)
        self._sorted_cache.pop(tup.table, None)

    def all_tuples(self) -> List[Tuple]:
        result: List[Tuple] = []
        for name in sorted(self._tables):
            result.extend(self.tuples(name))
        return result

    def base_tuples(self) -> List[Tuple]:
        result: List[Tuple] = []
        for name in sorted(self._tables):
            result.extend(
                rec.tuple
                for rec in self._tables[name].values()
                if rec.alive and rec.is_base
            )
        result.sort(key=lambda t: (t.table, sort_key(t)))
        return result

    def is_mutable(self, tup: Tuple) -> bool:
        record = self.record(tup)
        if record is not None and record.mutable is not None:
            return record.mutable
        schema = self.schemas.get(tup.table)
        return schema.mutable if schema is not None else True

    def dependents_of(self, tup: Tuple) -> Set[int]:
        return set(self._dependents.get(tup, ()))

    # -- mutation ------------------------------------------------------------

    def add_base_support(
        self, tup: Tuple, time: int, mutable: Optional[bool]
    ) -> bool:
        """Add a base support; returns True if the tuple newly appeared."""
        record = self._record_for(tup)
        was_alive = record.alive
        if self._trail is not None:
            self._trail.attrs(record, "base_supports", "mutable", "appear_time")
        record.base_supports += 1
        if mutable is not None:
            record.mutable = mutable
        if not was_alive:
            record.appear_time = time
            self._note_liveness_change(tup, alive=True)
        return not was_alive

    def remove_base_support(self, tup: Tuple) -> bool:
        """Drop one base support; returns True if the tuple disappeared."""
        record = self.record(tup)
        if record is None or record.base_supports <= 0:
            return False
        if self._trail is not None:
            self._trail.attrs(record, "base_supports")
        record.base_supports -= 1
        if not record.alive:
            self._note_liveness_change(tup, alive=False)
            return True
        return False

    def add_derivation(self, derivation: Derivation, time: int) -> bool:
        """Register a derivation; returns True if the head newly appeared."""
        trail = self._trail
        record = self._record_for(derivation.head)
        was_alive = record.alive
        if trail is not None:
            trail.item(self.derivations, derivation.id)
            trail.attrs(record, "appear_time")
            trail.call(record.derivations.discard, derivation.id)
        self.derivations[derivation.id] = derivation
        record.derivations.add(derivation.id)
        if not was_alive:
            record.appear_time = time
            self._note_liveness_change(derivation.head, alive=True)
        if derivation.revocable:
            for body_tuple in derivation.body:
                dependents = self._dependents.get(body_tuple)
                if dependents is None:
                    if trail is not None:
                        trail.item(self._dependents, body_tuple)
                    dependents = self._dependents[body_tuple] = set()
                elif trail is not None:
                    trail.call(dependents.discard, derivation.id)
                dependents.add(derivation.id)
        return not was_alive

    def remove_derivation(self, derivation_id: int) -> bool:
        """Deactivate a derivation; returns True if the head disappeared."""
        derivation = self.derivations.get(derivation_id)
        if derivation is None or not derivation.active:
            return False
        trail = self._trail
        if trail is not None:
            trail.attrs(derivation, "active")
        derivation.active = False
        for body_tuple in derivation.body:
            dependents = self._dependents.get(body_tuple)
            if dependents is not None and derivation_id in dependents:
                if trail is not None:
                    trail.call(dependents.add, derivation_id)
                dependents.discard(derivation_id)
        record = self.record(derivation.head)
        if record is None:
            return False
        if trail is not None and derivation_id in record.derivations:
            trail.call(record.derivations.add, derivation_id)
        record.derivations.discard(derivation_id)
        if not record.alive:
            self._note_liveness_change(derivation.head, alive=False)
            return True
        return False

    def _record_for(self, tup: Tuple) -> TupleRecord:
        table = self._tables.get(tup.table)
        if table is None:
            raise SchemaError(f"unknown table {tup.table!r}")
        record = table.get(tup)
        if record is None:
            if self._trail is not None:
                self._trail.item(table, tup)
            record = TupleRecord(tup)
            table[tup] = record
        return record
