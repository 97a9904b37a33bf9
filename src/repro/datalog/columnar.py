"""The compiled backend's store: sorted views and equality indexes.

The reference :class:`repro.datalog.state.Store` answers every query
with a linear pass over a table and re-sorts the table's live view
whenever a tuple's liveness changes.  At join-heavy scales those scans
and sorts dominate evaluation.

:class:`ColumnarStore` is the one owner of join indexes.  It maintains
two kinds of sorted projections incrementally:

- the **sorted live view** per table (the deterministic scan order the
  reference store produces by sorting), updated by bisection on every
  liveness change instead of invalidated and re-sorted;
- **equality indexes** per ``(table, positions)`` spec, whose buckets
  are lists kept sorted by ``sort_key`` — a probe returns the bucket
  directly, no per-probe sort or filter.

Indexes are registered by the rule compiler (one spec per
bound-position set a rule body demands) or built on first probe, in
one pass over the live records.  Everything here is a pure cache over
the inherited record tables: ``__getstate__`` drops it all, so
replay-cache snapshots and journal resume payloads stay small and
rebuild lazily after a restore — byte-identically, because bucket
membership and ordering are functions of the live tuple set alone.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Tuple as PyTuple

from ..errors import SchemaError
from .state import Store, sort_key
from .tuples import TableSchema, Tuple

__all__ = ["ColumnarStore"]

_EMPTY: Dict = {}


class ColumnarStore(Store):
    """A :class:`Store` with bisection-maintained views and indexes.

    Drop-in compatible: every query returns exactly what the base
    store returns (same tuples, same deterministic order).  Only the
    cost model changes.
    """

    def __init__(self, schemas: Dict[str, TableSchema]):
        super().__init__(schemas)
        # table -> positions tuple -> value vector -> live tuples,
        # each bucket sorted by sort_key.
        self._indexes: Dict[
            str, Dict[PyTuple[int, ...], Dict[PyTuple, List[Tuple]]]
        ] = {}

    def __getstate__(self):
        state = super().__getstate__()
        state["_indexes"] = {}
        return state

    # -- queries --------------------------------------------------------------

    def tuples_matching_at(
        self, table: str, positions: PyTuple[int, ...], values: PyTuple
    ) -> List[Tuple]:
        index = self._indexes.get(table, _EMPTY).get(positions)
        if index is None:
            index = self.register_index(table, positions)
        bucket = index.get(tuple(values))
        if not bucket:
            return []
        # Callers may mutate their view; hand out a copy.
        return list(bucket)

    def register_index(
        self, table: str, positions: PyTuple[int, ...]
    ) -> Dict[PyTuple, List[Tuple]]:
        """Ensure an equality index on ``positions`` exists for ``table``.

        Called by the rule compiler when a firing is first compiled, so
        the index is maintained incrementally from then on instead of
        being rebuilt from a table scan mid-join.
        """
        positions = tuple(positions)
        per_table = self._indexes.setdefault(table, {})
        index = per_table.get(positions)
        if index is None:
            schema = self.schemas.get(table)
            if schema is None:
                raise SchemaError(f"unknown table {table!r}")
            index = {}
            if all(p < schema.arity for p in positions):
                for record in self._tables[table].values():
                    if record.alive:
                        tup = record.tuple
                        key = tuple(tup.args[p] for p in positions)
                        index.setdefault(key, []).append(tup)
                for bucket in index.values():
                    bucket.sort(key=sort_key)
            per_table[positions] = index
        return index

    # -- incremental maintenance ----------------------------------------------

    def _note_liveness_change(self, tup: Tuple, alive: bool) -> None:
        if self._trail is not None:
            # insort and _sorted_remove are each other's inverse, and
            # they reach an index registered mid-checkpoint too: it was
            # built from the live set of that moment.
            self._trail.call(self._note_liveness_change, tup, not alive)
        table = tup.table
        live = self._sorted_cache.get(table)
        if live is not None:
            if alive:
                insort(live, tup, key=sort_key)
            else:
                _sorted_remove(live, tup)
        for positions, index in self._indexes.get(table, _EMPTY).items():
            if any(p >= tup.arity for p in positions):
                continue
            key = tuple(tup.args[p] for p in positions)
            bucket = index.get(key)
            if alive:
                if bucket is None:
                    index[key] = [tup]
                else:
                    insort(bucket, tup, key=sort_key)
            elif bucket:
                _sorted_remove(bucket, tup)


def _sorted_remove(bucket: List[Tuple], tup: Tuple) -> None:
    """Remove ``tup`` from a sort_key-ordered list, by identity of value.

    Bisects to the key's slice, then scans it for the exact tuple —
    equal keys are vanishingly rare (the whole engine already relies on
    sort_key being effectively injective per table), so the scan is
    O(1) in practice.
    """
    key = sort_key(tup)
    lo, hi = 0, len(bucket)
    while lo < hi:
        mid = (lo + hi) // 2
        if sort_key(bucket[mid]) < key:
            lo = mid + 1
        else:
            hi = mid
    for i in range(lo, len(bucket)):
        if bucket[i] == tup:
            del bucket[i]
            return
        if sort_key(bucket[i]) != key:
            break
