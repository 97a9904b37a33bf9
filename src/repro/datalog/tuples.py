"""Tuples and table schemas — the system-state model of Section 3.1.

System states and events are represented as tuples organized into
tables.  Two distinctions matter to the rest of the system:

- **event vs. state tables** (:class:`TableKind`): event tuples (e.g.
  packets) trigger rule evaluation when they arrive but are not joined
  against later — they model external stimuli.  State tuples (e.g. flow
  entries) persist and participate in joins.

- **mutable vs. immutable base tuples** (Section 3.3, refinement #1):
  DiffProv may only propose changes to mutable base tuples.  An
  operator can change configuration state but not the packets arriving
  at her border router.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable

from ..errors import SchemaError

__all__ = ["TableKind", "TableSchema", "Tuple", "TupleStore"]


class TableKind(enum.Enum):
    STATE = "state"
    EVENT = "event"


class TableSchema:
    """Schema of a table: name, field names, kind, and base mutability."""

    __slots__ = ("name", "fields", "kind", "mutable")

    def __init__(
        self,
        name: str,
        fields: Iterable[str],
        kind: TableKind = TableKind.STATE,
        mutable: bool = True,
    ):
        self.name = name
        self.fields = tuple(fields)
        if len(set(self.fields)) != len(self.fields):
            raise SchemaError(f"duplicate field names in table {name!r}")
        self.kind = kind
        self.mutable = mutable

    @property
    def arity(self) -> int:
        return len(self.fields)

    def field_index(self, field: str) -> int:
        try:
            return self.fields.index(field)
        except ValueError:
            raise SchemaError(f"table {self.name!r} has no field {field!r}") from None

    def __eq__(self, other):
        if isinstance(other, TableSchema):
            return (self.name, self.fields, self.kind, self.mutable) == (
                other.name,
                other.fields,
                other.kind,
                other.mutable,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.fields, self.kind, self.mutable))

    def __repr__(self):
        return (
            f"TableSchema({self.name!r}, {list(self.fields)!r}, "
            f"kind={self.kind.value!r}, mutable={self.mutable})"
        )


class Tuple:
    """An immutable fact: a table name plus a vector of values.

    By NDlog convention the first argument is the *location* (the node
    the tuple lives on); the engine enforces this for located programs
    but the class itself is location-agnostic so it can also model
    reported/black-box provenance.
    """

    __slots__ = ("table", "args", "_hash", "_sort_key")

    def __init__(self, table: str, args: Iterable[object]):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_hash", hash((table, self.args)))
        # Deterministic-order key, computed lazily by state.sort_key and
        # cached here: sorting candidate lists is on the join hot path.
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tuple instances are immutable")

    def __reduce__(self):
        # The immutability guard blocks pickle's default slot restore;
        # rebuild through __init__ instead.
        return (Tuple, (self.table, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def location(self):
        """The location field (first argument), if any."""
        return self.args[0] if self.args else None

    def replace(self, index: int, value) -> "Tuple":
        """A copy of this tuple with field ``index`` replaced."""
        args = list(self.args)
        args[index] = value
        return Tuple(self.table, args)

    def with_args(self, args: Iterable[object]) -> "Tuple":
        return Tuple(self.table, args)

    def __eq__(self, other):
        if self is other:
            # Interned tuples (see TupleStore) make this the common case.
            return True
        if isinstance(other, Tuple):
            return (
                self._hash == other._hash
                and self.table == other.table
                and self.args == other.args
            )
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tuple({self.table!r}, {list(self.args)!r})"

    def __str__(self):
        rendered = ", ".join(_render(a) for a in self.args)
        return f"{self.table}({rendered})"


class TupleStore:
    """A per-engine interning pool for :class:`Tuple` instances.

    Joins compare and hash the same facts over and over; interning
    collapses structurally equal tuples to one canonical instance so
    equality usually short-circuits on identity and the cached hash and
    sort key are shared.  Interning is purely an optimization: nothing
    may rely on two equal tuples being the same object, because
    unpickling (replay-cache restores, worker processes) recreates
    plain instances — pickle's memo keeps identity consistent *within*
    one payload, which is all the engine needs.
    """

    __slots__ = ("_interned",)

    def __init__(self):
        self._interned: Dict[Tuple, Tuple] = {}

    def intern(self, tup: Tuple) -> Tuple:
        """The canonical instance equal to ``tup`` (registering it if new)."""
        canonical = self._interned.get(tup)
        if canonical is None:
            self._interned[tup] = tup
            return tup
        return canonical

    def make(self, table: str, args: Iterable[object]) -> Tuple:
        return self.intern(Tuple(table, args))

    def __len__(self) -> int:
        return len(self._interned)

    def __repr__(self):
        return f"TupleStore({len(self._interned)} tuples)"


def _render(value) -> str:
    if isinstance(value, bool):
        # Keep tuple text parseable: NDlog booleans are lowercase.
        return "true" if value else "false"
    if isinstance(value, str):
        return repr(value)
    return str(value)


def check_schema(tup: Tuple, schemas: Dict[str, TableSchema]) -> TableSchema:
    """Validate a tuple against the program's schemas; returns the schema."""
    schema = schemas.get(tup.table)
    if schema is None:
        raise SchemaError(f"unknown table {tup.table!r}")
    if tup.arity != schema.arity:
        raise SchemaError(
            f"tuple {tup} has arity {tup.arity}, table {tup.table!r} "
            f"expects {schema.arity}"
        )
    return schema
