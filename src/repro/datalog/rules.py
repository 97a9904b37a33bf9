"""Derivation rules — the algorithm model of Section 3.1.

A rule has the form ``head :- body1, body2, ..., assignments,
conditions`` and may carry location specifiers (``@X``) on its atoms.
Two extensions beyond textbook datalog are needed to model networks
faithfully:

- **argmax selectors** on body atoms express OpenFlow best-match
  semantics ("of all flow entries matching this packet, use the one
  with the highest priority, then the longest prefix").  The selected
  tuple — and only it — becomes part of the derivation's provenance,
  which is exactly what the paper's provenance trees show.

- **aggregate heads** (``count<*>``, ``sum<X>``, ``min<X>``,
  ``max<X>``) support the MapReduce model.  They are evaluated at an
  explicit barrier (see :mod:`repro.datalog.aggregates`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import EvaluationError, SchemaError
from .expr import Const, Expr, Var
from .tuples import TableSchema

__all__ = [
    "Atom",
    "Assignment",
    "Condition",
    "AggSpec",
    "Selector",
    "Rule",
    "Program",
]

_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Selector:
    """An argmax selector on a body atom.

    ``keys`` are expressions over the atom's own variables (plus any
    already-bound variables); among all tuples matching the atom, the
    one maximizing the key vector is selected.  Ties are broken by the
    tuple's own value ordering to keep evaluation deterministic.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: Sequence[Expr]):
        self.keys = tuple(keys)
        if not self.keys:
            raise SchemaError("argmax selector needs at least one key")

    def __eq__(self, other):
        if isinstance(other, Selector):
            return self.keys == other.keys
        return NotImplemented

    def __hash__(self):
        return hash(("Selector", self.keys))

    def __repr__(self):
        return f"Selector({list(self.keys)!r})"

    def __str__(self):
        return f"argmax<{', '.join(str(k) for k in self.keys)}>"


class AggSpec:
    """An aggregate slot in a rule head: ``sum<X>``, ``count<*>``, ..."""

    __slots__ = ("kind", "expr")

    KINDS = ("count", "sum", "min", "max")

    def __init__(self, kind: str, expr: Optional[Expr]):
        if kind not in self.KINDS:
            raise SchemaError(f"unknown aggregate {kind!r}")
        if kind != "count" and expr is None:
            raise SchemaError(f"aggregate {kind!r} needs an argument")
        self.kind = kind
        self.expr = expr

    def __eq__(self, other):
        if isinstance(other, AggSpec):
            return (self.kind, self.expr) == (other.kind, other.expr)
        return NotImplemented

    def __hash__(self):
        return hash(("AggSpec", self.kind, self.expr))

    def __repr__(self):
        return f"AggSpec({self.kind!r}, {self.expr!r})"

    def __str__(self):
        inner = "*" if self.expr is None else str(self.expr)
        return f"{self.kind}<{inner}>"


class Atom:
    """A predicate occurrence: ``table(@Loc, arg, ...)``.

    ``args`` includes the location argument (always first when
    ``location`` is set).  Body atom args are usually :class:`Var` or
    :class:`Const`; head args may be arbitrary expressions or
    :class:`AggSpec` slots.
    """

    __slots__ = ("table", "args", "location", "selector")

    def __init__(
        self,
        table: str,
        args: Iterable[object],
        location: Optional[str] = None,
        selector: Optional[Selector] = None,
    ):
        self.table = table
        self.args = tuple(args)
        self.location = location
        self.selector = selector

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> frozenset:
        result = frozenset()
        for arg in self.args:
            if isinstance(arg, Expr):
                result |= arg.variables()
        return result

    def has_aggregates(self) -> bool:
        return any(isinstance(arg, AggSpec) for arg in self.args)

    def __eq__(self, other):
        if isinstance(other, Atom):
            return (self.table, self.args, self.location, self.selector) == (
                other.table,
                other.args,
                other.location,
                other.selector,
            )
        return NotImplemented

    def __hash__(self):
        return hash(("Atom", self.table, self.args, self.location, self.selector))

    def __repr__(self):
        return (
            f"Atom({self.table!r}, {list(self.args)!r}, "
            f"location={self.location!r}, selector={self.selector!r})"
        )

    def __str__(self):
        parts = []
        for i, arg in enumerate(self.args):
            text = str(arg)
            if i == 0 and self.location is not None:
                text = f"@{text}"
            parts.append(text)
        sel = f" {self.selector}" if self.selector else ""
        return f"{self.table}({', '.join(parts)}){sel}"


class Assignment:
    """``var := expr`` in a rule body."""

    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        self.var = var
        self.expr = expr

    def __eq__(self, other):
        if isinstance(other, Assignment):
            return (self.var, self.expr) == (other.var, other.expr)
        return NotImplemented

    def __hash__(self):
        return hash(("Assignment", self.var, self.expr))

    def __repr__(self):
        return f"Assignment({self.var!r}, {self.expr!r})"

    def __str__(self):
        return f"{self.var} := {self.expr}"


class Condition:
    """A comparison (or boolean builtin call) in a rule body."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Optional[Expr] = None):
        if op == "call":
            if right is not None:
                raise SchemaError("boolean call conditions take one expression")
        elif op not in _COMPARATORS:
            raise SchemaError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def holds(self, env: Dict[str, object]) -> bool:
        if self.op == "call":
            return bool(self.left.evaluate(env))
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError:
            raise EvaluationError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from None

    def variables(self) -> frozenset:
        result = self.left.variables()
        if self.right is not None:
            result |= self.right.variables()
        return result

    def __eq__(self, other):
        if isinstance(other, Condition):
            return (self.op, self.left, self.right) == (other.op, other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash(("Condition", self.op, self.left, self.right))

    def __repr__(self):
        return f"Condition({self.op!r}, {self.left!r}, {self.right!r})"

    def __str__(self):
        if self.op == "call":
            return str(self.left)
        return f"{self.left} {self.op} {self.right}"


class Rule:
    """A named derivation rule."""

    __slots__ = ("name", "head", "body", "assignments", "conditions")

    def __init__(
        self,
        name: str,
        head: Atom,
        body: Sequence[Atom],
        assignments: Sequence[Assignment] = (),
        conditions: Sequence[Condition] = (),
    ):
        self.name = name
        self.head = head
        self.body = tuple(body)
        self.assignments = tuple(assignments)
        self.conditions = tuple(conditions)
        if not self.body:
            raise SchemaError(f"rule {name!r} has an empty body")
        self._check_safety()

    @property
    def is_aggregate(self) -> bool:
        return self.head.has_aggregates()

    def _check_safety(self):
        """Every head/condition variable must be bound by the body."""
        bound = set()
        for atom in self.body:
            bound |= atom.variables()
        for assignment in self.assignments:
            missing = assignment.expr.variables() - bound
            if missing:
                raise SchemaError(
                    f"rule {self.name!r}: assignment {assignment} uses unbound "
                    f"variables {sorted(missing)}"
                )
            bound.add(assignment.var)
        head_vars = set()
        for arg in self.head.args:
            if isinstance(arg, AggSpec):
                if arg.expr is not None:
                    head_vars |= arg.expr.variables()
            elif isinstance(arg, Expr):
                head_vars |= arg.variables()
        missing = head_vars - bound
        if missing:
            raise SchemaError(
                f"rule {self.name!r}: head uses unbound variables {sorted(missing)}"
            )
        for condition in self.conditions:
            missing = condition.variables() - bound
            if missing:
                raise SchemaError(
                    f"rule {self.name!r}: condition {condition} uses unbound "
                    f"variables {sorted(missing)}"
                )

    def __eq__(self, other):
        if isinstance(other, Rule):
            return (
                self.name,
                self.head,
                self.body,
                self.assignments,
                self.conditions,
            ) == (other.name, other.head, other.body, other.assignments, other.conditions)
        return NotImplemented

    def __hash__(self):
        return hash(("Rule", self.name, self.head, self.body, self.assignments, self.conditions))

    def __repr__(self):
        return f"Rule({self.name!r}, {self.head!r}, ...)"

    def __str__(self):
        parts = [str(atom) for atom in self.body]
        parts += [str(a) for a in self.assignments]
        parts += [str(c) for c in self.conditions]
        return f"{self.name} {self.head} :- {', '.join(parts)}."


class Program:
    """A complete NDlog program: schemas plus rules."""

    def __init__(
        self,
        schemas: Optional[Dict[str, TableSchema]] = None,
        rules: Optional[Sequence[Rule]] = None,
    ):
        self.schemas: Dict[str, TableSchema] = dict(schemas or {})
        self.rules: List[Rule] = list(rules or [])
        # Dispatch index: table -> ((rule, trigger_index), ...) for every
        # body-atom occurrence in a non-aggregate rule.  Built lazily and
        # invalidated by add_rule, so a delta only ever visits the rules
        # that can actually consume it.
        self._trigger_cache: Optional[Dict[str, tuple]] = None
        self._validate()

    def _validate(self):
        names = set()
        for rule in self.rules:
            if rule.name in names:
                raise SchemaError(f"duplicate rule name {rule.name!r}")
            names.add(rule.name)
            for atom in (rule.head, *rule.body):
                schema = self.schemas.get(atom.table)
                if schema is None:
                    raise SchemaError(
                        f"rule {rule.name!r} references undeclared table "
                        f"{atom.table!r}"
                    )
                if atom.arity != schema.arity:
                    raise SchemaError(
                        f"rule {rule.name!r}: atom {atom} has arity "
                        f"{atom.arity}, table expects {schema.arity}"
                    )

    def schema(self, table: str) -> TableSchema:
        try:
            return self.schemas[table]
        except KeyError:
            raise SchemaError(f"unknown table {table!r}") from None

    def rule(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise SchemaError(f"no rule named {name!r}")

    def add_rule(self, rule: Rule) -> "Program":
        self.rules.append(rule)
        self._trigger_cache = None
        self._validate()
        return self

    def triggers(self, table: str) -> tuple:
        """``(rule, trigger_index)`` pairs a delta of ``table`` can fire.

        The pairs preserve program order (rules first, body positions
        within a rule second), which is the order the engine's old
        rule scan visited them in — dispatch changes cost, not outcome.
        """
        cache = self._trigger_cache
        if cache is None:
            cache = {}
            for rule in self.rules:
                if rule.is_aggregate:
                    continue
                for index, atom in enumerate(rule.body):
                    cache.setdefault(atom.table, []).append((rule, index))
            cache = {name: tuple(pairs) for name, pairs in cache.items()}
            self._trigger_cache = cache
        return cache.get(table, ())

    def aggregate_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_aggregate]

    def __repr__(self):
        return f"Program({len(self.schemas)} tables, {len(self.rules)} rules)"
