"""Barrier-style evaluation of aggregate rules.

Networks respond to individual stimuli, but batch systems such as
MapReduce need aggregates (word counts).  Aggregates are evaluated at
an explicit barrier — :meth:`repro.datalog.engine.Engine.fire_aggregates`
— once all contributions are present, which keeps both evaluation and
provenance deterministic: the provenance of an aggregate tuple is the
full set of contributing tuples, exactly once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple as PyTuple

from ..errors import EvaluationError
from .expr import Const, Expr, Var
from .rules import AggSpec, Atom, Program, Rule
from .state import flat_key
from .tuples import Tuple

__all__ = ["evaluate_aggregates"]


def evaluate_aggregates(
    program: Program, store
) -> Iterator[PyTuple[Rule, Tuple, PyTuple, Dict[str, object]]]:
    """Evaluate every aggregate rule against the current store.

    Yields ``(rule, head_tuple, contributing_body_tuples, env)`` for
    each derived aggregate tuple, in deterministic order.
    """
    for rule in program.aggregate_rules():
        groups: Dict[tuple, dict] = {}
        for env, body in _enumerate_bindings(rule, store):
            key = tuple(
                arg.evaluate(env)
                for arg in rule.head.args
                if not isinstance(arg, AggSpec)
            )
            group = groups.setdefault(
                key, {"contributions": [], "body": [], "env": dict(env)}
            )
            values = []
            for arg in rule.head.args:
                if isinstance(arg, AggSpec):
                    values.append(
                        1 if arg.expr is None else arg.expr.evaluate(env)
                    )
            group["contributions"].append(values)
            group["body"].extend(body)
        for key in sorted(groups, key=flat_key):
            group = groups[key]
            head = _finalize(rule, key, group["contributions"])
            body = _dedupe(group["body"])
            yield rule, head, body, group["env"]


def _finalize(rule: Rule, key: tuple, contributions: List[list]) -> Tuple:
    """Build the aggregate head tuple for one group."""
    args: List[object] = []
    key_iter = iter(key)
    agg_index = 0
    for arg in rule.head.args:
        if isinstance(arg, AggSpec):
            column = [values[agg_index] for values in contributions]
            args.append(_apply(arg.kind, column))
            agg_index += 1
        else:
            args.append(next(key_iter))
    return Tuple(rule.head.table, args)


def _apply(kind: str, column: List[object]):
    if kind == "count":
        return len(column)
    if kind == "sum":
        return sum(column)
    if kind == "min":
        return min(column)
    if kind == "max":
        return max(column)
    raise EvaluationError(f"unknown aggregate kind {kind!r}")  # pragma: no cover


def _enumerate_bindings(rule: Rule, store) -> Iterator[PyTuple[Dict[str, object], PyTuple]]:
    """Full join of the rule body against the store (no trigger)."""

    def extend(index: int, env: Dict[str, object], slots: List[Optional[Tuple]]):
        if index == len(rule.body):
            final_env = dict(env)
            if _settle(rule, final_env):
                yield final_env, tuple(slots)
            return
        atom = rule.body[index]
        for candidate in store.tuples(atom.table):
            new_env = dict(env)
            if not _match(atom, candidate, new_env):
                continue
            slots[index] = candidate
            yield from extend(index + 1, new_env, slots)
            slots[index] = None

    yield from extend(0, {}, [None] * len(rule.body))


def _settle(rule: Rule, env: Dict[str, object]) -> bool:
    for assignment in rule.assignments:
        value = assignment.expr.evaluate(env)
        if assignment.var in env:
            if env[assignment.var] != value:
                return False
        else:
            env[assignment.var] = value
    for condition in rule.conditions:
        try:
            if not condition.holds(env):
                return False
        except EvaluationError:
            return False
    return True


def _match(atom: Atom, tup: Tuple, env: Dict[str, object]) -> bool:
    if atom.table != tup.table or atom.arity != tup.arity:
        return False
    for arg, value in zip(atom.args, tup.args):
        if isinstance(arg, Var):
            if arg.name in env:
                if env[arg.name] != value:
                    return False
            else:
                env[arg.name] = value
        elif isinstance(arg, Const):
            if arg.value != value:
                return False
        elif isinstance(arg, Expr):
            free = arg.variables() - env.keys()
            if free:
                return False
            if arg.evaluate(env) != value:
                return False
    return True


def _dedupe(tuples: List[Tuple]) -> PyTuple:
    seen = set()
    result = []
    for tup in tuples:
        if tup not in seen:
            seen.add(tup)
            result.append(tup)
    return tuple(result)
