"""Per-(rule, trigger) compiled join closures for the compiled backend.

The reference join (:meth:`Engine._bindings`) pays real interpretive
overhead per candidate tuple: a fresh environment dict, fresh
assignment/condition work lists, a generic ``_match_atom`` walk that
re-discovers per candidate what is statically known per rule, and a
``_settle`` fixpoint that re-scans those lists — over a linear scan of
the whole table.  This module performs that discovery once per
``(rule, trigger_index)`` pair and emits a specialized plan:

- **match ops** per body atom — ``bind``/``check_var``/``check_const``/
  ``expr`` opcodes over argument positions, with positions already
  guaranteed by an index probe skipped entirely;
- **settle ops** — the exact, statically-determined sequence of
  assignment and condition evaluations the interpreted fixpoint would
  perform at each join step (the runtime settle consumes assignments
  under the same availability test, so the static bound set equals the
  runtime environment's key set at every step);
- **access closures** — one composite-index probe or full-scan closure
  per atom, metered as ``engine.index.hits``/``misses``;
- **selector keys** — for an ``argmax<...>`` atom, the key expressions
  evaluated per matching candidate to keep only the best one.

Execution uses one mutable environment with an undo trail instead of a
dict copy per candidate.  Bind order follows the interpreted path's
insertion order exactly, so every yielded binding — and therefore every
derivation, provenance event, and report downstream — is byte-identical
to the reference evaluator (locked by
``tests/datalog/test_index_equivalence.py`` and
``tests/property/test_prop_selector.py``).

The one deliberate interpreter seam: a rule whose final settle would
leave unbound leftovers gets ``None`` from :func:`compile_rule` and
runs through the reference join on the same store, so the
``EvaluationError`` is raised by exactly one code path.  (Aggregate
rules never reach the compiler — ``Program.triggers`` skips them; they
fire through the barrier path.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as PyTuple

from ..errors import EvaluationError
from .expr import Const, Expr, Var
from .rules import Rule
from .state import sort_key
from .tuples import Tuple

__all__ = ["CompiledRule", "compile_rule"]


class CompiledRule:
    """One (rule, trigger_index) pair compiled to a step plan."""

    __slots__ = (
        "rule_name",
        "body_len",
        "trigger_index",
        "trigger_arity",
        "trigger_match",
        "trigger_settle",
        "steps",
    )

    def __init__(
        self,
        rule_name: str,
        body_len: int,
        trigger_index: int,
        trigger_arity: int,
        trigger_match: tuple,
        trigger_settle: tuple,
        steps: tuple,
    ):
        self.rule_name = rule_name
        self.body_len = body_len
        self.trigger_index = trigger_index
        self.trigger_arity = trigger_arity
        self.trigger_match = trigger_match
        self.trigger_settle = trigger_settle
        # steps: one (atom_index, arity, access, match_ops, settle_ops,
        # selector_keys) per non-trigger body atom, in ascending body
        # order; selector_keys is None for atoms without an argmax.
        self.steps = steps

    def bindings(self, engine, delta: Tuple):
        """Yield ``(env, body_tuples)`` exactly like ``Engine._bindings``.

        The yielded ``env`` is the plan's live working dict — consumers
        (``_fire_rules``) use it before advancing the generator, and
        ``Derivation`` copies it, so no defensive copy is needed here.
        """
        if delta.arity != self.trigger_arity:
            return
        env: Dict[str, object] = {}
        trail: List[str] = []
        if not _run_match(self.trigger_match, delta.args, env, trail):
            return
        if not _run_settle(self.trigger_settle, env, trail):
            return
        slots: List[Optional[Tuple]] = [None] * self.body_len
        slots[self.trigger_index] = delta
        yield from self._extend(engine, 0, slots, env, trail)

    def _extend(self, engine, depth: int, slots, env, trail):
        if depth == len(self.steps):
            yield env, tuple(slots)
            return
        atom_index, arity, access, match_ops, settle_ops, keys = self.steps[
            depth
        ]
        mark = len(trail)
        candidates = access(engine, env)
        if keys is not None:
            candidates = _argmax(
                candidates, arity, match_ops, settle_ops, keys, env, trail
            )
        for candidate in candidates:
            if (
                candidate.arity == arity
                and _run_match(match_ops, candidate.args, env, trail)
                and _run_settle(settle_ops, env, trail)
            ):
                slots[atom_index] = candidate
                yield from self._extend(engine, depth + 1, slots, env, trail)
                slots[atom_index] = None
            while len(trail) > mark:
                del env[trail.pop()]


def _argmax(candidates, arity, match_ops, settle_ops, keys, env, trail):
    """The selector step: the single best matching candidate, if any.

    Same semantics as ``Engine._candidates``: among candidates that
    match and settle, keep the maximum of ``(keys, sort_key)`` with the
    keys evaluated in that candidate's own environment; the earliest
    wins an exact tie, like ``max``.  The caller re-matches the winner.
    """
    mark = len(trail)
    best = best_key = None
    for candidate in candidates:
        if (
            candidate.arity == arity
            and _run_match(match_ops, candidate.args, env, trail)
            and _run_settle(settle_ops, env, trail)
        ):
            key = (tuple(k.evaluate(env) for k in keys), sort_key(candidate))
            if best is None or key > best_key:
                best, best_key = candidate, key
        while len(trail) > mark:
            del env[trail.pop()]
    return () if best is None else (best,)


def _run_match(ops, args, env, trail) -> bool:
    """Execute one atom's match opcodes against a candidate's args.

    Operand order in every comparison matches ``_match_atom`` (pattern
    side on the left) so values with asymmetric ``__eq__`` behave
    identically.
    """
    for op in ops:
        kind = op[0]
        if kind == "bind":
            name = op[2]
            env[name] = args[op[1]]
            trail.append(name)
        elif kind == "check_var":
            if env[op[2]] != args[op[1]]:
                return False
        elif kind == "check_const":
            if op[2] != args[op[1]]:
                return False
        elif kind == "expr":
            if op[2].evaluate(env) != args[op[1]]:
                return False
        else:  # "fail": an Expr arg with statically-free variables
            return False
    return True


def _run_settle(ops, env, trail) -> bool:
    """Execute the settle sequence: assignment errors propagate,
    condition errors prune — exactly ``Engine._settle``'s semantics."""
    for op in ops:
        if op[0] == "assign":
            _, assignment, conflict = op
            value = assignment.expr.evaluate(env)
            if conflict:
                if env[assignment.var] != value:
                    return False
            else:
                env[assignment.var] = value
                trail.append(assignment.var)
        else:  # "cond"
            condition = op[1]
            try:
                ok = condition.holds(env)
            except EvaluationError:
                ok = False
            if not ok:
                return False
    return True


# -- compilation --------------------------------------------------------------


def compile_rule(
    engine, rule: Rule, trigger_index: int
) -> Optional[CompiledRule]:
    """Compile one (rule, trigger) firing; ``None`` means fall back.

    A static walk of the runtime join — trigger binds, assignments
    settle, remaining atoms visited in ascending order — emitting the
    ordered settle sequence and registering one composite index per
    atom with a bound position on the engine's store.
    """
    bound: set = set()
    assigns = list(rule.assignments)
    conds = list(rule.conditions)

    trigger_atom = rule.body[trigger_index]
    trigger_match = _compile_match(trigger_atom, bound, skip=())
    trigger_settle = _emit_settle(bound, assigns, conds)

    steps = []
    for index in range(len(rule.body)):
        if index == trigger_index:
            continue
        atom = rule.body[index]
        positions: List[int] = []
        getters: List[tuple] = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                positions.append(position)
                getters.append((None, arg.value))
            elif isinstance(arg, Var) and arg.name in bound:
                positions.append(position)
                getters.append((arg.name, None))
        if positions:
            spec = (tuple(positions), tuple(getters))
            engine.store.register_index(atom.table, spec[0])
        else:
            spec = None
        match_ops = _compile_match(atom, bound, skip=frozenset(positions))
        settle_ops = _emit_settle(bound, assigns, conds)
        steps.append(
            (
                index,
                atom.arity,
                _make_access(atom.table, spec),
                match_ops,
                settle_ops,
                None if atom.selector is None else tuple(atom.selector.keys),
            )
        )

    if assigns or conds:
        # The final interpreted settle would raise (unbound leftovers);
        # keep that error path by not compiling the rule.
        return None

    return CompiledRule(
        rule.name,
        len(rule.body),
        trigger_index,
        trigger_atom.arity,
        trigger_match,
        trigger_settle,
        tuple(steps),
    )


def _compile_match(atom, bound: set, skip) -> tuple:
    """Opcodes for matching ``atom`` given the static bound set.

    Positions in ``skip`` are guaranteed equal by the index probe that
    produced the candidate, so their checks are elided.  ``bound`` is
    extended with the atom's newly-bound variables (mutated in place,
    mirroring the planner's walk).
    """
    ops = []
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Var):
            if arg.name in bound:
                if position not in skip:
                    ops.append(("check_var", position, arg.name))
            else:
                ops.append(("bind", position, arg.name))
                bound.add(arg.name)
        elif isinstance(arg, Const):
            if position not in skip:
                ops.append(("check_const", position, arg.value))
        elif isinstance(arg, Expr):
            if arg.variables() <= bound:
                ops.append(("expr", position, arg))
            else:
                # _match_atom fails on any Expr with free variables;
                # boundness is static, so every candidate fails here.
                ops.append(("fail",))
                break
        else:  # pragma: no cover - defensive, mirrors _match_atom
            raise EvaluationError(f"bad body atom argument {arg!r}")
    return tuple(ops)


def _emit_settle(bound: set, assigns: list, conds: list) -> tuple:
    """The exact evaluation sequence ``_settle`` performs at this step.

    Replays the runtime fixpoint over variable *names*: scan
    assignments in list order applying every available one, then
    conditions in list order, repeating while progress is made.
    Consumed entries are removed from the (mutable) work lists, exactly
    like the runtime, so later steps only see what remains.
    """
    ops = []
    progress = True
    while progress:
        progress = False
        for assignment in list(assigns):
            if assignment.expr.variables() <= bound:
                ops.append(("assign", assignment, assignment.var in bound))
                bound.add(assignment.var)
                assigns.remove(assignment)
                progress = True
        for condition in list(conds):
            if condition.variables() <= bound:
                ops.append(("cond", condition))
                conds.remove(condition)
                progress = True
    return tuple(ops)


def _make_access(table: str, spec):
    """Access closure: composite-index probe, or full sorted scan."""
    if spec is None:

        def scan(engine, env):
            telemetry = engine.telemetry
            if telemetry is not None:
                telemetry.inc("engine.index.misses")
            return engine.store.tuples(table)

        return scan

    positions, getters = spec

    def probe(engine, env):
        telemetry = engine.telemetry
        if telemetry is not None:
            telemetry.inc("engine.index.hits")
        return engine.store.tuples_matching_at(
            table,
            positions,
            tuple(
                value if name is None else env[name]
                for name, value in getters
            ),
        )

    return probe
