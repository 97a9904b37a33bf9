"""Repairing rule conditions that fail under the bad-side binding.

When MAKEAPPEAR finds that the rule which derived a good-tree tuple
cannot fire in the bad execution because a condition fails — e.g. the
packet's destination is outside the flow entry's (overly specific)
prefix — DiffProv must compute a changed value for a field of a
mutable base tuple that makes the condition hold.  Two mechanisms:

- **registered repairs** for boolean builtins (``ip_in_prefix`` widens
  the prefix minimally so it covers the address — which is exactly how
  the 4.3.2.0/24 → 4.3.2.0/23 root cause of the paper's running
  example is reconstructed);

- **inversion** for arithmetic comparisons, using
  :func:`repro.datalog.expr.invert` (Section 4.5's ``q = x + 2``
  example).  Rules whose computations cannot be inverted make DiffProv
  fail with the *attempted change* as a clue (Section 4.7).

This module is **condition repair** — *value synthesis* — and runs
inside the DiffProv loop to build the change set Δ(B→G).  It answers
"what should this tuple say instead?", one field at a time.  The
complementary question — *which* base tuples/config entries to revert,
to what, and in what order, verified so the fix clears the symptom
without breaking good behaviour — is **rollback planning**, and lives
in :mod:`repro.repair` (docs/repair.md), which consumes the values
synthesized here via the diagnosis's change set.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple as PyTuple

from ..addresses import IPv4Address, Prefix
from ..datalog.expr import Call, Const, Var, invert
from ..datalog.rules import Condition
from ..errors import EvaluationError, NonInvertibleError

__all__ = [
    "CONDITION_REPAIRS",
    "register_condition_repair",
    "repair_condition",
    "widen_prefix",
]

# Builtin name -> fn(arg_values, repairable_positions) -> (index, value)
CONDITION_REPAIRS: Dict[str, Callable] = {}


def register_condition_repair(name: str, fn: Callable) -> None:
    """Register a repair strategy for a boolean builtin condition."""
    CONDITION_REPAIRS[name] = fn


def widen_prefix(pfx: Prefix, addr: IPv4Address) -> Prefix:
    """The longest prefix that covers both ``pfx`` and ``addr``.

    This is the minimal generalization: shorten the mask just enough to
    include the new address.
    """
    if pfx.contains(addr):
        return pfx
    diff = pfx.network.value ^ addr.value
    common = 32 - diff.bit_length()
    length = min(pfx.length, common)
    return Prefix(addr, length)


def _repair_ip_in_prefix(args, repairable_positions):
    if 1 not in repairable_positions:
        return None
    addr = IPv4Address(args[0])
    pfx = Prefix(args[1])
    return 1, widen_prefix(pfx, addr)


register_condition_repair("ip_in_prefix", _repair_ip_in_prefix)


def repair_condition(
    condition: Condition,
    env: Dict[str, object],
    repairable_vars: Iterable[str],
) -> Optional[PyTuple[str, object]]:
    """Compute ``(variable, new_value)`` making ``condition`` hold.

    ``env`` is the bad-side binding under which the condition currently
    fails; ``repairable_vars`` are the variables bound to fields of
    mutable base tuples (only those may change).  Returns None when the
    condition offers nothing to repair; raises
    :class:`NonInvertibleError` when a repair exists in principle but
    the computation cannot be inverted.
    """
    repairable = set(repairable_vars)
    call = _as_boolean_call(condition)
    if call is not None:
        return _repair_call(call, env, repairable)
    if condition.op == "call" or condition.right is None:
        return None
    return _repair_comparison(condition, env, repairable)


def _as_boolean_call(condition: Condition) -> Optional[Call]:
    """Normalize ``f(...)``, ``f(...) == true``, ``true == f(...)``."""
    if condition.op == "call" and isinstance(condition.left, Call):
        return condition.left
    if condition.op == "==":
        left, right = condition.left, condition.right
        if isinstance(left, Call) and right == Const(True):
            return left
        if isinstance(right, Call) and left == Const(True):
            return right
    return None


def _repair_call(call: Call, env, repairable) -> Optional[PyTuple[str, object]]:
    strategy = CONDITION_REPAIRS.get(call.name)
    if strategy is None:
        raise NonInvertibleError(
            f"no repair strategy for builtin condition {call.name!r}",
            attempted=(call, env),
        )
    positions = set()
    var_at: Dict[int, str] = {}
    for index, arg in enumerate(call.args):
        if isinstance(arg, Var) and arg.name in repairable:
            positions.add(index)
            var_at[index] = arg.name
    if not positions:
        return None
    values = [arg.evaluate(env) for arg in call.args]
    result = strategy(values, positions)
    if result is None:
        return None
    index, value = result
    return var_at[index], value


def _repair_comparison(
    condition: Condition, env, repairable
) -> Optional[PyTuple[str, object]]:
    for side, other in (
        (condition.left, condition.right),
        (condition.right, condition.left),
    ):
        candidates = [v for v in side.variables() if v in repairable]
        if len(candidates) != 1:
            continue
        var = candidates[0]
        if other.variables() - env.keys():
            continue
        target = Const(other.evaluate(env))
        solutions = invert(side, var, target)
        for solution in solutions:
            try:
                trial = dict(env)
                trial.pop(var, None)
                value = solution.evaluate(trial)
            except EvaluationError:
                continue
            trial[var] = value
            try:
                if condition.holds(trial):
                    return var, value
            except EvaluationError:
                continue
    return None
