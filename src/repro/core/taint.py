"""Taint tracking: CREATETAINT / PROPTAINT / APPLYTAINT (Section 4.3).

DiffProv taints every field of the good tree that was computed —
directly or indirectly — from fields of the good seed, and attaches to
each tainted field a *formula* expressing its value as a function of
the seed's fields.  Plugging the bad seed's values into a formula gives
the tuple that *should* exist in the bad tree (APPLYTAINT), which is
the equivalence relation the whole alignment runs on.

Formulas are ordinary :mod:`repro.datalog.expr` expressions over the
variables ``$0, $1, ...`` (field ``i`` of the seed).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..datalog.expr import Const, Expr, Var
from ..datalog.rules import AggSpec, Program, Rule
from ..errors import ReproError
from ..provenance.tree import TupleNode

__all__ = ["seed_var", "seed_env", "TaintAnnotation"]


def seed_var(index: int) -> Var:
    """The formula variable standing for seed field ``index``."""
    return Var(f"${index}")


def seed_env(seed_tuple) -> Dict[str, object]:
    """Evaluation environment binding ``$i`` to a seed's field values."""
    return {f"${i}": value for i, value in enumerate(seed_tuple.args)}


class TaintAnnotation:
    """Field formulas for every node of a good provenance tree.

    Built in one bottom-up pass (CREATETAINT on the seed, then
    PROPTAINT through each derivation).  For each node the annotation
    stores one formula per field (``None`` = untainted, i.e. the field
    does not depend on the seed), and for each *derived* node the
    per-variable formulas of its rule binding, which MAKEAPPEAR uses to
    compute expected sibling tuples (Section 4.5).
    """

    def __init__(
        self,
        program: Program,
        root: TupleNode,
        seed: TupleNode,
        enabled: bool = True,
    ):
        self.program = program
        self.root = root
        self.seed = seed
        self.enabled = enabled
        self._field_formulas: Dict[int, List[Optional[Expr]]] = {}
        self._var_formulas: Dict[int, Dict[str, Expr]] = {}
        self._annotate(root)

    # -- public accessors ---------------------------------------------------

    def formulas_for(self, node: TupleNode) -> List[Optional[Expr]]:
        try:
            return self._field_formulas[id(node)]
        except KeyError:
            raise ReproError(
                f"node {node.tuple} is not part of the annotated tree"
            ) from None

    def var_formulas_for(self, node: TupleNode) -> Dict[str, Expr]:
        return self._var_formulas.get(id(node), {})

    # -- construction ----------------------------------------------------------

    def _annotate(self, node: TupleNode) -> List[Optional[Expr]]:
        for child in node.children:
            self._annotate(child)
        formulas = self._formulas_of(node)
        self._field_formulas[id(node)] = formulas
        return formulas

    def _formulas_of(self, node: TupleNode) -> List[Optional[Expr]]:
        arity = node.tuple.arity
        if not self.enabled:
            return [None] * arity
        if node.is_base:
            # CREATETAINT: each seed field is tainted with the identity.
            # The projection from graph to tree duplicates shared
            # subtrees, so the seed *tuple* can occur at many tree
            # positions; every occurrence is the seed.
            if node.tuple == self.seed.tuple:
                return [seed_var(i) for i in range(arity)]
            return [None] * arity
        rule = self._rule_of(node)
        if rule is None:
            return [None] * arity
        if rule.is_aggregate:
            return self._aggregate_formulas(rule, node)
        var_formulas = self._bind_variables(rule, node)
        self._var_formulas[id(node)] = var_formulas
        env = node.derivation.env if node.derivation is not None else {}
        self._apply_assignments(rule, env, var_formulas)
        return [
            self._head_formula(arg, env, var_formulas) for arg in rule.head.args
        ]

    def _aggregate_formulas(self, rule: Rule, node: TupleNode) -> List[Optional[Expr]]:
        """Taints for aggregate heads: group-key fields inherit their
        contributions' formulas; the aggregated values themselves
        (counts, sums) are set-level facts, not functions of the seed,
        and stay untainted."""
        var_formulas: Dict[str, Expr] = {}
        for child in node.children:
            child_formulas = self._field_formulas.get(id(child))
            if child_formulas is None:
                continue
            for atom in rule.body:
                if atom.table != child.tuple.table or atom.arity != child.tuple.arity:
                    continue
                for index, arg in enumerate(atom.args):
                    formula = child_formulas[index]
                    if (
                        formula is not None
                        and isinstance(arg, Var)
                        and arg.name not in var_formulas
                    ):
                        var_formulas[arg.name] = formula
                break
        self._var_formulas[id(node)] = var_formulas
        env = node.derivation.env if node.derivation is not None else {}
        return [
            None if isinstance(arg, AggSpec)
            else self._head_formula(arg, env, var_formulas)
            for arg in rule.head.args
        ]

    def _rule_of(self, node: TupleNode) -> Optional[Rule]:
        if node.rule is None:
            return None
        try:
            return self.program.rule(node.rule)
        except Exception:
            return None

    def _bind_variables(self, rule: Rule, node: TupleNode) -> Dict[str, Expr]:
        """PROPTAINT: taints flow from child fields to rule variables."""
        var_formulas: Dict[str, Expr] = {}
        for atom, child in zip(rule.body, node.children):
            child_formulas = self._field_formulas.get(id(child))
            if child_formulas is None:
                continue
            for index, arg in enumerate(atom.args):
                if index >= len(child_formulas):
                    break
                formula = child_formulas[index]
                if formula is None:
                    continue
                if isinstance(arg, Var) and arg.name not in var_formulas:
                    var_formulas[arg.name] = formula
        return var_formulas

    def _apply_assignments(
        self, rule: Rule, env: Dict[str, object], var_formulas: Dict[str, Expr]
    ) -> None:
        """Taints flow through assignments, composing their formulas."""
        for assignment in rule.assignments:
            used = assignment.expr.variables()
            if not (used & var_formulas.keys()):
                continue
            mapping = self._substitution(used, env, var_formulas)
            if mapping is None:
                continue
            var_formulas[assignment.var] = assignment.expr.substitute(mapping)

    def _head_formula(
        self, arg, env: Dict[str, object], var_formulas: Dict[str, Expr]
    ) -> Optional[Expr]:
        if isinstance(arg, AggSpec) or not isinstance(arg, Expr):
            return None
        used = arg.variables()
        if not (used & var_formulas.keys()):
            return None
        mapping = self._substitution(used, env, var_formulas)
        if mapping is None:
            return None
        return arg.substitute(mapping)

    def _substitution(
        self, used, env: Dict[str, object], var_formulas: Dict[str, Expr]
    ) -> Optional[Dict[str, Expr]]:
        """Tainted vars become their formulas; untainted vars become the
        good run's constants (APPLYTAINT plugs the bad seed in later)."""
        mapping: Dict[str, Expr] = {}
        for name in used:
            if name in var_formulas:
                mapping[name] = var_formulas[name]
            elif name in env:
                mapping[name] = Const(env[name])
            else:
                return None
        return mapping
