"""NDlog substrate: a declarative networking engine.

This subpackage replaces RapidNet in the paper's prototype.  It provides
tuples, tables, derivation rules with ``@location`` specifiers, and a
deterministic delta-driven evaluator with hooks for provenance
recording.

The public entry points are:

- :func:`repro.datalog.parser.parse_program` — parse NDlog text;
- :class:`repro.datalog.engine.Engine` — run a program;
- :class:`repro.datalog.config.EngineConfig` — backend selection
  (compiled fast path / reference oracle);
- :class:`repro.datalog.tuples.Tuple` — the value model.
"""

from .tuples import Tuple, TableSchema, TableKind
from .rules import Rule, Atom, Assignment, Condition, Program
from .parser import parse_program, parse_rule, parse_tuple
from .config import BACKENDS, PROVENANCE_MODES, EngineConfig
from .columnar import ColumnarStore
from .engine import Engine

__all__ = [
    "BACKENDS",
    "PROVENANCE_MODES",
    "EngineConfig",
    "ColumnarStore",
    "Tuple",
    "TableSchema",
    "TableKind",
    "Rule",
    "Atom",
    "Assignment",
    "Condition",
    "Program",
    "parse_program",
    "parse_rule",
    "parse_tuple",
    "Engine",
]
