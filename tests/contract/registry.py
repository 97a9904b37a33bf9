"""The determinism contract's scenarios, axes and cells.

``DiagnosisReport.canonical_json()`` is byte-identical across every
axis below (docs/architecture.md, "The contract").  A cell is one point
of the product for one scenario, operation and ``minimize`` setting;
:func:`run_cell` drives a real :class:`Session` through it.  The oracle
cell's sha256 per scenario x op x ``minimize`` is pinned in
``pins.json``, and every other cell must hash to the same pin.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple
from unittest import mock

from repro import Session
from repro.replay import ReplayCache
from repro.scenarios import ALL_SCENARIOS
from repro.scenarios.stanford import StanfordForwardingError

STANFORD_SMALL = dict(background_packets=60, entries_per_router=120,
                      acl_rules=48)
# The benchmark's stanford-scaled workload: 449k flow entries.
STANFORD_SCALED = dict(entries_per_router=28000, acl_rules=1000,
                       background_packets=40)


@functools.lru_cache(maxsize=None)
def _stanford_build(params: Tuple) -> StanfordForwardingError:
    return StanfordForwardingError(**dict(params)).setup()


def _stanford(**params):
    """Explicit mode over one Stanford build, shared by every cell."""
    def open_session(**knobs) -> Session:
        built = _stanford_build(tuple(sorted(params.items())))
        return Session(
            program=built.program, good=built.good_execution,
            bad=built.bad_execution, good_event=built.good_event,
            bad_event=built.bad_event, good_time=built.good_time,
            bad_time=built.bad_time, **knobs,
        )
    return open_session


# One line per scenario: its name and how a Session over it opens.
SCENARIOS = {name: functools.partial(Session, name)
             for name in sorted(ALL_SCENARIOS)}
SCENARIOS["Stanford-SMALL"] = _stanford(**STANFORD_SMALL)
# A 12 s build: in the whole product (-m contract_full) only, and
# without pins; its oracle runs alongside.
FULL_ONLY = {"Stanford-scaled": _stanford(**STANFORD_SCALED)}

# Substrate twins: one fault, two implementations (ROADMAP item 2).
TWINS = [("MR1-I", "MR1-D"), ("MR2-I", "MR2-D")]

# Every axis and its values, the oracle's value first.
AXES = {
    "engine": ("reference", "compiled"),
    "replay_cache": (False, True),
    "cache": (False, True),
    "resume": (False, True),
    "telemetry": (False, True),
    "op": ("diagnose", "repair"),
    "minimize": (False, True),
    "call": (1, 2),
}
# From scratch on the oracle backend, nothing cached, a fresh journal,
# telemetry off, first call.
ORACLE = {axis: values[0] for axis, values in AXES.items()
          if axis not in ("op", "minimize")}
PINS = json.loads(Path(__file__).with_name("pins.json").read_text())


class Cell(NamedTuple):
    scenario: str
    engine: str
    replay_cache: bool
    cache: bool
    resume: bool
    telemetry: bool
    op: str
    minimize: bool
    call: int

    def pin_key(self) -> str:
        return f"{self.scenario} {self.op} minimize={self.minimize}"

    def __str__(self):
        return "-".join(f"{axis}={value}" for axis, value in
                        zip(self._fields, self))


def collapse(cell: Cell) -> Cell:
    """Drop the axis values the code ignores: ``Session`` discards
    ``cache`` when ``replay_cache`` is off."""
    return cell._replace(cache=cell.cache and cell.replay_cache)


def full_cells(scenarios=None) -> List[Cell]:
    """The whole product, collapsed, in registry and axis order."""
    names = list(SCENARIOS) if scenarios is None else scenarios
    cells = {collapse(Cell(name, *point)): None
             for name in names for point in itertools.product(*AXES.values())}
    return list(cells)


def pairs(cell: Cell):
    """Every pair of axis values the cell covers, scenario included."""
    return set(itertools.combinations(zip(Cell._fields, cell), 2))


def opposite(scenario: str) -> Cell:
    """Every axis at its last value: compiled, forked, a warm cache, a
    resumed journal, telemetry, second call of a minimized repair."""
    return Cell(scenario, *(values[-1] for values in AXES.values()))


@functools.lru_cache(maxsize=None)
def tier1_cells() -> Tuple[Cell, ...]:
    """A pairwise-covering subset of :func:`full_cells`.

    Each scenario gets two cells, its oracle's (diagnose, minimize off)
    and :func:`opposite`, which pair it with every axis value.  The
    pairs among the other axes are then covered greedily on the first
    scenario: each step takes the cell covering the most uncovered
    pairs, ties to the earlier cell in product order.
    """
    chosen = [cell for name in SCENARIOS for cell in (
        Cell(name, *(values[0] for values in AXES.values())),
        opposite(name))]
    uncovered = set().union(*map(pairs, full_cells()))
    uncovered -= set().union(*map(pairs, chosen))
    candidates = full_cells(list(SCENARIOS)[:1])
    while uncovered:
        best = max(candidates, key=lambda cell: len(pairs(cell) & uncovered))
        chosen.append(best)
        uncovered -= pairs(best)
    return tuple(chosen)


class Observed(NamedTuple):
    canonical: str
    replays: int
    metrics: Dict
    spans: Tuple[str, ...]

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


# Answers observed in this process; the names and twin checks reuse them.
_RUNS: Dict[Cell, List[Observed]] = {}


def run_cell(scenario, engine, replay_cache, cache, resume, telemetry, op,
             minimize, call) -> Observed:
    """Drive one cell through a real Session.

    ``cache`` warms a :class:`ReplayCache` in a prior Session and hands
    it to the observed one; ``resume`` resumes the journal that prior
    Session wrote (otherwise the journal is fresh).  ``call`` is the
    first or second ``op`` call on the observed Session.  Every call's
    answer is kept, so a first call already observed is not re-run.
    """
    cell = collapse(Cell(scenario, engine, replay_cache, cache, resume,
                         telemetry, op, minimize, call))
    key = cell._replace(call=0)
    if len(_RUNS.get(key, ())) < call:
        _RUNS[key] = _drive(cell)
    return _RUNS[key][call - 1]


def _drive(cell: Cell) -> List[Observed]:
    opener = {**SCENARIOS, **FULL_ONLY}[cell.scenario]
    # The journal's fsyncs guard against power loss, which no cell
    # models (the kill-and-resume suites keep them); they would cost a
    # third of the matrix's wall time.
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(os, "fsync"):
        journal = os.path.join(scratch, "diagnosis.journal")
        knobs = dict(engine=cell.engine, replay_cache=cell.replay_cache,
                     minimize=cell.minimize, journal=journal,
                     cache=ReplayCache() if cell.cache else None)
        if cell.cache or cell.resume:
            with opener(**knobs) as prior:
                getattr(prior, cell.op)()
            if not cell.resume:
                os.remove(journal)
        observed = []
        with opener(resume=cell.resume, telemetry=cell.telemetry,
                    **knobs) as session:
            for _ in range(cell.call):
                report = getattr(session, cell.op)()
                tracer = cell.telemetry and session.telemetry.tracer
                observed.append(Observed(
                    report.canonical_json(), report.replays,
                    (report.telemetry or {}).get("metrics", {}),
                    tuple(sorted({span.name for span in tracer.iter_spans()}
                                 if tracer else ())),
                ))
    return observed
