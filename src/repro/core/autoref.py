"""Automatic reference-event discovery (Section 4.9, future work).

The paper relies on the operator to supply the reference event but
notes that the process could be automated, inspired by ATPG's test
packets and Everflow's guided probes.  This module implements the
search: given the bad event, it proposes candidate reference events
from the provenance graph — same event type, similar headers, different
outcome — ranks them by similarity, and runs DiffProv against each
until a diagnosis succeeds with a non-empty Δ.

Candidates that align with *zero* changes are skipped: they are events
the network already treats consistently with the bad one, so they
cannot explain the anomaly (they are the "events we knew were suitable
references" the paper filters the other way around in Section 6.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..datalog.tuples import Tuple
from ..faults import FaultInjector
from ..replay.parallel import CandidateEvaluator
from ..resilience import Deadline
from .diffprov import DiffProv, DiffProvOptions, _replay_cache_scope
from .report import DiagnosisReport

__all__ = ["ReferenceCandidate", "AutoReferenceResult", "auto_diagnose",
           "propose_references", "propose_stream_references"]


class ReferenceCandidate:
    """A candidate reference event with its similarity score."""

    __slots__ = ("event", "score")

    def __init__(self, event: Tuple, score: float):
        self.event = event
        self.score = score

    def __repr__(self):
        return f"ReferenceCandidate({self.event}, score={self.score:.2f})"


class AutoReferenceResult:
    """Outcome of an automatic reference search."""

    __slots__ = ("report", "reference", "tried", "resilience")

    def __init__(
        self,
        report: Optional[DiagnosisReport],
        reference: Optional[Tuple],
        tried: Sequence[ReferenceCandidate],
        resilience=None,
    ):
        self.report = report
        self.reference = reference
        self.tried = list(tried)
        # Sweep-level resilience section (journal resume savings,
        # deadline expiry, evaluator healing); None when inactive.
        self.resilience = resilience

    @property
    def found(self) -> bool:
        return self.report is not None and self.report.success

    @property
    def stopped_early(self) -> bool:
        """Whether the sweep was cut short by the deadline."""
        return bool((self.resilience or {}).get("stopped_early"))

    def __repr__(self):
        state = f"reference={self.reference}" if self.found else "no reference"
        return f"AutoReferenceResult({state}, tried={len(self.tried)})"


def similarity(bad_event: Tuple, candidate: Tuple) -> float:
    """Field-agreement score between two same-table events.

    Equal fields score 1 each; the paper's guidance is "as similar as
    possible" *but with a different outcome*, so identical tuples are
    excluded by the caller.
    """
    return sum(
        1.0 for a, b in zip(bad_event.args, candidate.args) if a == b
    )


def propose_references(
    graph, bad_event: Tuple, limit: int = 10
) -> List[ReferenceCandidate]:
    """Ranked candidate reference events from a provenance graph.

    Candidates share the bad event's table (the same kind of outcome)
    but are distinct tuples; ranking is by header similarity, ties
    broken deterministically.
    """
    candidates = []
    for tup in graph.live_tuples(bad_event.table):
        if tup == bad_event or tup.arity != bad_event.arity:
            continue
        candidates.append(ReferenceCandidate(tup, similarity(bad_event, tup)))
    candidates.sort(key=lambda c: (-c.score, str(c.event)))
    return candidates[:limit]


def propose_stream_references(
    graph, bad_event: Tuple, healthy: Sequence[Tuple], limit: int = 10
) -> List[ReferenceCandidate]:
    """The streaming generalization of :func:`propose_references`.

    An online monitor knows more than a provenance graph does: each
    probe in the current window carries an *observed* outcome, so the
    good reference should come from events the network itself reported
    healthy — not merely events that look similar.  Candidates are the
    graph's live same-table tuples restricted to ``healthy`` (observed
    order, oldest first); ranking is by header similarity as in the
    offline search, with ties broken by *recency* — the freshest
    healthy observation is the best stand-in for "how the service
    behaves right now" — then deterministically by text.
    """
    order = {}
    for index, event in enumerate(healthy):
        order[event] = index  # the latest observation of a tuple wins
    candidates = []
    for tup in graph.live_tuples(bad_event.table):
        if tup == bad_event or tup.arity != bad_event.arity:
            continue
        if tup not in order:
            continue
        candidates.append(ReferenceCandidate(tup, similarity(bad_event, tup)))
    candidates.sort(key=lambda c: (-c.score, -order[c.event], str(c.event)))
    return candidates[:limit]


def _probe_reference(shared, index):
    """Worker-side diagnosis of one candidate reference.

    Runs on a pickled clone of the executions (telemetry stripped);
    the returned report is what a serial diagnosis of the same
    candidate would produce, minus the telemetry section.
    """
    program, good_execution, bad_execution, bad_event, options, events = shared
    debugger = DiffProv(program, options)
    return debugger.diagnose(
        good_execution, bad_execution, events[index], bad_event
    )


def auto_diagnose(
    program,
    good_execution,
    bad_execution,
    bad_event: Tuple,
    options: Optional[DiffProvOptions] = None,
    limit: int = 10,
    workers: Optional[int] = None,
) -> AutoReferenceResult:
    """Diagnose ``bad_event`` without an operator-supplied reference.

    ``good_execution`` is where references are searched for — typically
    the same execution as the bad one (partial failures) or an earlier
    one (sudden failures).  Returns the first successful diagnosis with
    a non-empty Δ, together with every candidate that was tried.

    ``workers`` (default: ``options.workers``) > 1 evaluates candidate
    diagnoses speculatively in waves of that size on a process pool.
    Results are consumed in ranking order and the sweep stops at the
    first success, so the chosen reference, its report, and the tried
    list are identical to the serial sweep — candidates beyond the
    winner are discarded unread (docs/performance.md).
    """
    debugger = DiffProv(program, options)
    opts = debugger.options
    if workers is None:
        workers = getattr(opts, "workers", 1) or 1
    journal = getattr(opts, "journal", None)
    # Normalize the budget once so every candidate diagnosis shares the
    # sweep's end-to-end deadline (a raw seconds value would otherwise
    # restart per candidate); the original options value is restored.
    saved_deadline = getattr(opts, "deadline", None)
    deadline = Deadline.of(saved_deadline)
    opts.deadline = deadline
    try:
        graph = good_execution.graph
        candidates = propose_references(graph, bad_event, limit)
        tried: List[ReferenceCandidate] = []
        stopped_early = False
        if (
            workers > 1
            and len(candidates) > 1
            and not (journal is not None and journal.has_verdicts)
        ):
            # Shipped inside the scope, the executions keep
            # fork_replays: each worker serves every candidate it
            # diagnoses from one live base per execution.
            with _replay_cache_scope(opts, good_execution, bad_execution):
                result = _auto_diagnose_parallel(
                    program, good_execution, bad_execution, bad_event,
                    opts, candidates, workers, journal, deadline,
                )
            if result is not None:
                return result
            # Unpicklable context: fall through to the serial sweep.
        # One live base per execution serves the whole sweep: every
        # candidate diagnosis replays the same logs, so later candidates
        # fork off what the first one derived.
        with _replay_cache_scope(opts, good_execution, bad_execution):
            for candidate in candidates:
                if deadline is not None and deadline.expired:
                    stopped_early = True
                    break
                key = str(candidate.event)
                if journal is not None:
                    verdict = journal.lookup("autoref", key)
                    if verdict is False:
                        # A previous run already diagnosed and rejected
                        # this candidate; skip its whole diagnosis.  A
                        # recorded winner is re-diagnosed fresh — its
                        # report is needed, and re-running it yields
                        # the byte-identical one.
                        tried.append(candidate)
                        continue
                tried.append(candidate)
                report = debugger.diagnose(
                    good_execution, bad_execution, candidate.event, bad_event
                )
                accepted = report.success and report.num_changes > 0
                if journal is not None:
                    journal.record("autoref", key, accepted)
                if accepted:
                    return AutoReferenceResult(
                        report, candidate.event, tried,
                        resilience=_sweep_resilience(
                            journal, deadline, stopped_early
                        ),
                    )
        return AutoReferenceResult(
            None, None, tried,
            resilience=_sweep_resilience(journal, deadline, stopped_early),
        )
    finally:
        opts.deadline = saved_deadline


def _auto_diagnose_parallel(
    program, good_execution, bad_execution, bad_event, options,
    candidates, workers, journal=None, deadline=None,
) -> Optional[AutoReferenceResult]:
    """Speculative wave evaluation of the candidate sweep.

    Each wave diagnoses the next ``workers`` candidates concurrently;
    the results are read in ranking order and the first success wins,
    exactly as in the serial sweep.  Returns None when the executions
    cannot be shipped to workers.
    """
    telemetry = getattr(options, "telemetry", None) if options else None
    plan = getattr(options, "faults", None) if options else None
    evaluator = CandidateEvaluator(
        workers,
        telemetry,
        policy=getattr(options, "resilience", None) if options else None,
        faults=(
            FaultInjector(plan, "evaluator")
            if plan is not None and plan.worker_crash > 0.0
            else None
        ),
    )
    events = [candidate.event for candidate in candidates]
    shared = (program, good_execution, bad_execution, bad_event, options,
              events)
    tried: List[ReferenceCandidate] = []
    stopped_early = False

    def _result(report, reference):
        return AutoReferenceResult(
            report, reference, tried,
            resilience=_sweep_resilience(
                journal, deadline, stopped_early, evaluator
            ),
        )

    for wave_start in range(0, len(candidates), workers):
        if deadline is not None and deadline.expired:
            stopped_early = True
            break
        wave = candidates[wave_start : wave_start + workers]
        results = evaluator.evaluate(
            _ProbeWindow(_probe_reference, wave_start), shared, len(wave)
        )
        if results is None:
            return None if not tried else _result(None, None)
        for candidate, (status, value) in zip(wave, results):
            tried.append(candidate)
            if status == "err":
                raise value
            accepted = value.success and value.num_changes > 0
            if journal is not None:
                journal.record("autoref", str(candidate.event), accepted)
            if accepted:
                return _result(value, candidate.event)
    return _result(None, None)


def _sweep_resilience(journal, deadline, stopped_early, evaluator=None):
    """Sweep-level resilience section; None when nothing was active."""
    section: dict = {}
    if journal is not None:
        section["journal"] = {
            "path": journal.path,
            "resumed": journal.resumed,
            "skipped_candidates": journal.skipped,
            "entries_written": journal.writes,
        }
    if evaluator is not None:
        counters = {k: v for k, v in evaluator.counters().items() if v}
        if counters:
            section["evaluator"] = counters
    if deadline is not None:
        section["deadline"] = {
            "seconds": deadline.seconds,
            "expired": deadline.expired,
            "slack_s": round(deadline.timeout(), 3),
        }
    if stopped_early:
        section["stopped_early"] = True
    return section or None


class _ProbeWindow:
    """Offsets a probe's job index into a larger candidate list, so
    every wave can share one ``shared`` tuple holding all candidates."""

    __slots__ = ("func", "offset")

    def __init__(self, func, offset: int):
        self.func = func
        self.offset = offset

    def __call__(self, shared, index: int):
        return self.func(shared, index + self.offset)
