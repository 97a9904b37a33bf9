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
from ..errors import DeadlineExceeded
from .diffprov import DiffProv, DiffProvOptions
from .harness import RunContext
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
        # deadline expiry); None when inactive.
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
    """Diagnose the bad event against candidate reference ``index``."""
    program, good_execution, bad_execution, bad_event, run, events = shared
    return DiffProv(program, run.options).diagnose(
        good_execution, bad_execution, events[index], bad_event
    )


def _accepted(report: DiagnosisReport) -> bool:
    return report.success and report.num_changes > 0


def _rejected(verdict) -> bool:
    return verdict is False


def auto_diagnose(
    program,
    good_execution,
    bad_execution,
    bad_event: Tuple,
    options: Optional[DiffProvOptions] = None,
    limit: int = 10,
) -> AutoReferenceResult:
    """Diagnose ``bad_event`` without an operator-supplied reference.

    ``good_execution`` is where references are searched for — typically
    the same execution as the bad one (partial failures) or an earlier
    one (sudden failures).  Returns the first successful diagnosis with
    a non-empty Δ, together with every candidate that was tried.
    """
    opts = options or DiffProvOptions()
    run = RunContext(opts)
    # Every candidate diagnosis shares the sweep's end-to-end deadline
    # (a raw seconds value would otherwise restart per candidate); the
    # original options value is restored.
    saved_deadline = opts.deadline
    opts.deadline = run.deadline
    try:
        candidates = propose_references(
            good_execution.graph, bad_event, limit
        )
        events = [candidate.event for candidate in candidates]
        tried: List[ReferenceCandidate] = []
        report = reference = None
        stopped_early = False
        # One live base per execution serves the whole sweep: every
        # candidate diagnosis replays the same logs, so later candidates
        # fork off what the first one derived.
        with run.scope(good_execution, bad_execution):
            try:
                # A candidate a previous run diagnosed and *rejected* is
                # skipped outright; a recorded winner is re-diagnosed —
                # its report is needed, and re-running it yields the
                # byte-identical one.
                for index, verdict in run.sweep(
                    "autoref",
                    _probe_reference,
                    (program, good_execution, bad_execution, bad_event,
                     run, events),
                    len(events),
                    keys=[str(event) for event in events],
                    journaled=_accepted,
                    reuse=_rejected,
                ):
                    tried.append(candidates[index])
                    if not _rejected(verdict) and _accepted(verdict):
                        report, reference = verdict, events[index]
                        break
            except DeadlineExceeded:
                stopped_early = True
        return AutoReferenceResult(
            report, reference, tried,
            resilience=run.resilience_section(stopped_early),
        )
    finally:
        opts.deadline = saved_deadline
