"""The run harness: what records and bounds a diagnosis, around Section 4.

:mod:`repro.core.diffprov` is the paper's algorithm.  Everything that
is a recording *of* a run, or a bound *on* it, lives here instead: the
write-ahead journal, the end-to-end deadline, the telemetry span tree
and metric fold, the fault plan's host-side injectors, the caller's
replay cache, and the rollback planner's invocation.  Two pieces:

- :class:`RunContext` — one per ``diagnose()`` / ``auto_diagnose()``
  call (a stand-alone :class:`~repro.repair.RollbackPlanner` gets one
  built from default options), built from the call's
  :class:`DiffProvOptions`.
- :meth:`RunContext.sweep` — the one candidate loop.  The minimality
  pass, the reference search and rollback-plan verification all
  evaluate a list of independent candidates and consume the verdicts
  *in serial order*; the sweep owns how a verdict is obtained and
  accounted for, the caller's loop body owns what to do with it.

Candidates are evaluated one at a time, in this process, on the live
objects: each is an O(Δ) checkpoint/rollback on the execution's replay
base (docs/performance.md, "Why there is no candidate pool").
"""

from __future__ import annotations

import hashlib
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Dict, Iterator, Optional, Sequence, Tuple as PyTuple

from ..errors import DeadlineExceeded, DiagnosisFailure, FaultError, ReproError
from ..faults import FaultInjector
from ..observability import active as _active_telemetry
from ..provenance.distributed import PartitionedProvenance
from ..resilience import Deadline

__all__ = ["RunContext"]


def _any_verdict(value) -> bool:
    return True


def _identity(value):
    return value


class RunContext:
    """Journal, deadline, telemetry, faults and cache of one run."""

    def __init__(self, options):
        self.options = options
        self.telemetry = _active_telemetry(options.telemetry)
        self.journal = options.journal
        self.deadline = Deadline.of(options.deadline)
        self.fault_plan = options.faults
        # The caller's ReplayCache seeding this run's replays, if any
        # (found attached to an execution by scope()).
        self.cache = None
        self.timings: Dict[str, float] = {}
        # Set when the budget ran out inside an optional phase
        # (minimize, repair) — the diagnosis itself still succeeds.
        self.expired_in: Optional[str] = None

    # ------------------------------------------------------------------
    # Scoping a run over its two executions.
    # ------------------------------------------------------------------

    @contextmanager
    def scope(self, good, bad):
        """Attach this run to both substrates for its duration.

        Each substrate's ``attached`` hook
        (:mod:`repro.replay.substrate`) attaches the run and restores
        what it replaced: deadline and telemetry everywhere, so every
        query-time replay checks the shared budget and lands in the
        run's span tree; on an engine execution also the forking switch
        and its live replay base, built by the first scope that forks,
        parked (last candidate rolled back) on every exit and dropped
        by a scope with forking off.  A
        :class:`~repro.replay.cache.ReplayCache` the caller attached
        (``Session(cache=)``, a service worker's warm cache) stays
        attached and becomes ``self.cache``; none is created, and
        ``options.replay_cache=False`` detaches it for the run.  The
        ``snapshot-corrupt`` fault kind arms it.
        """
        with ExitStack() as stack:
            for execution in [good] if good is bad else [good, bad]:
                stack.enter_context(execution.attached(self))
            cache, plan = self.cache, self.fault_plan
            if (
                cache is not None and cache.faults is None
                and plan is not None and plan.snapshot_corrupt > 0.0
            ):
                cache.faults = FaultInjector(plan, "snapshot")
                stack.callback(setattr, cache, "faults", None)
            yield self

    # ------------------------------------------------------------------
    # Phases: journal markers, budget checks, timings, spans.
    # ------------------------------------------------------------------

    def phase(self, name: str) -> None:
        """A phase boundary: journal it, then check the budget."""
        if self.journal is not None:
            self.journal.phase(name)
        self.check(name)

    def round(self, number: int, changes) -> None:
        """Journal a committed round and its explored change-set."""
        if self.journal is not None:
            self.journal.round(number, changes)

    def check(self, phase: str) -> None:
        """Raise :class:`DeadlineExceeded` if the run's budget is spent."""
        if self.deadline is not None:
            self.deadline.check(phase)

    def span(self, name: str, **attrs):
        """A telemetry span, or a no-op context yielding None."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(name, **attrs)

    @contextmanager
    def timed(self, key: str):
        """Accumulate wall time under ``report.timings[key]`` inside a
        ``diffprov.<key>`` span."""
        started = time.perf_counter()
        with self.span("diffprov." + key):
            try:
                yield
            finally:
                self.timings[key] = (
                    self.timings.get(key, 0.0) + time.perf_counter() - started
                )

    # ------------------------------------------------------------------
    # The candidate sweep.
    # ------------------------------------------------------------------

    def sweep(
        self,
        kind: str,
        probe,
        shared,
        count: int,
        *,
        keys: Optional[Sequence[str]] = None,
        journaled=_identity,
        reuse=_any_verdict,
        counter=None,
    ) -> Iterator[PyTuple[int, object]]:
        """Yield ``(index, verdict)`` for candidates ``0..count-1``.

        ``probe(shared, index)`` evaluates one candidate on the live
        objects.  The contract:

        - **Order.**  Verdicts are yielded in index order, one
          evaluation at a time; the consumer may stop early (or start a
          new sweep) and nothing past that point is evaluated or
          accounted for.  An exception the probe raised surfaces at its
          candidate's position.
        - **Journal.**  With ``keys`` (one per candidate) and a journal,
          a recorded verdict that ``reuse`` accepts is yielded *instead
          of* evaluating; every evaluated candidate's ``journaled(
          result)`` is recorded before it is yielded.
        - **Accounting.**  ``counter.replays`` grows by one per verdict
          yielded — journal hit or evaluation alike — so the count is
          identical across cache x resume.  The deadline is checked (as
          phase ``kind``) before each evaluation.
        """
        journal = self.journal if keys is not None else None
        for index in range(count):
            verdict = None
            if journal is not None:
                # A hit stands in for exactly one evaluation.
                verdict = journal.lookup(kind, keys[index])
                if verdict is not None and not reuse(verdict):
                    verdict = None
            if verdict is None:
                self.check(kind)
                verdict = probe(shared, index)
                if journal is not None:
                    journal.record(kind, keys[index], journaled(verdict))
            if counter is not None:
                counter.replays += 1
            yield index, verdict

    # ------------------------------------------------------------------
    # The initial provenance query.
    # ------------------------------------------------------------------

    def query_tree(self, graph, event, at, side: str):
        """Initial provenance query over the partitioned store.

        Every query goes through :class:`PartitionedProvenance`, so the
        distribution accounting (vertexes fetched, nodes contacted) is
        populated on healthy runs too, not just degraded ones.  Under a
        fault plan the fetches become fallible, and failures that would
        be uncaught crashes (root unreachable, event lost from the log)
        become typed diagnosis failures instead.  Returns ``(tree,
        stats)``.
        """
        telemetry = self.telemetry
        faults = (
            FaultInjector(self.fault_plan, f"fetch-{side}")
            if self.fault_plan is not None
            else None
        )
        partitioned = PartitionedProvenance(
            graph, faults=faults, telemetry=telemetry, deadline=self.deadline
        )
        with self.span("provenance.query", side=side, event=str(event)):
            try:
                tree, stats = partitioned.query(event, at)
            except (FaultError, ReproError) as exc:
                # Budget expiry is not a fault outcome — it reaches the
                # partial-report handler untranslated.
                if faults is None or isinstance(exc, DeadlineExceeded):
                    raise
                raise DiagnosisFailure(
                    f"{side} provenance could not be materialized under "
                    f"faults: {exc}"
                )
        if telemetry is not None:
            telemetry.fold_counters(
                f"distributed.{side}",
                {
                    "vertices_fetched": stats.vertices_fetched,
                    "cross_node_fetches": stats.cross_node_fetches,
                    "nodes_contacted": len(stats.nodes_contacted),
                    "timeouts": stats.timeouts,
                    "retries": stats.retries,
                    "failed_fetches": stats.failed_fetches,
                },
            )
            if faults is not None:
                faults.fold_into(telemetry)
        return tree, stats

    # ------------------------------------------------------------------
    # Rollback planning (repro.repair, docs/repair.md).
    # ------------------------------------------------------------------

    def maybe_repair(self, state, report) -> None:
        """Attach ranked, replay-verified rollback plans to the report.

        Runs only after a *successful* diagnosis with ``repair=True``.
        A degraded diagnosis (recovered provenance, UNKNOWN subtrees)
        yields a skipped section — its Δ is not trustworthy enough to
        plan fixes from.  Deadline expiry mid-planning degrades to
        "diagnosis only": the diagnosis itself still succeeds, with a
        repair section that says why it is empty.
        """
        if not self.options.repair or not report.success:
            return
        # Imported lazily: repro.repair imports this package.
        from ..repair import RollbackPlanner

        planner = RollbackPlanner(
            state.program,
            state.bad,
            good_event=state.good_event,
            bad_event=state.bad_event,
            changes=report.changes,
            anchor_index=state.anchor_index,
            run=self,
        )
        section = None
        status = "skipped-degraded"
        try:
            self.phase("repair")
            if not report.degraded:
                with self.timed("repair"):
                    section = planner.plan()
        except DeadlineExceeded:
            self.expired_in = "repair"
            status = "deadline-exceeded"
        report.repair = section or {
            "status": status,
            "probes": 0,
            "replays": planner.replays,
            "plans": [],
            "rejected": [],
        }
        if self.telemetry is not None:
            self.telemetry.fold_counters(
                "repair",
                {
                    "plans_verified": len(report.repair["plans"]),
                    "plans_rejected": len(report.repair["rejected"]),
                    "replays": report.repair["replays"],
                },
            )

    # ------------------------------------------------------------------
    # Closing a run: metrics, report sections, the journal's commit.
    # ------------------------------------------------------------------

    def finish(self, state, report):
        """Fold the run into ``report`` and commit it to the journal."""
        if self.telemetry is not None:
            self._fold_metrics(state)
            report.telemetry = self.telemetry.report_section()
        report.resilience = self.resilience_section()
        journal = self.journal
        if journal is not None and not journal.closed:
            sha = hashlib.sha256(
                report.canonical_json().encode("utf-8")
            ).hexdigest()
            journal.result(report.success, sha,
                           category=report.failure_category)
        return report

    def _fold_metrics(self, state) -> None:
        """Final deterministic counts for the diagnosis snapshot.

        Only counts go into the registry — never wall time — so two
        runs with the same seed produce byte-identical snapshots.
        """
        telemetry = self.telemetry
        telemetry.set_gauge("diffprov.good_tree_size", state.good_tree_size)
        telemetry.set_gauge("diffprov.bad_tree_size", state.bad_tree_size)
        telemetry.inc("diffprov.rounds", len(state.rounds))
        telemetry.inc("diffprov.replays", state.replays)
        telemetry.inc("diffprov.changes", len(state.changes))
        if state.unknowns:
            telemetry.inc("diffprov.unknown_subtrees", len(state.unknowns))
        if state.lost_log_events:
            telemetry.inc("recorder.lost_log_events", state.lost_log_events)
        if self.cache is not None:
            self.cache.fold_into(telemetry)
        if self.journal is not None:
            telemetry.set_gauge("journal.writes", self.journal.writes)
            telemetry.set_gauge("journal.skipped", self.journal.skipped)
        telemetry.set_gauge("log.good_bytes", state.good.log.total_bytes)
        telemetry.set_gauge("log.good_entries", len(state.good.log))
        telemetry.set_gauge("log.bad_bytes", state.bad.log.total_bytes)
        telemetry.set_gauge("log.bad_entries", len(state.bad.log))

    def resilience_section(
        self, stopped_early: bool = False
    ) -> Optional[Dict[str, object]]:
        """The ``resilience`` section of a report or a sweep result
        (None when nothing was active).

        Describes *how* the run survived, never what it concluded —
        excluded from the canonical report so resumed/degraded runs
        stay byte-comparable on their conclusions.
        """
        section: Dict[str, object] = {}
        if self.journal is not None:
            section["journal"] = {
                "path": self.journal.path,
                "resumed": self.journal.resumed,
                "skipped_candidates": self.journal.skipped,
                "entries_written": self.journal.writes,
            }
        if self.cache is not None and self.cache.corrupt:
            section["cache"] = {"corrupt": self.cache.corrupt}
        if self.deadline is not None:
            section["deadline"] = {
                "seconds": self.deadline.seconds,
                "expired": self.deadline.expired
                or self.expired_in is not None,
                "slack_s": round(self.deadline.timeout(), 3),
            }
            if self.expired_in is not None:
                section["deadline"]["expired_in"] = self.expired_in
        if stopped_early:
            section["stopped_early"] = True
        return section or None
