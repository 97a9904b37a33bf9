"""Rollback plans: enumeration, counterfactual verification, ranking.

A :class:`RollbackPlan` is an ordered list of base-tuple
:class:`~repro.replay.replayer.Change` steps derived from a finished
diagnosis.  The planner enumerates a small deterministic candidate set
(revert-to-reference, per-change singletons, insert-only and
delete-only narrowings of each modification), verifies each candidate
by replaying the bad execution with the plan applied — forked off
the execution's live replay base when the plan's fork point allows —
and keeps only plans where the bad symptom is gone **and** every good
probe still holds (:mod:`repro.repair.probes`).

Survivors are ranked ascending by ``(edit size, blast radius, touched
tuples, plan key)``; the winner is the smallest fix that lands the
system closest to the verified reference world.  Verdicts are recorded
in the write-ahead journal (kind ``"repair"``), so a SIGKILL'd run
resumes without re-replaying, and the returned section is pure JSON —
it goes into ``report.repair`` and is part of the canonical report.

This module decides *which* tuples to revert; the changed values
themselves were synthesized during the diagnosis by
:mod:`repro.core.repair` (condition repair).  See the package
docstring and docs/repair.md for the split.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.harness import RunContext
from ..datalog.tuples import TableKind
from ..errors import ReproError, StepLimitExceeded
from ..replay.replayer import Change
from .probes import Baseline, derived_alive_state

__all__ = [
    "RollbackPlan",
    "RollbackPlanner",
    "MAX_PLANS",
    "MAX_LISTED_PROBES",
    "REJECT_SYMPTOM",
    "REJECT_PROBES",
    "REJECT_REPLAY",
]

# Enumeration cap: the candidate set is quadratic-free by construction
# (at most 1 + n + 2n plans for n changes), but a pathological
# diagnosis with dozens of changes should not replay dozens of plans.
MAX_PLANS = 16

# Failed probes listed per rejected plan (the full count is reported).
MAX_LISTED_PROBES = 5

# Rejection reasons (machine-readable, part of the canonical section).
REJECT_SYMPTOM = "symptom-persists"
REJECT_PROBES = "breaks-good-probes"
REJECT_REPLAY = "replay-failed"


class RollbackPlan:
    """One candidate fix: ordered base-tuple changes plus provenance.

    ``origin`` records how the plan was enumerated
    (``revert-to-reference``, ``single-change``, ``insert-missing``,
    ``delete-spurious``) — it is display metadata; plan identity (and
    journal keying) rests on the steps alone.
    """

    __slots__ = ("steps", "origin")

    def __init__(self, steps: Sequence[Change], origin: str):
        self.steps = list(steps)
        if not self.steps:
            raise ReproError("a RollbackPlan needs at least one step")
        self.origin = origin

    @property
    def edit_size(self) -> int:
        """Number of change steps — the primary ranking key."""
        return len(self.steps)

    @property
    def touched(self) -> int:
        """Base tuples the plan inserts or removes (tie-breaker)."""
        count = 0
        for step in self.steps:
            if step.insert is not None:
                count += 1
            count += len(step.remove)
        return count

    def describe_steps(self) -> List[str]:
        return [step.describe() for step in self.steps]

    def key(self) -> str:
        """Deterministic identity: the canonical step descriptions."""
        return "|".join(self.describe_steps())

    def __repr__(self):
        return f"RollbackPlan({self.origin}, {self.key()})"


def _probe_plan(shared, index):
    """Verify rollback plan ``index`` — the candidate probe of
    :meth:`RollbackPlanner.plan`."""
    planner, plans = shared
    return planner.verify(plans[index])


class RollbackPlanner:
    """Turn one successful diagnosis into ranked, replay-verified plans."""

    def __init__(
        self,
        program,
        bad,
        *,
        good_event,
        bad_event,
        changes: Sequence[Change],
        anchor_index: Optional[int],
        run: Optional[RunContext] = None,
    ):
        self.program = program
        self.bad = bad
        self.good_event = good_event
        self.bad_event = bad_event
        self.changes = list(changes)
        self.anchor_index = anchor_index
        # Journal, deadline, telemetry and candidate sweep of the
        # diagnosis this planner serves; inert when used stand-alone.
        self.run = run if run is not None else RunContext()
        # Logical replay accounting: +1 per verdict consumed whether it
        # came from a live replay, a snapshot restore, or a journal hit
        # — the count is part of the canonical section, so it must be
        # identical across cache × resume.
        self.replays = 0
        # prepare() reduces its two replays to these; no result is kept.
        self.probes = frozenset()
        self.baseline: Optional[Baseline] = None
        self.reference_delta = frozenset()
        self.reference_verdict: Dict[str, object] = {}
        self.counterparts: Dict = {}
        self._prepared = False

    # -- the pipeline ---------------------------------------------------------

    def plan(self) -> Dict[str, object]:
        """Enumerate, verify, and rank; returns the ``repair`` section.

        Raises :class:`~repro.errors.DeadlineExceeded` when the shared
        diagnosis budget runs out — the caller degrades the section to
        "diagnosis only" (docs/repair.md).
        """
        if not self.changes:
            return {
                "status": "no-changes",
                "probes": 0,
                "replays": 0,
                "plans": [],
                "rejected": [],
            }
        self.prepare()
        plans = self.enumerate()
        # Verdicts are independent of each other: every one is consumed.
        verdicts = [
            verdict
            for _, verdict in self.run.sweep(
                "repair",
                _probe_plan,
                (self, plans),
                len(plans),
                keys=[self._plan_key(plan) for plan in plans],
                reuse=lambda value: isinstance(value, dict),
                counter=self,
            )
        ]
        return self._section(plans, verdicts)

    def prepare(self) -> None:
        """Build the probe suite and the state baselines (2 replays).

        ``pristine`` is the bad log replayed unchanged; ``reference``
        is the bad log with the full diagnosis Δ applied — the world
        the diagnosis already verified.  Both are forks of the
        execution's live replay base inside a diagnosis, and both are
        dropped on return.  The reference replay doubles as the
        verification of the ``revert-to-reference`` plan, whose steps
        it just applied.
        """
        if self._prepared:
            return
        pristine = self.bad.replay()
        self.replays += 1
        # Everything read off ``pristine`` is reduced to tuple sets
        # before the next replay: a forked result is a view that the
        # execution's next replay invalidates.
        self.baseline = Baseline(pristine, self.program)
        pristine_derived = derived_alive_state(pristine, self.program)
        store = pristine.engine.store
        self.counterparts = {
            change.insert: self._counterparts(store, change.insert)
            for change in self.changes
            if change.insert is not None
        }
        del pristine, store
        self.run.check("repair")
        reference = self.bad.replay(self.changes, self.anchor_index)
        self.replays += 1
        # probe_suite(pristine, reference), one side at a time.
        self.probes = pristine_derived & derived_alive_state(
            reference, self.program
        )
        self.reference_delta = self.baseline.delta(reference)
        self.reference_verdict = self._verdict(reference, self.reference_delta)
        self._prepared = True

    def _counterparts(self, store, insert) -> List:
        """Live mutable base tuples exactly one field away from ``insert``.

        These are the entries the inserted tuple was synthesized *from*
        (condition repair changes one field at a time), i.e. the stale
        config the fix supersedes (SDN1: the 4.3.2.0/24 entry next to
        the inserted /23).  Such a tuple agrees with ``insert`` on
        argument 0 or 1, so two index lookups are a complete candidate
        set.  Sorted by rendering for deterministic plan order.
        """
        schema = self.program.schemas.get(insert.table)
        if schema is None or schema.kind == TableKind.EVENT or not schema.mutable:
            return []
        if insert.arity < 2:
            near = store.tuples(insert.table)
        else:
            first, second = insert.args[:2]
            near = store.tuples_matching(insert.table, 0, first) + [
                tup
                for tup in store.tuples_matching(insert.table, 1, second)
                if tup.args[0] != first
            ]
        out = [
            tup
            for tup in near
            if tup.arity == insert.arity
            and sum(1 for a, b in zip(tup.args, insert.args) if a != b) == 1
            and getattr(store.record(tup), "is_base", False)
        ]
        return sorted(out, key=str)

    def enumerate(self) -> List[RollbackPlan]:
        """The deterministic candidate set, deduplicated by step key.

        1. Revert-to-reference: the full diagnosis Δ in discovery
           order (blast radius 0 by construction; rejected like any
           other plan if the Δ does not clear the symptom — MR1-D).
        2. Single-change plans, when the diagnosis found several
           changes — maybe one alone already clears the symptom.
        3. Per modification, the insert-only narrowing (add the fixed
           entry, keep the old one) and the delete-only narrowing
           (remove the spurious entry, add nothing).
        4. Per inserted tuple, one *replace-stale* widening per stale
           counterpart (insert the fix AND retire the one-field-away
           config entry it supersedes) and the corresponding
           delete-only plan — which usually fails verification, and
           documents *why* in the rejected list.
        """
        self.prepare()
        plans: List[RollbackPlan] = []
        seen = set()

        def add(steps, origin) -> None:
            if len(plans) >= MAX_PLANS:
                return
            plan = RollbackPlan(steps, origin)
            if plan.key() in seen:
                return
            seen.add(plan.key())
            plans.append(plan)

        add(self.changes, "revert-to-reference")
        if len(self.changes) > 1:
            for change in self.changes:
                add([change], "single-change")
        for change in self.changes:
            if change.is_modification:
                add(
                    [Change(insert=change.insert, reason=change.reason)],
                    "insert-missing",
                )
                add(
                    [Change(remove=change.remove, reason=change.reason)],
                    "delete-spurious",
                )
        for change in self.changes:
            if change.insert is None:
                continue
            for stale in self.counterparts[change.insert]:
                reason = f"{stale} is superseded by {change.insert}"
                add(
                    [
                        Change(
                            insert=change.insert,
                            remove=(stale,),
                            reason=reason,
                        )
                    ],
                    "replace-stale",
                )
                add([Change(remove=(stale,), reason=reason)],
                    "delete-spurious")
        return plans

    def verify(self, plan: RollbackPlan) -> Dict[str, object]:
        """Counterfactually verify one plan; returns a JSON verdict.

        One replay of the bad log with the plan applied at the anchor;
        the verdict records whether the symptom ever appeared, which
        good probes failed, and the blast radius — the size of the
        symmetric difference between the plan's final state footprint
        and the reference's (0 = the plan lands exactly on the world
        the diagnosis verified).
        """
        if not self._prepared:
            self.prepare()
        if plan.steps == self.changes:
            # prepare() already replayed exactly this.
            return dict(self.reference_verdict)
        try:
            replayed = self.bad.replay(plan.steps, self.anchor_index)
        except StepLimitExceeded:
            # A partial rollback can in principle loop the replayed
            # system (e.g. a forwarding cycle); that rejects the plan,
            # it never kills the planner.
            return {
                "symptom_gone": False,
                "probes_failed": 0,
                "failed_probes": [],
                "blast_radius": -1,
                "error": "step-limit",
            }
        return self._verdict(replayed, self.baseline.delta(replayed))

    def _verdict(self, replayed, delta) -> Dict[str, object]:
        """Judge a replayed world by its delta against the pristine one:
        a probe (alive there) fails iff it is in the delta, and two
        footprints differ exactly where their deltas do."""
        symptom_gone = not replayed.graph.ever_existed(self.bad_event)
        failed = sorted(str(p) for p in self.probes & delta)
        return {
            "symptom_gone": bool(symptom_gone),
            "probes_failed": len(failed),
            "failed_probes": failed[:MAX_LISTED_PROBES],
            "blast_radius": len(delta ^ self.reference_delta),
        }

    def _plan_key(self, plan: RollbackPlan) -> str:
        """Journal key: the exact inputs of the verification replay.

        Namespaced by the queried events (an autoref sweep shares one
        journal across candidate diagnoses) and the anchor, like the
        minimality pass's trial keys.
        """
        return (
            f"{self.good_event}~{self.bad_event}"
            f"@{self.anchor_index}|{plan.key()}"
        )

    # -- ranking and the canonical section ------------------------------------

    def _section(self, plans, verdicts) -> Dict[str, object]:
        verified = []
        rejected = []
        for plan, verdict in zip(plans, verdicts):
            if verdict.get("error"):
                reason = REJECT_REPLAY
            elif not verdict["symptom_gone"]:
                reason = REJECT_SYMPTOM
            elif verdict["probes_failed"]:
                reason = REJECT_PROBES
            else:
                verified.append((plan, verdict))
                continue
            rejected.append(
                {
                    "origin": plan.origin,
                    "steps": plan.describe_steps(),
                    "reason": reason,
                    "probes_failed": verdict["probes_failed"],
                    "failed_probes": list(verdict["failed_probes"]),
                }
            )
        verified.sort(
            key=lambda pair: (
                pair[0].edit_size,
                pair[1]["blast_radius"],
                pair[0].touched,
                pair[0].key(),
            )
        )
        return {
            "status": "ok",
            "probes": len(self.probes),
            "replays": self.replays,
            "plans": [
                {
                    "rank": rank,
                    "origin": plan.origin,
                    "steps": plan.describe_steps(),
                    "edit_size": plan.edit_size,
                    "touched": plan.touched,
                    "blast_radius": verdict["blast_radius"],
                    "symptom_gone": True,
                    "good_probes_ok": True,
                }
                for rank, (plan, verdict) in enumerate(verified, 1)
            ],
            "rejected": rejected,
        }
