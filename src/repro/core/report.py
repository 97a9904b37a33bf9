"""Diagnosis reports: what DiffProv hands back to the operator.

A report either carries the root-cause changes Δ(B→G), or a typed
failure in the taxonomy of Section 4.7 (seed-type mismatch, immutable
change required, non-invertible computation) together with enough
context for the operator to pick a better reference event.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..datalog.tuples import Tuple
from ..errors import (
    DeadlineExceeded,
    DiagnosisFailure,
    ImmutableChangeRequired,
    NonInvertibleError,
    SeedTypeMismatch,
)
from ..replay.replayer import Change

__all__ = [
    "RoundInfo",
    "DiagnosisReport",
    "FAILURE_CATEGORIES",
    "CONFIDENCE_LEVELS",
]

FAILURE_CATEGORIES = (
    "seed-type-mismatch",
    "immutable-change-required",
    "non-invertible",
    "stuck",
    "max-rounds",
    "deadline-exceeded",
)

# Confidence annotations for root-cause candidates, best first.
# "confirmed" — the aligned trees were fully verified; "likely" — the
# diagnosis succeeded but some provenance was missing (lost log events
# or unreachable partitions), so verification was partial; "uncertain"
# — the change was proposed on a path the diagnosis could not complete.
CONFIDENCE_LEVELS = ("confirmed", "likely", "uncertain")

_CONFIDENCE_RANK = {level: rank for rank, level in enumerate(CONFIDENCE_LEVELS)}


class RoundInfo:
    """One roll-back/roll-forward round of the DiffProv loop."""

    __slots__ = ("number", "divergence", "expected", "changes")

    def __init__(
        self,
        number: int,
        divergence: Optional[Tuple],
        expected: Optional[Tuple],
        changes: Sequence[Change],
    ):
        self.number = number
        self.divergence = divergence
        self.expected = expected
        self.changes = list(changes)

    def __repr__(self):
        return (
            f"RoundInfo(#{self.number}, divergence={self.divergence}, "
            f"{len(self.changes)} changes)"
        )


class DiagnosisReport:
    """The outcome of one differential provenance query."""

    def __init__(
        self,
        success: bool,
        changes: Sequence[Change],
        rounds: Sequence[RoundInfo],
        failure: Optional[Exception] = None,
        timings: Optional[Dict[str, float]] = None,
        good_tree_size: int = 0,
        bad_tree_size: int = 0,
        good_seed: Optional[Tuple] = None,
        bad_seed: Optional[Tuple] = None,
        replays: int = 0,
        verified: bool = False,
        degraded: bool = False,
        confidences: Optional[Sequence[str]] = None,
        unknown_subtrees: Sequence[Tuple] = (),
        distributed_stats: Optional[Dict[str, object]] = None,
        lost_events: int = 0,
        telemetry: Optional[Dict[str, object]] = None,
        resilience: Optional[Dict[str, object]] = None,
        repair: Optional[Dict[str, object]] = None,
    ):
        self.success = success
        self.changes = list(changes)
        self.rounds = list(rounds)
        self.failure = failure
        self.timings = dict(timings or {})
        self.good_tree_size = good_tree_size
        self.bad_tree_size = bad_tree_size
        self.good_seed = good_seed
        self.bad_seed = bad_seed
        self.replays = replays
        self.verified = verified
        # Degradation surface: set only when faults were in play.
        self.degraded = degraded
        self.confidences = list(confidences) if confidences is not None else None
        self.unknown_subtrees = list(unknown_subtrees)
        self.distributed_stats = dict(distributed_stats or {})
        # Recorder events the persisted graph lost; the differ recovers
        # them by replaying the lossless event log, but the count stays
        # visible so the operator knows the graph was reconstructed.
        self.lost_events = lost_events
        # Telemetry section (see repro.observability): a dict with
        # "metrics" (deterministic counts), "phases" (per-phase wall
        # time from the span tree), and "spans".  None when the
        # diagnosis ran without telemetry.
        self.telemetry = telemetry
        # Resilience section (docs/resilience.md): journal path and
        # resume savings, quarantined cache snapshots, deadline slack.
        # None when no resilience machinery was active.  Like
        # timings/telemetry it describes *how* the diagnosis ran and is
        # excluded from canonical_dict() — a resumed run differs here
        # (candidates skipped) while its canonical report stays
        # byte-identical.
        self.resilience = resilience
        # Rollback-planning section (repro.repair, docs/repair.md):
        # ranked, replay-verified fix plans plus the rejected
        # candidates.  Unlike timings/telemetry/resilience it is a
        # *conclusion*, so it IS part of canonical_dict() and must be
        # byte-identical across cache × resume.  None when
        # planning was not requested.
        self.repair = repair

    # -- derived views -----------------------------------------------------

    @property
    def num_changes(self) -> int:
        """Size of the diagnosis — the "DiffProv" row of Table 1."""
        return len(self.changes)

    @property
    def changes_per_round(self) -> List[int]:
        return [len(r.changes) for r in self.rounds if r.changes]

    @property
    def failure_category(self) -> Optional[str]:
        if self.success:
            return None
        if isinstance(self.failure, DeadlineExceeded):
            return "deadline-exceeded"
        if isinstance(self.failure, SeedTypeMismatch):
            return "seed-type-mismatch"
        if isinstance(self.failure, ImmutableChangeRequired):
            return "immutable-change-required"
        if isinstance(self.failure, NonInvertibleError):
            return "non-invertible"
        if isinstance(self.failure, DiagnosisFailure):
            return "stuck"
        return "max-rounds" if self.failure is None else "stuck"

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    @property
    def reasoning_seconds(self) -> float:
        """Time in DiffProv proper, excluding replay and tree queries."""
        return sum(
            seconds
            for key, seconds in self.timings.items()
            if key not in ("replay", "query")
        )

    def root_causes(self) -> List[str]:
        return [change.describe() for change in self.changes]

    def candidates(self) -> List:
        """Root-cause candidates as ``(change, confidence)``, best first.

        Without fault injection every change of a successful diagnosis
        is ``confirmed`` (and ``uncertain`` on failure); under faults
        the per-change annotations computed by the differ are used.
        The sort is stable, so equal-confidence candidates keep their
        discovery order.
        """
        if self.confidences is not None and len(self.confidences) == len(
            self.changes
        ):
            confidences = list(self.confidences)
        else:
            default = "confirmed" if self.success else "uncertain"
            confidences = [default] * len(self.changes)
        ranked = sorted(
            zip(self.changes, confidences),
            key=lambda pair: _CONFIDENCE_RANK.get(pair[1], len(CONFIDENCE_LEVELS)),
        )
        return ranked

    def canonical_dict(self) -> Dict[str, object]:
        """The report's deterministic content, as plain JSON types.

        This is the determinism contract of the replay cache, the
        engine backends and journal resume (docs/performance.md):
        everything here is byte-identical across them.  Wall-clock
        ``timings`` and the ``telemetry`` section are deliberately
        excluded — they measure *how* the diagnosis ran, not what it
        concluded.
        """
        return {
            "success": self.success,
            "failure_category": self.failure_category,
            "failure": None if self.failure is None else str(self.failure),
            "changes": [
                {"change": change.describe(), "reason": change.reason}
                for change in self.changes
            ],
            "rounds": [
                {
                    "number": info.number,
                    "divergence": _text(info.divergence),
                    "expected": _text(info.expected),
                    "changes": [change.describe() for change in info.changes],
                }
                for info in self.rounds
            ],
            "good_tree_size": self.good_tree_size,
            "bad_tree_size": self.bad_tree_size,
            "good_seed": _text(self.good_seed),
            "bad_seed": _text(self.bad_seed),
            "replays": self.replays,
            "verified": self.verified,
            "degraded": self.degraded,
            "confidences": (
                None if self.confidences is None else list(self.confidences)
            ),
            "unknown_subtrees": [str(t) for t in self.unknown_subtrees],
            "distributed_stats": {
                side: repr(stats)
                for side, stats in sorted(self.distributed_stats.items())
            },
            "lost_events": self.lost_events,
            "repair": self.repair,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = []
        annotate = self.degraded and self.confidences is not None
        if self.success:
            lines.append(
                f"DiffProv identified {self.num_changes} root-cause "
                f"change(s) in {len(self.rounds)} round(s):"
            )
            for index, change in enumerate(self.changes):
                suffix = ""
                if annotate and index < len(self.confidences):
                    suffix = f" [confidence: {self.confidences[index]}]"
                lines.append(f"  - {change.describe()}{suffix}")
            if self.verified:
                lines.append("  (verified: applying the changes aligns the trees)")
        else:
            lines.append(f"DiffProv failed: {self.failure_category}")
            if self.failure is not None:
                lines.append(f"  {self.failure}")
            if self.changes:
                lines.append("  attempted changes so far:")
                for index, change in enumerate(self.changes):
                    suffix = ""
                    if annotate and index < len(self.confidences):
                        suffix = f" [confidence: {self.confidences[index]}]"
                    lines.append(f"  - {change.describe()}{suffix}")
        if self.degraded:
            lines.append(
                f"  DEGRADED: {len(self.unknown_subtrees)} subtree(s) "
                f"UNKNOWN (lost or unreachable provenance)"
            )
            for tup in self.unknown_subtrees:
                lines.append(f"    ? {tup}")
            if self.lost_events:
                lines.append(
                    f"  {self.lost_events} logged provenance event(s) were "
                    f"lost; the graph was recovered by replaying the event log"
                )
        # Distribution accounting is attached on every run (healthy
        # queries show their fetch counts too, not just degraded ones).
        for side in sorted(self.distributed_stats):
            lines.append(
                f"  distributed[{side}]: {self.distributed_stats[side]!r}"
            )
        lines.append(
            f"  trees: good={self.good_tree_size} vertexes, "
            f"bad={self.bad_tree_size} vertexes; "
            f"seeds: {self.good_seed} / {self.bad_seed}"
        )
        lines.extend(self._repair_lines())
        lines.extend(self._resilience_lines())
        lines.extend(self._phase_lines())
        return "\n".join(lines)

    def _repair_lines(self) -> List[str]:
        section = self.repair
        if not section:
            return []
        status = section.get("status")
        if status != "ok":
            return [f"  repair: {status} (no plans)"]
        plans = section.get("plans") or []
        rejected = section.get("rejected") or []
        lines = [
            f"  repair: {len(plans)} verified plan(s), "
            f"{len(rejected)} rejected, "
            f"{section.get('probes', 0)} good probe(s) held "
            f"({section.get('replays', 0)} verification replay(s))"
        ]
        for plan in plans:
            lines.append(
                f"    #{plan.get('rank')} [{plan.get('origin')}] "
                f"edit={plan.get('edit_size')} "
                f"blast={plan.get('blast_radius')}"
            )
            for step in plan.get("steps", ()):
                lines.append(f"       {step}")
        for entry in rejected:
            lines.append(
                f"    rejected [{entry.get('origin')}]: {entry.get('reason')}"
            )
        return lines

    def _resilience_lines(self) -> List[str]:
        section = self.resilience or {}
        if not section:
            return []
        lines = ["  resilience:"]
        journal = section.get("journal")
        if journal:
            detail = f"journal {journal.get('path')}"
            if journal.get("resumed"):
                detail += (
                    f" (resumed; {journal.get('skipped_candidates', 0)} "
                    f"candidate(s) skipped)"
                )
            lines.append(f"    {detail}")
        cache = section.get("cache")
        if cache:
            lines.append(
                f"    cache: {cache.get('corrupt', 0)} corrupt snapshot(s) "
                f"quarantined"
            )
        deadline = section.get("deadline")
        if deadline:
            state = (
                "EXPIRED" if deadline.get("expired")
                else f"{deadline.get('slack_s')}s slack"
            )
            lines.append(
                f"    deadline: {deadline.get('seconds')}s budget, {state}"
            )
        return lines

    def _phase_lines(self) -> List[str]:
        """Human-readable per-phase breakdown (telemetry runs only).

        Tolerant of sparse entries: a phase that recorded zero spans
        (or a partially filled dict from a degraded run) renders with
        zeros instead of raising.
        """
        phases = (self.telemetry or {}).get("phases") or []
        rows = [
            {
                "name": str(p.get("name", "?")),
                "seconds": float(p.get("seconds") or 0.0),
                "count": int(p.get("count") or 0),
            }
            for p in phases
            if isinstance(p, dict)
        ]
        if not rows:
            return []
        lines = ["  phase breakdown:"]
        width = max((len(p["name"]) for p in rows), default=0)
        # Shares are relative to the root diagnosis span (nested spans
        # overlap, so a plain sum would double-count).
        total = next(
            (p["seconds"] for p in rows if p["name"] == "diffprov.diagnose"),
            None,
        )
        if total is None:
            total = sum(p["seconds"] for p in rows)
        for p in rows:
            share = (p["seconds"] / total * 100.0) if total else 0.0
            lines.append(
                f"    {p['name']:<{width}}  {p['seconds']:>10.6f}s  "
                f"x{p['count']:<4d} {share:5.1f}%"
            )
        return lines

    def __repr__(self):
        state = "success" if self.success else f"failure:{self.failure_category}"
        return f"DiagnosisReport({state}, {self.num_changes} changes)"


def _text(value) -> Optional[str]:
    return None if value is None else str(value)
