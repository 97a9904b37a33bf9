"""The DiffProv algorithm (Section 4 / Figure 3 of the paper).

The implementation follows the paper's three-step structure:

1. **FINDSEED** — locate the external stimuli of both trees and check
   that they have the same type (:mod:`repro.core.seeds`).
2. **Align** — walk the good tree's seed→root branch, predicting via
   taint formulas which tuples *should* exist in the bad execution; the
   first prediction that fails is the divergence (FIRSTDIV).
3. **MAKEAPPEAR / UPDATETREE** — use the good tree as a guide to make
   the missing tuple appear: repair failing conditions, insert missing
   mutable base tuples, remove selector blockers; then replay the bad
   log on a clone with the accumulated changes and repeat until the
   trees are equivalent.

Using the good tree as a guide reduces an exponential search over
combinations of base-tuple changes to a walk that is linear in the size
of the good tree (Section 4.7).

This file is the algorithm plus the degradation predicates interleaved
with it.  What records or bounds a run — journal, deadline, telemetry,
fault injectors, the candidate sweep — is :mod:`repro.core.harness`,
reached here only through ``self.run`` (docs/algorithm.md maps each
Section 4.x to its function).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..addresses import IPv4Address
from ..datalog.engine import match_atom
from ..datalog.expr import Call, Const, Var
from ..datalog.rules import Program, Rule
from ..datalog.state import sort_key
from ..datalog.tuples import TableKind, Tuple
from ..errors import (
    DeadlineExceeded,
    DiagnosisFailure,
    EvaluationError,
    ImmutableChangeRequired,
    NonInvertibleError,
    SeedTypeMismatch,
    StepLimitExceeded,
)
from ..provenance.query import provenance_query
from ..provenance.tree import TupleNode
from ..replay.execution import Execution
from ..replay.replayer import Change, ReplayResult
from .equivalence import EquivalenceRelation
from .harness import RunContext
from .repair import repair_condition
from .report import DiagnosisReport, RoundInfo
from .seeds import find_seed
from .taint import TaintAnnotation

__all__ = ["DiffProvOptions", "DiffProv"]


# A base tuple filling an expected tuple's slot is a competitor to
# remove with the insert; more than this many mean the slot is not
# functional, and removing them would change unrelated behaviour.
MAX_COMPETITORS = 3


@dataclass(slots=True)
class DiffProvOptions:
    """Tuning knobs; the defaults match the paper's prototype.

    ``enable_taint`` exists for the ablation benchmarks: without taint
    formulas DiffProv degenerates to a literal tree comparison.
    """

    max_rounds: int = 10
    enable_taint: bool = True
    # Section 4.9 ("Minimality"): Δ(B→G) is not necessarily minimal
    # because DiffProv only follows the good tree's derivations.  With
    # minimize=True a greedy post-pass drops every change whose removal
    # still leaves the trees aligned (one replay per candidate change).
    minimize: bool = False
    # Optional FaultPlan: the initial provenance queries go through
    # PartitionedProvenance with fallible fetches, and the differ
    # degrades gracefully instead of crashing on missing provenance.
    faults: object = None
    # Optional Telemetry: a span tree and metric counters covering
    # every phase of the diagnosis (see repro.observability).  None
    # (or a NullTelemetry) keeps every hot path uninstrumented.
    telemetry: object = None
    # Candidate replays fork off one live base per execution, and an
    # attached repro.replay.cache.ReplayCache seeds it; a pure
    # speed-up.  replay_cache=False makes every replay re-derive.
    replay_cache: bool = True
    # Optional DiagnosisJournal (repro.resilience): every phase
    # boundary, explored change-set, and candidate verdict is appended
    # and fsync'd, so a killed diagnosis resumes instead of restarting
    # (docs/resilience.md).
    journal: object = None
    # Optional end-to-end budget: None, seconds, or a Deadline.  Expiry
    # degrades the run to a partial report with the best-so-far
    # candidates.
    deadline: object = None
    # Rollback planning (repro.repair, docs/repair.md): after a
    # successful diagnosis, enumerate and replay-verify ranked fix
    # plans and attach them as report.repair.
    repair: bool = False


class DiffProv:
    """A differential provenance debugger for one NDlog program."""

    def __init__(self, program: Program, options: Optional[DiffProvOptions] = None):
        self.program = program
        self.options = options or DiffProvOptions()

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def diagnose(
        self,
        good: Execution,
        bad: Execution,
        good_event: Tuple,
        bad_event: Tuple,
        good_time: Optional[int] = None,
        bad_time: Optional[int] = None,
    ) -> DiagnosisReport:
        """Run the full DiffProv loop; never raises diagnosis failures —
        they come back as a typed failure report (Section 4.7)."""
        run = RunContext(self.options)
        state = _DiagnosisState(self.program, run, good, bad)
        with run.scope(good, bad):
            try:
                with run.span(
                    "diffprov.diagnose", good=good.name, bad=bad.name
                ) as root:
                    report = state.diagnose(
                        good_event, bad_event, good_time, bad_time
                    )
                    run.maybe_repair(state, report)
                    if root is not None:
                        root.set("success", report.success)
                        root.set("rounds", len(report.rounds))
            except (
                DeadlineExceeded,
                DiagnosisFailure,
                NonInvertibleError,
                StepLimitExceeded,
            ) as failure:
                report = state.report(False, failure)
            return run.finish(state, report)

    # Convenience: the vertex-count comparison used by Table 1.
    def tree_sizes(
        self,
        good: Execution,
        bad: Execution,
        good_event: Tuple,
        bad_event: Tuple,
    ):
        good_tree = provenance_query(good.graph, good_event)
        bad_tree = provenance_query(bad.graph, bad_event)
        return good_tree.size(), bad_tree.size()


def _probe_minimize_trial(shared, index):
    """Whether the trees still align under minimality trial ``index``.

    The candidate probe of :meth:`_DiagnosisState._minimize`.
    """
    state, path, good_root, anchor_index, trials = shared
    with state.run.timed("replay"):
        replayed = state.bad.replay(trials[index], anchor_index)
    anchor_time = state._anchor_time(replayed)
    with state.run.timed("minimize"):
        divergent = state._find_divergence(
            path, good_root, replayed, anchor_time
        )
    return divergent is None


class _DiagnosisState:
    """Mutable state of one diagnose() call."""

    def __init__(
        self, program: Program, run: RunContext, good: Execution, bad: Execution
    ):
        self.program = program
        # The run harness: journal, deadline, telemetry, candidate sweep.
        self.run = run
        self.good = good
        self.bad = bad
        self.changes: List[Change] = []
        self.rounds: List[RoundInfo] = []
        self.good_tree_size = 0
        self.bad_tree_size = 0
        self.good_seed: Optional[TupleNode] = None
        self.bad_seed: Optional[TupleNode] = None
        self.equiv: Optional[EquivalenceRelation] = None
        self.replays = 0
        # Degradation machinery (active only under a fault plan or a
        # lossy provenance graph).
        self.distributed_stats: Dict[str, object] = {}
        self.unknowns: List[Tuple] = []
        self._unknown_set: Set[Tuple] = set()
        self.assumed: Set[Tuple] = set()
        self.partial_verify = False
        self.recovered = False
        self.lost_log_events = 0
        # The queried events, recorded by diagnose(); they namespace
        # journal verdict keys so an autoref sweep (many diagnoses, one
        # journal) never cross-reads another candidate's verdicts.
        self.good_event: Optional[Tuple] = None
        self.bad_event: Optional[Tuple] = None
        # The bad seed's log anchor, recorded by diagnose() for the
        # post-diagnosis rollback planner (repro.repair).
        self.anchor_index: Optional[int] = None

    @property
    def options(self) -> DiffProvOptions:
        return self.run.options

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def diagnose(
        self, good_event, bad_event, good_time, bad_time
    ) -> DiagnosisReport:
        self.good_event = good_event
        self.bad_event = bad_event
        run = self.run
        run.phase("query")
        with run.timed("query"):
            good_result = self.good.materialize()
            if self.bad is self.good:
                bad_result = good_result
            else:
                bad_result = self.bad.materialize()
            self.lost_log_events = self._lost(good_result)
            if self.bad is not self.good:
                self.lost_log_events += self._lost(bad_result)
            if self.lost_log_events:
                # The persisted provenance is missing vertexes.  The
                # event log is lossless ground truth, so the debugger
                # reconstructs complete graphs by replay (Section 5's
                # query-time mode) and marks the diagnosis degraded:
                # it rests on recovered, not recorded, provenance.
                self.recovered = True
                good_result = self.good.replay()
                self.replays += 1
                if self.bad is self.good:
                    bad_result = good_result
                else:
                    bad_result = self.bad.replay()
                    self.replays += 1
            good_tree = self._query_tree(
                good_result.graph, good_event, good_time, "good"
            )
            bad_tree = self._query_tree(
                bad_result.graph, bad_event, bad_time, "bad"
            )
            self.good_tree_size = good_tree.size()
            self.bad_tree_size = bad_tree.size()

        run.phase("find_seed")
        with run.timed("find_seed"):
            self.good_seed = find_seed(good_tree.tuple_root)
            self.bad_seed = find_seed(bad_tree.tuple_root)
        self._check_seed_recoverable("good", self.good, self.good_seed)
        self._check_seed_recoverable("bad", self.bad, self.bad_seed)
        if (
            self.good_seed.tuple.table != self.bad_seed.tuple.table
            or self.good_seed.tuple.arity != self.bad_seed.tuple.arity
        ):
            raise SeedTypeMismatch(self.good_seed.tuple, self.bad_seed.tuple)

        with run.timed("divergence"):
            annotation = TaintAnnotation(
                self.program,
                good_tree.tuple_root,
                self.good_seed,
                enabled=self.options.enable_taint,
            )
            self.equiv = EquivalenceRelation(annotation, self.bad_seed.tuple)
        # Figure 3: "if s_G ≄ s_B then FAIL".  With taints enabled the
        # seeds are equivalent by definition (identity formulas); with
        # taints disabled literal comparison applies and alignment that
        # preserves s_B is impossible.
        if not self.equiv.tuples_equivalent(self.good_seed, self.bad_seed.tuple):
            raise DiagnosisFailure(
                f"seeds {self.good_seed.tuple} and {self.bad_seed.tuple} are "
                f"not equivalent under the equivalence relation; alignment "
                f"cannot preserve the bad seed"
            )

        path = self.good_seed.path_to_root()
        anchor_index = self.bad.log.index_of_insert(self.bad_seed.tuple)
        self.anchor_index = anchor_index
        replayed = bad_result

        # Rounds that produce changes count against max_rounds; under
        # degradation, rounds that merely *assume* an unverifiable
        # subtree aligned (no replay) are bounded separately so a long
        # lossy path cannot starve the change budget.
        rounds_used = 0
        iterations = 0
        iteration_cap = self.options.max_rounds * 10
        run.phase("rounds")
        while rounds_used < self.options.max_rounds:
            iterations += 1
            if iterations > iteration_cap:
                break
            run.check("rounds")
            anchor_time = self._anchor_time(replayed)
            with run.timed("divergence"):
                divergent = self._find_divergence(
                    path, good_tree.tuple_root, replayed, anchor_time
                )
            if divergent is None:
                if self.options.minimize and self.changes:
                    try:
                        run.phase("minimize")
                        self._minimize(path, good_tree.tuple_root,
                                       anchor_index)
                    except DeadlineExceeded:
                        # Out of budget mid-minimization: the change
                        # set is already a verified (if non-minimal)
                        # diagnosis, so report it rather than failing.
                        run.expired_in = "minimize"
                return self.report(True)
            with run.timed("make_appear"):
                new_changes: List[Change] = []
                self._make_appear(divergent, replayed, anchor_time, new_changes)
            if not new_changes and self._degradable(replayed):
                # Nothing to change, but the missing tuple may be an
                # artifact of lost provenance rather than a genuine
                # divergence: assume it aligned, mark it UNKNOWN, and
                # keep walking toward the root.
                expected = self.equiv.expected_tuple(divergent)
                if expected not in self.assumed:
                    self.assumed.add(expected)
                    self._note_unknown(expected)
                    continue
            rounds_used += 1
            self.rounds.append(
                RoundInfo(
                    rounds_used,
                    divergent.tuple,
                    self.equiv.expected_tuple(divergent),
                    new_changes,
                )
            )
            run.round(rounds_used, new_changes)
            if not new_changes:
                raise DiagnosisFailure(
                    f"no further changes found, but trees still diverge at "
                    f"{divergent.tuple} (expected "
                    f"{self.equiv.expected_tuple(divergent)}); the system may "
                    f"be non-deterministic at this point"
                )
            with run.timed("replay"):
                replayed = self.bad.replay(self.changes, anchor_index)
                self.replays += 1
        return self.report(False)

    # ------------------------------------------------------------------
    # Fault awareness / graceful degradation.
    # ------------------------------------------------------------------

    def _query_tree(self, graph, event, time, side):
        """Project one side's initial tree, noting what the query lost."""
        tree, stats = self.run.query_tree(graph, event, time, side)
        self.distributed_stats[side] = stats
        if stats.degraded:
            self.partial_verify = True
            for parent, child in stats.missing_subtrees:
                self._note_unknown(child)
        return tree

    def _check_seed_recoverable(self, side, execution, seed) -> None:
        """Reject seeds that are artifacts of a truncated tree.

        When a query lost subtrees to unreachable partitions, the
        deepest surviving node may be a *derived* tuple rather than the
        true external stimulus.  Aligning against it would predict
        nonsense (and a candidate change built from it can even send
        the replayed system into a loop), so the diagnosis fails with a
        typed report instead.
        """
        stats = self.distributed_stats.get(side)
        if stats is None or not getattr(stats, "degraded", False):
            return
        if execution.log.index_of_insert(seed.tuple) is None:
            raise DiagnosisFailure(
                f"the {side} provenance tree is truncated at an "
                f"unreachable partition and its external stimulus could "
                f"not be recovered ({seed.tuple} is not a logged base "
                f"event); restore connectivity or choose a reference "
                f"observed on a reachable path"
            )

    def _degradable(self, replayed) -> bool:
        """Whether missing provenance may be loss rather than truth.

        Keyed on *observed* loss — a lossy recorder or failed fetches —
        not on mere fault-plan presence, so a zero plan changes nothing
        (the zero-overhead-in-behaviour guarantee).
        """
        return self._lossy(replayed) or any(
            getattr(stats, "degraded", False)
            for stats in self.distributed_stats.values()
        )

    @staticmethod
    def _lossy(replayed) -> bool:
        recorder = getattr(replayed, "recorder", None)
        return bool(getattr(recorder, "lost_events", 0))

    @staticmethod
    def _lost(result) -> int:
        recorder = getattr(result, "recorder", None)
        return int(getattr(recorder, "lost_events", 0) or 0)

    def _note_unknown(self, expected: Tuple) -> None:
        if expected not in self._unknown_set:
            self._unknown_set.add(expected)
            self.unknowns.append(expected)

    def _ground_truth_alive(self, expected: Tuple, replayed) -> bool:
        """Check a tuple against lossless ground truth.

        The provenance graph is what lossy logging corrupts; the engine
        store (state tuples) and the event log (base events) are not.
        Returns True only on positive confirmation — a miss here never
        proves absence (the tuple may be a derived event neither source
        tracks), so callers treat False as "unknown" and fall through
        to the normal divergence handling.
        """
        schema = self.program.schemas.get(expected.table)
        if schema is not None and schema.kind == TableKind.EVENT:
            return self.bad.log.index_of_insert(expected) is not None
        try:
            record = replayed.engine.store.record(expected)
        except Exception:
            return False
        if record is None:
            return False
        return bool(getattr(record, "alive", True))

    def _minimize(self, path, good_root, anchor_index) -> None:
        """Greedy minimality post-pass (Section 4.9).

        For each accumulated change, first try dropping it entirely;
        failing that, try narrowing a modification to its insertion
        (competitor removals are proposed from the atom pattern alone,
        so a rule condition may already exclude the competitor at
        runtime, making its removal unnecessary).  A candidate is kept
        only if the trees stop aligning without it.

        The trials of every remaining change go to one candidate sweep
        (:meth:`RunContext.sweep`), which hands back verdicts in serial
        order, replayed or journalled.  The first aligned trial is
        committed; the trials after it were built against the old
        change set, so they are re-derived and swept afresh.
        """
        pending = list(self.changes)
        pure = self._verdicts_pure()
        position = 0
        while position < len(pending):
            trials: List[List[Change]] = []
            owners: List[int] = []
            for offset, change in enumerate(pending[position:], position):
                for trial in self._alternatives(change):
                    trials.append(trial)
                    owners.append(offset)
            position = len(pending)
            for index, aligned in self.run.sweep(
                "minimize",
                _probe_minimize_trial,
                (self, path, good_root, anchor_index, trials),
                len(trials),
                keys=[
                    f"{self.good_event}~{self.bad_event}@{anchor_index}|"
                    + "|".join(change.describe() for change in trial)
                    for trial in trials
                ] if pure else None,
                counter=self,
            ):
                if aligned:
                    self.changes = trials[index]
                    position = owners[index] + 1
                    break

    def _alternatives(self, change) -> List[List[Change]]:
        alternatives = [[c for c in self.changes if c is not change]]
        if change.is_modification:
            narrowed = Change(insert=change.insert, reason=change.reason)
            alternatives.append(
                [narrowed if c is change else c for c in self.changes]
            )
        return alternatives

    def _verdicts_pure(self) -> bool:
        """Whether a minimality verdict is a pure function of its trial
        — and may therefore be journalled and resumed.

        Under observed degradation the divergence check *mutates*
        diagnosis state (UNKNOWN notes, partial-verify flags), so a
        skipped replay would change the report; degraded runs recompute
        every trial in order instead (still byte-identical — the
        computation is deterministic).  A host-only fault plan
        (``snapshot-corrupt``) is fine: it never touches replay
        semantics.
        """
        plan = self.run.fault_plan
        return (plan is None or plan.host_only()) and not self._degraded()

    # ------------------------------------------------------------------
    # FIRSTDIV: walking the seed→root branch.
    # ------------------------------------------------------------------

    def _anchor_time(self, replayed: ReplayResult) -> int:
        appears = replayed.graph.appear_times(self.bad_seed.tuple)
        if not appears:
            return 0
        return min(appears)

    def _find_divergence(
        self,
        path: Sequence[TupleNode],
        good_root: TupleNode,
        replayed: ReplayResult,
        anchor_time: int,
    ) -> Optional[TupleNode]:
        for node in path:
            if not self._expected_alive(node, replayed, anchor_time):
                return node
        # The whole stimulus branch is reproduced; verify the full trees.
        expected_root = self.equiv.expected_tuple(good_root)
        if not replayed.graph.ever_existed(expected_root):
            if self._degradable(replayed) and (
                expected_root in self.assumed
                or self._ground_truth_alive(expected_root, replayed)
            ):
                # The root's provenance was lost but ground truth (or an
                # explicit assumption) says it exists; alignment holds
                # as far as the surviving evidence shows.
                self.partial_verify = True
                self._note_unknown(expected_root)
                return None
            return good_root
        if self._lossy(replayed):
            # A deep tree comparison against a lossy graph reports
            # spurious divergences for every lost subtree; stop at the
            # verified stimulus branch and mark the result degraded.
            self.partial_verify = True
            return None
        bad_root = replayed.graph.tuple_tree(expected_root)
        return self.equiv.first_divergence(good_root, bad_root)

    # ------------------------------------------------------------------
    # MAKEAPPEAR (Section 4.5).
    # ------------------------------------------------------------------

    def _make_appear(
        self,
        node: TupleNode,
        replayed: ReplayResult,
        anchor_time: int,
        new_changes: List[Change],
        parent_env: Optional[Dict[str, object]] = None,
    ) -> None:
        if self._expected_alive(node, replayed, anchor_time):
            return
        if node.is_base:
            self._change_base(node, replayed, new_changes, parent_env)
            return
        rule = self._rule_of(node)
        env = None
        if rule is not None and not rule.is_aggregate:
            env = self._bad_side_env(rule, node)
            self._repair_conditions(rule, node, env)
            # Section 4.5: propagate the parent's taints down to the
            # other children.  A sibling base tuple can share a tainted
            # variable with the head (e.g. the replica name joining a
            # query to its zone-transfer state), so its expected
            # counterpart must be computed from the bad-side binding,
            # not taken literally from the good tree.
            self._propagate_to_children(rule, node, env)
        for child in node.children:
            self._make_appear(child, replayed, anchor_time, new_changes, env)
        if rule is not None and not rule.is_aggregate:
            self._remove_blockers(rule, node, replayed, new_changes)

    def _expected_alive(
        self, node: TupleNode, replayed: ReplayResult, anchor_time: int
    ) -> bool:
        """Whether a node's expected counterpart exists when needed.

        Base (state) tuples must exist *at* the moment the stimulus
        enters the system — a flapping entry that was withdrawn before
        the bad event but re-announced later counts as missing
        (Section 4.8's "as of" semantics).  Derived tuples come into
        being after the stimulus, so any interval from the anchor on
        qualifies.
        """
        expected = self.equiv.expected_tuple(node)
        if node.is_base:
            schema = self.program.schemas.get(expected.table)
            if schema is not None and schema.kind == TableKind.EVENT:
                # Base events (the seed itself) are instants, not
                # intervals; anything from the anchor on qualifies.
                alive = replayed.graph.alive_during(expected, anchor_time)
            else:
                alive = replayed.graph.alive_at(expected, anchor_time)
        else:
            alive = replayed.graph.alive_during(expected, anchor_time)
        if alive:
            return True
        if self._degradable(replayed):
            # The graph says "missing", but under lossy logging that
            # may be a hole rather than the truth.  Accept previously
            # assumed subtrees, then consult lossless ground truth
            # (event log / engine store); only a positive confirmation
            # suppresses the divergence.
            if expected in self.assumed:
                return True
            if self._ground_truth_alive(expected, replayed):
                self.partial_verify = True
                self._note_unknown(expected)
                return True
        return False

    def _propagate_to_children(
        self, rule: Rule, node: TupleNode, env: Dict[str, object]
    ) -> None:
        """Record overrides for children whose expected tuples change
        under the bad-side binding (PROPTAINT downward + APPLYTAINT)."""
        for atom, child in zip(rule.body, node.children):
            expected = self._instantiate_atom(atom, env)
            if expected is None:
                continue
            if expected != self.equiv.expected_tuple(child):
                self.equiv.add_override(child.tuple, expected)

    def _instantiate_atom(self, atom, env: Dict[str, object]) -> Optional[Tuple]:
        args = []
        for arg in atom.args:
            try:
                value = arg.evaluate(env)
            except EvaluationError:
                return None
            args.append(value)
        return Tuple(atom.table, args)

    def _change_base(
        self,
        node: TupleNode,
        replayed: ReplayResult,
        new_changes: List[Change],
        parent_env: Optional[Dict[str, object]] = None,
    ) -> None:
        expected = self.equiv.expected_tuple(node)
        if not self._base_mutable(node, expected):
            raise ImmutableChangeRequired(
                expected,
                reason=f"counterpart of {node.tuple} in the good tree",
            )
        competitors = self._competitors(node, replayed, expected, parent_env)
        change = Change(
            insert=expected,
            remove=competitors,
            reason=(
                f"missing base tuple: the good tree derives through "
                f"{node.tuple}, whose counterpart {expected} does not exist "
                f"in the bad execution"
            ),
        )
        self._add_change(change, new_changes)

    def _base_mutable(self, node: TupleNode, expected: Tuple) -> bool:
        if node.mutable is not None:
            return node.mutable
        schema = self.program.schemas.get(expected.table)
        return schema.mutable if schema is not None else True

    def _add_change(self, change: Change, new_changes: List[Change]) -> None:
        if change in self.changes:
            return
        self.changes.append(change)
        new_changes.append(change)

    # -- competitor removal ---------------------------------------------------

    def _competitors(
        self,
        node: TupleNode,
        replayed: ReplayResult,
        expected: Tuple,
        parent_env: Optional[Dict[str, object]] = None,
    ) -> tuple:
        """Existing bad-side base tuples occupying the same rule slot.

        When the rule's body atom is functional (no argmax selector and
        the slot is anchored by other bindings), a conflicting tuple
        must be removed along with the insertion — e.g. replacing the
        wrong ``mapreduce.job.reduces`` value rather than having two.
        """
        parent = node.parent
        if parent is None or parent.derivation is None:
            return ()
        rule = self._rule_of(parent)
        if rule is None or rule.is_aggregate:
            return ()
        try:
            index = parent.children.index(node)
        except ValueError:
            return ()
        if index >= len(rule.body):
            return ()
        atom = rule.body[index]
        if atom.selector is not None:
            return ()
        # Anchor the slot.  Two kinds of variables identify *which*
        # tuple the slot holds and are pinned to their bad-side values:
        # join variables (shared with other body atoms) and head
        # variables the equivalence mapping rewrote (seed identity,
        # e.g. the replica name) — another replica's state must never
        # be mistaken for a competitor.  Variables whose value is the
        # same in both runs are the slot's payload — the config value,
        # the code version — and stay free, so the wrong occupant is
        # found and replaced.
        shared = set()
        for other_index, other_atom in enumerate(rule.body):
            if other_index != index:
                shared |= other_atom.variables()
        good_env = parent.derivation.env if parent.derivation else {}
        env: Dict[str, object] = {}
        if parent_env is not None:
            for name in atom.variables():
                if name not in parent_env:
                    continue
                rewritten = (
                    name in good_env and good_env[name] != parent_env[name]
                )
                if name in shared or rewritten:
                    env[name] = parent_env[name]
        for sibling_index, (sibling_atom, sibling) in enumerate(
            zip(rule.body, parent.children)
        ):
            if sibling_index == index:
                continue
            match_atom(sibling_atom, self.equiv.expected_tuple(sibling), env)
        competitors = []
        store = replayed.engine.store
        for candidate in _candidate_tuples(store, atom, env):
            record = store.record(candidate)
            if record is None or not record.is_base:
                continue
            if candidate == expected:
                continue
            candidate_env = dict(env)
            if match_atom(atom, candidate, candidate_env):
                competitors.append(candidate)
        if len(competitors) > MAX_COMPETITORS:
            return ()
        immutable = [
            c for c in competitors if not replayed.engine.is_mutable(c)
        ]
        if immutable:
            return ()
        return tuple(competitors)

    # -- condition repair -------------------------------------------------------

    def _rule_of(self, node: TupleNode) -> Optional[Rule]:
        if node.rule is None:
            return None
        try:
            return self.program.rule(node.rule)
        except Exception:
            return None

    def _bad_side_env(self, rule: Rule, node: TupleNode) -> Dict[str, object]:
        """The rule binding as it must look in the bad execution.

        Tainted variables evaluate their formulas under the bad seed;
        untainted ones keep the good run's values.  The binding is then
        unified with the node's *expected* head tuple, so that taints
        propagated down from an ancestor (or repairs recorded as
        overrides) reach this rule's variables too — without this, a
        sibling base tuple two levels below the divergence would still
        be predicted with the good run's literal values.
        """
        env_good = node.derivation.env if node.derivation is not None else {}
        var_formulas = self.equiv.annotation.var_formulas_for(node)
        env: Dict[str, object] = {}
        for name, value in env_good.items():
            formula = var_formulas.get(name)
            if formula is None:
                env[name] = value
            else:
                env[name] = formula.evaluate(self.equiv.seed_env)
        expected_head = self.equiv.expected_tuple(node)
        for arg, value in zip(rule.head.args, expected_head.args):
            if isinstance(arg, Var):
                env[arg.name] = value
        return env

    def _repair_conditions(
        self, rule: Rule, node: TupleNode, env: Dict[str, object]
    ) -> None:
        repairable = self._repairable_vars(rule, node)
        for condition in rule.conditions:
            try:
                ok = condition.holds(env)
            except EvaluationError:
                ok = False
            if ok:
                continue
            result = repair_condition(condition, env, set(repairable))
            if result is None:
                raise NonInvertibleError(
                    f"condition {condition} fails in the bad execution and "
                    f"offers no mutable field to repair",
                    attempted=(condition, dict(env)),
                )
            variable, value = result
            # Register the repair as a field rewrite on every child
            # slot the variable binds: all tuples carrying the old
            # value there (e.g. every flow entry compiled from the
            # repaired policy) are expected with the new one.  The
            # caller's downward propagation then instantiates this
            # node's own children from the updated binding.
            old_value = env.get(variable)
            for child, field_index in repairable.get(variable, ()):
                self.equiv.add_field_rewrite(
                    child.tuple.table, field_index, old_value, value
                )
            env[variable] = value

    def _repairable_vars(self, rule: Rule, node: TupleNode):
        """Variables bound to fields of changeable, untainted children.

        Mutable base children can be changed directly; *derived*
        children qualify too — repairing their field produces an
        expected tuple whose own MAKEAPPEAR recursion pushes the change
        down to the mutable base tuples it derives from (e.g. a flow
        entry computed by the controller: the repair lands on the
        policy).  Immutable base children are off limits.
        """
        var_formulas = self.equiv.annotation.var_formulas_for(node)
        result: Dict[str, List] = {}
        for atom, child in zip(rule.body, node.children):
            if child.is_base and not self._base_mutable(child, child.tuple):
                continue
            for index, arg in enumerate(atom.args):
                if isinstance(arg, Var) and arg.name not in var_formulas:
                    result.setdefault(arg.name, []).append((child, index))
        return result

    # -- selector blockers ----------------------------------------------------

    def _remove_blockers(
        self,
        rule: Rule,
        node: TupleNode,
        replayed: ReplayResult,
        new_changes: List[Change],
    ) -> None:
        """Ensure argmax selectors would pick the expected tuples.

        In the bad execution a competing tuple (e.g. an overlapping
        higher-priority flow entry) may win the best-match selection
        and hijack the derivation; such blockers are removed if mutable.
        """
        for index, atom in enumerate(rule.body):
            if atom.selector is None or index >= len(node.children):
                continue
            expected_child = self.equiv.expected_tuple(node.children[index])
            env_anchor: Dict[str, object] = {}
            for sibling_index, (sibling_atom, sibling) in enumerate(
                zip(rule.body, node.children)
            ):
                if sibling_index == index:
                    continue
                match_atom(
                    sibling_atom, self.equiv.expected_tuple(sibling), env_anchor
                )
            excluded: Set[Tuple] = set()
            for change in self.changes:
                excluded.update(change.remove)
            while True:
                winner = self._select_winner(
                    atom, rule, env_anchor, expected_child, replayed, excluded
                )
                if winner is None or winner == expected_child:
                    break
                removals = self._blocker_removals(winner, replayed)
                if removals is None:
                    raise ImmutableChangeRequired(
                        winner,
                        reason=(
                            f"it wins the {atom.selector} selection over the "
                            f"expected {expected_child}"
                        ),
                    )
                change = Change(
                    remove=removals,
                    reason=(
                        f"{winner} wins the best-match selection in rule "
                        f"{rule.name!r} and diverts the derivation away from "
                        f"{expected_child}"
                    ),
                )
                self._add_change(change, new_changes)
                excluded.add(winner)

    def _blocker_removals(self, winner: Tuple, replayed: ReplayResult):
        """Base-tuple removals that make a blocking tuple disappear.

        A blocker that is itself derived (a flow entry computed by the
        controller) cannot be removed directly — replay would simply
        re-derive it.  Instead its derivation is traced to the mutable
        base tuples it rests on (the policy).  Returns None when the
        blocker is pinned by immutable state only.
        """
        store = replayed.engine.store
        record = store.record(winner)
        if record is not None and record.is_base:
            if not replayed.engine.is_mutable(winner):
                return None
            return [winner]
        # Find a derivation of the winner and pull out its mutable
        # base supports, recursing through derived members.
        derivations = [
            info
            for info in replayed.graph.derivations.values()
            if info.head == winner
        ]
        if not derivations:
            return None
        removals: List[Tuple] = []
        for member in derivations[0].body:
            member_record = store.record(member)
            if member_record is None or not member_record.is_base:
                continue
            if replayed.engine.is_mutable(member):
                removals.append(member)
        return removals or None

    def _select_winner(
        self,
        atom,
        rule: Rule,
        env_anchor: Dict[str, object],
        expected_child: Tuple,
        replayed: ReplayResult,
        excluded: Set[Tuple],
    ) -> Optional[Tuple]:
        candidates = list(
            _candidate_tuples(
                replayed.engine.store, atom, env_anchor, rule.conditions
            )
        )
        if expected_child not in candidates:
            candidates.append(expected_child)
        best = None
        best_key = None
        for candidate in candidates:
            if candidate in excluded:
                continue
            env = dict(env_anchor)
            if not match_atom(atom, candidate, env):
                continue
            if not self._conditions_hold(rule, env):
                continue
            try:
                key = tuple(k.evaluate(env) for k in atom.selector.keys)
            except EvaluationError:
                continue
            ranked = (key, sort_key(candidate))
            if best_key is None or ranked > best_key:
                best_key = ranked
                best = candidate
        return best

    def _conditions_hold(self, rule: Rule, env: Dict[str, object]) -> bool:
        for condition in rule.conditions:
            if condition.variables() - env.keys():
                continue
            try:
                if not condition.holds(env):
                    return False
            except EvaluationError:
                return False
        return True

    # ------------------------------------------------------------------
    # Reports.
    # ------------------------------------------------------------------

    def _degraded(self) -> bool:
        return bool(
            self.recovered
            or self.partial_verify
            or self.unknowns
            or self.assumed
            or any(
                getattr(stats, "degraded", False)
                for stats in self.distributed_stats.values()
            )
        )

    def _confidences(self, success: bool) -> Optional[List[str]]:
        """Per-change confidence levels; None when faults never applied.

        A host-only plan (``snapshot-corrupt``) doesn't count as a
        fault *of the diagnosed network*: the cache quarantines the
        damaged snapshot and the replay re-derives it, so the report
        stays byte-identical to a fault-free run (docs/resilience.md).
        """
        plan = self.run.fault_plan
        network_faults = plan is not None and not plan.host_only()
        if not network_faults and not self._degraded():
            return None
        if success:
            level = "likely" if self._degraded() else "confirmed"
        else:
            level = "uncertain"
        return [level] * len(self.changes)

    def report(
        self, success: bool, failure: Optional[Exception] = None
    ) -> DiagnosisReport:
        # Success is only declared after _find_divergence found the full
        # trees equivalent on a replay that already incorporated every
        # accumulated change — i.e. the diagnosis is verified by
        # construction.  Under degradation the verification is only
        # partial: the stimulus branch was walked, but UNKNOWN subtrees
        # were taken on trust.
        return DiagnosisReport(
            success=success,
            changes=self.changes,
            rounds=self.rounds,
            failure=failure,
            timings=self.run.timings,
            good_tree_size=self.good_tree_size,
            bad_tree_size=self.bad_tree_size,
            good_seed=self.good_seed.tuple if self.good_seed else None,
            bad_seed=self.bad_seed.tuple if self.bad_seed else None,
            replays=self.replays,
            verified=success and not self.partial_verify,
            degraded=self._degraded(),
            confidences=self._confidences(success),
            unknown_subtrees=self.unknowns,
            distributed_stats=self.distributed_stats,
            lost_events=self.lost_log_events,
        )


def _candidate_tuples(store, atom, env: Dict[str, object], conditions=()):
    """Live candidates for ``atom``, narrowed by one pinned position.

    A position whose value is statically known — a ``Const`` argument,
    or a ``Var`` already bound in ``env`` — lets the store's equality
    projection answer in O(bucket) instead of a full sorted scan; on
    the full-scale Stanford configuration (757k forwarding entries)
    that is the difference between milliseconds and minutes per
    candidate search.  Any matching tuple necessarily carries the
    pinned value at that position, and both the projection bucket and
    the full scan iterate in ``sort_key`` order, so callers see exactly
    the sequence the scan would have produced after filtering.

    ``conditions`` (the selector search's) narrow further where the
    store offers ``tuples_covering``: the same order, minus only the
    candidates an ``ip_in_prefix(A, P) == true`` condition rejects.
    """
    covering = getattr(store, "tuples_covering", None)
    if covering is not None and atom.location in env:
        for condition in conditions:
            slot = _prefix_slot(condition, atom, env)
            if slot is not None:
                found = covering(atom.table, env[atom.location], *slot)
                if found is not None:
                    return found
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            return store.tuples_matching(atom.table, position, arg.value)
        if isinstance(arg, Var) and arg.name in env:
            return store.tuples_matching(atom.table, position, env[arg.name])
    return store.tuples(atom.table)


def _prefix_slot(condition, atom, env: Dict[str, object]):
    """``(q, address)`` for ``ip_in_prefix(A, P) == true`` with ``A``
    bound to an address and ``P`` the atom's variable at slot ``q``."""
    call = condition.left
    if not (isinstance(call, Call) and call.name == "ip_in_prefix"
            and len(call.args) == 2 and condition.op == "=="
            and condition.right == Const(True)):
        return None
    address, prefix = call.args
    if (isinstance(address, Var) and isinstance(prefix, Var)
            and prefix in atom.args
            and isinstance(env.get(address.name), IPv4Address)):
        return atom.args.index(prefix), env[address.name]
    return None

