"""The stable programmatic surface of the package: :class:`Session`.

Everything an operator does with the command-line debugger — diagnose,
search for a reference, inspect trees, export provenance — is available
as one object whose constructor takes the same knobs the CLI exposes as
flags.  The lower layers (:class:`repro.DiffProv`, executions,
recorders) remain importable for programs that need them, but the
facade is the documented entry point and the one the examples and the
``diffprov`` command are written against (docs/api.md).

Two construction modes:

- **Scenario mode** — name one of the built-in diagnostic scenarios::

      from repro.api import Session

      session = Session(scenario="SDN1", minimize=True)
      print(session.diagnose().summary())

- **Explicit mode** — bring your own program, executions and events::

      session = Session(
          program=program,
          good=execution, bad=execution,
          good_event=good, bad_event=bad,
      )
      report = session.diagnose()

The knobs mirror :class:`repro.DiffProvOptions`: ``replay_cache=False``
re-derives every candidate replay from scratch instead of forking it
off one live base, and ``engine="reference"`` selects the oracle
backend; both leave the report byte-identical (docs/performance.md).
"""

from __future__ import annotations

import contextlib
import inspect
import os
from typing import Callable, Dict, NamedTuple, Optional

from .core.autoref import AutoReferenceResult, auto_diagnose
from .core.diffprov import DiffProv, DiffProvOptions
from .core.report import DiagnosisReport
from .datalog.config import BACKENDS, EngineConfig
from .errors import ReproError
from .faults import FaultPlan
from .observability import Telemetry
from .provenance.query import provenance_query
from .provenance.tree import ProvenanceTree
from .resilience import Deadline, DiagnosisJournal

__all__ = [
    "Session", "KNOBS", "Knob", "check_knobs", "check_option", "knob_default",
    "knobs_for",
]


def _flag(value) -> None:
    if not isinstance(value, bool):
        raise ReproError("must be true or false")


def _integer(minimum: int):
    def check(value) -> None:
        # bool is an int subclass; True is not a round count.
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise ReproError(f"must be an integer >= {minimum}")
    return check


def _seconds(value) -> None:
    # A Deadline that is already running (shared across calls) passes.
    if value is None or isinstance(value, Deadline):
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != value:  # NaN
        raise ReproError("must be a number of seconds")


def _path(value) -> None:
    if value is not None and not isinstance(value, (str, os.PathLike)):
        raise ReproError("must be a file path")


def _telemetry_object(value) -> None:
    # What repro.observability.active() recognises, plus the switch.
    if value is not None and not isinstance(value, bool) \
            and not hasattr(value, "enabled"):
        raise ReproError("must be true, false or a Telemetry")


def _fault_spec(value) -> None:
    if value is None or isinstance(value, FaultPlan):
        return
    if not isinstance(value, str):
        raise ReproError("must be a fault-plan spec string (docs/faults.md)")
    FaultPlan.parse(value)


def _telemetry_switch(value) -> None:
    if not isinstance(value, bool) and value != "manual":
        raise ReproError('must be false, true or "manual"')


class Knob(NamedTuple):
    """One tuning knob, declared once; every surface is derived from it.

    ``call`` names the signature that takes the knob and holds its
    default: ``"Session"`` (:class:`Session`), ``"autoref"``
    (:meth:`Session.autoref`) or ``"monitor"``
    (:class:`repro.streaming.StreamMonitor`, which
    :meth:`Session.monitor` forwards to).  ``check`` raises
    :class:`ReproError` on a bad value (``None``: an object handed
    through unchecked).  ``wire`` says whether a service request may
    set the knob; a check in its place is the one the wire form must
    pass instead.  ``flag`` is ``None`` when the CLI derives no flag,
    else the extra argparse keywords (``type``, ``metavar``,
    ``choices``); a typed flag's value must pass ``check`` too.
    """

    name: str
    check: Optional[Callable]
    doc: str
    call: str = "Session"
    wire: object = False
    flag: Optional[dict] = None


# Every knob of Session, Session.autoref and the monitor.  Validation,
# the service's wire whitelist (check_option), the CLI flags and the
# docs checks (tests/docs/test_option_table.py) all read this table.
KNOBS = (
    Knob("max_rounds", _integer(1), "round limit", wire=True,
         flag={"type": int}),
    Knob("taint", _flag, "taint formulas (without them DiffProv is a "
         "literal tree comparison: an ablation, expect failure)",
         wire=True, flag={}),
    Knob("minimize", _flag, "greedy minimality post-pass on the returned "
         "changes", wire=True, flag={}),
    Knob("repair", _flag, "verify ranked rollback plans after a "
         "successful diagnosis (docs/repair.md)", wire=True, flag={}),
    Knob("faults", _fault_spec, "deterministic fault plan or spec, e.g. "
         "'loss=0.1,fetch-loss=0.15,seed=7' (docs/faults.md)", wire=True,
         flag={"metavar": "SPEC"}),
    Knob("engine", EngineConfig.coerce, "evaluation backend: compiled "
         "(the fast path) or reference (the oracle); reports are "
         "byte-identical (docs/performance.md)", wire=True,
         flag={"choices": BACKENDS}),
    Knob("replay_cache", _flag, "forking candidate replays off one live "
         "base instead of re-deriving each from scratch", flag={}),
    Knob("journal", _path, "write-ahead diagnosis journal; with resume, "
         "recorded verdicts are skipped (docs/resilience.md)",
         flag={"metavar": "FILE"}),
    Knob("resume", _flag, "resume from an existing journal", flag={}),
    Knob("deadline_s", _seconds, "end-to-end wall-clock budget; expiry "
         "degrades to a partial report instead of running on",
         flag={"type": float, "metavar": "SECONDS"}),
    Knob("telemetry", _telemetry_object, "collect metrics and spans: "
         "True for a fresh Telemetry, or one to share across sessions",
         wire=_telemetry_switch),
    Knob("trace", None, "a TraceContext (or its dict) placing the "
         "session's spans in a cross-process trace"),
    Knob("cache", None, "a ReplayCache shared across sessions, keeping "
         "snapshots warm (ignored without replay_cache)"),
    Knob("scenario_params", None, "keyword arguments for the scenario "
         "class, e.g. {'background_packets': 120}"),
    Knob("limit", _integer(0), "candidate references to try",
         call="autoref", wire=True, flag={"type": int}),
    Knob("capacity", _integer(1), "sliding-window size; older state "
         "folds into a base snapshot", call="monitor",
         flag={"type": int, "metavar": "EVENTS"}),
    Knob("lateness", _integer(1), "ingest reorder tolerance before a "
         "missing event becomes a gap", call="monitor",
         flag={"type": int, "metavar": "EVENTS"}),
    Knob("max_pending", _integer(1), "detections awaiting diagnosis "
         "before the oldest is shed", call="monitor",
         flag={"type": int, "metavar": "N"}),
    Knob("diagnose_every", _integer(1), "run pending diagnoses every "
         "Nth delivery", call="monitor", flag={"type": int, "metavar": "N"}),
)


def knobs_for(call: str):
    """The rows of :data:`KNOBS` that ``call`` takes, in table order."""
    return [knob for knob in KNOBS if knob.call == call]


def knob_default(knob: Knob):
    """The knob's default, read from the signature that takes it."""
    if knob.call == "monitor":
        from .streaming import StreamMonitor

        target = StreamMonitor.__init__
    elif knob.call == "autoref":
        target = Session.autoref
    else:
        target = Session.__init__
    return inspect.signature(target).parameters[knob.name].default


def _checked(name: str, value, check) -> None:
    try:
        check(value)
    except (ReproError, ValueError) as exc:
        raise ReproError(f"option {name!r} {exc} (got {value!r})") from exc


def check_knobs(call: str, values) -> None:
    """Check every knob ``call`` takes against its row; ``values`` maps
    each knob name to its value (the caller's ``locals()``)."""
    for knob in knobs_for(call):
        if knob.check is not None:
            _checked(knob.name, values[knob.name], knob.check)


def check_option(name: str, value) -> None:
    """Raise :class:`ReproError` unless a service request may set knob
    ``name`` to ``value`` (the protocol's wire whitelist)."""
    wire = {knob.name: knob for knob in KNOBS if knob.wire}
    knob = wire.get(name)
    if knob is None:
        raise ReproError(
            f"unsupported option {name!r} "
            f"(allowed: {', '.join(sorted(wire))})"
        )
    _checked(name, value, knob.check if knob.wire is True else knob.wire)


class Session:
    """One diagnostic session: a program, two executions, two events.

    Construct with ``scenario="SDN1"`` (any key of
    :data:`repro.scenarios.ALL_SCENARIOS`, case-insensitive) or with
    the explicit ``program``/``good``/``bad``/``good_event``/
    ``bad_event`` quintet.  All other arguments are tuning knobs, each
    declared once in :data:`KNOBS` with its check and a one-line doc
    (docs/api.md tabulates them with their CLI flags).  ``taint`` maps
    to ``DiffProvOptions.enable_taint`` and ``deadline_s`` to
    ``deadline``; ``faults`` also takes a spec string, ``telemetry``
    also an existing :class:`repro.Telemetry`, and ``engine`` a backend
    name, an :class:`repro.EngineConfig` or its wire mapping.

    Scenario construction is lazy: the executions are built on first
    use, so creating a Session is cheap.

    Sessions hold real resources once built (an open journal file
    during calls, megabytes of cached snapshots): :meth:`close`
    releases them, and the class is a context manager so ``with
    Session(...) as s:`` does it for you.
    """

    def __init__(
        self,
        scenario: Optional[str] = None,
        *,
        program=None,
        good=None,
        bad=None,
        good_event=None,
        bad_event=None,
        good_time: Optional[int] = None,
        bad_time: Optional[int] = None,
        faults=None,
        telemetry=None,
        trace=None,
        engine=None,
        replay_cache: bool = True,
        max_rounds: int = 10,
        minimize: bool = False,
        taint: bool = True,
        journal: Optional[str] = None,
        resume: bool = False,
        cache=None,
        deadline_s: Optional[float] = None,
        repair: bool = False,
        scenario_params: Optional[Dict] = None,
    ):
        if scenario is not None and program is not None:
            raise ReproError(
                "pass either scenario=... or the explicit "
                "program/good/bad/good_event/bad_event set, not both"
            )
        if scenario is None:
            missing = [
                name
                for name, value in (
                    ("program", program),
                    ("good", good),
                    ("bad", bad),
                    ("good_event", good_event),
                    ("bad_event", bad_event),
                )
                if value is None
            ]
            if missing:
                raise ReproError(
                    "explicit sessions need program, good, bad, "
                    f"good_event and bad_event (missing: {', '.join(missing)})"
                )
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        check_knobs("Session", locals())
        if telemetry is True:
            telemetry = Telemetry()
        self.engine_config = (
            None if engine is None else EngineConfig.coerce(engine)
        )
        self.scenario_name = scenario.upper() if scenario else None
        self.telemetry = telemetry or None
        if trace is not None and self.telemetry is not None:
            from .observability import TraceContext

            if not isinstance(trace, TraceContext):
                trace = TraceContext.from_dict(dict(trace))
            self.telemetry.tracer.context = trace
        self.options = DiffProvOptions(
            max_rounds=max_rounds,
            enable_taint=taint,
            minimize=minimize,
            faults=faults,
            telemetry=self.telemetry,
            replay_cache=replay_cache,
            deadline=deadline_s,
            repair=repair,
        )
        self.journal_path = journal
        self._resume = resume
        # The most recently opened DiagnosisJournal (kept after close so
        # the CLI's Ctrl-C handler can print journal.progress()).
        self.journal = None
        self._scenario_params = dict(scenario_params or {})
        self._scenario = None
        self.program = program
        self.good = good
        self.bad = bad
        self.good_event = good_event
        self.bad_event = bad_event
        self.good_time = good_time
        self.bad_time = bad_time
        self.cache = cache if replay_cache else None
        self._closed = False
        if self.scenario_name is None:
            self._built = True
            self._attach_cache()
            self._apply_engine()
        else:
            from .scenarios import ALL_SCENARIOS

            if self.scenario_name not in ALL_SCENARIOS:
                raise ReproError(
                    f"unknown scenario {scenario!r} "
                    f"(choose from {', '.join(sorted(ALL_SCENARIOS))})"
                )
            self._built = False

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> "Session":
        """Build the scenario's executions and events.

        Idempotent, and implied by every query method (``diagnose``,
        ``autoref``, ``tree``, ``export``), so calling it yourself is
        optional — constructing a Session is deliberately cheap and
        the expensive scenario build happens on first use.  Returns
        ``self`` for chaining.
        """
        if self._closed:
            raise ReproError("this Session is closed")
        if self._built:
            return self
        from .scenarios import ALL_SCENARIOS

        params = dict(self._scenario_params)
        plan = self.options.faults
        if plan is not None and "faults" not in params:
            params["faults"] = plan
        if self.engine_config is not None and "engine" not in params:
            params["engine"] = self.engine_config
        scenario = ALL_SCENARIOS[self.scenario_name](**params).setup()
        self._scenario = scenario
        self.program = scenario.program
        self.good = scenario.good_execution
        self.bad = scenario.bad_execution
        self.good_event = scenario.good_event
        self.bad_event = scenario.bad_event
        self.good_time = scenario.good_time
        self.bad_time = scenario.bad_time
        if self.options.faults is None:
            # Scenario classes may carry their own plan (e.g. SDN1-F).
            self.options.faults = scenario.fault_plan
        self._built = True
        self._attach_cache()
        self._apply_engine()
        return self

    def _apply_engine(self) -> None:
        """Assign the session's EngineConfig to both executions.

        Backends produce byte-identical results, so this only changes
        replay cost; scenario mode already threads the config through
        the scenario's ``engine`` param, making this a no-op there.
        """
        if self.engine_config is None:
            return
        for execution in (self.good, self.bad):
            if (
                hasattr(execution, "engine_config")
                and execution.engine_config != self.engine_config
            ):
                execution.engine_config = self.engine_config

    def _attach_cache(self) -> None:
        """Hand the caller-supplied ReplayCache to both executions.

        A run's ``RunContext.scope`` (repro.core.harness) never creates
        a cache; one it finds attached seeds the replay base and keeps
        results, which is how warmth survives across diagnose() calls
        and across Sessions sharing one cache.
        """
        if self.cache is None:
            return
        for execution in (self.good, self.bad):
            if (
                hasattr(execution, "replay_cache")
                and execution.replay_cache is None
            ):
                execution.replay_cache = self.cache

    def close(self) -> None:
        """Release the session's resources; idempotent.

        Closes (and flushes) any open journal, detaches the shared
        cache from the executions, drops their live replay bases (kept
        across calls, so the log prefix is driven once per Session),
        and drops the scenario and execution references so their logs
        and provenance graphs can be collected.  Further queries raise
        :class:`~repro.errors.ReproError`; the ``journal`` attribute
        stays readable so crash handlers can still print
        ``journal.progress()``.
        """
        if self._closed:
            return
        self._closed = True
        if self.journal is not None and not self.journal.closed:
            self.journal.close()
        for execution in (self.good, self.bad):
            if hasattr(execution, "drop_base"):
                execution.drop_base()
            if (
                self.cache is not None
                and getattr(execution, "replay_cache", None) is self.cache
            ):
                execution.replay_cache = None
        self._scenario = None
        self.program = None
        self.good = None
        self.bad = None
        self.good_event = None
        self.bad_event = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def scenario(self):
        """The underlying Scenario object (scenario mode only)."""
        self.setup()
        return self._scenario

    # -- diagnostics ---------------------------------------------------------

    def diagnose(
        self,
        resume_from: Optional[str] = None,
        repair: Optional[bool] = None,
    ) -> DiagnosisReport:
        """Run DiffProv on the session's good/bad events.

        ``resume_from`` names an existing journal file to resume; it
        overrides the constructor's ``journal``/``resume`` pair for
        this one call.  Resumed runs skip candidate replays whose
        verdicts the journal already holds and still produce a
        ``canonical_json()`` byte-identical to an uninterrupted run.

        ``repair`` overrides the constructor's ``repair`` knob for this
        one call: ``True`` attaches ranked rollback plans as
        ``report.repair`` (docs/repair.md).
        """
        self.setup()
        saved_repair = self.options.repair
        if repair is not None:
            # Set before the journal scope opens: the fingerprint
            # records the effective option, and repair verdicts only
            # resume into a repair-enabled run.
            self.options.repair = bool(repair)
        try:
            debugger = DiffProv(self.program, self.options)
            with self._journal_scope("diagnose", resume_from):
                return debugger.diagnose(
                    self.good,
                    self.bad,
                    self.good_event,
                    self.bad_event,
                    self.good_time,
                    self.bad_time,
                )
        finally:
            self.options.repair = saved_repair

    def repair(self, resume_from: Optional[str] = None) -> DiagnosisReport:
        """Diagnose, then plan and verify rollback fixes (docs/repair.md).

        Shorthand for ``diagnose(repair=True)``: the returned report's
        ``repair`` section carries the ranked, replay-verified plans
        (and the rejected candidates with their rejection reasons).
        """
        return self.diagnose(resume_from=resume_from, repair=True)

    def autoref(
        self, limit: int = 10, resume_from: Optional[str] = None
    ) -> AutoReferenceResult:
        """Diagnose the bad event with a *discovered* reference.

        Proposes up to ``limit`` candidate references from the good
        execution's provenance graph and returns the first successful
        diagnosis with a non-empty Δ (Section 4.9).  Honours the
        journal knobs (rejected candidates are skipped on resume) and
        the deadline.
        """
        check_knobs("autoref", locals())
        self.setup()
        with self._journal_scope("autoref", resume_from, limit=limit):
            return auto_diagnose(
                self.program,
                self.good,
                self.bad,
                self.bad_event,
                options=self.options,
                limit=limit,
            )

    def monitor(
        self,
        *,
        stream: Optional[str] = None,
        resume_from: Optional[str] = None,
        **knobs,
    ):
        """Watch the session's event stream; diagnose detections online.

        The streaming counterpart of :meth:`diagnose`
        (docs/streaming.md): the scenario's recorded stream — or an
        NDJSON file via ``stream=`` — is ingested through the
        fault-tolerant front-end, kept in a bounded sliding window with
        provenance GC, scored per probe, and every detected incident is
        diagnosed with an auto-selected reference.  Returns the
        finished :class:`repro.streaming.StreamMonitor`, whose
        ``records`` are the emitted diagnosis/shed records and whose
        ``summary()`` rolls up what happened.

        The session's knobs carry over: ``faults`` supplies the
        stream-fault plan (``event-drop``/``event-dup``/
        ``event-reorder``/``clock-skew``), ``engine`` the evaluation
        backend for window replays, ``deadline_s`` the per-incident
        diagnosis budget, ``minimize`` the minimality post-pass,
        ``repair`` the per-incident rollback planner (docs/repair.md),
        and ``journal``/``resume`` (or ``resume_from``) the write-ahead
        record journal: a SIGKILL'd monitor resumed over the same
        stream re-emits the identical record sequence.

        ``knobs`` are the monitor rows of :data:`KNOBS` —
        ``capacity``, ``lateness``, ``max_pending`` and
        ``diagnose_every`` — with :class:`~repro.streaming.StreamMonitor`'s
        defaults.
        """
        if self._closed:
            raise ReproError("this Session is closed")
        from .streaming import (
            FileStreamSource,
            ScenarioStreamSource,
            StreamMonitor,
        )

        plan = self.options.faults
        if stream is not None:
            source = FileStreamSource(stream)
        else:
            if self.scenario_name is None:
                raise ReproError(
                    "monitor needs a scenario-mode Session or stream=PATH"
                )
            source = ScenarioStreamSource.for_name(
                self.scenario_name, faults=plan, **self._scenario_params
            )
        # Constructed first so a bad knob fails before a journal opens.
        monitor = StreamMonitor(
            source,
            engine=self.engine_config,
            minimize=self.options.minimize,
            repair=self.options.repair,
            deadline_s=self.options.deadline,
            telemetry=self.telemetry,
            **knobs,
        )
        path = resume_from if resume_from is not None else self.journal_path
        if path is not None:
            values = {
                knob.name: knobs.get(knob.name, knob_default(knob))
                for knob in knobs_for("monitor")
            }
            monitor.journal = self.journal = DiagnosisJournal(
                str(path),
                fingerprint=self._monitor_fingerprint(source, **values),
                resume=self._resume or resume_from is not None,
            )
        try:
            monitor.run()
            return monitor
        finally:
            if monitor.journal is not None:
                monitor.journal.close()

    def _monitor_fingerprint(self, source, **knobs) -> Dict[str, object]:
        """Identity of one monitoring run (journal resume matching).

        Keyed on the *unperturbed* stream digest plus every knob that
        changes which records get emitted.  Stream faults stay out on
        purpose: they are transport noise over the same underlying
        stream, and a resumed monitor may well see a differently
        perturbed feed — records are keyed per incident, so matching
        detections resume and diverging ones diagnose fresh.
        ``deadline_s`` follows the diagnose convention of staying out —
        resumed records are re-emitted verbatim either way.
        """
        from .streaming.monitor import REFERENCE_LIMIT

        fingerprint: Dict[str, object] = {
            "kind": "monitor",
            "source": source.describe(),
            "stream_sha": source.fingerprint(),
            "options": {
                "minimize": self.options.minimize,
                "repair": self.options.repair,
            },
        }
        fingerprint.update(knobs)
        # Fixed since the knob went; still recorded so that journals
        # written before then resume.
        fingerprint["reference_limit"] = REFERENCE_LIMIT
        return fingerprint

    # -- resilience ----------------------------------------------------------

    @contextlib.contextmanager
    def _journal_scope(self, kind: str, resume_from: Optional[str], **extra):
        """Open the write-ahead journal around one diagnosis call.

        The journal is attached through ``options.journal`` so both the
        differ and the autoref sweep see it; it is closed (and therefore
        flushed) whatever way the call exits, including Ctrl-C.
        """
        path = resume_from if resume_from is not None else self.journal_path
        if path is None:
            yield None
            return
        journal = DiagnosisJournal(
            str(path),
            fingerprint=self._journal_fingerprint(kind, **extra),
            resume=self._resume or resume_from is not None,
        )
        self.journal = journal
        saved = self.options.journal
        self.options.journal = journal
        try:
            yield journal
        finally:
            self.options.journal = saved
            journal.close()

    def _journal_fingerprint(self, kind: str, **extra) -> Dict[str, object]:
        """Identity of the search a journal belongs to.

        Mismatched fingerprints make resume a typed JournalError —
        replaying verdicts into a different search would corrupt the
        report.  ``replay_cache`` is deliberately absent: it does not
        change any verdict (the determinism contract), so an uncached
        run may resume a cached one's journal.
        """
        opts = self.options
        plan = opts.faults
        fingerprint: Dict[str, object] = {
            "kind": kind,
            "scenario": self.scenario_name,
            "good_log": self.good.log.fingerprint(),
            "bad_log": self.bad.log.fingerprint(),
            "bad_event": str(self.bad_event),
            "options": {
                "max_rounds": opts.max_rounds,
                "enable_taint": opts.enable_taint,
                # Constants since the knobs went: kept so that journals
                # written before then still resume.
                "enable_repair": True,
                "enable_inversion": True,
                "minimize": opts.minimize,
                "repair": opts.repair,
                "faults": None if plan is None else plan.describe(),
            },
        }
        if kind == "diagnose":
            fingerprint["good_event"] = str(self.good_event)
        fingerprint.update(extra)
        return fingerprint

    # -- inspection ----------------------------------------------------------

    def tree(self, side: str = "bad") -> ProvenanceTree:
        """The provenance tree of one side's event (a classic query).

        ``side`` is ``"good"`` or ``"bad"``.  Equivalent to
        ``diffprov tree NAME --side bad``; the returned
        :class:`repro.provenance.tree.ProvenanceTree` renders with
        ``.render()`` and diffs against the other side's tree.  In
        query-time mode this triggers (and caches) one replay of that
        side's log.
        """
        execution, event, time = self._side(side)
        return provenance_query(execution.graph, event, time)

    def export(self, path: str, side: str = "bad") -> int:
        """Dump one side's provenance graph to ``path`` as JSON lines.

        Equivalent to ``diffprov export NAME --out path``.  Returns
        the number of records written; the file round-trips through
        :func:`repro.provenance.serialize.load_graph`.
        """
        from .provenance.serialize import dump_graph

        execution, _, _ = self._side(side)
        return dump_graph(execution.graph, path)

    def _side(self, side: str):
        if side not in ("good", "bad"):
            raise ReproError(f"side must be 'good' or 'bad', not {side!r}")
        self.setup()
        if side == "good":
            return self.good, self.good_event, self.good_time
        return self.bad, self.bad_event, self.bad_time

    def __repr__(self):
        target = self.scenario_name or "explicit"
        return f"Session({target}, replay_cache={self.options.replay_cache})"
