"""The traced pass: per-layer metrics, measured from outside.

A layer is a package under ``src/repro/``.  Every timing here is a span
the harness records around its *own* call into the layer's public
surface; "delta" metrics are differences of two such timings of the
same operation with one knob flipped; exact counts come from the
program's public counters (``report.replays``, ``Execution.
replay_seconds``, ``ReplayCache.stats()``, ``MonitorSummary``, the
service's ``stats``/``metrics`` verbs).  A metric a workload does not
exercise reads 0 there (Stanford bypasses the NDlog engine, so its
``datalog.*`` are 0 by construction — the interaction table in
``schema.PER_LAYER`` says where each number is expected to matter).

Each workload also yields budget rows: for one traced operation, the
seconds each layer accounts for, their sum, the operation's wall time
and the unattributed remainder.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
from typing import Callable, Dict, List, Tuple

from repro import FaultPlan, Session, parse_tuple
from repro.provenance.query import provenance_query
from repro.repair.planner import RollbackPlanner
from repro.replay.cache import ReplayCache
from repro.replay.replayer import replay
from repro.resilience.journal import DiagnosisJournal
from repro.service import DiagnosisServer, ServiceClient
from repro.service.protocol import decode, encode, parse_request
from repro.streaming import (
    Ingestor,
    QualityDetector,
    StreamWindow,
    decode_line,
    encode_event,
    perturb_events,
)

from . import schema, workloads
from .trace import SpanRecorder

__all__ = ["trace"]

Metrics = Dict[str, float]


def _median_span(recorder: SpanRecorder, name: str, op: Callable[[], object],
                 reps: int) -> float:
    """Median seconds of ``reps`` spans named ``name`` around ``op``."""
    for _ in range(reps):
        gc.collect()
        with recorder.span(name):
            op()
    return schema.median(recorder.seconds(name)[-reps:])


def _budget(op: str, wall: float, layers: Dict[str, float]) -> dict:
    return {
        "op": op, "wall_s": wall, "layers": layers,
        "unattributed_s": wall - sum(layers.values()),
    }


# -- datalog / provenance / replay snapshots: one NDlog log -------------------


def probe_engine(recorder: SpanRecorder, m: Metrics, program, log,
                 reps: int) -> None:
    """Evaluation vs recording vs snapshotting of one event log."""
    plain = []
    eval_s = _median_span(
        recorder, "datalog.eval",
        lambda: plain.append(replay(program, log, record=False)), reps,
    )
    steps = plain[-1].engine.steps
    m["datalog.eval_s"] = eval_s
    m["datalog.steps"] = steps
    m["datalog.steps_per_s"] = steps / eval_s

    cache = ReplayCache()
    key = cache.prefix_key(cache.base_key(log, None, False, True), len(log))
    for _ in range(reps):
        gc.collect()
        with recorder.span("replay.recorded"):
            result = replay(program, log)
        # Snapshot before the graph is touched: a diagnosis stores the
        # recorder while its lazy graph is still pending.
        cache.clear()
        with recorder.span("replay.snapshot_store"):
            cache.store(key, result.engine, result.recorder)
        with recorder.span("replay.snapshot_fetch"):
            cache.fetch(key)
        with recorder.span("provenance.materialize"):
            vertices = result.graph.stats()

    def last(name: str) -> float:
        return schema.median(recorder.seconds(name)[-reps:])

    m["provenance.record_s"] = last("replay.recorded") - eval_s
    m["provenance.materialize_s"] = last("provenance.materialize")
    m["provenance.graph_vertices"] = sum(vertices.values())
    m["replay.snapshot_store_s"] = last("replay.snapshot_store")
    m["replay.snapshot_fetch_s"] = last("replay.snapshot_fetch")
    m["replay.snapshot_bytes"] = cache.stats()["bytes"]


# -- replay / core / provenance query / resilience / observability ------------


def _replay_seconds(session: Session) -> float:
    executions = {id(e): e for e in (session.good, session.bad)}
    return sum(e.replay_seconds for e in executions.values())


def probe_session(recorder: SpanRecorder, m: Metrics, session: Session,
                  reps: int, scratch: str,
                  autoref: bool = True) -> Tuple[float, object]:
    """One diagnosis, then the same diagnosis with one knob flipped.

    Variants are explicit-mode Sessions over the *same* executions, so
    no scenario is rebuilt.  Returns (median diagnose wall, report).
    """
    parts = dict(
        program=session.program, good=session.good, bad=session.bad,
        good_event=session.good_event, bad_event=session.bad_event,
        good_time=session.good_time, bad_time=session.bad_time,
    )

    # Traced and untraced timings of the same diagnosis, interleaved so
    # that drift in the host's speed cancels out of their ratio.
    reports, untraced = [], []
    replay_s = 0.0
    for _ in range(reps):
        untraced.append(workloads.timed(session.diagnose)[0])
        replay_before = _replay_seconds(session)
        _median_span(recorder, "core.diagnose",
                     lambda: reports.append(session.diagnose()), 1)
        replay_s += (_replay_seconds(session) - replay_before) / reps
    base = schema.median(recorder.seconds("core.diagnose")[-reps:])
    report = reports[-1]
    m["bench.trace_overhead"] = base / schema.median(untraced)
    m["replay.per_diagnosis"] = report.replays
    m["replay.seconds_share"] = replay_s / base
    m["core.reasoning_s"] = base - replay_s
    m["core.rounds"] = len(report.rounds)
    m["core.changes"] = len(report.changes)
    m["provenance.tree_vertices"] = (
        report.good_tree_size + report.bad_tree_size
    )

    def variant(name: str, **knobs) -> float:
        with Session(**parts, **knobs) as other:
            return _median_span(recorder, name, other.diagnose, reps)

    m["core.minimize_delta_s"] = base - variant(
        "core.diagnose.no_minimize", minimize=False
    )
    if hasattr(session.bad, "replay_cache"):  # the emulator takes none
        m["replay.cache_off_delta_s"] = variant(
            "replay.diagnose.cache_off", minimize=True, replay_cache=False
        ) - base
        cache = ReplayCache()
        with Session(**parts, minimize=True, cache=cache) as other:
            other.diagnose()
        m["replay.cache_hit_ratio"] = (
            cache.hits / (cache.hits + cache.misses)
        )

    journal = os.path.join(scratch, "diagnose.journal")
    m["resilience.journal_delta_s"] = variant(
        "resilience.diagnose.journal", minimize=True, journal=journal
    ) - base
    m["resilience.journal_bytes"] = os.path.getsize(journal)

    with Session(**parts, minimize=True, telemetry=True) as other:
        # The session's tracer keeps counting across diagnoses: the
        # first report holds the spans of exactly one.
        m["observability.spans"] = other.diagnose().telemetry["spans"]
        m["observability.telemetry_delta_s"] = _median_span(
            recorder, "observability.diagnose.telemetry", other.diagnose, reps
        ) - base

    def query() -> None:
        provenance_query(session.good.graph, session.good_event,
                         session.good_time)
        provenance_query(session.bad.graph, session.bad_event,
                         session.bad_time)

    m["provenance.query_s"] = _median_span(
        recorder, "provenance.query", query, reps
    )
    # Outside a diagnosis no cache is attached: a from-scratch replay.
    m["replay.full_s"] = _median_span(
        recorder, "replay.full", session.bad.replay, reps
    )
    if autoref:
        m["core.autoref_s"] = _median_span(
            recorder, "core.autoref", session.autoref, reps
        )
    return base, report


def diagnose_budget(wall: float, report) -> dict:
    """The report's own phase timings, grouped by the layer they run in."""
    timings = report.timings
    return _budget("diagnose", wall, {
        "provenance": timings.get("query", 0.0),
        "replay": timings.get("replay", 0.0),
        "core": sum(timings.get(phase, 0.0) for phase in
                    ("find_seed", "divergence", "make_appear", "minimize")),
    })


# -- repair -------------------------------------------------------------------


def probe_repair(recorder: SpanRecorder, m: Metrics, session: Session,
                 diagnose_s: float, report, reps: int) -> dict:
    """``repair()`` as a whole, then the planner driven with the same delta."""
    repaired = []
    repair_s = _median_span(
        recorder, "repair.session_repair",
        lambda: repaired.append(session.repair()), reps,
    )
    m["repair.delta_s"] = repair_s - diagnose_s
    m["repair.replays"] = repaired[-1].repair["replays"]

    bad = session.bad
    cached = hasattr(bad, "replay_cache") and bad.replay_cache is None
    if cached:  # what a diagnosis attaches for its planner
        bad.replay_cache = ReplayCache()
    try:
        planner = RollbackPlanner(
            session.program, bad,
            good_event=session.good_event, bad_event=session.bad_event,
            changes=report.changes,
            anchor_index=bad.log.index_of_insert(report.bad_seed),
        )
        gc.collect()
        with recorder.span("repair.prepare"):
            planner.prepare()
        with recorder.span("repair.enumerate"):
            plans = planner.enumerate()
        with recorder.span("repair.verify"):
            for plan in plans:
                planner.verify(plan)
    finally:
        if cached:
            bad.replay_cache = None
    phases = {
        name: recorder.seconds(f"repair.{name}")[-1]
        for name in ("prepare", "enumerate", "verify")
    }
    for name, seconds in phases.items():
        m[f"repair.{name}_s"] = seconds
    m["repair.plans"] = len(plans)
    return _budget("repair", repair_s, {
        "diagnose": diagnose_s,
        **{f"repair.{name}": seconds for name, seconds in phases.items()},
    })


# -- the offline workloads ----------------------------------------------------


def _trace_offline(workload, recorder: SpanRecorder, m: Metrics, reps: int,
                   scratch: str, autoref: bool) -> Tuple[List[dict], int, int]:
    with recorder.span("scenarios.build"):
        workload.build()
    m["scenarios.build_s"] = recorder.seconds("scenarios.build")[-1]
    with recorder.span("bench.warmup"):
        workload.warm()
    session = workload.session
    diagnose_s, report = probe_session(
        recorder, m, session, reps, scratch, autoref
    )
    repair_budget = probe_repair(
        recorder, m, session, diagnose_s, report, reps
    )
    failed = 0 if workload.check(report, repair=False) else 1
    return [diagnose_budget(diagnose_s, report), repair_budget], 1, failed


def trace_sdn4(workload, recorder, m, scratch):
    budgets, attempted, failed = _trace_offline(
        workload, recorder, m, 2, scratch, autoref=True
    )
    session = workload.session
    probe_engine(recorder, m, session.program, session.bad.log, 2)
    return budgets, attempted, failed


def trace_stanford(workload, recorder, m, scratch):
    # No autoref here: one reference sweep over 449k entries takes
    # ~9.5 s (README.md records it), a quarter of this pass's budget.
    budgets, attempted, failed = _trace_offline(
        workload, recorder, m, 1, scratch, autoref=False
    )
    config = workload.scenario.config
    m["sdn.config_fork_s"] = _median_span(
        recorder, "sdn.config_fork", config.fork, 25
    )
    m["sdn.flow_entries"] = config.total_entries()
    # The replay behind this workload's diagnoses *is* the emulator's.
    m["sdn.emulated_replay_s"] = m["replay.full_s"]
    return budgets, attempted, failed


# -- flap-stream --------------------------------------------------------------


def _per_kevent(recorder, name: str, op, events: int, reps: int = 3) -> float:
    return _median_span(recorder, name, op, reps) * 1000.0 / events


def trace_flap(workload, recorder, m, scratch):
    with recorder.span("scenarios.build"):
        workload.build()
    m["scenarios.build_s"] = recorder.seconds("scenarios.build")[-1]
    with recorder.span("bench.warmup"):
        workload.warm()

    # The monitored pass, incidents recorded as spans from the tap.
    flaps = workload.repair_flaps  # the smaller stream is plenty here
    with recorder.span("streaming.monitor_run") as run:
        monitor, tap, wall = workload.monitor(flaps, repair=False)
    samples = workloads.Samples()
    incident_s = workload.latencies(monitor, tap, flaps, False, samples)
    gaps = tap.gap_after()
    pulled_at = dict(zip(tap.seqs, tap.pulled))
    for record in monitor.records:
        seq = record["probe_seqs"][0]
        recorder.add("core.incident", pulled_at[seq],
                     pulled_at[seq] + gaps[seq], parent=run.id)
    summary = monitor.summary()
    events = len(tap.seqs)
    in_incidents = sum(incident_s)
    m["streaming.incident_share"] = in_incidents / wall
    m["streaming.nonincident_event_s"] = (
        (wall - in_incidents) / (events - len(incident_s))
    )
    m["streaming.events_per_s"] = events / wall
    m["streaming.peak_live"] = summary.peak_live

    # The same stream through each streaming stage on its own.
    source = workload.sources[flaps]
    stream = source.events()
    lines = list(source.lines())
    m["streaming.codec_s_per_kevent"] = _per_kevent(
        recorder, "streaming.codec",
        lambda: [decode_line(encode_event(event)) for event in stream],
        events,
    )

    def ingest(feed: List[str]) -> Tuple[Ingestor, list]:
        ingestor = Ingestor()
        delivered = []
        for line in feed:
            delivered.extend(ingestor.push_line(line))
        delivered.extend(ingestor.flush())
        return ingestor, delivered

    m["streaming.ingest_s_per_kevent"] = _per_kevent(
        recorder, "streaming.ingest", lambda: ingest(lines), events
    )
    plan = FaultPlan.parse(
        f"event-drop=0.02,event-dup=0.03,event-reorder=0.05,"
        f"seed={workload.seed}"
    )
    noisy = [encode_event(event) for event in perturb_events(stream, plan)]
    m["streaming.ingest_perturbed_s_per_kevent"] = _per_kevent(
        recorder, "streaming.ingest_perturbed", lambda: ingest(noisy),
        len(noisy),
    )
    stats = ingest(noisy)[0].stats.to_dict()
    for counter in ("duplicates", "gaps", "reordered"):
        m[f"streaming.{counter}"] = stats[counter]

    deliveries = ingest(lines)[1]

    def push_all() -> StreamWindow:
        window = StreamWindow(source.program)
        for delivery in deliveries:
            window.push(delivery)
        return window

    m["streaming.window_push_s_per_kevent"] = _per_kevent(
        recorder, "streaming.window_push", push_all, events
    )

    def detect_all() -> None:
        detector = QualityDetector()
        for delivery in deliveries:
            if delivery.kind == "probe":
                detector.observe(delivery)

    m["streaming.detect_s_per_kevent"] = _per_kevent(
        recorder, "streaming.detect", detect_all, events
    )

    # One incident's window, rebuilt from outside and diagnosed offline
    # with the reference the monitor chose: where an incident's ~20 ms go.
    record = monitor.records[len(monitor.records) // 2]
    window = StreamWindow(source.program)
    for delivery in deliveries:
        window.push(delivery)
        if delivery.seq == record["probe_seqs"][0]:
            break
    reps = 5
    m["streaming.window_materialize_s"] = _median_span(
        recorder, "streaming.window_materialize", window.materialize, reps
    )
    execution = window.materialize()
    with Session(
        program=source.program, good=execution, bad=execution,
        good_event=parse_tuple(record["reference"]),
        bad_event=parse_tuple(record["bad_event"]),
    ) as session:
        diagnose_s, report = probe_session(
            recorder, m, session, reps, scratch
        )
        probe_repair(recorder, m, session, diagnose_s, report, reps)
        probe_engine(recorder, m, source.program, execution.log, reps)
        offline = diagnose_budget(diagnose_s, report)

    incident = dict(offline["layers"])
    incident["streaming"] = m["streaming.window_materialize_s"]
    budgets = [
        _budget("monitor.run", wall, {
            "streaming": wall - in_incidents,
            "incidents": in_incidents,
        }),
        _budget("incident", schema.median(incident_s), incident),
    ]
    return budgets, samples.attempted, samples.failed


# -- service-mix --------------------------------------------------------------


def _metric_line(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


async def _shed_fraction() -> float:
    """2x bursts at ``max_queue=1``: the share refused at admission."""
    server = DiagnosisServer(workers=1, max_queue=1)
    await server.start()
    try:
        client = ServiceClient(server)
        statuses = []
        for _ in range(8):
            responses = await asyncio.gather(*[
                client.diagnose("SDN1", options={"minimize": True})
                for _ in range(2)
            ])
            statuses.extend(r["status"] for r in responses)
    finally:
        await server.shutdown()
    return statuses.count("overloaded") / len(statuses)


def trace_service(workload, recorder, m, scratch):
    with recorder.span("service.start"):
        workload.build()
    with recorder.span("bench.warmup"):
        workload.warm()
    loop = workload.loop
    samples = workloads.Samples()
    round_trips: Dict[tuple, List[float]] = {}

    def on_request(scenario: str, repair: bool, elapsed: float) -> None:
        end = recorder.clock()
        recorder.add(f"service.request.{scenario}", end - elapsed, end)
        round_trips.setdefault((scenario, repair), []).append(elapsed)

    async def mix(cycles: int) -> None:
        before = _metric_line(
            (await workload.client.metrics())["metrics"],
            "diffprov_fleet_worker_busy_s",
        )
        with recorder.span("service.mix") as span:
            for _ in range(cycles):
                await workload.cycle(samples, on_request)
        text = (await workload.client.metrics())["metrics"]
        busy = _metric_line(text, "diffprov_fleet_worker_busy_s") - before
        m["service.worker_busy_share"] = busy / span.seconds
        stats = (await workload.client.stats())["stats"]
        m["service.queue_wait_s"] = (
            stats["slo"]["default"]["queue_wait_s"]["p50"]
        )

        async def ping() -> None:
            with recorder.span("service.ping"):
                await workload.client.ping()

        for _ in range(200):
            await ping()
        m["service.ping_rtt_s"] = schema.median(
            recorder.seconds("service.ping")
        )

    loop.run_until_complete(mix(2 if workload.seconds < 5 else 6))
    m["service.shed_fraction_2x"] = loop.run_until_complete(_shed_fraction())

    request = {"id": "probe-1", "kind": "diagnose", "scenario": "MR1-D",
               "options": {"minimize": True}}
    response = {"id": "probe-1", "status": "ok", "report": {
        "canonical": "x" * 4096, "changes": ["insert a(1)"], "success": True,
    }}

    def protocol() -> None:
        for _ in range(1000):
            parse_request(encode(request))
            decode(encode(response))

    m["service.protocol_s_per_kreq"] = _median_span(
        recorder, "service.protocol", protocol, 3
    )

    # The same requests served in-process: a cold Session per request
    # over a warm cross-request cache, exactly what the worker does
    # minus protocol, admission, IPC and the journal.
    warm = ReplayCache()
    in_process: Dict[tuple, float] = {}
    builds = []
    for scenario, options in workloads.SERVICE_MIX:
        repair = bool(options.get("repair"))

        def serve() -> None:
            with Session(scenario, cache=warm, **options) as session:
                with recorder.span("scenarios.build"):
                    session.setup()
                session.diagnose()

        serve()  # warms the cache, as the warm-up cycle warmed the worker
        in_process[(scenario, repair)] = _median_span(
            recorder, f"service.in_process.{scenario}", serve, 3
        )
        builds.extend(recorder.seconds("scenarios.build")[-3:])
    m["scenarios.build_s"] = schema.median(builds)
    overheads = [
        schema.median(round_trips[key]) - in_process[key]
        for key in in_process
    ]
    m["service.overhead_s"] = sum(overheads) / len(overheads)

    journal = DiagnosisJournal(
        os.path.join(scratch, "record.journal"), fingerprint={"kind": "bench"}
    )

    def record() -> None:
        for index in range(1000):
            journal.record("bench", f"key-{index}", True)
            journal.flush()

    m["resilience.journal_record_s"] = _median_span(
        recorder, "resilience.journal_record", record, 1
    )
    journal.close()

    # MR1-D is the mix's only MapReduce scenario: the engine, session
    # and repair probes run on it.
    with Session("MR1-D", minimize=True) as session:
        session.setup()
        session.diagnose()
        diagnose_s, report = probe_session(recorder, m, session, 3, scratch)
        probe_repair(recorder, m, session, diagnose_s, report, 3)
        probe_engine(recorder, m, session.program, session.bad.log, 3)

    key = ("MR1-D", False)
    budgets = [_budget("request[MR1-D]", schema.median(round_trips[key]), {
        "service.protocol": m["service.protocol_s_per_kreq"] / 1000.0,
        "service.queue_wait": m["service.queue_wait_s"],
        "session(in-process)": in_process[key],
        "resilience.journal": max(0.0, m["resilience.journal_delta_s"]),
    })]
    return budgets, samples.attempted, samples.failed


_TRACERS = {
    schema.SDN4: trace_sdn4,
    schema.STANFORD: trace_stanford,
    schema.FLAP: trace_flap,
    schema.SERVICE: trace_service,
}


def trace(workload, recorder: SpanRecorder):
    """(per-layer metrics, budget rows, attempted, failed) of one workload."""
    metrics: Metrics = {name: 0.0 for name in schema.PER_LAYER}
    scratch = workloads.scratch_dir()
    try:
        budgets, attempted, failed = _TRACERS[workload.name](
            workload, recorder, metrics, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return metrics, budgets, attempted, failed
