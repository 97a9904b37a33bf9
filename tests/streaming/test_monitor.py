"""The FLAP-S acceptance run: detection, fidelity, and backpressure.

The hard guarantees (ISSUE 9): over a long seeded flapping stream the
monitor detects every down-phase with zero false positives, and each
online diagnosis is byte-identical (``canonical_json``) to an offline
``Session.diagnose`` of the same window.
"""

import json

import pytest

from repro.api import Session
from repro.datalog.config import EngineConfig
from repro.datalog.parser import parse_tuple
from repro.errors import ReproError
from repro.replay import Execution
from repro.scenarios import ALL_SCENARIOS
from repro.streaming import (
    Ingestor,
    QualityDetector,
    ScenarioStreamSource,
    StreamMonitor,
    StreamWindow,
    observed_event,
)

FLAPS = 200


@pytest.fixture(scope="module")
def flap_s():
    return ALL_SCENARIOS["FLAP-S"](flaps=FLAPS).setup()


@pytest.fixture(scope="module")
def monitor(flap_s):
    with Session("FLAP-S", scenario_params={"flaps": FLAPS}) as session:
        yield session.monitor()


def _down_seqs(scenario):
    seqs = set()
    for phase in scenario.down_phases():
        seqs.update(range(phase["first_seq"], phase["last_seq"] + 1))
    return seqs


class TestDetection:
    def test_every_down_phase_is_detected(self, flap_s, monitor):
        # Records snapshot probe_seqs at diagnosis time; coverage is
        # judged on the detector's fully extended incidents.
        flagged = {
            seq for incident in monitor.detector.incidents
            for seq in incident.probe_seqs
        }
        for phase in flap_s.down_phases():
            phase_seqs = set(
                range(phase["first_seq"], phase["last_seq"] + 1)
            )
            assert phase_seqs & flagged, (
                f"down-phase {phase} produced no detection"
            )
        # In fact every down probe was flagged, and each incident
        # produced exactly one record.
        assert flagged == _down_seqs(flap_s)
        assert len(monitor.records) == len(monitor.detector.incidents)

    def test_zero_false_positives(self, flap_s, monitor):
        down = _down_seqs(flap_s)
        for incident in monitor.detector.incidents:
            assert set(incident.probe_seqs) <= down, (
                f"up-phase probe flagged in {incident.key}"
            )

    def test_every_record_is_a_confirmed_diagnosis(self, monitor):
        # Clean stream, no backpressure: nothing shed, nothing degraded,
        # every record carries a successful DiffProv report that pins
        # the flapping route.
        assert len(monitor.records) == FLAPS
        for record in monitor.records:
            assert record["kind"] == "diagnosis"
            assert record["confidence"] == "confirmed"
            assert record["unknown"] == []
            assert record["reference"] is not None
            assert record["report"]["success"] is True
            assert record["report"]["changes"]
            assert any(
                "flowEntry" in change["change"]
                for change in record["report"]["changes"]
            )
        summary = monitor.summary()
        assert summary.shed == 0
        assert summary.degraded == 0
        assert summary.incidents == FLAPS
        assert summary.ingest["gaps"] == 0

    def test_window_stays_bounded_over_the_long_run(self, flap_s, monitor):
        summary = monitor.summary()
        assert summary.watermark == len(flap_s.stream)
        # Peak live state is O(window), not O(stream): ~1200 events
        # flowed through, never more than base + capacity live at once.
        assert summary.peak_live < 60
        assert summary.expired_events > len(flap_s.stream) - 60

    def test_records_are_json_serializable(self, monitor):
        for record in monitor.records:
            json.dumps(record, sort_keys=True)


def _incident_windows(scenario):
    """``(incident, opening probe, window)`` per detection, rebuilt
    offline from the scenario's stream exactly as the monitor saw it."""
    ingestor = Ingestor(lateness=8)
    window = StreamWindow(scenario.program, capacity=24)
    detector = QualityDetector()
    for event in scenario.stream_events():
        for delivery in ingestor.push(event):
            window.push(delivery)
            if delivery.kind != "probe":
                continue
            incident = detector.observe(delivery)
            if incident is not None:
                yield incident, delivery, window


def _offline_report(program, execution, record, probe):
    with Session(
        program=program,
        good=execution,
        bad=execution,
        good_event=parse_tuple(record["reference"]),
        bad_event=observed_event(probe),
    ) as offline:
        return offline.diagnose()


class TestOfflineEquivalence:
    def test_each_diagnosis_matches_offline_session_of_same_window(
        self, flap_s, monitor
    ):
        """Rebuild each detection's window offline; reports must match."""
        by_incident = {r["incident"]: r for r in monitor.records}
        checked = 0
        for incident, probe, window in _incident_windows(flap_s):
            record = by_incident[incident.key]
            assert record["window"] == list(window.span())
            report = _offline_report(
                flap_s.program, window.materialize(), record, probe
            )
            online = json.dumps(record["report"], indent=2, sort_keys=True)
            assert online == report.canonical_json(), (
                f"online/offline mismatch for {incident.key}"
            )
            checked += 1
        assert checked == len(monitor.records)

    def test_each_diagnosis_matches_a_query_time_execution(
        self, flap_s, monitor
    ):
        """The oracle for the runtime-recorded window: the same window
        events fed to a query-time Execution, whose provenance is
        rebuilt by replaying its log rather than taken from the
        recorder the live run kept."""
        by_incident = {r["incident"]: r for r in monitor.records}
        checked = 0
        for incident, probe, window in _incident_windows(flap_s):
            record = by_incident[incident.key]
            oracle = Execution(flap_s.program, name="oracle")
            assert oracle.mode == "query-time"
            for entry in window.materialize().log.entries:
                if entry.op == "insert":
                    oracle.insert(entry.tuple, mutable=entry.mutable)
                else:
                    assert entry.op == "delete"
                    oracle.delete(entry.tuple)
            report = _offline_report(flap_s.program, oracle, record, probe)
            online = json.dumps(record["report"], indent=2, sort_keys=True)
            assert online == report.canonical_json(), (
                f"runtime/query-time mismatch for {incident.key}"
            )
            checked += 1
        assert checked == len(monitor.records)


class TestEngineKnob:
    def test_string_engine_runs_the_live_window_on_that_backend(self):
        source = ScenarioStreamSource.for_name("FLAP-S", flaps=6)
        monitor = StreamMonitor(source, engine="reference")
        records = monitor.run()
        assert monitor.engine == EngineConfig("reference")
        live = monitor.window.materialize()
        assert live.engine.config.backend == "reference"
        assert live.materialize().recorder.provenance == "eager"
        compiled = StreamMonitor(
            ScenarioStreamSource.for_name("FLAP-S", flaps=6)
        ).run()
        assert json.dumps(records, sort_keys=True) == json.dumps(
            compiled, sort_keys=True
        )

    def test_session_engine_reaches_the_live_window(self):
        with Session(
            "FLAP-S", engine="reference", scenario_params={"flaps": 4}
        ) as session:
            monitor = session.monitor()
        assert len(monitor.records) == 4
        live = monitor.window.materialize()
        assert live.engine.config.backend == "reference"

    def test_bad_engine_name_fails_at_construction(self):
        source = ScenarioStreamSource.for_name("FLAP-S", flaps=2)
        with pytest.raises(ReproError, match="option 'engine'.*warp"):
            StreamMonitor(source, engine="warp")


class TestBackpressure:
    def test_overflow_sheds_oldest_as_typed_records(self):
        # Defer all diagnosis to the final drain: with 8 incidents and
        # room for 2, the 6 oldest are shed — as records, not silently.
        source = ScenarioStreamSource.for_name("FLAP-S", flaps=8)
        monitor = StreamMonitor(
            source, max_pending=2, diagnose_every=10**9
        )
        records = monitor.run()
        shed = [r for r in records if r["kind"] == "shed"]
        diagnosed = [r for r in records if r["kind"] == "diagnosis"]
        assert len(shed) == 6
        assert len(diagnosed) == 2
        assert all(r["reason"] == "backpressure" for r in shed)
        assert monitor.summary().shed == 6
        # Shedding is FIFO: what is dropped is the *oldest* detection.
        shed_first = [min(r["probe_seqs"]) for r in shed]
        kept_first = [min(r["probe_seqs"]) for r in diagnosed]
        assert max(shed_first) < min(kept_first)

    def test_paced_monitor_emits_same_diagnoses(self):
        source = ScenarioStreamSource.for_name("FLAP-S", flaps=10)
        prompt = StreamMonitor(source, diagnose_every=1).run()
        paced = StreamMonitor(
            ScenarioStreamSource.for_name("FLAP-S", flaps=10),
            diagnose_every=7,
            max_pending=64,
        ).run()
        # Pacing defers work but must not change what is concluded:
        # same incidents, same root causes.
        assert [r["incident"] for r in paced] == [
            r["incident"] for r in prompt
        ]
        assert [r["report"]["changes"] for r in paced] == [
            r["report"]["changes"] for r in prompt
        ]
