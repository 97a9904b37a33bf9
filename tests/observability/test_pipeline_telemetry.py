"""End-to-end telemetry through a real diagnosis (SDN1)."""

import json

from repro.core import DiffProvOptions
from repro.observability import ManualClock, NullTelemetry, Telemetry
from repro.scenarios import ALL_SCENARIOS
from repro.cli import main as cli_main

EXPECTED_SPANS = {
    "diffprov.diagnose",
    "diffprov.query",
    "provenance.query",
    "engine.run",
    "diffprov.find_seed",
    "diffprov.divergence",
    "diffprov.make_appear",
    "diffprov.replay",
}


def diagnose_sdn1(telemetry):
    scenario = ALL_SCENARIOS["SDN1"]()
    return scenario.diagnose(DiffProvOptions(telemetry=telemetry))


class TestPipelineSpans:
    def test_span_tree_covers_every_phase(self):
        telemetry = Telemetry(clock=ManualClock())
        report = diagnose_sdn1(telemetry)
        assert report.success
        names = {span.name for span in telemetry.tracer.iter_spans()}
        assert EXPECTED_SPANS <= names
        # The root spans everything else.
        assert [r.name for r in telemetry.tracer.roots] == ["diffprov.diagnose"]
        root = telemetry.tracer.roots[0]
        assert root.attrs["success"] is True
        # Every candidate replay is a fork of the live base (the first
        # one builds it), or — bypassing it — an engine.run from scratch.
        replays = [
            s for s in telemetry.tracer.iter_spans()
            if s.name == "diffprov.replay"
        ]
        assert replays
        assert [c.name for c in replays[0].children] == [
            "replay.base.build", "replay.fork",
        ]
        for replay in replays:
            assert any(
                c.name in ("replay.fork", "engine.run")
                for c in replay.children
            )

    def test_report_telemetry_section_attached(self):
        telemetry = Telemetry(clock=ManualClock())
        report = diagnose_sdn1(telemetry)
        assert set(report.telemetry) == {"metrics", "phases", "spans"}
        counters = report.telemetry["metrics"]["counters"]
        assert counters["diffprov.replays"] == report.replays
        assert counters["diffprov.changes"] == len(report.changes)
        assert counters["engine.steps"] > 0
        gauges = report.telemetry["metrics"]["gauges"]
        assert gauges["diffprov.good_tree_size"] == report.good_tree_size
        assert gauges["diffprov.bad_tree_size"] == report.bad_tree_size
        # The summary grows a phase-breakdown table.
        assert "phase breakdown:" in report.summary()

    def test_healthy_run_attaches_distributed_stats(self):
        # Satellite fix: stats are attached on healthy runs too, not
        # only degraded ones.
        report = diagnose_sdn1(None)
        assert set(report.distributed_stats) == {"good", "bad"}
        for stats in report.distributed_stats.values():
            assert stats.vertices_fetched > 0
            assert not stats.degraded
        assert "distributed[good]" in report.summary()

    def test_metric_snapshots_identical_across_runs(self):
        # Counts are deterministic; wall time lives only in spans, and
        # the ManualClock pins those too — so both exports are
        # byte-identical across two runs of the same scenario.
        def run():
            telemetry = Telemetry(clock=ManualClock())
            diagnose_sdn1(telemetry)
            return telemetry

        first, second = run(), run()
        assert first.snapshot_json() == second.snapshot_json()
        assert json.dumps(first.chrome_trace(), sort_keys=True) == json.dumps(
            second.chrome_trace(), sort_keys=True
        )

    def test_error_inside_diagnosis_closes_root_span(self):
        telemetry = Telemetry(clock=ManualClock())
        scenario = ALL_SCENARIOS["SDN1"]()
        scenario.setup()
        options = DiffProvOptions(telemetry=telemetry, enable_taint=False)
        report = scenario.diagnose(options)
        assert not report.success
        root = telemetry.tracer.roots[0]
        assert root.end is not None
        assert root.status == "error"
        # The failure still produced a telemetry section.
        assert report.telemetry["spans"] >= 1


class TestDisabledTelemetry:
    def test_none_and_null_telemetry_add_nothing(self):
        for disabled in (None, NullTelemetry()):
            report = diagnose_sdn1(disabled)
            assert report.success
            assert report.telemetry is None
            assert "phase breakdown" not in report.summary()

    def test_disabled_keeps_executions_unscathed(self):
        scenario = ALL_SCENARIOS["SDN1"]()
        scenario.setup()
        scenario.diagnose(DiffProvOptions(telemetry=None))
        assert scenario.good_execution.engine.telemetry is None
        assert scenario.good_execution.telemetry is None


class TestCli:
    def test_json_has_no_telemetry_key_when_disabled(self, capsys):
        assert cli_main(["--json", "diagnose", "SDN1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "telemetry" not in data
        assert set(data["distributed"]) == {"good", "bad"}

    def test_metrics_flag_emits_snapshot_and_telemetry_json(self, capsys):
        assert cli_main(["--json", "diagnose", "SDN1", "--metrics"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"] is True
        counters = data["telemetry"]["metrics"]["counters"]
        assert counters["diffprov.changes"] == 1
        phase_names = {p["name"] for p in data["telemetry"]["phases"]}
        assert "diffprov.diagnose" in phase_names

    def test_scenario_names_are_case_insensitive(self, capsys):
        assert cli_main(["--json", "diagnose", "sdn1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "SDN1"

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            cli_main(["diagnose", "sdn1", "--metrics", "--trace-out", str(out)])
            == 0
        )
        text = capsys.readouterr().out
        assert "phase breakdown:" in text
        assert "metrics:" in text
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        names = {e["name"] for e in trace["traceEvents"]}
        assert EXPECTED_SPANS <= names
        assert all(e["ph"] == "X" for e in trace["traceEvents"])
