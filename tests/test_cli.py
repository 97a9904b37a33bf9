"""Tests for the diffprov command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diagnose", "SDN99"])


class TestCommands:
    def test_scenarios_lists_them_all(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("SDN1", "SDN4", "MR1-D", "MR2-I", "DNS"):
            assert name in out

    def test_scenarios_json(self, capsys):
        assert main(["--json", "scenarios"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 14
        assert {"name", "description"} <= set(rows[0])

    def test_diagnose_sdn2(self, capsys):
        assert main(["diagnose", "SDN2"]) == 0
        out = capsys.readouterr().out
        assert "root-cause" in out
        assert "remove flowEntry" in out

    def test_diagnose_json(self, capsys):
        assert main(["--json", "diagnose", "SDN2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"]
        assert len(data["changes"]) == 1

    def test_diagnose_with_taints_disabled_reports_failure(self, capsys):
        assert main(["--json", "diagnose", "SDN2", "--no-taint"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert not data["success"]

    def test_tree_tuple_view(self, capsys):
        assert main(["tree", "SDN2", "--side", "bad"]) == 0
        out = capsys.readouterr().out
        assert "delivered(" in out
        assert "via" in out

    def test_tree_vertex_view(self, capsys):
        assert main(["tree", "SDN2", "--side", "good", "--view", "vertex"]) == 0
        out = capsys.readouterr().out
        assert "EXIST(" in out and "DERIVE(" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "70.3%" in out

    def test_survey_json(self, capsys):
        assert main(["--json", "survey"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["with_reference"] == 45

    def test_tree_dot(self, capsys):
        assert main(["tree", "DNS", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_tree_dot_diff(self, capsys):
        assert main(["tree", "DNS", "--dot", "--diff"]) == 0
        out = capsys.readouterr().out
        assert "cluster_good" in out and "cluster_bad" in out

    def test_diagnose_minimize_flag(self, capsys):
        assert main(["--json", "diagnose", "DNS", "--minimize"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"]
        assert len(data["changes"]) == 1

    def test_autoref(self, capsys):
        assert main(["--json", "autoref", "DNS"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"]
        assert data["reference"].startswith("response('ns-c'")
        assert data["changes"] == ["insert transferred('ns-a', 'example.com', 2)"]

    def test_export_roundtrip(self, capsys, tmp_path):
        from repro.provenance.serialize import load_graph

        out = str(tmp_path / "dns.jsonl")
        assert main(["--json", "export", "DNS", "--out", out]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["records"] > 0
        graph = load_graph(out)
        assert len(graph) > 0
        assert graph.live_tuples("response")


class TestScenarioParams:
    def test_param_coercion(self):
        from repro.cli import _coerce_param_value, _parse_params

        assert _coerce_param_value("50") == 50
        assert _coerce_param_value("true") is True
        assert _coerce_param_value("False") is False
        assert _coerce_param_value("0.25") == 0.25
        assert _coerce_param_value("edge") == "edge"
        assert _parse_params(["flaps=5", "name=x", "rate=0.5"]) == {
            "flaps": 5, "name": "x", "rate": 0.5,
        }

    def test_param_reaches_the_scenario(self, capsys):
        assert main([
            "--json", "diagnose", "FLAP",
            "--param", "flaps=5", "--param", "probes_per_phase=3",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["success"]

    def test_malformed_param_is_a_usage_error(self, capsys):
        assert main(["diagnose", "FLAP", "--param", "flaps"]) == 2
        assert "--param wants KEY=VALUE" in capsys.readouterr().err

    def test_tree_and_export_honour_param(self, capsys, tmp_path):
        outputs = []
        for flaps in (3, 6):
            out = str(tmp_path / f"flap{flaps}.jsonl")
            assert main(["tree", "FLAP", "--param", f"flaps={flaps}"]) == 0
            assert main([
                "--json", "export", "FLAP", "--param", f"flaps={flaps}",
                "--out", out,
            ]) == 0
            tree, export = capsys.readouterr().out.split("\n{", 1)
            outputs.append((tree, json.loads("{" + export)["records"]))
        (tree3, records3), (tree6, records6) = outputs
        # Twice the flaps: a later bad packet, a bigger graph.
        assert tree3 != tree6
        assert records3 < records6


class TestKnobValues:
    @pytest.mark.parametrize("argv,flag", [
        (["diagnose", "SDN1", "--max-rounds", "0"], "--max-rounds"),
        (["diagnose", "SDN1", "--deadline-s", "nan"], "--deadline-s"),
        (["autoref", "SDN1", "--limit", "-1"], "--limit"),
        (["monitor", "FLAP-S", "--lateness", "-5"], "--lateness"),
        (["monitor", "FLAP-S", "--max-pending", "0"], "--max-pending"),
        (["monitor", "FLAP-S", "--capacity", "0"], "--capacity"),
    ])
    def test_bad_value_is_a_usage_error(self, argv, flag, capsys):
        # The knob's check runs at parse time: one "diffprov ...: error:"
        # line and exit 2, never a ReproError traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "error:" in err
        assert "Traceback" not in err

    def test_defaults_come_from_the_signatures(self):
        args = build_parser().parse_args(["monitor", "FLAP-S"])
        assert (args.capacity, args.lateness, args.max_pending,
                args.diagnose_every) == (24, 8, 8, 1)
        args = build_parser().parse_args(["autoref", "DNS"])
        assert (args.limit, args.max_rounds, args.taint,
                args.replay_cache) == (10, 10, True, True)


class TestMonitorCommand:
    def test_monitor_human_output(self, capsys):
        assert main(["monitor", "FLAP-S", "--param", "flaps=4"]) == 0
        out = capsys.readouterr().out
        assert "incident-seq" in out
        assert "[confirmed]" in out
        assert "summary:" in out

    def test_monitor_json_records(self, capsys):
        assert main([
            "--json", "monitor", "FLAP-S", "--param", "flaps=4",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "FLAP-S"
        assert len(data["records"]) == 4
        assert data["summary"]["shed"] == 0
        assert all(r["kind"] == "diagnosis" for r in data["records"])

    def test_monitor_metrics_flag(self, capsys):
        assert main([
            "monitor", "FLAP-S", "--param", "flaps=3", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "streaming.monitor.diagnoses" in out

    def test_monitor_records_out(self, capsys, tmp_path):
        out = str(tmp_path / "records.ndjson")
        assert main([
            "monitor", "FLAP-S", "--param", "flaps=3",
            "--records-out", out,
        ]) == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["kind"] == "diagnosis" for line in lines)

    def test_monitor_dump_stream_then_replay_file(self, capsys, tmp_path):
        stream = str(tmp_path / "stream.ndjson")
        assert main([
            "--json", "monitor", "FLAP-S", "--param", "flaps=3",
            "--dump-stream", stream,
        ]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["events"] > 0

        assert main([
            "--json", "monitor", "FLAP-S", "--stream", stream,
        ]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert len(replayed["records"]) == 3

    def test_monitor_under_stream_faults_degrades_in_output(self, capsys):
        assert main([
            "monitor", "FLAP-S", "--param", "flaps=8",
            "--faults", "event-drop=0.08,seed=3",
        ]) == 0
        out = capsys.readouterr().out
        assert "[uncertain]" in out
        assert "UNKNOWN gap(seq=" in out

    def test_monitor_bad_fault_spec_is_a_usage_error(self, capsys):
        assert main(["monitor", "FLAP-S", "--faults", "bogus=1"]) == 2
        assert "error" in capsys.readouterr().err
