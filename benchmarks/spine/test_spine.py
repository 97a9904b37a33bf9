"""Schema proof for the benchmark spine, at ``--smoke`` scale.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine.py -q

The smoke run uses tiny inputs and a one-second time box: it proves
that every metric the contract names is produced, for every workload,
with its provenance — it measures nothing.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.spine import compare, schema  # noqa: E402
from benchmarks.spine.trace import SpanRecorder, check_parents, load_trace  # noqa: E402

RUN = str(schema.SPINE / "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PROVENANCE = ("commit", "host", "python", "nproc", "seed", "engine",
              "runs", "q1", "q3", "samples", "sample_q1", "sample_q3")


@pytest.fixture(scope="module")
def contract():
    return json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke():
    """One full smoke run: (result document, trace events, result path)."""
    schema.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="test-", dir=schema.OUT_DIR))
    out = scratch / "results.json"
    try:
        subprocess.run(
            [sys.executable, RUN, "--smoke", "--seconds", "1", "--seed", "3",
             "--out", str(out)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        yield (
            json.loads(out.read_text(encoding="utf-8")),
            load_trace(str(out.with_suffix(".trace.json"))),
            out,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_contract_file_is_within_the_driver_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/spine"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in contract["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_file_agrees_with_the_harness(contract):
    assert {w["name"]: w["why"] for w in contract["workloads"]} == \
        schema.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]} == schema.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["per_layer"]} == \
        {name: row[:2] for name, row in schema.PER_LAYER.items()}
    assert set(schema.TAIL_PERCENTILE) == set(schema.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    layers = {path.name for path in (_ROOT / "src" / "repro").iterdir()
              if path.is_dir()} | {"bench"}
    for name, (_, _, _, moves) in schema.PER_LAYER.items():
        assert name.split(".")[0] in layers, name
        assert moves, f"{name} is missing from the interaction table"
        for metric, workload in moves:
            assert metric in schema.END_TO_END, (name, metric)
            assert workload in schema.WORKLOADS, (name, workload)


def test_smoke_run_emits_every_metric_with_provenance(smoke):
    document, _, _ = smoke
    rows = {(row["workload"], row["metric"]): row for row in document["rows"]}
    for workload in schema.WORKLOADS:
        for metric in list(schema.END_TO_END) + list(schema.PER_LAYER):
            row = rows[(workload, metric)]
            assert all(key in row for key in PROVENANCE), (workload, metric)
            assert isinstance(row["value"], (int, float))
        for metric in schema.END_TO_END:
            assert rows[(workload, metric)]["value"] > 0, (workload, metric)
        assert rows[(workload, "failed_fraction")]["value"] == 0
        budgets = document["budgets"][workload]
        assert budgets and all("unattributed_s" in b for b in budgets)
    assert document["env"]["engine"] == "compiled/annotated"


def test_smoke_trace_loads_and_every_span_has_a_parent_or_is_a_root(smoke):
    _, events, _ = smoke
    assert check_parents(events) > 100
    processes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert processes == set(schema.WORKLOADS)


@pytest.mark.parametrize("trace,expected", [
    (0, schema.END_TO_END), (1, schema.PER_LAYER),
])
def test_driver_invocation_prints_the_result_object_last(trace, expected):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", schema.FLAP, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name][0]


def test_compare_passes_a_file_against_itself_and_flags_a_regression(
    smoke, capsys
):
    document, _, out = smoke
    assert compare.main([str(out), str(out), "--same-code"]) == 0
    assert " worse " not in capsys.readouterr().out

    for row in document["rows"]:
        if (row["workload"], row["metric"]) == (schema.SDN4, "diagnose_p50_s"):
            row["value"] *= 1.5
            row["run_values"] = [v * 1.5 for v in row["run_values"]]
        if (row["workload"], row["metric"]) == (schema.SDN4, "datalog.steps"):
            row["value"] += 1
    slower = out.with_name("slower.json")
    slower.write_text(json.dumps(document), encoding="utf-8")
    assert compare.main([str(out), str(slower)]) == 1
    printed = capsys.readouterr().out
    assert re.search(r"sdn4-offline\s+diagnose_p50_s\s+worse", printed)
    assert "exact count changed: sdn4-offline datalog.steps" in printed


def test_self_time_is_the_span_minus_its_children():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("core.diagnose"):
        with recorder.span("replay.full"):
            pass
    assert recorder.self_seconds() == {"core": 7.0, "replay": 3.0}
    assert check_parents(recorder.chrome_events()) == 2
