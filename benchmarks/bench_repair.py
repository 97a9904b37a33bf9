"""Rollback planning: verification throughput, cold vs cached replays.

Every candidate plan costs one anchored replay of the bad log, and all
of those replays share the pre-anchor prefix — exactly the shape the
live replay base (docs/performance.md, "Replay") exists for.  This
benchmark times the ``diffprov.repair`` phase (probe-suite
construction plus every plan verification) with ``replay_cache=False``
("cold": every plan re-derives the whole log) and with the default
("cached": plans fork off the base by checkpoint/rollback; plans that
fork below it still replay from scratch), and reports plans verified
per second.

Reported per workload:

- ``repair_cold_s`` / ``repair_cached_s`` — the repair phase total
  (span-tree seconds, same source as ``--metrics``), best of
  ``ROUNDS`` runs each;
- ``speedup`` — cold/cached ratio (acceptance bar: >= 1.2x on at
  least one workload — it was 1.5x while the ``revert-to-reference``
  verdict cost its own replay; that verdict now reuses the reference
  replay ``prepare()`` performs, so the cold phase lost exactly the
  kind of work the cache accelerates and both columns fell);
- ``plans`` / ``plans_per_s`` — enumerated plans over the cached
  phase time;
- ``identical`` — canonical-report equality across cold and cached
  (the repair section is part of the determinism contract, so the
  benchmark doubles as a regression check).

The last row is the emulated substrate (default-scale Stanford, which
never enters the NDlog replayer): one session's first ``repair()`` against
its second, identical canonical reports required.  Its phase time is
two packet-schedule replays plus O(Δ) footprint deltas
(docs/repair.md, "Cost model"); the 449k-entry timing lives in the
benchmark spine.

Run as a script (writes BENCH_repair.json)::

    PYTHONPATH=src python benchmarks/bench_repair.py --out BENCH_repair.json

or through pytest-benchmark like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_repair.py --benchmark-only -s
"""

import argparse
import json
import sys

from repro.api import Session
from repro.core.diffprov import DiffProv, DiffProvOptions
from repro.observability import Telemetry
from repro.scenarios import ALL_SCENARIOS
from repro.scenarios.stanford import StanfordForwardingError

# Benchmark-scale SDN workloads: more background traffic means longer
# logs to replay per verification and a bigger probe suite to hold.
WORKLOADS = [
    ("SDN1", {"background_packets": 20}),
    ("SDN4", {"background_packets": 20}),
]
ROUNDS = 3


def _diagnose(name, params, replay_cache):
    scenario = ALL_SCENARIOS[name](**params).setup()
    telemetry = Telemetry()
    options = DiffProvOptions(
        repair=True,
        replay_cache=replay_cache,
        telemetry=telemetry,
    )
    report = DiffProv(scenario.program, options).diagnose(
        scenario.good_execution,
        scenario.bad_execution,
        scenario.good_event,
        scenario.bad_event,
        scenario.good_time,
        scenario.bad_time,
    )
    phases = {p["name"]: p["seconds"] for p in report.telemetry["phases"]}
    return report, phases


def _best_repair_seconds(name, params, replay_cache):
    """Best-of-ROUNDS repair phase time (noise floor)."""
    best = None
    report = None
    for _ in range(ROUNDS):
        report, phases = _diagnose(name, params, replay_cache)
        seconds = phases.get("diffprov.repair", 0.0)
        best = seconds if best is None else min(best, seconds)
    return best, report


def _row(scenario, cold_s, cached_s, section, identical):
    plans = len(section["plans"]) + len(section["rejected"])
    return {
        "scenario": scenario,
        "repair_cold_s": round(cold_s, 4),
        "repair_cached_s": round(cached_s, 4),
        "speedup": round(cold_s / max(cached_s, 1e-9), 2),
        "plans": plans,
        "verified": len(section["plans"]),
        "probes": section["probes"],
        "replays": section["replays"],
        "plans_per_s": round(plans / max(cached_s, 1e-9), 1),
        "identical": identical,
    }


def _stanford_row():
    """Emulator substrate: first vs second repair() of one session."""
    scenario = StanfordForwardingError().setup()
    reports, totals = [], [0.0]
    with Session(
        program=scenario.program,
        good=scenario.good_execution,
        bad=scenario.bad_execution,
        good_event=scenario.good_event,
        bad_event=scenario.bad_event,
        good_time=scenario.good_time,
        bad_time=scenario.bad_time,
        minimize=True,
        telemetry=True,
    ) as session:
        for _ in range(2):
            report = session.repair()
            reports.append(report)
            # Session telemetry accumulates across calls.
            totals.append(
                next(
                    phase["seconds"]
                    for phase in report.telemetry["phases"]
                    if phase["name"] == "diffprov.repair"
                )
            )
    return _row(
        scenario.name,
        totals[1] - totals[0],
        totals[2] - totals[1],
        reports[1].repair,
        reports[0].canonical_json() == reports[1].canonical_json(),
    )


def run_benchmark():
    rows = []
    for name, params in WORKLOADS:
        cold_s, cold_report = _best_repair_seconds(name, params, False)
        cached_s, cached_report = _best_repair_seconds(name, params, True)
        identical = (
            cold_report.canonical_json() == cached_report.canonical_json()
        )
        rows.append(
            _row(name, cold_s, cached_s, cached_report.repair, identical)
        )
    rows.append(_stanford_row())
    return rows


def check(rows):
    for row in rows:
        assert row["identical"], (
            f"{row['scenario']}: the cache changed the repair section"
        )
        assert row["verified"] >= 1, row
    best = max(row["speedup"] for row in rows)
    assert best >= 1.2, (
        f"cached repair speed-up {best}x below the 1.2x bar: {rows}"
    )


def test_repair_throughput(benchmark):
    rows = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    from conftest import emit

    emit("Rollback planning: verification replays, cold vs cached", rows)
    benchmark.extra_info["rows"] = rows
    check(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_repair.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    rows = run_benchmark()
    check(rows)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": "repair", "rows": rows}, handle, indent=2)
        handle.write("\n")
    for row in rows:
        print(
            f"{row['scenario']:12s} repair {row['repair_cold_s']*1000:7.1f}ms -> "
            f"{row['repair_cached_s']*1000:7.1f}ms  ({row['speedup']}x, "
            f"{row['plans']} plans, {row['plans_per_s']}/s, "
            f"identical={row['identical']})"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
