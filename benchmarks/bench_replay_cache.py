"""Candidate replays: from scratch vs forked off the live base.

The Figure 7 benchmark shows query turnaround dominated by replay;
this benchmark measures the mechanism that breaks that shape
(docs/performance.md, "Replay").  The workloads are the replay-heavy
diagnoses — minimality post-passes, which replay the bad log once per
candidate change — timed with ``replay_cache=False`` (every candidate
re-derives the whole log: the oracle path) and with the default (one
live base per execution, candidates forked by checkpoint/rollback).

Reported per workload:

- ``replay_scratch_s`` / ``replay_forked_s`` — the ``diffprov.replay``
  phase total (span-tree seconds, same source as ``--metrics``), best
  of ``ROUNDS`` runs each;
- ``speedup`` — their ratio (the acceptance bar is >= 1.5x on at least
  one workload);
- ``forks`` / ``bypassed`` — replays served from the base, and replays
  that forked below it and ran from scratch instead;
- ``pickles`` — ``pickle.dumps`` + ``pickle.loads`` calls during the
  forked diagnosis (must be 0: no snapshot is taken or restored);
- ``identical`` — canonical-report equality across from-scratch and
  forked.

Run as a script (writes BENCH_replay_cache.json)::

    PYTHONPATH=src python benchmarks/bench_replay_cache.py --out BENCH_replay_cache.json

or through pytest-benchmark like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_replay_cache.py --benchmark-only -s
"""

import argparse
import json
import pickle
import sys
from unittest import mock

from repro.core.diffprov import DiffProv, DiffProvOptions
from repro.observability import Telemetry
from repro.scenarios import ALL_SCENARIOS

# (scenario, params): replay-heavy minimality workloads.  SDN4 carries
# several candidate changes through the post-pass; SDN1 at benchmark
# scale replays a longer background-traffic log.
WORKLOADS = [
    ("SDN4", {"background_packets": 20}),
    ("SDN1", {"background_packets": 20}),
]
ROUNDS = 3


def _diagnose(name, params, replay_cache):
    scenario = ALL_SCENARIOS[name](**params).setup()
    telemetry = Telemetry()
    options = DiffProvOptions(
        minimize=True,
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
    counters = report.telemetry["metrics"]["counters"]
    return report, phases, counters


def _best_replay_seconds(name, params, replay_cache):
    """Best-of-ROUNDS candidate-replay phase time (noise floor)."""
    best = None
    report = counters = None
    for _ in range(ROUNDS):
        report, phases, counters = _diagnose(name, params, replay_cache)
        seconds = phases.get("diffprov.replay", 0.0)
        best = seconds if best is None else min(best, seconds)
    return best, report, counters


def run_benchmark():
    rows = []
    for name, params in WORKLOADS:
        off_s, off_report, _ = _best_replay_seconds(name, params, False)
        with mock.patch.object(pickle, "dumps", wraps=pickle.dumps) as dumps, \
                mock.patch.object(pickle, "loads", wraps=pickle.loads) as loads:
            on_s, on_report, counters = _best_replay_seconds(name, params, True)
            pickles = dumps.call_count + loads.call_count
        identical = off_report.canonical_json() == on_report.canonical_json()
        rows.append(
            {
                "scenario": name,
                "replay_scratch_s": round(off_s, 4),
                "replay_forked_s": round(on_s, 4),
                "speedup": round(off_s / max(on_s, 1e-9), 2),
                "replays": off_report.replays,
                "forks": counters.get("replay.base.forks", 0),
                "bypassed": counters.get("replay.base.bypassed", 0),
                "pickles": pickles,
                "identical": identical,
            }
        )
    return rows


def check(rows):
    for row in rows:
        assert row["identical"], (
            f"{row['scenario']}: forking changed the report"
        )
        assert row["forks"] == row["replays"] and row["pickles"] == 0, row
    best = max(row["speedup"] for row in rows)
    assert best >= 1.5, (
        f"candidate-replay speed-up {best}x below the 1.5x bar: {rows}"
    )


def test_replay_cache_speedup(benchmark):
    rows = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    from conftest import emit

    emit("Candidate-replay phase: from scratch vs forked", rows)
    benchmark.extra_info["rows"] = rows
    check(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_replay_cache.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    rows = run_benchmark()
    check(rows)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "replay_cache", "rows": rows}, handle, indent=2
        )
        handle.write("\n")
    for row in rows:
        print(
            f"{row['scenario']:6s} replay {row['replay_scratch_s']*1000:7.1f}ms -> "
            f"{row['replay_forked_s']*1000:7.1f}ms  ({row['speedup']}x, "
            f"{row['forks']} forks/{row['bypassed']} bypassed, "
            f"{row['pickles']} pickles, identical={row['identical']})"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
