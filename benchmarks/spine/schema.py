"""The benchmark's vocabulary: workloads, metrics, bounds, interactions.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the same contract in a form the harness can
compute with, plus what the JSON schema has no key for: which layer a
per-layer metric belongs to, which end-to-end metric it should move and
on which workload (the interaction table), and each workload's tail
percentile.  ``test_spine.py`` asserts the two agree.
"""

from __future__ import annotations

import os
import platform
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
SPINE = Path(__file__).resolve().parent
# Everything a run writes (journals, result files, traces) stays here.
OUT_DIR = SPINE / "out"

SDN4, STANFORD, FLAP, SERVICE = (
    "sdn4-offline", "stanford-scaled", "flap-stream", "service-mix",
)

# name -> why it exists (one line, at most 200 characters: the text
# BENCHMARK.json carries, including what --seed varies).
WORKLOADS: Dict[str, str] = {
    SDN4: (
        "NDlog path end to end: two-fault multi-round delta with "
        "minimization replays, where datalog/provenance/replay changes "
        "show; seed-invariant (SDN4's trace seed is fixed in src/)"
    ),
    STANFORD: (
        "449k flow entries on the sdn emulator, NDlog engine bypassed, "
        "working set dwarfs every cache: datalog changes must not move "
        "it; seed-invariant (generator seed fixed in src/)"
    ),
    FLAP: (
        "delete/insert churn: hundreds of ~20 ms diagnoses over a "
        "24-event window, so per-diagnosis fixed overhead dominates, "
        "not log length; --seed is the stream seed"
    ),
    SERVICE: (
        "diagnosis through protocol, admission, worker IPC, a cold "
        "Session per request, journal and warm cross-request cache; only "
        "MR1-D user; --seed shuffles the request order"
    ),
}

# Fixed per workload so the metric keeps one meaning when a time-boxed
# run collects a few samples more or fewer.  flap-stream (680 samples)
# and service-mix (~200) use the highest percentile with >= 10 samples
# beyond it; flap's p95 would sit on the edge between incidents that
# caught a full collection (~6 %, ~55 ms) and those that did not
# (~15 ms) and swing between the two.  20 s buys sdn4-offline ~12
# samples and Stanford ~5, too few for that rule: p75 and the median.
TAIL_PERCENTILE = {SDN4: 75, STANFORD: 50, FLAP: 98, SERVICE: 95}

# name -> (unit, better, bound).  The timing bounds are three times the
# run-to-run spread measured on the (noisy, 2-core) reference host,
# capped at the contract's 0.25 — README.md has the measurements.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "diagnose_p50_s": ("s", "lower", 0.25),
    "diagnose_tail_s": ("s", "lower", 0.25),
    "diagnoses_per_s": ("1/s", "higher", 0.25),
    "repair_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

_ALL = (SDN4, STANFORD, FLAP, SERVICE)
_NDLOG = (SDN4, SERVICE)


def _moves(metric: str, *workloads: str) -> List[tuple]:
    return [(metric, workload) for workload in workloads]


# name -> (unit, better, exact count?, [(end-to-end metric, workload)])
# The last column is the interaction table: where a change to this
# number should show end to end.  Everywhere else the prediction is
# "no change".
PER_LAYER: Dict[str, tuple] = {
    "scenarios.build_s": ("s", "lower", False, _moves("setup_s", *_ALL)),
    "datalog.eval_s": ("s", "lower", False, _moves("diagnose_p50_s", *_NDLOG)),
    "datalog.steps": ("count", "lower", True, _moves("diagnose_p50_s", *_NDLOG)),
    "datalog.steps_per_s": ("1/s", "higher", False,
                            _moves("diagnose_p50_s", *_NDLOG)),
    "provenance.record_s": ("s", "lower", False,
                            _moves("diagnose_p50_s", SDN4, SERVICE)),
    "provenance.materialize_s": ("s", "lower", False,
                                 _moves("diagnose_p50_s", SDN4, SERVICE)),
    "provenance.query_s": ("s", "lower", False,
                           _moves("diagnose_p50_s", SDN4, SERVICE)),
    "provenance.graph_vertices": ("count", "lower", True,
                                  _moves("peak_rss_mb", SDN4)),
    "provenance.tree_vertices": ("count", "lower", True,
                                 _moves("diagnose_p50_s", SDN4)),
    "replay.full_s": ("s", "lower", False,
                      _moves("diagnose_p50_s", SDN4, SERVICE)
                      + _moves("repair_p50_s", SDN4)),
    "replay.per_diagnosis": ("count", "lower", True,
                             _moves("diagnose_p50_s", SDN4, STANFORD)),
    "replay.seconds_share": ("ratio", "lower", False,
                             _moves("diagnose_p50_s", SDN4)),
    "replay.snapshot_store_s": ("s", "lower", False,
                                _moves("diagnose_p50_s", SDN4, SERVICE)),
    "replay.snapshot_fetch_s": ("s", "lower", False,
                                _moves("diagnose_p50_s", SDN4, SERVICE)
                                + _moves("repair_p50_s", SDN4)),
    "replay.snapshot_bytes": ("bytes", "lower", False,
                              _moves("peak_rss_mb", SDN4, SERVICE)),
    "replay.cache_hit_ratio": ("ratio", "higher", False,
                               _moves("diagnose_p50_s", SDN4, SERVICE)),
    "replay.cache_off_delta_s": ("s", "higher", False,
                                 _moves("diagnose_p50_s", SDN4)),
    "sdn.config_fork_s": ("s", "lower", False,
                          _moves("diagnose_p50_s", STANFORD)),
    "sdn.emulated_replay_s": ("s", "lower", False,
                              _moves("diagnose_p50_s", STANFORD)),
    "sdn.flow_entries": ("count", "lower", True,
                         _moves("peak_rss_mb", STANFORD)),
    "core.reasoning_s": ("s", "lower", False,
                         _moves("diagnose_p50_s", STANFORD, FLAP)),
    "core.minimize_delta_s": ("s", "lower", False,
                              _moves("diagnose_p50_s", SDN4, STANFORD)),
    "core.autoref_s": ("s", "lower", False, _moves("diagnose_p50_s", FLAP)),
    "core.rounds": ("count", "lower", True, _moves("diagnose_p50_s", SDN4)),
    "core.changes": ("count", "lower", True, _moves("repair_p50_s", SDN4)),
    "repair.delta_s": ("s", "lower", False, _moves("repair_p50_s", *_ALL)),
    "repair.prepare_s": ("s", "lower", False,
                         _moves("repair_p50_s", STANFORD)),
    "repair.enumerate_s": ("s", "lower", False,
                           _moves("repair_p50_s", STANFORD)),
    "repair.verify_s": ("s", "lower", False, _moves("repair_p50_s", SDN4)),
    "repair.plans": ("count", "lower", True, _moves("repair_p50_s", SDN4)),
    "repair.replays": ("count", "lower", True, _moves("repair_p50_s", SDN4)),
    "resilience.journal_delta_s": ("s", "lower", False,
                                   _moves("diagnose_p50_s", SERVICE)),
    "resilience.journal_record_s": ("s", "lower", False,
                                    _moves("diagnose_p50_s", SERVICE)),
    "resilience.journal_bytes": ("bytes", "lower", False,
                                 _moves("diagnose_p50_s", SERVICE)),
    # Telemetry is off by default, so these move nothing unless a
    # caller opts in; they exist so the cost of observing is a
    # measured layer (ROADMAP aim 4d).
    "observability.telemetry_delta_s": ("s", "lower", False,
                                        _moves("diagnose_p50_s", SDN4)),
    "observability.spans": ("count", "lower", True,
                            _moves("diagnose_p50_s", SDN4)),
    "bench.trace_overhead": ("ratio", "lower", False,
                             _moves("diagnose_p50_s", SDN4)),
    "streaming.codec_s_per_kevent": ("s/kevent", "lower", False,
                                     _moves("diagnoses_per_s", FLAP)),
    "streaming.ingest_s_per_kevent": ("s/kevent", "lower", False,
                                      _moves("diagnoses_per_s", FLAP)),
    "streaming.ingest_perturbed_s_per_kevent": (
        "s/kevent", "lower", False, _moves("diagnoses_per_s", FLAP)),
    "streaming.duplicates": ("count", "lower", True,
                             _moves("diagnoses_per_s", FLAP)),
    "streaming.gaps": ("count", "lower", True,
                       _moves("diagnoses_per_s", FLAP)),
    "streaming.reordered": ("count", "lower", True,
                            _moves("diagnoses_per_s", FLAP)),
    "streaming.window_push_s_per_kevent": ("s/kevent", "lower", False,
                                           _moves("diagnoses_per_s", FLAP)),
    "streaming.window_materialize_s": ("s", "lower", False,
                                       _moves("diagnose_p50_s", FLAP)
                                       + _moves("diagnoses_per_s", FLAP)),
    "streaming.detect_s_per_kevent": ("s/kevent", "lower", False,
                                      _moves("diagnoses_per_s", FLAP)),
    "streaming.nonincident_event_s": ("s", "lower", False,
                                      _moves("diagnoses_per_s", FLAP)),
    "streaming.incident_share": ("ratio", "lower", False,
                                 _moves("diagnoses_per_s", FLAP)),
    "streaming.events_per_s": ("1/s", "higher", False,
                               _moves("diagnoses_per_s", FLAP)),
    "streaming.peak_live": ("count", "lower", True,
                            _moves("peak_rss_mb", FLAP)),
    "service.protocol_s_per_kreq": ("s/kreq", "lower", False,
                                    _moves("diagnose_p50_s", SERVICE)),
    "service.ping_rtt_s": ("s", "lower", False,
                           _moves("diagnose_p50_s", SERVICE)),
    "service.overhead_s": ("s", "lower", False,
                           _moves("diagnose_p50_s", SERVICE)
                           + _moves("diagnoses_per_s", SERVICE)),
    "service.queue_wait_s": ("s", "lower", False,
                             _moves("diagnose_p50_s", SERVICE)),
    "service.worker_busy_share": ("ratio", "higher", False,
                                  _moves("diagnoses_per_s", SERVICE)),
    "service.shed_fraction_2x": ("ratio", "lower", True,
                                 _moves("diagnoses_per_s", SERVICE)),
}

EXACT_COUNTS = tuple(name for name, row in PER_LAYER.items() if row[2])


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (p in 0..100) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


# -- provenance of a result ---------------------------------------------------


def environment(seed: int) -> Dict[str, object]:
    """What every result row carries besides its number."""
    from repro import EngineConfig

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "engine": EngineConfig().describe(),
    }
