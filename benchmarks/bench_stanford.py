"""Section 6.7: complex network diagnostics (the Stanford setup).

Paper shape: the provenance trees of the fault and the reference are
small (67 and 75 vertexes — the fault involves few hops) yet the plain
diff is larger than either (108); despite 20 unrelated injected faults
and heavy background traffic, DiffProv identifies exactly the one
misconfigured entry on S2 (here: the drop rule for 172.20.10.32/27 on
oz2).

Under pytest, ``--full-scale`` semantics come from the environment
variable ``STANFORD_FULL_SCALE=1`` (47k entries/router, 1.5k ACLs).
As a script the flags are explicit::

    PYTHONPATH=src python benchmarks/bench_stanford.py --full-scale --engine compiled

The full-scale run is only practical with the compiled backend (the
default): the reference oracle copies the 757k-entry configuration
per candidate replay, the compiled one forks it copy-on-write.
"""

import argparse
import os
import sys
import time

from repro.datalog import BACKENDS
from repro.scenarios.stanford import StanfordForwardingError

FULL_SCALE = bool(os.environ.get("STANFORD_FULL_SCALE"))


def test_stanford_forwarding_error(benchmark):
    from conftest import emit

    scenario = StanfordForwardingError(
        full_scale=FULL_SCALE,
        background_packets=200 if not FULL_SCALE else 400,
    )
    scenario.setup()

    def diagnose():
        scenario.good_execution._materialized = None
        return scenario.diagnose()

    report = benchmark.pedantic(diagnose, rounds=1, iterations=1)
    good, bad = scenario.trees()
    rows = [
        {
            "entries": scenario.config.total_entries(),
            "injected_faults": len(scenario.faults),
            "good_tree": good.size(),
            "bad_tree": bad.size(),
            "plain_diff": scenario.plain_diff_size(),
            "diffprov": report.num_changes,
            "paper": "67/75 trees, 108 diff, 1 root cause",
        }
    ]
    emit("Section 6.7: Stanford forwarding error", rows)
    benchmark.extra_info["rows"] = rows

    assert report.success
    # Exactly the injected fault, in spite of the 20 decoys.
    assert report.num_changes == 1
    assert report.changes[0].remove == (scenario.expected_fault,)
    # Small trees (few hops), diff larger than either tree.
    assert good.size() < 120 and bad.size() < 120
    assert rows[0]["plain_diff"] > max(good.size(), bad.size())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full-scale", action="store_true",
        help="the paper's 47k entries/router + 1500 ACLs (757k total)",
    )
    parser.add_argument(
        "--engine", default=None,
        choices=BACKENDS,
        help="evaluation backend (default: compiled)",
    )
    parser.add_argument(
        "--background", type=int, default=None,
        help="background packets (default: 200, or 400 at full scale)",
    )
    args = parser.parse_args(argv)

    background = args.background
    if background is None:
        background = 400 if args.full_scale else 200
    built = time.perf_counter()
    scenario = StanfordForwardingError(
        full_scale=args.full_scale,
        background_packets=background,
        engine=args.engine,
    ).setup()
    build_s = time.perf_counter() - built
    entries = scenario.config.total_entries()
    print(
        f"built {entries} entries / {len(scenario.faults)} injected faults "
        f"in {build_s:.1f}s (engine={args.engine or 'compiled'})"
    )
    started = time.perf_counter()
    report = scenario.diagnose()
    seconds = time.perf_counter() - started
    print(
        f"diagnosis: {seconds:.2f}s, {report.num_changes} change(s), "
        f"success={report.success}"
    )
    assert report.success and report.num_changes == 1
    assert report.changes[0].remove == (scenario.expected_fault,)
    return 0


if __name__ == "__main__":
    sys.exit(main())
