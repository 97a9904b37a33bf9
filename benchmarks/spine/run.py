"""One command for every number: the benchmark spine's entry point.

Two ways in, one code path:

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload in this interpreter (the form the driver
    calls, see ``BENCHMARK.json``).  ``--trace 0`` measures the
    end-to-end metrics with tracing off; ``--trace 1`` records spans
    around the harness's own calls into each layer and derives the
    per-layer metrics.  The last line of standard output is the result
    as one JSON object.

``PYTHONPATH=src python -m benchmarks.spine.run --seed N --out FILE``
    Every workload, each pass in a fresh interpreter, then the summary:
    every metric by name and unit, a layer-budget row per workload, the
    result file (one provenance-carrying row per workload x metric) and
    the merged Chrome trace.  Exits non-zero if any operation failed
    its correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.spine import schema  # noqa: E402
from benchmarks.spine.trace import SpanRecorder  # noqa: E402

DEFAULT_SECONDS = json.loads(
    (_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
)["run_seconds"] if (_ROOT / "BENCHMARK.json").exists() else 20


def _show(name: str, value: float, unit: str) -> None:
    print(f"  {name:<42} {value:>14.6g} {unit}")


def _show_budget(workload: str, budget: dict) -> None:
    """One layer-budget row: layers, their sum, the wall, the remainder."""
    wall = budget["wall_s"]
    layers = budget["layers"]
    attributed = sum(layers.values())
    parts = "  ".join(
        f"{layer}={seconds:.4g}s ({seconds / wall:.0%})"
        for layer, seconds in layers.items()
    )
    print(
        f"  budget[{workload}/{budget['op']}] {parts}  sum={attributed:.4g}s  "
        f"wall={wall:.4g}s  unattributed={wall - attributed:.4g}s "
        f"({(wall - attributed) / wall:.0%})"
    )


# -- one workload, one pass, this interpreter ---------------------------------


def run_one(args) -> int:
    # The harness must stay off every deprecated path (ROADMAP item 2
    # deletes them); the worker process inherits the filter by fork.
    warnings.simplefilter("error", DeprecationWarning)
    try:
        from benchmarks.spine import layers, workloads
    except ModuleNotFoundError as exc:
        print(f"cannot import the program under test ({exc}): the "
              f"benchmark needs the checkout's src/", file=sys.stderr)
        return 2

    workload = workloads.make(
        args.workload, args.seed, args.seconds, args.smoke
    )
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }
    try:
        if args.trace:
            recorder = SpanRecorder()
            values, budgets, attempted, failed = layers.trace(
                workload, recorder
            )
            units = {name: row[0] for name, row in schema.PER_LAYER.items()}
            detail["budgets"] = budgets
            detail["trace_events"] = recorder.chrome_events(
                process=args.workload
            )
            self_seconds = recorder.self_seconds()
            timings = {}
        else:
            setup_s, _ = workloads.timed(lambda: workloads.setup(workload))
            samples = workload.measure()
            attempted, failed = samples.attempted, samples.failed
            if not samples.diagnose or not samples.repair:
                print(f"{args.workload}: no correct diagnosis or repair "
                      f"({failed} of {attempted} operations failed)",
                      file=sys.stderr)
                return 1
            values = workloads.end_to_end(args.workload, setup_s, samples)
            workload.close()
            values["setup_s"] = workloads.median_setup(workload, setup_s)
            units = {name: row[0] for name, row in schema.END_TO_END.items()}
            budgets = []
            self_seconds = {}
            timings = {
                "diagnose_p50_s": samples.diagnose,
                "diagnose_tail_s": samples.diagnose,
                "repair_p50_s": samples.repair,
            }
    finally:
        workload.close()

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    metrics = {}
    for name, value in values.items():
        _show(name, value, units[name])
        metrics[name] = {"value": value, "unit": units[name]}
    _show("failed_fraction", failed / attempted, "ratio")
    for budget in budgets:
        _show_budget(args.workload, budget)
    if self_seconds:
        print("  span self time by layer: " + "  ".join(
            f"{layer}={seconds:.4g}s"
            for layer, seconds in sorted(self_seconds.items())
        ))

    if args.detail:
        detailed = {name: dict(row) for name, row in metrics.items()}
        for name, ops in timings.items():
            q1, q3 = schema.quartiles(ops)
            detailed[name].update(samples=len(ops), q1=q1, q3=q3)
        detail.update(metrics=detailed, attempted=attempted, failed=failed)
        Path(args.detail).write_text(json.dumps(detail), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- every workload, fresh interpreters, one result file ----------------------


def _child(args, workload: str, seed: int, trace: int, scratch: str) -> dict:
    detail = Path(scratch) / f"{workload}-{seed}-{trace}.json"
    command = [
        sys.executable, "-W", "error::DeprecationWarning",
        str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} (trace={trace}) exited with {done.returncode}"
        )
    # The last line is the driver's JSON; the detail file has it all.
    print("\n".join(done.stdout.splitlines()[:-1]))
    return json.loads(detail.read_text(encoding="utf-8"))


def _row(env: dict, workload: str, metric: str, kind: str, unit: str,
         run_values: list, first: dict) -> dict:
    """One result row: the number plus everything needed to trust it.

    ``q1``/``q3`` are the quartiles of the per-run values (run-to-run
    spread, what ``compare.py`` judges by; equal to the value after a
    single run).  ``samples`` and ``sample_q1``/``sample_q3`` describe
    the timed operations inside the first run, for metrics that are a
    percentile of such samples.
    """
    q1, q3 = schema.quartiles(run_values)
    value = schema.median(run_values)
    return dict(
        env, workload=workload, metric=metric, kind=kind, unit=unit,
        value=value, runs=len(run_values), run_values=run_values,
        q1=q1, q3=q3, samples=first.get("samples", 1),
        sample_q1=first.get("q1", value), sample_q3=first.get("q3", value),
    )


def run_all(args) -> int:
    env = schema.environment(args.seed)
    schema.OUT_DIR.mkdir(parents=True, exist_ok=True)
    rows, budgets, events = [], {}, []
    failed_anywhere = False
    with tempfile.TemporaryDirectory(dir=schema.OUT_DIR) as scratch:
        for workload in schema.WORKLOADS:
            passes = [
                _child(args, workload, args.seed + run, 0, scratch)
                for run in range(args.runs)
            ]
            for metric, (unit, _, _) in schema.END_TO_END.items():
                rows.append(_row(
                    env, workload, metric, "end_to_end", unit,
                    [p["metrics"][metric]["value"] for p in passes],
                    passes[0]["metrics"][metric],
                ))
            fractions = [p["failed"] / p["attempted"] for p in passes]
            rows.append(_row(env, workload, "failed_fraction", "end_to_end",
                             "ratio", fractions, {}))
            traced = _child(args, workload, args.seed, 1, scratch)
            fractions.append(traced["failed"] / traced["attempted"])
            failed_anywhere |= any(fractions)
            for metric, (unit, _, _, _) in schema.PER_LAYER.items():
                rows.append(_row(
                    env, workload, metric, "per_layer", unit,
                    [traced["metrics"][metric]["value"]], {},
                ))
            budgets[workload] = traced["budgets"]
            pid = len(budgets)
            for event in traced["trace_events"]:
                events.append(dict(event, pid=pid))

    print("\n== summary: end to end ==")
    for row in rows:
        if row["kind"] == "end_to_end":
            _show(f"{row['workload']} {row['metric']}", row["value"],
                  row["unit"])
    print("\n== summary: layer budgets ==")
    for workload, workload_budgets in budgets.items():
        for budget in workload_budgets:
            _show_budget(workload, budget)

    out = Path(args.out)
    out.write_text(json.dumps(
        {"env": env, "seconds": args.seconds, "smoke": args.smoke,
         "rows": rows, "budgets": budgets}, indent=1,
    ), encoding="utf-8")
    trace_out = Path(args.trace_out or out.with_suffix(".trace.json"))
    trace_out.write_text(
        json.dumps({"traceEvents": events}), encoding="utf-8"
    )
    print(f"\nresults: {out}\ntrace:   {trace_out}")
    if failed_anywhere:
        print("FAILED: failed_fraction > 0 on at least one workload",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(schema.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: proves the schema, measures nothing")
    parser.add_argument("--detail", help="(with --workload) also write the "
                        "pass's full detail to this JSON file")
    parser.add_argument("--runs", type=int, default=1,
                        help="(all workloads) untraced passes per workload, "
                        "seeds N..N+runs-1")
    parser.add_argument("--out", default=str(schema.OUT_DIR / "results.json"))
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
