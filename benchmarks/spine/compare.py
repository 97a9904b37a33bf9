"""Apply the benchmark's bounds to two result files.

    python3 benchmarks/spine/compare.py A.json B.json [--same-code]

A is the base (the parent commit), B the candidate; both are result
files written by ``run.py --out``.  Every workload x end-to-end metric
gets its own row and one verdict:

``worse``       B's median is worse than A's by more than the metric's
                bound in ``BENCHMARK.json`` (``failed_fraction``: by
                anything at all);
``unresolved``  not worse, but the spread of either side (interquartile
                range over the runs in the file, as a share of the
                median) is wider than the bound, so "unchanged" cannot
                be claimed — unless every run of B beats every run of A,
                which reads as ``better``;
``better``      B's median is better by more than either side's spread;
``within``      anything else.

Every ratio is printed with its base.  Exits non-zero on any ``worse``.
With ``--same-code`` the files are two measurements of one commit: the
per-layer exact counts must then repeat exactly, and a difference also
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.spine import schema  # noqa: E402


def load_rows(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {(row["workload"], row["metric"]): row for row in data["rows"]}


def bounds() -> dict:
    """metric -> (better, bound) from the contract file."""
    contract = json.loads(
        (_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    table = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in contract["end_to_end"]
    }
    # Carried by the driver protocol's failed/attempted keys instead of
    # a metric entry (a value that is always 0 has no relative bound).
    table["failed_fraction"] = ("lower", 0.0)
    return table


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = a["value"]
    # Positive = B is worse, as a share of the base.
    change = sign * (b["value"] - base) / base if base else (
        sign * (b["value"] - base)
    )
    if change > bound:
        return "worse"
    widest = max(spread(a), spread(b))
    if widest > bound:
        a_runs = [sign * value for value in a["run_values"]]
        b_runs = [sign * value for value in b["run_values"]]
        return "better" if max(b_runs) < min(a_runs) else "unresolved"
    return "better" if change < 0 and -change > widest else "within"


def compare(a_rows: dict, b_rows: dict, same_code: bool) -> int:
    table = bounds()
    bad = 0
    print(f"{'workload':<16} {'metric':<16} {'verdict':<10} "
          f"{'A (base)':>12} {'B':>12} {'B/A':>7} "
          f"{'iqr A':>6} {'iqr B':>6} {'bound':>6}")
    for key, a in a_rows.items():
        if a["kind"] != "end_to_end":
            continue
        workload, metric = key
        b = b_rows.get(key)
        if b is None:
            print(f"{workload:<16} {metric:<16} missing in B")
            bad += 1
            continue
        better, bound = table[metric]
        result = verdict(a, b, better, bound)
        bad += result == "worse"
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{workload:<16} {metric:<16} {result:<10} "
              f"{a['value']:>12.6g} {b['value']:>12.6g} {ratio:>7.3f} "
              f"{spread(a):>6.1%} {spread(b):>6.1%} {bound:>6.0%}")

    changed = [
        (key, a_rows[key]["value"], b_rows[key]["value"])
        for key in a_rows
        if key[1] in schema.EXACT_COUNTS and key in b_rows
        and a_rows[key]["value"] != b_rows[key]["value"]
    ]
    for (workload, metric), before, after in changed:
        print(f"exact count changed: {workload} {metric} "
              f"{before:g} -> {after:g}")
    if same_code:
        bad += len(changed)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file of the base")
    parser.add_argument("b", help="result file of the candidate")
    parser.add_argument("--same-code", action="store_true",
                        help="A/A check: exact counts must repeat")
    args = parser.parse_args(argv)
    bad = compare(load_rows(args.a), load_rows(args.b), args.same_code)
    if bad:
        print(f"{bad} row(s) worse", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
