"""The ``diffprov`` command-line debugger.

Subcommands::

    diffprov scenarios                 list the built-in scenarios
    diffprov diagnose SDN1             run DiffProv on a scenario
    diffprov repair SDN1               diagnose, then rank replay-verified
                                       rollback plans (docs/repair.md)
    diffprov autoref DNS               diagnose with a discovered reference
    diffprov tree SDN1 --side bad      print a provenance tree (--dot for
                                       Graphviz, --diff for Figure 2 style)
    diffprov export DNS --out g.jsonl  dump a provenance graph
    diffprov table1                    regenerate Table 1
    diffprov survey                    the Section 2.4 survey statistics
    diffprov unsuitable                the Section 6.3 reference study
    diffprov stanford                  the Section 6.7 complex network
    diffprov serve --port 8732         run the diagnosis service
                                       (docs/service.md)
    diffprov top --port 8732           live service dashboard (polls the
                                       stats verb; docs/observability.md)

Each subcommand prints human-readable output; ``--json`` emits
machine-readable results instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from typing import List, Optional

from . import survey as survey_module
from .api import Session, knob_default, knobs_for
from .datalog.config import BACKENDS
from .errors import FaultSpecError, ReproError
from .observability import format_metrics
from .scenarios import ALL_SCENARIOS

__all__ = ["main", "build_parser"]


def _scenario_parent() -> argparse.ArgumentParser:
    """The ``SCENARIO`` positional and ``--param``, shared by every
    subcommand that builds a scenario."""
    parent = argparse.ArgumentParser(add_help=False)
    # type=str.upper makes scenario names case-insensitive (sdn1 == SDN1).
    parent.add_argument(
        "scenario", type=str.upper, choices=sorted(ALL_SCENARIOS)
    )
    parent.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter, repeatable; VALUE is coerced to int, "
        "bool ('true'/'false'), float, or str — e.g. --param flaps=50 "
        "--param probes_per_phase=3",
    )
    return parent


def _knob_type(knob):
    """argparse ``type=`` for a typed knob flag: parse, then the row's
    check, so a bad value is a usage error before any Session exists."""
    parse = knob.flag["type"]

    def convert(text):
        value = parse(text)
        try:
            knob.check(value)
        except ReproError as exc:
            raise argparse.ArgumentTypeError(f"{exc} (got {text!r})")
        return value

    # argparse names the type in "invalid int value: 'x'".
    convert.__name__ = parse.__name__
    return convert


def _knob_flags(parser, call: str) -> None:
    """One flag per ``repro.api.KNOBS`` row that ``call`` takes and the
    CLI spells: ``--max-rounds`` for ``max_rounds``, or ``--no-taint``
    when the default is ``True``."""
    for knob in knobs_for(call):
        if knob.flag is None:
            continue
        default = knob_default(knob)
        flag = "--" + knob.name.replace("_", "-")
        extra = dict(knob.flag, help=knob.doc)
        if default is True:
            flag = "--no-" + flag[2:]
            extra.update(action="store_false", help="disable: " + knob.doc)
        elif default is False:
            extra["action"] = "store_true"
        elif default is not None:
            extra["help"] += f" (default {default})"
        if "type" in extra:
            extra["type"] = _knob_type(knob)
        parser.add_argument(flag, dest=knob.name, default=default, **extra)


def _tuning_parent() -> argparse.ArgumentParser:
    """The diagnosis knobs shared by every subcommand that runs DiffProv.

    One parent parser keeps ``diagnose``, ``repair``, ``autoref`` and
    ``monitor`` in lockstep: the Session rows of ``repro.api.KNOBS``
    appear on all of them, with the same spelling and default.
    """
    parent = argparse.ArgumentParser(add_help=False)
    _knob_flags(parent, "Session")
    parent.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the diagnosis metrics snapshot "
        "(see docs/observability.md)",
    )
    parent.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the diagnosis span tree as a Chrome trace_event "
        "JSON file (open in chrome://tracing or Perfetto)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffprov",
        description="Differential provenance debugger (SIGCOMM'16 reproduction)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    commands = parser.add_subparsers(dest="command", required=True)
    scenario = _scenario_parent()
    tuning = [scenario, _tuning_parent()]

    commands.add_parser("scenarios", help="list built-in diagnostic scenarios")

    commands.add_parser(
        "diagnose", help="run DiffProv on a scenario", parents=tuning
    )

    commands.add_parser(
        "repair",
        help="diagnose, then plan and replay-verify ranked rollback "
        "fixes (docs/repair.md)",
        parents=tuning,
    )

    autoref = commands.add_parser(
        "autoref",
        help="diagnose without an operator-supplied reference",
        parents=tuning,
    )
    _knob_flags(autoref, "autoref")

    monitor = commands.add_parser(
        "monitor",
        help="watch a scenario's event stream and diagnose detections "
        "online (docs/streaming.md)",
        parents=tuning,
    )
    _knob_flags(monitor, "monitor")
    monitor.add_argument(
        "--stream", metavar="FILE",
        help="ingest this NDJSON stream file instead of tapping the "
        "scenario's emulator",
    )
    monitor.add_argument(
        "--dump-stream", metavar="FILE",
        help="write the scenario's (possibly fault-perturbed) stream "
        "to FILE and exit without monitoring",
    )
    monitor.add_argument(
        "--records-out", metavar="FILE",
        help="also write the emitted records as canonical JSON lines "
        "(byte-comparable across runs and resume)",
    )

    tree = commands.add_parser(
        "tree", help="print a provenance tree", parents=[scenario]
    )
    tree.add_argument("--side", choices=("good", "bad"), default="bad")
    tree.add_argument(
        "--view", choices=("tuple", "vertex"), default="tuple",
        help="collapsed tuple view (default) or the full vertex tree",
    )
    tree.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT instead of text (Figure 2 style)",
    )
    tree.add_argument(
        "--diff",
        action="store_true",
        help="with --dot: draw both trees, shared vertexes green",
    )

    export = commands.add_parser(
        "export", help="dump a scenario's provenance graph as JSON lines",
        parents=[scenario],
    )
    export.add_argument("--out", required=True, help="output path (.jsonl)")
    export.add_argument(
        "--side", choices=("good", "bad"), default="bad",
        help="which execution's graph to dump (default bad)",
    )

    commands.add_parser("table1", help="regenerate Table 1")
    commands.add_parser("survey", help="Section 2.4 survey statistics")
    commands.add_parser("unsuitable", help="Section 6.3 unsuitable-reference study")

    stanford = commands.add_parser(
        "stanford", help="Section 6.7 complex-network diagnosis"
    )
    stanford.add_argument(
        "--full-scale",
        action="store_true",
        help="use the paper's 757k-entry configuration "
        "(seconds with the default compiled engine)",
    )
    stanford.add_argument("--background", type=int, default=120)
    stanford.add_argument(
        "--engine", choices=BACKENDS,
        help="evaluation backend (default compiled)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant diagnosis service (docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick a free one; printed on start)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="persistent diagnosis worker processes (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admitted-but-unfinished request bound (default 64)",
    )
    serve.add_argument(
        "--quota",
        action="append",
        default=[],
        metavar="TENANT=RATE[:BURST[:CONCURRENT]]",
        help="per-tenant quota, repeatable; e.g. 'monitor=2:5:1' caps "
        "tenant 'monitor' at 2 req/s, burst 5, 1 in flight "
        "('default=...' sets the catch-all quota)",
    )
    serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="directory for per-request write-ahead journals "
        "(default: a temp dir removed on exit)",
    )
    serve.add_argument(
        "--keep-journals", action="store_true",
        help="keep journals of successful requests instead of deleting",
    )
    serve.add_argument(
        "--default-deadline-s", type=float, metavar="SECONDS",
        help="deadline applied to requests that do not carry their own",
    )
    serve.add_argument(
        "--engine", choices=BACKENDS,
        help="engine backend applied to requests that do not carry an "
        "'engine' option (default: the package's compiled default)",
    )
    serve.add_argument(
        "--drain-timeout-s", type=float, default=60.0,
        help="how long SIGTERM waits for in-flight requests (default 60)",
    )
    serve.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="also expose Prometheus-style plaintext metrics over HTTP "
        "on this port (0 = pick a free one; docs/observability.md)",
    )
    serve.add_argument(
        "--flight-capacity", type=int, default=128, metavar="N",
        help="flight-recorder ring size: last N finished requests "
        "(0 disables; dump with SIGUSR1 or the 'flight' verb)",
    )
    serve.add_argument(
        "--slo-objective", type=float, default=0.99, metavar="FRACTION",
        help="per-tenant availability objective for error-budget burn "
        "(default 0.99)",
    )
    serve.add_argument(
        "--slo-window-s", type=float, default=300.0, metavar="SECONDS",
        help="rolling window for error-budget burn (default 300)",
    )

    top = commands.add_parser(
        "top",
        help="live dashboard for a running service (polls the stats verb)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "scenarios": _cmd_scenarios,
        "diagnose": _cmd_diagnose,
        "repair": _cmd_repair,
        "monitor": _cmd_monitor,
        "tree": _cmd_tree,
        "autoref": _cmd_autoref,
        "export": _cmd_export,
        "table1": _cmd_table1,
        "survey": _cmd_survey,
        "unsuitable": _cmd_unsuitable,
        "stanford": _cmd_stanford,
        "serve": _cmd_serve,
        "top": _cmd_top,
    }[args.command]
    try:
        return handler(args)
    except FaultSpecError as exc:
        # A malformed --faults or --param value: a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit(args, data, text: str) -> int:
    try:
        if args.json:
            print(json.dumps(data, indent=2, default=str))
        else:
            print(text)
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
    return 0


def _cmd_scenarios(args) -> int:
    rows = [
        {"name": name, "description": cls.one_liner()}
        for name, cls in sorted(ALL_SCENARIOS.items())
    ]
    text = "\n".join(f"{row['name']:8s} {row['description']}" for row in rows)
    return _emit(args, rows, text)


def _coerce_param_value(value: str):
    """``--param`` value coercion: bool, int, float, then str.

    'true'/'false' (any case) become booleans *before* the numeric
    attempts so scenario flags read naturally; anything unparseable
    stays a string.
    """
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def _parse_params(pairs) -> dict:
    """Repeatable ``--param KEY=VALUE`` flags as a scenario-params dict."""
    params = {}
    for token in pairs:
        key, sep, value = token.partition("=")
        key = key.strip()
        if not sep or not key:
            raise FaultSpecError(
                f"--param wants KEY=VALUE, got {token!r}", token=token
            )
        params[key] = _coerce_param_value(value.strip())
    return params


def _session(args) -> Session:
    """A Session configured from the scenario and tuning flags."""
    knobs = {
        knob.name: getattr(args, knob.name)
        for knob in knobs_for("Session")
        if hasattr(args, knob.name)
    }
    return Session(
        scenario=args.scenario,
        telemetry=bool(
            getattr(args, "metrics", False) or getattr(args, "trace_out", None)
        ),
        scenario_params=_parse_params(args.param) or None,
        **knobs,
    )


# Exit statuses for a diagnosis killed by a signal: 128 + signum, the
# conventional shell encoding of death-by-signal.  130 = Ctrl-C
# (SIGINT), 143 = SIGTERM — what an init system, container runtime, or
# `kill` sends for an orderly stop.
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143


class _Terminated(Exception):
    """SIGTERM arrived; unwind through the journal scope like Ctrl-C."""


def _raise_terminated(signum, frame):
    raise _Terminated()


@contextlib.contextmanager
def _sigterm_unwinds():
    """Convert SIGTERM into an exception for the enclosed diagnosis.

    SIGTERM's default disposition kills the process where it stands —
    skipping the journal flush and the resume hint that make an
    interrupted diagnosis recoverable.  Routed through an exception it
    takes exactly the Ctrl-C path (Session's journal scope closes the
    journal on the way out) and exits 143 instead of 130.
    """
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _interrupted(args, session, cause: str = "interrupted",
                 exit_status: int = EXIT_INTERRUPTED) -> int:
    """A signal landed mid-diagnosis: report what survived.

    The journal (if any) was already flushed and closed on the way out
    of Session's journal scope, so every verdict the run computed is on
    disk; tell the operator how to pick the search back up.
    """
    print(f"{cause}: diagnosis aborted", file=sys.stderr)
    journal = getattr(session, "journal", None)
    if journal is not None:
        journal.close()  # idempotent; guarantees the flush happened
        print(f"journal flushed: {journal.progress()}", file=sys.stderr)
        print(
            f"resume with: diffprov {args.command} {args.scenario} "
            f"--journal {journal.path} --resume",
            file=sys.stderr,
        )
    return exit_status


def _terminated(args, session) -> int:
    return _interrupted(
        args, session, cause="terminated", exit_status=EXIT_TERMINATED
    )


def _telemetry_output(args, session, data, extra_lines) -> None:
    """--metrics / --trace-out handling, shared by diagnose and autoref."""
    telemetry = session.telemetry
    if telemetry is None:
        return
    if args.metrics:
        extra_lines.append("metrics:")
        extra_lines.append(format_metrics(telemetry.snapshot()))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(telemetry.chrome_trace(), handle, indent=1)
        extra_lines.append(
            f"wrote {telemetry.tracer.span_count} span(s) to "
            f"{args.trace_out}"
        )


def _cmd_diagnose(args) -> int:
    session = _session(args)
    try:
        with _sigterm_unwinds():
            report = session.diagnose()
    except KeyboardInterrupt:
        return _interrupted(args, session)
    except _Terminated:
        return _terminated(args, session)
    data = {
        "scenario": args.scenario,
        "success": report.success,
        "changes": [change.describe() for change in report.changes],
        "rounds": len(report.rounds),
        "failure": report.failure_category,
        "timings": report.timings,
    }
    # Distribution accounting is attached on every run now, not just
    # degraded ones, so healthy runs show their fetch counts too.
    data["distributed"] = {
        side: repr(stats)
        for side, stats in sorted(report.distributed_stats.items())
    }
    plan = session.options.faults
    if plan is not None and not plan.is_zero():
        data["faults"] = plan.describe()
        data["degraded"] = report.degraded
        data["confidences"] = report.confidences
        data["lost_events"] = report.lost_events
        data["unknown_subtrees"] = [str(t) for t in report.unknown_subtrees]
    if report.repair is not None:
        data["repair"] = report.repair
    if report.resilience is not None:
        data["resilience"] = report.resilience
    extra_lines: List[str] = []
    if session.telemetry is not None:
        data["telemetry"] = report.telemetry
        _telemetry_output(args, session, data, extra_lines)
    text = report.summary()
    if extra_lines:
        text += "\n" + "\n".join(extra_lines)
    return _emit(args, data, text)


def _cmd_repair(args) -> int:
    """``diffprov repair``: diagnose with rollback planning forced on.

    Same output shape as ``diagnose`` (the summary gains the repair
    lines; ``--json`` gains the ``repair`` section), same journal,
    deadline and signal behaviour — the resume hint printed on Ctrl-C
    names this subcommand, and a resumed run skips both the recorded
    candidate verdicts and the recorded plan verdicts.
    """
    args.repair = True
    return _cmd_diagnose(args)


def _cmd_monitor(args) -> int:
    session = _session(args)
    if args.dump_stream:
        from .streaming import ScenarioStreamSource, dump_events

        source = ScenarioStreamSource.for_name(
            args.scenario,
            faults=session.options.faults,
            **_parse_params(args.param),
        )
        count = dump_events(source.events(), args.dump_stream)
        data = {"scenario": args.scenario, "out": args.dump_stream,
                "events": count}
        return _emit(args, data, f"wrote {count} events to {args.dump_stream}")
    try:
        with _sigterm_unwinds():
            monitor = session.monitor(
                stream=args.stream,
                **{
                    knob.name: getattr(args, knob.name)
                    for knob in knobs_for("monitor")
                },
            )
    except KeyboardInterrupt:
        return _interrupted(args, session)
    except _Terminated:
        return _terminated(args, session)
    summary = monitor.summary().to_dict()
    records = monitor.records
    if args.records_out:
        with open(args.records_out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
    data = {"scenario": args.scenario, "records": records, "summary": summary}
    lines = []
    for record in records:
        if record["kind"] == "shed":
            lines.append(
                f"SHED {record['incident']} ({record['bad_event']}): "
                f"{record['reason']}"
            )
            continue
        changes = (record.get("report") or {}).get("changes") or []
        verdict = (
            "; ".join(change["change"] for change in changes)
            if changes else f"degraded: {record.get('degraded', 'unknown')}"
        )
        lines.append(
            f"{record['incident']} [{record['confidence']}] "
            f"{record['bad_event']} -> {verdict}"
        )
        for span in record.get("unknown") or ():
            lines.append(f"  UNKNOWN {span}")
    lines.append(
        f"summary: {summary['incidents']} incident(s), "
        f"{summary['diagnoses']} diagnosed, {summary['degraded']} degraded, "
        f"{summary['shed']} shed, {summary['resumed_records']} resumed; "
        f"ingest {summary['ingest']}; peak live {summary['peak_live']}"
    )
    extra_lines: List[str] = []
    _telemetry_output(args, session, data, extra_lines)
    if session.telemetry is not None:
        data["telemetry"] = session.telemetry.snapshot()
    text = "\n".join(lines + extra_lines)
    return _emit(args, data, text)


def _cmd_tree(args) -> int:
    from .provenance.viz import diff_to_dot, tree_to_dot

    session = _session(args)
    tree = session.tree(side=args.side)
    if args.dot:
        if args.diff:
            good = tree if args.side == "good" else session.tree(side="good")
            bad = tree if args.side == "bad" else session.tree(side="bad")
            text = diff_to_dot(good, bad, title=args.scenario)
        else:
            text = tree_to_dot(tree, title=f"{args.scenario}:{args.side}")
    elif args.view == "tuple":
        text = tree.tuple_root.render()
    else:
        text = tree.render()
    data = {"scenario": args.scenario, "side": args.side, "size": tree.size()}
    return _emit(args, data, text)


def _cmd_autoref(args) -> int:
    session = _session(args)
    try:
        with _sigterm_unwinds():
            result = session.autoref(limit=args.limit)
    except KeyboardInterrupt:
        return _interrupted(args, session)
    except _Terminated:
        return _terminated(args, session)
    data = {
        "scenario": args.scenario,
        "found": result.found,
        "reference": str(result.reference) if result.reference else None,
        "tried": len(result.tried),
        "changes": [c.describe() for c in result.report.changes]
        if result.found
        else [],
    }
    if result.resilience is not None:
        data["resilience"] = result.resilience
    extra_lines: List[str] = []
    _telemetry_output(args, session, data, extra_lines)
    if result.found:
        text = (
            f"discovered reference: {result.reference}\n"
            f"(after trying {len(result.tried)} candidate(s))\n"
            + result.report.summary()
        )
    else:
        text = f"no suitable reference among {len(result.tried)} candidates"
    if extra_lines:
        text += "\n" + "\n".join(extra_lines)
    return _emit(args, data, text)


def _cmd_export(args) -> int:
    records = _session(args).export(args.out, side=args.side)
    data = {"scenario": args.scenario, "out": args.out, "records": records}
    return _emit(args, data, f"wrote {records} records to {args.out}")


def _cmd_table1(args) -> int:
    rows = []
    for name in ("SDN1", "SDN2", "SDN3", "SDN4", "MR1-D", "MR2-D", "MR1-I", "MR2-I"):
        scenario = ALL_SCENARIOS[name]()
        row = scenario.table1_row()
        rows.append(
            {
                "scenario": name,
                "good_tree": row["good_tree"],
                "bad_tree": row["bad_tree"],
                "plain_diff": row["plain_diff"],
                "diffprov": "/".join(str(c) for c in row["diffprov_per_round"])
                or str(row["diffprov"]),
            }
        )
    header = f"{'Query':8s} {'Good':>6s} {'Bad':>6s} {'Diff':>6s} {'DiffProv':>9s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['scenario']:8s} {row['good_tree']:>6d} {row['bad_tree']:>6d} "
            f"{row['plain_diff']:>6d} {row['diffprov']:>9s}"
        )
    return _emit(args, rows, "\n".join(lines))


def _cmd_survey(args) -> int:
    stats = survey_module.paper_stats()
    data = {
        "total": stats.total,
        "diagnostic": stats.diagnostic,
        "with_reference": stats.with_reference,
        "reference_fraction": round(stats.reference_fraction, 3),
        "cross_domain": stats.cross_domain,
        "in_domain": stats.in_domain,
        "by_category": stats.by_category,
        "by_strategy": stats.by_strategy,
    }
    text = (
        f"posts: {stats.total}, diagnostic: {stats.diagnostic}, "
        f"with reference: {stats.with_reference} "
        f"({stats.reference_fraction:.1%}), cross-domain: {stats.cross_domain}, "
        f"usable in-domain: {stats.in_domain}\n"
        f"categories: {stats.by_category}\nstrategies: {stats.by_strategy}"
    )
    return _emit(args, data, text)


def _cmd_unsuitable(args) -> int:
    from .scenarios.unsuitable import UnsuitableReferenceStudy

    study = UnsuitableReferenceStudy()
    outcomes = study.run()
    tally = UnsuitableReferenceStudy.tally(outcomes)
    data = {
        "queries": [
            {"scenario": o.scenario, "category": o.category, "message": o.message}
            for o in outcomes
        ],
        "tally": tally,
    }
    lines = [
        f"{o.scenario:7s} {o.category:28s} {o.message[:70]}" for o in outcomes
    ]
    lines.append(f"tally: {tally}")
    return _emit(args, data, "\n".join(lines))


def _cmd_stanford(args) -> int:
    from .scenarios.stanford import StanfordForwardingError

    scenario = StanfordForwardingError(
        full_scale=args.full_scale, background_packets=args.background,
        engine=args.engine,
    )
    report = scenario.diagnose()
    good, bad = scenario.trees()
    data = {
        "entries": scenario.config.total_entries(),
        "good_tree": good.size(),
        "bad_tree": bad.size(),
        "plain_diff": scenario.plain_diff_size(),
        "success": report.success,
        "changes": [change.describe() for change in report.changes],
    }
    text = (
        f"configuration: {data['entries']} entries; trees: "
        f"{data['good_tree']}/{data['bad_tree']} vertexes, plain diff "
        f"{data['plain_diff']}\n" + report.summary()
    )
    return _emit(args, data, text)


def _parse_quota_flag(spec: str):
    """One --quota flag: ``TENANT=RATE[:BURST[:CONCURRENT]]``.

    RATE of ``-`` disables rate limiting (concurrency cap only).
    """
    from .service import TenantQuota

    tenant, _, limits = spec.partition("=")
    if not tenant or not limits:
        raise ValueError(
            f"--quota wants TENANT=RATE[:BURST[:CONCURRENT]], got {spec!r}"
        )
    parts = limits.split(":")
    if len(parts) > 3:
        raise ValueError(f"--quota {spec!r} has too many ':' fields")
    rate = None if parts[0] == "-" else float(parts[0])
    burst = float(parts[1]) if len(parts) > 1 else 1.0
    concurrent = int(parts[2]) if len(parts) > 2 else None
    return tenant, TenantQuota(
        rate=rate, burst=burst, max_concurrent=concurrent
    )


def _cmd_serve(args) -> int:
    import asyncio

    from .service import DiagnosisServer

    try:
        quotas = dict(_parse_quota_flag(spec) for spec in args.quota)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> int:
        server = DiagnosisServer(
            workers=args.workers,
            max_queue=args.max_queue,
            quotas=quotas or None,
            journal_dir=args.journal_dir,
            keep_journals=args.keep_journals,
            default_deadline_s=args.default_deadline_s,
            default_engine=args.engine,
            drain_timeout_s=args.drain_timeout_s,
            flight_capacity=args.flight_capacity,
            slo_objective=args.slo_objective,
            slo_window_s=args.slo_window_s,
        )
        async with server:
            host, port = await server.serve(args.host, args.port)
            server.install_signal_handlers()
            _install_flight_dump(server)
            # Machine-parseable start line: tests and process managers
            # read the bound port from here (--port 0 picks a free one).
            print(f"diffprov-service listening on {host}:{port}", flush=True)
            if args.metrics_port is not None:
                mhost, mport = await server.serve_metrics(
                    args.host, args.metrics_port
                )
                print(
                    f"diffprov-metrics listening on {mhost}:{mport}",
                    flush=True,
                )
            await server.wait_stopped()
        stats = server.stats()
        admission = stats["admission"]
        summary = (
            f"drained: {admission['admitted_total']} request(s) served, "
            f"shed {sum(admission['shed'].values())}"
        )
        # The per-tenant SLO coda: how each tenant's books closed out.
        for tenant, book in sorted(stats["slo"].items()):
            summary += (
                f"\n  {tenant}: offered {book['offered']}, "
                f"ok {book['ok']}, errored {book['errored']}, "
                f"shed {sum(book['shed'].values())}, "
                f"burn {book['error_budget']['burn']}"
            )
        print(summary, file=sys.stderr)
        return 0

    return asyncio.run(run())


def _install_flight_dump(server) -> None:
    """SIGUSR1 dumps the flight recorder to stderr (docs/observability.md)."""
    import asyncio

    if not hasattr(signal, "SIGUSR1"):
        return
    loop = asyncio.get_running_loop()

    def dump() -> None:
        print(server.ops.flight.to_text(), file=sys.stderr, flush=True)

    with contextlib.suppress(NotImplementedError, RuntimeError):
        loop.add_signal_handler(signal.SIGUSR1, dump)


def _cmd_top(args) -> int:
    import asyncio

    from .observability import render_top
    from .service import SocketServiceClient

    target = f"{args.host}:{args.port}"

    async def run() -> int:
        try:
            async with SocketServiceClient(args.host, args.port) as client:
                while True:
                    stats = (await client.stats()).get("stats", {})
                    frame = render_top(stats, target=target)
                    if args.json:
                        print(json.dumps(stats, indent=2, default=str))
                    elif args.once:
                        print(frame)
                    else:
                        # ANSI clear + home, like watch(1)/top(1).
                        print(f"\x1b[2J\x1b[H{frame}", flush=True)
                    if args.once:
                        return 0
                    await asyncio.sleep(args.interval)
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {target}: {exc}", file=sys.stderr)
            return 1

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
