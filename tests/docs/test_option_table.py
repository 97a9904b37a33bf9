"""The docs' knob tables are held to ``repro.api.KNOBS`` in both directions.

docs/api.md's "Constructor knobs" table must list every keyword of
``Session.__init__`` and, for each knob row, its default and its CLI
flags; docs/service.md's options table must list exactly the rows a
service request may set, with their defaults; and docs/streaming.md's
monitor-flag sentence must name exactly the monitor flags.  The
drift helpers return what disagrees, so the dummy-row test can show a
new knob is reported missing.
"""

import inspect
import itertools
import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.api import Knob, Session, check_knobs, check_option, knob_default
from repro.cli import _scenario_parent, _tuning_parent, build_parser
from repro.errors import ReproError

DOCS = Path(__file__).resolve().parents[2] / "docs"

# The Session keywords that say what to diagnose rather than how.
TARGET = {"scenario", "program", "good", "bad", "good_event", "bad_event",
          "good_time", "bad_time"}
# Flags written by hand in cli.py: CLI shapes of two Session knobs.
HAND_WRITTEN = {"telemetry": {"--metrics", "--trace-out"},
                "scenario_params": {"--param"}}


def _table_rows(path: Path, heading: str):
    """The backticked rows of the first table after ``heading``."""
    lines = path.read_text(encoding="utf-8").split(heading, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in itertools.takewhile(
            lambda line: line.startswith("|"), lines[start:]
        )
        if line.startswith("| `")
    ]
    assert rows, f"no table rows under {heading!r} in {path.name}"
    return rows


def _api_documented():
    """``{name: (default, flags)}`` from docs/api.md's knob table."""
    documented = {}
    for arguments, _, flags in _table_rows(DOCS / "api.md",
                                           "## Constructor knobs"):
        for name, default in re.findall(r"`(\w+)=([^`]*)`", arguments):
            documented[name] = (default,
                                frozenset(re.findall(r"--[\w-]+", flags)))
    return documented


def _flags_by_dest(subcommand: str):
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {}
    for action in commands[subcommand]._actions:
        flags.setdefault(action.dest, set()).update(action.option_strings)
    return flags


def _drift(documented, expected):
    return sorted(
        f"{name}: documented {documented.get(name)!r}, "
        f"declared {expected.get(name)!r}"
        for name in documented.keys() | expected.keys()
        if documented.get(name) != expected.get(name)
    )


def _api_drift():
    flags = _flags_by_dest("diagnose")
    expected = {
        knob.name: (
            repr(knob_default(knob)),
            frozenset(flags.get(knob.name, set())
                      | HAND_WRITTEN.get(knob.name, set())),
        )
        for knob in api.knobs_for("Session")
    }
    documented = {name: row for name, row in _api_documented().items()
                  if name not in TARGET}
    return _drift(documented, expected)


def _service_drift():
    documented = {}
    for names, _, default in _table_rows(DOCS / "service.md",
                                         "| option | accepted values"):
        for name in re.findall(r"`(\w+)`", names):
            documented[name] = default.strip("`")
    expected = {knob.name: json.dumps(knob_default(knob))
                for knob in api.KNOBS if knob.wire}
    return _drift(documented, expected)


def _streaming_drift():
    text = (DOCS / "streaming.md").read_text(encoding="utf-8")
    cli = text.split("## CLI", 1)[1]
    sentence = re.search(r"\n\n((?:(?!\n\n).)*?)\s+expose the window",
                         cli, re.DOTALL)
    assert sentence, "no monitor-flag sentence under '## CLI'"
    documented = set(re.findall(r"--[\w-]+", sentence.group(1)))
    flags = _flags_by_dest("monitor")
    expected = {flag for knob in api.knobs_for("monitor")
                for flag in flags.get(knob.name, ())}
    return _drift(dict.fromkeys(documented, True),
                  dict.fromkeys(expected, True))


def test_every_session_keyword_has_a_row():
    documented = set(_api_documented())
    keywords = set(inspect.signature(Session.__init__).parameters) - {"self"}
    assert keywords - documented == set()
    assert documented - keywords == set()


def test_every_tuning_flag_is_in_the_flag_column():
    rows = _table_rows(DOCS / "api.md", "## Constructor knobs")
    documented = set(re.findall(r"--[\w-]+", " ".join(r[2] for r in rows)))
    declared = {
        option
        for parent in (_scenario_parent(), _tuning_parent())
        for action in parent._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert declared - documented == set()
    assert documented - declared == set()


def test_api_table_matches_the_knob_rows():
    assert _api_drift() == []


def test_service_table_matches_the_wire_rows():
    assert _service_drift() == []


def test_streaming_sentence_names_the_monitor_flags():
    assert _streaming_drift() == []


def test_every_row_names_a_keyword_of_its_call():
    # knob_default raises KeyError for a row whose call lacks it.
    for knob in api.KNOBS:
        knob_default(knob)


@pytest.fixture
def dummy_knob(monkeypatch):
    """A new Session knob added the documented way: one signature
    keyword plus one row (the keyword is simulated on the signature)."""
    knob = Knob("dummy_knob", api._integer(2), "a knob for the drift test",
                wire=True, flag={"type": int})
    monkeypatch.setattr(api, "KNOBS", api.KNOBS + (knob,))
    signature = inspect.signature(Session.__init__)
    parameter = inspect.Parameter(
        "dummy_knob", inspect.Parameter.KEYWORD_ONLY, default=3
    )
    monkeypatch.setattr(
        Session.__init__, "__signature__",
        signature.replace(
            parameters=[*signature.parameters.values(), parameter]
        ),
        raising=False,
    )
    return knob


def test_a_new_knob_reaches_every_surface(dummy_knob):
    for subcommand in ("diagnose", "repair", "autoref"):
        assert _flags_by_dest(subcommand)["dummy_knob"] == {"--dummy-knob"}
    args = build_parser().parse_args(["diagnose", "SDN1"])
    assert args.dummy_knob == 3
    with pytest.raises(SystemExit):
        build_parser().parse_args(["diagnose", "SDN1", "--dummy-knob", "1"])

    check_option("dummy_knob", 5)
    with pytest.raises(ReproError, match="'dummy_knob' must be an integer"):
        check_option("dummy_knob", 1)

    values = {knob.name: knob_default(knob)
              for knob in api.knobs_for("Session")}
    check_knobs("Session", values)
    with pytest.raises(ReproError,
                       match=r"option 'dummy_knob' must be an integer >= 2"):
        check_knobs("Session", dict(values, dummy_knob="7"))

    assert any(line.startswith("dummy_knob:") for line in _api_drift())
    assert any(line.startswith("dummy_knob:") for line in _service_drift())
