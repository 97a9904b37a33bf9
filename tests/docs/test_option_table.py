"""docs/api.md's "Constructor knobs" table lists every knob there is.

The table is written by hand, so it is held to the two signatures it
describes: every keyword of ``Session.__init__`` has a row, and every
flag of the CLI's shared tuning parser appears in the flag column.
"""

import inspect
import re
from pathlib import Path

from repro.api import Session
from repro.cli import _tuning_parent

API_MD = Path(__file__).resolve().parents[2] / "docs" / "api.md"


def _table_columns():
    text = API_MD.read_text(encoding="utf-8")
    section = text.split("## Constructor knobs", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows, "no table rows under '## Constructor knobs'"
    return [" ".join(row[i] for row in rows) for i in range(3)]


def test_every_session_keyword_has_a_row():
    arguments, _, _ = _table_columns()
    documented = set(re.findall(r"`(\w+)=", arguments))
    keywords = set(inspect.signature(Session.__init__).parameters) - {"self"}
    assert keywords - documented == set()
    assert documented - keywords == set()


def test_every_tuning_flag_is_in_the_flag_column():
    _, _, flags = _table_columns()
    documented = set(re.findall(r"--[\w-]+", flags))
    declared = {
        option
        for action in _tuning_parent()._actions
        for option in action.option_strings
    }
    assert declared - documented == set()
    assert documented - declared == set()
