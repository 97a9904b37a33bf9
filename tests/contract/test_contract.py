"""One contract, one matrix: every cell answers what the oracle answers.

Tier-1 runs a pairwise-covering subset of the cells; ``-m
contract_full`` runs the whole product, scaled Stanford included.  A
deliberate answer change is a pin edit, listed in CHANGES.md.
"""

import json
import re
from pathlib import Path

import pytest

from .registry import (
    AXES, FULL_ONLY, ORACLE, PINS, SCENARIOS, TWINS, Cell, full_cells,
    opposite, pairs, run_cell, tier1_cells,
)

pytestmark = pytest.mark.contract_full


def _full(config) -> bool:
    expression = config.getoption("markexpr") or ""
    return "contract_full" in expression.replace("not contract_full", "")


def _cells(config):
    if not _full(config):
        return list(tier1_cells())
    # Second calls first: the first call's answer then comes off the
    # same Session instead of a re-run.
    return sorted(full_cells(list(SCENARIOS) + list(FULL_ONLY)),
                  key=lambda cell: -cell.call)


def pytest_generate_tests(metafunc):
    if "cell" in metafunc.fixturenames:
        metafunc.parametrize("cell", _cells(metafunc.config), ids=str)


def test_cell_answers_what_the_oracle_answers(cell):
    observed = run_cell(*cell)
    want = (run_cell(*cell._replace(**ORACLE)).digest
            if cell.scenario in FULL_ONLY
            else PINS[cell.pin_key()])
    assert observed.digest == want, (
        f"{cell} answers {observed.digest}, the oracle {want} "
        f"(pins.json[{cell.pin_key()!r}]; a deliberate change is a re-pin)"
    )


def test_tier1_cells_cover_every_pair():
    wanted = set().union(*map(pairs, full_cells()))
    covered = set().union(*map(pairs, tier1_cells()))
    assert wanted - covered == set()
    assert set(tier1_cells()) <= set(full_cells())


def test_every_registered_scenario_is_pinned():
    keys = {Cell(name, **ORACLE, op=op, minimize=minimize).pin_key()
            for name in SCENARIOS for op in AXES["op"]
            for minimize in AXES["minimize"]}
    assert set(PINS) == keys


def _documented(heading: str):
    """The name patterns in the first column of the tables under
    ``heading`` (the family forms are read as docs/observability.md
    defines them)."""
    docs = Path(__file__).parents[2] / "docs" / "observability.md"
    section = docs.read_text().split(heading, 1)[1].split("\n## ", 1)[0]
    patterns = []
    for row in re.findall(r"^\| (`.*?) \| ", section, re.M):
        names = re.findall(r"`([^`]+)`", row)
        for name in names:
            if name.startswith("."):
                name = names[0].rsplit(".", 1)[0] + name
            pattern = re.sub(r"<[a-z]+>", "[^.]+", re.escape(name))
            pattern = re.sub(r"\\\{(.+?)\\\}",
                             lambda m: "(%s)" % m[1].replace(",", "|"),
                             pattern.replace(r"\*", ".+"))
            patterns.append(re.compile(pattern))
    return patterns


def test_observed_names_are_documented(request):
    observed = [run_cell(*cell) for cell in _cells(request.config)
                if cell.telemetry]
    metrics = {name for seen in observed
               for family in seen.metrics.values() for name in family}
    spans = {name for seen in observed for name in seen.spans}
    assert metrics and spans
    for heading, names in (("## Metric catalogue", metrics),
                           ("## Span naming", spans)):
        patterns = _documented(heading)
        undocumented = sorted(
            name for name in names
            if not any(pattern.fullmatch(name) for pattern in patterns))
        assert undocumented == [], heading


@pytest.mark.parametrize("twin", [
    pytest.param(TWINS[0], marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1")),
    *TWINS[1:],
], ids="/".join)
def test_twins_agree_on_the_repair(twin):
    # Any cell will do: each answers what the oracle answers.
    reports = [json.loads(run_cell(*opposite(name)).canonical)
               for name in twin]
    deltas = [[change["change"] for change in report["changes"]]
              for report in reports]
    assert deltas[0] and deltas[0] == deltas[1]
    assert all(report["repair"]["plans"] for report in reports)
