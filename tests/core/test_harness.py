"""The seam between Section 4 and the run harness (repro.core.harness).

Three contracts: ``core/diffprov.py`` is the algorithm and imports none
of the machinery that records or bounds a run; the one candidate sweep
yields the same verdicts, replay count and journal savings whether a
verdict came from the journal or from the probe — under every policy a
consumer's loop body applies to it; and there is one way to evaluate a
candidate — in this process — so nothing outside the service fleet
forks, and nothing but the replay cache pickles.
"""

import ast
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.diffprov
from repro.api import Session
from repro.cli import _tuning_parent
from repro.core.diffprov import DiffProvOptions
from repro.core.harness import RunContext
from repro.errors import DeadlineExceeded
from repro.resilience import Deadline, DiagnosisJournal


def test_diffprov_imports_none_of_the_harness_machinery():
    banned = ("repro.resilience", "repro.observability",
              "repro.faults", "hashlib", "time")
    tree = ast.parse(Path(repro.core.diffprov.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # Resolve "from ..faults import X" against repro.core.
            package = ["repro", "core"][: 2 - (node.level - 1)]
            base = ".".join(package + ([node.module] if node.module else []))
            imported += [base] + [f"{base}.{a.name}" for a in node.names]
    offenders = [
        name for name in imported
        if any(name == b or name.startswith(b + ".") for b in banned)
    ]
    assert not offenders, offenders


SRC = Path(repro.core.diffprov.__file__).parents[1]


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_only_the_service_fleet_spawns_processes():
    offenders = []
    for name, tree in _modules():
        if name.startswith("service/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            offenders += [
                (name, module) for module in imported
                if module.split(".")[0] in ("concurrent", "multiprocessing")
            ]
    assert not offenders, offenders


def test_the_replay_cache_is_the_one_pickle_boundary():
    sites = [
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "pickle"
    ]
    assert sites == ["replay/cache.py"]


def test_the_proof_annotation_index_is_gone():
    # Nothing ever queried it; the recorder keeps only what is read
    # (docs/performance.md, "What the recorder keeps, and why").
    gone = {"minimal_proof", "height_of", "ProofNode"}
    defined = [
        (name, node.name)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in gone
    ]
    assert not defined, defined


@pytest.mark.parametrize("knob", ["workers", "resilience"])
def test_the_candidate_pool_knobs_are_gone(knob):
    with pytest.raises(TypeError, match=knob):
        Session(scenario="SDN1", **{knob: 2})
    with pytest.raises(TypeError, match=knob):
        DiffProvOptions(**{knob: 2})
    with pytest.raises(SystemExit):
        _tuning_parent().parse_args([f"--{knob}", "2"])


# -- the sweep on a toy probe -------------------------------------------------

VERDICTS = [False, False, True, False, True, False, False]
JOURNALED = (0, 1, 2, 5)  # what an earlier, killed run had recorded


def toy_probe(shared, index):
    verdict = shared["verdicts"][index]
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


def stop_at_first(sweep_from):
    for index, verdict in sweep_from(0):
        yield index, verdict
        if verdict:
            return


def restart_after_commit(sweep_from):
    position = 0
    while position < len(VERDICTS):
        start, position = position, len(VERDICTS)
        for index, verdict in sweep_from(start):
            yield index, verdict
            if verdict:
                position = index + 1
                break


def consume_all(sweep_from):
    yield from sweep_from(0)


POLICIES = [stop_at_first, restart_after_commit, consume_all]


def _consume(policy, picklable, journal):
    run = RunContext(DiffProvOptions(journal=journal))
    counter = SimpleNamespace(replays=0)
    shared = {"verdicts": VERDICTS}
    if not picklable:
        # The probe runs on the live objects: nothing has to pickle.
        shared["lock"] = threading.Lock()

    def sweep_from(start):
        count = len(VERDICTS) - start
        for index, verdict in run.sweep(
            "toy", toy_probe,
            dict(shared, verdicts=VERDICTS[start:]), count,
            keys=[f"candidate-{start + i}" for i in range(count)],
            counter=counter,
        ):
            yield start + index, verdict

    return list(policy(sweep_from)), counter.replays


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize(
    "picklable", [True, False], ids=["inline", "unpicklable"]
)
def test_sweep_is_the_serial_loop(tmp_path, picklable, resumed, policy):
    # The oracle: the same policy over a plain loop calling the probe.
    expected = list(policy(lambda start: (
        (index, VERDICTS[index]) for index in range(start, len(VERDICTS))
    )))
    path = str(tmp_path / "toy.journal")
    if resumed:
        with DiagnosisJournal(path) as earlier:
            for index in JOURNALED:
                earlier.record("toy", f"candidate-{index}", VERDICTS[index])
    with DiagnosisJournal(path, resume=resumed) as journal:
        consumed, replays = _consume(policy, picklable, journal)
        assert consumed == expected
        assert replays == len(expected)
        # A journal hit is counted when — and only when — it is consumed.
        hits = [i for i, _ in expected if resumed and i in JOURNALED]
        assert journal.skipped == len(hits)
        # Every consumed verdict is durable afterwards; candidates the
        # policy never reached are not.
        for index in range(len(VERDICTS)):
            reached = index in dict(expected) or (
                resumed and index in JOURNALED
            )
            recorded = journal.lookup("toy", f"candidate-{index}")
            assert (recorded is not None) == reached


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _ticking_probe(shared, index):
    shared["clock"].t += 10.0
    return index


def test_deadline_expires_between_candidates():
    clock = _Clock()
    run = RunContext(DiffProvOptions(deadline=Deadline(25.0, clock=clock)))
    counter = SimpleNamespace(replays=0)
    seen = []
    with pytest.raises(DeadlineExceeded) as info:
        for index, verdict in run.sweep(
            "toy", _ticking_probe, {"clock": clock}, 6, counter=counter
        ):
            seen.append(verdict)
    # Checked before each evaluation: 0, 10 and 20 s pass, 30 s does not.
    assert seen == [0, 1, 2]
    assert counter.replays == 3
    assert info.value.phase == "toy"


def test_probe_error_surfaces_at_its_serial_position():
    verdicts = [False, False, ValueError("candidate 2 blew up"), True]
    run = RunContext(DiffProvOptions())
    counter = SimpleNamespace(replays=0)
    seen = []
    with pytest.raises(ValueError, match="candidate 2 blew up"):
        for index, verdict in run.sweep(
            "toy", toy_probe, {"verdicts": verdicts}, len(verdicts),
            counter=counter,
        ):
            seen.append(index)
    assert seen == [0, 1]
    assert counter.replays == 2
