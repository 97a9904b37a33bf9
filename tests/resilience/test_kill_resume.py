"""Kill-and-resume: the journal's reason to exist.

A diagnosis is SIGKILLed at a deterministic point mid-search (held
inside a journal append by the REPRO_TEST_HOLD_* hooks), then resumed
from its journal.  The resumed run must produce a ``canonical_json()``
byte-identical to an uninterrupted diagnosis — for the clean scenario
(SDN1, where recorded verdicts are reused) and for the faulty one
(SDN1-F, where the degraded search recomputes its trials but the
journal still resumes safely).
"""

import pytest

from repro.api import Session

from ..crash import kill_when_journaled, run_child


def _call(scenario, **knobs):
    return {"scenario": scenario, "knobs": {"minimize": True, **knobs}}


@pytest.mark.parametrize(
    "scenario,holds,sentinel",
    [
        # SDN1: killed right after the first minimality verdict hit the
        # disk — the resumed run reuses it (skipped_candidates > 0).
        ("SDN1", {"REPRO_TEST_HOLD_AFTER_VERDICTS": "1"}, '"type":"verdict"'),
        # SDN1-F: killed at the minimize phase boundary.  The degraded
        # search recomputes its trials (divergence checks mutate state),
        # so resume safety — not verdict reuse — is what's under test.
        ("SDN1-F", {"REPRO_TEST_HOLD_PHASE": "minimize"}, '"name":"minimize"'),
    ],
)
def test_sigkill_then_resume_is_byte_identical(
    tmp_path, scenario, holds, sentinel
):
    journal = str(tmp_path / "diag.journal")
    out = str(tmp_path / "report.json")

    baseline = Session(scenario=scenario, minimize=True).diagnose()

    kill_when_journaled(journal, out, _call(scenario), sentinel, **holds)

    payload = run_child(journal, out, _call(scenario))
    assert payload["canonical"] == baseline.canonical_json()
    section = payload["resilience"]["journal"]
    assert section["resumed"] is True
    if "REPRO_TEST_HOLD_AFTER_VERDICTS" in holds:
        assert section["skipped_candidates"] >= 1


def test_sigkill_then_resume_compiled_backend(tmp_path):
    """Crash-resume with backend="compiled" is byte-identical to an
    uninterrupted compiled run (which answers what the reference
    evaluator does: the contract matrix's ``engine`` axis).  The
    resumed worker unpickles journal/cache state whose ColumnarStore
    dropped its caches and compiled closures on pickling; both must
    rebuild transparently mid-search."""
    journal = str(tmp_path / "diag.journal")
    out = str(tmp_path / "report.json")

    baseline = Session(
        scenario="SDN1", minimize=True, engine="compiled"
    ).diagnose()

    compiled = _call("SDN1", engine="compiled")
    kill_when_journaled(journal, out, compiled, '"type":"verdict"',
                        REPRO_TEST_HOLD_AFTER_VERDICTS=1)

    payload = run_child(journal, out, compiled)
    assert payload["canonical"] == baseline.canonical_json()
    section = payload["resilience"]["journal"]
    assert section["resumed"] is True
    assert section["skipped_candidates"] >= 1


def test_uninterrupted_journaled_run_matches_baseline(tmp_path):
    journal = str(tmp_path / "diag.journal")
    out = str(tmp_path / "report.json")
    baseline = Session(scenario="SDN1", minimize=True).diagnose()
    payload = run_child(journal, out, _call("SDN1"))
    assert payload["canonical"] == baseline.canonical_json()
    assert payload["resilience"]["journal"]["resumed"] is False
