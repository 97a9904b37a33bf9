"""Session lifecycle: close(), the context manager, and the cache knob.

A Session holds real resources once built — an open journal during
calls, megabytes of cached snapshots on the executions — so the
service's worker loop (and any long-lived embedder) needs a definite
way to let go of them.
"""

import pytest

from repro.api import Session
from repro.errors import ReproError
from repro.replay.cache import ReplayCache


def test_close_is_idempotent_and_observable():
    session = Session(scenario="DNS")
    session.diagnose()
    assert session.closed is False
    session.close()
    assert session.closed is True
    session.close()  # a second close is a no-op, not an error
    assert session.closed is True


def test_context_manager_closes_on_exit():
    with Session(scenario="DNS") as session:
        report = session.diagnose()
        assert report.success
    assert session.closed is True


def test_context_manager_closes_on_error_too():
    with pytest.raises(RuntimeError):
        with Session(scenario="DNS") as session:
            raise RuntimeError("boom")
    assert session.closed is True


def test_queries_after_close_raise():
    session = Session(scenario="DNS")
    session.close()
    with pytest.raises(ReproError, match="closed"):
        session.diagnose()
    with pytest.raises(ReproError, match="closed"):
        session.autoref()
    with pytest.raises(ReproError, match="closed"):
        session.setup()


def test_close_drops_execution_references():
    session = Session(scenario="DNS").setup()
    assert session.good is not None and session.bad is not None
    session.close()
    assert session.good is None and session.bad is None
    assert session.program is None


def test_shared_cache_attaches_and_warms_across_sessions():
    cache = ReplayCache()
    with Session(scenario="DNS", cache=cache) as first:
        first.diagnose()
    populated = cache.stats()["entries"]
    assert populated > 0

    # A second Session over the same cache starts warm: its replays
    # seed from the prefix snapshots the first one stored.
    with Session(scenario="DNS", cache=cache) as second:
        second.diagnose()
    stats = cache.stats()
    assert stats["hits"] > 0


def test_close_detaches_the_shared_cache():
    cache = ReplayCache()
    session = Session(scenario="DNS", cache=cache).setup()
    good, bad = session.good, session.bad
    assert good.replay_cache is cache and bad.replay_cache is cache
    session.close()
    assert good.replay_cache is None and bad.replay_cache is None


def test_cache_knob_ignored_when_replay_cache_disabled():
    cache = ReplayCache()
    with Session(scenario="DNS", cache=cache, replay_cache=False) as session:
        session.diagnose()
    assert session.cache is None
    assert cache.stats()["entries"] == 0


def test_journal_stays_readable_after_close(tmp_path):
    journal = str(tmp_path / "lifecycle.journal")
    session = Session(scenario="DNS", journal=journal)
    session.diagnose()
    session.close()
    # Crash handlers print journal.progress() after teardown.
    assert session.journal is not None
    assert session.journal.closed is True
    assert session.journal.progress()


def test_shared_cache_report_stays_byte_identical():
    baseline = Session(scenario="DNS").diagnose()
    cache = ReplayCache()
    with Session(scenario="DNS", cache=cache) as warm_up:
        warm_up.diagnose()
    with Session(scenario="DNS", cache=cache) as warmed:
        report = warmed.diagnose()
    assert report.canonical_json() == baseline.canonical_json()
