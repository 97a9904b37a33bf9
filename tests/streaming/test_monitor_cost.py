"""What one monitored incident costs, counted rather than timed.

Two mechanisms keep a FLAP-S incident cheap, and both are checked as
counts or collector state, never with a stopwatch:

* The window is recorded while it is built (runtime logging mode), so
  an incident constructs two engines — the live window run and the
  candidate base — and drives one ``pristine()`` prefix, not three and
  two.
* ``StreamMonitor.run()`` freezes the heap that existed at entry, so
  generation-2 collections during the run skip the long-lived state;
  everything the run creates stays collectable, and the freeze is
  lifted on exit, an exception included.
"""

import gc
import weakref

import pytest

from repro.datalog import engine as engine_module
from repro.replay import execution as execution_module
from repro.replay import replayer
from repro.streaming import ScenarioStreamSource, StreamMonitor

FLAPS = 12


def flap_source(flaps: int = FLAPS):
    source = ScenarioStreamSource.for_name(
        "FLAP-S", flaps=flaps, stream_seed=7
    )
    source.events()  # the emulator run that records the stream
    return source


class ProbedSource:
    """A stream source that calls ``probe()`` before handing out a line."""

    def __init__(self, source, probe):
        self.source = source
        self.program = source.program
        self.probe = probe

    def lines(self):
        for line in self.source.lines():
            self.probe()
            yield line


class Node:
    """A weak-referenceable object to close a reference cycle with."""


def dropped_cycle():
    """A weak reference to a self-referencing object nothing else holds."""
    node = Node()
    node.self = node
    return weakref.ref(node)


@pytest.fixture
def tally(monkeypatch):
    """Counts Engine constructions and pristine() prefix drives."""
    counts = {"engines": 0, "pristine": 0}
    init = engine_module.Engine.__init__

    def counting_init(self, *args, **kwargs):
        counts["engines"] += 1
        init(self, *args, **kwargs)

    def counting(function):
        def wrapper(*args, **kwargs):
            counts["pristine"] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine_module.Engine, "__init__", counting_init)
    # Execution.materialize/replay and replay() each call it by their
    # own module's name.
    monkeypatch.setattr(replayer, "pristine", counting(replayer.pristine))
    monkeypatch.setattr(
        execution_module, "pristine", counting(execution_module.pristine)
    )
    return counts


@pytest.fixture(autouse=True)
def unfrozen():
    assert gc.get_freeze_count() == 0
    yield
    assert gc.get_freeze_count() == 0


class TestOneEvaluationPerIncident:
    @pytest.mark.parametrize("repair", [False, True])
    def test_two_engines_and_one_pristine_drive_per_incident(
        self, tally, repair
    ):
        source = flap_source()
        tally.update(engines=0, pristine=0)
        monitor = StreamMonitor(source, repair=repair)
        monitor.run()
        assert monitor.diagnosis_count == FLAPS
        assert monitor.summary().degraded == 0
        assert tally == {"engines": 2 * FLAPS, "pristine": FLAPS}


class TestFrozenHeap:
    def test_heap_is_frozen_inside_run(self):
        seen = []
        source = ProbedSource(
            flap_source(2), lambda: seen.append(gc.get_freeze_count())
        )
        StreamMonitor(source).run()
        assert seen and min(seen) > 0

    def test_thawed_after_run(self):
        StreamMonitor(flap_source(2)).run()
        assert gc.get_freeze_count() == 0

    def test_thawed_when_run_raises(self):
        lines = []

        def probe():
            lines.append(None)
            if len(lines) == 10:
                raise RuntimeError("source died")

        monitor = StreamMonitor(ProbedSource(flap_source(2), probe))
        with pytest.raises(RuntimeError, match="source died"):
            monitor.run()
        assert gc.get_freeze_count() == 0

    def test_callers_own_freeze_survives(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            seen = []
            source = ProbedSource(
                flap_source(2), lambda: seen.append(gc.get_freeze_count())
            )
            StreamMonitor(source).run()
            # The monitor neither thawed the caller's objects nor froze
            # any of its own.
            assert set(seen) == {frozen}
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_cycle_dropped_during_run_is_reclaimed(self):
        reclaimed = []

        def probe():
            ref = dropped_cycle()
            gc.collect()
            reclaimed.append(ref() is None)

        StreamMonitor(ProbedSource(flap_source(2), probe)).run()
        assert reclaimed and all(reclaimed)

    def test_garbage_present_at_entry_is_reclaimed_after_run(self):
        enabled = gc.isenabled()
        gc.disable()  # keep the cycle alive until the run freezes it
        try:
            ref = dropped_cycle()
            StreamMonitor(flap_source(2)).run()
        finally:
            if enabled:
                gc.enable()
        gc.collect()
        assert ref() is None
