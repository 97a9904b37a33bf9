"""Edge-case tests for diagnose(): trivial inputs, options, timing."""

import pytest

from repro.core import DiffProv, DiffProvOptions
from repro.core.diffprov import MAX_COMPETITORS
from repro.datalog import parse_program, parse_tuple
from repro.errors import ReproError
from repro.replay import Execution

PROGRAM = """
table stim(Id, Y) event immutable.
table cfg(K, V) mutable.
table out(Id, V).
table fallback(Id).

r1 out(Id, V) :- stim(Id, Y), cfg('a', V).
r2 fallback(Id) :- stim(Id, Y).
"""


@pytest.fixture
def network():
    program = parse_program(PROGRAM)
    execution = Execution(program)
    execution.insert(parse_tuple("cfg('a', 5)"))
    execution.insert(parse_tuple("stim(1, 7)"))
    execution.insert(parse_tuple("stim(2, 7)"))
    return program, execution


class TestTrivialInputs:
    def test_same_event_as_both_sides(self, network):
        program, execution = network
        event = parse_tuple("out(1, 5)")
        report = DiffProv(program).diagnose(execution, execution, event, event)
        assert report.success
        assert report.num_changes == 0

    def test_equivalent_events_zero_changes(self, network):
        program, execution = network
        report = DiffProv(program).diagnose(
            execution,
            execution,
            parse_tuple("out(1, 5)"),
            parse_tuple("out(2, 5)"),
        )
        assert report.success
        assert report.num_changes == 0

    def test_nonexistent_bad_event_raises(self, network):
        # A provenance system can only explain observed events; asking
        # about a fabricated one is operator error, not a diagnosis.
        program, execution = network
        with pytest.raises(ReproError):
            DiffProv(program).diagnose(
                execution,
                execution,
                parse_tuple("out(1, 5)"),
                parse_tuple("out(99, 5)"),
            )

    def test_nonexistent_good_event_raises(self, network):
        program, execution = network
        with pytest.raises(ReproError):
            DiffProv(program).diagnose(
                execution,
                execution,
                parse_tuple("out(99, 5)"),
                parse_tuple("fallback(2)"),
            )


class TestOptions:
    def build_faulty(self):
        program = parse_program(PROGRAM)
        good = Execution(program, name="good")
        good.insert(parse_tuple("cfg('a', 5)"))
        good.insert(parse_tuple("stim(1, 7)"))
        bad = Execution(program, name="bad")
        bad.insert(parse_tuple("cfg('a', 9)"))
        bad.insert(parse_tuple("stim(2, 7)"))
        return program, good, bad

    @pytest.mark.parametrize("knob", [
        "verify", "enable_repair", "enable_inversion", "max_competitors",
    ])
    def test_one_valued_knobs_are_gone(self, knob):
        with pytest.raises(TypeError, match=knob):
            DiffProvOptions(**{knob: True})

    def test_a_misspelt_knob_is_an_error_not_a_new_attribute(self):
        with pytest.raises(AttributeError):
            DiffProvOptions().minimise = True

    def test_too_many_competitors_gives_insert_only(self):
        # One more competing cfg('a', _) than MAX_COMPETITORS: the slot
        # is not functional, so none of them is removed.
        program, good, bad = self.build_faulty()
        for value in range(10, 10 + MAX_COMPETITORS):
            bad.insert(parse_tuple(f"cfg('a', {value})"))
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 5)"), parse_tuple("fallback(2)")
        )
        assert report.success
        change = report.changes[0]
        assert change.insert == parse_tuple("cfg('a', 5)")
        assert change.remove == ()

    def test_default_includes_competitor_removal(self):
        program, good, bad = self.build_faulty()
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 5)"), parse_tuple("fallback(2)")
        )
        assert report.changes[0].remove == (parse_tuple("cfg('a', 9)"),)

    def test_replays_counted(self):
        program, good, bad = self.build_faulty()
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 5)"), parse_tuple("fallback(2)")
        )
        assert report.replays >= 1
        assert bad.replay_count >= report.replays


class TestHistoricalQueries:
    def test_good_event_from_the_past(self):
        """A reference that was later deleted is still queryable at its
        own time (SDN3's 'good example observed in the past')."""
        program = parse_program(PROGRAM)
        execution = Execution(program)
        execution.insert(parse_tuple("cfg('a', 5)"))
        execution.insert(parse_tuple("stim(1, 7)"))
        # The config changes afterwards; new stimuli behave differently.
        execution.delete(parse_tuple("cfg('a', 5)"))
        execution.insert(parse_tuple("cfg('a', 9)"))
        execution.insert(parse_tuple("stim(2, 7)"))
        report = DiffProv(program).diagnose(
            execution,
            execution,
            parse_tuple("out(1, 5)"),
            parse_tuple("out(2, 9)"),
        )
        assert report.success
        assert report.num_changes == 1
        assert report.changes[0].insert == parse_tuple("cfg('a', 5)")

    def test_tree_sizes_helper(self, network):
        program, execution = network
        sizes = DiffProv(program).tree_sizes(
            execution,
            execution,
            parse_tuple("out(1, 5)"),
            parse_tuple("out(2, 5)"),
        )
        assert sizes == (sizes[0], sizes[0])
        assert sizes[0] > 0
