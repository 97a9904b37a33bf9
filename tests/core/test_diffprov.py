"""Unit tests for the DiffProv algorithm on a small, controlled program.

The full-size scenario tests live under tests/integration/; these cover
the algorithm's behaviours one by one: guided base-tuple insertion,
condition repair with inversion, competitor removal, selector blockers,
the failure taxonomy, and the postcondition that applying Δ(B→G)
aligns the trees.
"""

import pytest

from repro.core import DiffProv, DiffProvOptions
from repro.datalog import parse_program, parse_tuple
from repro.replay import Execution

PROGRAM = """
table stim(Id, Y) event immutable.
table cfg(K, V) mutable.
table frozen(K, V) immutable.
table mid(Id, W) event.
table out(Id, W).

r1 mid(Id, W) :- stim(Id, Y), cfg('scale', Z), W := Y + Z.
r2 out(Id, W) :- mid(Id, W).
"""


def build_pair(good_cfg, bad_cfg, program_text=PROGRAM):
    program = parse_program(program_text)
    good = Execution(program, name="good")
    for text in good_cfg:
        good.insert(parse_tuple(text))
    good.insert(parse_tuple("stim(1, 5)"))
    bad = Execution(program, name="bad")
    for text in bad_cfg:
        bad.insert(parse_tuple(text))
    bad.insert(parse_tuple("stim(2, 5)"))
    return program, good, bad


class TestConfigurationFix:
    def test_wrong_config_value_is_modified(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 9)"])
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 14)")
        )
        assert report.success
        assert report.num_changes == 1
        change = report.changes[0]
        assert change.insert == parse_tuple("cfg('scale', 3)")
        assert change.remove == (parse_tuple("cfg('scale', 9)"),)

    def test_missing_config_is_inserted(self):
        program = parse_program(PROGRAM + "\nrd out(Id, 0) :- stim(Id, Y).\n")
        good = Execution(program, name="good")
        good.insert(parse_tuple("cfg('scale', 3)"))
        good.insert(parse_tuple("stim(1, 5)"))
        bad = Execution(program, name="bad")
        bad.insert(parse_tuple("stim(2, 5)"))
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 0)")
        )
        assert report.success
        assert report.changes[0].insert == parse_tuple("cfg('scale', 3)")

    def test_verified_flag_set(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 9)"])
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 14)")
        )
        assert report.verified

    def test_no_difference_no_changes(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 3)"])
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 8)")
        )
        assert report.success
        assert report.num_changes == 0


class TestFailureTaxonomy:
    def test_seed_type_mismatch(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 3)"])
        report = DiffProv(program).diagnose(
            good,
            bad,
            parse_tuple("out(1, 8)"),
            parse_tuple("cfg('scale', 3)"),
        )
        assert not report.success
        assert report.failure_category == "seed-type-mismatch"

    def test_immutable_change_required(self):
        frozen_program = PROGRAM.replace(
            "r1 mid(Id, W) :- stim(Id, Y), cfg('scale', Z), W := Y + Z.",
            "r1 mid(Id, W) :- stim(Id, Y), frozen('scale', Z), W := Y + Z.",
        )
        program, good, bad = build_pair(
            ["frozen('scale', 3)"], ["frozen('scale', 9)"], frozen_program
        )
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 14)")
        )
        assert not report.success
        assert report.failure_category == "immutable-change-required"
        # The required change is surfaced as a clue (Section 4.7).
        assert "frozen" in str(report.failure)

    def test_failure_report_has_summary(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 3)"])
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("cfg('scale', 3)")
        )
        assert "seed-type-mismatch" in report.summary()


class TestConditionRepairPath:
    PROGRAM = """
    table pkt(Id, Dst) event immutable.
    table route(Pfx, Port) mutable.
    table sent(Id, Dst, Port).

    r1 sent(Id, Dst, Port) :- pkt(Id, Dst), route(Pfx, Port),
        ip_in_prefix(Dst, Pfx) == true.
    """

    def test_querying_a_never_observed_event_fails_cleanly(self):
        # A provenance system can only explain observed events; the bad
        # event must be something that actually happened (here the
        # fallback in the test below).
        from repro.errors import ReproError
        from repro.provenance import provenance_query

        program = parse_program(self.PROGRAM)
        execution = Execution(program, name="net")
        execution.insert(parse_tuple("route(4.3.2.0/24, 7)"))
        execution.insert(parse_tuple("pkt(2, 4.3.3.1)"))
        with pytest.raises(ReproError):
            provenance_query(execution.graph, parse_tuple("sent(2, 4.3.3.1, 7)"))

    def test_repair_produces_widened_entry(self):
        program = parse_program(
            self.PROGRAM
            + """
            table fallback(Id, Dst).
            r2 fallback(Id, Dst) :- pkt(Id, Dst).
            """
        )
        execution = Execution(program, name="net")
        execution.insert(parse_tuple("route(4.3.2.0/24, 7)"))
        execution.insert(parse_tuple("pkt(1, 4.3.2.1)"))
        execution.insert(parse_tuple("pkt(2, 4.3.3.1)"))
        report = DiffProv(program).diagnose(
            execution,
            execution,
            parse_tuple("sent(1, 4.3.2.1, 7)"),
            parse_tuple("fallback(2, 4.3.3.1)"),
        )
        # Seeds are both pkt events, so the comparison is valid; the
        # only way to align is widening the route prefix.
        assert report.success
        assert report.num_changes == 1
        assert report.changes[0].insert == parse_tuple("route(4.3.2.0/23, 7)")


class TestInversionRepairPath:
    PROGRAM = """
    table stim(Id, Q) event immutable.
    table knob(K, X) mutable.
    table hit(Id).
    table alt(Id).

    r1 hit(Id) :- stim(Id, Q), knob('x', X), Q == X + 2.
    r2 alt(Id) :- stim(Id, Q).
    """

    def test_inverted_knob_value(self):
        # Good stim has Q=9 and knob x=7 (9 == 7+2 holds); bad stim has
        # Q=12, so the knob must become 10 — found by inverting X+2.
        program = parse_program(self.PROGRAM)
        execution = Execution(program, name="sys")
        execution.insert(parse_tuple("knob('x', 7)"))
        execution.insert(parse_tuple("stim(1, 9)"))
        execution.insert(parse_tuple("stim(2, 12)"))
        report = DiffProv(program).diagnose(
            execution, execution, parse_tuple("hit(1)"), parse_tuple("alt(2)")
        )
        assert report.success
        changes = {c.insert for c in report.changes}
        assert parse_tuple("knob('x', 10)") in changes

    def test_uninvertible_condition_fails_with_clue(self):
        # hash_mod has no registered inverse: no knob value can be
        # computed for the bad stim, so the diagnosis names the builtin.
        program = parse_program(
            self.PROGRAM.replace("X + 2", "hash_mod(X, 16)")
        )
        execution = Execution(program, name="sys")
        execution.insert(parse_tuple("knob('x', 7)"))
        execution.insert(parse_tuple("stim(1, 2)"))  # hash_mod(7, 16) == 2
        execution.insert(parse_tuple("stim(2, 3)"))
        report = DiffProv(program).diagnose(
            execution, execution, parse_tuple("hit(1)"), parse_tuple("alt(2)")
        )
        assert not report.success
        assert report.failure_category == "non-invertible"
        assert "hash_mod" in report.summary()


class TestSelectorBlockers:
    PROGRAM = """
    table pkt(Id, Dst) event immutable.
    table route(Prio, Pfx, Port) mutable.
    table sent(Id, Dst, Port).

    r1 sent(Id, Dst, Port) :- pkt(Id, Dst),
        route(Prio, Pfx, Port) argmax<Prio>,
        ip_in_prefix(Dst, Pfx) == true.
    """

    def test_hijacking_entry_removed(self):
        program = parse_program(self.PROGRAM)
        execution = Execution(program, name="net")
        execution.insert(parse_tuple("route(1, 0.0.0.0/0, 7)"))
        execution.insert(parse_tuple("pkt(1, 9.9.9.9)"))
        # The overlapping high-priority entry arrives, then hijacks pkt 2.
        execution.insert(parse_tuple("route(9, 9.9.9.0/24, 3)"))
        execution.insert(parse_tuple("pkt(2, 9.9.9.9)"))
        report = DiffProv(program).diagnose(
            execution,
            execution,
            parse_tuple("sent(1, 9.9.9.9, 7)"),
            parse_tuple("sent(2, 9.9.9.9, 3)"),
        )
        assert report.success
        assert report.num_changes == 1
        assert report.changes[0].remove == (parse_tuple("route(9, 9.9.9.0/24, 3)"),)


class TestMultiRound:
    PROGRAM = """
    table stim(Id, Y) event immutable.
    table cfg(K, V) mutable.
    table stage1(Id, Y) event.
    table stage2(Id).
    table final(Id).
    table fallback(Id).

    r1 stage1(Id, Y) :- stim(Id, Y), cfg('first', Y).
    r2 stage2(Id) :- stage1(Id, Y), cfg('second', Y).
    r3 final(Id) :- stage2(Id).
    r4 fallback(Id) :- stim(Id, Y).
    """

    def test_two_faults_two_rounds(self):
        program = parse_program(self.PROGRAM)
        good = Execution(program, name="good")
        good.insert(parse_tuple("cfg('first', 5)"))
        good.insert(parse_tuple("cfg('second', 5)"))
        good.insert(parse_tuple("stim(1, 5)"))
        bad = Execution(program, name="bad")
        # Both stages are misconfigured; fixing the first only reveals
        # the second on the next roll-forward.
        bad.insert(parse_tuple("cfg('first', 6)"))
        bad.insert(parse_tuple("cfg('second', 7)"))
        bad.insert(parse_tuple("stim(2, 5)"))
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("final(1)"), parse_tuple("fallback(2)")
        )
        assert report.success
        assert report.num_changes == 2
        assert len(report.rounds) >= 2
        assert report.changes_per_round == [1, 1]

    def test_max_rounds_bounds_work(self):
        program = parse_program(self.PROGRAM)
        good = Execution(program, name="good")
        good.insert(parse_tuple("cfg('first', 5)"))
        good.insert(parse_tuple("cfg('second', 5)"))
        good.insert(parse_tuple("stim(1, 5)"))
        bad = Execution(program, name="bad")
        bad.insert(parse_tuple("cfg('first', 6)"))
        bad.insert(parse_tuple("cfg('second', 7)"))
        bad.insert(parse_tuple("stim(2, 5)"))
        options = DiffProvOptions(max_rounds=1)
        report = DiffProv(program, options).diagnose(
            good, bad, parse_tuple("final(1)"), parse_tuple("fallback(2)")
        )
        assert not report.success


class TestTimings:
    def test_phase_timings_recorded(self):
        program, good, bad = build_pair(["cfg('scale', 3)"], ["cfg('scale', 9)"])
        report = DiffProv(program).diagnose(
            good, bad, parse_tuple("out(1, 8)"), parse_tuple("out(2, 14)")
        )
        for key in ("query", "find_seed", "divergence", "make_appear", "replay"):
            assert key in report.timings
        assert report.reasoning_seconds >= 0
        assert report.total_seconds >= report.reasoning_seconds
