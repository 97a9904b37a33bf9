"""Differential verification ≡ the definition, and what it must not touch.

The planner judges every plan by ``δ(R) = alive(R) △ P`` (docs/repair.md,
"Cost model") and never builds ``alive(R)``.  These tests keep it honest:

- the oracle matrix recomputes every enumerated plan's verdict from
  full :func:`~repro.repair.probes.alive_state` footprints, on both
  substrates and every backend;
- the emulator's probe suite is no longer vacuous, and it vetoes a
  hand-built plan that blackholes a delivered background packet;
- a repair on the emulator enumerates the configuration zero times and
  renders O(plans) tuples — a count, not a stopwatch;
- MR1-D's section is pinned: its ``revert-to-reference`` is *rejected*.
"""

import pytest

from repro.api import Session
from repro.datalog import BACKENDS
from repro.datalog.tuples import Tuple
from repro.errors import StepLimitExceeded
from repro.repair import (
    MAX_LISTED_PROBES,
    REJECT_PROBES,
    REJECT_SYMPTOM,
    RollbackPlan,
    RollbackPlanner,
)
from repro.repair.probes import alive_state, probe_suite
from repro.replay import Change
from repro.scenarios.stanford import StanfordForwardingError
from repro.sdn.emulation import EmulatedNetwork, NetworkConfig

SMALL_STANFORD = dict(
    entries_per_router=300, acl_rules=20, background_packets=10
)


def _session(name, backend=None):
    if name != "STANFORD":
        return Session(scenario=name, minimize=True, engine=backend)
    scenario = StanfordForwardingError(**SMALL_STANFORD).setup()
    return Session(
        program=scenario.program,
        good=scenario.good_execution,
        bad=scenario.bad_execution,
        good_event=scenario.good_event,
        bad_event=scenario.bad_event,
        good_time=scenario.good_time,
        bad_time=scenario.bad_time,
        minimize=True,
        engine=backend,
    )


def _planner(session, report):
    return RollbackPlanner(
        session.program,
        session.bad,
        good_event=session.good_event,
        bad_event=session.bad_event,
        changes=report.changes,
        anchor_index=session.bad.log.index_of_insert(report.bad_seed),
    )


def _oracle_verdict(planner, plan, probes, reference_alive):
    """The verdict by definition: full footprints, no deltas."""
    try:
        replayed = planner.bad.replay(plan.steps, planner.anchor_index)
    except StepLimitExceeded:
        return None
    alive = alive_state(replayed, planner.program)
    failed = sorted(str(p) for p in probes - alive)
    return {
        "symptom_gone": not replayed.graph.ever_existed(planner.bad_event),
        "probes_failed": len(failed),
        "failed_probes": failed[:MAX_LISTED_PROBES],
        "blast_radius": len(alive ^ reference_alive),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name", ["SDN1", "SDN4", "DNS", "MR1-D", "FLAP", "STANFORD"]
)
def test_every_verdict_equals_the_full_footprint_oracle(name, backend):
    with _session(name, backend) as session:
        report = session.diagnose()
        assert report.success and report.changes
        planner = _planner(session, report)
        plans = planner.enumerate()
        bad, program = session.bad, session.program
        reference = bad.replay(report.changes, planner.anchor_index)
        probes = probe_suite(bad.replay(), reference, program)
        assert planner.probes == probes
        reference_alive = alive_state(reference, program)
        for plan in plans:
            expected = _oracle_verdict(planner, plan, probes, reference_alive)
            if expected is not None:
                assert planner.verify(plan) == expected, plan


# -- the emulated substrate ---------------------------------------------------


def _background_egress_entry(session):
    """The last-hop flow entry of the first (delivered) background packet."""
    config = session.bad.base_config
    ingress, pkt, src, dst = session.bad.schedule[0]
    network = EmulatedNetwork(config.fork())
    network.inject(ingress, pkt, src, dst)
    assert network.traces[-1].kind == "deliver"
    egress = network.traces[-1].switch
    return pkt, config.tables[egress].best_match(src, dst)


class TestEmulatorProbes:
    @pytest.fixture(scope="class")
    def sections(self):
        out = {}
        for backend in BACKENDS:
            with _session("STANFORD", backend) as session:
                out[backend] = session.repair()
        return out

    def test_single_verified_plan_with_a_real_probe_suite(self, sections):
        section = sections["compiled"].repair
        assert section["status"] == "ok"
        assert section["rejected"] == []
        (plan,) = section["plans"]
        assert plan["origin"] == "revert-to-reference"
        assert plan["blast_radius"] == 0
        # One delivery per background packet plus the good packet's.
        assert section["probes"] == SMALL_STANFORD["background_packets"] + 1

    def test_the_graph_sourced_suite_is_backend_independent(self, sections):
        canonical = {r.canonical_json() for r in sections.values()}
        assert len(canonical) == 1

    def test_blackholing_a_background_delivery_is_vetoed(self):
        with _session("STANFORD") as session:
            report = session.diagnose()
            planner = _planner(session, report)
            pkt, entry = _background_egress_entry(session)
            plan = RollbackPlan(
                [*report.changes, Change(remove=(entry,))], "hand-built"
            )
            verdict = planner.verify(plan)
            section = planner._section([plan], [verdict])
        assert verdict["symptom_gone"] is True
        assert any(f", {pkt}, " in p for p in verdict["failed_probes"])
        (rejected,) = section["rejected"]
        assert rejected["reason"] == REJECT_PROBES


def test_emulator_repair_never_scans_the_configuration(monkeypatch):
    """The tripwire for O(config) work creeping back into repair().

    The parent of this test made three ``flow_entries()`` scans per
    repair (one per footprinted replay) and rendered every base tuple
    to sort it.
    """
    with _session("STANFORD") as session:
        session.diagnose()  # materialize outside the counted region
        entries = session.bad.base_config.total_entries()
        calls = {"scan": 0, "str": 0}
        scan, render = NetworkConfig.iter_flow_entries, Tuple.__str__

        def counted_scan(self):
            calls["scan"] += 1
            return scan(self)

        def counted_render(self):
            calls["str"] += 1
            return render(self)

        monkeypatch.setattr(NetworkConfig, "iter_flow_entries", counted_scan)
        monkeypatch.setattr(Tuple, "__str__", counted_render)
        report = session.repair()
        monkeypatch.undo()
    assert report.repair["status"] == "ok"
    assert calls["scan"] == 0
    # Step descriptions and journal/plan keys only — nowhere near one
    # rendering per entry.
    assert calls["str"] * 20 < entries


# -- MR1-D: the reference plan is not guaranteed to verify --------------------


def test_mr1d_revert_to_reference_is_rejected():
    """Pinned behaviour, not an endorsement (ROADMAP open item).

    Minimization narrows the diagnosed modification to ``insert
    jobConfig('mapreduce.job.reduces', 2)`` beside the live ``…, 4``;
    with both values present the symptom still derives, so even the
    full Δ fails replay verification.
    """
    with Session(scenario="MR1-D", minimize=True) as session:
        section = session.repair().repair
    assert section["status"] == "ok"
    assert section["plans"] == []
    assert section["replays"] == 2 + len(section["rejected"])
    assert [(r["origin"], r["reason"]) for r in section["rejected"]] == [
        ("revert-to-reference", REJECT_SYMPTOM),
        ("replace-stale", REJECT_PROBES),
        ("delete-spurious", REJECT_PROBES),
    ]
