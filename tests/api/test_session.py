"""Tests for the Session facade (repro.api)."""

import json
import warnings

import pytest

from repro import Session
from repro.core.autoref import auto_diagnose
from repro.core.diffprov import DiffProv, DiffProvOptions
from repro.datalog import parse_tuple
from repro.errors import FaultSpecError, ReproError
from repro.replay import Execution
from repro.scenarios import ALL_SCENARIOS


class TestConstruction:
    def test_scenario_and_explicit_are_exclusive(self):
        with pytest.raises(ReproError, match="not both"):
            Session(scenario="SDN1", program=object())

    def test_explicit_mode_requires_the_quintet(self):
        with pytest.raises(ReproError, match="good_event"):
            Session(program=object(), good=object(), bad=object())

    def test_unknown_scenario_rejected_eagerly(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            Session(scenario="SDN99")

    def test_scenario_name_is_case_insensitive(self):
        assert Session(scenario="sdn1").scenario_name == "SDN1"

    def test_bad_fault_spec_rejected_eagerly(self):
        with pytest.raises(FaultSpecError):
            Session(scenario="SDN1", faults="bogus")

    @pytest.mark.parametrize("knobs,fragment", [
        ({"max_rounds": "3"}, "'max_rounds' must be an integer >= 1"),
        ({"max_rounds": 0}, "'max_rounds' must be an integer >= 1"),
        ({"minimize": "false"}, "'minimize' must be true or false"),
        ({"repair": 1}, "'repair' must be true or false"),
        ({"telemetry": "manual"}, "'telemetry' must be true, false or a"),
        ({"replay_cache": "no"}, "'replay_cache' must be true or false"),
        ({"resume": "yes"}, "'resume' must be true or false"),
        ({"deadline_s": "soon"}, "'deadline_s' must be a number"),
        ({"engine": "fast"}, "'engine' unknown engine backend 'fast'"),
        ({"journal": 7}, "'journal' must be a file path"),
        ({"faults": 0.1}, "'faults' must be a fault-plan spec"),
        # NaN used to become an already-expired budget.
        ({"deadline_s": float("nan")}, "'deadline_s' must be a number"),
    ])
    def test_mistyped_knobs_rejected_eagerly(self, knobs, fragment):
        # The same table the service protocol admits options through
        # (repro.api.KNOBS): no bare TypeError from inside the
        # round loop, no bool("false").
        with pytest.raises(ReproError, match=fragment):
            Session(scenario="SDN1", **knobs)

    def test_negative_autoref_limit_rejected(self):
        # candidates[:-1] used to drop the last candidate silently.
        with pytest.raises(ReproError, match="'limit' must be an integer"):
            Session(scenario="SDN1").autoref(limit=-1)

    def test_construction_is_lazy(self):
        session = Session(scenario="SDN1")
        assert session.program is None  # nothing built yet

    def test_knobs_reach_the_options(self):
        session = Session(
            scenario="SDN1", replay_cache=False,
            max_rounds=3, minimize=True, taint=False,
        )
        options = session.options
        assert options.replay_cache is False
        assert options.max_rounds == 3
        assert options.minimize is True
        assert options.enable_taint is False

    def test_telemetry_true_builds_one(self):
        session = Session(scenario="SDN1", telemetry=True)
        assert session.telemetry is not None
        assert session.options.telemetry is session.telemetry


class TestFacadeParity:
    """session.diagnose() == the hand-wired DiffProv invocation."""

    @pytest.mark.parametrize("name", ["SDN1", "DNS"])
    def test_diagnose_matches_direct_diffprov(self, name):
        scenario = ALL_SCENARIOS[name]().setup()
        direct = DiffProv(scenario.program, DiffProvOptions()).diagnose(
            scenario.good_execution,
            scenario.bad_execution,
            scenario.good_event,
            scenario.bad_event,
            scenario.good_time,
            scenario.bad_time,
        )
        via_session = Session(scenario=name).diagnose()
        assert via_session.canonical_json() == direct.canonical_json()

    @pytest.mark.parametrize("name", ["SDN1", "DNS"])
    def test_autoref_matches_direct_auto_diagnose(self, name):
        scenario = ALL_SCENARIOS[name]().setup()
        direct = auto_diagnose(
            scenario.program,
            scenario.good_execution,
            scenario.bad_execution,
            scenario.bad_event,
            options=DiffProvOptions(),
            limit=5,
        )
        via_session = Session(scenario=name).autoref(limit=5)
        assert via_session.found == direct.found
        assert str(via_session.reference) == str(direct.reference)
        assert len(via_session.tried) == len(direct.tried)
        if direct.found:
            assert via_session.report.canonical_json() == \
                direct.report.canonical_json()

    def test_tree_matches_scenario_trees(self):
        scenario = ALL_SCENARIOS["SDN1"]().setup()
        good, bad = scenario.trees()
        session = Session(scenario="SDN1")
        assert session.tree(side="good").size() == good.size()
        assert session.tree(side="bad").size() == bad.size()

    def test_tree_rejects_unknown_side(self):
        with pytest.raises(ReproError, match="side"):
            Session(scenario="SDN1").tree(side="ugly")

    def test_export_roundtrip(self, tmp_path):
        from repro.provenance.serialize import load_graph

        path = str(tmp_path / "sdn1.jsonl")
        records = Session(scenario="SDN1").export(path)
        assert records > 0
        assert len(load_graph(path)) > 0


class TestExplicitMode:
    def _network(self, forwarding_program):
        execution = Execution(forwarding_program)
        for text in (
            "link('s1', 2, 's2')",
            "flowEntry('s1', 5, 4.3.2.0/24, 2)",
            "flowEntry('s1', 1, 0.0.0.0/0, 9)",
            "flowEntry('s2', 1, 0.0.0.0/0, 3)",
            "hostAt('s2', 3, 'h1')",
            "hostAt('s1', 9, 'h9')",
        ):
            execution.insert(parse_tuple(text))
        execution.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.2.1)"))
        execution.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.3.1)"))
        return execution

    def test_diagnose(self, forwarding_program):
        network = self._network(forwarding_program)
        session = Session(
            program=forwarding_program,
            good=network, bad=network,
            good_event=parse_tuple("delivered('h1', 7.7.7.7, 4.3.2.1)"),
            bad_event=parse_tuple("delivered('h9', 7.7.7.7, 4.3.3.1)"),
        )
        report = session.diagnose()
        assert report.success
        assert report.num_changes == 1
        assert "4.3.2.0/23" in report.changes[0].describe()

    def test_tree_and_repr(self, forwarding_program):
        network = self._network(forwarding_program)
        session = Session(
            program=forwarding_program,
            good=network, bad=network,
            good_event=parse_tuple("delivered('h1', 7.7.7.7, 4.3.2.1)"),
            bad_event=parse_tuple("delivered('h9', 7.7.7.7, 4.3.3.1)"),
        )
        assert session.tree(side="good").size() > 0
        assert "explicit" in repr(session)


class TestDeprecationShims:
    def test_canonical_submodule_import_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import DiffProv as _  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.NoSuchThing
        # The top-level DiffProv/DiffProvOptions shim is gone too; the
        # canonical home is repro.core.
        for name in ("DiffProv", "DiffProvOptions"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__


class TestMonitorKnobs:
    @pytest.mark.parametrize("knobs,fragment", [
        # Used to die with IndexError: pop from empty list.
        ({"max_pending": 0}, "'max_pending' must be an integer >= 1"),
        # Used to degrade every incident to no-reference.
        ({"capacity": 0}, "'capacity' must be an integer >= 1"),
        # Used to be clamped to 1, and "24" coerced through int().
        ({"diagnose_every": 0}, "'diagnose_every' must be an integer >= 1"),
        ({"capacity": "24"}, "'capacity' must be an integer >= 1"),
        ({"lateness": -5}, "'lateness' must be an integer >= 1"),
        ({"max_pending": True}, "'max_pending' must be an integer >= 1"),
    ])
    def test_mistyped_monitor_knobs_rejected(self, knobs, fragment, tmp_path):
        journal = tmp_path / "monitor.journal"
        with Session("FLAP-S", scenario_params={"flaps": 3},
                     journal=str(journal)) as session:
            with pytest.raises(ReproError, match=fragment):
                session.monitor(**knobs)
        # Rejected before the journal opens.
        assert not journal.exists()

    def test_stream_monitor_checks_its_own_knobs(self):
        # The benchmark spine builds StreamMonitor directly.
        from repro.streaming import ScenarioStreamSource, StreamMonitor

        source = ScenarioStreamSource.for_name("FLAP-S", flaps=3)
        with pytest.raises(ReproError, match="'max_pending' must be"):
            StreamMonitor(source, max_pending=0)

    def test_unknown_monitor_knob_is_a_type_error(self):
        with Session("FLAP-S", scenario_params={"flaps": 3}) as session:
            with pytest.raises(TypeError, match="reference_limit"):
                session.monitor(reference_limit=5)


class TestJournalFingerprints:
    """The options a journal records are pinned: a journal written by an
    earlier version resumes only while these stay byte-identical."""

    OPTIONS = {
        "max_rounds": 10, "enable_taint": True, "enable_repair": True,
        "enable_inversion": True, "minimize": True, "repair": False,
        "faults": "seed=3",
    }

    def test_diagnose_and_autoref_options(self):
        with Session("SDN1", minimize=True, faults="seed=3") as session:
            session.setup()
            diagnose = session._journal_fingerprint("diagnose")
            autoref = session._journal_fingerprint("autoref", limit=10)
        assert diagnose["options"] == self.OPTIONS
        assert autoref["options"] == self.OPTIONS
        assert autoref["limit"] == 10

    def test_monitor_fingerprint(self, tmp_path):
        path = tmp_path / "monitor.journal"
        with Session("FLAP-S", scenario_params={"flaps": 3},
                     journal=str(path)) as session:
            session.monitor()
        header = json.loads(path.read_text().splitlines()[0].split(" ", 1)[1])
        fingerprint = header["fingerprint"]
        del fingerprint["stream_sha"]
        assert fingerprint == {
            "kind": "monitor", "source": "scenario:FLAP-S",
            "options": {"minimize": False, "repair": False},
            "capacity": 24, "lateness": 8, "max_pending": 8,
            "diagnose_every": 1, "reference_limit": 5,
        }
