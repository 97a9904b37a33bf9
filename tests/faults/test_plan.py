"""FaultPlan: spec parsing, validation, and canonical round-trips."""

import pytest

from repro.errors import FaultSpecError
from repro.faults import FaultPlan


class TestParsing:
    def test_empty_spec_is_the_zero_plan(self):
        assert FaultPlan.parse("").is_zero()
        assert FaultPlan().is_zero()

    def test_rates_and_seed(self):
        plan = FaultPlan.parse("drop=0.1,dup=0.05,loss=0.2,seed=7")
        assert plan.drop == 0.1
        assert plan.duplicate == 0.05
        assert plan.prov_loss == 0.2
        assert plan.seed == 7
        assert not plan.is_zero()

    def test_retry_and_timeout_knobs(self):
        plan = FaultPlan.parse("fetch-loss=0.3,retries=5,timeout=2")
        assert plan.fetch_loss == 0.3
        assert plan.max_retries == 5
        assert plan.timeout_steps == 2

    def test_unreachable_nodes(self):
        plan = FaultPlan.parse("unreachable=s3|s4")
        assert plan.unreachable == ("s3", "s4")

    def test_flap_windows_accumulate(self):
        plan = FaultPlan.parse("flap=s2:1:10:40,flap=s2:*:50:60")
        assert ("s2", 1, 10, 40) in plan.flaps
        assert ("s2", None, 50, 60) in plan.flaps

    def test_crash_window(self):
        plan = FaultPlan.parse("crash=s3:5:60")
        assert plan.crashes == (("s3", 5, 60),)

    def test_whitespace_and_empty_tokens_tolerated(self):
        plan = FaultPlan.parse(" drop = 0.1 , , seed = 3 ")
        assert plan.drop == 0.1
        assert plan.seed == 3


class TestValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            "drop",                # no '='
            "drop=",               # empty value
            "drop=fast",           # not a number
            "drop=1.5",            # rate outside [0, 1]
            "loss=-0.1",
            "seed=two",
            "bogus=1",             # unknown key
            "worker-crash=0.5",    # a removed kind is an unknown key
            "unreachable=",        # no nodes
            "flap=s2:1:10",        # too few fields
            "flap=s2:x:10:40",     # bad port
            "flap=s2:1:40:10",     # empty window
            "crash=s3:60:5",
        ],
    )
    def test_bad_specs_raise_typed_errors(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_error_carries_the_offending_token(self):
        with pytest.raises(FaultSpecError, match="drop=fast"):
            FaultPlan.parse("seed=1,drop=fast")

    def test_constructor_validates_rates_too(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(drop=2.0)
        with pytest.raises(FaultSpecError):
            FaultPlan(max_retries=-1)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "seed=7,drop=0.1",
            "loss=0.1,fetch-loss=0.15,retries=3,seed=11",
            "unreachable=s4|s3,flap=s2:1:10:40,crash=s3:5:60",
            "delay=0.2,delay-steps=4",
        ],
    )
    def test_describe_round_trips(self, spec):
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_equal_plans_hash_equal(self):
        a = FaultPlan.parse("drop=0.1,seed=3,unreachable=s1|s2")
        b = FaultPlan.parse("unreachable=s2|s1,seed=3,drop=0.1")
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_differ(self):
        assert FaultPlan(seed=1) != FaultPlan(seed=2)
