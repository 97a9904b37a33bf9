"""Tests for condition repair (prefix widening, inversion repairs)."""

import pytest

from repro.addresses import IPv4Address, Prefix
from repro.core.repair import repair_condition, widen_prefix
from repro.datalog.parser import parse_expr
from repro.datalog.rules import Condition
from repro.errors import NonInvertibleError


class TestWidenPrefix:
    def test_paper_example(self):
        # The SDN1 root cause: 4.3.2.0/24 must widen to /23 to cover 4.3.3.1.
        widened = widen_prefix(Prefix("4.3.2.0/24"), IPv4Address("4.3.3.1"))
        assert widened == Prefix("4.3.2.0/23")

    def test_already_covered_unchanged(self):
        pfx = Prefix("4.3.2.0/24")
        assert widen_prefix(pfx, IPv4Address("4.3.2.200")) is pfx

    def test_distant_address_widens_far(self):
        widened = widen_prefix(Prefix("4.3.2.0/24"), IPv4Address("132.3.2.1"))
        assert widened.length == 0

    def test_result_always_contains_both(self):
        pfx = Prefix("10.1.2.0/24")
        for addr in ("10.1.3.7", "10.200.0.1", "11.0.0.1"):
            widened = widen_prefix(pfx, IPv4Address(addr))
            assert widened.contains(IPv4Address(addr))
            assert widened.contains(pfx.network)

    def test_widening_is_minimal(self):
        widened = widen_prefix(Prefix("10.0.0.0/24"), IPv4Address("10.0.1.1"))
        assert widened.length == 23  # one bit shorter is enough


def _cond(text_left, op=None, text_right=None):
    if op is None:
        return Condition("call", parse_expr(text_left))
    return Condition(op, parse_expr(text_left), parse_expr(text_right))


class TestRepairCondition:
    def test_prefix_condition_repair(self):
        condition = _cond("ip_in_prefix(Dst, Pfx)", "==", "true")
        env = {"Dst": IPv4Address("4.3.3.1"), "Pfx": Prefix("4.3.2.0/24")}
        var, value = repair_condition(condition, env, {"Pfx"})
        assert var == "Pfx"
        assert value == Prefix("4.3.2.0/23")

    def test_bare_call_form(self):
        condition = _cond("ip_in_prefix(Dst, Pfx)")
        env = {"Dst": IPv4Address("4.3.3.1"), "Pfx": Prefix("4.3.2.0/24")}
        var, value = repair_condition(condition, env, {"Pfx"})
        assert (var, value) == ("Pfx", Prefix("4.3.2.0/23"))

    def test_no_repairable_var_returns_none(self):
        condition = _cond("ip_in_prefix(Dst, Pfx)", "==", "true")
        env = {"Dst": IPv4Address("4.3.3.1"), "Pfx": Prefix("4.3.2.0/24")}
        assert repair_condition(condition, env, set()) is None

    def test_unrepairable_builtin_raises(self):
        condition = _cond("mapper_emits(Ver, Pos)", "==", "true")
        env = {"Ver": "v2", "Pos": 0}
        with pytest.raises(NonInvertibleError):
            repair_condition(condition, env, {"Ver"})

    def test_comparison_repair_by_inversion(self):
        # Q == X + 2 failing with Q = 9 must propose X = 7.
        condition = _cond("Q", "==", "X + 2")
        env = {"Q": 9, "X": 3}
        var, value = repair_condition(condition, env, {"X"})
        assert (var, value) == ("X", 7)

    def test_comparison_repair_left_side(self):
        condition = _cond("X * 2", "==", "Q")
        env = {"Q": 10, "X": 3}
        assert repair_condition(condition, env, {"X"}) == ("X", 5)

    def test_multi_preimage_repair_picks_valid_candidate(self):
        condition = _cond("sq(X)", "==", "Q")
        env = {"Q": 16, "X": 3}
        var, value = repair_condition(condition, env, {"X"})
        assert var == "X"
        assert value in (4, -4)

    def test_tainted_value_side_must_be_evaluable(self):
        # The non-repairable side references an unbound variable: no repair.
        condition = _cond("X + 2", "==", "Unknowable")
        assert repair_condition(condition, {"X": 1}, {"X"}) is None
