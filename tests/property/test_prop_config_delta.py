"""Property: the copy-on-write overlay delta equals the definition.

``FlowTable.delta`` / ``NetworkConfig.delta`` read the symmetric
difference of two forks straight off their overlays (local entries,
masked parent entries) — the O(changed entries) accessor rollback
verification runs on (docs/repair.md, "Cost model").  Whatever sequence
of installs, uninstalls and re-installs produced the two forks —
masking then unmasking a parent entry, installing an entry equal to a
parent entry — it must equal ``set(a.entries()) ^ set(b.entries())``;
and ``clone()`` pairs, which share no base, must agree through the
entry-by-entry fallback.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sdn import model
from repro.sdn.emulation import NetworkConfig
from repro.sdn.topology import Topology

SWITCHES = ("s1", "s2")
# A small pool, so that sequences collide with the parent's entries and
# with each other often.
POOL = [
    model.flow_entry(switch, prio, "0.0.0.0/0", f"10.{net}.0.0/16", 1)
    for switch in SWITCHES
    for prio in (1, 2)
    for net in (1, 2, 3)
] + [model.group_entry(switch, -1, port) for switch in SWITCHES for port in (1, 2)]

tuples = st.sampled_from(POOL)
operations = st.lists(st.tuples(st.booleans(), tuples), max_size=12)


def _base(seed_tuples) -> NetworkConfig:
    topology = Topology()
    for switch in SWITCHES:
        topology.add_switch(switch)
    config = NetworkConfig(topology)
    for tup in seed_tuples:
        config.install(tup)
    return config


def _apply(config, ops) -> NetworkConfig:
    for install, tup in ops:
        (config.install if install else config.uninstall)(tup)
    return config


def _installed(config) -> set:
    return set(config.flow_entries()) | set(config.group_tuples())


@settings(max_examples=200, deadline=None)
@given(st.lists(tuples, max_size=10), operations, operations)
# a masks then unmasks a parent entry; b installs an equal entry.
@example([POOL[0]], [(False, POOL[0]), (True, POOL[0])], [(True, POOL[0])])
# a masks a parent entry that b leaves alone; b re-installs a local one.
@example(
    [POOL[0]],
    [(False, POOL[0])],
    [(True, POOL[1]), (False, POOL[1]), (True, POOL[1])],
)
def test_overlay_delta_equals_the_set_definition(seed, ops_a, ops_b):
    base = _base(seed)
    before = _installed(base)
    a = _apply(base.fork(), ops_a)
    b = _apply(base.fork(), ops_b)
    expected = _installed(a) ^ _installed(b)
    assert a.delta(b) == b.delta(a) == expected
    assert a.delta(base.fork()) == _installed(a) ^ before
    for switch in SWITCHES:
        assert a.tables[switch].delta(b.tables[switch]) == set(
            a.tables[switch].entries()
        ) ^ set(b.tables[switch].entries())
    assert _installed(base) == before  # forks never write through


@settings(max_examples=100, deadline=None)
@given(st.lists(tuples, max_size=10), operations, operations)
def test_cloned_configs_agree_through_the_fallback(seed, ops_a, ops_b):
    base = _base(seed)
    a = _apply(base.clone(), ops_a)
    b = _apply(base.clone(), ops_b)
    assert a.delta(b) == _installed(a) ^ _installed(b)
    # A fork against a clone shares no base either.
    assert _apply(base.fork(), ops_a).delta(b) == _installed(a) ^ _installed(b)
