"""Property: the trie-narrowed blocker search ≡ the full-bucket search.

DiffProv's selector search (``_DiagnosisState._select_winner``) asks the
emulator's store for the flow entries whose destination prefix covers
the packet (``_ConfigStoreView.tuples_covering``), read off the switch's
prefix trie through ``FlowTable._covering`` — which follows a fork's
overlay and its mask of uninstalled parent entries.  Whatever installs,
uninstalls and re-installs produced the table (on the base, on a fork,
on a fork of a fork), the covering set must be the full per-switch
bucket filtered by ``ip_in_prefix(Dst, DstPfx)``, in the same order; and
the search must pick the same winner from it as from the full bucket
(what the ``reference`` backend's linear-scan tables get), whatever the
expected entry and whatever is excluded.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.addresses import IPv4Address
from repro.core.diffprov import _DiagnosisState
from repro.datalog import builtins
from repro.datalog.engine import match_atom
from repro.sdn import model
from repro.sdn.emulation import NetworkConfig, _ConfigStoreView
from repro.sdn.topology import Topology

DST_PREFIXES = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                "10.1.2.3/32", "10.2.0.0/16"]
# A small pool, so that random tables collide on priority and prefix
# (exact selector-key ties only the sort_key tie-break separates).
POOL = [
    model.flow_entry("s1", prio, src, dst, port)
    for prio in (1, 2)
    for src in ("0.0.0.0/0", "4.3.0.0/16")
    for dst in DST_PREFIXES
    for port in (1, 2)
]
DESTINATIONS = [IPv4Address(a) for a in
                ("10.1.2.3", "10.1.9.9", "10.2.0.1", "192.168.0.1")]
SOURCES = [IPv4Address(a) for a in ("4.3.2.1", "1.1.1.1")]

entries = st.sampled_from(POOL)
operations = st.lists(st.tuples(st.booleans(), entries), max_size=10)
# One list of (install?, entry) operations per level: the base, then up
# to two forks, each forked off the level before.
levels = st.lists(operations, min_size=1, max_size=3)

FWD = model.sdn_program().rule("fwd")
PACKET_ATOM, FLOW_ATOM = FWD.body

# The base installs a 10.0.0.0/8 entry; the fork masks it ...
MASKED = [[(True, POOL[2])], [(False, POOL[2])]]
# ... or masks and re-installs it (an unmask, not a local install).
UNMASKED = [[(True, POOL[2])], [(False, POOL[2]), (True, POOL[2])]]
# A fork of a fork installs locally what its parent masked.
OVERLAY = [[(True, POOL[0])], [(True, POOL[26]), (False, POOL[0])],
           [(True, POOL[0])]]


def _config(levels_ops) -> NetworkConfig:
    topology = Topology()
    topology.add_switch("s1")
    config = NetworkConfig(topology)
    for depth, ops in enumerate(levels_ops):
        if depth:
            config = config.fork()
        for install, entry in ops:
            (config.install if install else config.uninstall)(entry)
    return config


def _winner(config, src, dst, expected, excluded):
    env = {}
    assert match_atom(PACKET_ATOM, model.packet("s1", 1, src, dst), env)
    state = _DiagnosisState.__new__(_DiagnosisState)
    replayed = SimpleNamespace(store=_ConfigStoreView(config))
    return state._select_winner(
        FLOW_ATOM, FWD, env, expected, replayed, set(excluded)
    )


@settings(max_examples=200, deadline=None)
@given(levels, st.sampled_from(DESTINATIONS))
@example(MASKED, DESTINATIONS[0])
@example(UNMASKED, DESTINATIONS[0])
@example(OVERLAY, DESTINATIONS[0])
def test_covering_set_is_the_filtered_bucket(levels_ops, dst):
    view = _ConfigStoreView(_config(levels_ops))
    bucket = view.tuples_matching("flowEntry", 0, "s1")
    expected = [
        entry for entry in bucket
        if builtins.call("ip_in_prefix", [dst, entry.args[3]])
    ]
    assert view.tuples_covering("flowEntry", "s1", 3, dst) == expected


@settings(max_examples=200, deadline=None)
@given(
    levels,
    st.sampled_from(SOURCES),
    st.sampled_from(DESTINATIONS),
    entries,
    st.sets(entries, max_size=4),
)
@example(MASKED, SOURCES[0], DESTINATIONS[0], POOL[0], set())
@example(UNMASKED, SOURCES[0], DESTINATIONS[0], POOL[0], {POOL[3]})
def test_narrowed_search_picks_the_full_bucket_winner(
    levels_ops, src, dst, expected, excluded
):
    config = _config(levels_ops)
    narrowed = _winner(config, src, dst, expected, excluded)
    for table in config.tables.values():
        table.linear_scan = True  # the reference backend's tables
    assert _ConfigStoreView(config).tuples_covering(
        "flowEntry", "s1", 3, dst
    ) is None
    assert narrowed == _winner(config, src, dst, expected, excluded)
