"""Tests for the prefix trie and the emulator flow tables."""

import pytest
from hypothesis import given, strategies as st

from repro.addresses import IPv4Address, Prefix
from repro.errors import ReproError
from repro.replay.log import estimate_size
from repro.sdn import model
from repro.sdn.flowtable import FlowTable, PrefixTrie


class TestPrefixTrie:
    def test_covering_walk(self):
        trie = PrefixTrie()
        trie.insert(Prefix("0.0.0.0/0"), "default")
        trie.insert(Prefix("10.0.0.0/8"), "ten")
        trie.insert(Prefix("10.1.0.0/16"), "ten-one")
        found = list(trie.covering(IPv4Address("10.1.2.3")))
        assert found == ["default", "ten", "ten-one"]

    def test_non_covering_excluded(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "ten")
        trie.insert(Prefix("11.0.0.0/8"), "eleven")
        assert list(trie.covering(IPv4Address("10.9.9.9"))) == ["ten"]

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.1/32"), "exact")
        assert list(trie.covering(IPv4Address("10.0.0.1"))) == ["exact"]
        assert list(trie.covering(IPv4Address("10.0.0.2"))) == []

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        assert trie.remove(Prefix("10.0.0.0/8"), "a")
        assert not trie.remove(Prefix("10.0.0.0/8"), "a")
        assert list(trie.covering(IPv4Address("10.0.0.1"))) == []

    def test_len(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        trie.insert(Prefix("10.0.0.0/8"), "b")
        assert len(trie) == 2


# Nested and sibling prefixes of every shape: the default route, two
# lengths sharing a network, siblings, and a host route.
TRIE_PREFIXES = [Prefix(p) for p in (
    "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
    "10.1.2.0/24", "10.1.2.128/25", "10.1.2.3/32", "11.0.0.0/8",
)]
TRIE_ADDRESSES = [IPv4Address(a) for a in (
    "10.1.2.3", "10.1.2.200", "10.0.9.9", "11.1.1.1", "12.0.0.0",
)]
# (insert?, prefix, value) steps; a small value pool makes removes hit
# and re-inserts of one (prefix, value) pair common.
trie_steps = st.lists(
    st.tuples(st.booleans(), st.sampled_from(TRIE_PREFIXES),
              st.sampled_from("abc")),
    max_size=30,
)


class TestPrefixTrieProperties:
    @given(trie_steps)
    def test_covering_matches_brute_force(self, steps):
        trie, kept = PrefixTrie(), []  # kept: (prefix, value), in order
        for insert, pfx, value in steps:
            if insert:
                trie.insert(pfx, value)
                kept.append((pfx, value))
            else:
                removed = (pfx, value) in kept
                assert trie.remove(pfx, value) == removed
                if removed:
                    kept.remove((pfx, value))
        assert len(trie) == len(kept)
        for addr in TRIE_ADDRESSES:
            # Shorter prefixes first; a stable sort keeps insertion
            # order within one prefix.
            expected = [value for pfx, value in
                        sorted(kept, key=lambda pair: pair[0].length)
                        if pfx.contains(addr)]
            assert list(trie.covering(addr)) == expected

    @given(trie_steps)
    def test_emptied_trie_probes_no_length(self, steps):
        trie = PrefixTrie()
        for _, pfx, value in steps:
            trie.insert(pfx, value)
        for _, pfx, value in steps:
            trie.remove(pfx, value)
        assert len(trie) == 0
        assert trie._lengths == []  # covering() loops over these
        assert list(trie.covering(TRIE_ADDRESSES[0])) == []


class TestFlowTable:
    def entry(self, prio, src, dst, action, switch="s1"):
        return model.flow_entry(switch, prio, src, dst, action)

    def test_install_and_contains(self):
        table = FlowTable("s1")
        entry = self.entry(5, "0.0.0.0/0", "10.0.0.0/8", 3)
        table.install(entry)
        assert entry in table
        assert len(table) == 1

    def test_install_is_idempotent(self):
        table = FlowTable("s1")
        entry = self.entry(5, "0.0.0.0/0", "10.0.0.0/8", 3)
        assert table.install(entry) is True
        assert table.install(entry) is False
        assert len(table) == 1

    def test_sized_entries_are_the_sorted_entries_with_their_log_size(self):
        table = FlowTable("s1")
        for prio, dst, action in [
            (5, "10.0.0.0/8", 3),
            (12, "10.0.0.0/16", "drop"),
            (5, "9.0.0.0/8", 1),
        ]:
            table.install(self.entry(prio, "0.0.0.0/0", dst, action))
        assert list(table.sized_entries()) == [
            (entry, estimate_size(entry)) for entry in table.entries()
        ]

    def test_wrong_switch_rejected(self):
        table = FlowTable("s1")
        with pytest.raises(ReproError):
            table.install(self.entry(5, "0.0.0.0/0", "0.0.0.0/0", 3, switch="s2"))

    def test_non_flow_entry_rejected(self):
        table = FlowTable("s1")
        with pytest.raises(ReproError):
            table.install(model.host_at("s1", 1, "h"))

    def test_best_match_priority(self):
        table = FlowTable("s1")
        low = self.entry(1, "0.0.0.0/0", "0.0.0.0/0", 9)
        high = self.entry(9, "0.0.0.0/0", "10.0.0.0/8", 2)
        table.install(low)
        table.install(high)
        assert table.best_match(
            IPv4Address("1.1.1.1"), IPv4Address("10.1.1.1")
        ) == high
        assert table.best_match(
            IPv4Address("1.1.1.1"), IPv4Address("11.1.1.1")
        ) == low

    def test_best_match_respects_source_prefix(self):
        table = FlowTable("s1")
        entry = self.entry(9, "4.3.2.0/24", "0.0.0.0/0", 2)
        table.install(entry)
        assert table.best_match(
            IPv4Address("4.3.2.1"), IPv4Address("9.9.9.9")
        ) == entry
        assert table.best_match(
            IPv4Address("4.3.3.1"), IPv4Address("9.9.9.9")
        ) is None

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable("s1")
        wide = self.entry(5, "0.0.0.0/0", "10.0.0.0/8", 1)
        narrow = self.entry(5, "0.0.0.0/0", "10.1.0.0/16", 2)
        table.install(wide)
        table.install(narrow)
        assert table.best_match(
            IPv4Address("1.1.1.1"), IPv4Address("10.1.0.9")
        ) == narrow

    def test_uninstall(self):
        table = FlowTable("s1")
        entry = self.entry(5, "0.0.0.0/0", "0.0.0.0/0", 1)
        table.install(entry)
        assert table.uninstall(entry)
        assert not table.uninstall(entry)
        assert table.best_match(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2")) is None

    def test_agrees_with_declarative_argmax(self):
        """The emulator's lookup must equal the engine's selector choice."""
        import random

        from repro.datalog import Engine
        from repro.provenance import ProvenanceRecorder

        rng = random.Random(4)
        entries = []
        for index in range(40):
            pfx = Prefix(f"10.{rng.randrange(4)}.{rng.randrange(4)}.0/{rng.choice([8, 16, 24])}")
            entries.append(self.entry(rng.randrange(1, 5), "0.0.0.0/0", pfx, index))
        table = FlowTable("s1")
        recorder = ProvenanceRecorder()
        engine = Engine(model.sdn_program(), recorder=recorder)
        for entry in entries:
            table.install(entry)
            engine.insert(entry)
        engine.run()
        for trial in range(30):
            dst = IPv4Address(f"10.{rng.randrange(4)}.{rng.randrange(4)}.{rng.randrange(4)}")
            expected = table.best_match(IPv4Address("1.1.1.1"), dst)
            engine.insert_and_run(model.packet("s1", 1000 + trial, "1.1.1.1", dst))
            outs = [
                d for d in recorder.graph.derivations.values()
                if d.rule_name == "fwd" and d.body[0].args[1] == 1000 + trial
            ]
            if expected is None:
                assert outs == []
            else:
                assert len(outs) == 1
                assert outs[0].body[1] == expected
