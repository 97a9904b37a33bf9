"""Tests for the prefix snapshot store.

The cache is a pure speed-up: a diagnosis is byte-identical whether it
is cold, warm, or disabled (the contract matrix, tests/contract, holds
that line).  Here: its accounting, keys and corruption handling.  The
bare ``replay()`` only
ever touches *prefix* snapshots; result snapshots are looked up by
``Execution.replay`` on an attached cache, and candidates it does not
hold fork off a live base (tests/replay/test_fork.py).
"""

import pytest

from repro.datalog import BACKENDS, EngineConfig, parse_tuple
from repro.faults import FaultPlan
from repro.replay import Change, Execution, ReplayCache, replay


def _forwarding_execution(forwarding_program):
    execution = Execution(forwarding_program)
    for text in (
        "link('s1', 2, 's2')",
        "flowEntry('s1', 5, 4.3.2.0/24, 2)",
        "flowEntry('s1', 1, 0.0.0.0/0, 9)",
        "flowEntry('s2', 1, 0.0.0.0/0, 3)",
        "hostAt('s2', 3, 'h1')",
    ):
        execution.insert(parse_tuple(text))
    execution.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.3.1)"))
    return execution


WIDEN = Change(
    insert=parse_tuple("flowEntry('s1', 5, 4.3.2.0/23, 2)"),
    remove=[parse_tuple("flowEntry('s1', 5, 4.3.2.0/24, 2)")],
)


class TestAccounting:
    def test_cold_replay_misses_and_stores(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] >= 1
        assert stats["stores"] >= 1
        assert stats["entries"] == len(cache) > 0
        assert stats["bytes"] > 0

    def test_warm_replay_hits(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        before = cache.stats()
        replay(forwarding_program, execution.log, cache=cache)
        after = cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["stores"] == before["stores"]

    def test_changed_replay_result_is_cached(self, forwarding_program):
        # Result snapshots live where the cache is attached: on the
        # execution, for whoever replays this candidate again.
        execution = _forwarding_execution(forwarding_program)
        execution.replay_cache = cache = ReplayCache()
        anchor = len(execution.log) - 1
        first = execution.replay([WIDEN], anchor_index=anchor)
        hits, stores = cache.hits, cache.stores
        again = execution.replay([WIDEN], anchor_index=anchor)
        assert (cache.hits, cache.stores) == (hits + 1, stores)
        assert again.engine is not first.engine
        assert sorted(map(str, again.engine.store.all_tuples())) == \
            sorted(map(str, first.engine.store.all_tuples()))

    def test_changed_replay_seeds_from_its_fork_prefix(
        self, forwarding_program
    ):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        anchor = len(execution.log) - 1
        replay(forwarding_program, execution.log, [WIDEN],
               anchor_index=anchor, cache=cache)
        # WIDEN removes the tuple logged at index 1: that is the fork,
        # and all the bare replay() stores — no result snapshot.
        base = ReplayCache.base_key(execution.log, None, False, True,
                                    EngineConfig.coerce(None))
        assert list(cache._entries) == [ReplayCache.prefix_key(base, 1)]
        hits = cache.hits
        other = Change(insert=parse_tuple("flowEntry('s1', 9, 0.0.0.0/0, 2)"))
        for changes in ([WIDEN], [WIDEN, other]):
            replay(forwarding_program, execution.log, changes,
                   anchor_index=anchor, cache=cache)
        # Different change sets, same fork: both seed from that prefix.
        assert cache.hits == hits + 2
        assert len(cache) == 1

    def test_restored_state_matches_fresh_replay(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        anchor = len(execution.log) - 1
        first = replay(forwarding_program, execution.log, [WIDEN],
                       anchor_index=anchor, cache=cache)
        warm = replay(forwarding_program, execution.log, [WIDEN],
                      anchor_index=anchor, cache=cache)
        fresh = replay(forwarding_program, execution.log, [WIDEN],
                       anchor_index=anchor)
        for result in (first, warm):
            assert sorted(map(str, result.engine.store.all_tuples())) == \
                sorted(map(str, fresh.engine.store.all_tuples()))
        delivered = parse_tuple("delivered('h1', 7.7.7.7, 4.3.3.1)")
        assert warm.engine.exists(delivered)

    def test_restores_are_isolated_copies(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        one = replay(forwarding_program, execution.log, cache=cache)
        extra = parse_tuple("flowEntry('s9', 1, 0.0.0.0/0, 1)")
        one.engine.insert(extra)
        two = replay(forwarding_program, execution.log, cache=cache)
        assert one.engine is not two.engine
        assert not two.engine.exists(extra)

    def test_lru_eviction(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache(max_entries=1)
        anchor = len(execution.log) - 1
        replay(forwarding_program, execution.log, cache=cache)
        replay(forwarding_program, execution.log, [WIDEN],
               anchor_index=anchor, cache=cache)
        assert len(cache) == 1
        assert cache.evictions >= 1

    def test_fold_into_records_occupancy(self, forwarding_program):
        from repro.observability import Telemetry

        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        telemetry = Telemetry()
        cache.fold_into(telemetry)
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["replay.cache.entries"] == len(cache)
        assert gauges["replay.cache.bytes"] == cache.bytes_stored


class TestKeys:
    def test_key_sensitive_to_fault_plan(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        log = execution.log
        none = ReplayCache.base_key(log, None, False, True)
        plan_a = ReplayCache.base_key(
            log, FaultPlan.parse("loss=0.1,seed=7"), False, True
        )
        plan_b = ReplayCache.base_key(
            log, FaultPlan.parse("loss=0.1,seed=8"), False, True
        )
        assert len({none, plan_a, plan_b}) == 3

    def test_lossless_collapsed_without_plan(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        log = execution.log
        assert ReplayCache.base_key(log, None, True, True) == \
            ReplayCache.base_key(log, None, False, True)
        plan = FaultPlan.parse("loss=0.1,seed=7")
        assert ReplayCache.base_key(log, plan, True, True) != \
            ReplayCache.base_key(log, plan, False, True)

    def test_key_sensitive_to_log_content(self, forwarding_program):
        a = _forwarding_execution(forwarding_program)
        b = _forwarding_execution(forwarding_program)
        b.insert(parse_tuple("packet('s1', 7.7.7.7, 4.3.2.1)"))
        assert ReplayCache.base_key(a.log, None, False, True) != \
            ReplayCache.base_key(b.log, None, False, True)

    def test_zero_change_result_key_is_full_prefix(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        base = ReplayCache.base_key(execution.log, None, False, True)
        key = ReplayCache.result_key(base, [], None, len(execution.log))
        assert key == ReplayCache.prefix_key(base, len(execution.log))

    def test_result_key_sensitive_to_changes_and_anchor(
        self, forwarding_program
    ):
        execution = _forwarding_execution(forwarding_program)
        base = ReplayCache.base_key(execution.log, None, False, True)
        n = len(execution.log)
        other = Change(insert=parse_tuple("flowEntry('s1', 9, 0.0.0.0/0, 2)"))
        keys = {
            ReplayCache.result_key(base, [WIDEN], 3, n),
            ReplayCache.result_key(base, [WIDEN], 4, n),
            ReplayCache.result_key(base, [other], 3, n),
        }
        assert len(keys) == 3

    def test_zero_change_replay_is_the_full_prefix(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        base = ReplayCache.base_key(execution.log, None, False, True,
                                    EngineConfig.coerce(None))
        full = ReplayCache.prefix_key(base, len(execution.log))
        assert list(cache._entries) == [full]
        # ... which also seeds any changed replay forking at the end.
        late = Change(insert=parse_tuple("flowEntry('s1', 9, 0.0.0.0/0, 2)"))
        replay(forwarding_program, execution.log, [late],
               anchor_index=len(execution.log), cache=cache)
        assert cache.hits == 1 and len(cache) == 1

    def test_prefix_chosen_by_fork_point_not_by_change_set(
        self, forwarding_program
    ):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        other = Change(insert=parse_tuple("flowEntry('s1', 9, 0.0.0.0/0, 2)"))
        for changes, anchor in (([other], 3), ([other], 4), ([WIDEN], 4)):
            replay(forwarding_program, execution.log, changes,
                   anchor_index=anchor, cache=cache)
        # Forks at 3, 4 and 1 (WIDEN's removal is logged at 1); the
        # fork-4 replay seeded from the prefix stored at 3.
        assert sorted(key[2] for key in cache._entries) == [1, 3, 4]
        assert cache.hits == 1


class TestBackendSnapshots:
    """ColumnarStore + compiled closures must survive the pickle path.

    A cached snapshot is a pickled engine; the compiled backend drops
    its (unpicklable) closures and index buckets on ``__getstate__``
    and rebuilds them lazily after restore, so a warm replay must be
    byte-identical to a cold one — per backend, and across backends.
    """

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_warm_restore_matches_cold_replay(
        self, forwarding_program, backend
    ):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        cold = replay(forwarding_program, execution.log, cache=cache,
                      engine=backend)
        # A warm zero-change replay is a pure restore of the
        # full-length prefix: nothing is driven after the unpickle.
        warm = replay(forwarding_program, execution.log, cache=cache,
                      engine=backend)
        assert cache.hits == 1
        assert sorted(map(str, warm.engine.store.all_tuples())) == \
            sorted(map(str, cold.engine.store.all_tuples()))
        assert warm.engine.steps == cold.engine.steps
        # Closures and index buckets did not ride along in the pickle.
        assert warm.engine._compiled_plans == {}
        assert getattr(warm.engine.store, "_indexes", {}) == {}
        # The restored engine must still evaluate: push another packet
        # through the backend's join path, which rebuilds them.
        warm.engine.insert_and_run(
            parse_tuple("packet('s1', 8.8.8.8, 4.3.2.9)")
        )
        assert warm.engine.exists(
            parse_tuple("delivered('h1', 8.8.8.8, 4.3.2.9)")
        )
        assert bool(warm.engine._compiled_plans) == (backend == "compiled")

    def test_snapshots_never_cross_backends(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache,
               engine="compiled")
        replay(forwarding_program, execution.log, cache=cache,
               engine="reference")
        # The second replay used the other backend: pickled engine
        # state differs even though results do not, so it must be a
        # miss, not a hit on the compiled snapshot.
        assert cache.hits == 0
        assert cache.stats()["misses"] >= 2

    def test_base_key_separates_engine_configs(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        log = execution.log
        keys = {
            ReplayCache.base_key(log, None, False, True,
                                 EngineConfig.coerce(backend))
            for backend in BACKENDS
        }
        keys.add(ReplayCache.base_key(log, None, False, True))
        assert len(keys) == len(BACKENDS) + 1


class TestCorruption:
    """A damaged snapshot is a recorded miss, never a crash.

    Regression: a truncated pickle in the cache used to raise out of
    ``pickle.loads`` mid-minimization and take the whole diagnosis
    down (docs/resilience.md).
    """

    def _warm_cache(self, forwarding_program):
        execution = _forwarding_execution(forwarding_program)
        cache = ReplayCache()
        replay(forwarding_program, execution.log, cache=cache)
        return execution, cache

    def test_truncated_pickle_is_a_quarantined_miss(self, forwarding_program):
        execution, cache = self._warm_cache(forwarding_program)
        # Truncate every framed payload mid-pickle, as a half-written
        # snapshot file would be after a crash.
        for entry in cache._entries.values():
            entry.payload = entry.payload[: max(1, len(entry.payload) // 2)]
        result = replay(forwarding_program, execution.log, cache=cache)
        assert result.graph is not None
        stats = cache.stats()
        assert stats["corrupt"] >= 1
        assert stats["hits"] == 0

    def test_bit_rot_is_a_quarantined_miss(self, forwarding_program):
        execution, cache = self._warm_cache(forwarding_program)
        for entry in cache._entries.values():
            flipped = bytearray(entry.payload)
            flipped[-1] ^= 0xFF
            entry.payload = bytes(flipped)
        replay(forwarding_program, execution.log, cache=cache)
        assert cache.stats()["corrupt"] >= 1

    def test_quarantine_evicts_and_releases_bytes(self, forwarding_program):
        execution, cache = self._warm_cache(forwarding_program)
        entries_before = len(cache)
        for entry in cache._entries.values():
            entry.payload = entry.payload[:10]
        replay(forwarding_program, execution.log, cache=cache)
        assert len(cache) <= entries_before
        assert cache.bytes_stored >= 0

    def test_corruption_is_metered(self, forwarding_program):
        from repro.observability import Telemetry

        execution, cache = self._warm_cache(forwarding_program)
        for entry in cache._entries.values():
            entry.payload = entry.payload[:10]
        telemetry = Telemetry()
        replay(forwarding_program, execution.log, cache=cache,
               telemetry=telemetry)
        counters = telemetry.snapshot()["counters"]
        assert counters.get("replay.cache.corrupt", 0) >= 1

    def test_healthy_cache_reports_zero_corruption(self, forwarding_program):
        execution, cache = self._warm_cache(forwarding_program)
        replay(forwarding_program, execution.log, cache=cache)
        assert cache.stats()["corrupt"] == 0
