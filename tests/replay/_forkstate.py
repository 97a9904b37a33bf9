"""Everything observable about an engine+recorder, as plain comparable data.

Shared by tests/replay/test_fork.py and tests/property/test_prop_fork.py:
a candidate forked off a live base must equal the same candidate
replayed from scratch, and a rolled-back base must equal a twin that
never forked.  Dict *insertion order* is part of the comparison (lists
of items, not dicts) wherever the engine's behaviour can depend on it;
sets are compared sorted.  Pure caches — interning pool, compiled
plans, sorted views, index buckets — are left out and checked through
the queries they serve (:func:`query_views`).
"""

from repro.errors import ReproError
from repro.replay.replayer import pristine


def _derivation(d):
    return (d.id, d.rule_name, d.head, d.body, sorted(d.env.items(), key=str),
            d.trigger_index, d.time)


def _event(event):
    # "der" events carry a DerivationInfo, which has no __eq__.
    return tuple(
        _derivation(part) if hasattr(part, "rule_name") else part
        for part in event
    )


def engine_state(engine, recorder):
    store = engine.store
    state = {
        "counters": (engine.steps, engine._clock, engine._next_derivation_id,
                     engine._delay_seq),
        "queue": [item[:1] + tuple(
            _derivation(x) + (x.revocable, x.active)
            if hasattr(x, "rule_name") else x for x in item[1:]
        ) for item in engine._queue],
        "delayed": [list(entry[:2]) for entry in engine._delayed],
        "records": [
            (name, [
                (tup, rec.base_supports, rec.mutable, sorted(rec.derivations),
                 rec.appear_time)
                for tup, rec in table.items()
            ])
            for name, table in store._tables.items()
        ],
        "derivations": [
            _derivation(d) + (d.revocable, d.active)
            for d in store.derivations.values()
        ],
        "dependents": [
            (tup, sorted(ids)) for tup, ids in store._dependents.items()
        ],
        "faults": None if engine.faults is None else dict(engine.faults.counters),
    }
    if recorder is not None:
        lazy = recorder._lazy
        state["recorder"] = (recorder.seen_events, recorder.lost_events,
                             recorder._clock, recorder._next_reported_id)
        state["lazy"] = {
            "pending": lazy.pending,
            "arena": [_event(e) for e in lazy._arena],
            "exists": [(t, [_event(i) for i in v])
                       for t, v in lazy._exists.items()],
            "inserts": list(lazy._inserts.items()),
            "derivations": [_derivation(d) for d in lazy._derivations.values()],
            "vertices": lazy._vertex_count,
        }
    return state


def query_views(engine):
    """What the store's caches answer: sorted views and index probes."""
    store = engine.store
    views = {}
    for table in sorted(store.schemas):
        live = store.tuples(table)
        views[table] = live
        for position in range(store.schemas[table].arity):
            for value in {tup.args[position] for tup in live}:
                views[table, position, value] = store.tuples_matching(
                    table, position, value
                )
    return views


def tree_dump(node):
    """A tuple-view tree as nested data: what FIRSTDIV compares, plus the
    node, appear time, mutability and derivation it reads off a node."""
    derivation = node.derivation
    return (node.tuple, node.rule, node.node, node.appear_time, node.mutable,
            None if derivation is None else _derivation(derivation),
            [tree_dump(child) for child in node.children])


def assert_same_trees(walked, eager):
    """``tuple_tree`` walked off an unmaterialized recorder ≡ the eager
    graph's projection, for every tuple at every time its liveness
    changes (and with no time: the latest interval)."""
    assert walked.pending
    for tup, exists in eager._exists_by_tuple.items():
        times = {None}
        for vertex in exists:
            times.update((vertex.time - 1, vertex.time, vertex.end_time))
        for time in times:
            dumps = []
            for graph in (walked, eager):
                try:
                    dumps.append(tree_dump(graph.tuple_tree(tup, time)))
                except ReproError:  # never observed at that time
                    dumps.append(None)
            assert dumps[0] == dumps[1], (tup, time)


def assert_same_state(got, want):
    """Compare section by section so a failure names what differs."""
    assert got.keys() == want.keys()
    for section in want:
        assert got[section] == want[section], section


def assert_base_is_pristine(execution):
    """The (rolled-back) live base ≡ a twin that never forked."""
    engine, recorder = execution._base
    if engine.in_checkpoint:
        engine.rollback()
    twin_engine, twin_recorder, _ = pristine(
        execution.program, execution.log, execution._base_at,
        config=execution.engine_config, lossless=True,
        step_limit=execution.engine.steps * 10 + 10_000,
    )
    assert_same_state(engine_state(engine, recorder),
                      engine_state(twin_engine, twin_recorder))
    assert query_views(engine) == query_views(twin_engine)
    assert recorder.graph.pending
