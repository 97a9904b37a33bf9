"""Property: checkpoint → Δ → drive → rollback never leaks into the base.

``Execution.replay`` serves candidates off one live engine
(docs/performance.md, "Replay").  For random logs — edge churn under a
recursive, revocable rule (underive cascades), and flow-entry churn
under argmax selectors — and random interleavings of insert / remove /
modify candidates at random anchors, with the base dropped and rebuilt
at random points:

- every forked result equals ``replay(..., cache=None)`` from scratch,
  on everything tests/replay/_forkstate.py can observe,
- its ``tuple_tree`` walk, inside the checkpoint, equals the
  ``reference`` backend's eager projection, and
- the rolled-back base equals a twin that never forked.

The generators are the ones tests/property/test_prop_engine.py and
test_prop_selector.py already use.
"""

from hypothesis import example, given, settings, strategies as st

from repro.datalog import parse_program
from repro.datalog.tuples import Tuple
from repro.replay import Change, Execution, replay

from ..replay._forkstate import (
    assert_base_is_pristine,
    assert_same_trees,
    engine_state,
    query_views,
)
from . import test_prop_engine as reach
from . import test_prop_selector as selector


def _edge(a, b):
    return Tuple("edge", [a, b])


def _reach_execution(ops):
    execution = Execution(parse_program(reach.PROGRAM_TEXT))
    live = set()
    for index, (op, a, b) in enumerate(ops):
        tup = _edge(a, b)
        if op == "insert":
            execution.insert(tup)
            live.add(tup)
        elif tup in live:
            execution.delete(tup)
            live.discard(tup)
        if index % 4 == 3:
            execution.insert(Tuple("src", [0]))
    execution.insert(Tuple("src", [0]))
    return execution


def _selector_execution(script):
    execution = Execution(parse_program(selector.PROGRAM_TEXT))
    live = set()
    packets = 0
    for kind, arg in script:
        if kind == "packet":
            packets += 1
            execution.insert(Tuple("pkt", ["s1", packets, arg]))
            continue
        if kind in ("delete", "bounce") and arg in live:
            execution.delete(arg)
            live.discard(arg)
        if kind in ("insert", "bounce") and arg not in live:
            execution.insert(arg)
            live.add(arg)
    return execution


def _candidates(tuples):
    """Lists of replay requests; ``None`` drops the base in between."""
    change = st.one_of(
        st.builds(lambda t: Change(insert=t), tuples),
        st.builds(lambda t: Change(remove=[t]), tuples),
        st.builds(lambda t, r: Change(insert=t, remove=[r]), tuples, tuples),
    )
    request = st.tuples(
        st.lists(change, max_size=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    return st.lists(st.one_of(st.none(), request), min_size=1, max_size=8)


def _check(execution, requests):
    execution.fork_replays = True
    how = dict(lossless=True, engine=execution.engine_config,
               step_limit=execution.engine.steps * 10 + 10_000)
    for request in requests:
        if request is None:
            execution.drop_base()
            continue
        changes, anchor = request
        got = execution.replay(changes, anchor)
        want = replay(execution.program, execution.log, changes, anchor,
                      cache=None, **how)
        assert engine_state(got.engine, got.recorder) == engine_state(
            want.engine, want.recorder
        )
        assert query_views(got.engine) == query_views(want.engine)
        # The tree query inside the checkpoint (or on an owned bypass)
        # against the reference backend's eager projection.
        oracle = replay(execution.program, execution.log, changes, anchor,
                        cache=None, **dict(how, engine="reference"))
        assert_same_trees(got.graph, oracle.graph)
    if execution._base is not None:
        assert_base_is_pristine(execution)


edges = st.builds(_edge, reach.nodes, reach.nodes)

# A chain 0→1→2→3 whose middle edge is deleted, re-inserted, and deleted
# again *inside* the fork: underive cascades, closed and reopened EXIST
# intervals, dependents discarded and restored.
CHAIN = [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 3),
         ("delete", 1, 2), ("insert", 1, 2), ("delete", 1, 2)]
CASCADE = [
    ([Change(insert=_edge(3, 4))], 1),      # base at 1, suffix = all churn
    ([Change(remove=[_edge(2, 3)])], 5),    # fork at 2 (first mention)
    ([], None),
    ([Change(insert=_edge(0, 2), remove=[_edge(0, 1)])], 3),  # below: bypass
    None,
    ([Change(remove=[_edge(0, 1)])], 6),    # rebuilt at 0
    ([Change(insert=_edge(0, 3))], 2),
    None,
    # Rebuilt at 6, after reach(0, 2) and reach(0, 3) were derived: the
    # suffix retracts derivations that belong to the *base*.
    ([Change(insert=_edge(5, 5))], 6),
    ([], None),
]


class TestForkRollback:
    @settings(max_examples=60, deadline=None)
    @given(reach.edge_ops, _candidates(edges))
    @example(CHAIN, CASCADE)
    def test_revocable_recursion(self, ops, requests):
        _check(_reach_execution(ops), requests)

    @settings(max_examples=40, deadline=None)
    @given(selector.ops, _candidates(st.one_of(selector.flows, selector.ups)))
    @example(selector.BOUNCE, [
        ([Change(remove=[selector._flow(2, 2, 2)])], 2),
        ([Change(insert=selector._flow(2, 1, 3))], 4),
        ([], None),
    ])
    def test_argmax_selectors(self, script, requests):
        _check(_selector_execution(script), requests)
