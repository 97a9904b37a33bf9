"""Property: the compiled argmax selector ≡ the reference interpreter's.

The forwarding rule of every SDN scenario (and DNS's ``answer``) joins a
non-trigger atom under an ``argmax<Prio, prefix_len(Pfx)>`` selector.
The compiled backend evaluates that step in a closure; the reference
interpreter's ``Engine._candidates`` is the definition: among the
candidates that match and settle, the maximum of ``(keys, sort_key)``.

Random churn of flow entries — equal-priority ties (same prefix, other
port), deleting and re-inserting the current winner, and a selector
atom that follows another joined atom — interleaved with packets must
leave both backends with the same tables, the same ordered derivation
sequence and the same provenance graph, vertex for vertex.
"""

from hypothesis import example, given, settings, strategies as st

from repro.addresses import IPv4Address, Prefix
from repro.datalog import BACKENDS, Engine, EngineConfig, parse_program
from repro.datalog.tuples import Tuple
from repro.provenance import ProvenanceRecorder

PROGRAM_TEXT = """
table pkt(Sw, Id, Dst) event.
table flow(Sw, Prio, Pfx, Port) mutable.
table up(Sw, Port) mutable.
table out(Sw, Id, Port).
table via(Sw, Id, Port, Prio).

// The fwd shape: selector on the first non-trigger atom.
fwd out(@S, I, Port) :- pkt(@S, I, Dst),
    flow(@S, Prio, Pfx, Port) argmax<Prio, prefix_len(Pfx)>,
    ip_in_prefix(Dst, Pfx) == true.

// Selector atom preceded by another joined atom: one argmax per live
// port, probed with Port already bound.
per via(@S, I, Port, Prio) :- pkt(@S, I, Dst), up(@S, Port),
    flow(@S, Prio, Pfx, Port) argmax<Prio, prefix_len(Pfx)>,
    ip_in_prefix(Dst, Pfx) == true.
"""

PREFIXES = [Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16"), Prefix("10.1.2.0/24")]
DESTINATIONS = [IPv4Address("10.1.2.3"), IPv4Address("10.1.9.9"),
                IPv4Address("10.200.0.1"), IPv4Address("192.168.0.1")]

flows = st.builds(
    lambda prio, pfx, port: Tuple("flow", ["s1", prio, pfx, port]),
    st.integers(min_value=1, max_value=2),
    st.sampled_from(PREFIXES),
    st.integers(min_value=1, max_value=3),
)
ups = st.builds(
    lambda port: Tuple("up", ["s1", port]), st.integers(min_value=1, max_value=3)
)
ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "delete", "bounce"]),
                  st.one_of(flows, ups)),
        st.tuples(st.just("packet"), st.sampled_from(DESTINATIONS)),
    ),
    min_size=1,
    max_size=30,
)


def _flow(prio, pfx, port):
    return Tuple("flow", ["s1", prio, PREFIXES[pfx], port])


def _run(backend, script):
    config = EngineConfig.coerce(backend)
    recorder = ProvenanceRecorder(provenance=config.provenance)
    engine = Engine(parse_program(PROGRAM_TEXT), recorder=recorder,
                    config=config)
    live = set()
    packets = 0
    for kind, arg in script:
        if kind == "packet":
            packets += 1
            engine.insert_and_run(Tuple("pkt", ["s1", packets, arg]))
            continue
        if kind in ("delete", "bounce") and arg in live:
            engine.delete(arg)
            engine.run()
            live.discard(arg)
        if kind in ("insert", "bounce") and arg not in live:
            engine.insert_and_run(arg)
            live.add(arg)
    return engine, recorder.graph


def _observables(engine, graph):
    tables = {
        table: engine.lookup(table) for table in sorted(engine.program.schemas)
    }
    derivations = [
        (info.rule_name, info.head, info.body, sorted(info.env.items(), key=str))
        for _, info in sorted(graph.derivations.items())
    ]
    vertices = [
        (v.id, v.kind, v.node, v.tuple, v.time, v.end_time, v.rule,
         v.derivation_id, v.mutable, [c.id for c in graph.children(v)])
        for v in graph.vertices
    ]
    return tables, derivations, vertices


TIE = [
    # Same priority, same prefix, two ports: an exact key tie that only
    # sort_key(candidate) separates.
    ("insert", _flow(2, 1, 1)), ("insert", _flow(2, 1, 3)),
    ("insert", _flow(2, 1, 2)), ("packet", DESTINATIONS[0]),
]
BOUNCE = [
    # Delete and re-insert the current winner between packets.
    ("insert", _flow(1, 0, 1)), ("insert", _flow(2, 2, 2)),
    ("packet", DESTINATIONS[0]), ("bounce", _flow(2, 2, 2)),
    ("packet", DESTINATIONS[0]), ("delete", _flow(2, 2, 2)),
    ("packet", DESTINATIONS[0]),
]
PRECEDED = [
    # The selector runs once per live port, after up(S, Port) bound it.
    ("insert", Tuple("up", ["s1", 1])), ("insert", Tuple("up", ["s1", 2])),
    ("insert", _flow(1, 0, 1)), ("insert", _flow(2, 1, 1)),
    ("insert", _flow(2, 0, 2)), ("insert", _flow(1, 2, 2)),
    ("packet", DESTINATIONS[0]), ("packet", DESTINATIONS[2]),
]


class TestCompiledSelector:
    @settings(max_examples=60, deadline=None)
    @given(ops)
    @example(TIE)
    @example(BOUNCE)
    @example(PRECEDED)
    def test_compiled_equals_reference(self, script):
        results = {
            backend: _observables(*_run(backend, script)) for backend in BACKENDS
        }
        reference = results.pop("reference")
        for backend, observed in results.items():
            for mine, theirs in zip(observed, reference):
                assert mine == theirs, backend

    def test_tie_is_broken_by_the_candidate_order(self):
        # Pins the definition itself, so the property above cannot pass
        # by both backends agreeing on a different rule: among equal
        # keys the greatest sort_key wins (port 3 here).
        for backend in BACKENDS:
            engine, _ = _run(backend, TIE)
            assert engine.lookup("out") == [Tuple("out", ["s1", 1, 3])], backend

    def test_the_selector_rules_were_compiled(self):
        engine, _ = _run("compiled", PRECEDED)
        assert {("fwd", 0), ("per", 0)} <= set(engine._compiled_plans)
        assert None not in engine._compiled_plans.values()
