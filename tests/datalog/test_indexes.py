"""The store query contract, served two ways.

``tuples`` / ``tuples_matching(_at)`` are one contract with two
implementations that share no lookup code: :class:`ColumnarStore`
(bisection-maintained views and equality indexes — the compiled
backend's store) and the plain :class:`Store` (a linear filter — the
reference oracle's).  Every contract test below runs against both: each
test class binds the indexed store, and its ``...Linear`` subclass
re-runs the same tests on the linear one.
"""

import pickle

import pytest

from repro.datalog import ColumnarStore, Engine, parse_program, parse_tuple
from repro.datalog.state import Store, sort_key
from repro.datalog.tuples import TableSchema, Tuple
from repro.errors import SchemaError


@pytest.fixture
def store(request):
    schemas = {"cfg": TableSchema("cfg", ["K", "V"])}
    store = request.cls.store_class(schemas)
    for index in range(10):
        store.add_base_support(Tuple("cfg", [f"k{index}", index]), index, True)
    return store


class TestEqualityIndex:
    store_class = ColumnarStore

    def test_matching_by_key(self, store):
        assert store.tuples_matching("cfg", 0, "k3") == [Tuple("cfg", ["k3", 3])]

    def test_matching_by_value_position(self, store):
        assert store.tuples_matching("cfg", 1, 7) == [Tuple("cfg", ["k7", 7])]

    def test_no_match(self, store):
        assert store.tuples_matching("cfg", 0, "nope") == []

    def test_index_tracks_insertions(self, store):
        store.tuples_matching("cfg", 0, "k0")  # build the index
        store.add_base_support(Tuple("cfg", ["k0", 99]), 100, True)
        assert store.tuples_matching("cfg", 0, "k0") == [
            Tuple("cfg", ["k0", 0]),
            Tuple("cfg", ["k0", 99]),
        ]

    def test_index_tracks_removals(self, store):
        store.tuples_matching("cfg", 0, "k2")  # build the index
        store.remove_base_support(Tuple("cfg", ["k2", 2]))
        assert store.tuples_matching("cfg", 0, "k2") == []

    def test_index_consistent_with_scan(self, store):
        store.tuples_matching("cfg", 0, "k1")
        store.add_base_support(Tuple("cfg", ["k1", 50]), 200, True)
        store.remove_base_support(Tuple("cfg", ["k1", 1]))
        scan = [t for t in store.tuples("cfg") if t.args[0] == "k1"]
        assert store.tuples_matching("cfg", 0, "k1") == scan

    def test_composite_positions(self, store):
        store.add_base_support(Tuple("cfg", ["k4", 40]), 400, True)
        assert store.tuples_matching_at("cfg", (0, 1), ("k4", 40)) == [
            Tuple("cfg", ["k4", 40])
        ]
        assert store.tuples_matching_at("cfg", (0, 1), ("k4", 5)) == []
        # A position past the arity matches nothing, on either store.
        assert store.tuples_matching_at("cfg", (2,), ("k4",)) == []

    def test_result_is_a_copy(self, store):
        store.tuples_matching("cfg", 0, "k5").clear()
        assert store.tuples_matching("cfg", 0, "k5") == [Tuple("cfg", ["k5", 5])]

    def test_unknown_table_is_a_schema_error(self, store):
        with pytest.raises(SchemaError):
            store.tuples_matching("nope", 0, 1)

    def test_survives_pickling(self, store):
        store.tuples_matching("cfg", 0, "k6")  # build whatever is cached
        restored = pickle.loads(pickle.dumps(store))
        restored.remove_base_support(Tuple("cfg", ["k6", 6]))
        assert restored.tuples_matching("cfg", 0, "k6") == []
        assert restored.tuples("cfg") == [
            t for t in store.tuples("cfg") if t.args[0] != "k6"
        ]


class TestEqualityIndexLinear(TestEqualityIndex):
    store_class = Store


class TestSortedCache:
    store_class = ColumnarStore

    def test_returned_list_is_a_copy(self, store):
        first = store.tuples("cfg")
        first.append(Tuple("cfg", ["fake", -1]))
        assert Tuple("cfg", ["fake", -1]) not in store.tuples("cfg")

    def test_cache_invalidated_on_change(self, store):
        before = store.tuples("cfg")
        store.add_base_support(Tuple("cfg", ["new", 1]), 300, True)
        after = store.tuples("cfg")
        assert len(after) == len(before) + 1
        assert after == sorted(after, key=sort_key)
        store.remove_base_support(Tuple("cfg", ["new", 1]))
        assert store.tuples("cfg") == before


class TestSortedCacheLinear(TestSortedCache):
    store_class = Store


class TestOneOwnerForIndexes:
    def test_only_the_columnar_store_holds_index_state(self):
        schemas = {"cfg": TableSchema("cfg", ["K", "V"])}
        linear, indexed = Store(schemas), ColumnarStore(schemas)
        assert not hasattr(linear, "_indexes")
        assert not hasattr(linear, "register_index")
        indexed.register_index("cfg", (0,))
        assert (0,) in indexed._indexes["cfg"]
        # Index buckets are a cache: dropped from snapshots, rebuilt lazily.
        assert pickle.loads(pickle.dumps(indexed))._indexes == {}


class TestIndexedJoinSemantics:
    """Indexed and scanned access paths must produce identical results."""

    PROGRAM = """
    table fact(K, V).
    table probe(K) event.
    table hit(K, V).
    r1 hit(K, V) :- probe(K), fact(K, V).
    """

    def test_indexed_join_matches_expectations(self):
        engine = Engine(parse_program(self.PROGRAM))
        for index in range(50):
            engine.insert(parse_tuple(f"fact('k{index % 5}', {index})"))
        engine.run()
        engine.insert_and_run(parse_tuple("probe('k2')"))
        hits = engine.lookup("hit")
        assert len(hits) == 10
        assert all(t.args[0] == "k2" for t in hits)

    def test_constant_atom_uses_index(self):
        program = parse_program(
            """
            table cfg(K, V).
            table ev(X) event.
            table out(X, V).
            r1 out(X, V) :- ev(X), cfg('special', V).
            """
        )
        engine = Engine(program)
        for index in range(30):
            engine.insert(parse_tuple(f"cfg('noise{index}', {index})"))
        engine.insert(parse_tuple("cfg('special', 42)"))
        engine.run()
        engine.insert_and_run(parse_tuple("ev(1)"))
        assert engine.lookup("out") == [parse_tuple("out(1, 42)")]
