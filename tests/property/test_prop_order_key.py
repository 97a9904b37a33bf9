"""Property tests: the flat ``order_key`` string orders tuples exactly
like the nested ``((type name, str), ...)`` key it replaced."""

from hypothesis import example, given, strategies as st

from repro.addresses import IPv4Address, Prefix
from repro.datalog.state import flat_key, order_key, sort_key
from repro.datalog.tuples import Tuple


def nested_key(values):
    """The replaced key, kept here only as the oracle."""
    return tuple((type(v).__name__, str(v)) for v in values)


def sign(x, y) -> int:
    return (x > y) - (x < y)


# Strings built from the escape alphabet hit NUL, \x01 and \x02 in
# every position; the general text strategy covers the rest.
texts = st.text(st.sampled_from("\x00\x01\x02a")) | st.text()
addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
prefixes = st.tuples(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
).map(lambda t: Prefix(IPv4Address(t[0]), t[1]))
values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    texts,
    addresses,
    prefixes,
)
arg_lists = st.lists(values, max_size=5)
tuples = arg_lists.map(lambda args: Tuple("t", args))


class TestFlatKeyMatchesNestedKey:
    @given(arg_lists, arg_lists)
    @example([], [])
    @example([], [""])
    @example(["a"], ["a", ""])
    @example(["a"], ["a\x00"])
    @example(["a\x00"], ["a\x01"])
    @example(["a\x01"], ["a\x02"])
    @example(["a\x00b"], ["a", "b"])
    @example(["", "a"], ["\x00a"])
    @example([True], [1])
    @example([False], [0])
    @example([-1], [1])
    @example([-10], [-9])
    @example([IPv4Address("10.0.0.1")], [Prefix("10.0.0.1/32")])
    def test_same_order_and_equality(self, a, b):
        assert sign(flat_key(a), flat_key(b)) == sign(nested_key(a), nested_key(b))

    @given(st.lists(tuples, max_size=12))
    def test_sorts_identically(self, tups):
        oracle = sorted(tups, key=lambda t: nested_key(t.args))
        assert sorted(tups, key=order_key) == oracle

    @given(tuples)
    def test_cached_key_is_the_order_key(self, tup):
        assert sort_key(tup) == order_key(tup) == flat_key(tup.args)
        assert tup._sort_key == order_key(tup)

    @given(st.lists(values, max_size=5))
    def test_escaped_pieces_never_contain_the_separator(self, args):
        key = flat_key(args)
        assert key.count("\x00") == max(2 * len(args) - 1, 0)
