"""Property-based tests for addresses, prefixes, and prefix widening."""

from hypothesis import example, given, strategies as st

from repro.addresses import IPv4Address, Prefix
from repro.core.repair import widen_prefix

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
prefixes = st.tuples(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
).map(lambda t: Prefix(IPv4Address(t[0]), t[1]))


class TestAddressProperties:
    @given(addresses)
    def test_string_roundtrip(self, addr):
        assert IPv4Address(str(addr)) == addr

    @given(addresses)
    @example(IPv4Address(0))
    @example(IPv4Address(0x09090909))
    @example(IPv4Address(0x0A0A0A0A))
    @example(IPv4Address(0x63636363))
    @example(IPv4Address(0x64646464))
    @example(IPv4Address(0xFFFFFFFF))
    def test_string_is_the_dotted_octets(self, addr):
        assert str(addr) == ".".join(str(octet) for octet in addr.octets())

    @given(addresses)
    def test_octets_recompose(self, addr):
        octets = addr.octets()
        value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        assert value == addr.value

    @given(addresses, addresses)
    def test_ordering_consistent_with_value(self, a, b):
        assert (a < b) == (a.value < b.value)


class TestPrefixProperties:
    @given(prefixes)
    def test_network_is_canonical(self, pfx):
        assert Prefix(pfx.network, pfx.length) == pfx

    @given(prefixes)
    def test_contains_own_network(self, pfx):
        assert pfx.contains(pfx.network)

    @given(prefixes, addresses)
    def test_contains_agrees_with_mask(self, pfx, addr):
        mask = 0 if pfx.length == 0 else (0xFFFFFFFF << (32 - pfx.length)) & 0xFFFFFFFF
        assert pfx.contains(addr) == ((addr.value & mask) == pfx.network.value)

    @given(prefixes)
    def test_subnets_partition(self, pfx):
        if pfx.length >= 32:
            return
        low, high = pfx.subnets()
        assert low.length == high.length == pfx.length + 1
        assert pfx.contains(low.network) and pfx.contains(high.network)
        assert not low.overlaps(high)

    @given(prefixes, prefixes)
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)


class TestWideningProperties:
    @given(prefixes, addresses)
    def test_widened_contains_both(self, pfx, addr):
        widened = widen_prefix(pfx, addr)
        assert widened.contains(addr)
        assert widened.contains(pfx.network)

    @given(prefixes, addresses)
    def test_widening_never_lengthens(self, pfx, addr):
        assert widen_prefix(pfx, addr).length <= pfx.length

    @given(prefixes, addresses)
    def test_widening_is_minimal(self, pfx, addr):
        widened = widen_prefix(pfx, addr)
        if widened.length == pfx.length or widened.length == 32:
            return
        # One bit longer must exclude one of the two anchors.
        tighter = Prefix(addr, widened.length + 1)
        assert not (tighter.contains(addr) and tighter.contains(pfx.network))

    @given(prefixes, addresses)
    def test_widening_idempotent(self, pfx, addr):
        widened = widen_prefix(pfx, addr)
        assert widen_prefix(widened, addr) == widened
