"""IPv4 addresses and prefixes.

These are deliberately small, int-backed, hashable value types: datalog
tuples embed them directly, and the engine compares millions of them
during trace replay, so they avoid the overhead and mutability pitfalls
of richer representations.
"""

from __future__ import annotations

from functools import total_ordering

from .errors import SchemaError

__all__ = ["IPv4Address", "Prefix", "ip", "prefix"]


@total_ordering
class IPv4Address:
    """An IPv4 address backed by a 32-bit integer."""

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise SchemaError(f"IPv4 address out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted(value)
        else:
            raise SchemaError(f"cannot build IPv4Address from {value!r}")

    @property
    def value(self) -> int:
        return self._value

    def octets(self) -> tuple:
        v = self._value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def last_octet(self) -> int:
        return self._value & 0xFF

    def __eq__(self, other):
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self):
        return hash(("IPv4Address", self._value))

    def __str__(self):
        v = self._value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self):
        return f"IPv4Address('{self}')"


@total_ordering
class Prefix:
    """An IPv4 prefix (network address + mask length)."""

    __slots__ = ("_network", "_length")

    def __init__(self, network, length: int | None = None):
        if isinstance(network, Prefix) and length is None:
            self._network = network._network
            self._length = network._length
            return
        if isinstance(network, str) and length is None:
            if "/" not in network:
                raise SchemaError(f"prefix needs a /length: {network!r}")
            addr, _, ln = network.partition("/")
            network, length = IPv4Address(addr), int(ln)
        if not isinstance(network, IPv4Address):
            network = IPv4Address(network)
        if length is None or not 0 <= int(length) <= 32:
            raise SchemaError(f"bad prefix length: {length!r}")
        length = int(length)
        self._network = IPv4Address(network.value & _mask(length))
        self._length = length

    @property
    def network(self) -> IPv4Address:
        return self._network

    @property
    def length(self) -> int:
        return self._length

    def contains(self, addr) -> bool:
        if not isinstance(addr, IPv4Address):
            addr = IPv4Address(addr)
        return (addr._value & _mask(self._length)) == self._network._value

    def overlaps(self, other: "Prefix") -> bool:
        shorter = self if self._length <= other._length else other
        longer = other if shorter is self else self
        return shorter.contains(longer.network)

    def subnets(self):
        """Split into the two /(length+1) halves."""
        if self._length >= 32:
            raise SchemaError("cannot split a /32")
        half = 1 << (31 - self._length)
        return (
            Prefix(self._network, self._length + 1),
            Prefix(IPv4Address(self._network.value | half), self._length + 1),
        )

    def host(self, index: int) -> IPv4Address:
        """The index-th host address inside this prefix."""
        size = 1 << (32 - self._length)
        if not 0 <= index < size:
            raise SchemaError(f"host index {index} outside /{self._length}")
        return IPv4Address(self._network.value + index)

    def __eq__(self, other):
        if isinstance(other, Prefix):
            return (self._network, self._length) == (other._network, other._length)
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Prefix):
            return (self._network, self._length) < (other._network, other._length)
        return NotImplemented

    def __hash__(self):
        return hash(("Prefix", self._network, self._length))

    def __str__(self):
        return f"{self._network}/{self._length}"

    def __repr__(self):
        return f"Prefix('{self}')"


def ip(value) -> IPv4Address:
    """Shorthand constructor: ``ip('10.0.0.1')``."""
    return IPv4Address(value)


def prefix(value, length: int | None = None) -> Prefix:
    """Shorthand constructor: ``prefix('10.0.0.0/8')``.  A ``Prefix``
    comes back as is: prefixes are immutable, so sharing one is free."""
    if isinstance(value, Prefix) and length is None:
        return value
    return Prefix(value, length)


def _parse_dotted(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise SchemaError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError:
            raise SchemaError(f"malformed IPv4 address: {text!r}") from None
        if not 0 <= octet <= 255:
            raise SchemaError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _mask(length: int) -> int:
    return 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
