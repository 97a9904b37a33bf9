"""Flow tables with efficient OpenFlow best-match lookup.

The declarative engine's argmax selector is fine for nine-switch
scenarios, but the Section 6.7 network carries hundreds of thousands of
forwarding entries; the emulator therefore indexes each switch's table
by destination prefix, one hash map per prefix length, so a lookup
probes only the lengths in use instead of scanning every entry.
Semantics are identical to the declarative model: highest priority
wins, ties broken by combined prefix specificity, then by a stable
tuple order.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional, Set, Tuple as PyTuple

from ..addresses import IPv4Address, Prefix
from ..datalog.state import flat_key, order_key, sort_key
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..replay.log import estimate_size
from . import model

__all__ = ["FlowTable", "PrefixTrie"]


class PrefixTrie:
    """Prefixes mapped to values: per prefix length, one map from the
    network's leading ``length`` bits to its values, in insertion order."""

    def __init__(self):
        self._maps: Dict[int, Dict[int, List[object]]] = {}
        self._lengths: List[int] = []  # lengths in use, ascending
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, pfx: Prefix, value) -> None:
        networks = self._maps.get(pfx.length)
        if networks is None:
            networks = self._maps[pfx.length] = {}
            insort(self._lengths, pfx.length)
        bits = pfx.network.value >> (32 - pfx.length)
        networks.setdefault(bits, []).append(value)
        self._size += 1

    def remove(self, pfx: Prefix, value) -> bool:
        networks = self._maps.get(pfx.length, {})
        bits = pfx.network.value >> (32 - pfx.length)
        values = networks.get(bits, ())
        if value not in values:
            return False
        values.remove(value)
        if not values:
            del networks[bits]
            if not networks:
                del self._maps[pfx.length]
                self._lengths.remove(pfx.length)
        self._size -= 1
        return True

    def covering(self, addr: IPv4Address) -> Iterator[object]:
        """All values whose prefix contains the address, shorter
        prefixes first (a root-to-leaf walk's order)."""
        bits = addr.value
        for length in self._lengths:
            yield from self._maps[length].get(bits >> (32 - length), ())


class FlowTable:
    """One switch's flow entries, indexed by destination prefix.

    A table can be *forked* (:meth:`fork`): the child shares the
    parent's trie read-only and keeps its own overlay (locally
    installed entries plus a mask of removed parent entries).  Forking
    is O(1) regardless of table size, which is what makes per-candidate
    replays over the 757k-entry Stanford configuration affordable — a
    candidate change touches a handful of entries, so copying the other
    757k per replay was pure waste.  The parent must not be mutated
    while forks are alive (replays never mutate the base
    configuration).

    ``linear_scan=True`` disables the trie on lookup and scans every
    entry — the reference mode the equivalence tests compare against.
    """

    def __init__(self, switch: str, base: Optional["FlowTable"] = None):
        self.switch = switch
        self._trie = PrefixTrie()
        self._entries = set()
        # Copy-on-write parent and the mask of its entries this fork
        # has uninstalled.
        self._base = base
        self._removed = set()
        self.linear_scan = False if base is None else base.linear_scan
        # (src, dst) -> winning entry.  The emulator and the
        # reconstructor both ask best_match for every hop of every
        # packet, and application flows repeat the same pair thousands
        # of times; any mutation invalidates the memo.
        self._match_cache = {}

    def fork(self) -> "FlowTable":
        """An O(1) copy-on-write view of this table."""
        return FlowTable(self.switch, base=self)

    def __len__(self) -> int:
        size = len(self._entries)
        if self._base is not None:
            size += len(self._base) - len(self._removed)
        return size

    def __contains__(self, entry: Tuple) -> bool:
        if entry in self._entries:
            return True
        return (
            self._base is not None
            and entry not in self._removed
            and entry in self._base
        )

    def _iter_entries(self) -> Iterator[Tuple]:
        yield from self._entries
        if self._base is not None:
            for entry in self._base._iter_entries():
                if entry not in self._removed:
                    yield entry

    def entries(self) -> List[Tuple]:
        return sorted(self._iter_entries(), key=order_key)

    def sized_entries(self) -> Iterator[PyTuple[Tuple, int]]:
        """:meth:`entries`, each with its log size (``estimate_size``).

        Both come from the arguments' ``str()``, which is most of the
        cost of either: computed once, the strings serve both.
        """
        sizes = {}

        def key(entry):
            texts = [str(arg) for arg in entry.args]
            sizes[entry] = estimate_size(entry, texts)
            return flat_key(entry.args, texts)

        for entry in sorted(self._iter_entries(), key=key):
            yield entry, sizes.pop(entry)

    def delta(self, other: "FlowTable") -> Set[Tuple]:
        """Entries installed in exactly one of the two tables.

        Forks of one base differ only in their overlays (local entries
        are never parent entries, masks always are): O(changed entries).
        Unrelated tables are compared entry by entry.
        """
        if self._base is not None and self._base is other._base:
            return (self._entries ^ other._entries) | (
                self._removed ^ other._removed
            )
        return set(self._iter_entries()) ^ set(other._iter_entries())

    def install(self, entry: Tuple) -> bool:
        """Install a ``flowEntry`` tuple (as built by repro.sdn.model);
        False if the table already holds it."""
        if entry.table != "flowEntry" or entry.arity != 5:
            raise ReproError(f"not a flow entry: {entry}")
        if entry.args[0] != self.switch:
            raise ReproError(
                f"entry {entry} belongs to {entry.args[0]!r}, "
                f"not {self.switch!r}"
            )
        if entry in self:
            return False
        self._match_cache.clear()
        if entry in self._removed:
            # Reinstalling a masked parent entry just unmasks it.
            self._removed.discard(entry)
            return True
        self._entries.add(entry)
        self._trie.insert(entry.args[3], entry)
        return True

    def uninstall(self, entry: Tuple) -> bool:
        if entry in self._entries:
            self._match_cache.clear()
            self._entries.discard(entry)
            self._trie.remove(entry.args[3], entry)
            return True
        if (
            self._base is not None
            and entry not in self._removed
            and entry in self._base
        ):
            self._match_cache.clear()
            self._removed.add(entry)
            return True
        return False

    def _covering(self, dst: IPv4Address) -> Iterator[Tuple]:
        """Entries whose destination prefix contains ``dst``, overlay
        plus the (masked) parent chain."""
        yield from self._trie.covering(dst)
        if self._base is not None:
            for entry in self._base._covering(dst):
                if entry not in self._removed:
                    yield entry

    def best_match(self, src: IPv4Address, dst: IPv4Address) -> Optional[Tuple]:
        """The entry an OpenFlow switch would apply to this packet.

        Highest priority first; ties broken by combined prefix length,
        then by the stable tuple order — exactly the argmax selector of
        the declarative model, so engine and emulator always agree.
        The argmax is order-independent, so the trie path, the forked
        overlay chain, and the linear reference scan always agree too.
        """
        cache_key = (src.value, dst.value)
        try:
            return self._match_cache[cache_key]
        except KeyError:
            pass
        best = None
        best_key = None
        if self.linear_scan:
            candidates = (
                entry for entry in self._iter_entries()
                if entry.args[3].contains(dst)
            )
        else:
            candidates = self._covering(dst)
        for entry in candidates:
            _, priority, src_pfx, dst_pfx, _ = entry.args
            if not src_pfx.contains(src):
                continue
            key = (priority, src_pfx.length + dst_pfx.length, sort_key(entry))
            if best_key is None or key > best_key:
                best_key = key
                best = entry
        self._match_cache[cache_key] = best
        return best
