"""Black-box switch emulation with external-specification provenance.

This is the Mininet/Open vSwitch stand-in for the complex-network
scenario (Section 6.7).  The primary system is a plain packet
forwarder: switches hold :class:`~repro.sdn.flowtable.FlowTable`\\ s,
packets hop along links, and every event is captured in a pcap-like
trace.  The system reports nothing about *why* it forwarded a packet.

Provenance is instead reconstructed by
:class:`ExternalSpecReconstructor` from (a) the captured traces, (b)
the switch configurations, and (c) an external specification of
OpenFlow's match-action behaviour — the same best-match function the
spec says a switch must apply.  The reconstructed derivations use the
rule vocabulary of the declarative model, and
:class:`EmulatedNetworkExecution` is a
:class:`~repro.replay.substrate.Substrate`, so DiffProv reasons about
emulated networks exactly as it does about engine-run ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

from ..addresses import IPv4Address
from ..datalog.config import EngineConfig
from ..datalog.state import sort_key
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..faults import FaultInjector
from ..provenance.graph import ProvenanceGraph
from ..provenance.recorder import ProvenanceRecorder
from ..replay.log import PACKET_RECORD_BYTES, EventLog
from ..replay.replayer import Change
from ..replay.substrate import StoreRecord, Substrate
from . import model
from .flowtable import FlowTable
from .topology import Topology

__all__ = [
    "NetworkConfig",
    "TraceEvent",
    "EmulatedNetwork",
    "ExternalSpecReconstructor",
    "EmulatedNetworkExecution",
]

_TTL = 64


class NetworkConfig:
    """The data-plane configuration: flow tables, groups, wiring."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.tables: Dict[str, FlowTable] = {
            switch: FlowTable(switch) for switch in topology.switches()
        }
        self.groups: Dict[PyTuple[str, int], List[int]] = {}
        self._group_tuples: Set[Tuple] = set()

    def install(self, tup: Tuple) -> None:
        if tup.table == "flowEntry":
            self.tables[tup.args[0]].install(tup)
        elif tup.table == "groupEntry":
            switch, group_id, port = tup.args
            ports = self.groups.setdefault((switch, group_id), [])
            if port not in ports:
                ports.append(port)
                ports.sort()
            self._group_tuples.add(tup)
        else:
            raise ReproError(f"cannot install {tup} into the data plane")

    def uninstall(self, tup: Tuple) -> None:
        if tup.table == "flowEntry":
            self.tables[tup.args[0]].uninstall(tup)
        elif tup.table == "groupEntry":
            switch, group_id, port = tup.args
            ports = self.groups.get((switch, group_id), [])
            if port in ports:
                ports.remove(port)
            self._group_tuples.discard(tup)
        else:
            raise ReproError(f"cannot uninstall {tup}")

    def apply_changes(self, changes: Iterable[Change]) -> None:
        for change in changes:
            for removed in change.remove:
                self.uninstall(removed)
            if change.insert is not None:
                self.install(change.insert)

    def clone(self) -> "NetworkConfig":
        copy = NetworkConfig(self.topology)
        # Unsorted: best_match's argmax does not depend on table order,
        # and entries() sorts on read.
        for switch, table in self.tables.items():
            for entry in table._iter_entries():
                copy.install(entry)
        # group_tuples() sorts; iterating the raw set here would seed the
        # clone in hash order, which varies across processes.
        for tup in self.group_tuples():
            copy.install(tup)
        return copy

    def fork(self) -> "NetworkConfig":
        """An O(switches) copy-on-write view of this configuration.

        Flow tables are forked (:meth:`FlowTable.fork`), so the 757k
        shared entries are never copied — only the handful a candidate
        change touches land in the fork's overlays.  Groups and wiring
        are small and copied outright.  The base configuration must not
        be mutated while forks are alive; replays never do.
        """
        copy = NetworkConfig.__new__(NetworkConfig)
        copy.topology = self.topology
        copy.tables = {
            switch: table.fork() for switch, table in self.tables.items()
        }
        copy.groups = {
            key: list(ports) for key, ports in self.groups.items()
        }
        copy._group_tuples = set(self._group_tuples)
        return copy

    def delta(self, other: "NetworkConfig") -> Set[Tuple]:
        """Tuples installed in exactly one of two configurations of one
        topology — O(changed entries) between forks of the same base."""
        changed = self._group_tuples ^ other._group_tuples
        for switch, table in self.tables.items():
            changed |= table.delta(other.tables[switch])
        return changed

    def has_tuple(self, tup: Tuple) -> bool:
        """O(1) membership for installable (flow/group) tuples."""
        if tup.table == "flowEntry":
            table = self.tables.get(tup.args[0])
            return table is not None and tup in table
        if tup.table == "groupEntry":
            return tup in self._group_tuples
        return False

    def iter_flow_entries(self) -> Iterable[Tuple]:
        """Stream every flow entry (switches in sorted order).

        Avoids materializing the combined entry list — at full scale
        that is a 757k-element list — while each switch's own sorted
        view stays a transient per-table buffer.
        """
        for switch in sorted(self.tables):
            yield from self.tables[switch].entries()

    def flow_entries(self) -> List[Tuple]:
        return list(self.iter_flow_entries())

    def group_tuples(self) -> List[Tuple]:
        return sorted(self._group_tuples, key=sort_key)

    def total_entries(self) -> int:
        return sum(len(table) for table in self.tables.values())


class TraceEvent:
    """One pcap-like record: a packet seen at a switch."""

    __slots__ = ("kind", "switch", "pkt", "src", "dst", "port", "time")

    def __init__(self, kind, switch, pkt, src, dst, port, time):
        self.kind = kind  # 'in' | 'out' | 'deliver' | 'drop' | 'lost'
        self.switch = switch
        self.pkt = pkt
        self.src = src
        self.dst = dst
        self.port = port
        self.time = time

    def __repr__(self):
        return (
            f"TraceEvent({self.kind} pkt={self.pkt} @{self.switch}"
            f"{f':{self.port}' if self.port is not None else ''} t={self.time})"
        )


class EmulatedNetwork:
    """The primary system: a deterministic hop-by-hop packet forwarder.

    An optional :class:`~repro.faults.FaultInjector` adds switch
    crash-restart windows and link flaps/loss: a packet reaching a
    crashed switch, or traversing a downed link, records a ``lost``
    trace event (which the reconstructor ignores) instead of
    progressing.  Times passed to the injector are trace-clock ticks.
    """

    def __init__(self, config: NetworkConfig, faults=None):
        self.config = config
        self.faults = faults
        self.traces: List[TraceEvent] = []
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def inject(self, switch: str, pkt: int, src, dst) -> None:
        """Inject a packet at an ingress switch and forward it to rest."""
        src = IPv4Address(src)
        dst = IPv4Address(dst)
        worklist = [(switch, _TTL)]
        while worklist:
            here, ttl = worklist.pop(0)
            if self.faults is not None and not self.faults.switch_alive(
                here, self._clock + 1
            ):
                self.traces.append(
                    TraceEvent("lost", here, pkt, src, dst, None, self._tick())
                )
                continue
            self.traces.append(
                TraceEvent("in", here, pkt, src, dst, None, self._tick())
            )
            if ttl <= 0:
                self.traces.append(
                    TraceEvent("drop", here, pkt, src, dst, None, self._tick())
                )
                continue
            entry = self.config.tables[here].best_match(src, dst)
            if entry is None:
                self.traces.append(
                    TraceEvent("drop", here, pkt, src, dst, None, self._tick())
                )
                continue
            action = entry.args[4]
            if action >= 0:
                ports = [action]
            else:
                ports = self.config.groups.get((here, action), [])
            if not ports:
                self.traces.append(
                    TraceEvent("drop", here, pkt, src, dst, None, self._tick())
                )
                continue
            for port in ports:
                if self.faults is not None and not self.faults.link_up(
                    here, port, self._clock + 1
                ):
                    self.traces.append(
                        TraceEvent(
                            "lost", here, pkt, src, dst, port, self._tick()
                        )
                    )
                    continue
                self.traces.append(
                    TraceEvent("out", here, pkt, src, dst, port, self._tick())
                )
                neighbor = self._neighbor_on(here, port)
                if neighbor is None:
                    self.traces.append(
                        TraceEvent("drop", here, pkt, src, dst, port, self._tick())
                    )
                elif self.config.topology.is_host(neighbor):
                    self.traces.append(
                        TraceEvent(
                            "deliver", here, pkt, src, dst, port, self._tick()
                        )
                    )
                else:
                    worklist.append((neighbor, ttl - 1))

    def _neighbor_on(self, switch: str, port: int) -> Optional[str]:
        for neighbor in self.config.topology.neighbors(switch):
            if self.config.topology.port(switch, neighbor) == port:
                return neighbor
        return None


class ExternalSpecReconstructor:
    """Rebuilds provenance from traces + configuration + the OpenFlow spec.

    The emulator is a black box; the reconstructor re-derives *why* each
    trace event happened by applying the specification (best-match over
    the configured tables) to each packet arrival, and reports the
    resulting derivations.  Base tuples (wiring, flow entries) are
    reported lazily, the first time a derivation depends on them, which
    keeps the graph proportional to the traffic rather than to the
    757k-entry configuration.
    """

    def __init__(self, config: NetworkConfig, faults=None):
        self.config = config
        self.recorder = ProvenanceRecorder(faults=faults)
        self._reported: Set[Tuple] = set()
        self._injected: Set[PyTuple] = set()

    @property
    def graph(self) -> ProvenanceGraph:
        return self.recorder.graph

    def reconstruct(self, traces: Sequence[TraceEvent], injected: Set[int],
                    deadline=None):
        """Consume a trace, building the provenance graph; ``deadline``
        is checked every 64 events."""
        for index, event in enumerate(traces):
            if deadline is not None and not index & 63:
                deadline.check("emulator.replay")
            if event.kind == "in":
                self._on_arrival(event, injected)
            elif event.kind == "out":
                self._on_out(event)
            elif event.kind == "deliver":
                self._on_deliver(event)
            elif event.kind == "drop":
                self._on_drop(event)
            # 'lost' events (crashed switch, downed link) leave no
            # provenance: the packet's causal chain simply truncates.
        return self.recorder

    # -- spec application -----------------------------------------------------

    def _packet_tuple(self, event: TraceEvent) -> Tuple:
        return model.packet(event.switch, event.pkt, event.src, event.dst)

    def _on_arrival(self, event: TraceEvent, injected: Set[int]) -> None:
        pkt_tuple = self._packet_tuple(event)
        if (event.pkt, event.switch) not in self._injected:
            if event.pkt in injected and not self.graph.appears_of(pkt_tuple):
                # An external input: the immutable base event.
                self.recorder.report_insert(
                    event.switch, pkt_tuple, mutable=False
                )
                self._injected.add((event.pkt, event.switch))
        # The spec says which entry the switch must have applied.
        entry = self.config.tables[event.switch].best_match(event.src, event.dst)
        if entry is None:
            return
        self._ensure_base(entry, mutable=True)
        action = entry.args[4]
        action_out = Tuple(
            "actionOut",
            [event.switch, event.pkt, event.src, event.dst, action],
        )
        if self.graph.latest_open_exist(action_out) is None:
            self.recorder.report_derive(
                event.switch,
                action_out,
                "fwd",
                [pkt_tuple, entry],
                env={
                    "S": event.switch,
                    "P": event.pkt,
                    "Src": event.src,
                    "Dst": event.dst,
                    "Prio": entry.args[1],
                    "SrcPfx": entry.args[2],
                    "DstPfx": entry.args[3],
                    "Action": action,
                },
                trigger_index=0,
            )

    def _on_out(self, event: TraceEvent) -> None:
        switch = event.switch
        entry = self.config.tables[switch].best_match(event.src, event.dst)
        if entry is None:
            return
        action = entry.args[4]
        action_out = Tuple(
            "actionOut", [switch, event.pkt, event.src, event.dst, action]
        )
        packet_out = Tuple(
            "packetOut", [switch, event.pkt, event.src, event.dst, event.port]
        )
        env = {
            "S": switch,
            "P": event.pkt,
            "Src": event.src,
            "Dst": event.dst,
            "Action": action,
            "Port": event.port,
        }
        if action >= 0:
            self.recorder.report_derive(
                switch, packet_out, "out", [action_out], env=env, trigger_index=0
            )
        else:
            group_tuple = model.group_entry(switch, action, event.port)
            self._ensure_base(group_tuple, mutable=True)
            self.recorder.report_derive(
                switch,
                packet_out,
                "outg",
                [action_out, group_tuple],
                env=env,
                trigger_index=0,
            )
        neighbor = self._neighbor_on(switch, event.port)
        if neighbor is not None and self.config.topology.is_switch(neighbor):
            link_tuple = model.link(switch, event.port, neighbor)
            self._ensure_base(link_tuple, mutable=False)
            moved = model.packet(neighbor, event.pkt, event.src, event.dst)
            self.recorder.report_derive(
                neighbor,
                moved,
                "move",
                [packet_out, link_tuple],
                env={
                    "S": switch,
                    "P": event.pkt,
                    "Src": event.src,
                    "Dst": event.dst,
                    "Port": event.port,
                    "N": neighbor,
                },
                trigger_index=0,
            )

    def _on_deliver(self, event: TraceEvent) -> None:
        switch = event.switch
        host = self._neighbor_on(switch, event.port)
        if host is None:
            return
        host_tuple = model.host_at(switch, event.port, host)
        self._ensure_base(host_tuple, mutable=False)
        packet_out = Tuple(
            "packetOut", [switch, event.pkt, event.src, event.dst, event.port]
        )
        delivered = model.delivered(host, event.pkt, event.src, event.dst)
        self.recorder.report_derive(
            host,
            delivered,
            "recv",
            [packet_out, host_tuple],
            env={
                "S": switch,
                "P": event.pkt,
                "Src": event.src,
                "Dst": event.dst,
                "Port": event.port,
                "H": host,
            },
            trigger_index=0,
        )

    def _on_drop(self, event: TraceEvent) -> None:
        pkt_tuple = self._packet_tuple(event)
        dropped = Tuple(
            "dropped", [event.switch, event.pkt, event.src, event.dst]
        )
        entry = self.config.tables[event.switch].best_match(event.src, event.dst)
        if entry is not None:
            self._ensure_base(entry, mutable=True)
            body = [pkt_tuple, entry]
            rule = "drp"
        else:
            body = [pkt_tuple]
            rule = "nomatch"
        self.recorder.report_derive(
            event.switch, dropped, rule, body, trigger_index=0
        )

    def _ensure_base(self, tup: Tuple, mutable: bool) -> None:
        if tup in self._reported:
            return
        node = str(tup.args[0])
        self.recorder.report_insert(node, tup, mutable=mutable)
        self._reported.add(tup)

    def _neighbor_on(self, switch: str, port: int) -> Optional[str]:
        for neighbor in self.config.topology.neighbors(switch):
            if self.config.topology.port(switch, neighbor) == port:
                return neighbor
        return None


class _ConfigStoreView:
    """The store of an emulated replay: the live data-plane configuration.

    Lets DiffProv's competitor/blocker searches see the *whole*
    configuration without materializing 757k base-tuple vertexes in the
    provenance graph.  The configuration is static for the lifetime of
    a replay result, so table listings and equality projections are
    cached, and membership goes straight to the flow tables' hash sets
    — the old per-call ``set(tuples(table))`` rebuild was O(n) per
    *lookup* at full scale.
    """

    # The configuration alone: what the traffic derived lives only in
    # the reconstructed graph.
    base_only = True
    _MUTABLE_TABLES = {"flowEntry", "groupEntry"}
    # Every tuple this store knows is a live base tuple.
    _RECORDS = (StoreRecord(True, False), StoreRecord(True, True))

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._tuples_cache: Dict[str, List[Tuple]] = {}
        self._wiring: Optional[Set[Tuple]] = None
        # (table, position) -> value -> sorted tuples, built on demand
        # for DiffProv's narrowed candidate searches.
        self._projections: Dict[PyTuple[str, int], Dict] = {}
        # switch -> sorted flow entries (the hot flowEntry/switch case).
        self._per_switch: Dict[object, List[Tuple]] = {}

    def tuples(self, table: str) -> List[Tuple]:
        cached = self._tuples_cache.get(table)
        if cached is None:
            if table == "flowEntry":
                cached = self.config.flow_entries()
            elif table == "groupEntry":
                cached = self.config.group_tuples()
            elif table in ("link", "hostAt"):
                cached = [
                    t for t in self.config.topology.wiring_tuples()
                    if t.table == table
                ]
            else:
                cached = []
            self._tuples_cache[table] = cached
        return cached

    def tuples_matching(self, table: str, position: int, value) -> List[Tuple]:
        """Equality projection, same contract as ``Store.tuples_matching``."""
        if table == "flowEntry" and position == 0:
            # DiffProv's candidate searches always pin the switch; the
            # per-switch flow table *is* that bucket, so serve it
            # directly instead of projecting all 757k entries once.
            bucket = self._per_switch.get(value)
            if bucket is None:
                flow_table = self.config.tables.get(value)
                bucket = [] if flow_table is None else flow_table.entries()
                self._per_switch[value] = bucket
            return list(bucket)
        projection = self._projections.get((table, position))
        if projection is None:
            projection = {}
            # tuples() is sorted, so every bucket is too.
            for tup in self.tuples(table):
                if position < tup.arity:
                    projection.setdefault(tup.args[position], []).append(tup)
            self._projections[(table, position)] = projection
        return list(projection.get(value, ()))

    def tuples_covering(
        self, table: str, location, position: int, address
    ) -> Optional[List[Tuple]]:
        """The ``tuples_matching(table, 0, location)`` bucket narrowed to
        the tuples whose prefix at ``position`` contains ``address``,
        read off the switch's prefix trie (overlay and mask included).
        None — no index — for all but ``flowEntry`` destination
        prefixes, and for ``linear_scan`` (reference backend) tables.
        """
        flow_table = self.config.tables.get(location)
        if (table != "flowEntry" or position != 3 or flow_table is None
                or flow_table.linear_scan):
            return None
        return sorted(flow_table._covering(address), key=sort_key)

    def delta(self, other: "_ConfigStoreView") -> Set[Tuple]:
        """Tuples live in exactly one of two views (the wiring is shared)."""
        return self.config.delta(other.config)

    def contains(self, tup: Tuple) -> bool:
        if tup.table in ("flowEntry", "groupEntry"):
            return self.config.has_tuple(tup)
        if tup.table in ("link", "hostAt"):
            if self._wiring is None:
                self._wiring = set(self.config.topology.wiring_tuples())
            return tup in self._wiring
        return False

    def record(self, tup: Tuple) -> Optional[StoreRecord]:
        if not self.contains(tup):
            return None
        return self._RECORDS[tup.table in self._MUTABLE_TABLES]

    def is_mutable(self, tup: Tuple) -> bool:
        return tup.table in self._MUTABLE_TABLES


class _EmulationGraphView:
    """Provenance graph that also knows the configuration is alive.

    Base tuples are reported lazily (only when used), so existence
    checks fall back to the configuration for config/wiring tables.
    """

    def __init__(self, graph: ProvenanceGraph, store_view: _ConfigStoreView):
        self._graph = graph
        self._store_view = store_view

    def __getattr__(self, name):
        return getattr(self._graph, name)

    # The emulated configuration is static for a run, so an entry
    # present in it exists at every instant.
    def alive_during(self, tup: Tuple, from_time: int) -> bool:
        return (self._graph.alive_during(tup, from_time)
                or self._store_view.contains(tup))

    def alive_at(self, tup: Tuple, time: int) -> bool:
        return self._graph.alive_at(tup, time) or self._store_view.contains(tup)


class EmulationReplayResult:
    """Replay result over the emulator: graph view + config store."""

    def __init__(self, recorder: ProvenanceRecorder, config: NetworkConfig):
        self.recorder = recorder
        self.store = _ConfigStoreView(config)
        self.graph = _EmulationGraphView(recorder.graph, self.store)

    def alive(self, tup: Tuple) -> bool:
        return self.graph.alive_during(tup, 0)


class EmulatedNetworkExecution(Substrate):
    """A logged emulator run, replayable with base-tuple changes.

    The substrate of provenance inferred from traces by an external
    specification (:mod:`repro.replay.substrate`): the log anchors the
    bad seed, and each UPDATETREE replays the packet schedule against
    a cloned, modified configuration, checking the run's deadline
    between injected packets and while reconstructing their trace.
    """

    def __init__(
        self,
        name: str,
        config: NetworkConfig,
        schedule: Sequence[PyTuple[str, int, object, object]],
        faults=None,
        engine: Optional[EngineConfig] = None,
    ):
        self.base_config = config
        self.schedule = list(schedule)
        # Backend selection maps onto how each replay obtains its
        # configuration copy: compiled forks (O(1) copy-on-write),
        # reference clones and linear-scans lookups.
        super().__init__(name, self._build_log(), engine=engine, faults=faults)

    def _build_log(self) -> EventLog:
        log = EventLog()
        for tup in self.base_config.topology.wiring_tuples():
            log.append("insert", tup, mutable=False)
        # Streamed table by table: at full scale the combined entry
        # list would be 757k long, while one switch's sorted view stays
        # a transient buffer.
        tables = self.base_config.tables
        for switch in sorted(tables):
            for tup, size in tables[switch].sized_entries():
                log.append("insert", tup, mutable=True, size=size)
        for tup in self.base_config.group_tuples():
            log.append("insert", tup, mutable=True)
        for switch, pkt, src, dst in self.schedule:
            log.append(
                "insert",
                model.packet(switch, pkt, src, dst),
                mutable=False,
                size=PACKET_RECORD_BYTES,
            )
        return log

    def _replay(self, changes, anchor_index, lossless) -> EmulationReplayResult:
        if self.engine_config.backend == "compiled":
            # O(1) copy-on-write: the shared entries are never copied,
            # only the handful the candidate changes touch.
            config = self.base_config.fork()
        else:
            config = self.base_config.clone()
            for table in config.tables.values():
                table.linear_scan = True
        config.apply_changes(changes)
        if self.fault_plan is not None:
            network_faults = FaultInjector(self.fault_plan, "network")
            logging_faults = (
                None
                if lossless
                else FaultInjector(self.fault_plan, "prov-loss")
            )
        else:
            network_faults = logging_faults = None
        network = EmulatedNetwork(config, faults=network_faults)
        deadline = self.deadline
        injected = set()
        for switch, pkt, src, dst in self.schedule:
            if deadline is not None:
                deadline.check("emulator.replay")
            injected.add(pkt)
            network.inject(switch, pkt, src, dst)
        reconstructor = ExternalSpecReconstructor(config, faults=logging_faults)
        recorder = reconstructor.reconstruct(network.traces, injected, deadline)
        return EmulationReplayResult(recorder, config)

    def __repr__(self):
        return (
            f"EmulatedNetworkExecution({self.name!r}, "
            f"{self.base_config.total_entries()} entries, "
            f"{len(self.schedule)} packets)"
        )
