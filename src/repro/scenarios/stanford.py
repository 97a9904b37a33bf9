"""The complex-network scenario of Section 6.7.

A Stanford-backbone-like campus network: 14 Operational Zone (OZ)
routers and 2 backbone routers in a tree-like topology, configured with
generated forwarding entries and ACL rules (757k entries / 1.5k ACLs at
full scale; the default is scaled down to stay laptop-friendly — pass
``full_scale=True`` to a benchmark run for the paper's numbers).

The reproduced fault is ATPG's "Forwarding Error": an entry on S2 (here
``oz2``) drops packets to 172.20.10.32/27, H2's subnet.  On top of it:

- **20 additional faulty rules** — 10 on the H1→H2 path, 10 on other
  routers — none causally related to the queried packet;
- **background traffic** — an HTTP client, a bulk file download, an
  NFS crawl, and a replayed synthetic backbone trace.

The network runs on the black-box emulator; provenance comes from the
external-specification reconstructor.  The reference event is a packet
from H1 to the co-located subnet 172.19.254.0/24, which shares oz2's
aggregate route with H2's subnet.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple as PyTuple

from ..addresses import IPv4Address, Prefix
from ..sdn import model
from ..sdn.emulation import EmulatedNetworkExecution, NetworkConfig
from ..sdn.topology import Topology
from ..sdn.traces import TraceConfig, synthetic_trace
from .base import Scenario

__all__ = [
    "StanfordForwardingError",
    "build_stanford_config",
    "collector_paused",
    "install_noise_entries",
]

ANY = Prefix("0.0.0.0/0")
OZ_COUNT = 14
H1_IP = "10.1.0.1"
H2_IP = "172.20.10.33"  # inside 172.20.10.32/27
COLOCATED_IP = "172.19.254.7"  # inside 172.19.254.0/24
FAULT_PRIORITY = 2000
ACL_PRIORITY = 1000
AGGREGATE_PRIORITY = 5
NOISE_PRIORITY = 3

# Scaled-down defaults; the paper's setup is 757k entries / 1500 ACLs.
DEFAULT_ENTRIES_PER_ROUTER = 300
FULL_SCALE_ENTRIES_PER_ROUTER = 47_000  # ~757k across 16 routers
DEFAULT_ACL_RULES = 96
FULL_SCALE_ACL_RULES = 1500


def stanford_topology() -> Topology:
    """14 OZ routers + 2 backbone routers, one gateway host per zone."""
    topo = Topology("stanford")
    topo.add_switch("bb1")
    topo.add_switch("bb2")
    for index in range(1, OZ_COUNT + 1):
        name = f"oz{index}"
        topo.add_switch(name)
        topo.add_link(name, "bb1")
        topo.add_link(name, "bb2")
        topo.add_host(f"gw{index}", f"10.{index}.0.254")
        topo.add_link(name, f"gw{index}")
    return topo


def zone_prefix(index: int) -> Prefix:
    return Prefix(f"10.{index}.0.0/16")


def install_noise_entries(
    rng: random.Random,
    switch: str,
    ports: Sequence[int],
    count: int,
    table,
) -> None:
    """Install ``count`` collision-free noise routes into one router's
    flow table.

    Each entry goes into the table as it is generated, so full-scale
    builds (47k entries x 16 routers) never hold a per-router entry
    list.  A collision is what the table's install rejects, and it
    re-rolls the rng; the rng trajectory is therefore a function of
    (seed, count) alone and the generated configuration is stable
    across refactors.
    """
    installed = 0
    while installed < count:
        zone = rng.randrange(1, OZ_COUNT + 1)
        third = rng.randrange(1, 255)
        length = rng.choice((24, 25, 26, 27))
        subnet = rng.randrange(1 << (length - 24)) << (32 - length)
        base = (10 << 24) | (zone << 16) | (third << 8)
        pfx = Prefix(IPv4Address(base | subnet), length)
        entry = model.flow_entry(
            switch,
            NOISE_PRIORITY + rng.randrange(1, 4),
            ANY,
            pfx,
            rng.choice(ports),
        )
        if table.install(entry):
            installed += 1


def build_stanford_config(
    entries_per_router: int = DEFAULT_ENTRIES_PER_ROUTER,
    acl_rules: int = DEFAULT_ACL_RULES,
    extra_faults: int = 20,
    seed: int = 20,
) -> PyTuple[Topology, NetworkConfig, List]:
    """Generate topology + configuration; returns the injected faults."""
    rng = random.Random(seed)
    topo = stanford_topology()
    config = NetworkConfig(topo)
    faults: List = []

    oz_names = [f"oz{i}" for i in range(1, OZ_COUNT + 1)]
    for index, name in enumerate(oz_names, start=1):
        backbone = "bb1" if index % 2 else "bb2"
        up_port = topo.port(name, backbone)
        gw_port = topo.port(name, f"gw{index}")
        # Local zone delivery, inter-zone aggregates, and a default up.
        config.install(
            model.flow_entry(name, AGGREGATE_PRIORITY, ANY, zone_prefix(index), gw_port)
        )
        for other in range(1, OZ_COUNT + 1):
            if other != index:
                config.install(
                    model.flow_entry(
                        name, AGGREGATE_PRIORITY, ANY, zone_prefix(other), up_port
                    )
                )
        config.install(model.flow_entry(name, 1, ANY, ANY, up_port))
    # oz2 additionally owns the two special subnets behind its gateway.
    gw2_port = topo.port("oz2", "gw2")
    config.install(
        model.flow_entry("oz2", AGGREGATE_PRIORITY, ANY, Prefix("172.16.0.0/12"), gw2_port)
    )
    for backbone in ("bb1", "bb2"):
        for index in range(1, OZ_COUNT + 1):
            port = topo.port(backbone, f"oz{index}")
            config.install(
                model.flow_entry(
                    backbone, AGGREGATE_PRIORITY, ANY, zone_prefix(index), port
                )
            )
        config.install(
            model.flow_entry(
                backbone,
                AGGREGATE_PRIORITY,
                ANY,
                Prefix("172.16.0.0/12"),
                topo.port(backbone, "oz2"),
            )
        )

    # Generated forwarding noise: specific routes (/24 to /27) that
    # refine the zone aggregates without touching the special
    # 172.16.0.0/12 space.  The prefix space is wide enough that even
    # the full-scale 47k-entries-per-router configuration stays
    # collision-free.  Entries go straight from the rng into the flow
    # tables — no intermediate per-router lists.
    for switch in topo.switches():
        ports = sorted(
            topo.port(switch, n)
            for n in topo.neighbors(switch)
            if topo.is_switch(n)
        )
        install_noise_entries(
            rng, switch, ports, entries_per_router, config.tables[switch]
        )

    # ACLs: high-priority drops for external scanner ranges.
    switches = topo.switches()
    for index in range(acl_rules):
        switch = switches[index % len(switches)]
        src = Prefix(f"203.{rng.randrange(256)}.{rng.randrange(256)}.0/24")
        config.install(
            model.flow_entry(switch, ACL_PRIORITY, src, ANY, model.DROP_ACTION)
        )

    # THE fault: oz2 drops H2's subnet (ATPG's "Forwarding Error").
    fault = model.flow_entry(
        "oz2", FAULT_PRIORITY, ANY, Prefix("172.20.10.32/27"), model.DROP_ACTION
    )
    config.install(fault)
    faults.append(fault)

    # 20 additional faults, none causally related to the H1->H2 flow:
    # 10 on the H1 path (oz1, bb1, oz2), 10 elsewhere.
    on_path = ["oz1", "bb1", "oz2"]
    off_path = [s for s in switches if s not in on_path]
    for index in range(extra_faults):
        switch = on_path[index % 3] if index < 10 else off_path[index % len(off_path)]
        victim = Prefix(f"10.{rng.randrange(20, 200)}.{rng.randrange(255)}.0/24")
        bogus = model.flow_entry(
            switch, FAULT_PRIORITY, ANY, victim, model.DROP_ACTION
        )
        config.install(bogus)
        faults.append(bogus)
    return topo, config, faults


def background_schedule(
    topo: Topology, count: int, seed: int = 21
) -> List[PyTuple[str, int, IPv4Address, IPv4Address]]:
    """The Section 6.7 background traffic mix.

    1) an HTTP client fetching a homepage periodically, 2) a bulk file
    download, 3) an NFS crawl, 4) a replayed synthetic backbone trace.
    """
    rng = random.Random(seed)
    schedule: List[PyTuple] = []
    pkt = 100_000
    http = ("10.3.0.10", "10.5.0.80", "oz3")
    bulk = ("10.4.0.20", "10.6.0.21", "oz4")
    nfs = ("10.7.0.30", "10.8.0.31", "oz7")
    apps = [http, bulk, nfs]
    for index in range(count // 2):
        src, dst, ingress = apps[index % 3]
        pkt += 1
        schedule.append((ingress, pkt, IPv4Address(src), IPv4Address(dst)))
    trace = synthetic_trace(
        TraceConfig(
            count=count - count // 2,
            src_prefixes=tuple(f"10.{z}.0.0/16" for z in (9, 10, 11)),
            dst_prefixes=tuple(f"10.{z}.0.0/16" for z in (12, 13, 14)),
            seed=seed,
        )
    )
    for trace_packet in trace:
        pkt += 1
        zone = trace_packet.src.octets()[1]
        schedule.append((f"oz{zone}", pkt, trace_packet.src, trace_packet.dst))
    return schedule


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run a bulk build with the cyclic garbage collector off.

    The build allocates millions of objects that live as long as the
    configuration, and each generation-2 pass over the growing heap
    walks all of them again to free almost nothing.  On exit the
    caller's collector state comes back, on an exception too, and one
    full collection runs: without it the passes deferred here land on
    whatever allocates next, which is the first diagnosis.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        gc.collect()


class StanfordForwardingError(Scenario):
    name = "Stanford-6.7"
    description = (
        "ATPG forwarding error in a Stanford-like campus network with "
        "20 extra faults and background traffic (black-box emulation)"
    )

    def build(self) -> None:
        # The configuration and its event log are one bulk build.
        with collector_paused():
            self._build()

    def _build(self) -> None:
        entries = self.params.get(
            "entries_per_router",
            FULL_SCALE_ENTRIES_PER_ROUTER
            if self.params.get("full_scale")
            else DEFAULT_ENTRIES_PER_ROUTER,
        )
        acls = self.params.get(
            "acl_rules",
            FULL_SCALE_ACL_RULES
            if self.params.get("full_scale")
            else DEFAULT_ACL_RULES,
        )
        background = self.params.get("background_packets", 120)
        topo, config, faults = build_stanford_config(
            entries_per_router=entries, acl_rules=acls
        )
        self.topology = topo
        self.config = config
        self.faults = faults
        self.program = model.sdn_program()

        schedule = background_schedule(topo, background)
        # The reference: H1 -> the co-located subnet (delivered via gw2).
        good_pkt = 1
        schedule.append(("oz1", good_pkt, IPv4Address(H1_IP), IPv4Address(COLOCATED_IP)))
        # The fault: H1 -> H2's subnet, dropped midway at oz2.
        bad_pkt = 2
        schedule.append(("oz1", bad_pkt, IPv4Address(H1_IP), IPv4Address(H2_IP)))

        execution = EmulatedNetworkExecution("stanford", config, schedule)
        self.good_execution = execution
        self.bad_execution = execution
        self.good_event = model.delivered("gw2", good_pkt, H1_IP, COLOCATED_IP)
        self.bad_event = _dropped("oz2", bad_pkt)
        self.expected_fault = faults[0]


def _dropped(switch: str, pkt: int):
    from ..datalog.tuples import Tuple

    return Tuple("dropped", [switch, pkt, IPv4Address(H1_IP), IPv4Address(H2_IP)])
