"""The declarative model of an OpenFlow network (Section 3.1).

Switch state and events are tuples; the match-action pipeline is three
derivation rules:

- ``fwd`` — flow table lookup: among all entries matching the packet's
  source and destination, select the best (highest priority, then most
  specific) and emit its action;
- ``out`` — a non-negative action is a physical output port;
- ``outg`` — a negative action names a group: the packet is emitted on
  every port of the group (multicast/mirroring).  A negative action
  with no group entries is a drop.

Packets move along ``link`` tuples and are delivered to hosts via
``hostAt``.  Flow entries and group entries are *mutable* base tuples
(the operator controls the configuration); packets and wiring are
*immutable* (Section 3.3, refinement #1).
"""

from __future__ import annotations

from ..addresses import IPv4Address, prefix
from ..datalog.parser import parse_program
from ..datalog.rules import Program
from ..datalog.tuples import Tuple

__all__ = [
    "SDN_PROGRAM_TEXT",
    "sdn_program",
    "packet",
    "flow_entry",
    "group_entry",
    "link",
    "host_at",
    "delivered",
    "DROP_ACTION",
]

# A negative action with no group entries: the packet is dropped.
DROP_ACTION = -999

SDN_PROGRAM_TEXT = """
// -- state and event tables --------------------------------------------
table packet(Sw, Pkt, Src, Dst) event immutable.
table flowEntry(Sw, Prio, SrcPfx, DstPfx, Action) mutable.
table groupEntry(Sw, Group, Port) mutable.
table link(Sw, Port, Next) immutable.
table hostAt(Sw, Port, Host) immutable.
table actionOut(Sw, Pkt, Src, Dst, Action) event.
table packetOut(Sw, Pkt, Src, Dst, Port) event.
table delivered(Host, Pkt, Src, Dst).
// Observed only by the black-box emulator (the engine has no negation,
// so it cannot derive absence-of-forwarding itself).
table dropped(Sw, Pkt, Src, Dst).

// -- the OpenFlow match-action pipeline --------------------------------
fwd actionOut(@S, P, Src, Dst, Action) :- packet(@S, P, Src, Dst),
    flowEntry(@S, Prio, SrcPfx, DstPfx, Action)
        argmax<Prio, prefix_len(SrcPfx) + prefix_len(DstPfx)>,
    ip_in_prefix(Src, SrcPfx) == true,
    ip_in_prefix(Dst, DstPfx) == true.

out packetOut(@S, P, Src, Dst, Port) :- actionOut(@S, P, Src, Dst, Action),
    Action >= 0, Port := Action.

outg packetOut(@S, P, Src, Dst, Port) :- actionOut(@S, P, Src, Dst, Action),
    Action < 0, groupEntry(@S, Action, Port).

// -- packet movement and delivery --------------------------------------
move packet(@N, P, Src, Dst) :- packetOut(@S, P, Src, Dst, Port),
    link(@S, Port, N).

recv delivered(@H, P, Src, Dst) :- packetOut(@S, P, Src, Dst, Port),
    hostAt(@S, Port, H).
"""


def sdn_program() -> Program:
    """A fresh copy of the SDN program (programs are mutable)."""
    return parse_program(SDN_PROGRAM_TEXT)


# -- tuple constructors --------------------------------------------------


def packet(switch: str, pkt_id: int, src, dst) -> Tuple:
    """A packet arriving at a switch (an immutable base event)."""
    return Tuple("packet", [switch, pkt_id, IPv4Address(src), IPv4Address(dst)])


def flow_entry(switch: str, priority: int, src_pfx, dst_pfx, action: int) -> Tuple:
    """An OpenFlow rule: match on src/dst prefixes, emit an action."""
    return Tuple(
        "flowEntry",
        [switch, priority, prefix(src_pfx), prefix(dst_pfx), action],
    )


def group_entry(switch: str, group: int, port: int) -> Tuple:
    """One output port of a (negative-numbered) group."""
    if group >= 0:
        raise ValueError("group ids are negative by convention")
    return Tuple("groupEntry", [switch, group, port])


def link(switch: str, port: int, next_switch: str) -> Tuple:
    return Tuple("link", [switch, port, next_switch])


def host_at(switch: str, port: int, host: str) -> Tuple:
    return Tuple("hostAt", [switch, port, host])


def delivered(host: str, pkt_id: int, src, dst) -> Tuple:
    """The terminal event: a packet reached a host."""
    return Tuple(
        "delivered", [host, pkt_id, IPv4Address(src), IPv4Address(dst)]
    )
