"""Declarative fault plans.

A :class:`FaultPlan` is an immutable description of *what* can go wrong
and *how often*; it carries no randomness of its own.  The executable
side — seeded streams, per-decision bookkeeping — lives in
:class:`repro.faults.injector.FaultInjector`.

Plans are usually written as a compact spec string (the ``--faults``
CLI flag)::

    drop=0.1,dup=0.05,loss=0.1,seed=7
    fetch-loss=0.2,retries=3,unreachable=s3|s4
    flap=s2:1:10:40,crash=s3:5:60

Grammar: a comma-separated list of ``key=value`` tokens.  Rates are
floats in ``[0, 1]``; ``flap`` and ``crash`` may repeat and accumulate
windows.  See ``docs/faults.md`` for the full reference.
"""

from __future__ import annotations

from typing import Optional, Tuple as PyTuple

from ..errors import FaultSpecError

__all__ = ["FaultPlan"]

# spec key -> (attribute, parser); rate keys share a range check.
# snapshot-corrupt is the one *host* fault: it hits the diagnoser's own
# snapshot cache, not the diagnosed network (docs/resilience.md).  The
# event-* and clock-skew rates are *stream* faults: they perturb the
# transport between a monitored network and the streaming monitor's
# ingestion front-end, never the diagnosed replays themselves
# (docs/streaming.md).
_RATE_KEYS = {
    "drop": "drop",
    "dup": "duplicate",
    "reorder": "reorder",
    "delay": "delay",
    "loss": "prov_loss",
    "fetch-loss": "fetch_loss",
    "link-loss": "link_loss",
    "snapshot-corrupt": "snapshot_corrupt",
    "event-drop": "event_drop",
    "event-dup": "event_dup",
    "event-reorder": "event_reorder",
    "clock-skew": "clock_skew",
}
_INT_KEYS = {
    "seed": "seed",
    "delay-steps": "delay_steps",
    "retries": "max_retries",
    "timeout": "timeout_steps",
}


class FaultPlan:
    """What faults to inject, at which rates, under which seed.

    All-defaults (``FaultPlan()``) is the *zero plan*: every decision
    method of an injector built from it is a guaranteed no-op, so
    installing it must not change behaviour.
    """

    __slots__ = (
        "seed",
        "drop",
        "duplicate",
        "reorder",
        "delay",
        "delay_steps",
        "prov_loss",
        "fetch_loss",
        "link_loss",
        "max_retries",
        "timeout_steps",
        "unreachable",
        "flaps",
        "crashes",
        "snapshot_corrupt",
        "event_drop",
        "event_dup",
        "event_reorder",
        "clock_skew",
    )

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        delay: float = 0.0,
        delay_steps: int = 2,
        prov_loss: float = 0.0,
        fetch_loss: float = 0.0,
        link_loss: float = 0.0,
        max_retries: int = 2,
        timeout_steps: int = 1,
        unreachable: PyTuple[str, ...] = (),
        flaps: PyTuple[PyTuple[str, Optional[int], int, int], ...] = (),
        crashes: PyTuple[PyTuple[str, int, int], ...] = (),
        snapshot_corrupt: float = 0.0,
        event_drop: float = 0.0,
        event_dup: float = 0.0,
        event_reorder: float = 0.0,
        clock_skew: float = 0.0,
    ):
        for name, value in (
            ("drop", drop),
            ("duplicate", duplicate),
            ("reorder", reorder),
            ("delay", delay),
            ("prov_loss", prov_loss),
            ("fetch_loss", fetch_loss),
            ("link_loss", link_loss),
            ("snapshot_corrupt", snapshot_corrupt),
            ("event_drop", event_drop),
            ("event_dup", event_dup),
            ("event_reorder", event_reorder),
            ("clock_skew", clock_skew),
        ):
            if not 0.0 <= value <= 1.0:
                raise FaultSpecError(f"rate {name}={value} outside [0, 1]")
        if delay_steps < 1:
            raise FaultSpecError(f"delay_steps must be >= 1, got {delay_steps}")
        if max_retries < 0:
            raise FaultSpecError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_steps < 1:
            raise FaultSpecError(
                f"timeout_steps must be >= 1, got {timeout_steps}"
            )
        self.seed = int(seed)
        self.drop = float(drop)
        self.duplicate = float(duplicate)
        self.reorder = float(reorder)
        self.delay = float(delay)
        self.delay_steps = int(delay_steps)
        self.prov_loss = float(prov_loss)
        self.fetch_loss = float(fetch_loss)
        self.link_loss = float(link_loss)
        self.max_retries = int(max_retries)
        self.timeout_steps = int(timeout_steps)
        self.unreachable = tuple(sorted(unreachable))
        self.flaps = tuple(sorted(flaps, key=_flap_key))
        self.crashes = tuple(sorted(crashes))
        self.snapshot_corrupt = float(snapshot_corrupt)
        self.event_drop = float(event_drop)
        self.event_dup = float(event_dup)
        self.event_reorder = float(event_reorder)
        self.clock_skew = float(clock_skew)

    # -- spec parsing --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a comma-separated ``key=value`` spec into a plan."""
        kwargs: dict = {}
        flaps = []
        crashes = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise FaultSpecError("expected key=value", token=token)
            if key in _RATE_KEYS:
                kwargs[_RATE_KEYS[key]] = _parse_float(token, value)
            elif key in _INT_KEYS:
                kwargs[_INT_KEYS[key]] = _parse_int(token, value)
            elif key == "unreachable":
                nodes = tuple(n for n in value.split("|") if n)
                if not nodes:
                    raise FaultSpecError("no nodes listed", token=token)
                kwargs["unreachable"] = kwargs.get("unreachable", ()) + nodes
            elif key == "flap":
                flaps.append(_parse_flap(token, value))
            elif key == "crash":
                crashes.append(_parse_crash(token, value))
            else:
                raise FaultSpecError(f"unknown key {key!r}", token=token)
        if flaps:
            kwargs["flaps"] = tuple(flaps)
        if crashes:
            kwargs["crashes"] = tuple(crashes)
        return cls(**kwargs)

    # -- introspection -------------------------------------------------------

    def is_zero(self) -> bool:
        """True when the plan can never inject anything: no network
        fault, no snapshot corruption, no stream fault."""
        return (
            self.host_only()
            and self.snapshot_corrupt == 0.0
            and not self.has_stream_faults()
        )

    def has_stream_faults(self) -> bool:
        """True when the plan perturbs a monitored event stream.

        Stream faults (event drop/dup/reorder, clock skew) act on the
        transport between the monitored network and the streaming
        monitor's ingestion front-end (docs/streaming.md).  Like host
        faults they never touch the diagnosed replays, so they do not
        affect :meth:`host_only`.
        """
        return (
            self.event_drop > 0.0
            or self.event_dup > 0.0
            or self.event_reorder > 0.0
            or self.clock_skew > 0.0
        )

    def host_only(self) -> bool:
        """True when only the diagnoser host can be faulted.

        Snapshot corruption never touches the diagnosed network:
        replays, divergence checks, and therefore the report are
        unaffected (the cache quarantines a corrupt snapshot and the
        replay re-derives it).  Callers that ask "are the *network's*
        replays fault-free" — whether a minimality verdict may be
        journalled, whether changes carry confidence levels — use this
        instead of :meth:`is_zero`.
        """
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and self.delay == 0.0
            and self.prov_loss == 0.0
            and self.fetch_loss == 0.0
            and self.link_loss == 0.0
            and not self.unreachable
            and not self.flaps
            and not self.crashes
        )

    def describe(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        parts = [f"seed={self.seed}"]
        for key, attr in _RATE_KEYS.items():
            value = getattr(self, attr)
            if value:
                parts.append(f"{key}={value:g}")
        if self.delay:
            parts.append(f"delay-steps={self.delay_steps}")
        if self.fetch_loss or self.unreachable:
            parts.append(f"retries={self.max_retries}")
            parts.append(f"timeout={self.timeout_steps}")
        if self.unreachable:
            parts.append("unreachable=" + "|".join(self.unreachable))
        for switch, port, start, end in self.flaps:
            port_text = "*" if port is None else str(port)
            parts.append(f"flap={switch}:{port_text}:{start}:{end}")
        for switch, start, end in self.crashes:
            parts.append(f"crash={switch}:{start}:{end}")
        return ",".join(parts)

    def __repr__(self):
        return f"FaultPlan({self.describe()})"

    def __eq__(self, other):
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__
        )

    def __hash__(self):
        return hash(tuple(getattr(self, slot) for slot in self.__slots__))


def _flap_key(flap):
    switch, port, start, end = flap
    return (switch, -1 if port is None else port, start, end)


def _parse_float(token: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultSpecError(f"{value!r} is not a number", token=token)


def _parse_int(token: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FaultSpecError(f"{value!r} is not an integer", token=token)


def _parse_flap(token: str, value: str):
    """``switch:port:start:end`` — port ``*`` means every port."""
    fields = value.split(":")
    if len(fields) != 4:
        raise FaultSpecError("expected switch:port:start:end", token=token)
    switch, port_text, start_text, end_text = fields
    port = None if port_text == "*" else _parse_int(token, port_text)
    start = _parse_int(token, start_text)
    end = _parse_int(token, end_text)
    if start > end:
        raise FaultSpecError(f"window {start}..{end} is empty", token=token)
    return (switch, port, start, end)


def _parse_crash(token: str, value: str):
    """``switch:start:end`` — the switch is down during [start, end]."""
    fields = value.split(":")
    if len(fields) != 3:
        raise FaultSpecError("expected switch:start:end", token=token)
    switch, start_text, end_text = fields
    start = _parse_int(token, start_text)
    end = _parse_int(token, end_text)
    if start > end:
        raise FaultSpecError(f"window {start}..{end} is empty", token=token)
    return (switch, start, end)
