"""Provenance recorder: builds the graph while the system runs.

Supports the first two of the paper's three extraction modes
(Section 5):

- **inferred** — attach the recorder to a
  :class:`repro.datalog.engine.Engine`; the engine invokes the ``on_*``
  callbacks and the recorder mirrors every event into the graph.

- **reported** — an instrumented system (the imperative MapReduce
  runtime) calls the ``report_*`` methods explicitly.  The recorder
  maintains its own logical clock in this mode.

The third mode (external specifications over packet traces) lives in
:mod:`repro.provenance.external`.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence

from ..datalog.config import PROVENANCE_MODES
from ..datalog.state import Derivation
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..observability import active as _active_telemetry
from .graph import DerivationInfo, ProvenanceGraph
from .lazy import LazyProvenanceGraph
from .vertices import VertexKind

__all__ = ["ProvenanceRecorder"]


class ProvenanceRecorder:
    """Builds a :class:`ProvenanceGraph` from engine or reported events.

    ``provenance`` selects the construction mode (see
    :mod:`repro.datalog.config`):

    - ``"annotated"`` (default) — one compact arena event per kept
      observation plus per-tuple liveness intervals that answer
      FIRSTDIV's queries directly (see :mod:`repro.provenance.lazy`);
      the seven-vertex graph is built only when something projects a
      tree or serializes;
    - ``"eager"`` — classic eager construction, the reference mode the
      equivalence tests compare against.  Passing an explicit ``graph``
      also forces eager mode.
    """

    def __init__(
        self,
        graph: Optional[ProvenanceGraph] = None,
        faults=None,
        telemetry=None,
        provenance: str = "annotated",
    ):
        if provenance not in PROVENANCE_MODES:
            raise ValueError(
                f"unknown provenance mode {provenance!r}; expected one "
                f"of {', '.join(PROVENANCE_MODES)}"
            )
        self.provenance = provenance
        if graph is not None:
            self.graph = graph
            self._lazy = None
        elif provenance == "eager":
            self.graph = ProvenanceGraph()
            self._lazy = None
        else:
            self._lazy = LazyProvenanceGraph(self)
            self.graph = self._lazy
        # Optional FaultInjector modelling lossy provenance logging: a
        # fraction of events is acknowledged (the clock still advances)
        # but never persisted into the graph.
        self.faults = faults
        # Optional Telemetry; None means no instrumentation.
        self.telemetry = _active_telemetry(telemetry)
        self.seen_events = 0
        self.lost_events = 0
        self._clock = 0  # used only by the report_* (instrumented) API
        self._next_reported_id = -1  # reported derivations count downward

    def __getstate__(self):
        # Strip telemetry before snapshotting/pickling (see
        # Engine.__getstate__); callers reattach after restore.
        state = self.__dict__.copy()
        state["telemetry"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._lazy is not None:
            self._lazy._recorder = weakref.ref(self)

    def checkpoint(self, trail) -> None:
        """Join the engine's undo trail (``None`` leaves it again)."""
        if trail is not None:
            if self._lazy is None or self.faults is not None:
                raise ReproError(
                    "only a lossless annotated recorder can be checkpointed"
                )
            trail.attrs(self, "seen_events", "lost_events", "_clock",
                        "_next_reported_id")
        if self._lazy is not None:
            self._lazy.checkpoint(trail)

    def _keep(self, kind: str) -> bool:
        """Whether one logged event survives; counts losses either way."""
        self.seen_events += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.inc("recorder.events.seen")
            telemetry.inc("recorder.events." + kind)
        if self.faults is not None and not self.faults.keep_log_event(kind):
            self.lost_events += 1
            if telemetry is not None:
                telemetry.inc("recorder.events.lost")
            return False
        return True

    def _vertex(self, kind, node, tup, time, children=(), **extra):
        """``graph.add_vertex`` plus per-kind vertex/edge accounting."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.inc("recorder.vertices." + kind.name.lower())
            if children:
                telemetry.inc("recorder.edges", len(children))
        return self.graph.add_vertex(
            kind, node, tup, time, children=children, **extra
        )

    # ------------------------------------------------------------------
    # Inferred mode: callbacks invoked by the engine.
    # ------------------------------------------------------------------

    def on_insert(self, node: str, tup: Tuple, time: int, mutable: bool) -> None:
        if not self._keep("insert"):
            self._bump(time)
            return
        if self._lazy is not None:
            self._lazy.record(("ins", node, tup, time, mutable))
        else:
            self._vertex(
                VertexKind.INSERT, node, tup, time, mutable=mutable
            )
        self._bump(time)

    def on_delete(self, node: str, tup: Tuple, time: int) -> None:
        if not self._keep("delete"):
            self._bump(time)
            return
        if self._lazy is not None:
            self._lazy.record(("del", node, tup, time))
        else:
            self._vertex(VertexKind.DELETE, node, tup, time)
        self._bump(time)

    def on_appear(self, node: str, tup: Tuple, time: int, cause) -> None:
        if not self._keep("appear"):
            self._bump(time)
            return
        kind, payload = cause
        if kind not in ("insert", "derive"):  # pragma: no cover - defensive
            raise ReproError(f"unknown appear cause {kind!r}")
        if self._lazy is not None:
            derivation_id = payload.id if kind == "derive" else None
            self._lazy.record(("app", node, tup, time, kind, derivation_id))
            self._bump(time)
            return
        if kind == "insert":
            parent = self.graph.latest_insert(tup)
            children = [parent] if parent is not None else []
        else:
            derive_vertex = self.graph.derive_vertex(payload.id)
            children = [derive_vertex] if derive_vertex is not None else []
        appear = self._vertex(
            VertexKind.APPEAR, node, tup, time, children=children
        )
        self._vertex(
            VertexKind.EXIST, node, tup, time, children=[appear]
        )
        self._bump(time)

    def on_disappear(self, node: str, tup: Tuple, time: int, cause) -> None:
        if not self._keep("disappear"):
            # A lost disappear leaves the EXIST interval open — the log
            # never learned the tuple died.
            self._bump(time)
            return
        kind, payload = cause
        if self._lazy is not None:
            derivation_id = payload.id if payload is not None else None
            self._lazy.record(("dis", node, tup, time, kind, derivation_id))
            self._bump(time)
            return
        children = []
        if kind == "underive" and payload is not None:
            derive_vertex = self.graph.derive_vertex(payload.id)
            if derive_vertex is not None:
                children = [derive_vertex]
        self.graph.close_exist(tup, time)
        self._vertex(
            VertexKind.DISAPPEAR, node, tup, time, children=children
        )
        self._bump(time)

    def on_derive(self, node: str, derivation: Derivation, time: int) -> None:
        if not self._keep("derive"):
            self._bump(time)
            return
        info = DerivationInfo(
            derivation.id,
            derivation.rule_name,
            derivation.head,
            derivation.body,
            derivation.env,
            derivation.trigger_index,
            time,
        )
        self._add_derive(node, info, time)

    def on_underive(self, node: str, derivation: Derivation, time: int) -> None:
        if not self._keep("underive"):
            self._bump(time)
            return
        if self._lazy is not None:
            self._lazy.record(
                ("und", node, derivation.head, time,
                 derivation.rule_name, derivation.id)
            )
            self._bump(time)
            return
        derive_vertex = self.graph.derive_vertex(derivation.id)
        children = [derive_vertex] if derive_vertex is not None else []
        self._vertex(
            VertexKind.UNDERIVE,
            node,
            derivation.head,
            time,
            children=children,
            rule=derivation.rule_name,
            derivation_id=derivation.id,
        )
        self._bump(time)

    # ------------------------------------------------------------------
    # Reported mode: explicit instrumentation hooks.
    # ------------------------------------------------------------------

    def report_insert(
        self,
        node: str,
        tup: Tuple,
        mutable: bool = True,
        time: Optional[int] = None,
    ) -> None:
        """Report a base tuple (external input / configuration state)."""
        time = self._reported_time(time)
        self.on_insert(node, tup, time, mutable)
        self.on_appear(node, tup, time, ("insert", None))

    def report_delete(self, node: str, tup: Tuple, time: Optional[int] = None) -> None:
        time = self._reported_time(time)
        self.on_delete(node, tup, time)
        if self._lazy is not None:
            self._lazy.record(("dis", node, tup, time, "delete", None))
            return
        self.graph.close_exist(tup, time)
        self._vertex(VertexKind.DISAPPEAR, node, tup, time)

    def report_derive(
        self,
        node: str,
        head: Tuple,
        rule_name: str,
        body: Sequence[Tuple],
        env: Optional[Dict[str, object]] = None,
        trigger_index: Optional[int] = None,
        time: Optional[int] = None,
    ) -> DerivationInfo:
        """Report a dependency: ``head`` was computed from ``body``.

        Every body tuple must have been reported (or derived) earlier —
        an instrumented system reports dependencies in causal order.
        """
        time = self._reported_time(time)
        body = tuple(body)
        if self.faults is None:
            # Under lossy logging a body member's report may simply have
            # been dropped; the causal-order invariant is unenforceable.
            for member in body:
                if self.graph.exist_at(member, time) is None:
                    raise ReproError(
                        f"reported derivation of {head} depends on {member}, "
                        f"which has never been reported"
                    )
        if trigger_index is None:
            trigger_index = self._latest_appearing(body, time)
        info = DerivationInfo(
            self._next_reported_id,
            rule_name,
            head,
            body,
            env or {},
            trigger_index,
            time,
        )
        self._next_reported_id -= 1
        self._add_derive(node, info, time)
        self.on_appear(node, head, time, ("derive", info))
        return info

    # ------------------------------------------------------------------
    # Shared internals.
    # ------------------------------------------------------------------

    def _add_derive(self, node: str, info: DerivationInfo, time: int) -> None:
        if self._lazy is not None:
            self._lazy.record(("der", node, info, time))
            self._bump(time)
            return
        self.graph.add_derivation(info)
        children = []
        for member in info.body:
            exist = self.graph.exist_at(member, time)
            if exist is None:
                # The body member should exist when the rule fires; fall
                # back to its latest interval so the graph stays connected.
                exist = self.graph.exist_at(member)
            if exist is not None:
                children.append(exist)
        self._vertex(
            VertexKind.DERIVE,
            node,
            info.head,
            time,
            children=children,
            rule=info.rule_name,
            derivation_id=info.id,
        )
        self._bump(time)

    def _latest_appearing(self, body, time: int) -> int:
        best_index = 0
        best_time = -1
        for index, member in enumerate(body):
            appears = self.graph.appears_of(member)
            relevant = [v.time for v in appears if v.time <= time]
            appeared = max(relevant) if relevant else -1
            if appeared > best_time:
                best_time = appeared
                best_index = index
        return best_index

    def _reported_time(self, time: Optional[int]) -> int:
        if time is not None:
            self._bump(time)
            return time
        self._clock += 1
        return self._clock

    def _bump(self, time: int) -> None:
        if time > self._clock:
            self._clock = time
