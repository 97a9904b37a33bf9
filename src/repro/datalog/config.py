"""Evaluation-mode selection for the Datalog engine: one fast path, one oracle.

:class:`EngineConfig` is a single two-valued choice:

- ``"compiled"`` (the default) — per-rule compiled join closures
  (:mod:`repro.datalog.compiled`) over the indexed
  :class:`repro.datalog.columnar.ColumnarStore`, with the ``annotated``
  provenance recorder (arena events plus per-tuple liveness intervals,
  the graph built on demand) and copy-on-write ``fork()`` on the SDN
  emulator.  This is the path every workload runs.
- ``"reference"`` — the interpreted linear-scan join over the plain
  :class:`repro.datalog.state.Store`, with the ``eager`` seven-vertex
  recorder and ``clone()`` + linear-scan lookups on the emulator.  It
  exists so the equivalence tests have an oracle that shares no index,
  bisection or compilation code with the path it checks; it is not a
  performance option.

Both produce byte-identical tables, graphs, trees and reports — the
choice changes cost, never results (see
``tests/datalog/test_index_equivalence.py``).  The provenance mode is
derived from the backend, not chosen: ``describe()`` and ``to_dict()``
still spell it out because the replay-cache key and the service's
server→worker wire form carry both fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

__all__ = ["EngineConfig", "BACKENDS", "PROVENANCE_MODES"]

BACKENDS = ("compiled", "reference")
PROVENANCE_MODES = ("annotated", "eager")

_PROVENANCE_OF = {"compiled": "annotated", "reference": "eager"}


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable selection of the evaluation backend."""

    backend: str = "compiled"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )

    @property
    def provenance(self) -> str:
        """The recorder mode this backend runs with (derived)."""
        return _PROVENANCE_OF[self.backend]

    @classmethod
    def coerce(
        cls, value: Union[None, "EngineConfig", str, Mapping]
    ) -> "EngineConfig":
        """Accept the shapes user-facing layers see.

        ``None`` means the default, a string is a backend name, and a
        mapping is the wire form ``{"backend"[, "provenance"]}`` — a
        ``provenance`` field is accepted only when it is the backend's
        own mode.  Raises :class:`ValueError` on anything else.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(backend=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"backend", "provenance"}
            if unknown:
                raise ValueError(
                    f"unknown engine option field(s) "
                    f"{', '.join(sorted(map(repr, unknown)))}; "
                    f"expected backend/provenance"
                )
            config = cls(backend=value.get("backend", cls.backend))
            provenance = value.get("provenance", config.provenance)
            if provenance != config.provenance:
                raise ValueError(
                    f"provenance mode {provenance!r} does not belong to "
                    f"backend {config.backend!r}; expected "
                    f"{config.provenance!r} (or omit the field)"
                )
            return config
        raise ValueError(
            f"cannot interpret {value!r} as an EngineConfig; pass an "
            f"EngineConfig, a backend name, or a backend/provenance mapping"
        )

    def to_dict(self) -> dict:
        """The wire form used by the service protocol's option block."""
        return {"backend": self.backend, "provenance": self.provenance}

    def describe(self) -> str:
        return f"{self.backend}/{self.provenance}"
