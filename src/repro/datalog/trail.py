"""The undo trail behind ``Engine.checkpoint()`` / ``Engine.rollback()``.

A candidate replay differs from the pristine one by a handful of log
entries, so instead of copying engine state per candidate the engine
keeps one live state and records, for every mutation made inside a
checkpoint, how to take it back.  Rolling back runs the trail
newest-first, which also restores dict insertion order.  Mutation sites
announce a write *before* making it (``item``, ``attrs``, ``length``)
or register its inverse right after (``call``); docs/architecture.md
lists them, and the pure caches that deliberately survive a rollback.
"""

from __future__ import annotations

from operator import delitem, setitem

__all__ = ["Trail"]


class Trail:
    """Inverse operations of every mutation since the checkpoint."""

    __slots__ = ("_undo",)

    def __init__(self):
        self._undo: list = []

    def item(self, container, key) -> None:
        """About to assign or delete ``container[key]`` (dict or list)."""
        try:
            self._undo.append((setitem, container, key, container[key]))
        except KeyError:
            self._undo.append((delitem, container, key))

    def attrs(self, obj, *names: str) -> None:
        """About to assign the named attributes of ``obj``."""
        for name in names:
            self._undo.append((setattr, obj, name, getattr(obj, name)))

    def length(self, items: list) -> None:
        """About to append to ``items``; rollback truncates it again."""
        self._undo.append((delitem, items, slice(len(items), None)))

    def call(self, inverse, *args) -> None:
        """Register an arbitrary inverse, e.g. ``call(ids.discard, 7)``."""
        self._undo.append((inverse, *args))

    def undo(self) -> None:
        undo = self._undo
        while undo:
            inverse, *args = undo.pop()
            inverse(*args)
