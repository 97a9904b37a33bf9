"""The blind-search baseline DiffProv's complexity is compared against.

Section 4.7: "The number of steps DiffProv takes is linear in the
number of vertexes in T_G.  This is substantially faster than a naive
approach that attempts random changes to mutable base tuples (or
combinations of such tuples), which would have an exponential
complexity."

This module implements exactly that naive approach: enumerate
single-tuple changes drawn from the two executions' mutable base
tuples, then pairs, then triples ..., replaying the bad log after each
candidate set until the expected outcome appears.  It exists for the
`bench_ablation_guided` benchmark and as a correctness cross-check
(when it terminates, its answer must make the expected event appear,
just like DiffProv's).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..datalog.tuples import Tuple
from ..replay.replayer import Change

__all__ = ["BlindSearchResult", "blind_search"]


class BlindSearchResult:
    """Outcome of a blind search: the changes found and the work done."""

    __slots__ = ("changes", "attempts", "replays", "found")

    def __init__(self, changes, attempts, replays, found):
        self.changes = list(changes)
        self.attempts = attempts
        self.replays = replays
        self.found = found

    def __repr__(self):
        state = "found" if self.found else "exhausted"
        return (
            f"BlindSearchResult({state}, {len(self.changes)} changes, "
            f"{self.attempts} attempts)"
        )


def candidate_changes(good_execution, bad_execution) -> List[Change]:
    """Every single-tuple change the naive search considers.

    Insertions of mutable base tuples present in the good run but not
    the bad one, and removals of mutable base tuples present only in
    the bad run.
    """
    good_store = good_execution.engine.store
    bad_store = bad_execution.engine.store
    good_base = {t for t in good_store.base_tuples() if good_store.is_mutable(t)}
    bad_base = {t for t in bad_store.base_tuples() if bad_store.is_mutable(t)}
    changes: List[Change] = []
    for tup in sorted(good_base - bad_base, key=str):
        changes.append(Change(insert=tup, reason="blind candidate"))
    for tup in sorted(bad_base - good_base, key=str):
        changes.append(Change(remove=[tup], reason="blind candidate"))
    return changes


def blind_search(
    good_execution,
    bad_execution,
    expected_event: Tuple,
    anchor_index: Optional[int] = None,
    max_combination: int = 3,
    max_attempts: int = 10_000,
) -> BlindSearchResult:
    """Find changes that make ``expected_event`` appear, by brute force.

    Tries all single changes, then all pairs, then triples, up to
    ``max_combination`` — the exponential blowup DiffProv avoids.
    """
    candidates = candidate_changes(good_execution, bad_execution)
    attempts = 0
    replays = 0
    for size in range(1, max_combination + 1):
        for combination in itertools.combinations(candidates, size):
            attempts += 1
            if attempts > max_attempts:
                return BlindSearchResult([], attempts - 1, replays, False)
            result = bad_execution.replay(combination, anchor_index)
            replays += 1
            if result.alive(expected_event):
                return BlindSearchResult(combination, attempts, replays, True)
    return BlindSearchResult([], attempts, replays, False)
