"""The r-neighbor activation process, run in synchronous rounds to fixation.

A vertex activates in round g when at least r of its neighbors were active
after round g - 1; seeds are active in round 0 and nothing ever deactivates.
The one engine, ``Percolator``, keeps a per-vertex count of active neighbors
and steps each round as one wave (row by row while waves are small, then a
wave of ``graph.spread``, which pushes or pulls and stops once every vertex
is active), so a full run costs O(n + m), and a run that stalls after a few
activations costs about what it touched.  It can resume: seeds added to a state at fixation spread from
there, so a caller that grows a seed set one vertex at a time pays for the
new activations only.  ``percolate`` runs a fresh state once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .graph import UNREACHED, Graph, as_vertex_array, checked_int, spread, vertex_ids

__all__ = ["NEVER", "PercolationResult", "Percolator", "percolate", "mandatory_seeds", "validate_result"]

# Generation value for vertices the process never reaches; JSON uses null.
NEVER = UNREACHED

# A sparse state moves to numpy arrays at its first wave over more adjacency
# entries than this: on one wave from a fresh state, row-by-row steps cost as
# much as the move plus a numpy step near 1500 entries at n = 20000, 2400 at 200000.
_SPARSE_ENTRIES = 2048


@dataclass(eq=False)
class PercolationResult:
    """Full trace of one activation run.

    ``generation[v]`` is the round in which v became active (0 for seeds,
    NEVER if the process never reached it).  ``per_round_counts[g - 1]`` is
    the number of vertices newly activated in round g, so the counts sum to
    ``active_count - len(seeds)``.
    """

    threshold: int
    seeds: frozenset[int]
    generation: np.ndarray
    tau: int
    contagious: bool
    active_count: int
    per_round_counts: tuple[int, ...] = field(default_factory=tuple)

    @cached_property
    def active(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.generation != NEVER).tolist())

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "contagious": self.contagious,
            "active_count": self.active_count,
            "generation": [None if g == NEVER else g for g in self.generation.tolist()],
            "per_round": list(self.per_round_counts),
        }


def checked_threshold(r) -> int:
    """``r`` as an int; raises ValueError unless it is an integer >= 2."""
    return checked_int(r, "activation threshold r", 2)


def percolate(graph: Graph, seeds: Iterable[int], r: int) -> PercolationResult:
    """Run the threshold-r process from ``seeds`` until no vertex activates.

    Raises ValueError for r < 2 or out-of-range seed ids.  The result is a
    pure function of (graph, seeds, r).
    """
    return Percolator(graph, r).add_seeds(seeds).result()


class Percolator:
    """Resumable state of the process on one graph.

    ``add_seeds(vs)`` seeds the inactive ids among ``vs`` (repeated or active
    ids are no-ops) and runs on to fixation; ``copy()`` gives an independent
    child state.  Rounds are numbered on across batches, so the active set is
    the closure of all seeds so far and ``result()`` passes
    ``validate_result``, but a fresh ``percolate`` of the union numbers the
    generations differently.  A fresh state holds the generation map and the
    active-neighbour counts ``hits`` as dicts keyed by vertex and steps each
    wave one adjacency row at a time, so a run that stalls early costs what it
    touched, not O(n); the first time a wave (the seed batch counts as one)
    spans more than ``_SPARSE_ENTRIES`` entries, the state moves to numpy
    arrays and the push/pull waves of ``graph.spread``.  An integer array of
    more than ``_SPARSE_ENTRIES`` seeds moves it too, once its ids pass their
    checks; after that the layout alone picks the path.  On either layout
    ``hits`` is exact for inactive vertices only.
    """

    __slots__ = ("graph", "r", "active_count", "_generation", "_hits", "_seeds", "_per_round")

    def __init__(self, graph: Graph, r: int):
        self.graph, self.r, self.active_count = graph, checked_threshold(r), 0
        self._generation, self._hits = {}, {}
        self._seeds: list[int] = []
        self._per_round: list[int] = []

    @property
    def contagious(self) -> bool:
        return self.active_count == self.graph.vertex_count

    def is_active(self, v: int) -> bool:
        if type(self._generation) is dict:
            return v in self._generation
        return self._generation[v] != NEVER

    def copy(self) -> "Percolator":
        child = object.__new__(Percolator)
        child.graph, child.r, child.active_count = self.graph, self.r, self.active_count
        child._generation, child._hits = self._generation.copy(), self._hits.copy()
        child._seeds, child._per_round = self._seeds.copy(), self._per_round.copy()
        return child

    def add_seeds(self, vs: Iterable[int]) -> "Percolator":
        """Seed the inactive ids among ``vs`` and run to fixation; returns self.
        An array of over ``_SPARSE_ENTRIES`` ids moves the state to numpy arrays."""
        n, generation = self.graph.vertex_count, self._generation
        if type(generation) is dict and not (isinstance(vs, np.ndarray) and vs.size > _SPARSE_ENTRIES):
            fresh = [v for v in vertex_ids(vs, n, what="seed") if v not in generation]
            generation.update(dict.fromkeys(fresh, 0))
            self._seeds.extend(fresh)
            self.active_count += len(fresh)
            self._spread_sparse(fresh)
            return self
        ids = as_vertex_array(vs, n, what="seed")  # checked before the layout moves
        self._to_arrays()
        fresh = ids[self._generation[ids] == NEVER]
        self._generation[fresh] = 0
        self._seeds.extend(fresh.tolist())
        self.active_count += fresh.size
        self._spread_numpy(fresh)
        return self

    def result(self) -> PercolationResult:
        """A snapshot of the state as a trace; later batches do not change it."""
        return PercolationResult(
            threshold=self.r,
            seeds=frozenset(self._seeds),
            generation=self._generation_array(),
            tau=len(self._per_round),
            contagious=self.contagious,
            active_count=self.active_count,
            per_round_counts=tuple(self._per_round),
        )

    def _generation_array(self) -> np.ndarray:
        if type(self._generation) is dict:
            return _filled(self.graph.vertex_count, NEVER, self._generation)
        return np.array(self._generation, dtype=np.int64)

    def _spread_sparse(self, frontier: list[int]) -> None:
        indptr, indices, r = self.graph.indptr, self.graph.indices, self.r
        generation, hits, get_hits = self._generation, self._hits, self._hits.get
        while frontier:
            # a wave from more vertices than the limit is not sliced row by row
            sliced = len(frontier) <= _SPARSE_ENTRIES
            rows = [indices[indptr[u] : indptr[u + 1]] for u in frontier] if sliced else []
            if not sliced or sum(map(len, rows)) > _SPARSE_ENTRIES:
                self._to_arrays()
                self._spread_numpy(np.array(frontier, dtype=np.int64))
                return
            newly: list[int] = []
            for row in rows:
                for w in row.tolist():
                    h = get_hits(w, 0) + 1
                    hits[w] = h
                    # hits counts active vertices too; only an inactive one
                    # activates, as it crosses r, which happens once
                    if h == r and w not in generation:
                        newly.append(w)
            if not newly:
                break
            self._per_round.append(len(newly))
            generation.update(dict.fromkeys(newly, len(self._per_round)))
            self.active_count += len(newly)
            frontier = newly

    def _to_arrays(self) -> None:
        if type(self._generation) is dict:
            n = self.graph.vertex_count
            self._generation, self._hits = _filled(n, NEVER, self._generation), _filled(n, 0, self._hits)

    def _spread_numpy(self, frontier: np.ndarray) -> None:
        left = self.graph.vertex_count - self.active_count
        waves = spread(self.graph, self._generation, frontier, left, self.r, self._hits,
                       len(self._per_round))
        self._per_round.extend(wave.size for wave in waves)
        self.active_count += sum(wave.size for wave in waves)


def _filled(n: int, fill: int, values: dict[int, int]) -> np.ndarray:
    """An int64 array of length n holding ``values`` at their keys and ``fill`` elsewhere."""
    arr = np.full(n, fill, dtype=np.int64)
    arr[list(values)] = list(values.values())
    return arr


def mandatory_seeds(graph: Graph, r: int) -> frozenset[int]:
    """Vertices of degree below r: they can never be activated, only seeded."""
    checked_threshold(r)
    return frozenset(np.flatnonzero(graph.degrees < r).tolist())


def validate_result(graph: Graph, result: PercolationResult) -> None:
    """Replay a trace and raise ValueError on any internal inconsistency.

    Checks the seed/generation correspondence, the per-round counts, tau,
    the contagious flag, the activation rule itself (every vertex of
    generation g >= 1 has at least r neighbors of strictly earlier
    generation) and fixation (every vertex left inactive has fewer than r
    active neighbors).
    """
    n = graph.vertex_count
    gen = result.generation
    r = result.threshold
    if gen.shape != (n,):
        raise ValueError("generation array has wrong length")
    seeds = np.flatnonzero(gen == 0)
    if frozenset(seeds.tolist()) != result.seeds:
        raise ValueError("generation-0 vertices disagree with the seed set")
    active = np.flatnonzero(gen != NEVER)
    if active.size != result.active_count:
        raise ValueError("active_count disagrees with the generation map")
    if result.contagious != (active.size == n):
        raise ValueError("contagious flag inconsistent with active count")
    finite = gen[active]
    tau = int(finite.max()) if active.size else 0
    if tau != result.tau:
        raise ValueError("tau is not the maximum finite generation")
    counts = np.bincount(finite, minlength=tau + 1) if active.size else np.zeros(1, int)
    if tuple(int(c) for c in counts[1:]) != result.per_round_counts:
        raise ValueError("per-round counts disagree with the generation map")
    if any(c <= 0 for c in result.per_round_counts):
        raise ValueError("a round with no activations was recorded")
    # Rank inactive vertices after every round; then, for an active vertex,
    # "earlier" neighbors are those of lower generation, and for an inactive
    # one they are all its active neighbors.
    rank = gen.astype(np.int32)
    rank[gen == NEVER] = tau + 1
    # One flag per arc, summed per row; a trailing False for rows that start at the end.
    earlier = np.zeros(graph.indices.size + 1, dtype=bool)
    np.less(rank[graph.indices], np.repeat(rank, graph.degrees), out=earlier[:-1])
    earlier_count = np.add.reduceat(earlier, graph.indptr[:-1], dtype=np.int32)
    earlier_count[graph.degrees == 0] = 0  # reduceat gives an empty row the next row's first flag
    short = np.flatnonzero((gen >= 1) & (earlier_count < r))
    if short.size:
        v = int(short[np.argmin(gen[short])])
        raise ValueError(
            f"vertex {v} activated in round {gen[v]} with only "
            f"{earlier_count[v]} earlier neighbors"
        )
    stuck = np.flatnonzero((gen == NEVER) & (earlier_count >= r))
    if stuck.size:
        v = int(stuck[0])
        raise ValueError(
            f"vertex {v} is inactive with {earlier_count[v]} active neighbors, "
            f"so it would activate by round {tau + 1}: the trace stops before fixation"
        )
