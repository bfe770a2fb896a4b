"""The r-neighbor activation process, run in synchronous rounds to fixation.

A vertex activates in round g when at least r of its neighbors were active
after round g - 1; seeds are active in round 0 and nothing ever deactivates.
The one engine, ``Percolator``, keeps a per-vertex count of active neighbors
and steps each round as one wave (row by row while waves are small, then a
wave of ``graph.spread``, which pushes or pulls and stops once every vertex
is active), so a full run costs O(n + m), and a run that stalls after a few
activations costs about what it touched.  It can resume: seeds added to a
state at fixation spread from there, so a caller that grows a seed set one
vertex at a time pays for the new activations only.  ``percolate`` runs a
fresh state once; every trace the package returns is ``percolate``'s for its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import UNREACHED, Graph, as_vertex_array, checked_int, spread

__all__ = ["NEVER", "PercolationResult", "Percolator", "percolate", "mandatory_seeds", "validate_result"]

# Generation value for vertices the process never reaches; JSON uses null.
NEVER = UNREACHED

# A sparse state moves to numpy arrays at its first batch of more distinct seeds, or wave over
# more adjacency entries, than this: on one wave from a fresh state, row-by-row steps
# cost as much as the move plus a numpy step near 1500 entries at n = 20000, 2400 at 200000.
_SPARSE_ENTRIES = 2048


@dataclass(eq=False)
class PercolationResult:
    """Full trace of one activation run: its generation map.

    ``generation[v]`` is the round in which v became active (0 for seeds,
    NEVER if the process never reached it).  Every other fact of the run is
    read off the map at each access: ``seeds`` are the generation-0 vertices,
    ``tau`` is the last round and ``per_round_counts[g - 1]`` the number of
    vertices of generation g, so the counts sum to ``active_count - len(seeds)``.
    """

    threshold: int
    generation: np.ndarray

    @property
    def seeds(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.generation == 0).tolist())

    @property
    def active(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.generation != NEVER).tolist())

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.generation != NEVER))

    @property
    def contagious(self) -> bool:
        return self.active_count == self.generation.size

    @property
    def tau(self) -> int:
        return int(self.generation.max(initial=0))

    @property
    def per_round_counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.generation[self.generation > 0])[1:].tolist())

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
    ids are no-ops) and runs on to fixation, so the active set is the closure
    of all seeds so far, in any batch order; ``rounds`` counts the rounds run
    so far, on across batches.  The state keeps no seed list: the seeds are the
    generation-0 vertices, and ``result()`` is the trace of a fresh run from them
    (a state's own map if it was seeded in one batch).  A fresh state holds the
    generation map and the active-neighbour counts ``hits`` as dicts keyed by
    vertex and steps each wave one adjacency row at a time, so a run that stalls
    early costs what it touched, not O(n).  A batch of more than ``_SPARSE_ENTRIES``
    distinct ids, or a wave (the seed batch counts as one) over more adjacency
    entries, moves the state for good to numpy arrays and the push/pull waves of
    ``graph.spread``.  On either layout ``hits`` is exact for inactive vertices only.
    """

    __slots__ = ("graph", "r", "active_count", "rounds", "_generation", "_hits", "_resumed")

    def __init__(self, graph: Graph, r: int):
        self.graph, self.r, self.active_count, self.rounds = graph, checked_threshold(r), 0, 0
        self._generation, self._hits, self._resumed = {}, {}, False

    @property
    def contagious(self) -> bool:
        return self.active_count == self.graph.vertex_count

    def is_active(self, v: int) -> bool:
        if type(self._generation) is dict:
            return v in self._generation
        return self._generation[v] != NEVER

    def add_seeds(self, vs: Iterable[int]) -> "Percolator":
        """Seed the inactive ids among ``vs`` and run to fixation; returns self.
        A state stays sparse only for a batch of at most ``_SPARSE_ENTRIES`` distinct ids."""
        ids, generation = as_vertex_array(vs, self.graph.vertex_count, what="seed"), self._generation
        self._resumed = self.rounds > 0  # rounds never go back, so once set it stays
        if type(generation) is dict and ids.size <= _SPARSE_ENTRIES:
            fresh = [v for v in ids.tolist() if v not in generation]
            generation.update(dict.fromkeys(fresh, 0))
            self.active_count += len(fresh)
            self._spread_sparse(fresh)
            return self
        self._to_arrays()
        fresh = ids[self._generation[ids] == NEVER]
        self._generation[fresh] = 0
        self.active_count += fresh.size
        self._spread_numpy(fresh)
        return self

    def result(self) -> PercolationResult:
        """The trace of a fresh run from the state's seeds; later batches do not change it."""
        gen = self._generation
        gen = _filled(self.graph.vertex_count, NEVER, gen) if type(gen) is dict else gen.copy()
        if self._resumed:
            return percolate(self.graph, np.flatnonzero(gen == 0), self.r)
        return PercolationResult(self.r, gen)

    def _spread_sparse(self, frontier: list[int]) -> None:
        indptr, indices, r = self.graph.indptr, self.graph.indices, self.r
        generation, hits, get_hits = self._generation, self._hits, self._hits.get
        # A frontier holds at most _SPARSE_ENTRIES vertices: the seeds by the rule of
        # add_seeds, a later wave because each vertex was an entry of the last one's rows.
        while frontier:
            rows = [indices[indptr[u] : indptr[u + 1]] for u in frontier]
            if sum(map(len, rows)) > _SPARSE_ENTRIES:
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
            self.rounds += 1
            generation.update(dict.fromkeys(newly, self.rounds))
            self.active_count += len(newly)
            frontier = newly

    def _to_arrays(self) -> None:
        if type(self._generation) is dict:
            n = self.graph.vertex_count
            self._generation, self._hits = _filled(n, NEVER, self._generation), _filled(n, 0, self._hits)

    def _spread_numpy(self, frontier: np.ndarray) -> None:
        left = self.graph.vertex_count - self.active_count
        waves = spread(self.graph, self._generation, frontier, left, self.r, self._hits, self.rounds)
        self.rounds += len(waves)
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
    """Replay a trace and raise ValueError unless it is the run from its seeds.

    The seeds, counts, tau and the contagious flag are read off the map, so
    only the map is checked: its length and values, the activation rule both
    ways (a vertex of generation g >= 1 has at least r neighbors of generation
    at most g - 1, and fewer than r of generation at most g - 2) and fixation
    (every vertex left inactive has fewer than r active neighbors).  Only
    ``percolate``'s map for the generation-0 vertices passes; the first vertex
    at fault, by generation and then id, is named.
    """
    gen, r = result.generation, result.threshold
    if gen.shape != (graph.vertex_count,):
        raise ValueError("generation array has wrong length")
    if np.any(gen < NEVER):
        raise ValueError(f"generation {gen.min()} is neither a round nor NEVER")
    tau = result.tau
    # Rank inactive vertices after every round.  An arc's lag, its row's rank minus
    # its neighbor's, is >= 1 for an earlier neighbor (for an inactive row, an active
    # one) and >= 2 for one active two rounds before; a trailing 0 for rows that start at the end.
    rank = gen.astype(np.int32)
    rank[gen == NEVER] = tau + 1
    lag = np.zeros(graph.indices.size + 1, dtype=np.int32)
    np.subtract(np.repeat(rank, graph.degrees), rank[graph.indices], out=lag[:-1])
    earlier, before = (np.add.reduceat(lag >= k, graph.indptr[:-1], dtype=np.int32) for k in (1, 2))
    isolated = graph.degrees == 0  # reduceat gives an empty row the next row's first flag
    earlier[isolated] = before[isolated] = 0
    bad = np.flatnonzero((gen >= 1) & ((earlier < r) | (before >= r)))
    if bad.size:
        v = int(bad[np.argmin(gen[bad])])
        raise ValueError(
            f"vertex {v} activated in round {gen[v]} with only {earlier[v]} earlier neighbors" if earlier[v] < r
            else f"vertex {v} activated in round {gen[v]} but had {before[v]} active neighbors by round "
            f"{gen[v] - 2}, so it would activate by round {gen[v] - 1}"
        )
    stuck = np.flatnonzero((gen == NEVER) & (earlier >= r))
    if stuck.size:
        v = int(stuck[0])
        raise ValueError(
            f"vertex {v} is inactive with {earlier[v]} active neighbors, "
            f"so it would activate by round {tau + 1}: the trace stops before fixation"
        )
