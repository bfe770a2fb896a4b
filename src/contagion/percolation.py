"""The r-neighbor activation process, run in synchronous rounds to fixation.

A vertex activates in round g when at least r of its neighbors were active
after round g - 1; seeds are active in round 0 and nothing ever deactivates.
The engine keeps a per-vertex count of active neighbors and only ever touches
the frontier's adjacency rows, so a full run costs O(n + m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .graph import Graph, as_vertex_array, gather_rows

__all__ = ["NEVER", "PercolationResult", "percolate", "mandatory_seeds", "validate_result"]

# Generation value for vertices the process never reaches; JSON uses null.
NEVER = -1

# Below this many vertices the plain-Python engine beats numpy call overhead,
# which matters for the exact solver's thousands of closure computations.
_SMALL_N = 512


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


def percolate(graph: Graph, seeds: Iterable[int], r: int) -> PercolationResult:
    """Run the threshold-r process from ``seeds`` until no vertex activates.

    Raises ValueError for r < 2 or out-of-range seed ids.  The result is a
    pure function of (graph, seeds, r).
    """
    if int(r) != r or r < 2:
        raise ValueError("activation threshold r must be an integer >= 2")
    r = int(r)
    n = graph.vertex_count
    seed_arr = as_vertex_array(seeds, n, what="seed")
    if n <= _SMALL_N:
        generation, per_round = _percolate_python(graph, seed_arr, r)
    else:
        generation, per_round = _percolate_numpy(graph, seed_arr, r)
    active_count = int(seed_arr.size + sum(per_round))
    return PercolationResult(
        threshold=r,
        seeds=frozenset(seed_arr.tolist()),
        generation=generation,
        tau=len(per_round),
        contagious=active_count == n,
        active_count=active_count,
        per_round_counts=tuple(per_round),
    )


def _percolate_numpy(graph: Graph, seed_arr: np.ndarray, r: int):
    n = graph.vertex_count
    generation = np.full(n, NEVER, dtype=np.int64)
    generation[seed_arr] = 0
    hits = np.zeros(n, dtype=np.int64)
    frontier = seed_arr
    per_round: list[int] = []
    g = 0
    while frontier.size:
        nbrs = gather_rows(graph, frontier)
        if nbrs.size == 0:
            break
        cand, counts = np.unique(nbrs, return_counts=True)
        hits[cand] += counts
        newly = cand[(hits[cand] >= r) & (generation[cand] == NEVER)]
        if newly.size == 0:
            break
        g += 1
        generation[newly] = g
        per_round.append(int(newly.size))
        frontier = newly.astype(np.int64)
    return generation, per_round


def _percolate_python(graph: Graph, seed_arr: np.ndarray, r: int):
    n = graph.vertex_count
    adjacency = graph.adjacency
    generation = [NEVER] * n
    hits = [0] * n
    frontier = seed_arr.tolist()
    for s in frontier:
        generation[s] = 0
    per_round: list[int] = []
    g = 0
    while frontier:
        newly: list[int] = []
        for u in frontier:
            for w in adjacency[u]:
                if generation[w] == NEVER:
                    h = hits[w] + 1
                    hits[w] = h
                    if h == r:  # crossing happens exactly once per vertex
                        newly.append(w)
        if not newly:
            break
        g += 1
        for w in newly:
            generation[w] = g
        per_round.append(len(newly))
        frontier = newly
    return np.asarray(generation, dtype=np.int64), per_round


def mandatory_seeds(graph: Graph, r: int) -> frozenset[int]:
    """Vertices of degree below r: they can never be activated, only seeded."""
    if int(r) != r or r < 2:
        raise ValueError("activation threshold r must be an integer >= 2")
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
    rank = np.where(gen == NEVER, tau + 1, gen)
    degrees = graph.degrees
    earlier = rank[graph.indices] < np.repeat(rank, degrees)
    owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
    earlier_count = np.bincount(owners[earlier], minlength=n)
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
