"""Reference checks for the benchmark, written apart from the package.

Nothing here imports ``contagion``.  A graph is read only through its two
CSR arrays (``indptr`` and ``indices``), and the r-neighbour process is
restated as literally as possible: every round rescans every arc, counts
the active neighbours of each vertex anew and activates every
inactive vertex with at least r of them.  Graphs of at most 64 vertices use
Python int bitmasks for the same rescan, which is cheaper than numpy at
that size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NEVER = -1
_SMALL_N = 64


class CheckError(AssertionError):
    """A program output disagreed with the reference or broke a property."""


class RefGraph:
    """The arcs of a graph, copied out once for many reference runs."""

    def __init__(self, graph):
        self.n = n = int(graph.vertex_count)
        self.indptr = np.asarray(graph.indptr, dtype=np.int64)
        # Gathers through native-width indices run about twice as fast.
        self.heads = np.asarray(graph.indices).astype(np.intp)
        self.degrees = np.diff(self.indptr)
        self.tails = np.repeat(np.arange(n, dtype=np.int32), self.degrees)
        self.edge_count = int(self.heads.size) // 2
        self.masks = None
        if n <= _SMALL_N:
            flat = self.heads.tolist()
            ptr = self.indptr.tolist()
            self.masks = [sum(1 << w for w in flat[ptr[v] : ptr[v + 1]]) for v in range(n)]

    def active_neighbours(self, active: np.ndarray) -> np.ndarray:
        """For every vertex, the number of its neighbours marked active."""
        return np.bincount(self.tails[active[self.heads]], minlength=self.n)

    def generations(self, seeds, r: int) -> np.ndarray:
        """Activation round of every vertex (NEVER if it is never reached)."""
        seeds = sorted(int(s) for s in seeds)
        if self.masks is not None:
            return self._small_generations(seeds, r)
        gen = np.full(self.n, NEVER, dtype=np.int64)
        gen[seeds] = 0
        rnd = 0
        while True:
            active = gen != NEVER
            newly = ~active & (self.active_neighbours(active) >= r)
            if not newly.any():
                return gen
            rnd += 1
            gen[newly] = rnd

    def _small_generations(self, seeds: list[int], r: int) -> np.ndarray:
        masks = self.masks
        gen = [NEVER] * self.n
        active = 0
        for s in seeds:
            gen[s] = 0
            active |= 1 << s
        rnd = 0
        while True:
            newly = [
                v for v in range(self.n) if gen[v] == NEVER and (masks[v] & active).bit_count() >= r
            ]
            if not newly:
                return np.asarray(gen, dtype=np.int64)
            rnd += 1
            for v in newly:
                gen[v] = rnd
                active |= 1 << v

    def closure_mask(self, seed_mask: int, r: int) -> int:
        """Bitmask closure of a bitmask seed set (small graphs only)."""
        masks, active = self.masks, seed_mask
        while True:
            newly = 0
            for v in range(self.n):
                if not (active >> v) & 1 and (masks[v] & active).bit_count() >= r:
                    newly |= 1 << v
            if not newly:
                return active
            active |= newly

    def is_contagious(self, seeds, r: int) -> bool:
        return bool(np.all(self.generations(seeds, r) != NEVER))


def check_trace(ref: RefGraph, result) -> None:
    """Recompute a trace's generation map and compare it exactly.

    The reference stops only after a rescan in which no inactive vertex has
    r active neighbours, so a map equal to it is also at fixation.
    """
    r = int(result.threshold)
    want = ref.generations(result.seeds, r)
    got = np.asarray(result.generation)
    if got.shape != want.shape:
        raise CheckError("generation map has the wrong length")
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero(got != want)[0])
        raise CheckError(f"generation map differs from the reference at vertex {bad}")
    active = want != NEVER
    if int(result.active_count) != int(active.sum()) or bool(result.contagious) != bool(active.all()):
        raise CheckError("active_count or contagious flag disagrees with the reference")
    if int(result.tau) != (int(want.max()) if active.any() else 0):
        raise CheckError("tau disagrees with the reference")


def check_fixation(ref: RefGraph, generation, r: int) -> None:
    """No vertex left inactive may have r or more active neighbours."""
    active = np.asarray(generation) != NEVER
    hits = ref.active_neighbours(active)
    stuck = np.flatnonzero(~active & (hits >= r))
    if stuck.size:
        v = int(stuck[0])
        raise CheckError(
            f"trace stopped before fixation: vertex {v} is inactive with {int(hits[v])} active neighbours"
        )


def check_graph(ref: RefGraph, p: float | None = None, sigmas: float = 6.0) -> None:
    """Symmetric adjacency, no loops, no duplicates; edge count near p*C(n,2)."""
    n = ref.n
    if ref.indptr.shape != (n + 1,) or ref.indptr[0] != 0 or np.any(ref.degrees < 0):
        raise CheckError("row pointer malformed")
    heads = ref.heads
    if heads.size != ref.indptr[-1] or heads.size % 2:
        raise CheckError("arc count inconsistent")
    if heads.size and (heads.min() < 0 or heads.max() >= n):
        raise CheckError("neighbour id out of range")
    if np.any(ref.tails == heads):
        raise CheckError("self-loop present")
    # Arc keys u*n + v: rows sorted and unique make the forward keys strictly
    # increasing, and symmetry makes the reversed keys the same multiset.
    fwd = ref.tails.astype(np.int64)
    fwd *= n
    fwd += heads
    if np.any(fwd[1:] <= fwd[:-1]):
        raise CheckError("duplicate arc or unsorted row")
    rev = heads * n
    rev += ref.tails
    rev.sort()
    if not np.array_equal(fwd, rev):
        raise CheckError("adjacency not symmetric")
    if p is not None:
        pairs = n * (n - 1) / 2.0
        mean = p * pairs
        sd = math.sqrt(pairs * p * (1.0 - p))
        if abs(ref.edge_count - mean) > sigmas * sd:
            raise CheckError(f"edge count {ref.edge_count} is not within {sigmas} sd of {mean:.1f}")


def graphs_equal(a, b) -> bool:
    return (
        int(a.vertex_count) == int(b.vertex_count)
        and np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr))
        and np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
    )


def brute_force_minimum(ref: RefGraph, r: int) -> int:
    """Size of a smallest contagious set, by enumerating subsets by size."""
    if ref.masks is None:
        raise ValueError("brute force is meant for graphs of at most 64 vertices")
    full = (1 << ref.n) - 1
    for k in range(ref.n + 1):
        for cand in itertools.combinations(range(ref.n), k):
            if ref.closure_mask(sum(1 << v for v in cand), r) == full:
                return k
    raise AssertionError("unreachable: the whole vertex set is contagious")


def greedy_fallback_size(ref: RefGraph, r: int) -> int:
    """Size of the fallback rule's set: vertices of degree < r, then the
    inactive vertex of highest degree (lowest id on ties) until contagious."""
    seeds = set(np.flatnonzero(ref.degrees < r).tolist())
    while True:
        gen = ref.generations(seeds, r)
        inactive = np.flatnonzero(gen == NEVER)
        if inactive.size == 0:
            return len(seeds)
        seeds.add(int(inactive[np.argmax(ref.degrees[inactive])]))


def check_minimum_witness(ref: RefGraph, r: int, witness, upper: int) -> None:
    """Properties every minimum contagious set has, checked without search."""
    witness = sorted(int(v) for v in witness)
    low = set(np.flatnonzero(ref.degrees < r).tolist())
    if not low <= set(witness):
        raise CheckError("witness misses a vertex of degree < r")
    if not ref.is_contagious(witness, r):
        raise CheckError("witness is not contagious")
    for v in witness:
        if ref.is_contagious([w for w in witness if w != v], r):
            raise CheckError(f"witness stays contagious without vertex {v}")
    if len(witness) < ref.n - ref.edge_count / r:
        raise CheckError(f"witness size {len(witness)} is below the counting bound n - m/r")
    if len(witness) > upper:
        raise CheckError(f"witness size {len(witness)} is above the fallback size {upper}")
