"""Lower-bound machinery: edge-density witnesses, the critical random-seed
size formula, and the random recursive DAG that bounds generation counts.

The density witness rests on a counting fact about any valid trace: each
non-seed activation consumes r edges to strictly earlier vertices, so the
seeds plus the earliest t - t0 activations must span at least r * (t - t0)
edges.  A sparse subgraph on that prefix refutes the trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph, induced_edge_count
from .percolation import NEVER, PercolationResult, checked_threshold

__all__ = [
    "DensityWitnessReport",
    "density_witness",
    "critical_random_seed_size",
    "GenerationsDag",
    "sample_generations_dag",
    "h2k_longest_path",
]


@dataclass(frozen=True)
class DensityWitnessReport:
    """Edge count over the earliest activation prefix versus the floor it owes."""

    t0: int
    t: int
    edges_found: int
    edges_required: int

    @property
    def holds(self) -> bool:
        return self.edges_found >= self.edges_required

    def to_json_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def density_witness(graph: Graph, result: PercolationResult, t: int) -> DensityWitnessReport:
    """Check the prefix edge-density bound on a percolation trace.

    The prefix is the first t active vertices of the generation map, ordered
    by generation with ties broken by vertex id: the t0 seeds, then the
    t - t0 earliest activations.  ``t`` must lie between the seed count and
    the active count.
    """
    t0 = len(result.seeds)
    if not (t0 <= t <= result.active_count):
        raise ValueError(
            f"t={t} out of range [{t0}, {result.active_count}] for this trace"
        )
    gen = result.generation
    active = np.flatnonzero(gen != NEVER)  # by id, then stably by generation
    prefix = active[np.argsort(gen[active], kind="stable")[:t]]
    edges_found = induced_edge_count(graph, prefix)
    edges_required = result.threshold * (t - t0)
    return DensityWitnessReport(
        t0=t0, t=t, edges_found=edges_found, edges_required=edges_required
    )


def critical_random_seed_size(n: int, p: float, r: int) -> float:
    """Size scale where a uniformly random seed set tips into full cascade.

    Computes (1 - 1/r) * ((r-1)! / (n * p^r)) ** (1 / (r-1)).  Random sets
    a constant factor above this almost surely activate nearly everything;
    sets a constant factor below almost surely stall near their own size.
    Meaningful in the sparse regime 1/n << p << n^(-1/r).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    r = checked_threshold(r)
    return (1.0 - 1.0 / r) * (math.factorial(r - 1) / (n * p**r)) ** (1.0 / (r - 1))


@dataclass(frozen=True)
class GenerationsDag:
    """Random recursive DAG: vertex i >= 2 points to two distinct earlier vertices.

    ``arcs[i - 2]`` holds the two targets of vertex i.  The longest directed
    path length models how many generations a near-critical cascade can
    chain together.
    """

    k: int
    arcs: tuple[tuple[int, int], ...]

    def longest_path(self) -> int:
        """Longest directed path length, by dynamic programming in index order."""
        if self.k < 3:
            return 0
        depth = [0] * self.k
        for i in range(2, self.k):
            a, b = self.arcs[i - 2]
            depth[i] = 1 + max(depth[a], depth[b])
        return max(depth)


def sample_generations_dag(k: int, rng_seed: int = 0) -> GenerationsDag:
    """Draw the two-arc recursive DAG on k vertices."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k == 2:
        return GenerationsDag(k=2, arcs=())
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    highs = np.arange(2, k, dtype=np.int64)
    first = rng.integers(0, highs)
    second = rng.integers(0, highs - 1)
    second = second + (second >= first)  # distinct pair, uniform over ordered pairs
    arcs = tuple(zip(first.tolist(), second.tolist()))
    return GenerationsDag(k=k, arcs=arcs)


def h2k_longest_path(k: int, rng_seed: int = 0) -> int:
    """Longest path of one sampled recursive DAG; stays below 40 * ln k w.h.p."""
    return sample_generations_dag(k, rng_seed).longest_path()
