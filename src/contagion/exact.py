"""Exact minimum contagious set by iterative-deepening enumeration.

Meant for small instances (tens of vertices).  Degree-deficient vertices
can never be activated, so every candidate set contains them; enumeration
deepens over how many free vertices are added, in id order, so the first
set found is the lexicographically first minimum.  Each solve builds Python
lists of the rows from the CSR arrays once, and its closures step on them.
A node's closure is a pair: the active-neighbour counts ``hits`` (a list) and
the active set as an int bitmask.  A child copies its parent's ``hits`` and
grows the pair by one more seed, so it pays only for what that seed
activates.  Each prune skips
only sets that cannot be contagious: a candidate already active (a smaller
depth failed), one inside the closure of an earlier sibling whose subtree
failed (every set under it closes inside one under that sibling), a last
seed that starts no wave unless it is the one inactive vertex (it activates
itself alone).

A fort is a nonempty set whose members each have fewer than r neighbours
outside it, so a closure meets a fort only if a seed lies in it.  Deepening
starts at the size of a greedy packing of disjoint forts; a child is skipped
if its seeds leave more unhit forts than seeds to come, or one wholly before it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass

from .graph import Graph, checked_int
from .percolation import checked_threshold, mandatory_seeds, percolate

__all__ = ["ExactResult", "min_contagious_exact", "DEFAULT_NODE_BUDGET"]

DEFAULT_NODE_BUDGET = 10_000_000


class SolverInternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve.

    ``status`` is "exact" when the enumeration finished, in which case
    ``witness`` is the lexicographically first minimum contagious set.  On
    "budget_exceeded", ``size`` is the size level that was being explored
    (a lower bound on the true minimum, and at least the mandatory count plus
    the size of the fort packing) and ``witness`` is None.
    ``nodes_explored`` counts contagion tests, the dominant cost.
    """

    size: int
    witness: frozenset[int] | None
    nodes_explored: int
    status: str

    def to_json_dict(self) -> dict:
        witness = sorted(self.witness) if self.witness is not None else None
        return {**asdict(self), "witness": witness}


def min_contagious_exact(
    graph: Graph, r: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Minimum size of a contagious set under threshold r, with witness."""
    checked_threshold(r)
    node_budget = checked_int(node_budget, "node_budget", 1)  # the packing stops at balls == node_budget
    n, flat, bounds = graph.vertex_count, graph.indices.tolist(), graph.indptr.tolist()
    adjacency = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    full = (1 << n) - 1
    mandatory = sorted(mandatory_seeds(graph, r))
    tests = 0

    def extend(hits: list[int], mask: int, seeds: list[int]) -> tuple[list[int], int]:
        nonlocal tests
        if tests >= node_budget:
            raise _BudgetExceeded
        tests += 1
        hits = hits.copy()
        return hits, _grow(adjacency, r, hits, mask, seeds)

    base_hits, base = extend([0] * n, 0, mandatory)
    if base == full:
        return ExactResult(len(mandatory), frozenset(mandatory), tests, "exact")

    mand_set = set(mandatory)
    free = [v for v in range(n) if v not in mand_set]
    forts = _fort_packing(adjacency, r, free, node_budget)

    for extra in range(max(1, len(forts)), len(free) + 1):
        size = len(mandatory) + extra

        def dfs(start: int, hits: list[int], mask: int, slots: int, chosen: list[int]):
            # bits of the candidates to skip; failed siblings add their closures
            skip = mask if slots > 1 else _dead_last_seeds(adjacency, r, hits, mask)
            # each unhit fort needs a seed of its own from here, by its last vertex
            unhit = [(last, bits) for last, bits in forts if not bits & mask]
            if len(unhit) == slots:
                skip |= ~sum(bits for _, bits in unhit)
            stop = min([len(free) - slots] + [last for last, _ in unhit]) + 1
            for idx in range(start, stop):
                v = free[idx]
                if skip >> v & 1:
                    continue
                child_hits, child = extend(hits, mask, [v])
                if child == full:
                    if slots != 1:
                        raise SolverInternalError(
                            "full closure reached above the current depth"
                        )
                    return chosen + [v]
                if slots > 1:
                    found = dfs(idx + 1, child_hits, child, slots - 1, chosen + [v])
                    if found is not None:
                        return found
                # v's subtree failed, and so would any later candidate's inside it
                skip |= child
            return None

        try:
            picked = dfs(0, base_hits, base, extra, [])
        except _BudgetExceeded:
            return ExactResult(size, None, tests, "budget_exceeded")
        if picked is not None:
            witness = frozenset(mandatory) | frozenset(picked)
            verify = percolate(graph, witness, r)
            if not verify.contagious:
                raise SolverInternalError("exact witness failed re-verification")
            return ExactResult(size, witness, tests, "exact")
    # Seeding every vertex is always contagious, so the loop cannot fall
    # through; reaching here means the free list missed something.
    raise SolverInternalError("enumeration exhausted without a witness")


def _grow(adjacency: list[list[int]], r: int, hits: list[int], mask: int, seeds: list[int]) -> int:
    """Seed ``seeds``, inactive vertices of the closure (``hits``, ``mask``), and
    grow it to fixation in place; returns the new active-set bitmask.

    A seed gets ``hits = r`` and every activation adds one to each neighbour's
    count, so active vertices hold at least r, and a vertex activates at the
    one time its count reaches r: no inactive check is needed.
    """
    for v in seeds:
        hits[v] = r
        mask |= 1 << v
    stack = list(seeds)
    while stack:
        for w in adjacency[stack.pop()]:
            h = hits[w] + 1
            hits[w] = h
            if h == r:
                stack.append(w)
                mask |= 1 << w
    return mask


def _dead_last_seeds(adjacency: list[list[int]], r: int, hits: list[int], mask: int) -> int:
    """Bits of the vertices that cannot be the seed that makes the closure
    (``hits``, ``mask``) contagious: the active ones, and those that start no
    wave unless only one vertex is inactive.  Seeding u starts a wave exactly
    when an inactive neighbour of u has r - 1 active ones, and only inactive
    vertices hold a count below r."""
    if len(hits) - mask.bit_count() < 2:
        return mask
    starters, w = 0, -1
    for _ in range(hits.count(r - 1)):
        w = hits.index(r - 1, w + 1)  # list scans run at C speed
        for u in adjacency[w]:
            starters |= 1 << u
    return mask | ~starters


def _fort_packing(adjacency: list[list[int]], r: int, free: list[int], max_balls: int) -> list[tuple[int, int]]:
    """Disjoint forts among ``free`` (sorted ids), as (index of the last vertex in
    ``free``, bitmask): in id order, peel each unused vertex's radius-1, then
    radius-2, ball and take a nonempty rest shrunk to a minimal fort; stop after ``max_balls``."""
    unused, forts, balls = set(free), [], 0
    for v in free:
        ball = {v}
        for _ in range(2 if v in unused else 0):  # radius 1, then 2
            if balls == max_balls:
                return forts
            balls += 1
            ball |= {w for u in ball for w in adjacency[u] if w in unused}
            fort = _peel(adjacency, r, set(ball))
            for u in sorted(fort):
                if u in fort:  # keep the fort left without u, if any
                    fort = _peel(adjacency, r, fort - {u}) or fort
            if fort:
                unused -= fort
                forts.append((bisect_left(free, max(fort)), sum(1 << u for u in fort)))
                break
    return forts


def _peel(adjacency: list[list[int]], r: int, left: set[int]) -> set[int]:
    """Shrink ``left`` in place to its largest fort (maybe empty) and return it."""
    outside = {u: sum(w not in left for w in adjacency[u]) for u in left}
    drop = [u for u, k in outside.items() if k >= r]
    for u in drop:  # a member is queued once, when its count first reaches r
        left.remove(u)
        for w in adjacency[u]:
            if w in left:
                outside[w] += 1
                if outside[w] == r:
                    drop.append(w)
    return left
