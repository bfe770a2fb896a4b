"""Exact minimum contagious set by iterative-deepening enumeration.

Meant for small instances (tens of vertices).  Degree-deficient vertices
can never be activated, so every candidate set contains them; enumeration
deepens over how many free vertices are added, in id order, so the first
set found is the lexicographically first minimum.  A child node is a copy
of its parent's ``Percolator`` state (on the list path at every n, so each
closure is an int bitmask) with one more seed, so it pays only for what
that seed activates.  Each prune skips only sets that cannot be contagious:
a candidate already active (a smaller depth failed), one inside the closure
of an earlier sibling whose subtree failed (every set under it closes
inside one under that sibling), a last seed that starts no wave unless it
is the one inactive vertex (it activates itself alone), and a subtree whose
(depth, closure) signature was explored from a candidate pool at least as
large.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graph import Graph
from .percolation import Percolator, _list_state, checked_threshold, mandatory_seeds, percolate

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
    (a lower bound on the true minimum) and ``witness`` is None.
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
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    n = graph.vertex_count
    mandatory = sorted(mandatory_seeds(graph, r))
    tests = 0

    def extend(closure: Percolator, seeds: list[int]) -> Percolator:
        nonlocal tests
        if tests >= node_budget:
            raise _BudgetExceeded
        tests += 1
        return closure.copy()._seed(seeds)

    base = extend(_list_state(graph, r), mandatory)
    if base.contagious:
        return ExactResult(len(mandatory), frozenset(mandatory), tests, "exact")

    mand_set = set(mandatory)
    free = [v for v in range(n) if v not in mand_set]

    for extra in range(1, len(free) + 1):
        size = len(mandatory) + extra
        memo: dict[tuple[int, int], int] = {}

        def dfs(start: int, closure: Percolator, slots: int, chosen: list[int]):
            # bits of the candidates to skip; failed siblings add their closures
            skip = closure.active_mask if slots > 1 else _dead_last_seeds(closure)
            for idx in range(start, len(free) - slots + 1):
                v = free[idx]
                if skip >> v & 1:
                    continue
                child = extend(closure, [v])
                if child.contagious:
                    if slots != 1:
                        raise SolverInternalError(
                            "full closure reached above the current depth"
                        )
                    return chosen + [v]
                if slots > 1:
                    key = (slots - 1, child.active_mask)
                    prev = memo.get(key)
                    if prev is None or prev > idx:
                        memo[key] = idx
                        found = dfs(idx + 1, child, slots - 1, chosen + [v])
                        if found is not None:
                            return found
                # v's subtree failed, and so would any later candidate's inside it
                skip |= child.active_mask
            return None

        try:
            picked = dfs(0, base, extra, [])
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


def _dead_last_seeds(closure: Percolator) -> int:
    """Bits of the vertices that cannot be the seed that makes ``closure``
    contagious: the active ones, and those that start no wave unless only
    one vertex is inactive."""
    if closure.graph.vertex_count - closure.active_count < 2:
        return closure.active_mask
    return ~closure._wave_starters()
