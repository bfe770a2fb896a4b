"""Exact minimum contagious set by iterative-deepening enumeration.

Meant for small instances (tens of vertices).  Degree-deficient vertices
can never be activated, so every candidate set is forced to contain them;
enumeration then deepens over how many free vertices are added.  Each
search node's closure extends its parent's: the child is a copy of the
parent's ``Percolator`` state with one more seed, so a node pays only for
the vertices its seed activates.  Two sound prunes keep the tree small: a
vertex already inside the running closure is never added (a smaller witness
would have been found at an earlier depth), and subtrees whose (depth,
closure) signature was already explored from a smaller candidate pool are
skipped; the signature holds the closure as an int bitmask.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graph import Graph
from .percolation import Percolator, checked_threshold, mandatory_seeds, percolate

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

    def extend(closure: Percolator, seeds) -> Percolator:
        nonlocal tests
        if tests >= node_budget:
            raise _BudgetExceeded
        tests += 1
        return closure.copy().add_seeds(seeds)

    base = extend(Percolator(graph, r), mandatory)
    if base.contagious:
        return ExactResult(len(mandatory), frozenset(mandatory), tests, "exact")

    mand_set = set(mandatory)
    free = [v for v in range(n) if v not in mand_set]

    for extra in range(1, len(free) + 1):
        size = len(mandatory) + extra
        memo: dict[tuple[int, int], int] = {}

        def dfs(start: int, closure: Percolator, slots: int, chosen: list[int]):
            for idx in range(start, len(free) - slots + 1):
                v = free[idx]
                if closure.is_active(v):
                    continue  # adding it changes nothing; smaller depths failed
                child = extend(closure, [v])
                if child.contagious:
                    if slots != 1:
                        raise SolverInternalError(
                            "full closure reached above the current depth"
                        )
                    return chosen + [v]
                if slots == 1:
                    continue
                key = (slots - 1, child.active_mask)
                prev = memo.get(key)
                if prev is not None and prev <= idx:
                    continue
                memo[key] = idx
                found = dfs(idx + 1, child, slots - 1, chosen + [v])
                if found is not None:
                    return found
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
