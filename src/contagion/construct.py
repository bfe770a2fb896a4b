"""Constructing small contagious sets on dense-enough random graphs.

Two procedures live here.  ``construct_contagious`` builds a seed set by a
staged schedule: it grows a ladder of vertex blocks whose sizes double as
the stage index rises, seeding one vertex per connected component inside
each block so that an activated block pays for itself, then lets the
process run and absorbs whatever remains inactive.  On graphs it can
certify nothing about (too sparse, disconnected, or too small for the
schedule) it falls back to mandatory seeds plus greedy completion.

``search_minimal_tuple`` hunts for an r-element contagious set by drawing
r pool vertices, extending them by one pool vertex adjacent to all r, and
percolating the initial r to check the find.  Both procedures re-verify
every returned set with a fresh engine run (the staged run from a01 when
a02 is empty); an unverifiable return is an internal error, never silent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .graph import (
    Graph, checked_int, checked_real, connected_components, count_by_vertex, gather_rows, is_connected)
from .percolation import (
    NEVER, PercolationResult, Percolator, checked_threshold, mandatory_seeds, percolate)

__all__ = [
    "StageParams",
    "IterationRecord",
    "ConstructionTrace",
    "ConstructionError",
    "construct_contagious",
    "TupleSearchParams",
    "search_minimal_tuple",
]

# Mean degree below which the staged schedule refuses and the greedy fallback runs.
_D0_MIN = 4.0


class ConstructionError(RuntimeError):
    """A constructed certificate failed engine re-verification (internal bug)."""


@dataclass(frozen=True)
class StageParams:
    """Knobs of the staged constructor.

    ``c_seed`` scales the initial block size; None picks 1 for r = 2 and 100
    for r >= 3.
    """

    r: int = 2
    c_seed: float | None = None

    def __post_init__(self) -> None:
        checked_threshold(self.r)
        if self.c_seed is not None and not 0 < checked_real(self.c_seed, "c_seed") < math.inf:
            raise ValueError(f"c_seed must be positive and finite, got {self.c_seed}")

    def resolved_c_seed(self) -> float:
        if self.c_seed is not None:
            return float(self.c_seed)
        return 1.0 if self.r == 2 else 100.0


@dataclass
class IterationRecord:
    """Audit record of one ladder iteration."""

    index: int
    s_target: float
    s_i: int
    b_target: int
    b_i: list[int]
    x_i: int
    y_i: int
    selected_components: list[list[int]]
    d_i: list[int]
    c_i: list[int]
    failed: bool
    reason: str | None


@dataclass
class ConstructionTrace:
    """Everything the constructor did, for audit and replay in tests.

    ``final_seeds`` always equals sorted(a01 union a02).  ``fallback_used``
    marks runs that skipped the staged schedule entirely.  ``result`` is the
    engine run that verified the final seeds; it is not serialized.
    """

    ell: int
    d: float
    initial_block: list[int]
    iterations: list[IterationRecord] = field(default_factory=list)
    a01: list[int] = field(default_factory=list)
    a02: list[int] = field(default_factory=list)
    final_seeds: list[int] = field(default_factory=list)
    fallback_used: bool = False
    result: PercolationResult | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        data = asdict(replace(self, result=None))
        del data["result"]
        return data


def construct_contagious(
    graph: Graph, params: StageParams | None = None
) -> tuple[frozenset[int], ConstructionTrace]:
    """Build a verified contagious set for ``graph`` under threshold params.r.

    The procedure is deterministic: block choices break ties toward lower
    vertex ids.  The returned set is always verified contagious by the
    engine before this function returns, and ``trace.result`` holds that
    run: a fresh ``percolate`` of the final set (the staged one from a01 if a02 is empty).
    """
    params = params or StageParams()
    n = graph.vertex_count
    r = params.r
    d = 2.0 * graph.edge_count / n if n else 0.0
    c_seed = params.resolved_c_seed()
    # The initial block's size; compared before int() so that an overflow to inf falls back.
    target = c_seed * n / (d ** (r / (r - 1)) * math.log2(d)) if d > 1.0 else 0.0

    # An initial block of n or more vertices leaves the schedule nothing to grow.
    if d < _D0_MIN or not 1 <= target < n or not is_connected(graph):
        seeds, trace = _fallback_construct(graph, r, d)
    else:
        seeds, trace = _staged_construct(graph, r, d, c_seed, int(target))
    if trace.result is None:
        trace.result = percolate(graph, seeds, r)
    if not trace.result.contagious:
        raise ConstructionError(
            f"constructed set of size {len(seeds)} failed verification "
            f"({trace.result.active_count} of {n} active)"
        )
    return seeds, trace


def _staged_construct(graph, r, d, c_seed, initial_target):
    n = graph.vertex_count
    log_d = math.log2(d)
    exponent = r / (r - 1)
    ell = max(1, math.ceil(math.log2(log_d)))

    initial = list(range(initial_target))
    used = np.zeros(n, dtype=bool)
    used[:initial_target] = True
    used_total = initial_target
    pool_budget = n // 10  # cumulative block consumption cap
    c_prev = np.arange(initial_target, dtype=np.int64)
    iterations: list[IterationRecord] = []
    seed_blocks: list[list[int]] = []

    for i in range(1, ell + 1):
        if r == 2:
            s_target = (log_d - 4.0) / (ell - i + 4.0)
            b_formula = int(d * c_prev.size / 2.0)
        else:
            s_target = log_d / ((ell - i + 1.0) * r * r)
            b_formula = int(
                c_seed ** (r - 1)
                * n
                / (2.0 ** ((ell - i + 1) * (r - 1) + 1) * d * (r - 1) ** (r - 1))
            )
        s_i = max(1, int(math.floor(s_target + 0.5)))
        c_target = int(c_seed * n / (d**exponent * 2.0 ** (ell - i)))

        b_cap = min(b_formula, max(0, pool_budget - used_total))
        # Eligible vertices: r - 1 or more neighbors landing in the previous
        # block's kept core, and not consumed by any earlier block.
        cand, counts = count_by_vertex(gather_rows(graph, c_prev), n)
        eligible = cand[(counts >= r - 1) & ~used[cand]]
        b_i = eligible[:b_cap].astype(np.int64)
        used[b_i] = True
        used_total += int(b_i.size)

        components = connected_components(graph, b_i)
        x_i = len(components)
        y_i = min(x_i, c_target // s_i)
        selected = components[:y_i]
        d_i = [comp[0] for comp in selected]
        pooled: list[int] = []
        for comp in selected:
            pooled.extend(comp)
        c_i = pooled[:c_target]

        failed = False
        reasons = []
        if b_i.size < b_formula:
            failed = True
            reasons.append(f"block supply {int(b_i.size)} short of target {b_formula}")
        if len(c_i) < c_target:
            failed = True
            reasons.append(f"kept core {len(c_i)} short of target {c_target}")
        iterations.append(
            IterationRecord(
                index=i,
                s_target=s_target,
                s_i=s_i,
                b_target=b_formula,
                b_i=[int(v) for v in b_i],
                x_i=x_i,
                y_i=y_i,
                selected_components=selected,
                d_i=d_i,
                c_i=c_i,
                failed=failed,
                reason="; ".join(reasons) if reasons else None,
            )
        )
        seed_blocks.append(d_i)
        c_prev = np.asarray(sorted(c_i), dtype=np.int64)

    a01_set: set[int] = set(initial)
    for block in seed_blocks:
        a01_set.update(block)
    a01 = sorted(a01_set)
    stage_run = percolate(graph, a01, r)
    a02 = np.flatnonzero(stage_run.generation == NEVER).tolist()
    final = sorted(a01_set.union(a02))
    trace = ConstructionTrace(
        ell=ell,
        d=d,
        initial_block=initial,
        iterations=iterations,
        a01=a01,
        a02=a02,
        final_seeds=final,
        fallback_used=False,
        result=None if a02 else stage_run,  # with a02 empty, a fresh run of the final set
    )
    return frozenset(final), trace


def _fallback_construct(graph, r, d):
    """Mandatory seeds plus greedy max-degree completion; always succeeds.

    Each pick, the inactive vertex of highest degree (ties to the lowest id),
    joins one running ``Percolator``.  Active vertices never deactivate, so
    one pointer into the order by (-degree, id) finds every pick: after the
    sort, the completion costs O(n + m) in all.
    """
    base = sorted(mandatory_seeds(graph, r))
    state = Percolator(graph, r).add_seeds(base)
    order = np.argsort(-graph.degrees, kind="stable").tolist()
    additions: list[int] = []
    pos = 0
    while not state.contagious:
        while state.is_active(order[pos]):
            pos += 1
        additions.append(order[pos])
        state.add_seeds(additions[-1:])
    final = sorted(base + additions)
    trace = ConstructionTrace(
        ell=0,
        d=d,
        initial_block=[],
        a01=base,
        a02=sorted(additions),
        final_seeds=final,
        fallback_used=True,
    )
    return frozenset(final), trace


@dataclass(frozen=True)
class TupleSearchParams:
    """Knobs of the r-tuple search.

    The helper ``for_graph`` sets the iteration budget to n // (2(r + 1)).
    """

    r: int = 2
    max_iterations: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", checked_threshold(self.r))
        object.__setattr__(self, "max_iterations", checked_int(self.max_iterations, "max_iterations", 1))
        object.__setattr__(self, "rng_seed", checked_int(self.rng_seed, "rng_seed"))

    @classmethod
    def for_graph(cls, n: int, r: int = 2, rng_seed: int = 0) -> "TupleSearchParams":
        return cls(r=r, max_iterations=max(1, n // (2 * (r + 1))), rng_seed=rng_seed)


# Iterations the search draws and scores in one numpy pass.  On the searches of
# one threshold round at n = 20000, caps of 128 to 512 took the same time within
# noise; 64 and 1024 were slower.
_BATCH = 256


def search_minimal_tuple(
    graph: Graph, params: TupleSearchParams
) -> tuple[frozenset[int], PercolationResult] | None:
    """Look for an r-set whose activation reaches the whole graph.

    Each iteration draws r pool vertices and extends them by one pool vertex
    that has all r as neighbors (the smallest such id is taken).  A completed
    chain is judged by a fresh, sparse-first ``Percolator`` from the r initial
    vertices; a contagious run is returned, anything else dumps the used
    vertices from the pool and iterates.  Returns None when the iteration
    budget or the pool runs out.

    Up to ``_BATCH`` iterations run as one batch: their draws come from one
    ``rng.integers(size=m)`` call, which yields the values of m scalar draws,
    and one sort of the keys ``iteration * n + w`` over the chosen rows finds
    every iteration's common neighbours.  The iterations with a candidate are
    then handled in order; when an extension was drawn by a later iteration of
    the batch, the batch is cut back to that iteration and its draws are
    replayed in the next, so the finds are those of the one-iteration-at-a-time
    search.
    """
    n = graph.vertex_count
    r = params.r
    k = r + 1
    if n < k:
        raise ValueError("graph smaller than r + 1")
    rng = np.random.Generator(np.random.PCG64(params.rng_seed))
    pool = np.ones(n, dtype=bool)
    pool_size = n
    draws, done = np.empty(0, dtype=np.int64), 0

    while done < params.max_iterations and pool_size >= k:
        # An iteration takes at most k vertices, so none in the batch finds fewer than k.
        size = min(params.max_iterations - done, pool_size // k, _BATCH)
        while True:  # a draw is taken if its vertex is in the pool and not drawn before it
            first = np.zeros(draws.size, dtype=bool)
            first[np.unique(draws, return_index=True)[1]] = True
            taken = np.flatnonzero(first & pool[draws])
            need = r * size - taken.size
            if need <= 0:
                break
            need = need * n // (pool_size - taken.size) + r  # expected draws for the rest
            draws = np.concatenate([draws, rng.integers(0, n, size=need)])
        taken = taken[: r * size]
        rows = draws[taken]
        pool[rows] = False
        pool_size -= rows.size
        chain = rows.tolist()
        chosen_at = dict(zip(chain, (np.arange(rows.size) // r).tolist()))
        starts = [0, *(taken[r - 1 : -1 : r] + 1).tolist()]  # each iteration's first draw
        pos = int(taken[-1]) + 1

        keys = gather_rows(graph, rows).astype(np.int64)
        keys += np.repeat(np.arange(rows.size, dtype=np.int64) // r * n, graph.degrees[rows])
        keys.sort()
        end, last = size, -1
        common = keys[r - 1 :]  # keys met r times: each row holds a vertex at most once
        for key in common[common == keys[: common.size]].tolist():
            i, w = divmod(key, n)  # w neighbours all r chosen of iteration i
            if i >= end:
                break
            if i == last or not (pool[w] or i < chosen_at.get(w, -1) < end):
                continue
            last = i
            j = chosen_at.get(w, end)
            if j < end:  # iteration j drew w, which leaves the pool first: replay from j
                pool[rows[r * j : r * end]] = True
                pool_size += r * (end - j)
                end, pos = j, starts[j]
            pool[w] = False
            pool_size -= 1
            seeds = chain[r * i : r * i + r]
            state = Percolator(graph, r).add_seeds(seeds)
            if state.contagious:
                return frozenset(seeds), state.result()
        done += end
        draws = draws[pos:]
    return None
