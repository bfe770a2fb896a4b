"""The reference checker on hand-built graphs whose closures are known."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import refcheck  # noqa: E402
from refcheck import NEVER, CheckError, RefGraph  # noqa: E402


def csr(n, edges):
    """A graph as the checker reads it: vertex_count, indptr, indices."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.array([w for row in rows for w in sorted(row)], dtype=np.int32)
    return SimpleNamespace(vertex_count=n, indptr=indptr, indices=indices)


def trace(generation, seeds, r):
    gen = np.asarray(generation, dtype=np.int64)
    active = gen != NEVER
    return SimpleNamespace(
        threshold=r,
        seeds=frozenset(seeds),
        generation=gen,
        tau=int(gen.max()) if active.any() else 0,
        active_count=int(active.sum()),
        contagious=bool(active.all()),
    )


PATH5 = csr(5, [(i, i + 1) for i in range(4)])
STAR6 = csr(6, [(0, i) for i in range(1, 6)])
K4_ISO = csr(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
PETERSEN = csr(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    + [(i, i + 5) for i in range(5)]
    + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def big_path(n):
    """A path long enough to take the numpy rescan, not the bitmask one."""
    return csr(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize(
    "graph, seeds, r, want",
    [
        (PATH5, [0, 2, 4], 2, [0, 1, 0, 1, 0]),
        (PATH5, [0, 4], 2, [0, NEVER, NEVER, NEVER, 0]),
        (STAR6, [1, 2], 2, [1, 0, 0, NEVER, NEVER, NEVER]),
        (STAR6, [1, 2, 3, 4, 5], 2, [1, 0, 0, 0, 0, 0]),
        (K4_ISO, [0, 1], 2, [0, 0, 1, 1, NEVER]),
        (K4_ISO, [0, 1], 3, [0, 0, NEVER, NEVER, NEVER]),
        (K4_ISO, [0, 1, 2], 3, [0, 0, 0, 1, NEVER]),
    ],
)
def test_known_closures(graph, seeds, r, want):
    assert RefGraph(graph).generations(seeds, r).tolist() == want


def test_petersen_closure_from_a_decycling_set():
    # Removing {0, 2, 8} leaves a forest, so under r = 2 (every degree is 3)
    # the set spreads to the whole graph.
    gen = RefGraph(PETERSEN).generations([0, 2, 8], 2)
    assert np.all(gen != NEVER)
    assert gen[1] == 1  # both of 1's outer neighbours are seeds


def test_numpy_and_bitmask_rescans_agree():
    rng = np.random.default_rng(5)
    n = 40
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12]
    small = RefGraph(csr(n, edges))
    assert small.masks is not None
    dense = RefGraph(csr(n, edges))
    dense.masks = None  # force the numpy rescan
    for r in (2, 3):
        for _ in range(20):
            seeds = rng.choice(n, size=int(rng.integers(1, 8)), replace=False).tolist()
            assert small.generations(seeds, r).tolist() == dense.generations(seeds, r).tolist()


def test_brute_force_minimum():
    assert refcheck.brute_force_minimum(RefGraph(PATH5), 2) == 3
    assert refcheck.brute_force_minimum(RefGraph(STAR6), 2) == 5
    assert refcheck.brute_force_minimum(RefGraph(K4_ISO), 2) == 3
    assert refcheck.brute_force_minimum(RefGraph(K4_ISO), 3) == 4
    assert refcheck.brute_force_minimum(RefGraph(PETERSEN), 2) == 3


def test_greedy_fallback_size():
    assert refcheck.greedy_fallback_size(RefGraph(STAR6), 2) == 5
    assert refcheck.greedy_fallback_size(RefGraph(K4_ISO), 2) == 3


def test_check_trace_accepts_a_true_trace():
    ref = RefGraph(big_path(200))
    seeds = list(range(0, 200, 2)) + [199]
    refcheck.check_trace(ref, trace(ref.generations(seeds, 2), seeds, 2))


def test_check_trace_rejects_a_wrong_generation():
    ref = RefGraph(K4_ISO)
    with pytest.raises(CheckError, match="differs"):
        refcheck.check_trace(ref, trace([0, 0, 1, 2, NEVER], [0, 1], 2))


def test_fixation_catches_a_trace_cut_short():
    # The cut-off map is self-consistent, so only the fixation check sees it.
    ref = RefGraph(big_path(200))
    seeds = list(range(0, 200, 2))
    gen = ref.generations(seeds, 2)
    cut = gen.copy()
    cut[[1, 3]] = NEVER
    with pytest.raises(CheckError, match="fixation"):
        refcheck.check_fixation(ref, cut, 2)
    with pytest.raises(CheckError):
        refcheck.check_trace(ref, trace(cut, seeds, 2))


def test_check_graph_accepts_a_simple_graph():
    refcheck.check_graph(RefGraph(PETERSEN), p=15 / 45)


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([0, 1, 1], [1], "arc count|symmetric"),  # arc 0->1 without 1->0
        ([0, 2, 2], [0, 1], "arc count|self-loop"),
        ([0, 2, 4], [1, 1, 0, 0], "duplicate"),
        ([0, 1, 2, 2], [1, 2], "symmetric"),
    ],
)
def test_check_graph_rejects_broken_adjacency(indptr, indices, message):
    n = len(indptr) - 1
    graph = SimpleNamespace(vertex_count=n, indptr=np.array(indptr), indices=np.array(indices, dtype=np.int32))
    with pytest.raises(CheckError, match=message):
        refcheck.check_graph(RefGraph(graph))


def test_check_graph_rejects_an_improbable_edge_count():
    with pytest.raises(CheckError, match="sd"):
        refcheck.check_graph(RefGraph(big_path(200)), p=0.5)


def test_minimum_witness_checks():
    ref = RefGraph(K4_ISO)
    refcheck.check_minimum_witness(ref, 2, [0, 1, 4], upper=3)
    with pytest.raises(CheckError, match="without vertex"):
        refcheck.check_minimum_witness(ref, 2, [0, 1, 2, 4], upper=4)
    with pytest.raises(CheckError, match="degree < r"):
        refcheck.check_minimum_witness(ref, 2, [0, 1], upper=3)
    with pytest.raises(CheckError, match="not contagious"):
        refcheck.check_minimum_witness(ref, 2, [0, 4], upper=3)
    with pytest.raises(CheckError, match="above the fallback"):
        refcheck.check_minimum_witness(ref, 2, [0, 1, 4], upper=2)
