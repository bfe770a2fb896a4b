"""Shared fixtures and reference oracles.

The oracles here restate the definitions as literally as possible (full
rescans, pairwise edge checks, subset enumeration) so that the optimized
implementations are tested against independent code, not against
themselves.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from contagion import Graph, GraphFormatError
from contagion import graph as graph_module

_REAL_PULL = graph_module._pull

# Push/pull rules of graph.spread, as stand-ins for graph._pull: the package's
# own; every wave pushes; every wave whose push would gather anything pulls.
WAVE_RULES = {
    "auto": _REAL_PULL,
    "push": lambda indptr, label, push, n: None,
    "pull": lambda indptr, label, push, n: _REAL_PULL(indptr, label, math.inf, -1) if push else None,
}


@contextmanager
def wave_rule(rule):
    """Run every wave of graph.spread by the given rule."""
    with mock.patch.object(graph_module, "_pull", WAVE_RULES[rule]):
        yield


@contextmanager
def gathered():
    """Record how many adjacency entries each row gather in graph returns."""
    sizes = []
    real = graph_module._gather

    def spy(*args):
        rows = real(*args)
        sizes.append(rows.size)
        return rows

    with mock.patch.object(graph_module, "_gather", spy):
        yield sizes


def adjacency_lists(graph):
    """The sorted neighbour rows of ``graph`` as Python lists, read off its CSR arrays."""
    indptr, indices = graph.indptr, graph.indices
    return [indices[indptr[v] : indptr[v + 1]].tolist() for v in range(graph.vertex_count)]


def adjacency_sets(edges, n):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def naive_percolate(adj, seeds, r):
    """Reference activation process: full rescan every round.

    Returns (generation dict for activated vertices, tau).
    """
    active = set(seeds)
    gen = {v: 0 for v in active}
    t = 0
    while True:
        newly = {
            v
            for v in adj
            if v not in active and len(adj[v] & active) >= r
        }
        if not newly:
            return gen, t
        t += 1
        for v in newly:
            gen[v] = t
        active |= newly


def naive_tuple_search(graph, r, budget, seed, judged=None):
    """Reference tuple search: one iteration at a time, scalar draws, a Counter per chain.

    Returns (sorted tuple, tau, per_round_counts) of the first contagious chain,
    judged by ``naive_percolate``, or None when the budget or the pool runs out.
    The r initial vertices of every judged chain are appended to ``judged``.
    """
    n = graph.vertex_count
    adj = adjacency_lists(graph)
    adj_sets = {v: set(row) for v, row in enumerate(adj)}
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = set(range(n))
    for _ in range(budget):
        if len(pool) < r + 1:
            return None
        chosen = []
        while len(chosen) < r:
            v = int(rng.integers(0, n))
            if v in pool:
                pool.remove(v)
                chosen.append(v)
        counts = Counter(w for v in chosen for w in adj[v])
        ready = [w for w, c in counts.items() if c >= r and w in pool]
        if not ready:
            continue
        pool.remove(min(ready))
        if judged is not None:
            judged.append(chosen)
        gen, tau = naive_percolate(adj_sets, chosen, r)
        if len(gen) == n:
            per_round = Counter(gen.values())
            return sorted(chosen), tau, tuple(per_round[t] for t in range(1, tau + 1))
    return None


def naive_components(adj, restrict=None):
    """BFS components, sorted largest first then by smallest vertex."""
    allowed = set(adj) if restrict is None else set(restrict)
    seen = set()
    comps = []
    for start in sorted(allowed):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w in allowed and w not in comp:
                        comp.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= comp
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def naive_induced_edges(edges, subset):
    inside = set(subset)
    return sum(1 for u, v in edges if u in inside and v in inside)


def naive_min_contagious(adj, r, n):
    """Exhaustive minimum contagious set by subset enumeration; subsets of each
    size come in lexicographic order, so the set is the first minimum."""
    for k in range(0, n + 1):
        for cand in itertools.combinations(range(n), k):
            gen, _ = naive_percolate(adj, cand, r)
            if len(gen) == n:
                return k, set(cand)
    raise AssertionError("unreachable: V itself is contagious")


def reference_csr(n, us, vs):
    """CSR of the pairs u < v by one stable argsort of all 2m arcs by (row, neighbour)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    order = np.argsort(src * np.int64(n) + dst, kind="stable")
    return Graph(n, indptr, dst[order].astype(np.int32))


def reference_from_edges(n, edges):
    """Per-pair loop with a seen set; the first bad pair raises, named by its index."""
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    seen = set()
    us, vs = [], []
    for i, (u, v) in enumerate(edges):
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError(f"pair {i}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"pair {i}: edge ({u}, {v}) out of range for {n} vertices")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"pair {i}: duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        us.append(key[0])
        vs.append(key[1])
    return reference_csr(n, us, vs)


def reference_fields(raw: bytes) -> list[bytes]:
    """The fields of one line read in binary: an LF or CRLF ending stripped, split at spaces and tabs."""
    return re.findall(rb"[^ \t]+", re.sub(rb"\r?\n\Z", b"", raw))


def reference_load_edge_list(path):
    """Per-line reader on bytes, with the README's byte rule: lines end in LF or
    CRLF, fields split at spaces and tabs, ids are ASCII digits; the first bad
    line raises."""
    with open(path, "rb") as fh:
        parts = reference_fields(fh.readline())
        if len(parts) != 2:
            raise GraphFormatError("line 1: expected header 'n m'")
        if not all(part.isdigit() for part in parts):
            raise GraphFormatError("line 1: expected two integers 'n m'")
        n, m = int(parts[0]), int(parts[1])
        us, vs = [], []
        seen = set()
        for lineno, raw in enumerate(fh, start=2):
            parts = reference_fields(raw)
            if not parts:
                continue
            if len(us) >= m:
                raise GraphFormatError(f"line {lineno}: more than {m} edges")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            if not all(part.isdigit() for part in parts):
                raise GraphFormatError(f"line {lineno}: expected two integers")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id out of range")
            if u > v:
                raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
            if (u, v) in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add((u, v))
            us.append(u)
            vs.append(v)
        if len(us) != m:
            raise GraphFormatError(f"expected {m} edges, found {len(us)}")
    return reference_csr(n, us, vs)


PETERSEN_EDGES = (
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    + [(i, i + 5) for i in range(5)]
    + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
)


@pytest.fixture
def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def k4_iso():
    # K4 plus an isolated vertex 4
    return Graph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def path5():
    return Graph.from_edges(5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def star6():
    # center 0, five leaves
    return Graph.from_edges(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def petersen():
    return Graph.from_edges(10, PETERSEN_EDGES)


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph_edges(n, p, rng):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return edges
