"""Exact minimum solver against exhaustive enumeration."""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contagion import (
    GnpParams,
    Graph,
    construct_contagious,
    mandatory_seeds,
    min_contagious_exact,
    percolate,
    sample_gnp,
)
from contagion import exact as exact_module
from contagion.exact import _dead_last_seeds, _fort_packing, _grow, _peel

from conftest import (
    adjacency_lists,
    adjacency_sets,
    complete_graph,
    naive_min_contagious,
    naive_percolate,
    random_graph_edges,
)

# Computed once by exhaustive enumeration over the 10-vertex graph and
# frozen as regression constants (20 witnesses exist at r=2).
PETERSEN_MIN_R2 = 3
PETERSEN_MIN_R3 = 6


class TestKnownValues:
    def test_k4_plus_isolated(self, k4_iso):
        res = min_contagious_exact(k4_iso, 2)
        assert res.size == 3
        assert res.status == "exact"
        assert 4 in res.witness  # isolated vertex is unavoidable

    def test_c4(self, c4):
        res = min_contagious_exact(c4, 2)
        assert res.size == 2
        assert res.status == "exact"
        assert percolate(c4, res.witness, 2).contagious

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_complete_r_plus_one(self, r):
        g = complete_graph(r + 1)
        res = min_contagious_exact(g, r)
        assert res.size == r
        nodes = {2: 3, 3: 6, 4: 15}[r]  # pinned like TestPinnedOutcomes
        assert outcome(res) == (r, list(range(r)), nodes, "exact")

    def test_petersen_regression(self, petersen):
        assert min_contagious_exact(petersen, 2).size == PETERSEN_MIN_R2
        assert min_contagious_exact(petersen, 3).size == PETERSEN_MIN_R3

    def test_path(self, path5):
        # endpoints are mandatory but stall; every other vertex is needed
        res = min_contagious_exact(path5, 2)
        assert res.size == 3
        assert res.witness == frozenset({0, 2, 4})

    def test_edgeless(self):
        res = min_contagious_exact(Graph.empty(4), 2)
        assert res.size == 4
        assert res.witness == frozenset(range(4))

    def test_single_vertex(self):
        res = min_contagious_exact(Graph.empty(1), 2)
        assert res.size == 1

    def test_zero_vertices(self):
        res = min_contagious_exact(Graph.empty(0), 2)
        assert res.size == 0
        assert res.witness == frozenset()
        assert res.status == "exact"


# (size, witness, nodes_explored, status) of each random_small instance.  The
# sizes and witnesses are those of the solver that percolated every child
# closure from scratch; the node counts are those of the pruned search.
RANDOM_SMALL_PINS = {
    0: (6, [0, 2, 4, 5, 6, 7], 2, "exact"),
    1: (5, [0, 1, 2, 3, 4], 1, "exact"),
    2: (6, [1, 2, 3, 4, 5, 6], 2, "exact"),
    3: (7, [0, 1, 2, 4, 5, 6, 7], 1, "exact"),
    4: (5, [1, 2, 3, 4, 6], 2, "exact"),
    5: (2, [0, 1], 3, "exact"),
    6: (5, [0, 1, 2, 3, 4], 1, "exact"),
    7: (4, [0, 1, 6, 8], 4, "exact"),
    8: (7, [0, 1, 2, 3, 4, 5, 6], 1, "exact"),
    9: (4, [0, 1, 2, 3], 1, "exact"),
    10: (2, [0, 1], 3, "exact"),
    11: (2, [0, 1], 1, "exact"),
    12: (6, [0, 1, 2, 3, 4, 5], 1, "exact"),
    13: (3, [0, 2, 4], 15, "exact"),
    14: (2, [0, 1], 1, "exact"),
    15: (3, [0, 1, 2], 9, "exact"),
    16: (4, [0, 1, 2, 3], 2, "exact"),
    17: (2, [0, 1], 3, "exact"),
    18: (4, [0, 4, 5, 6], 3, "exact"),
    19: (4, [1, 2, 4, 5], 2, "exact"),
}


def outcome(res):
    witness = None if res.witness is None else sorted(res.witness)
    return (res.size, witness, res.nodes_explored, res.status)


class TestPinnedOutcomes:
    """Sizes and witnesses are those of the solver that percolated every child
    closure from scratch.  nodes_explored pins the tree the pruned search
    visits: a changed count means a changed tree, even with the same answer."""

    @pytest.mark.parametrize(
        "graph, r, budget, expected",
        [
            ("petersen", 2, None, (3, [0, 2, 8], 34, "exact")),
            ("petersen", 3, None, (6, [0, 1, 3, 7, 8, 9], 151, "exact")),
            ("k4_iso", 2, None, (3, [0, 1, 4], 3, "exact")),
            ("c4", 2, None, (2, [0, 2], 3, "exact")),
            ("path5", 2, None, (3, [0, 2, 4], 2, "exact")),
            ((40, 0.12, 3), 2, None, (3, [0, 2, 11], 7, "exact")),
            ((40, 0.12, 3), 2, 5, (3, None, 5, "budget_exceeded")),
            ((30, 0.12, 1), 2, None, (12, [0, 1, 2, 5, 7, 10, 16, 17, 22, 24, 25, 27], 29, "exact")),
            ((30, 0.12, 1), 2, 2000, (12, [0, 1, 2, 5, 7, 10, 16, 17, 22, 24, 25, 27], 29, "exact")),
            ((30, 0.15, 2), 3, 5000, (6, [0, 5, 11, 14, 22, 28], 4770, "exact")),
            ((36, 0.14, 4), 3, None, (10, [0, 1, 7, 9, 21, 23, 28, 30, 32, 34], 68, "exact")),
            # more than 512 vertices: the closure's bitmask spans many machine words
            ((600, 0.001, 2), 2, 3000, (544, None, 3000, "budget_exceeded")),
            # the 2000 and 1000 budgets suffice; 20 stops a level short of 12
            ((30, 0.12, 1), 2, 1000, (12, [0, 1, 2, 5, 7, 10, 16, 17, 22, 24, 25, 27], 29, "exact")),
            ((30, 0.12, 1), 2, 20, (11, None, 20, "budget_exceeded")),
            # the 5000 budget now suffices; 1000 stops a level short of 6
            ((30, 0.15, 2), 3, 1000, (5, None, 1000, "budget_exceeded")),
            # the first finished solve above n = 36; the packing finds no fort here
            ((100, 0.06, 1), 3, None, (14, [0, 2, 5, 13, 15, 27, 32, 36, 42, 63, 64, 66, 72, 81], 67162, "exact")),
        ],
    )
    def test_matches_from_scratch_solver(self, request, graph, r, budget, expected):
        if isinstance(graph, str):
            g = request.getfixturevalue(graph)
        else:
            g = sample_gnp(GnpParams(*graph))
        res = min_contagious_exact(g, r) if budget is None else min_contagious_exact(g, r, budget)
        assert outcome(res) == expected


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_small(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        p = float(rng.choice([0.15, 0.35, 0.6]))
        r = int(rng.choice([2, 3]))
        edges = random_graph_edges(n, p, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)

        res = min_contagious_exact(g, r)
        size_oracle, witness_oracle = naive_min_contagious(adj, r, n)

        assert res.size == size_oracle
        assert res.witness == witness_oracle  # the lexicographically first minimum
        assert outcome(res) == RANDOM_SMALL_PINS[seed]
        assert len(res.witness) == res.size
        assert percolate(g, res.witness, r).contagious


def solve_and_list_tests(graph, r, forts=True):
    """Solve, and list the seed sets whose closures were computed, in order;
    the last is the re-verification of the witness.  ``forts=False`` solves
    with an empty fort packing, as the search ran before it had one."""
    sets, seeds_of = [], {}

    def grow(adjacency, r, hits, mask, fresh):
        grown = _grow(adjacency, r, hits, mask, fresh)
        # a child's closure strictly contains its parent's, so the parent is
        # the last closure computed with the mask it grows from
        seeds_of[grown] = seeds_of.get(mask, ()) + tuple(fresh)
        sets.append(tuple(sorted(seeds_of[grown])))
        return grown

    def verify(g, seeds, r):
        sets.append(tuple(sorted(seeds)))
        return percolate(g, seeds, r)

    packing = _fort_packing if forts else lambda *args: []
    with mock.patch.object(exact_module, "_grow", grow), mock.patch.object(exact_module, "percolate", verify), \
            mock.patch.object(exact_module, "_fort_packing", packing):
        res = min_contagious_exact(graph, r)
    return res, sets


@st.composite
def graph_and_batches(draw):
    """A graph, of a few vertices or of over 512, and seed batches that may
    repeat ids or name already active ones."""
    n = draw(st.one_of(st.integers(1, 24), st.integers(513, 600)))
    p = min(1.0, draw(st.sampled_from([2.0, 4.0, 8.0])) / n)
    g = sample_gnp(GnpParams(n, p, draw(st.integers(0, 2**32 - 1))))
    ids = st.integers(0, n - 1)
    batches = draw(st.lists(st.lists(ids, max_size=max(6, n // 10)), max_size=4))
    return g, batches, draw(st.sampled_from([2, 3]))


class TestClosure:
    """The solver's closure (``hits``, bitmask) against the rescan oracle."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=graph_and_batches())
    @example(case=(sample_gnp(GnpParams(600, 4.0 / 600, 3)), [list(range(0, 280, 7)), list(range(280, 600, 7))], 2))
    def test_matches_oracle(self, case):
        g, batches, r = case
        n, adj = g.vertex_count, adjacency_sets(list(g.edges()), g.vertex_count)
        rows = adjacency_lists(g)
        hits, mask, seeds, active = [0] * n, 0, set(), set()
        for batch in batches:
            mask = _grow(rows, r, hits, mask, sorted(set(batch) - active))
            seeds |= set(batch)
            active = set(naive_percolate(adj, seeds, r)[0])
            assert mask == sum(1 << v for v in active)
            assert all(hits[v] == len(adj[v] & active) for v in range(n) if v not in active)
        dead = _dead_last_seeds(rows, r, hits, mask)
        for v in range(n):
            if v in active:
                assert dead >> v & 1, v
            else:
                grown = len(naive_percolate(adj, active | {v}, r)[0]) - len(active)
                assert (dead >> v & 1 == 0) == (grown > 1 or len(active) == n - 1), v


class TestPrunes:
    """Hand-built cases of the closure-dominance and last-seed skips."""

    def test_last_seed_must_start_a_wave(self, c4):
        # At depth 1 no single seed activates anything.  Under {0}, 1 and 3
        # each have one active neighbour, so only 2, their common neighbour,
        # starts a wave: {0, 1} and {0, 3} are never tested.
        res, sets = solve_and_list_tests(c4, 2)
        assert sets == [(), (0,), (0, 2), (0, 2)]
        assert outcome(res) == (2, [0, 2], 3, "exact")

    def test_closure_dominance(self):
        # A bowtie, triangles {1, 3, 4} and {1, 5, 6} sharing the hub 1, with
        # the tail 1 - 2 - 0; 0 has one neighbour, so it is seeded at the root.
        # Without forts: no {0, 1, x} is contagious, so once 1's subtree has
        # failed the root skips 2, inside the closure {0, 1, 2}: {0, 2} is never
        # tested.  Under {0, 1}, 4 is skipped after {0, 1, 3} fails, and 6 after
        # {0, 1, 5}.  Under {0, 3}, 5 lies inside the closure of the later
        # sibling 6, whose subtree has not run, so 5 must still be tried:
        # {0, 3, 5} is the first minimum, {0, 3, 6} the second.
        g = Graph.from_edges(
            7, [(0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (3, 4), (5, 6)]
        )
        res, sets = solve_and_list_tests(g, 2, forts=False)
        assert sets == [
            (0,), (0, 1),  # depth 1
            (0, 1), (0, 1, 3), (0, 1, 5), (0, 3), (0, 3, 4), (0, 3, 5),  # depth 2
            (0, 3, 5),
        ]
        assert outcome(res) == (3, [0, 3, 5], 8, "exact")
        assert percolate(g, [0, 3, 6], 2).contagious
        # Each triangle less the hub is a fort.  The packing {3, 4}, {5, 6}
        # starts the deepening at depth 2, and every test that leaves a fort
        # unhit with too few seeds to come is skipped: two unhit forts and two
        # seeds leave the root a pick from {3, 4} (5 and 6 come after 4, the
        # last of {3, 4}), and under {0, 3} only 5 or 6 may follow.
        res, sets = solve_and_list_tests(g, 2)
        assert sets == [(0,), (0, 3), (0, 3, 5), (0, 3, 5)]
        assert outcome(res) == (3, [0, 3, 5], 3, "exact")

    def test_fort_prune(self):
        # Triangles {0, 1, 2} and {1, 4, 5} share the hub 1, and the path
        # 2 - 3 - 4 joins them.  No vertex has fewer than 2 neighbours, and
        # {3, 4, 5} is a fort: each of them has one neighbour outside it.  The
        # packing holds that fort alone, so deepening starts at 1 as before.
        # Under {0}, both 1 and 2 have one active neighbour, so seeding 1
        # starts a wave (2 activates) and no other prune skips it; but {0, 1}
        # leaves the fort unhit with no seed to come, so only the fort prune
        # keeps it from being tested.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])
        assert _fort_packing(adjacency_lists(g), 2, list(range(6)), 100) == [(5, 0b111000)]
        res, sets = solve_and_list_tests(g, 2, forts=False)
        assert sets == [(), (0,), (0, 1), (0, 3), (0, 3)]
        res, sets = solve_and_list_tests(g, 2)
        assert sets == [(), (0,), (0, 3), (0, 3)]
        assert outcome(res) == (2, [0, 3], 3, "exact")

    def test_last_seed_may_be_the_one_inactive_vertex(self, c4):
        # On the path 0 - 1 - 2 from {0, 1}, vertex 2 is the one inactive
        # vertex: seeding it starts no wave, yet finishes the closure.  The
        # solver never meets such a state (that vertex has fewer than r
        # neighbours, so it is seeded at the root); the rule is checked alone.
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        hits = [0] * 3
        mask = _grow(adjacency_lists(g), 2, hits, 0, [0, 1])
        assert mask == 0b011  # 2's one neighbour is active: seeding 2 starts no wave
        assert [_dead_last_seeds(adjacency_lists(g), 2, hits, mask) >> v & 1 for v in range(3)] == [1, 1, 0]
        hits = [0] * 4
        mask = _grow(adjacency_lists(c4), 2, hits, 0, [0])
        assert [_dead_last_seeds(adjacency_lists(c4), 2, hits, mask) >> v & 1 for v in range(4)] == [1, 1, 0, 1]


def is_fort(adj, r, members):
    """Brute force: a nonempty set whose members each have fewer than r
    neighbours outside it."""
    return bool(members) and all(len(adj[v] - members) < r for v in members)


@st.composite
def graph_and_threshold(draw):
    """A graph of at most 10 vertices, sparse to dense, and r in {2, 3, 4}."""
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    return sample_gnp(GnpParams(n, p, draw(st.integers(0, 2**32 - 1)))), draw(st.sampled_from([2, 3, 4]))


class TestFortPacking:
    """The packing against brute force on the adjacency sets."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=graph_and_threshold())
    # more than 512 vertices; this graph's packing holds 7 forts
    @example(case=(sample_gnp(GnpParams(600, 4.0 / 600, 3)), 2))
    @example(case=(complete_graph(6), 4))
    def test_disjoint_minimal_forts_below_the_minimum(self, case):
        g, r = case
        n = g.vertex_count
        adj = adjacency_sets(list(g.edges()), n)
        mandatory = mandatory_seeds(g, r)
        free = [v for v in range(n) if v not in mandatory]
        packing = _fort_packing(adjacency_lists(g), r, free, 2 * n)
        used = set()
        for last, bits in packing:
            fort = {v for v in range(n) if bits >> v & 1}
            assert is_fort(adj, r, fort)
            assert free[last] == max(fort)
            assert not fort & used and not fort & mandatory
            used |= fort
            if len(fort) <= 10:  # no proper subset is a fort
                subsets = (set(c) for k in range(1, len(fort)) for c in itertools.combinations(fort, k))
                assert not any(is_fort(adj, r, sub) for sub in subsets)
        if n <= 10:
            size, _ = naive_min_contagious(adj, r, n)
            assert len(mandatory) + len(packing) <= size


class TestSolverLaws:
    def test_witness_contains_mandatory(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            edges = random_graph_edges(n, 0.3, rng)
            g = Graph.from_edges(n, edges)
            res = min_contagious_exact(g, 2)
            assert mandatory_seeds(g, 2) <= res.witness

    def test_lower_bound_r(self):
        # any contagious set has at least min(n, r) vertices
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(1, 12))
            r = int(rng.choice([2, 3]))
            edges = random_graph_edges(n, 0.4, rng)
            g = Graph.from_edges(n, edges)
            res = min_contagious_exact(g, r)
            assert res.size >= min(n, r)

    def test_constructor_never_beats_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            edges = random_graph_edges(n, 0.4, rng)
            g = Graph.from_edges(n, edges)
            exact = min_contagious_exact(g, 2)
            constructed, _ = construct_contagious(g)
            assert len(constructed) >= exact.size

    def test_a_solve_leaves_no_list_on_the_graph(self):
        # the solver builds its own adjacency lists; the graph stays its CSR arrays
        g = sample_gnp(GnpParams(14, 0.2, 5))
        min_contagious_exact(g, 2)
        assert [name for name, value in vars(g).items() if isinstance(value, list)] == []

    def test_nodes_explored_positive(self, c4):
        res = min_contagious_exact(c4, 2)
        assert res.nodes_explored >= 1


class TestBudget:
    def test_budget_exhaustion_reports_lower_bound(self):
        g = sample_gnp(GnpParams(40, 0.12, 3))
        res = min_contagious_exact(g, 2, node_budget=5)
        assert res.status == "budget_exceeded"
        assert res.witness is None
        # the reported size is a valid lower bound
        full = min_contagious_exact(g, 2)
        assert res.size <= full.size

    @pytest.mark.parametrize("params, r, budget", [((30, 0.12, 1), 2, 20), ((30, 0.15, 2), 3, 1000)])
    def test_short_budget_bounds_the_minimum(self, params, r, budget):
        # each pinned in TestPinnedOutcomes, where a larger budget finishes
        g = sample_gnp(GnpParams(*params))
        short, full = min_contagious_exact(g, r, budget), min_contagious_exact(g, r)
        assert (short.status, full.status) == ("budget_exceeded", "exact")
        mandatory = mandatory_seeds(g, r)
        free = [v for v in range(g.vertex_count) if v not in mandatory]
        packing = _fort_packing(adjacency_lists(g), r, free, budget)
        assert len(mandatory) + len(packing) <= short.size <= full.size

    def test_packing_stops_at_the_budget(self):
        # No fort lies within radius 2 of the first vertices of this graph, so
        # every peel is of a ball: a budget of 10 tests peels 10 balls, where a
        # sweep without a bound would peel two per free vertex.
        g = sample_gnp(GnpParams(20_000, 0.0005, 1))
        peeled = []

        def peel(adjacency, r, left):
            peeled.append(len(left))
            return _peel(adjacency, r, left)

        with mock.patch.object(exact_module, "_peel", peel):
            res = min_contagious_exact(g, 2, node_budget=10)
        assert (res.status, res.nodes_explored) == ("budget_exceeded", 10)
        assert len(peeled) == 10
        assert max(peeled) < 200  # radius-2 balls of a graph of mean degree 10

    @pytest.mark.parametrize("budget", [0, 10.5, float("inf"), "10"])
    def test_rejects_a_bad_budget_naming_it(self, petersen, budget):
        # a budget of 10.5 once let the packing peel every ball: its count never equals 10.5
        with pytest.raises(ValueError, match="node_budget"):
            min_contagious_exact(petersen, 2, budget)

    def test_large_budget_same_as_default(self, petersen):
        a = min_contagious_exact(petersen, 2, node_budget=10**9)
        b = min_contagious_exact(petersen, 2)
        assert a.size == b.size

    def test_json_shape(self, petersen):
        d = min_contagious_exact(petersen, 2).to_json_dict()
        assert d["status"] == "exact"
        assert d["size"] == PETERSEN_MIN_R2
        assert isinstance(d["witness"], list)
        assert d["witness"] == sorted(d["witness"])
        d2 = min_contagious_exact(petersen, 2, node_budget=2).to_json_dict()
        assert d2["witness"] is None

    def test_rejects_nonpositive_budget(self, c4):
        with pytest.raises(ValueError):
            min_contagious_exact(c4, 2, node_budget=0)
