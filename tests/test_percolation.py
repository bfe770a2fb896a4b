"""Activation engine against the rescan oracle and its own invariants."""

from __future__ import annotations

import dataclasses
import json
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contagion import (
    NEVER,
    GnpParams,
    Graph,
    PercolationResult,
    Percolator,
    mandatory_seeds,
    percolate,
    sample_gnp,
    validate_result,
)
from contagion import exact as exact_module
from contagion import graph as graph_module
from contagion import percolation as percolation_module

from conftest import (
    adjacency_lists,
    adjacency_sets,
    complete_graph,
    gathered,
    naive_percolate,
    random_graph_edges,
    wave_rule,
)

# Engine paths, as (_SPARSE_ENTRIES, wave rule): the package's own switch
# point; kept sparse; moved to arrays at its first wave; moved mid-run, once a
# wave spans more than 4 adjacency entries; and moved at once with every array
# wave a push, or every one a pull.
PATH_LIMITS = {
    "numpy": (percolation_module._SPARSE_ENTRIES, "auto"),
    "sparse": (10**9, "auto"),
    "dense": (0, "auto"),
    "switch": (4, "auto"),
    "push": (0, "push"),
    "pull": (0, "pull"),
}
PATHS = tuple(PATH_LIMITS)


@contextmanager
def engine_path(path):
    """Run the engine on the given path, whatever the graph's size."""
    entries, rule = PATH_LIMITS[path]
    with mock.patch.object(percolation_module, "_SPARSE_ENTRIES", entries), wave_rule(rule):
        yield


def on_path(path, graph, r):
    """A fresh Percolator, which starts sparse; call it inside ``engine_path(path)``."""
    state = Percolator(graph, r)
    assert type(state._generation) is dict
    return state


def run_path(path, graph, seeds, r):
    with engine_path(path):
        res = on_path(path, graph, r).add_seeds(seeds).result()
    return res.generation, list(res.per_round_counts)


PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestExamples:
    def test_c4_two_opposite(self, c4):
        res = percolate(c4, [0, 2], 2)
        assert res.contagious
        assert res.tau == 1
        assert res.generation.tolist() == [0, 1, 0, 1]
        assert res.per_round_counts == (2,)

    def test_c4_adjacent_pair_stalls(self, c4):
        res = percolate(c4, [0, 1], 2)
        assert not res.contagious
        assert res.active_count == 2
        assert res.tau == 0
        assert res.per_round_counts == ()

    def test_k4_iso_needs_isolated(self, k4_iso):
        res = percolate(k4_iso, [0, 1, 4], 2)
        assert res.contagious
        res2 = percolate(k4_iso, [0, 1, 2, 3], 2)
        assert not res2.contagious
        assert res2.generation[4] == NEVER

    def test_star_center_never_activates(self, star6):
        res = percolate(star6, [1, 2, 3, 4, 5], 2)
        assert res.contagious
        assert res.tau == 1
        res2 = percolate(star6, [1, 2], 2)
        # center activates, but degree-1 leaves can never reach threshold
        assert not res2.contagious
        assert res2.active_count == 3
        assert res2.tau == 1

    def test_empty_seed_set(self, c4):
        res = percolate(c4, [], 2)
        assert res.active_count == 0
        assert res.tau == 0
        assert not res.contagious
        assert res.seeds == frozenset()

    def test_all_seeds(self, c4):
        res = percolate(c4, [0, 1, 2, 3], 2)
        assert res.contagious
        assert res.tau == 0

    def test_higher_threshold(self, petersen):
        # 3-regular graph: r=3 means a vertex needs all its neighbors
        res = percolate(petersen, [0, 1, 2, 3, 4], 3)
        assert res.active_count == 5  # inner vertices have only one outer neighbor

    def test_duplicate_seeds_collapse(self, c4):
        res = percolate(c4, [0, 0, 2], 2)
        assert res.seeds == frozenset({0, 2})
        assert res.contagious

    def test_rejects_bad_threshold(self, c4):
        with pytest.raises(ValueError):
            percolate(c4, [0], 1)
        with pytest.raises(ValueError):
            percolate(c4, [0], 0)

    def test_rejects_out_of_range_seed(self, c4):
        with pytest.raises(ValueError):
            percolate(c4, [7], 2)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        p = float(rng.choice([0.1, 0.2, 0.4, 0.7]))
        r = int(rng.choice([2, 3]))
        edges = random_graph_edges(n, p, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)
        k = int(rng.integers(0, n + 1))
        seeds = rng.choice(n, size=k, replace=False).tolist()

        res = percolate(g, seeds, r)
        gen_oracle, tau_oracle = naive_percolate(adj, seeds, r)

        assert res.tau == tau_oracle
        assert res.active_count == len(gen_oracle)
        for v in range(n):
            assert res.generation[v] == gen_oracle.get(v, NEVER)
        validate_result(g, res)

    def test_paths_agree_on_large_graph(self):
        # same graph through both state layouts
        g = sample_gnp(GnpParams(1000, 0.008, 77))
        seeds = np.arange(0, 1000, 37)
        gen_sparse, rounds_sparse = run_path("sparse", g, seeds, 2)
        gen_np, rounds_np = run_path("dense", g, seeds, 2)
        assert np.array_equal(gen_sparse, gen_np)
        assert rounds_sparse == rounds_np

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_paths_agree_small(self, r):
        rng = np.random.default_rng(100 + r)
        for _ in range(15):
            n = int(rng.integers(2, 30))
            edges = random_graph_edges(n, 0.3, rng)
            g = Graph.from_edges(n, edges)
            seeds = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            gen_sparse, rounds_sparse = run_path("sparse", g, np.sort(seeds), r)
            gen_np, rounds_np = run_path("dense", g, np.sort(seeds), r)
            assert np.array_equal(gen_sparse, gen_np)
            assert rounds_sparse == rounds_np


class TestMandatorySeeds:
    def test_k4_iso(self, k4_iso):
        assert mandatory_seeds(k4_iso, 2) == {4}

    def test_path(self, path5):
        assert mandatory_seeds(path5, 2) == {0, 4}

    def test_star_r3(self, star6):
        assert mandatory_seeds(star6, 3) == {1, 2, 3, 4, 5}

    def test_complete(self):
        assert mandatory_seeds(complete_graph(5), 2) == frozenset()

    def test_mandatory_vertices_stay_inactive_without_seeding(self, path5):
        res = percolate(path5, [1, 2, 3], 2)
        assert res.generation[0] == NEVER
        assert res.generation[4] == NEVER


class TestResultShape:
    def test_json_dict(self, c4):
        res = percolate(c4, [0, 2], 2)
        d = res.to_json_dict()
        assert d["tau"] == 1
        assert d["contagious"] is True
        assert d["active_count"] == 4
        assert d["generation"] == [0, 1, 0, 1]
        assert d["per_round"] == [2]
        json.dumps(d)  # must be serializable as-is

    def test_json_null_for_never(self, k4_iso):
        res = percolate(k4_iso, [0, 1], 2)
        d = res.to_json_dict()
        assert d["generation"][4] is None

    def test_active_property(self, c4):
        res = percolate(c4, [0, 2], 2)
        assert res.active == frozenset({0, 1, 2, 3})

    def test_per_round_sums(self, petersen):
        res = percolate(petersen, [0, 2, 8], 2)
        assert sum(res.per_round_counts) == res.active_count - len(res.seeds)

    def test_counts_are_read_off_the_map(self, c4):
        assert [f.name for f in dataclasses.fields(PercolationResult)] == ["threshold", "seeds", "generation"]
        res = percolate(c4, [0, 2], 2)
        res.generation[3] = NEVER
        assert (res.tau, res.active_count, res.contagious, res.per_round_counts) == (1, 3, False, (1,))
        assert res.active == frozenset({0, 1, 2})
        assert res.to_json_dict()["per_round"] == [1]


class TestValidator:
    def test_accepts_engine_output(self, petersen):
        res = percolate(petersen, [0, 2, 8], 2)
        validate_result(petersen, res)

    def test_rejects_tampered_generation(self, c4):
        res = percolate(c4, [0, 2], 2)
        res.generation[1] = 0  # claim a non-seed was a seed
        with pytest.raises(ValueError):
            validate_result(c4, res)

    def test_rejects_premature_activation(self, path5):
        res = percolate(path5, [0, 2], 2)
        res.generation[4] = 1  # vertex without support
        with pytest.raises(ValueError):
            validate_result(path5, res)

    def test_names_vertex_and_round_without_support(self, path5):
        res = percolate(path5, [0, 2], 2)
        res.generation[3] = 1  # one earlier neighbor (2), not two
        with pytest.raises(ValueError, match="vertex 3 activated in round 1 with only 1 earlier"):
            validate_result(path5, res)

    def test_rejects_generation_below_never(self, c4):
        res = percolate(c4, [0, 2], 2)
        res.generation[1] = NEVER - 1
        with pytest.raises(ValueError, match=f"generation {NEVER - 1} is neither a round nor NEVER"):
            validate_result(c4, res)

    def test_rejects_an_empty_round(self, path5):
        res = percolate(path5, [0, 2, 4], 2)
        res.generation[[1, 3]] = [1, 3]  # 3 has two earlier neighbors, but round 2 is empty
        with pytest.raises(ValueError, match="a round with no activations"):
            validate_result(path5, res)

    def test_rejects_trace_cut_before_fixation(self):
        g = sample_gnp(GnpParams(2000, 0.01, 1))
        seeds = np.random.default_rng(0).choice(2000, size=40, replace=False)
        res = percolate(g, seeds, 3)
        assert res.tau > 1
        # Keep rounds 0 and 1.
        res.generation[res.generation > 1] = NEVER
        with pytest.raises(ValueError, match="before fixation"):
            validate_result(g, res)


@st.composite
def graph_and_seeds(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    g = sample_gnp(GnpParams(n, density, seed))
    k = draw(st.integers(min_value=0, max_value=n))
    seeds = rng.choice(n, size=k, replace=False).tolist()
    r = draw(st.sampled_from([2, 3]))
    return g, seeds, r


@st.composite
def graph_and_generation_map(draw):
    """A graph, with up to three zero-degree rows anywhere, and an arbitrary trace
    that is consistent with itself."""
    g, _, r = draw(graph_and_seeds())
    n = g.vertex_count + draw(st.integers(0, 3))
    place = draw(st.permutations(range(n)))  # vertex v of the sample becomes place[v]
    g = Graph.from_edges(n, [(place[u], place[v]) for u, v in g.edges()])
    raw = np.array(draw(st.lists(st.integers(NEVER, 3), min_size=n, max_size=n)))
    # relabel the rounds present as 1..tau so that no round is empty
    rounds = np.unique(raw[raw >= 1])
    gen = np.where(raw >= 1, np.searchsorted(rounds, raw) + 1, raw)
    return g, PercolationResult(r, frozenset(np.flatnonzero(gen == 0).tolist()), gen)


def rules_hold(graph, gen, r):
    """Loop reference: activation needs r earlier neighbors; fixation leaves none with r.

    None when both hold; else the (vertex, round, neighbor count) the validator
    names: the earliest-generation vertex without support (the lowest id among
    ties) with its round and earlier neighbors, or failing that the lowest
    inactive vertex with r active neighbors, the round it would activate in and
    its active neighbors.
    """
    short, stuck = [], []
    for v, row in enumerate(adjacency_lists(graph)):
        active = [u for u in row if gen[u] != NEVER]
        earlier = sum(1 for u in active if gen[u] < gen[v])
        if gen[v] >= 1 and earlier < r:
            short.append((int(gen[v]), v, earlier))
        if gen[v] == NEVER and len(active) >= r:
            stuck.append((v, int(gen.max(initial=0)) + 1, len(active)))
    if short:
        g, v, earlier = min(short)
        return v, g, earlier
    return stuck[0] if stuck else None


class TestProcessProperties:
    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    def test_monotone_in_seeds(self, case):
        g, seeds, r = case
        res_small = percolate(g, seeds[: len(seeds) // 2], r)
        res_big = percolate(g, seeds, r)
        assert res_small.active <= res_big.active

    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    def test_closure_idempotent(self, case):
        g, seeds, r = case
        first = percolate(g, seeds, r)
        again = percolate(g, first.active, r)
        assert again.tau == 0
        assert again.active_count == first.active_count

    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    def test_validator_accepts_all(self, case):
        g, seeds, r = case
        res = percolate(g, seeds, r)
        validate_result(g, res)

    @PROPERTY_SETTINGS
    @given(case=graph_and_generation_map())
    def test_validator_matches_loop_reference(self, case):
        g, res = case
        named = rules_hold(g, res.generation, res.threshold)
        if named is None:
            validate_result(g, res)
            return
        v, rnd, count = named
        with pytest.raises(ValueError) as err:
            validate_result(g, res)
        message = str(err.value)
        assert message.startswith(f"vertex {v} ")
        assert re.search(rf"\bround {rnd}\b", message)
        assert re.search(rf"\b{count} (earlier|active) neighbors", message)

    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    def test_validator_rejects_truncated(self, case):
        # Dropping the last round leaves its vertices with r active neighbors.
        g, seeds, r = case
        res = percolate(g, seeds, r)
        if res.tau == 0:
            return
        res.generation[res.generation == res.tau] = NEVER
        with pytest.raises(ValueError, match=f"by round {res.tau + 1}"):
            validate_result(g, res)

    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    def test_generation_levels_contiguous(self, case):
        g, seeds, r = case
        res = percolate(g, seeds, r)
        gens = res.generation[res.generation >= 0]
        if gens.size:
            present = sorted(set(gens.tolist()))
            assert present == list(range(res.tau + 1)) or (
                res.tau == 0 and present == [0]
            )


@st.composite
def graph_and_batches(draw):
    """A graph and seed batches that may repeat ids or name already active ones."""
    g, _, r = draw(graph_and_seeds())
    ids = st.integers(min_value=0, max_value=g.vertex_count - 1)
    batches = draw(st.lists(st.lists(ids, max_size=6), max_size=5))
    return g, batches, r


def graph_adjacency(g):
    return adjacency_sets(list(g.edges()), g.vertex_count)


def snapshot(res):
    return (res.generation.tolist(), res.per_round_counts, res.seeds, res.active_count, res.tau)


def assert_hits_exact(state):
    """Every inactive vertex's ``hits`` is its number of active neighbours."""
    gen = state.result().generation
    hits = state._hits
    for v, row in enumerate(adjacency_lists(state.graph)):
        if gen[v] == NEVER:
            held = hits.get(v, 0) if type(hits) is dict else hits[v]
            assert held == sum(gen[u] != NEVER for u in row), v


def active_set(state):
    """``result().active``; ``is_active`` agrees with it."""
    active = state.result().active
    assert all(state.is_active(v) == (v in active) for v in range(state.graph.vertex_count))
    return active


def resumed_oracle(adj, batches, r):
    """The rescan oracle run batch by batch, numbering rounds on across batches."""
    gen, rounds = {}, 0
    for batch in batches:
        fresh = set(batch) - set(gen)
        step, tau = naive_percolate(adj, set(gen) | fresh, r)
        gen.update((v, 0) for v in fresh)
        gen.update((v, rounds + g) for v, g in step.items() if v not in gen)
        rounds += tau
    return gen


class TestPercolator:
    @PROPERTY_SETTINGS
    @given(case=graph_and_batches())
    @pytest.mark.parametrize("path", PATHS)
    def test_batches_reach_closure_of_union(self, path, case):
        g, batches, r = case
        with engine_path(path):
            state = on_path(path, g, r)
            for batch in batches:
                assert state.add_seeds(batch) is state
        gen_oracle = resumed_oracle(graph_adjacency(g), batches, r)
        res = state.result()
        assert res.generation.tolist() == [gen_oracle.get(v, NEVER) for v in range(g.vertex_count)]
        assert res.active == frozenset(gen_oracle)
        assert state.active_count == len(gen_oracle)
        assert state.contagious == (len(gen_oracle) == g.vertex_count)
        assert active_set(state) == frozenset(gen_oracle)
        assert all(state.is_active(v) == (v in gen_oracle) for v in range(g.vertex_count))
        assert_hits_exact(state)
        # Rounds numbered on across batches still obey the activation rule.
        validate_result(g, res)

    @PROPERTY_SETTINGS
    @given(case=graph_and_batches())
    @pytest.mark.parametrize("path", PATHS)
    def test_counters_match_the_map_after_each_batch(self, path, case):
        # validate_result reads the counts off the map, so the engine's own
        # running counters are held to it here
        g, batches, r = case
        with engine_path(path):
            state = on_path(path, g, r)
            for batch in batches:
                res = state.add_seeds(batch).result()
                assert (state.active_count, state.contagious, state.rounds) == (
                    res.active_count, res.contagious, res.tau)

    @pytest.mark.parametrize("path", PATHS)
    def test_counters_number_rounds_on_across_batches(self, path):
        g = sample_gnp(GnpParams(300, 0.02, 3))
        batches = [[0, 1, 2], [5, 7], list(range(10, 40, 3)), range(300)]
        adj = graph_adjacency(g)
        with engine_path(path):
            state = on_path(path, g, 2)
            for i, batch in enumerate(batches):
                res = state.add_seeds(batch).result()
                gen_oracle = resumed_oracle(adj, batches[: i + 1], 2)
                assert state.rounds == res.tau == max(gen_oracle.values())
                assert state.active_count == res.active_count == len(gen_oracle)
                assert state.contagious == res.contagious == (i == 3)
                # a fresh state seeded with the union in one batch reaches the same closure
                union = on_path(path, g, 2).add_seeds([v for b in batches[: i + 1] for v in b])
                assert union.active_count == state.active_count
        assert state.rounds > 2  # rounds ran after the first batch

    @PROPERTY_SETTINGS
    @given(case=graph_and_batches())
    @pytest.mark.parametrize("path", PATHS)
    def test_repeated_and_active_seeds_are_noops(self, path, case):
        g, batches, r = case
        with engine_path(path):
            state = on_path(path, g, r)
            for batch in batches:
                state.add_seeds(batch)
            before = snapshot(state.result())
            active = np.flatnonzero(state.result().generation != NEVER).tolist()
            state.add_seeds(active + active[::-1])
            for batch in batches:
                state.add_seeds(batch)
        assert snapshot(state.result()) == before

    @PROPERTY_SETTINGS
    @given(case=graph_and_seeds())
    @pytest.mark.parametrize("path", PATHS)
    def test_fresh_run_matches_oracle_by_generation(self, path, case):
        g, seeds, r = case
        with engine_path(path):
            res = on_path(path, g, r).add_seeds(seeds).result()
        gen_oracle, tau_oracle = naive_percolate(graph_adjacency(g), seeds, r)
        assert res.tau == tau_oracle
        assert res.generation.tolist() == [gen_oracle.get(v, NEVER) for v in range(g.vertex_count)]
        assert snapshot(res) == snapshot(percolate(g, seeds, r))

    @pytest.mark.parametrize("path", PATHS)
    def test_rejects_bad_seed_and_threshold(self, path, c4):
        with engine_path(path):
            with pytest.raises(ValueError, match="seed id 4 out of range"):
                on_path(path, c4, 2).add_seeds([0, 4])
            with pytest.raises(ValueError, match="seed id -1 out of range"):
                on_path(path, c4, 2).add_seeds([-1, 4])
        with pytest.raises(ValueError):
            Percolator(c4, 1)

    @pytest.mark.parametrize("path", PATHS)
    def test_rejects_seeds_that_are_not_integers(self, path, c4):
        with engine_path(path):
            for seeds, shown in (
                ([1.5, 3.2], "1.5"),
                (np.array([1.5, 3.2]), "1.5"),
                ([0, np.float64(2.0)], "2.0"),
                (["1"], "'1'"),
                ((v for v in [0, 2.0]), "2.0"),
                ([True], "True"),
                ([0, np.True_], "True"),
            ):
                with pytest.raises(ValueError, match=f"seed id {shown} is not an integer"):
                    on_path(path, c4, 2).add_seeds(seeds)
            for seeds in ([np.int32(0), np.uint8(2)], np.array([0, 2], dtype=np.uint16), (0, 2)):
                assert on_path(path, c4, 2).add_seeds(seeds).contagious
        with pytest.raises(ValueError, match="seed id 1.5 is not an integer"):
            percolate(c4, [1.5, 3.2], 2)

    @PROPERTY_SETTINGS
    @given(case=graph_and_batches())
    def test_wave_starters_match_seeded_copies(self, case):
        # the exact solver's last-seed rule: an inactive vertex starts a wave
        # exactly when seeding it after the batches activates more than itself;
        # a fresh state seeded with the union and v reaches that closure
        g, batches, r = case
        n = g.vertex_count
        state, hits, mask, rows = Percolator(g, r), [0] * n, 0, adjacency_lists(g)
        for batch in batches:
            mask = exact_module._grow(rows, r, hits, mask, sorted(set(batch) - state.result().active))
            state.add_seeds(batch)
        dead = exact_module._dead_last_seeds(rows, r, hits, mask)
        seeded = [v for batch in batches for v in batch]
        for v in range(n):
            if not state.is_active(v):
                grown = Percolator(g, r).add_seeds([*seeded, v]).active_count - state.active_count
                assert (dead >> v & 1 == 0) == (grown > 1 or state.active_count == n - 1), v

    def test_list_state_at_any_size(self):
        # the exact solver's list-and-bitmask closure agrees with the engine
        # on a graph of over 512 vertices, grown in two batches
        g = sample_gnp(GnpParams(600, 4.0 / 600, 3))
        seeds = list(range(0, 600, 7))
        hits, rows = [0] * 600, adjacency_lists(g)
        mask = exact_module._grow(rows, 2, hits, 0, seeds[:40])
        state = Percolator(g, 2).add_seeds(seeds[:40])
        mask = exact_module._grow(rows, 2, hits, mask, sorted(set(seeds[40:]) - state.result().active))
        state.add_seeds(seeds[40:])
        ref = percolate(g, seeds, 2)
        assert mask == sum(1 << v for v in ref.active)
        assert state.result().active == ref.active
        gen = state.result().generation
        for v, row in enumerate(rows):
            if gen[v] == NEVER:
                assert hits[v] == sum(gen[u] != NEVER for u in row), v
        assert_hits_exact(state)
        validate_result(g, state.result())

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_distinct_ids_pick_the_seed_layout(self, kind):
        # isolated vertices: no wave follows the seeds, so only the batch rule moves a state
        g = Graph.empty(6)
        with engine_path("switch"):
            kept = on_path("switch", g, 2).add_seeds(kind([0, 1, 2, 3, 3, 2, 1, 0]))
            moved = on_path("switch", g, 2).add_seeds(kind([0, 1, 2, 3, 4]))
        assert type(kept._generation) is dict and kept.active_count == 4
        assert type(moved._generation) is np.ndarray and moved.active_count == 5

    def test_switch_mid_run(self):
        # 0 and 1 feed 2 and 3 inside a K8 on 2..9: the seed wave spans 4
        # entries and stays sparse; the next, over rows of degree 9, does not.
        edges = [(a, b) for a in range(2, 10) for b in range(a + 1, 10)]
        g = Graph.from_edges(10, edges + [(0, 2), (0, 3), (1, 2), (1, 3)])
        with engine_path("switch"):
            state = on_path("switch", g, 2).add_seeds([0])
            assert type(state._generation) is dict and state.active_count == 1
            state.add_seeds([1])
            assert type(state._generation) is np.ndarray
        assert state.result().generation.tolist() == [0, 0, 1, 1, 2, 2, 2, 2, 2, 2]
        assert state.result().per_round_counts == (2, 6)
        validate_result(g, state.result())

    @pytest.mark.parametrize("path", ["dense", "push"])
    def test_stops_once_all_active(self, path):
        # Seeds 0 and 1 see every vertex of a 40-cycle: the first wave
        # activates them all, so the cycle's rows are never gathered.
        k = 40
        cycle = [(v, v + 1) for v in range(2, k + 1)] + [(2, k + 1)]
        g = Graph.from_edges(k + 2, [(s, v) for s in (0, 1) for v in range(2, k + 2)] + cycle)
        with engine_path(path), gathered() as sizes:
            res = on_path(path, g, 2).add_seeds([0, 1]).result()
        assert res.contagious and res.per_round_counts == (k,)
        assert sizes == [2 * k]

    def test_pull_waves_resume_and_copy(self):
        g = sample_gnp(GnpParams(300, 0.02, 3))
        batches = [[0, 1, 2], [5, 7], list(range(10, 40, 3))]
        with engine_path("pull"), gathered() as sizes:
            state = on_path("pull", g, 2).add_seeds(batches[0])
            # the first wave pulls: it gathers the rows of every vertex but the seeds
            assert sizes[0] == g.degrees.sum() - g.degrees[batches[0]].sum()
            state.add_seeds(batches[1])
            child = on_path("pull", g, 2).add_seeds(batches[0]).add_seeds(batches[2])
        adj = graph_adjacency(g)
        for got, batch_list in ((state, batches[:2]), (child, [batches[0], batches[2]])):
            gen_oracle = resumed_oracle(adj, batch_list, 2)
            assert got.result().generation.tolist() == [gen_oracle.get(v, NEVER) for v in range(300)]
            assert_hits_exact(got)
            validate_result(g, got.result())

    def test_result_is_a_snapshot(self, c4):
        state = Percolator(c4, 2).add_seeds([0])
        first = state.result()
        state.add_seeds([2])
        assert first.generation.tolist() == [0, NEVER, NEVER, NEVER]
        assert state.result().generation.tolist() == [0, 1, 0, 1]


class TestBigSeedArrays:
    """An integer array of more than ``_SPARSE_ENTRIES`` distinct ids is checked and seeded in numpy."""

    N = 5000

    @pytest.fixture(scope="class")
    def graph(self):
        return sample_gnp(GnpParams(self.N, 3.0 / self.N, 7))

    @staticmethod
    def batches(start):
        # The first batch is a list; its seed wave spans more than
        # _SPARSE_ENTRIES entries, so the state is on the array path after it.
        first = list(range(0, TestBigSeedArrays.N, 5)) if start == "arrays" else []
        # over _SPARSE_ENTRIES distinct ids with repeats, and on the array path
        # ids the first batch made active
        size = 2 * percolation_module._SPARSE_ENTRIES
        big = np.random.default_rng(3).integers(0, TestBigSeedArrays.N, size=size)
        return first, big

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("start", ["fresh", "arrays"])
    def test_matches_oracle_by_generation(self, graph, start, dtype):
        first, big = self.batches(start)
        state = Percolator(graph, 2).add_seeds(first)
        assert type(state._generation) is (np.ndarray if first else dict)
        assert percolation_module._SPARSE_ENTRIES < len(set(big.tolist())) < big.size
        assert not first or not set(first).isdisjoint(big.tolist())
        # neither the per-id check of as_vertex_array nor a row-by-row step runs
        per_id = mock.Mock(index=mock.Mock(side_effect=AssertionError("per-seed path")))
        with mock.patch.object(graph_module, "operator", per_id), \
                mock.patch.object(Percolator, "_spread_sparse", side_effect=AssertionError("sparse step")):
            assert state.add_seeds(big.astype(dtype)) is state
        assert type(state._generation) is np.ndarray
        gen_oracle = resumed_oracle(graph_adjacency(graph), [first, big.tolist()], 2)
        res = state.result()
        assert res.generation.tolist() == [gen_oracle.get(v, NEVER) for v in range(self.N)]
        assert 0 < len(gen_oracle) < self.N and res.seeds == {v for v, g in gen_oracle.items() if g == 0}
        assert snapshot(res) == snapshot(Percolator(graph, 2).add_seeds(first).add_seeds(big.tolist()).result())
        assert_hits_exact(state)
        validate_result(graph, res)

    @pytest.mark.parametrize("bad, dtype", [
        (-1, np.int32), (-1, np.int64), (N, np.int32), (N, np.int64), (N, np.uint64), (1.5, np.float64)])
    @pytest.mark.parametrize("start", ["fresh", "arrays"])
    def test_rejects_like_the_per_seed_path(self, graph, start, bad, dtype):
        first, big = self.batches(start)
        ids = np.concatenate([[bad], big]).astype(dtype)
        expect = {-1: "seed id -1 out of range", self.N: f"seed id {self.N} out of range",
                  1.5: "seed id 1.5 is not an integer"}[bad]
        state = Percolator(graph, 2).add_seeds(first)
        before = snapshot(state.result())
        with pytest.raises(ValueError, match=expect) as got:
            state.add_seeds(ids)
        with pytest.raises(ValueError) as per_seed:
            Percolator(graph, 2).add_seeds(first).add_seeds(ids.tolist())
        assert str(got.value) == str(per_seed.value)
        assert snapshot(state.result()) == before
        assert type(state._generation) is (np.ndarray if first else dict)
