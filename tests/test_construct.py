"""Staged constructor, fallback path, and the minimal-tuple search."""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contagion import (
    GnpParams,
    Graph,
    StageParams,
    TupleSearchParams,
    construct_contagious,
    mandatory_seeds,
    percolate,
    sample_gnp,
    search_minimal_tuple,
)

from contagion import construct as construct_module
from conftest import complete_graph, naive_tuple_search

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_contagious(graph, seeds, r=2):
    res = percolate(graph, seeds, r)
    assert res.contagious, f"set of size {len(seeds)} is not contagious"
    return res


class TestStageParams:
    def test_defaults(self):
        params = StageParams()
        assert params.r == 2
        assert construct_module._D0_MIN == 4.0
        assert params.resolved_c_seed() == 1.0

    def test_general_r_seed_constant(self):
        # r=3: ceil(6 * 17 * 2^2) = 408, capped at 100
        assert StageParams(r=3).resolved_c_seed() == 100.0

    def test_explicit_seed_constant_wins(self):
        assert StageParams(r=3, c_seed=2.5).resolved_c_seed() == 2.5

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            StageParams(r=1)

    @pytest.mark.parametrize("c_seed", [pytest.param(10**400, id="10**400"), math.inf, math.nan, 0, -1.0])
    def test_rejects_a_c_seed_that_is_not_positive_and_finite(self, c_seed):
        # 10**400 once passed, then resolved_c_seed() raised OverflowError
        with pytest.raises(ValueError, match="^c_seed must be positive and finite"):
            StageParams(c_seed=c_seed)

    @pytest.mark.parametrize("c_seed", [True, np.True_, "2.5", [1.0]])
    def test_rejects_a_c_seed_that_is_not_a_number(self, c_seed):
        # True was once taken as 1.0, and "2.5" failed with a bare TypeError
        with pytest.raises(ValueError, match="^c_seed must be a real number"):
            StageParams(c_seed=c_seed)


class TestConstructor:
    def test_complete_graph_certificate(self):
        g = complete_graph(10)
        seeds, trace = construct_contagious(g)
        assert_contagious(g, seeds)
        assert len(seeds) <= 10

    def test_small_dense_random(self):
        g = sample_gnp(GnpParams(200, 0.2, 3))
        seeds, trace = construct_contagious(g)
        assert_contagious(g, seeds)
        assert len(seeds) < 200

    def test_deterministic(self):
        g = sample_gnp(GnpParams(3000, 0.01, 5))
        s1, t1 = construct_contagious(g)
        s2, t2 = construct_contagious(g)
        assert s1 == s2
        assert t1.to_json_dict() == t2.to_json_dict()

    def test_staged_path_engages_at_scale(self):
        n, d = 20_000, 40.0
        g = sample_gnp(GnpParams(n, d / n, 3))
        seeds, trace = construct_contagious(g)
        assert not trace.fallback_used
        assert trace.ell >= 1
        assert len(trace.iterations) == trace.ell
        assert_contagious(g, seeds)
        # the two stages partition the final set
        assert frozenset(trace.a01) | frozenset(trace.a02) == seeds

    def test_trace_iteration_invariants(self):
        # scale chosen so the initial block formula lands above 1; at c_seed = 100
        # the first block meets the n // 10 cap and the later ones get nothing
        n, d = 50_000, 60.0
        g = sample_gnp(GnpParams(n, d / n, 8))
        for params in (StageParams(), StageParams(c_seed=100.0)):
            seeds, trace = construct_contagious(g, params)
            assert not trace.fallback_used
            for rec in trace.iterations:
                assert rec.s_i >= 1
                assert len(rec.b_i) <= rec.b_target
                assert rec.y_i <= rec.x_i
                assert len(rec.d_i) == rec.y_i
                assert len(rec.selected_components) == rec.y_i
                # each selected component contributes its smallest vertex
                for comp, rep in zip(rec.selected_components, rec.d_i):
                    assert rep == min(comp)
                if not rec.failed:
                    assert rec.c_i  # pool never empty on a successful iteration
                assert rec.failed == (rec.reason is not None)
            # a01 is the initial block plus each iteration's component representatives
            initial = set(trace.initial_block)
            assert set(trace.a01) == initial.union(*(rec.d_i for rec in trace.iterations))
            # each block takes only vertices that no earlier block (the initial one too) took
            taken = set(initial)
            for rec in trace.iterations:
                assert taken.isdisjoint(rec.b_i)
                taken.update(rec.b_i)
            assert sum(len(rec.b_i) for rec in trace.iterations) <= max(0, n // 10 - len(initial))
            assert trace.final_seeds == sorted(set(trace.a01) | set(trace.a02))
            assert_contagious(g, seeds)

    def test_fallback_on_low_degree(self):
        # mean degree below the cutoff routes to the greedy path
        g = sample_gnp(GnpParams(500, 2.0 / 500, 4))
        seeds, trace = construct_contagious(g)
        assert trace.fallback_used
        assert_contagious(g, seeds)

    def test_fallback_on_disconnected(self, k4_iso):
        seeds, trace = construct_contagious(k4_iso)
        assert trace.fallback_used
        assert_contagious(k4_iso, seeds)
        assert 4 in seeds  # isolated vertex is mandatory

    def test_fallback_includes_mandatory(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        seeds, trace = construct_contagious(g)
        assert trace.fallback_used
        must = mandatory_seeds(g, 2)
        assert must <= seeds
        assert_contagious(g, seeds)

    def test_empty_graph(self):
        g = Graph.empty(3)
        seeds, trace = construct_contagious(g)
        assert seeds == frozenset({0, 1, 2})
        assert trace.fallback_used

    def test_zero_vertices(self):
        g = Graph.empty(0)
        seeds, trace = construct_contagious(g)
        assert seeds == frozenset()

    def test_general_r(self):
        g = sample_gnp(GnpParams(2000, 0.05, 6))
        seeds, trace = construct_contagious(g, StageParams(r=3))
        res = percolate(g, seeds, 3)
        assert res.contagious

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_initial_block_too_large_takes_fallback(self, seed):
        # r = 3 puts c_seed at 100, so the initial block would exceed n = 40
        g = sample_gnp(GnpParams(40, 0.15, seed))
        seeds, trace = construct_contagious(g, StageParams(r=3))
        assert trace.fallback_used
        assert_contagious(g, seeds, 3)

    def test_fallback_verifies_with_one_fresh_run(self, monkeypatch):
        g = sample_gnp(GnpParams(500, 2.0 / 500, 4))
        runs = []

        def counting_percolate(*args):
            runs.append(percolate(*args))
            return runs[-1]

        monkeypatch.setattr(construct_module, "percolate", counting_percolate)
        seeds, trace = construct_contagious(g)
        assert trace.fallback_used
        # the greedy picks resume one state; only the verification percolates
        assert len(runs) == 1
        assert trace.result is runs[-1]
        again = percolate(g, seeds, 2)
        assert trace.result.contagious and trace.result.seeds == seeds
        assert np.array_equal(trace.result.generation, again.generation)

    # (n, p, rng_seed), r, then the seed count and blake2b digest of the sorted
    # fallback set, and tau and active_count of trace.result, as computed by
    # the greedy fallback that percolated from scratch after every pick.
    @pytest.mark.parametrize(
        "gnp, r, size, digest, tau, active",
        [
            ((500, 2.0 / 500, 4), 2, 299, "23b9f645c3c8ac00", 8, 500),
            ((3000, 3.0 / 3000, 7), 2, 862, "a463d3c7850b2a7f", 27, 3000),
            ((2000, 4.0 / 2000, 5), 3, 830, "229c61500ec27f3e", 12, 2000),
            ((40, 0.15, 1), 3, 8, "e91fa8e67521fa0c", 11, 40),
        ],
    )
    def test_fallback_pinned_to_rerun_greedy(self, gnp, r, size, digest, tau, active):
        g = sample_gnp(GnpParams(*gnp))
        seeds, trace = construct_contagious(g, StageParams(r=r))
        assert trace.fallback_used
        text = ",".join(map(str, sorted(seeds))).encode()
        assert (len(seeds), hashlib.blake2b(text, digest_size=8).hexdigest()) == (size, digest)
        assert (trace.result.tau, trace.result.active_count) == (tau, active)

    def test_trace_keeps_verifying_run(self):
        g = sample_gnp(GnpParams(3000, 30.0 / 3000, 4))
        seeds, trace = construct_contagious(g)
        assert trace.result.seeds == seeds
        assert trace.result.contagious
        assert "result" not in trace.to_json_dict()

    # (n, p, rng_seed), whether the staged schedule runs, whether a02 is empty,
    # and the percolate calls made: the staged run from a01 is the check when
    # a02 is empty; otherwise, and on the fallback, one fresh run verifies.
    @pytest.mark.parametrize(
        "gnp, staged, a02_empty, runs",
        [
            ((3000, 20.0 / 3000, 1), True, True, 1),
            ((2000, 9.0 / 2000, 1), True, False, 2),
            ((500, 2.0 / 500, 4), False, False, 1),
        ],
    )
    def test_result_equals_fresh_run_of_final_seeds(self, monkeypatch, gnp, staged, a02_empty, runs):
        g = sample_gnp(GnpParams(*gnp))
        calls = []

        def counting_percolate(*args):
            calls.append(percolate(*args))
            return calls[-1]

        monkeypatch.setattr(construct_module, "percolate", counting_percolate)
        seeds, trace = construct_contagious(g)
        assert (not trace.fallback_used, not trace.a02) == (staged, a02_empty)
        assert len(calls) == runs and trace.result is calls[-1]
        fresh = percolate(g, trace.final_seeds, 2)
        assert trace.result.seeds == seeds == frozenset(trace.final_seeds)
        assert np.array_equal(trace.result.generation, fresh.generation)
        assert (trace.result.tau, trace.result.per_round_counts) == (fresh.tau, fresh.per_round_counts)

    def test_trace_json_round_trip(self):
        g = sample_gnp(GnpParams(20_000, 40.0 / 20_000, 3))
        _, trace = construct_contagious(g)
        blob = json.dumps(trace.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["ell"] == trace.ell
        assert parsed["fallback_used"] is False
        assert len(parsed["iterations"]) == trace.ell


class TestConstructorProperties:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=120),
        p=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_always_returns_verified_set(self, n, p, seed):
        g = sample_gnp(GnpParams(n, p, seed))
        seeds, trace = construct_contagious(g)
        res = percolate(g, seeds, 2)
        assert res.contagious
        assert seeds <= frozenset(range(n))


class TestTupleSearchParams:
    def test_for_graph_formula(self):
        # budget n // (2(r + 1)), at least 1
        assert TupleSearchParams.for_graph(1000, r=2, rng_seed=0).max_iterations == 166
        assert TupleSearchParams.for_graph(1000, r=3, rng_seed=0).max_iterations == 125
        assert TupleSearchParams.for_graph(5, r=3).max_iterations == 1

    def test_integral_floats_are_stored_as_ints(self):
        # a float r once reached numpy's integers() as the float size 22.0
        params = TupleSearchParams(r=2.0, max_iterations=10.0)
        assert (params.r, params.max_iterations) == (2, 10)
        assert type(params.r) is int and type(params.max_iterations) is int
        g = sample_gnp(GnpParams(300, 0.05, 1))
        found = search_minimal_tuple(g, params)
        assert found is not None
        assert found[0] == search_minimal_tuple(g, TupleSearchParams(r=2, max_iterations=10))[0]

    @pytest.mark.parametrize("value", [2.5, 0, -3, True, float("nan"), float("inf"), "10"])
    def test_rejects_a_bad_budget_naming_it(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            TupleSearchParams(r=2, max_iterations=value)

    @pytest.mark.parametrize("value", [1.5, -1])
    def test_rejects_a_bad_seed_naming_it(self, value):
        with pytest.raises(ValueError, match="rng_seed"):
            TupleSearchParams(r=2, rng_seed=value)


class TestTupleSearch:
    def test_complete_graph_any_pair_works(self):
        g = complete_graph(6)
        params = TupleSearchParams(r=2, max_iterations=50, rng_seed=1)
        found = search_minimal_tuple(g, params)
        assert found is not None
        seeds, res = found
        assert len(seeds) == 2
        assert res.contagious

    def test_edgeless_graph_fails(self):
        g = Graph.empty(30)
        params = TupleSearchParams(r=2, max_iterations=50, rng_seed=1)
        assert search_minimal_tuple(g, params) is None

    def test_stalling_graph_exhausts_iterations(self, path5):
        params = TupleSearchParams(r=2, max_iterations=20, rng_seed=0)
        assert search_minimal_tuple(path5, params) is None

    def test_deterministic(self):
        n = 4000
        p = 4.0 / math.sqrt(n * math.log(n))
        g = sample_gnp(GnpParams(n, p, 21))
        params = TupleSearchParams(r=2, max_iterations=500, rng_seed=9)
        a = search_minimal_tuple(g, params)
        b = search_minimal_tuple(g, params)
        assert a is not None and b is not None
        assert a[0] == b[0]

    def test_found_tuple_is_minimal_size(self):
        n = 4000
        p = 4.0 / math.sqrt(n * math.log(n))
        g = sample_gnp(GnpParams(n, p, 33))
        params = TupleSearchParams.for_graph(n, r=2, rng_seed=3)
        found = search_minimal_tuple(g, params)
        assert found is not None
        seeds, res = found
        assert len(seeds) == params.r
        assert res.contagious
        assert res.seeds == seeds

    def test_tiny_pool_rejected(self):
        g = complete_graph(2)
        params = TupleSearchParams(r=2, max_iterations=5, rng_seed=0)
        with pytest.raises(ValueError):
            search_minimal_tuple(g, params)

    def test_near_threshold_success_rate(self):
        # the search should succeed on most supercritical instances
        n = 20_000
        p = 4.0 / math.sqrt(n * math.log(n))
        hits = 0
        trials = 10
        for s in range(trials):
            g = sample_gnp(GnpParams(n, p, 1000 + s))
            params = TupleSearchParams.for_graph(n, r=2, rng_seed=s)
            found = search_minimal_tuple(g, params)
            if found is not None:
                seeds, res = found
                assert res.contagious
                hits += 1
        assert hits >= 8, f"tuple search succeeded only {hits}/{trials} times"

    # (n, r, multiple of the threshold scale (n log^{r-1} n)^{-1/r}, graph seed,
    # search seed), the fewest iterations that find a tuple, and (sorted tuple,
    # tau, per_round_counts, active_count) of the find, as computed by the
    # search that kept numpy counts and percolated each completed chain with
    # ``percolate``.
    @pytest.mark.parametrize(
        "case, iterations, expected",
        [
            ((400, 2, 1.3, 2, 12), 3,
             ([25, 75], 12, (1, 1, 2, 2, 2, 4, 6, 24, 99, 207, 49, 1), 400)),
            ((400, 3, 1.5, 1, 11), 58,
             ([253, 254, 348], 8, (1, 2, 1, 4, 11, 52, 253, 73), 400)),
            ((3000, 2, 1.3, 2, 12), 24,
             ([909, 2640], 10, (1, 1, 2, 4, 7, 16, 69, 559, 2265, 74), 3000)),
            ((3000, 3, 1.5, 1, 11), 640,
             ([1019, 1135, 1769], 12, (1, 1, 2, 1, 1, 1, 1, 3, 10, 61, 1090, 1825), 3000)),
        ],
    )
    def test_pinned_finds_and_budgets(self, case, iterations, expected):
        n, r, mult, graph_seed, search_seed = case
        g = sample_gnp(GnpParams(n, mult * (n * math.log(n) ** (r - 1)) ** (-1 / r), graph_seed))

        def search(budget):
            params = TupleSearchParams(r=r, max_iterations=budget, rng_seed=search_seed)
            found = search_minimal_tuple(g, params)
            if found is None:
                return None
            seeds, res = found
            assert res.seeds == seeds and res.contagious
            return sorted(seeds), res.tau, res.per_round_counts, res.active_count

        assert search(iterations) == expected
        assert search(10 * iterations) == expected
        if iterations > 1:  # one iteration short, the budget runs out
            assert search(iterations - 1) is None


def near_threshold_graph(n, r, mult, seed):
    """G(n, p) at ``mult`` times the scale (n log^{r-1} n)^{-1/r} of the second theorem."""
    return sample_gnp(GnpParams(n, min(1.0, mult * (n * math.log(n) ** (r - 1)) ** (-1 / r)), seed))


def batched_search(graph, r, budget, seed, judged):
    """The package's search; the r initial vertices of each judged chain go to ``judged``."""

    class Spy(construct_module.Percolator):
        def add_seeds(self, seeds):
            judged.append(list(seeds))
            return super().add_seeds(seeds)

    with mock.patch.object(construct_module, "Percolator", Spy):
        found = search_minimal_tuple(
            graph, TupleSearchParams(r=r, max_iterations=budget, rng_seed=seed)
        )
    if found is None:
        return None
    seeds, res = found
    assert res.seeds == seeds and res.contagious
    return sorted(seeds), res.tau, res.per_round_counts


class TestBatchedTupleSearch:
    @pytest.mark.parametrize("n", [2, 20000, 2**40])
    def test_array_draws_equal_scalar_draws(self, n):
        # The search draws a batch's integers ahead in one call; its finds equal
        # those of scalar draws only while these agree, however the calls split.
        def rng():
            return np.random.Generator(np.random.PCG64(3))

        scalar = rng()
        want = [int(scalar.integers(0, n)) for _ in range(200)]
        assert rng().integers(0, n, size=200).tolist() == want
        split = rng()
        assert split.integers(0, n, size=77).tolist() + split.integers(0, n, size=123).tolist() == want

    @given(
        r=st.sampled_from([2, 3, 4]),
        small=st.booleans(),
        size=st.integers(0, 127),
        mult=st.sampled_from([0.7, 1.0, 1.5, 3.0]),
        graph_seed=st.integers(0, 10**6),
        search_seed=st.integers(0, 10**6),
        budget=st.integers(1, 400),
        batch=st.sampled_from([1, 3, 256]),
    )
    @PROPERTY_SETTINGS
    def test_matches_one_iteration_oracle(
        self, r, small, size, mult, graph_seed, search_seed, budget, batch
    ):
        # Graphs of a few vertices and of over 512; batches of 1 and 3 end most
        # budgets mid-batch, and budgets past n / (r + 1) empty the pool.
        n = r + 1 + size if small else 513 + size
        g = near_threshold_graph(n, r, mult, graph_seed)
        got, want = [], []
        with mock.patch.object(construct_module, "_BATCH", batch):
            found = batched_search(g, r, budget, search_seed, got)
        assert found == naive_tuple_search(g, r, budget, search_seed, want)
        assert got == want  # the same chains judged, in the same order

    @pytest.mark.parametrize(
        "n, graph_seed, found",
        [(300, 1, False), (700, 2, True)],
    )
    def test_rollback_replays_to_oracle(self, n, graph_seed, found):
        # An extension that a later iteration of the batch had drawn sends the
        # batch back to that iteration: its draws, and the vertices they chose,
        # are scored again in the next batch.
        g = near_threshold_graph(n, 2, 1.0, graph_seed)
        scored = []
        real = construct_module.gather_rows

        def spy(graph, rows):
            scored.extend(rows.tolist())
            return real(graph, rows)

        got, want = [], []
        with mock.patch.object(construct_module, "gather_rows", spy):
            result = batched_search(g, 2, n, 7, got)
        assert len(scored) > len(set(scored))  # some vertex chosen in two batches
        assert (result is not None) == found
        assert result == naive_tuple_search(g, 2, n, 7, want)
        assert got == want
