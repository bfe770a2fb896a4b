"""Analytic quantities: critical size, density witness, generation DAG."""

from __future__ import annotations

import math

import numpy as np
import pytest

from contagion import (
    GnpParams,
    Graph,
    critical_random_seed_size,
    density_witness,
    h2k_longest_path,
    induced_edge_count,
    percolate,
    sample_gnp,
    sample_generations_dag,
)


class TestCriticalSize:
    def test_frozen_example_r2(self):
        # n p^2 = 4e-3, (1/2) / 4e-3 = 125
        assert critical_random_seed_size(100_000, 2e-4, 2) == pytest.approx(125.0)

    def test_unit_case_r2(self):
        # n p^2 = 1 leaves just the 1 - 1/r prefactor
        n = 10_000
        assert critical_random_seed_size(n, n**-0.5, 2) == pytest.approx(0.5)

    def test_frozen_example_r3(self):
        # (2/3) * (2 / (1e5 * 1e-9))^(1/2)
        assert critical_random_seed_size(100_000, 1e-3, 3) == pytest.approx(
            94.280904, abs=1e-5
        )

    def test_monotone_in_p(self):
        ps = [1e-4, 2e-4, 5e-4, 1e-3, 5e-3]
        vals = [critical_random_seed_size(50_000, p, 2) for p in ps]
        assert vals == sorted(vals, reverse=True)

    def test_monotone_in_r_prefactor(self):
        # at n p^r = 1 the value reduces to (1 - 1/r) ((r-1)!)^{1/(r-1)}
        for r in (2, 3, 4):
            n = 10_000
            p = n ** (-1.0 / r)
            expected = (1 - 1 / r) * math.factorial(r - 1) ** (1 / (r - 1))
            assert critical_random_seed_size(n, p, r) == pytest.approx(expected)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            critical_random_seed_size(100, 0.0, 2)
        with pytest.raises(ValueError):
            critical_random_seed_size(100, 1.0, 2)
        with pytest.raises(ValueError):
            critical_random_seed_size(0, 0.5, 2)
        with pytest.raises(ValueError):
            critical_random_seed_size(100, 0.5, 1)


class TestDensityWitness:
    def test_c4_full_trace(self, c4):
        res = percolate(c4, [0, 2], 2)
        rep = density_witness(c4, res, 4)
        # prefix is all four vertices; C4 has 4 edges, needs r*(t - t0) = 4
        assert rep.t0 == 2
        assert rep.edges_required == 4
        assert rep.edges_found == 4
        assert rep.holds

    def test_t_equals_seed_count_trivial(self, c4):
        res = percolate(c4, [0, 2], 2)
        rep = density_witness(c4, res, 2)
        assert rep.edges_required == 0
        assert rep.holds

    def test_every_activated_prefix_on_random_graph(self):
        g = sample_gnp(GnpParams(400, 0.02, 12))
        res = percolate(g, range(25), 2)
        for t in range(len(res.seeds), res.active_count + 1, 7):
            rep = density_witness(g, res, t)
            assert rep.holds, f"density witness failed at t={t}"

    def test_prefix_respects_generation_order(self):
        # vertices joining earlier must be preferred to later ones
        g = Graph.from_edges(6, [(0, 2), (1, 2), (2, 3), (0, 3), (3, 4), (2, 4), (4, 5), (3, 5)])
        res = percolate(g, [0, 1], 2)
        assert res.contagious
        rep = density_witness(g, res, 3)
        # first non-seed activation is vertex 2 (generation 1)
        assert rep.edges_found == induced_edge_count(g, [0, 1, 2])
        assert rep.holds

    def test_rejects_bad_t(self, c4):
        res = percolate(c4, [0, 2], 2)
        with pytest.raises(ValueError):
            density_witness(c4, res, 1)  # below seed count
        with pytest.raises(ValueError):
            density_witness(c4, res, 5)  # above active count

    def test_json_shape(self, c4):
        res = percolate(c4, [0, 2], 2)
        d = density_witness(c4, res, 4).to_json_dict()
        assert set(d) == {"t0", "t", "edges_found", "edges_required", "holds"}
        assert d["holds"] is True


class TestGenerationsDag:
    def test_tiny_cases(self):
        # both base vertices are generation zero: no chain at k = 2
        assert sample_generations_dag(2, 0).longest_path() == 0
        assert sample_generations_dag(2, 123).arcs == ()

    def test_vertex_two_targets_distinct(self):
        # arcs[i - 2] holds the two targets of vertex i
        for seed in range(10):
            dag = sample_generations_dag(50, seed)
            assert len(dag.arcs) == 48
            for i, (a, b) in enumerate(dag.arcs, start=2):
                assert a != b
                assert 0 <= a < i
                assert 0 <= b < i

    def test_deterministic(self):
        assert sample_generations_dag(100, 5).arcs == sample_generations_dag(100, 5).arcs

    def test_three_vertices_forced(self):
        # vertex 2 can only target {0, 1}: depth is exactly 1
        dag = sample_generations_dag(3, 0)
        assert sorted(dag.arcs[0]) == [0, 1]
        assert dag.longest_path() == 1

    def test_logarithmic_bound_smoke(self):
        # depth stays below 40 ln k with huge margin at k = 10^4
        k = 10_000
        bound = 40 * math.log(k)
        for seed in range(5):
            assert h2k_longest_path(k, seed) < bound

    def test_uses_natural_log_scale(self):
        # median depth at k = 10^4 is near 2 e ln k / ln ln k, which would
        # exceed a log2-mislabeled bound check's slack if the base were wrong
        k = 10_000
        vals = [h2k_longest_path(k, s) for s in range(21)]
        med = sorted(vals)[10]
        assert med > math.log2(k)  # depth clearly not O(log2 k) with constant 1
        assert med < 40 * math.log(k)

    def test_rejects_bad_k(self):
        # the model needs both base vertices
        with pytest.raises(ValueError):
            sample_generations_dag(0, 0)
        with pytest.raises(ValueError):
            sample_generations_dag(1, 0)

    @pytest.mark.parametrize("k, rng_seed, field", [
        (5.5, 0, "k"), ("5", 0, "k"), (True, 0, "k"),
        (5, -1, "rng_seed"), (5, 1.5, "rng_seed"), (5, True, "rng_seed"),
    ])
    def test_rejects_non_integer_arguments(self, k, rng_seed, field):
        for draw in (sample_generations_dag, h2k_longest_path):
            with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
                draw(k, rng_seed)

    def test_integral_float_k_is_an_int(self):
        dag = sample_generations_dag(3.0)
        assert type(dag.k) is int and dag.k == 3
        assert dag.arcs == sample_generations_dag(3).arcs
