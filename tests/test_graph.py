"""Graph container, sampler, components, and edge-list I/O."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contagion import (
    GnpParams,
    Graph,
    GraphFormatError,
    connected_components,
    gather_rows,
    induced_edge_count,
    is_connected,
    load_edge_list,
    sample_gnp,
    save_edge_list,
)

from contagion import graph as graph_module
from conftest import (
    WAVE_RULES,
    adjacency_sets,
    complete_graph,
    gathered,
    naive_components,
    naive_induced_edges,
    random_graph_edges,
    reference_csr,
    reference_from_edges,
    reference_load_edge_list,
    wave_rule,
)

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestGraphBasics:
    def test_from_edges_counts(self, c4):
        assert c4.vertex_count == 4
        assert c4.edge_count == 4
        assert c4.indices.shape[0] == 8

    def test_neighbors_sorted_unique(self, petersen):
        for v in range(10):
            nbrs = petersen.neighbors(v)
            assert list(nbrs) == sorted(set(nbrs.tolist()))
            assert v not in nbrs

    def test_degrees(self, petersen, star6):
        assert petersen.degrees.tolist() == [3] * 10
        assert star6.degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_empty_graph(self):
        g = Graph.empty(7)
        assert g.vertex_count == 7
        assert g.edge_count == 0
        assert g.neighbors(3).shape == (0,)

    def test_zero_vertices(self):
        g = Graph.empty(0)
        assert g.vertex_count == 0
        assert list(g.edges()) == []

    def test_edges_iterator_canonical(self, c4):
        got = list(c4.edges())
        assert got == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(GraphFormatError, match="range"):
            Graph.from_edges(3, [(0, 2**70)])
        with pytest.raises(GraphFormatError, match="vertex count"):
            Graph.from_edges(10**20, [])

    @pytest.mark.parametrize("n", [3.5, "3", True, None, -1])
    def test_from_edges_rejects_a_bad_vertex_count(self, n):
        message = f"vertex count must be an integer >= 0, got {re.escape(repr(n))}"
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, [(0, 1)])

    def test_from_edges_takes_an_integral_float_count(self):
        g = Graph.from_edges(3.0, [(0, 1)])
        assert g == Graph.from_edges(3, [(0, 1)]) and type(g.vertex_count) is int

    def test_from_edges_rejects_other_shapes(self):
        for edges in ([(0, 1, 2), (1, 2, 0)], [0, 1], [(0, 1), (1,)]):
            with pytest.raises(GraphFormatError, match="pairs"):
                Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges, shown", [
        ([(0.5, 1.7)], "0.5"),
        ([(0, 1), (2.9, 0)], "2.9"),
        ([(0, 1.0)], "1.0"),
        ([("1", "2")], "'1'"),
        ([(True, 2)], "True"),
        ([(0, np.True_)], "True"),
    ])
    def test_from_edges_rejects_ids_that_are_not_integers(self, edges, shown):
        # the rule seeds follow: a float, even an integral one, a string or a bool is no id
        with pytest.raises(GraphFormatError, match=f"vertex id {shown} is not an integer"):
            Graph.from_edges(3, edges)

    def test_from_edges_takes_numpy_integer_ids(self):
        g = Graph.from_edges(3, [(np.int32(0), np.uint8(2)), *np.array([[1, 2]], dtype=np.uint64)])
        assert list(g.edges()) == [(0, 2), (1, 2)]

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_from_edges_accepts_either_orientation(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert list(g.edges()) == [(0, 2), (1, 2)]

    def test_equality(self, c4):
        other = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert c4 == other
        assert c4 != Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestGatherRows:
    def test_matches_neighbors(self, petersen):
        verts = np.array([0, 3, 3, 9], dtype=np.int64)
        flat = gather_rows(petersen, verts)
        expected = np.concatenate([petersen.neighbors(v) for v in verts])
        assert np.array_equal(flat, expected)

    def test_empty_request(self, petersen):
        assert gather_rows(petersen, np.array([], dtype=np.int64)).shape == (0,)

    def test_rows_with_empty_neighborhoods(self, k4_iso):
        verts = np.array([4, 0, 4], dtype=np.int64)
        flat = gather_rows(k4_iso, verts)
        assert flat.tolist() == [1, 2, 3]


class TestCountByVertex:
    @pytest.mark.parametrize("size", [0, 7, 50, 51, 400])
    def test_matches_unique_on_both_sides_of_n(self, size):
        ids = np.random.default_rng(size).integers(0, 50, size=size).astype(np.int32)
        got_ids, got_counts = graph_module.count_by_vertex(ids, 50)
        want_ids, want_counts = np.unique(ids, return_counts=True)
        assert got_ids.tolist() == want_ids.tolist()
        assert got_counts.tolist() == want_counts.tolist()
        only_ids, no_counts = graph_module.count_by_vertex(ids, 50, counts=False)
        assert only_ids.tolist() == want_ids.tolist() and no_counts is None


class TestSampler:
    def test_deterministic(self):
        a = sample_gnp(GnpParams(300, 0.05, 42))
        b = sample_gnp(GnpParams(300, 0.05, 42))
        assert a == b

    def test_seed_changes_graph(self):
        a = sample_gnp(GnpParams(300, 0.05, 1))
        b = sample_gnp(GnpParams(300, 0.05, 2))
        assert a != b

    def test_p_zero_and_one(self):
        assert sample_gnp(GnpParams(50, 0.0, 0)).edge_count == 0
        full = sample_gnp(GnpParams(50, 1.0, 0))
        assert full.edge_count == 50 * 49 // 2

    def test_p_one_takes_the_skip_stream(self, monkeypatch):
        # every geometric skip is 1 at p = 1, so the one sampler path yields every pair
        calls = []
        real = graph_module._skip_sample

        def spy(rng, npairs, p):
            calls.append((npairs, p))
            return real(rng, npairs, p)

        monkeypatch.setattr(graph_module, "_skip_sample", spy)
        assert sample_gnp(GnpParams(50, 1.0, 0)).edge_count == 50 * 49 // 2
        assert calls == [(50 * 49 // 2, 1.0)]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [2, 3, 50, 300])
    def test_p_one_gives_the_complete_graph(self, n, seed):
        assert sample_gnp(GnpParams(n, 1.0, seed)) == complete_graph(n)

    def test_edge_count_moment(self):
        # mean = C(n,2) p, sd = sqrt(C(n,2) p (1-p)); 4 sigma two-sided
        n, p = 10_000, 1e-3
        pairs = n * (n - 1) // 2
        mean = pairs * p
        sd = math.sqrt(pairs * p * (1 - p))
        g = sample_gnp(GnpParams(n, p, 2024))
        assert abs(g.edge_count - mean) < 4 * sd

    def test_per_pair_frequency(self):
        # every unordered pair should appear with frequency close to p
        n, p, reps = 30, 0.5, 1000
        counts = np.zeros((n, n), dtype=np.int64)
        for s in range(reps):
            g = sample_gnp(GnpParams(n, p, 10_000 + s))
            for u, v in g.edges():
                counts[u, v] += 1
        iu = np.triu_indices(n, k=1)
        freq = counts[iu] / reps
        # binomial sd at p=.5, reps=1000 is ~.0158; 0.06 is nearly 4 sigma
        assert float(np.max(np.abs(freq - p))) < 0.06

    # blake2b (16-byte) digests of int64 indptr then int32 indices, computed
    # with the earlier argsort CSR build (the two above n = 2^15, where the
    # layout sorts int64 keys, with the build that validated every pair): the
    # sampler's graphs must not change.
    @pytest.mark.parametrize(
        "n,p,seed,digest",
        [
            (0, 0.5, 1, "c804ce198ec337e3dc762bdd1a09aece"),
            (2, 1.0, 0, "ccb7786a9892c901c7aff5c6b1f0115e"),
            (60, 1.0, 0, "5744012425e586d05703dbdb70d69566"),
            (300, 0.05, 42, "49bcb3b7f3d749bc61866d43d8bae1dc"),
            (1000, 0.5, 3, "39540f47854e21df18218d55ed308a22"),
            (5000, 0.002, 9, "117317290833c8a8e687f05261de27a4"),
            (20000, 0.001, 11, "c563cdad4bb98099e8e07f65534a7f59"),
            (40000, 5e-4, 5, "497a63aa18a58fb5af1c1e8b85f8ba9b"),
            (70000, 2e-4, 3, "313740d88214e5cc10aeac90265cdc49"),
        ],
    )
    def test_graphs_are_pinned(self, n, p, seed, digest):
        g = sample_gnp(GnpParams(n, p, seed))
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        h = hashlib.blake2b(digest_size=16)
        h.update(g.indptr.tobytes())
        h.update(g.indices.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("p", ["1e-20", "1e-300"])
    def test_tiny_p_gives_empty_graph(self, p):
        # Unclamped skips near 2^63 overflow the running sum, which crashes at
        # 1e-20 and never returns at 1e-300: a child with a timeout keeps a
        # hang from stalling the suite.
        src = str(Path(graph_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys; from contagion.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["construct", "--n", "100", "--p", p, "--seed", "1"]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["seeds"] == list(range(100))  # no edge: every vertex seeds

    def test_validates_params(self):
        with pytest.raises(ValueError):
            GnpParams(-1, 0.5, 0)
        with pytest.raises(ValueError):
            GnpParams(10, 1.5, 0)
        with pytest.raises(ValueError):
            GnpParams(10, -0.1, 0)
        with pytest.raises(ValueError, match="n must lie in"):
            GnpParams(2**31 + 1, 0.0)
        # a float n once failed inside numpy, and True drew a 1-vertex graph
        for n in (10.5, True, float("nan"), "10"):
            with pytest.raises(ValueError, match="^n must be an integer"):
                GnpParams(n, 0.3)
        # these once failed inside SeedSequence with a message naming no field
        for seed in (1.5, -1, True):
            with pytest.raises(ValueError, match="^rng_seed must be an integer"):
                GnpParams(10, 0.3, seed)
        params = GnpParams(10.0, 0.3, 2.0)
        assert type(params.n) is int and type(params.rng_seed) is int
        assert sample_gnp(params) == sample_gnp(GnpParams(10, 0.3, 2))

    @pytest.mark.parametrize("p", [True, False, np.True_, "0.5", None, [0.5]])
    def test_p_must_be_a_real_number(self, p):
        # True once drew the complete graph, and "0.5" failed with a bare TypeError
        with pytest.raises(ValueError, match="^p must be a real number"):
            GnpParams(10, p)

    def test_p_of_any_real_type_samples_alike(self):
        want = sample_gnp(GnpParams(40, 0.25, 3))
        assert sample_gnp(GnpParams(40, np.float64(0.25), 3)) == want
        assert sample_gnp(GnpParams(40, 1, 3)) == sample_gnp(GnpParams(40, 1.0, 3))


class TestComponents:
    def test_simple(self, k4_iso):
        comps = connected_components(k4_iso)
        assert comps == [[0, 1, 2, 3], [4]]
        assert not is_connected(k4_iso)

    def test_connected(self, petersen):
        assert is_connected(petersen)
        assert connected_components(petersen) == [list(range(10))]

    def test_empty_vertex_set(self):
        assert connected_components(Graph.empty(0)) == []
        assert is_connected(Graph.empty(0))

    def test_singleton(self):
        assert is_connected(Graph.empty(1))

    def test_ordering_largest_then_min_id(self):
        # components {0,1}, {2,3}, {4}: equal sizes break ties by min id
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(5)
        n, p = 200, 0.01
        edges = random_graph_edges(n, p, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)
        assert connected_components(g) == naive_components(adj)

    def test_restrict_matches_oracle(self):
        rng = np.random.default_rng(9)
        n, p = 200, 0.01
        edges = random_graph_edges(n, p, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)
        sub = rng.choice(n, size=50, replace=False)
        got = connected_components(g, restrict=sub)
        assert got == naive_components(adj, restrict=sub.tolist())

    @pytest.mark.parametrize("rule", WAVE_RULES)
    def test_excluded_vertex_never_counts_as_reached(self, rule):
        # 4 lies outside the restriction and neighbours 0, 1 and 2; a pull
        # from {0, 3} must not count it as reached and join 1 and 2.
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (0, 3)])
        with wave_rule(rule):
            assert connected_components(g, restrict=[0, 1, 2, 3]) == [[0, 3], [1], [2]]
            assert connected_components(g, restrict=[1, 2, 4]) == [[1, 2, 4]]
            assert is_connected(g)

    @pytest.mark.parametrize("rule", ["auto", "push"])
    def test_is_connected_stops_once_all_reached(self, rule):
        # A hub on a 40-cycle: its first wave reaches every vertex, so the
        # cycle's rows are never gathered.
        k = 40
        cycle = [(v, v + 1) for v in range(1, k)] + [(1, k)]
        g = Graph.from_edges(k + 1, [(0, v) for v in range(1, k + 1)] + cycle)
        with wave_rule(rule), gathered() as sizes:
            assert is_connected(g)
        assert sizes == [k]

    @pytest.mark.parametrize("rule", WAVE_RULES)
    @pytest.mark.parametrize("kind", ["singletons", "mixed", "empty", "whole", "all_ids"])
    def test_restrictions_match_oracle_with_no_bfs_per_singleton(self, monkeypatch, rule, kind):
        rng = np.random.default_rng(11)
        n = 300
        edges = random_graph_edges(n, 0.01, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)
        independent: list[int] = []
        for v in rng.permutation(n).tolist():
            if not adj[v] & set(independent):
                independent.append(v)
        restrict = {
            "singletons": independent,
            "mixed": rng.integers(0, n, size=200).astype(np.int32),  # repeats included
            "empty": [],
            "whole": None,
            "all_ids": np.arange(n, dtype=np.uint64),
        }[kind]
        reaches = []
        real = graph_module._reach

        def spy(graph, start, label, left):
            reaches.append(start)
            return real(graph, start, label, left)

        monkeypatch.setattr(graph_module, "_reach", spy)
        with wave_rule(rule):
            got = connected_components(g, restrict)
        expect = naive_components(adj, None if restrict is None else [int(v) for v in restrict])
        assert got == expect
        assert all(type(v) is int for comp in got for v in comp)
        # one BFS per component of two or more members, none for a singleton
        assert len(reaches) == sum(len(c) > 1 for c in expect)
        if kind == "singletons":
            assert len(expect) == len(independent) > 50 and not reaches
        if kind == "mixed":
            assert 0 < len(reaches) < len(expect)

    def test_python_int_contents(self, k4_iso):
        comps = connected_components(k4_iso)
        assert all(type(v) is int for comp in comps for v in comp)


class TestInducedEdges:
    def test_examples(self, c4):
        assert induced_edge_count(c4, [0, 1, 2, 3]) == 4
        assert induced_edge_count(c4, [0, 1]) == 1
        assert induced_edge_count(c4, [0, 2]) == 0
        assert induced_edge_count(c4, []) == 0

    def test_rejects_ids_that_are_not_integers(self, c4):
        with pytest.raises(ValueError, match="vertex id 0.5 is not an integer"):
            induced_edge_count(c4, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="vertex id 1.5 is not an integer"):
            connected_components(c4, [0, 1.5])
        assert induced_edge_count(c4, np.array([0, 1], dtype=np.uint8)) == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        edges = random_graph_edges(60, 0.2, rng)
        g = Graph.from_edges(60, edges)
        for trial in range(20):
            sub = rng.choice(60, size=rng.integers(0, 30), replace=False)
            assert induced_edge_count(g, sub) == naive_induced_edges(edges, sub.tolist())


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, petersen):
        path = tmp_path / "g.txt"
        save_edge_list(petersen, path)
        assert load_edge_list(path) == petersen

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "e.txt"
        save_edge_list(Graph.empty(4), path)
        assert load_edge_list(path) == Graph.empty(4)

    def test_format(self, tmp_path, c4):
        path = tmp_path / "c4.txt"
        save_edge_list(c4, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4 4"
        assert lines[1:] == ["0 1", "0 3", "1 2", "2 3"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "header"),
            ("3\n", "header"),
            ("-3 1\n", "line 1: expected two integers"),
            ("3 1_0\n", "line 1: expected two integers"),
            # the header splits at spaces and tabs only, as a body line does
            ("3\x0b1\n0 1\n", "line 1: expected header 'n m'"),
            ("3\x0c1\n0 1\n", "line 1: expected header 'n m'"),
            ("3\r1\n0 1\n", "line 1: expected header 'n m'"),
            ("3 1\r", "line 1: expected two integers"),
            ("3 1\n0 0\n", "self-loop"),
            ("3 1\n1 0\n", "u < v"),
            ("3 1\n0 5\n", "range"),
            ("3 2\n0 1\n0 1\n", "duplicate"),
            ("3 2\n0 1\n", "expected 2 edges"),
            ("3 1\n0 1\n0 2\n", "more than 1 edges"),
            ("3 1\nx y\n", "line 2"),
            ("3 1\n0 +1\n", "line 2: expected two integers"),
            ("3 1\n0 1\x0b\n", "line 2: expected two integers"),
            ("3 1\n0 1\r", "line 2"),
            ("3 1\n0 1\r2\n", "line 2: expected two integers"),
            ("3 1\n0 1\n0 1 2\n", "line 3: more than 1 edges"),
            ("3 1\n\n0 99999999999999999999999\n", "out of range for 3 vertices"),
            # ids too large for int64 are quoted as the file spells them, not clamped
            ("3 2\n0 1\n0 99999999999999999999999\n", "line 3: edge (0, 99999999999999999999999) out"),
            ("3 1\n99999999999999999998 99999999999999999999\n", "line 2: edge (99999999999999999998, 9"),
            ("3 2\n1 0\n0 99999999999999999999999\n", "line 2: edge (1, 0): endpoints"),
            ("3 2\n0 1\n0 1 2\n1 1\n", "line 3: expected 'u v'"),
            ("3 2\n0 2\n0 2\n0 1 2\n", "line 3: duplicate"),
            ("3 1\n\xff\n", "line 2"),
            # ids are int32: a vertex count past 2^31 is refused before anything is allocated
            ("99999999999999999999 0\n", "line 1: vertex count 99999999999999999999 above"),
            ("9223372036854775807 0\n", "line 1: vertex count"),
        ],
    )
    def test_rejects_malformed(self, tmp_path, text, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert fragment in str(err.value)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n\n0 1\n\n")
        g = load_edge_list(path)
        assert list(g.edges()) == [(0, 1)]

    def test_any_order_tabs_and_crlf(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"4 3\r\n2\t3\r\n \t\r\n0 3 \r\n0\t 1")
        assert load_edge_list(path) == Graph.from_edges(4, [(0, 1), (0, 3), (2, 3)])

    @pytest.mark.parametrize("n", [1, 10, 11, 101, 1001])
    def test_bytes_match_savetxt(self, tmp_path, n):
        # a path through every id plus random chords: ids cross each digit width
        rng = np.random.default_rng(n)
        edges = {(i, i + 1) for i in range(n - 1)}
        edges |= {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, (3 * n, 2)) if u != v}
        g = Graph.from_edges(n, sorted(edges))
        assert save_text(g, tmp_path) == savetxt_text(g)

    @pytest.mark.parametrize("n", [0, 4])
    def test_bytes_match_savetxt_empty(self, tmp_path, n):
        assert save_text(Graph.empty(n), tmp_path) == savetxt_text(Graph.empty(n))

    def test_bytes_match_savetxt_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "_FORMAT_CHUNK", 7)
        g = sample_gnp(GnpParams(150, 0.05, 8))
        assert save_text(g, tmp_path) == savetxt_text(g)

    # A graph this large cannot be built in a test, so its widest ids go to the
    # per-id records directly, next to ids of every shorter width.
    @pytest.mark.parametrize("top,n", [(9_999_999, 10**7), (10**7, 10**7 + 1), (2**31 - 1, 2**31)])
    def test_wide_ids_match_savetxt(self, top, n):
        ids = np.array([0, 7, 10, 999, 10**6, top], dtype=np.int64)
        pairs = np.array([[0, 5], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [5, 5]], dtype=np.int32)
        text = graph_module._digit_records(ids, len(str(n - 1)))
        buf = io.BytesIO()
        np.savetxt(buf, ids[pairs], fmt="%d")
        assert graph_module._format_pairs(pairs, text).tobytes() == buf.getvalue()


def save_text(graph, tmp_path):
    path = tmp_path / "g.txt"
    save_edge_list(graph, path)
    return path.read_bytes()


def savetxt_text(graph):
    """The earlier writer: a header, then np.savetxt of the lexicographic pairs."""
    buf = io.BytesIO()
    buf.write(f"{graph.vertex_count} {graph.edge_count}\n".encode())
    np.savetxt(buf, np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2), fmt="%d")
    return buf.getvalue()


# Fault kinds injected into otherwise valid edge-list files.
FILE_FAULTS = [
    "self-loop",
    "swapped",
    "duplicate",
    "out-of-range",
    "missing edge",
    "extra edge",
    "one token",
    "three tokens",
    "stray byte",
]
# Message fragments, most specific first; the fault kind of a message is the first it holds.
FRAGMENTS = (
    "self-loop",
    "range",
    "u < v",
    "duplicate",
    "more than",
    "expected 'u v'",
    "expected two integers",
    "edges",
)


def fault_of(message, where="line"):
    """(location, kind) of a GraphFormatError message."""
    located = re.match(rf"{where} (\d+):", message)
    kind = next(fragment for fragment in FRAGMENTS if fragment in message)
    return (int(located.group(1)) if located else None), kind


@st.composite
def edge_files(draw, fault=None, plain=False):
    """(n, edges, file bytes): shuffled edges, spaces and tabs, blank lines, LF or CRLF.

    With ``fault`` set, the file holds exactly one fault of that kind.  A ``plain``
    file is laid out as ``save_edge_list`` writes (one space, LF, no blank line),
    with its edges in any order.
    """
    n = draw(st.integers(min_value=2 if fault else 0, max_value=25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1 if fault else 0, max_size=40)
        if pairs
        else st.just([])
    )
    rows = [[str(u), str(v)] for u, v in edges]
    m = len(rows)
    i = draw(st.integers(min_value=0, max_value=max(len(rows) - 1, 0)))
    if fault == "self-loop":
        rows[i][1] = rows[i][0]
    elif fault == "swapped":
        rows[i].reverse()
    elif fault == "duplicate":
        rows.insert(i + 1, list(rows[draw(st.integers(min_value=0, max_value=i))]))
        m += 1
    elif fault == "out-of-range":
        rows[i][1] = str(n + draw(st.integers(min_value=0, max_value=5)))
    elif fault == "missing edge":
        m += 1
    elif fault == "extra edge":
        m -= 1
    elif fault == "one token":
        del rows[i][1]
    elif fault == "three tokens":
        rows[i].append(rows[i][0])
    elif fault == "stray byte":
        k = draw(st.integers(min_value=0, max_value=1))
        token = rows[i][k]
        at = draw(st.integers(min_value=0, max_value=len(token) - 1))
        rows[i][k] = token[:at] + draw(st.sampled_from("x.,;#:\x0b\x0c")) + token[at + 1 :]
    if plain:
        return n, edges, "".join(f"{line}\n" for line in [f"{n} {m}"] + [" ".join(r) for r in rows]).encode()
    space = st.text(alphabet=" \t", max_size=2)
    gap = st.text(alphabet=" \t", min_size=1, max_size=3)
    lines = [draw(space) + draw(gap).join(row) + draw(space) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(space))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([f"{n} {m}"] + lines) + (eol if draw(st.booleans()) else "")
    return n, edges, text.encode()


class TestBuildAgainstReferences:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_csr_matches_argsort_build(self, data):
        n = data.draw(st.integers(min_value=0, max_value=30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        if data.draw(st.booleans()):
            edges.sort()  # the sampler's lexicographic order
        us = np.array([u for u, _ in edges], dtype=np.int64)
        vs = np.array([v for _, v in edges], dtype=np.int64)
        g = graph_module._from_keys(n, *graph_module._validated_keys(n, us, vs))
        assert g == reference_csr(n, us, vs)
        assert g.indices.dtype == np.int32

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_from_edges_matches_reference(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12))
        ids = st.integers(min_value=-1, max_value=n)
        edges = data.draw(st.lists(st.tuples(ids, ids), max_size=30))
        try:
            want = reference_from_edges(n, edges)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                Graph.from_edges(n, edges)
            assert fault_of(str(got.value), "pair") == fault_of(str(exc), "pair")
        else:
            assert Graph.from_edges(n, edges) == want

    @PROPERTY_SETTINGS
    @given(case=edge_files())
    def test_load_matches_reference(self, case, tmp_path_factory):
        n, edges, text = case
        path = tmp_path_factory.mktemp("io") / "g.txt"
        path.write_bytes(text)
        g = load_edge_list(path)
        assert g == reference_load_edge_list(path)
        assert g == reference_from_edges(n, edges)

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fault_named_like_reference(self, fault, data, tmp_path_factory):
        _, _, text = data.draw(edge_files(fault))
        path = tmp_path_factory.mktemp("io") / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(GraphFormatError) as want:
            reference_load_edge_list(path)
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(path)
        assert fault_of(str(got.value)) == fault_of(str(want.value))


class TestPlainLayout:
    """``save_edge_list``'s layout, and layouts near it, against the per-line reference."""

    @PROPERTY_SETTINGS
    @given(case=edge_files(plain=True))
    def test_load_matches_reference(self, case, tmp_path_factory):
        n, edges, text = case
        path = tmp_path_factory.mktemp("io") / "g.txt"
        path.write_bytes(text)
        g = load_edge_list(path)
        assert g == reference_load_edge_list(path)
        assert g == reference_from_edges(n, edges)

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fault_named_like_reference(self, fault, data, tmp_path_factory):
        _, _, text = data.draw(edge_files(fault, plain=True))
        path = tmp_path_factory.mktemp("io") / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(GraphFormatError) as want:
            reference_load_edge_list(path)
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(path)
        assert fault_of(str(got.value)) == fault_of(str(want.value))

    def test_saved_file_takes_one_pass(self, tmp_path):
        g = sample_gnp(GnpParams(300, 0.05, 4))
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g == reference_load_edge_list(path)

    def test_saved_file_and_its_other_layouts_at_scale(self, tmp_path):
        g = sample_gnp(GnpParams(20000, 40 / 20000, 1))
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        text = path.read_bytes()
        assert load_edge_list(path) == g
        for name, copy in [
            ("crlf", text.replace(b"\n", b"\r\n")),
            ("tab", text.replace(b" ", b"\t")),
            ("blank", text.replace(b"\n", b"\n\n")),
        ]:
            other = tmp_path / f"{name}.txt"
            other.write_bytes(copy)
            assert load_edge_list(other) == g, name

    @pytest.mark.parametrize(
        "layout",
        [
            b"4 3\n0 1\n0\t3\n2 3\n",  # a tab
            b"4 3\r\n0 1\r\n0 3\r\n2 3\r\n",  # CRLF
            b"4 3\n0 1\n\n0 3\n2 3\n",  # a blank line
            b"4 3\n0 1\n0 3\n2 3",  # no final LF
            b"4 3\n0 1\n0  3\n2 3\n",  # two spaces
            b"4 3\n0 1 \n0 3\n2 3\n",  # a trailing space
        ],
    )
    def test_other_layouts_take_the_scan(self, tmp_path, layout):
        path = tmp_path / "g.txt"
        path.write_bytes(layout)
        want = Graph.from_edges(4, [(0, 1), (0, 3), (2, 3)])
        assert load_edge_list(path) == reference_load_edge_list(path) == want

    # Each has 2m separators that alternate space and LF, but is not plain.
    @pytest.mark.parametrize(
        "text",
        [
            b"3 2\n0 \n1 2\n",  # a line of one field ends in a space
            b"4 3\n0 1\n \n0 3\n",  # a blank line of one space
            b"3 1\n0 1\n2",  # no final LF: a token after the last separator
            b"3 2\n 0\n1 2\n",  # the body starts with a separator
        ],
    )
    def test_near_plain_faults_take_the_scan(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(GraphFormatError) as want:
            reference_load_edge_list(path)
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(path)
        assert fault_of(str(got.value)) == fault_of(str(want.value))

    @pytest.mark.parametrize(
        "text,message",
        [
            (b"3 2\n0 1\n1 1\n", "line 3: self-loop at vertex 1"),
            (b"3 2\n0 2\n0 2\n", "line 3: duplicate edge (0, 2)"),
            (b"3 1\n0 99999999999999999999999\n", "line 2: edge (0, 99999999999999999999999) out"),
        ],
    )
    def test_faulty_pair_named_by_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            load_edge_list(path)


@st.composite
def small_gnp(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return GnpParams(n, p, seed)


class TestSkipDraw:
    @PROPERTY_SETTINGS
    @given(
        p=st.floats(min_value=1e-15, max_value=1 / 3, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sizes=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=4),
    )
    def test_inversion_matches_numpy_geometric(self, p, seed, sizes):
        self.check_split_draws(p, seed, sizes)

    @pytest.mark.parametrize("p", [1 / 3, 0.5, 0.9])
    def test_search_branch_is_numpy_geometric(self, p):
        assert p >= graph_module._SEARCH_P
        self.check_split_draws(p, 7, [300, 1, 0, 250])

    @staticmethod
    def check_split_draws(p, seed, sizes):
        mine = np.random.Generator(np.random.PCG64(seed))
        theirs = np.random.Generator(np.random.PCG64(seed))
        got = np.concatenate([graph_module._geometric(mine, p, k) for k in sizes])
        assert np.array_equal(got.astype(np.int64), theirs.geometric(p, size=sum(sizes)))
        assert mine.integers(2**62) == theirs.integers(2**62)  # the streams stay in step

    @PROPERTY_SETTINGS
    @given(params=small_gnp(), data=st.data())
    def test_sampler_layout_matches_from_edges(self, params, data):
        n, p = params.n, params.p
        npairs = n * (n - 1) // 2
        if npairs == 0 or p == 0.0:
            ranks = np.empty(0, dtype=np.int64)
        elif p == 1.0:
            ranks = np.arange(npairs)
        else:
            rng = np.random.Generator(np.random.PCG64(params.rng_seed))
            ranks = graph_module._skip_sample(rng, npairs, p)
        us, vs = np.triu_indices(n, 1)  # lexicographic pair order, rank by rank
        pairs = data.draw(st.permutations(list(zip(us[ranks].tolist(), vs[ranks].tolist()))))
        assert sample_gnp(params) == Graph.from_edges(n, pairs)


class TestGraphProperties:
    @PROPERTY_SETTINGS
    @given(params=small_gnp())
    def test_adjacency_symmetric(self, params):
        g = sample_gnp(params)
        for u, v in g.edges():
            assert u < v
            assert u in g.neighbors(v)
            assert v in g.neighbors(u)
        assert sum(g.degrees.tolist()) == 2 * g.edge_count

    @PROPERTY_SETTINGS
    @given(params=small_gnp())
    def test_components_partition_vertices(self, params):
        g = sample_gnp(params)
        comps = connected_components(g)
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(range(g.vertex_count))
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)

    @PROPERTY_SETTINGS
    @given(params=small_gnp(), data=st.data())
    @pytest.mark.parametrize("rule", ["push", "pull"])
    def test_components_match_oracle_on_forced_waves(self, rule, params, data):
        g = sample_gnp(params)
        n = g.vertex_count
        adj = adjacency_sets(list(g.edges()), n)
        restrict = data.draw(st.none() | st.sets(st.integers(0, n - 1), max_size=n))
        with wave_rule(rule):
            got = connected_components(g, restrict)
            connected = is_connected(g)
        assert got == naive_components(adj, restrict)
        assert connected == (len(naive_components(adj)) <= 1)

    @PROPERTY_SETTINGS
    @given(params=small_gnp())
    def test_io_round_trip(self, params, tmp_path_factory):
        g = sample_gnp(params)
        path = tmp_path_factory.mktemp("io") / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g
