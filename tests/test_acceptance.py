"""End-to-end acceptance run.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with the measured quantities, and enforces its wall-clock budget.  The
scales and tolerances here are fixed; loosening them is not an option.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from contagion import (
    ExperimentConfig,
    GnpParams,
    Graph,
    TupleSearchParams,
    construct_contagious,
    critical_random_seed_size,
    density_witness,
    growth_violations,
    h2k_longest_path,
    mandatory_seeds,
    min_contagious_exact,
    normalized_size,
    percolate,
    render_output,
    run_experiment,
    sample_gnp,
    search_minimal_tuple,
    validate_result,
)

from conftest import (
    adjacency_sets,
    complete_graph,
    naive_min_contagious,
    naive_percolate,
    random_graph_edges,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_c01_engine_and_solver_match_oracles():
    budget = 120.0
    start = time.monotonic()
    rng = np.random.default_rng(20_240_101)
    checked_engine = 0
    checked_solver = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = float(rng.choice([0.2, 0.4, 0.6]))
        r = int(rng.choice([2, 3]))
        edges = random_graph_edges(n, p, rng)
        g = Graph.from_edges(n, edges)
        adj = adjacency_sets(edges, n)

        seeds = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
        res = percolate(g, seeds, r)
        gen_oracle, tau_oracle = naive_percolate(adj, seeds, r)
        assert res.tau == tau_oracle
        assert res.active_count == len(gen_oracle)
        for v in range(n):
            assert res.generation[v] == gen_oracle.get(v, -1)
        validate_result(g, res)
        checked_engine += 1

        exact = min_contagious_exact(g, r)
        size_oracle, witness_oracle = naive_min_contagious(adj, r, n)
        assert exact.size == size_oracle, f"solver {exact.size} != enumeration {size_oracle}"
        # enumeration runs in lexicographic order, so its set is the first minimum
        assert exact.witness == witness_oracle
        assert exact.status == "exact"
        assert percolate(g, exact.witness, r).contagious
        checked_solver += 1

    elapsed = time.monotonic() - start
    _report(
        1,
        "engine and pruned solver match brute-force oracles",
        checked_engine == 200 and checked_solver == 200 and elapsed < budget,
        f"{checked_engine} engine + {checked_solver} solver checks in {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c02_exact_solver_known_values():
    k4_iso = Graph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ok = min_contagious_exact(k4_iso, 2).size == 3
    ok = ok and min_contagious_exact(c4, 2).size == 2
    for r in (2, 3, 4):
        ok = ok and min_contagious_exact(complete_graph(r + 1), r).size == r

    rng = np.random.default_rng(2)
    contained = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = float(rng.choice([0.15, 0.3, 0.5]))
        g = Graph.from_edges(n, random_graph_edges(n, p, rng))
        res = min_contagious_exact(g, 2)
        if mandatory_seeds(g, 2) <= res.witness:
            contained += 1
    ok = ok and contained == 100
    _report(
        2,
        "exact values on reference graphs, mandatory vertices always included",
        ok,
        f"fixed cases exact, witness containment {contained}/100",
    )


def test_c03_density_witness_zero_tolerance():
    budget = 300.0
    start = time.monotonic()
    rng = np.random.default_rng(33)
    traces = 0
    checks = 0

    def check_trace(g, res):
        nonlocal traces, checks
        t0 = len(res.seeds)
        hi = res.active_count
        if hi - t0 <= 2000:
            ts = range(t0, hi + 1)
        else:
            ts = np.linspace(t0, hi, 200).astype(int).tolist()
        for t in ts:
            rep = density_witness(g, res, int(t))
            assert rep.holds, f"density witness violated at t={t} (n={g.vertex_count})"
            checks += 1
        traces += 1

    # small and mid random graphs across the parameter box
    for _ in range(60):
        n = int(rng.integers(4, 60))
        p = float(rng.choice([0.1, 0.25, 0.5]))
        r = int(rng.choice([2, 3]))
        g = Graph.from_edges(n, random_graph_edges(n, p, rng))
        k = int(rng.integers(1, max(2, n // 2)))
        seeds = rng.choice(n, size=k, replace=False)
        check_trace(g, percolate(g, seeds, r))

    # large near-threshold cascades, where the bound is tightest
    for s in range(6):
        n = 20_000
        p = 2.0 / math.sqrt(n * math.log(n))
        g = sample_gnp(GnpParams(n, p, 900 + s))
        seeds = rng.choice(n, size=40, replace=False)
        check_trace(g, percolate(g, seeds, 2))

    elapsed = time.monotonic() - start
    _report(
        3,
        "activation prefixes always span r(t - t0) edges",
        elapsed < budget,
        f"{checks} prefix checks over {traces} traces in {elapsed:.1f}s, zero violations",
    )


def test_c04_constructor_scaling():
    budget = 600.0
    band_lo, band_hi = 0.2, 20.0
    start = time.monotonic()
    n = 200_000
    medians = {}
    all_in_band = True
    worst = None
    for d in (40.0, 80.0, 160.0):
        sizes = []
        for trial in range(5):
            g = sample_gnp(GnpParams(n, d / n, 5000 + trial))
            seeds, trace = construct_contagious(g)
            assert not trace.fallback_used, "staged path must engage at this scale"
            sizes.append(len(seeds))
            norm = normalized_size(len(seeds), n, d, 2)
            if not (band_lo <= norm <= band_hi):
                all_in_band = False
                worst = (d, trial, norm)
        medians[d] = sorted(sizes)[2]
    non_increasing = medians[40.0] >= medians[80.0] >= medians[160.0]
    elapsed = time.monotonic() - start
    _report(
        4,
        "constructed size tracks n / (d^2 log d) at n=200000",
        all_in_band and non_increasing and elapsed < budget,
        f"median sizes {medians[40.0]}/{medians[80.0]}/{medians[160.0]} for d=40/80/160, "
        f"all normalized in [{band_lo}, {band_hi}]"
        + (f", worst={worst}" if worst else "")
        + f", {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c05_critical_size_cascade_and_stall():
    budget = 300.0
    start = time.monotonic()
    n, p = 100_000, 2e-4
    a_c = critical_random_seed_size(n, p, 2)
    assert a_c == pytest.approx(125.0)
    cascade_size = int(2 * a_c)  # 250
    stall_size = int(a_c / 2)  # 62

    cascades = 0
    stalls = 0
    for trial in range(10):
        g = sample_gnp(GnpParams(n, p, 7000 + trial))
        rng = np.random.default_rng(600 + trial)
        big = percolate(g, rng.choice(n, size=cascade_size, replace=False), 2)
        if big.active_count >= 0.9 * n:
            cascades += 1
        small = percolate(g, rng.choice(n, size=stall_size, replace=False), 2)
        if small.active_count <= 1000:
            stalls += 1

    elapsed = time.monotonic() - start
    _report(
        5,
        "double the critical size cascades, half of it stalls",
        cascades >= 8 and stalls >= 8 and elapsed < budget,
        f"cascade {cascades}/10 at size {cascade_size}, stall {stalls}/10 at size "
        f"{stall_size}, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c06_threshold_location():
    budget = 1800.0
    start = time.monotonic()
    cfg = ExperimentConfig(
        mode="threshold",
        n_list=(20_000, 80_000),
        trials=1,
        probe_trials=30,
        master_seed=60,
    )
    out = run_experiment(cfg)
    ratios = {row["n"]: row["ratio"] for row in out.summary["per_n"]}
    ok = not out.flagged and all(
        ratio is not None and 1 / 3 <= ratio <= 3 for ratio in ratios.values()
    )
    elapsed = time.monotonic() - start
    _report(
        6,
        "located tuple threshold matches (n ln n)^{-1/2} within factor 3",
        ok and elapsed < budget,
        f"ratios {ratios}, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c07_near_threshold_tuples_and_growth():
    budget = 600.0
    start = time.monotonic()

    found_stats = {}
    tau_ok = True
    for n in (20_000, 80_000):
        p = 4.0 * (n * math.log(n)) ** -0.5
        cap = 200.0 * math.log(math.log(n))
        found = 0
        for s in range(6):
            g = sample_gnp(GnpParams(n, p, 40_000 + s))
            params = TupleSearchParams.for_graph(n, r=2, rng_seed=s)
            hit = search_minimal_tuple(g, params)
            if hit is None:
                continue
            found += 1
            seeds, res = hit
            if not (res.contagious and 1 <= res.tau <= cap):
                tau_ok = False
        found_stats[n] = found

    # growth check in its stated regime: p <= 1 / sqrt(2 e n)
    n = 100_000
    p = 0.9 / math.sqrt(2 * math.e * n)
    violations = 0
    checked_runs = 0
    for s in range(3):
        g = sample_gnp(GnpParams(n, p, 77_000 + s))
        for size in (25, 2000):
            rng = np.random.default_rng(1000 * s + size)
            res = percolate(g, rng.choice(n, size=size, replace=False), 2)
            violations += growth_violations(res.per_round_counts, len(res.seeds), n, p)
            checked_runs += 1

    elapsed = time.monotonic() - start
    ok = (
        all(v >= 4 for v in found_stats.values())
        and tau_ok
        and violations == 0
        and elapsed < budget
    )
    _report(
        7,
        "near-threshold tuples cascade slowly but within the generation cap",
        ok,
        f"found {found_stats}, tau bounds held, {violations} growth violations over "
        f"{checked_runs} in-regime runs, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_c08_generations_dag_depth():
    budget = 60.0
    start = time.monotonic()
    k_big, k_small = 10_000, 100
    bound = 40.0 * math.log(k_big)
    depths_big = [h2k_longest_path(k_big, s) for s in range(100)]
    depths_small = [h2k_longest_path(k_small, s) for s in range(100)]
    med_big = sorted(depths_big)[50]
    med_small = sorted(depths_small)[50]
    ok = max(depths_big) < bound and med_big >= med_small
    elapsed = time.monotonic() - start
    _report(
        8,
        "recursive DAG depth stays below 40 ln k and grows with k",
        ok and elapsed < budget,
        f"max depth {max(depths_big)} < {bound:.0f}, medians {med_big} >= {med_small}, "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_c09_partial_activation_remainder():
    budget = 180.0
    start = time.monotonic()
    n, d = 100_000, 20.0
    p = d / n
    cap = 10.0 * max(1.0, n / d**3)  # 125
    hits = 0
    worst = 0
    for trial in range(10):
        g = sample_gnp(GnpParams(n, p, 90_000 + trial))
        rng = np.random.default_rng(400 + trial)
        half = rng.choice(n, size=math.ceil(n / 2), replace=False)
        res = percolate(g, half, 2)
        inactive = n - res.active_count
        worst = max(worst, inactive)
        if inactive <= cap:
            hits += 1
    elapsed = time.monotonic() - start
    _report(
        9,
        "activating half the graph leaves at most ~n/d^3 vertices out",
        hits >= 9 and elapsed < budget,
        f"{hits}/10 trials within cap {cap:.0f}, worst remainder {worst}, "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_c10_byte_identical_outputs(tmp_path):
    budget = 600.0
    start = time.monotonic()

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "contagion.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode in (0, 2), proc.stderr
        return proc

    batch_specs = {
        "sweep": ["--n", "1500", "--d", "30", "--trials", "2", "--seed", "1"],
        "threshold": ["--n", "2000", "--trials", "1", "--probe-trials", "6", "--seed", "2"],
        "compare": ["--n", "2000", "--d", "15", "--trials", "2", "--seed", "3"],
        "generations": ["--n", "2000", "--trials", "2", "--seed", "4"],
        "partial": ["--n", "3000", "--d", "15", "--trials", "2", "--seed", "5"],
    }
    identical = []
    for mode, flags in batch_specs.items():
        for fmt in ("csv", "json"):
            a = tmp_path / f"{mode}-a.{fmt}"
            b = tmp_path / f"{mode}-b.{fmt}"
            run([mode, *flags, "--format", fmt, "--out", str(a)])
            run([mode, *flags, "--format", fmt, "--out", str(b)])
            identical.append(a.read_bytes() == b.read_bytes())

    # worker-pool fan-out must not reorder or change records
    par_a = tmp_path / "par-1.csv"
    par_b = tmp_path / "par-4.csv"
    run(["sweep", *batch_specs["sweep"], "--jobs", "1", "--out", str(par_a)])
    run(["sweep", *batch_specs["sweep"], "--jobs", "4", "--out", str(par_b)])
    identical.append(par_a.read_bytes() == par_b.read_bytes())

    # single-shot commands repeat exactly as well
    g = tmp_path / "g.txt"
    run(["generate", "--n", "400", "--p", "0.02", "--seed", "9", "--out", str(g)])
    g2 = tmp_path / "g2.txt"
    run(["generate", "--n", "400", "--p", "0.02", "--seed", "9", "--out", str(g2)])
    identical.append(g.read_bytes() == g2.read_bytes())
    out1 = run(["percolate", "--graph", str(g), "--seeds", "0,1,2,3,4,5,6,7"]).stdout
    out2 = run(["percolate", "--graph", str(g), "--seeds", "0,1,2,3,4,5,6,7"]).stdout
    identical.append(out1 == out2)
    sol1 = run(["solve", "--n", "12", "--p", "0.3", "--seed", "6"]).stdout
    sol2 = run(["solve", "--n", "12", "--p", "0.3", "--seed", "6"]).stdout
    identical.append(sol1 == sol2)
    con1 = run(["construct", "--n", "500", "--d", "25", "--seed", "7", "--trace"]).stdout
    con2 = run(["construct", "--n", "500", "--d", "25", "--seed", "7", "--trace"]).stdout
    identical.append(con1 == con2)

    elapsed = time.monotonic() - start
    _report(
        10,
        "every command's output is byte-identical across reruns and job counts",
        all(identical) and elapsed < budget,
        f"{sum(identical)}/{len(identical)} comparisons identical, {elapsed:.1f}s < {budget:.0f}s",
    )
