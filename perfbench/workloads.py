"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed, then runs whole
rounds of one fixed list of operations through the package's public API.
``run`` is the timed part of a round; ``check`` runs after it, untimed.
Checks that need an object the package drops inside a batch run (a
constructed set, a found tuple) run in a wrapper around the call, with the
clock paused.  Every check rests on the method's own properties or on the
reference in ``refcheck``, never on a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import traceback
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import contagion
import refcheck
from refcheck import CheckError, RefGraph

R = 2


def derive(seed: int, label: str) -> int:
    """A 63-bit input seed from the workload seed and a label."""
    state = np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(2, np.uint64)
    return int(state[0] >> np.uint64(1))


def thresholds(root: Path) -> dict:
    """The package's statistical cutoffs, read as data."""
    path = root / "src" / "contagion" / "data" / "statistical_thresholds.json"
    return json.loads(path.read_text(encoding="utf-8"))


class Step:
    """A group of operations that succeed or fail together or per trial."""

    def __init__(self, name: str, ops: int):
        self.name = name
        self.ops = ops
        self.trials_seen = 0
        self.failed_trials: set[int] = set()
        self.whole_failed = False
        self.raised = False
        self.seconds = 0.0

    def next_trial(self) -> int:
        self.trials_seen += 1
        return self.trials_seen - 1

    def fail(self, message: str, trial: int | None = None) -> None:
        where = self.name if trial is None else f"{self.name}[{trial}]"
        print(f"perfbench: check failed in {where}: {message}", file=sys.stderr)
        if trial is None:
            self.whole_failed = True
        else:
            self.failed_trials.add(trial)

    @property
    def failed(self) -> int:
        if self.whole_failed or self.raised:
            return self.ops
        return min(self.ops, len(self.failed_trials))


class Round:
    """The steps of one round, and the check wrappers that report into them."""

    def __init__(self, clock):
        self.clock = clock
        self.steps: dict[str, Step] = {}
        self.current: Step | None = None

    @contextmanager
    def step(self, name: str, ops: int):
        st = self.steps[name] = Step(name, ops)
        self.current = st
        start = self.clock.now()
        try:
            yield st
        except Exception:  # an operation that raises counts as failed
            st.raised = True
            print(f"perfbench: {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            st.seconds = self.clock.now() - start
            self.current = None

    @contextmanager
    def checking(self, trial: int | None = None):
        """Run a check with the clock paused; a failure marks the current step."""
        st = self.current
        with self.clock.paused():
            try:
                yield
            except CheckError as exc:
                st.fail(str(exc), trial)

    def attempted(self) -> int:
        return sum(st.ops for st in self.steps.values())

    def failed(self) -> int:
        return sum(st.failed for st in self.steps.values())


def check_constructed(rnd: Round, expect_fallback: bool | None):
    """Wrapper maker: every constructed set must be contagious."""

    def make(original):
        def wrapped(graph, params=None, *args, **kwargs):
            seeds, trace = original(graph, params, *args, **kwargs)
            r = params.r if params is not None else R
            trial = rnd.current.next_trial()
            with rnd.checking(trial):
                if not RefGraph(graph).is_contagious(seeds, r):
                    raise CheckError(f"constructed set of size {len(seeds)} is not contagious")
                if expect_fallback is not None and trace.fallback_used != expect_fallback:
                    raise CheckError(f"fallback_used is {trace.fallback_used}, expected {expect_fallback}")
            return seeds, trace

        return wrapped

    return make


def check_searched(rnd: Round, found_log: list):
    """Wrapper maker: every found tuple has r vertices and is contagious."""

    def make(original):
        def wrapped(graph, params):
            found = original(graph, params)
            trial = rnd.current.next_trial()
            found_log.append(found is not None)
            if found is not None:
                with rnd.checking(trial):
                    tup = found[0]
                    if len(tup) != params.r:
                        raise CheckError(f"found tuple has {len(tup)} vertices, not {params.r}")
                    if not RefGraph(graph).is_contagious(tup, params.r):
                        raise CheckError("found tuple is not contagious")
            return found

        return wrapped

    return make


def check_every_trace(rnd: Round, patches) -> None:
    """Traced rounds: recompute every trace and check every sampled graph."""
    cache: list = [None, None]

    def ref_of(graph) -> RefGraph:
        if cache[0] is not graph:
            cache[:] = [graph, RefGraph(graph)]
        return cache[1]

    def make_percolate(original):
        def wrapped(graph, seeds, r):
            result = original(graph, seeds, r)
            with rnd.checking():
                refcheck.check_trace(ref_of(graph), result)
            return result

        return wrapped

    def make_sample(original):
        def wrapped(params):
            graph = original(params)
            with rnd.checking():
                refcheck.check_graph(ref_of(graph), params.p)
            return graph

        return wrapped

    patches.wrap("contagion.percolation", "percolate", make_percolate)
    patches.wrap("contagion.graph", "sample_gnp", make_sample)


def check_csv(text: str, records) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != list(contagion.CSV_HEADER_V1) or len(rows) != len(records) + 1:
        raise CheckError("rendered CSV has the wrong header or row count")
    col = rows[0].index("seed_size")
    for row, rec in zip(rows[1:], records):
        if row[col] != ("" if rec.seed_size is None else str(rec.seed_size)):
            raise CheckError("rendered CSV disagrees with the records")


def normalized(size: int, n: int, d: float, r: int) -> float:
    return size * d ** (r / (r - 1)) * math.log2(d) / n


class ConstructScaling:
    """First theorem at scale: sampler, staged constructor, validator, I/O."""

    n = 200_000
    degrees = (40.0, 160.0)
    io_degree = 40.0

    def __init__(self, seed: int, root: Path):
        self.cuts = thresholds(root)
        self.config = contagion.ExperimentConfig(
            mode="sweep",
            n_list=(self.n,),
            d_list=self.degrees,
            r=R,
            trials=1,
            master_seed=derive(seed, "sweep"),
            jobs=1,
        )
        self.io_params = contagion.GnpParams(self.n, self.io_degree / self.n, derive(seed, "roundtrip"))
        self.path = root / ".perfbench_tmp" / f"edges-{os.getpid()}.txt"

    def wrappers(self, rnd: Round, patches) -> None:
        patches.wrap("contagion.construct", "construct_contagious", check_constructed(rnd, False))

    def run(self, rnd: Round) -> dict:
        out: dict = {}
        with rnd.step("sweep", ops=len(self.degrees)):
            out["sweep"] = contagion.run_experiment(self.config)
            out["csv"] = contagion.render_output(self.config, out["sweep"])
        with rnd.step("roundtrip", ops=1):
            self.path.parent.mkdir(exist_ok=True)
            try:
                g = contagion.sample_gnp(self.io_params)
                contagion.save_edge_list(g, self.path)
                g2 = contagion.load_edge_list(self.path)
            finally:
                self.path.unlink(missing_ok=True)
            seeds, _ = contagion.construct_contagious(g2)
            res = contagion.percolate(g2, seeds, R)
            contagion.validate_result(g2, res)
            out["roundtrip"] = (g, g2, seeds, res)
        return out

    def check(self, rnd: Round, out: dict) -> None:
        lo, hi = self.cuts["sweep_normalized_band"]
        if "sweep" in out:
            st = rnd.steps["sweep"]
            recs = out["sweep"].records
            try:
                check_csv(out["csv"], recs)
                by_d = {rec.d: rec for rec in recs}
                if sorted(by_d) != sorted(self.degrees) or len(recs) != len(self.degrees):
                    raise CheckError("sweep records do not cover the degree list")
                for rec in recs:
                    norm = normalized(rec.constructed_size, rec.n, rec.d, R)
                    if not math.isclose(norm, rec.normalized_size, rel_tol=1e-12):
                        raise CheckError(f"normalized_size {rec.normalized_size} != {norm}")
                    if not lo <= norm <= hi:
                        raise CheckError(f"normalized size {norm:.3f} at d={rec.d} outside [{lo}, {hi}]")
                    if rec.value != 0.0 or not rec.contagious:
                        raise CheckError(f"sweep trial at d={rec.d} used the fallback or did not spread")
                if by_d[160.0].constructed_size > by_d[40.0].constructed_size:
                    raise CheckError("constructed set at d=160 is larger than at d=40")
            except CheckError as exc:
                st.fail(str(exc))
        if "roundtrip" in out:
            st = rnd.steps["roundtrip"]
            g, g2, seeds, res = out["roundtrip"]
            try:
                if not refcheck.graphs_equal(g, g2):
                    raise CheckError("load_edge_list(save_edge_list(g)) differs from g")
                ref = RefGraph(g2)
                refcheck.check_graph(ref, self.io_params.p)
                refcheck.check_trace(ref, res)
                refcheck.check_fixation(ref, res.generation, R)
                if not res.contagious:
                    raise CheckError("round-trip constructed set is not contagious")
                norm = normalized(len(seeds), self.n, 2.0 * g2.edge_count / self.n, R)
                if not lo <= norm <= hi:
                    raise CheckError(f"round-trip normalized size {norm:.3f} outside [{lo}, {hi}]")
            except CheckError as exc:
                st.fail(str(exc))


class TupleThreshold:
    """Second theorem: threshold mode, many mid-size graphs, a search on each."""

    n = 20_000
    probe_trials = 20

    def __init__(self, seed: int, root: Path):
        self.cuts = thresholds(root)
        self.config = contagion.ExperimentConfig(
            mode="threshold",
            n_list=(self.n,),
            r=R,
            probe_trials=self.probe_trials,
            master_seed=derive(seed, "threshold"),
            jobs=1,
        )
        self.found_log: list[bool] = []

    def wrappers(self, rnd: Round, patches) -> None:
        self.found_log = []
        patches.wrap("contagion.construct", "search_minimal_tuple", check_searched(rnd, self.found_log))

    def run(self, rnd: Round) -> dict:
        out: dict = {}
        # The probe count depends on the search outcomes; it is fixed once
        # the batch has run.
        with rnd.step("threshold", ops=self.probe_trials) as st:
            out["threshold"] = contagion.run_experiment(self.config)
            out["csv"] = contagion.render_output(self.config, out["threshold"])
            st.ops = sum(1 for rec in out["threshold"].records if rec.variant == "probe")
        return out

    def check(self, rnd: Round, out: dict) -> None:
        if "threshold" not in out:
            return
        st = rnd.steps["threshold"]
        outcome = out["threshold"]
        try:
            check_csv(out["csv"], outcome.records)
            probes = [rec for rec in outcome.records if rec.variant == "probe"]
            if len(probes) != len(self.found_log):
                raise CheckError("probe records and search calls disagree in number")
            if sum(rec.success for rec in probes) != sum(self.found_log):
                raise CheckError("probe successes disagree with the searches that found a tuple")
            (entry,) = outcome.summary["per_n"]
            if entry["no_crossing"] or outcome.flagged:
                raise CheckError("threshold search reported no crossing")
            rates: dict[float, list[bool]] = {}
            for rec in probes:
                rates.setdefault(rec.p, []).append(bool(rec.success))
            if any(len(v) != self.probe_trials for v in rates.values()):
                raise CheckError("a probed p does not have probe_trials trials")
            p_lo, p_hi = entry["p_lo"], entry["p_hi"]
            if p_lo not in rates or p_hi not in rates:
                raise CheckError("p_lo or p_hi was never probed")
            if np.mean(rates[p_hi]) < 0.5 or np.mean(rates[p_lo]) >= 0.5:
                raise CheckError(
                    f"success rates {np.mean(rates[p_lo])} at p_lo and {np.mean(rates[p_hi])} at p_hi do not bracket 0.5"
                )
            p50 = (p_lo + p_hi) / 2.0
            ratio = p50 * math.sqrt(self.n * math.log(self.n))
            band = self.cuts["threshold_ratio_band"]
            if not math.isclose(ratio, entry["ratio"], rel_tol=1e-9) or not 1.0 / band <= ratio <= band:
                raise CheckError(f"located ratio {entry['ratio']} is not {ratio:.4f} within [1/{band}, {band}]")
        except CheckError as exc:
            st.fail(str(exc))


# Exact-solver instances: (r, n, p, generator seed, node budget).  They are
# fixed, not drawn from the workload seed, because solve cost is heavy-tailed
# across graphs; the two smallest are also solved by brute force.
EXACT_INSTANCES = (
    (2, 60, 0.07, 1, 250_000),
    (3, 40, 0.15, 1, 250_000),
    (3, 40, 0.15, 2, 100_000),
    (2, 50, 0.08, 2, 100_000),
    (3, 50, 0.12, 1, 100_000),
    (3, 50, 0.12, 2, 100_000),
    (2, 18, 0.2, 13, 100_000),
    (3, 18, 0.3, 13, 100_000),
)
BRUTE_FORCE_MAX_N = 18


def instance_graph(n: int, p: float, seed: int):
    """G(n, p) drawn by the benchmark itself: one uniform per vertex pair."""
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, 1)
    keep = rng.random(us.size) < p
    return contagion.Graph.from_edges(n, zip(us[keep].tolist(), vs[keep].tolist()))


class Repercolate:
    """Few graphs, many activation runs on each: both engine paths."""

    n = 100_000
    degree = 20.0
    trials = 3
    fallback_n = 10_000
    fallback_degree = 3.0

    def __init__(self, seed: int, root: Path):
        self.cuts = thresholds(root)
        common = dict(n_list=(self.n,), d_list=(self.degree,), r=R, trials=self.trials, jobs=1)
        self.compare = contagion.ExperimentConfig(mode="compare", master_seed=derive(seed, "compare"), **common)
        self.partial = contagion.ExperimentConfig(mode="partial", master_seed=derive(seed, "partial"), **common)
        self.fallback_params = contagion.GnpParams(
            self.fallback_n, self.fallback_degree / self.fallback_n, derive(seed, "fallback")
        )
        self.instances = [(r, instance_graph(n, p, s), budget) for r, n, p, s, budget in EXACT_INSTANCES]

    def wrappers(self, rnd: Round, patches) -> None:
        patches.wrap("contagion.construct", "construct_contagious", check_constructed(rnd, None))

    def run(self, rnd: Round) -> dict:
        out: dict = {}
        with rnd.step("compare", ops=self.trials):
            out["compare"] = contagion.run_experiment(self.compare)
            out["compare_csv"] = contagion.render_output(self.compare, out["compare"])
        with rnd.step("partial", ops=self.trials):
            out["partial"] = contagion.run_experiment(self.partial)
            out["partial_csv"] = contagion.render_output(self.partial, out["partial"])
        with rnd.step("fallback", ops=1):
            g = contagion.sample_gnp(self.fallback_params)
            seeds, trace = contagion.construct_contagious(g)
            out["fallback"] = (g, seeds, trace)
        for i, (r, g, budget) in enumerate(self.instances):
            with rnd.step(f"exact{i}", ops=1):
                out[f"exact{i}"] = contagion.min_contagious_exact(g, r, budget)
        return out

    def check(self, rnd: Round, out: dict) -> None:
        cuts = self.cuts
        n, d, r = self.n, self.degree, R
        p = d / n
        for name in ("compare", "partial"):
            if name not in out:
                continue
            try:
                check_csv(out[f"{name}_csv"], out[name].records)
                if out[name].flagged:
                    raise CheckError(f"{name} flagged its own statistical check")
            except CheckError as exc:
                rnd.steps[name].fail(str(exc))
        if "compare" in out:
            recs = out["compare"].records
            cascade = [rec for rec in recs if rec.variant == "random_cascade"]
            stall = [rec for rec in recs if rec.variant == "random_stall"]
            stall_cap = cuts["stall_slack"] * 2.0 * (math.factorial(r - 1) / (n * p**r)) ** (1.0 / (r - 1))
            cascade_rate = np.mean([rec.active_count >= cuts["cascade_fraction"] * n for rec in cascade])
            stall_rate = np.mean([rec.active_count <= stall_cap for rec in stall])
            if len(cascade) != self.trials or len(stall) != self.trials:
                rnd.steps["compare"].fail("compare is missing cascade or stall records")
            elif cascade_rate < cuts["cascade_pass_rate"] or stall_rate < cuts["stall_pass_rate"]:
                rnd.steps["compare"].fail(f"cascade rate {cascade_rate} or stall rate {stall_rate} below cutoff")
        if "partial" in out:
            cap = cuts["partial_slack"] * max(1.0, n / d**3)
            if len(out["partial"].records) != self.trials:
                rnd.steps["partial"].fail("partial returned the wrong number of records")
            for trial, rec in enumerate(out["partial"].records):
                if rec.variant != "partial" or n - rec.active_count > cap:
                    rnd.steps["partial"].fail(f"{n - rec.active_count} left inactive, cap {cap}", trial)
        if "fallback" in out:
            g, seeds, trace = out["fallback"]
            try:
                ref = RefGraph(g)
                refcheck.check_graph(ref, self.fallback_params.p)
                if not trace.fallback_used:
                    raise CheckError("G(10000, 3/n) did not take the fallback")
                if not set(np.flatnonzero(ref.degrees < r).tolist()) <= set(seeds):
                    raise CheckError("fallback set misses a vertex of degree < r")
            except CheckError as exc:
                rnd.steps["fallback"].fail(str(exc))
        for i, (ri, g, _) in enumerate(self.instances):
            res = out.get(f"exact{i}")
            if res is None:
                continue
            try:
                if res.status != "exact":
                    raise CheckError(f"status {res.status} within budget")
                ref = RefGraph(g)
                refcheck.check_minimum_witness(ref, ri, res.witness, refcheck.greedy_fallback_size(ref, ri))
                if res.size != len(res.witness):
                    raise CheckError("size disagrees with the witness")
                if g.vertex_count <= BRUTE_FORCE_MAX_N and res.size != refcheck.brute_force_minimum(ref, ri):
                    raise CheckError("exact size differs from the brute-force minimum")
            except CheckError as exc:
                rnd.steps[f"exact{i}"].fail(str(exc))


WORKLOADS = {
    "construct-scaling": ConstructScaling,
    "tuple-threshold": TupleThreshold,
    "repercolate": Repercolate,
}
