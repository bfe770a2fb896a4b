"""Monte-Carlo experiment harness over the construction and search routines.

Five batch modes: ``sweep`` (constructed size scaling across mean degree),
``threshold`` (bisection for the probability where the r-tuple search
crosses 50 percent success), ``compare`` (random seed sets above and below
the critical size against constructed ones, and that size found in one
pass over one random order), ``generations`` (round counts and per-round
growth checks on near-threshold finds), and ``partial`` (random half
activations and how little they leave behind).  Each constructed set is
verified once, by the fresh engine run the constructor keeps as ``trace.result``.

Reproducibility contract: each trial's seed is a stable hash of
(master_seed, mode, n, d-or-p, trial index, role), so results do not
depend on execution order and the rendered output is byte-identical
across reruns and across worker counts.  Wall-clock timings are therefore
never written into output files; they appear only in the stderr summary.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, fields
from importlib import resources
from typing import Callable

import numpy as np

from .bounds import critical_random_seed_size
from .construct import StageParams, TupleSearchParams, construct_contagious, search_minimal_tuple
from .graph import _MAX_N, GnpParams, sample_gnp
from .percolation import PercolationResult, Percolator, checked_threshold, percolate

__all__ = [
    "CSV_HEADER_V1",
    "MODES",
    "ExperimentRecord",
    "ExperimentConfig",
    "ExperimentOutcome",
    "derive_seed",
    "normalized_size",
    "growth_violations",
    "statistical_thresholds",
    "predicted_threshold",
    "run_experiment",
    "render_csv",
    "render_json",
    "render_output",
]

MODES = ("sweep", "threshold", "compare", "generations", "partial")

# ``threshold`` brackets p within this factor of ``predicted_threshold`` and
# bisects until the bracket is narrower than _REL_TOL of its upper end.
_P_MAX_FACTOR = 32.0
_REL_TOL = 0.1
# ``generations`` without a p_list samples at this multiple of the prediction.
_THRESHOLD_MULT = 4.0
# ``partial`` trials below this mean degree lie outside the model.
_PARTIAL_D0 = 10.0


@functools.cache
def statistical_thresholds() -> dict:
    """Pass/fail cutoffs for the statistical checks, frozen in package data."""
    path = resources.files("contagion").joinpath("data/statistical_thresholds.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and a label tuple.

    Uses blake2b over the repr of the tuple, so the value depends only on
    the arguments, never on execution order or process identity.
    """
    payload = repr((int(master_seed),) + tuple(parts)).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def normalized_size(size: int, n: int, d: float, r: int) -> float | None:
    """Seed-set size rescaled by d^(r/(r-1)) * log2(d) / n; None when d <= 1."""
    if d <= 1.0:
        return None
    return size * d ** (r / (r - 1)) * math.log2(d) / n


def growth_violations(per_round_counts, seed_count: int, n: int, p: float) -> int:
    """Count rounds that break the quadratic growth cap.

    In the regime p <= 1 / sqrt(2 e n), once the active count k has reached
    log2 n, a single round activating k^2 or more vertices is a violation
    of the expected growth profile and gets flagged, not raised.
    """
    if n < 2 or p > 1.0 / math.sqrt(2.0 * math.e * n):
        return 0
    k = seed_count
    floor_k = math.log2(n)
    violations = 0
    for newly in per_round_counts:
        if k >= floor_k and newly >= k * k:
            violations += 1
        k += newly
    return violations


@dataclass(frozen=True)
class ExperimentRecord:
    """One output row; its fields, in order, are the CSV columns and the JSON keys.

    ``variant`` names the row kind within its mode.  ``value``/``value2``
    carry the variant-specific payload (documented per mode in the README).
    Unused fields stay None and render as empty CSV cells or JSON nulls.
    """

    mode: str
    n: int
    d: float | None
    p: float | None
    r: int
    trial: int
    rng_seed: int
    variant: str
    seed_size: int | None = None
    active_count: int | None = None
    tau: int | None = None
    contagious: bool | None = None
    success: bool | None = None
    constructed_size: int | None = None
    exact_size: int | None = None
    normalized_size: float | None = None
    value: float | None = None
    value2: float | None = None

    def sort_key(self):
        return (
            self.mode,
            self.n,
            self.d if self.d is not None else -1.0,
            self.p if self.p is not None else -1.0,
            self.trial,
            self.variant,
        )

    def to_json_dict(self) -> dict:
        return asdict(self)


# The CSV columns, in order: the ExperimentRecord fields.
CSV_HEADER_V1 = [f.name for f in fields(ExperimentRecord)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one batch run.

    ``out``, ``fmt``, and ``jobs`` steer I/O and parallelism only.  ``out``
    and ``jobs`` are left out of ``serializable()``, so reruns stay
    byte-identical whatever the destination or worker count; ``fmt`` is kept.
    """

    mode: str
    n_list: tuple[int, ...]
    d_list: tuple[float, ...] | None = None
    p_list: tuple[float, ...] | None = None
    r: int = 2
    trials: int = 5
    master_seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    probe_trials: int = 30

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings: int, float, str or tuple[...], maybe "| None"
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            item = kind.removeprefix("tuple[").removesuffix(", ...]")
            ok = _is_a(value, kind) if item == kind else (
                isinstance(value, tuple) and all(_is_a(x, item) for x in value))
            if not (ok or (value is None and optional)):
                raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not self.n_list or any(not 1 <= n <= _MAX_N for n in self.n_list):
            raise ValueError(f"n_list must be nonempty with entries in [1, {_MAX_N}]")
        checked_threshold(self.r)
        if self.mode in ("threshold", "generations") and min(self.n_list) < self.r + 1:
            # the tuple search takes r + 1 vertices per iteration
            raise ValueError(f"n_list entries must be at least r + 1 in {self.mode} mode")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.probe_trials < 1:
            raise ValueError("probe_trials must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")

    def serializable(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("out", "jobs")}


def _is_a(value, kind: str) -> bool:
    """Whether ``value`` is an ``int``, ``float`` or ``str``; a bool is not a number,
    and a ``float`` must be a real number that ``float()`` can hold."""
    types = {"int": numbers.Integral, "float": numbers.Real, "str": str}[kind]
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and kind == "float":
        try:
            float(value)
        except OverflowError:  # an int past the float range
            return False
    return ok


@dataclass
class ExperimentOutcome:
    records: list[ExperimentRecord]
    summary: dict
    flagged: bool


def _map_tasks(fn: Callable, config: ExperimentConfig, tasks: list[tuple]) -> list:
    """Run ``fn(config, *task)`` per task and concatenate the returned lists."""
    if config.jobs <= 1 or len(tasks) <= 1:
        batches = [fn(config, *task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only here: a slow import

        # Never more workers than tasks: a fork pool starts all of them at its first submit.
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(tasks))) as pool:
            batches = list(pool.map(functools.partial(fn, config), *zip(*tasks)))
    return [rec for batch in batches for rec in batch]


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def _rate(records) -> float:
    return sum(1 for r in records if r.success) / len(records)


def _trial_start(config: ExperimentConfig, n: int, x: float, trial: int):
    """Seed, graph and shared record fields of one trial at grid point (n, x).

    ``x`` is the mean degree d or the edge probability p, whichever is the
    mode's grid axis in ``_MODE_TABLE``.
    """
    seed = derive_seed(config.master_seed, config.mode, n, x, trial)
    d, p = (x, x / n) if _MODE_TABLE[config.mode][0] == "d" else (x * n, x)
    graph = sample_gnp(GnpParams(n, p, derive_seed(seed, "graph")))
    common = dict(mode=config.mode, n=n, d=d, p=p, r=config.r, trial=trial, rng_seed=seed)
    return seed, graph, common


def _random_run(graph, r: int, size: int, seed: int, role: str) -> PercolationResult:
    """Percolate from ``size`` distinct vertices drawn with the trial's ``role`` seed."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, role)))
    return percolate(graph, rng.choice(graph.vertex_count, size=size, replace=False), r)


def _run_fields(result: PercolationResult) -> dict:
    """The record fields of one activation run: its seed count, reach and outcome."""
    return dict(seed_size=len(result.seeds), active_count=result.active_count,
                tau=result.tau, contagious=result.contagious)


# ---------------------------------------------------------------- trials


def _sweep_trial(config: ExperimentConfig, n: int, d: float, trial: int) -> list[ExperimentRecord]:
    _, graph, common = _trial_start(config, n, d, trial)
    seeds, trace = construct_contagious(graph, StageParams(r=config.r))
    size = len(seeds)
    return [
        ExperimentRecord(
            **common,
            **_run_fields(trace.result),
            variant="construct",
            success=trace.result.contagious,
            constructed_size=size,
            normalized_size=normalized_size(size, n, d, config.r),
            value=float(trace.fallback_used),
        )
    ]


def _search_trial(config: ExperimentConfig, n: int, p: float, trial: int) -> list[ExperimentRecord]:
    """One r-tuple search: a ``threshold`` probe or a ``generations`` find."""
    seed, graph, common = _trial_start(config, n, p, trial)
    params = TupleSearchParams.for_graph(n, r=config.r, rng_seed=derive_seed(seed, "search"))
    found = search_minimal_tuple(graph, params)
    variant = "probe" if config.mode == "threshold" else "tuple"
    if found is None:
        return [ExperimentRecord(**common, variant=variant, success=False)]
    result = found[1]
    violations = None
    if config.mode == "generations":
        violations = float(growth_violations(result.per_round_counts, len(result.seeds), n, p))
    return [
        ExperimentRecord(
            **common,
            **_run_fields(result),
            variant=variant,
            success=True,
            value=violations,
        )
    ]


def _compare_trial(config: ExperimentConfig, n: int, d: float, trial: int) -> list[ExperimentRecord]:
    seed, graph, common = _trial_start(config, n, d, trial)
    p, r = common["p"], config.r
    a_c = critical_random_seed_size(n, p, r)
    cuts = statistical_thresholds()
    full_fraction = cuts["cascade_fraction"]
    stall_cap = cuts["stall_slack"] * 2.0 * (
        math.factorial(r - 1) / (n * p**r)
    ) ** (1.0 / (r - 1))
    records = []

    res_hi = _random_run(graph, r, min(n, int(2.0 * a_c)), seed, "cascade")
    frac_hi = res_hi.active_count / n
    records.append(
        ExperimentRecord(
            **common,
            **_run_fields(res_hi),
            variant="random_cascade",
            success=frac_hi >= full_fraction,
            value=frac_hi,
            value2=a_c,
        )
    )

    res_lo = _random_run(graph, r, min(n, int(a_c / 2.0)), seed, "stall")
    records.append(
        ExperimentRecord(
            **common,
            **_run_fields(res_lo),
            variant="random_stall",
            success=res_lo.active_count <= stall_cap,
            value=float(res_lo.active_count),
            value2=stall_cap,
        )
    )

    seeds, trace = construct_contagious(graph, StageParams(r=r))
    records.append(
        ExperimentRecord(
            **common,
            variant="construct",
            seed_size=len(seeds),
            constructed_size=len(seeds),
            success=True,
            normalized_size=normalized_size(len(seeds), n, d, r),
            value=float(trace.fallback_used),
        )
    )

    # One pass over one random order (Newman and Ziff, PRL 85, 2000): prefix closures
    # are nested, so the first one to reach the cascade fraction gives the critical size.
    order = np.random.Generator(np.random.PCG64(derive_seed(seed, "critical"))).permutation(n)
    state, size = Percolator(graph, r), 0
    while state.active_count < full_fraction * n:
        state.add_seeds([order[size]])
        size += 1
    records.append(
        ExperimentRecord(
            **common,
            variant="critical_size",
            seed_size=size,
            success=True,
            value=float(size),
            value2=a_c,
        )
    )
    return records


def _partial_trial(config: ExperimentConfig, n: int, d: float, trial: int) -> list[ExperimentRecord]:
    seed, graph, common = _trial_start(config, n, d, trial)
    result = _random_run(graph, config.r, math.ceil(n / 2), seed, "half")
    inactive = n - result.active_count
    bound = statistical_thresholds()["partial_slack"] * max(1.0, n / d**3) if d > 0 else None
    return [
        ExperimentRecord(
            **common,
            **_run_fields(result),
            variant="partial_out_of_model" if d < _PARTIAL_D0 else "partial",
            success=(inactive <= bound) if bound is not None else None,
            value=float(inactive),
            value2=bound,
        )
    ]


# ------------------------------------------------------ per-point summaries
#
# Each takes the records of one grid point and returns that point's summary
# entry (beyond n and the axis value) and whether the point raises a flag.


def _sweep_summary(group) -> tuple[dict, bool]:
    lo, hi = statistical_thresholds()["sweep_normalized_band"]
    norms = [r.normalized_size for r in group if r.normalized_size is not None]
    out_of_band = [x for x in norms if not (lo <= x <= hi)]
    entry = {
        "median_size": _median([r.constructed_size for r in group]),
        "median_normalized": _median(norms),
        "out_of_band": len(out_of_band),
    }
    return entry, bool(out_of_band)


def _compare_summary(group) -> tuple[dict, bool]:
    cuts = statistical_thresholds()
    by_variant: dict[str, list] = {}
    for rec in group:
        by_variant.setdefault(rec.variant, []).append(rec)
    cascade_rate = _rate(by_variant["random_cascade"])
    stall_rate = _rate(by_variant["random_stall"])
    crit = by_variant["critical_size"]
    entry = {
        "cascade_pass_rate": cascade_rate,
        "stall_pass_rate": stall_rate,
        "predicted_critical": crit[0].value2,
        "median_empirical_critical": _median([r.value for r in crit]),
        "median_constructed": _median([r.constructed_size for r in by_variant["construct"]]),
    }
    flagged = cascade_rate < cuts["cascade_pass_rate"] or stall_rate < cuts["stall_pass_rate"]
    return entry, flagged


def _generations_summary(group) -> tuple[dict, bool]:
    n = group[0].n
    found = [r for r in group if r.success]
    violations = int(sum(r.value or 0.0 for r in found))
    median_tau = _median([r.tau for r in found])
    tau_cap = None
    if n > 3:
        tau_cap = statistical_thresholds()["tau_cap_multiplier"] * math.log(math.log(n))
    entry = {
        "found": len(found),
        "trials": len(group),
        "median_tau": median_tau,
        "tau_cap": tau_cap,
        "growth_violations": violations,
    }
    runaway = median_tau is not None and tau_cap is not None and median_tau > tau_cap
    return entry, violations > 0 or runaway


def _partial_summary(group) -> tuple[dict, bool]:
    in_model = [r for r in group if r.variant == "partial"]
    rate = _rate(in_model) if in_model else None
    entry = {
        "in_model": len(in_model),
        "out_of_model": len(group) - len(in_model),
        "pass_rate": rate,
        "max_inactive": max((r.value for r in group), default=None),
    }
    return entry, rate is not None and rate < statistical_thresholds()["partial_pass_rate"]


# mode -> (grid axis, trial function, per-point summary).  ``threshold``
# bisects over p adaptively instead of walking a fixed grid.
_MODE_TABLE = {
    "sweep": ("d", _sweep_trial, _sweep_summary),
    "threshold": ("p", _search_trial, None),
    "compare": ("d", _compare_trial, _compare_summary),
    "generations": ("p", _search_trial, _generations_summary),
    "partial": ("d", _partial_trial, _partial_summary),
}


def _grid_points(config: ExperimentConfig, axis: str) -> list[tuple[int, float]]:
    """The (n, x) grid points; a ValueError names the field, entry and n of any p out of range."""
    if axis == "d":
        if not config.d_list:
            raise ValueError(f"mode {config.mode!r} requires d_list")
        field, points = "d_list", [(n, float(d)) for n in config.n_list for d in config.d_list]
    elif config.p_list:
        field, points = "p_list", [(n, float(p)) for n in config.n_list for p in config.p_list]
    else:  # generations: by default a multiple of the predicted threshold at each n
        field = "n_list"
        points = [(n, _THRESHOLD_MULT * predicted_threshold(n, config.r)) for n in config.n_list]
    for n, x in points:
        p = x / n if axis == "d" else x
        if not (0 < p < 1 if config.mode == "compare" else 0 <= p <= 1):  # compare's critical size needs it
            entry = f"{n} (the default p)" if field == "n_list" else f"{x:g}"
            raise ValueError(f"{field} entry {entry} gives p = {p:g} at n = {n}, outside "
                             + ("(0, 1) in compare mode" if config.mode == "compare" else "[0, 1]"))
    return points


def _run_grid(config: ExperimentConfig) -> ExperimentOutcome:
    """Run every trial at every grid point, then summarize and flag each point."""
    axis, trial_fn, summarize = _MODE_TABLE[config.mode]
    points = _grid_points(config, axis)
    if config.mode == "compare":
        for n, d in points:
            if d < 5.0 or d / n > 0.5 * n ** (-1.0 / config.r):
                warnings.warn(
                    f"compare mode outside its sparse regime at n={n}, d={d}; "
                    "dichotomy predictions may not apply",
                    stacklevel=3,
                )
    tasks = [(n, x, t) for n, x in points for t in range(config.trials)]
    records = _map_tasks(trial_fn, config, tasks)
    records.sort(key=ExperimentRecord.sort_key)
    flagged = False
    groups = []
    for n, x in points:
        group = [r for r in records if r.n == n and getattr(r, axis) == x]
        entry, flag = summarize(group)
        flagged = flagged or flag
        groups.append({"n": n, axis: x, **entry})
    summary: dict = {"groups": groups}
    if config.mode == "sweep":
        summary["normalized_band"] = list(statistical_thresholds()["sweep_normalized_band"])
    return ExperimentOutcome(records, summary, flagged)


# ------------------------------------------------------------- threshold


def predicted_threshold(n: int, r: int) -> float:
    """Theory-scale crossing point (n * (ln n)^(r-1)) ** (-1/r); bracket seed."""
    return (n * math.log(n) ** (r - 1)) ** (-1.0 / r)


def run_threshold(config: ExperimentConfig) -> ExperimentOutcome:
    """Bracket, then bisect, the p where the tuple search succeeds half the time.

    A bracket that cannot be closed on either side (no success up to the cap,
    or still success below the floor) sets ``no_crossing`` and flags the run,
    as does a located ratio outside [1/band, band] (``threshold_ratio_band``).
    """
    records: list[ExperimentRecord] = []
    summary: dict = {"per_n": []}
    flagged = False
    for n in config.n_list:
        rate_cache: dict[float, float] = {}

        def rate(p: float) -> float:
            if p not in rate_cache:
                tasks = [(n, p, t) for t in range(config.probe_trials)]
                probe = _map_tasks(_search_trial, config, tasks)
                records.extend(probe)
                rate_cache[p] = _rate(probe)
            return rate_cache[p]

        p_pred = predicted_threshold(n, config.r)
        cap = min(0.5, p_pred * _P_MAX_FACTOR)
        floor = p_pred / _P_MAX_FACTOR
        hi = p_pred
        no_crossing = False
        while rate(hi) < 0.5:
            hi *= 2.0
            if hi > cap:
                no_crossing = True
                break
        lo = hi / 2.0
        while not no_crossing and rate(lo) >= 0.5:
            hi, lo = lo, lo / 2.0  # lo succeeded, so the crossing lies below it
            no_crossing = lo < floor
        p50 = p_lo = p_hi = ratio = None
        if no_crossing:
            flagged = True
        else:
            while hi - lo > _REL_TOL * hi:
                mid = (lo + hi) / 2.0
                if rate(mid) >= 0.5:
                    hi = mid
                else:
                    lo = mid
            p_lo, p_hi = lo, hi
            p50 = (lo + hi) / 2.0
            ratio = p50 * (n * math.log(n) ** (config.r - 1)) ** (1.0 / config.r)
            band = statistical_thresholds()["threshold_ratio_band"]
            flagged |= not 1 / band <= ratio <= band
            records.append(
                ExperimentRecord(
                    mode="threshold",
                    n=n,
                    d=p50 * n,
                    p=p50,
                    r=config.r,
                    trial=-1,
                    rng_seed=0,
                    variant="summary",
                    success=True,
                    value=p50,
                    value2=ratio,
                )
            )
        summary["per_n"].append(
            {
                "n": n,
                "p50": p50,
                "p_lo": p_lo,
                "p_hi": p_hi,
                "ratio": ratio,
                "no_crossing": no_crossing,
                "probes": sorted(rate_cache),
            }
        )
    ratios = [e["ratio"] for e in summary["per_n"] if e["ratio"] is not None]
    if len(ratios) >= 2:
        summary["ratio_spread"] = max(ratios) / min(ratios)
    records.sort(key=ExperimentRecord.sort_key)
    return ExperimentOutcome(records, summary, flagged)


# ------------------------------------------------------------ dispatch/IO


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    if config.mode == "threshold":
        return run_threshold(config)
    return _run_grid(config)



def render_csv(records: list[ExperimentRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER_V1)
    for rec in records:
        # The csv module writes None as an empty cell and a float by its repr.
        row = (getattr(rec, name) for name in CSV_HEADER_V1)
        writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in row)
    return buf.getvalue()


def render_json(config: ExperimentConfig, outcome: ExperimentOutcome) -> str:
    doc = {
        "schema": "contagion-records-v1",
        "config": config.serializable(),
        "flagged": outcome.flagged,
        "summary": outcome.summary,
        "records": [rec.to_json_dict() for rec in outcome.records],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_output(config: ExperimentConfig, outcome: ExperimentOutcome) -> str:
    if config.fmt == "json":
        return render_json(config, outcome)
    return render_csv(outcome.records)
