"""Benchmark runner for the contagion package.

    python3 perfbench/run.py --workload construct-scaling --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  One process runs one workload with ``jobs=1``: it repeats
whole rounds of the workload's operations until ``--seconds`` of measured
time have passed (at least one round), checks every output, and prints one
JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics: the median round time
``wall_s``, ``setup_s`` (import plus lazy set-up, median over fresh
processes), ``peak_rss_mib`` and ``source_lines``.  ``--trace 1`` runs one
plain round and one traced round and reports the per-layer metrics of the
traced round, its tracing overhead, and recomputes every trace it sees with
the reference checker.  The exit code is 0 when every operation passed its
checks, 1 when one failed and 2 on a usage or layout error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-process set-up timings per run, half taken before the rounds and
# half after, so a burst of load on the machine moves only some of them.
SETUP_REPEATS = 4
# The package makes no BLAS calls.  With one BLAS thread numpy starts no
# thread pool at import; the pool's start-up made set-up times swing with
# the load of the host.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = """
import time
t0 = time.perf_counter()
import contagion
contagion.statistical_thresholds()
t1 = time.perf_counter()
import os, sys
if not os.path.realpath(contagion.__file__).startswith(os.path.realpath(sys.argv[1]) + os.sep):
    sys.exit("contagion imported from outside the checkout")
print(repr(t1 - t0))
"""


class LayoutError(RuntimeError):
    pass


def import_package():
    """Import contagion from this checkout's src/, never from elsewhere."""
    if not (SRC / "contagion" / "__init__.py").is_file():
        raise LayoutError(f"no package at {SRC / 'contagion'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import contagion

    if not os.path.realpath(contagion.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise LayoutError(f"contagion was imported from {contagion.__file__}, not from {SRC}")
    return contagion


def measure_setup(repeats: int) -> list[float]:
    """Times to import contagion and load its thresholds, a fresh process each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:  # the first start warms the file cache and writes bytecode
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def source_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "contagion").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def run_round(workload, clock, ledger: dict, tracer=None) -> float:
    """One timed round, then its checks; returns the measured seconds.

    ``ledger`` sums the operations attempted and failed, and keeps the
    measured seconds of every step of every round.
    """
    from tracing import Patches
    from workloads import Round, check_every_trace

    rnd = Round(clock)
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        workload.wrappers(rnd, patches)
        if tracer is not None:
            check_every_trace(rnd, patches)
        start = clock.now()
        out = workload.run(rnd)
        seconds = clock.now() - start
    workload.check(rnd, out)
    ledger["attempted"] += rnd.attempted()
    ledger["failed"] += rnd.failed()
    ledger["steps"].append({name: st.seconds for name, st in rnd.steps.items()})
    return seconds


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(ONE_THREAD)
    try:
        import_package()
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracing import Clock, Tracer

    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2

    setup_times = measure_setup(SETUP_REPEATS) if args.trace == 0 else []
    workload = workloads[args.workload](args.seed, ROOT)
    clock = Clock()
    ledger = {"attempted": 0, "failed": 0, "steps": []}
    metrics: dict[str, tuple[float, str]] = {}
    extra: dict = {}
    if args.trace == 0:
        walls: list[float] = []
        while not walls or sum(walls) < args.seconds:
            walls.append(run_round(workload, clock, ledger))
            print(f"perfbench: {args.workload} round {len(walls)}: {walls[-1]:.3f} s", file=sys.stderr)
        setup_times += measure_setup(SETUP_REPEATS)
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["source_lines"] = (source_lines(), "lines")
        extra["round_seconds"] = walls
        extra["setup_seconds"] = setup_times
    else:
        plain = run_round(workload, clock, ledger)
        tracer = Tracer(clock)
        traced = run_round(workload, clock, ledger, tracer)
        print(f"perfbench: {args.workload} plain {plain:.3f} s, traced {traced:.3f} s", file=sys.stderr)
        metrics.update(tracer.metrics())
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.untraced_wall_s"] = (plain, "s")
        metrics["trace.overhead_s"] = (traced - plain, "s")
        extra["spans"] = tracer.span_table()

    correct = ledger["failed"] == 0
    result = {
        "correct": correct,
        "attempted": ledger["attempted"],
        "failed": ledger["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    extra["step_seconds"] = ledger["steps"]
    write_result_file(args, result, extra)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def write_result_file(args, result: dict, extra: dict) -> None:
    """Keep the full result, and the raw spans of a traced run, in the checkout."""
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    doc.update(result=result, **extra)
    path.write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
