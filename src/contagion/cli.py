"""Command-line front end.

Single-shot commands: ``generate`` (sample a graph to an edge-list file),
``percolate``, ``construct``, and ``solve`` operate on one graph and print
JSON.  Batch commands (``sweep``, ``threshold``, ``compare``,
``generations``, ``partial``) run the Monte-Carlo harness and write CSV or
JSON records.

Exit codes: 0 on success, 2 when a batch run raises a statistical flag
(growth violation, missed pass rate, threshold bracket failure), 1 on
usage or I/O errors or on a printed trace that fails ``validate_result``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .construct import StageParams, construct_contagious
from .exact import DEFAULT_NODE_BUDGET, min_contagious_exact
from .experiments import MODES, ExperimentConfig, render_output, run_experiment
from .graph import GnpParams, GraphFormatError, load_edge_list, sample_gnp, save_edge_list
from .percolation import percolate, validate_result

class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for flags
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _comma_list(kind, what: str):
    """An argparse type: comma-separated ``kind`` values as a tuple, or an error naming ``what``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


def _gnp_params(args) -> GnpParams:
    if args.n is None:
        raise ValueError("provide --graph or --n with --p/--d")
    if args.p is not None:
        p = args.p
    elif args.d is not None:
        p = args.d / args.n
    else:
        raise ValueError("provide --p or --d alongside --n")
    return GnpParams(args.n, p, args.seed)


def _load_or_sample_graph(args):
    if args.graph:
        return load_edge_list(args.graph)
    return sample_gnp(_gnp_params(args))


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    params = _gnp_params(args)
    graph = sample_gnp(params)
    save_edge_list(graph, args.out)
    print(
        f"sampled G(n={args.n}, p={params.p:g}) with {graph.edge_count} edges -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_percolate(args) -> int:
    graph = load_edge_list(args.graph)
    result = percolate(graph, args.seeds, args.r)
    validate_result(graph, result)
    _emit_json(result.to_json_dict(), args.out)
    return 0


def _cmd_construct(args) -> int:
    graph = _load_or_sample_graph(args)
    params = StageParams(r=args.r, c_seed=args.c_seed)
    seeds, trace = construct_contagious(graph, params)
    validate_result(graph, trace.result)
    payload = {
        "size": len(seeds),
        "seeds": sorted(seeds),
        "fallback_used": trace.fallback_used,
        "ell": trace.ell,
        "d": trace.d,
    }
    if args.trace:
        payload["trace"] = trace.to_json_dict()
    _emit_json(payload, args.out)
    return 0


def _cmd_solve(args) -> int:
    graph = _load_or_sample_graph(args)
    result = min_contagious_exact(graph, args.r, args.budget)
    _emit_json(result.to_json_dict(), args.out)
    return 0


def _batch_config(args) -> ExperimentConfig:
    """ExperimentConfig from the --config file, overridden by explicit flags.

    Every batch flag's argparse ``dest`` is the name of its config field.
    """
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("--config must hold a JSON object")
        unknown = set(values) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    if not values.get("n_list"):
        raise ValueError("provide --n or an n_list in --config")
    for name in ("n_list", "d_list", "p_list"):
        if isinstance(values.get(name), list):
            values[name] = tuple(values[name])
    return ExperimentConfig(**values)


def _cmd_batch(args) -> int:
    config = _batch_config(args)
    started = time.perf_counter()
    outcome = run_experiment(config)
    elapsed = time.perf_counter() - started
    _write(render_output(config, outcome), config.out)
    print(
        f"{config.mode}: {len(outcome.records)} records in {elapsed:.1f}s"
        + (" [FLAGGED]" if outcome.flagged else ""),
        file=sys.stderr,
    )
    for key, value in sorted(outcome.summary.items()):
        print(f"  {key}: {value}", file=sys.stderr)
    return 2 if outcome.flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contagion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample G(n, p) to an edge-list file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float)
    gen.add_argument("--d", type=float, help="mean degree; p = d / n")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    perc = sub.add_parser("percolate", help="run the activation process on a graph file")
    perc.add_argument("--graph", required=True)
    perc.add_argument("--seeds", type=_comma_list(int, "vertex ids"), required=True)
    perc.add_argument("--r", type=int, default=2)
    perc.add_argument("--out")
    perc.set_defaults(func=_cmd_percolate)

    # construct and solve take a graph file or the G(n, p) flags
    one_graph = argparse.ArgumentParser(add_help=False)
    one_graph.add_argument("--graph")
    one_graph.add_argument("--n", type=int)
    one_graph.add_argument("--p", type=float)
    one_graph.add_argument("--d", type=float)
    one_graph.add_argument("--seed", type=int, default=0)
    one_graph.add_argument("--r", type=int, default=2)

    cons = sub.add_parser("construct", parents=[one_graph], help="build a verified contagious set")
    cons.add_argument("--c-seed", dest="c_seed", type=float)
    cons.add_argument("--trace", action="store_true", help="include the full trace")
    cons.add_argument("--out")
    cons.set_defaults(func=_cmd_construct)

    solve = sub.add_parser(
        "solve", parents=[one_graph], help="exact minimum contagious set (small graphs)")
    solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    solve.add_argument("--out")
    solve.set_defaults(func=_cmd_solve)

    ints, floats = _comma_list(int, "integers"), _comma_list(float, "numbers")
    for mode in MODES:
        batch = sub.add_parser(mode, help=f"batch mode: {mode}")
        batch.add_argument("--n", dest="n_list", type=ints, help="comma-separated n values")
        batch.add_argument("--d", dest="d_list", type=floats, help="comma-separated mean degrees")
        batch.add_argument("--p", dest="p_list", type=floats, help="comma-separated probabilities")
        batch.add_argument("--r", type=int)
        batch.add_argument("--trials", type=int)
        batch.add_argument("--seed", dest="master_seed", type=int, help="master seed")
        batch.add_argument("--out")
        batch.add_argument("--format", dest="fmt", choices=("csv", "json"))
        batch.add_argument("--jobs", type=int)
        batch.add_argument("--config", help="JSON file with ExperimentConfig fields")
        batch.add_argument("--probe-trials", dest="probe_trials", type=int)
        batch.set_defaults(func=_cmd_batch, mode=mode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, GraphFormatError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
