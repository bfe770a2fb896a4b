"""The runner prints exactly the metrics BENCHMARK.json declares, and fails loudly.

A tiny stand-in workload drives the real runner, so these tests take
seconds; the real workloads run through the same metric code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import contagion  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Tiny:
    """Calls every traced layer once or twice on small inputs."""

    fail_check = False

    def __init__(self, seed, root):
        self.params = contagion.GnpParams(600, 12 / 600, seed)
        self.path = root / ".perfbench_tmp" / "tiny-edges.txt"
        self.config = contagion.ExperimentConfig(
            mode="partial", n_list=(600,), d_list=(12.0,), trials=1, master_seed=seed
        )

    def wrappers(self, rnd, patches):
        pass

    def run(self, rnd):
        with rnd.step("tiny", ops=2):
            g = contagion.sample_gnp(self.params)
            self.path.parent.mkdir(exist_ok=True)
            contagion.save_edge_list(g, self.path)
            g = contagion.load_edge_list(self.path)
            self.path.unlink()
            seeds, _ = contagion.construct_contagious(g)
            contagion.validate_result(g, contagion.percolate(g, seeds, 2))
            contagion.search_minimal_tuple(g, contagion.TupleSearchParams.for_graph(600))
            small = contagion.sample_gnp(contagion.GnpParams(12, 0.4, 1))
            contagion.min_contagious_exact(small, 2)
            out = contagion.run_experiment(self.config)
            contagion.render_output(self.config, out)
        return {}

    def check(self, rnd, out):
        if self.fail_check:
            rnd.steps["tiny"].fail("forced failure")


class FailingTiny(Tiny):
    fail_check = True


def run_main(capsys, monkeypatch, trace, workloads):
    for var in run.ONE_THREAD:  # main() sets these; put them back afterwards
        monkeypatch.delenv(var, raising=False)
    code = run.main(
        ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)], workloads=workloads
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(capsys, monkeypatch, trace, section):
    code, result = run_main(capsys, monkeypatch, trace, {"tiny": Tiny})
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert isinstance(metric["value"], (int, float)), name
        assert declared[name]["better"] in ("lower", "higher"), name
    if trace == 1:
        # every traced layer was reached, and the originals are back in place
        for m in SPEC["per_layer"]:
            if m["name"].endswith(".calls"):
                assert result["metrics"][m["name"]]["value"] >= 1, m["name"]
        for mod in (contagion, contagion.construct, contagion.exact, contagion.experiments):
            assert not hasattr(mod.percolate, "__wrapped__"), mod.__name__


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failed_check_exits_nonzero(capsys, monkeypatch, trace):
    code, result = run_main(capsys, monkeypatch, trace, {"tiny": FailingTiny})
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repercolate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
