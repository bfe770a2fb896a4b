"""Experiment harness: determinism, record schema, growth check, CLI."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from contagion import (
    CSV_HEADER_V1,
    ExperimentConfig,
    derive_seed,
    growth_violations,
    normalized_size,
    percolate,
    predicted_threshold,
    render_output,
    run_experiment,
    statistical_thresholds,
)
from contagion import cli
from contagion import experiments as experiments_module
from contagion import percolation as percolation_module
from contagion.cli import main
from contagion.experiments import ExperimentRecord, _compare_trial, _trial_start

from conftest import adjacency_sets, naive_percolate


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "sweep", 100, 2) == derive_seed(1, "sweep", 100, 2)

    def test_distinct_parts_distinct_seeds(self):
        seen = {
            derive_seed(1, "sweep", n, t)
            for n in (100, 200, 300)
            for t in range(10)
        }
        assert len(seen) == 30

    def test_master_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_range(self):
        s = derive_seed(123, "threshold", 10**6, 0.5, 7)
        assert 0 <= s < 2**64


class TestNormalizedSize:
    def test_formula(self):
        # |S| d^{r/(r-1)} log2(d) / n
        val = normalized_size(10, 1000, 8.0, 2)
        assert val == pytest.approx(10 * 64 * 3 / 1000)

    def test_r3(self):
        val = normalized_size(10, 1000, 8.0, 3)
        assert val == pytest.approx(10 * 8 ** 1.5 * 3 / 1000)

    def test_degenerate_degree(self):
        assert normalized_size(5, 100, 1.0, 2) is None
        assert normalized_size(5, 100, 0.0, 2) is None


class TestGrowthCheck:
    def test_clean_trace(self):
        # growth condition applies once the active count reaches log2 n
        n = 1024
        p = 0.5 / math.sqrt(2 * math.e * n)
        assert growth_violations((3, 5, 9, 20), 4, n, p) == 0

    def test_violating_round_counted(self):
        # active count k = 16 >= log2 n = 10, then a jump of 16^2 = 256
        n = 1024
        p = 0.5 / math.sqrt(2 * math.e * n)
        assert growth_violations((12, 256, 3), 4, n, p) == 1

    def test_out_of_regime_p_skipped(self):
        # same trace but p above the regime bound: no check applies
        n = 1024
        p = 10 / math.sqrt(2 * math.e * n)
        assert growth_violations((12, 256, 3), 4, n, p) == 0

    def test_below_active_floor_skipped(self):
        # rounds while the active set is still below log2 n are exempt
        n = 2**30
        p = 0.5 / math.sqrt(2 * math.e * n)
        assert growth_violations((25,), 4, n, p) == 0


class TestThresholdsFile:
    def test_loads_and_has_keys(self):
        th = statistical_thresholds()
        assert th["sweep_normalized_band"] == [0.2, 20.0]
        assert th["cascade_fraction"] == 0.9
        assert 0 < th["cascade_pass_rate"] <= 1
        assert th["dag_path_constant"] == 40.0

    def test_predicted_threshold(self):
        n = 10_000
        assert predicted_threshold(n, 2) == pytest.approx(
            1 / math.sqrt(n * math.log(n))
        )


class TestRecordSchema:
    def test_header_is_frozen(self):
        assert CSV_HEADER_V1 == [
            "mode", "n", "d", "p", "r", "trial", "rng_seed", "variant",
            "seed_size", "active_count", "tau", "contagious", "success",
            "constructed_size", "exact_size", "normalized_size", "value",
            "value2",
        ]

    def test_row_formatting(self):
        rec = ExperimentRecord(
            mode="sweep", n=10, d=2.0, p=0.2, r=2, trial=0, rng_seed=7,
            variant="construct", seed_size=3, active_count=10, tau=2,
            contagious=True, success=True, constructed_size=3,
            exact_size=None, normalized_size=0.5, value=None, value2=None,
        )
        row = rec.to_row()
        assert len(row) == len(CSV_HEADER_V1)
        assert row[0] == "sweep"
        assert row[11] == "true"
        assert row[14] == ""  # None renders empty
        assert row[15] == "0.5"

    def test_float_repr_round_trips(self):
        rec = ExperimentRecord(
            mode="threshold", n=10, d=None, p=0.1234567890123456789, r=2,
            trial=0, rng_seed=1, variant="probe", seed_size=2,
            active_count=None, tau=None, contagious=None, success=True,
            constructed_size=None, exact_size=None, normalized_size=None,
            value=None, value2=None,
        )
        row = rec.to_row()
        assert float(row[3]) == rec.p


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(
        mode="sweep", n_list=(1500,), d_list=(30.0,), trials=3, master_seed=11
    )


class TestDeterminism:
    def test_rerun_byte_identical(self, small_cfg):
        a = render_output(small_cfg, run_experiment(small_cfg))
        b = render_output(small_cfg, run_experiment(small_cfg))
        assert a == b

    def test_jobs_do_not_change_output(self, small_cfg):
        import dataclasses

        par = dataclasses.replace(small_cfg, jobs=3)
        a = render_output(small_cfg, run_experiment(small_cfg))
        b = render_output(par, run_experiment(par))
        assert a == b

    def test_pool_never_asks_for_more_workers_than_tasks(self, monkeypatch, small_cfg):
        # a fork pool starts every worker it was asked for, so none may go unused
        import concurrent.futures
        import dataclasses

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        wide = dataclasses.replace(small_cfg, jobs=5000)
        serial = render_output(small_cfg, run_experiment(small_cfg))
        assert render_output(wide, run_experiment(wide)) == serial
        assert asked == [small_cfg.trials]

    def test_csv_parses_to_header(self, small_cfg):
        text = render_output(small_cfg, run_experiment(small_cfg))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_HEADER_V1
        assert len(rows) == 1 + 3

    def test_json_format(self, small_cfg):
        import dataclasses

        cfg = dataclasses.replace(small_cfg, fmt="json")
        blob = render_output(cfg, run_experiment(cfg))
        doc = json.loads(blob)
        assert doc["schema"] == "contagion-records-v1"
        assert len(doc["records"]) == 3
        assert "out" not in doc["config"]
        assert "jobs" not in doc["config"]

    def test_records_sorted(self, small_cfg):
        out = run_experiment(small_cfg)
        keys = [r.sort_key() for r in out.records]
        assert keys == sorted(keys)


# Engine paths for the one-pass critical size, as _SPARSE_ENTRIES: sparse
# states that move to arrays at the package's own switch, and states that
# move at their first wave.
CRITICAL_PATHS = {"sparse": 2048, "dense": 0}


@pytest.mark.parametrize("path", CRITICAL_PATHS)
@pytest.mark.parametrize("n, d, r, trial", [(120, 6.0, 2, 0), (200, 4.0, 2, 1), (150, 12.0, 3, 0)])
def test_critical_size_is_first_crossing_of_one_order(monkeypatch, path, n, d, r, trial):
    """critical_size is the smallest k whose first k vertices of the trial's order
    reach the cascade fraction, by the rescan oracle."""
    monkeypatch.setattr(percolation_module, "_SPARSE_ENTRIES", CRITICAL_PATHS[path])
    cfg = ExperimentConfig(mode="compare", n_list=(n,), d_list=(d,), r=r, trials=trial + 1, master_seed=5)
    (record,) = [rec for rec in _compare_trial(cfg, n, d, trial) if rec.variant == "critical_size"]
    seed, graph, _ = _trial_start(cfg, n, d, trial)
    order = np.random.Generator(np.random.PCG64(derive_seed(seed, "critical"))).permutation(n).tolist()
    adj = adjacency_sets(list(graph.edges()), n)
    need = statistical_thresholds()["cascade_fraction"] * n
    k = next(k for k in range(1, n + 1) if len(naive_percolate(adj, order[:k], r)[0]) >= need)
    assert record.seed_size == k and record.value == float(k)
    assert 1 < k < n * 0.9  # the crossing is not forced by the seeds alone


def test_compare_critical_size_at_r3_nears_its_prediction_as_n_grows():
    """The one-pass critical size against Janson, Luczak, Turova and Vallier's a_c at r = 3."""
    cfg = ExperimentConfig(
        mode="compare", n_list=(20_000, 200_000), d_list=(20.0, 40.0), r=3, trials=5, master_seed=1
    )
    out = run_experiment(cfg)
    assert not out.flagged
    ratio = {
        (g["n"], g["d"]): g["median_empirical_critical"] / g["predicted_critical"]
        for g in out.summary["groups"]
    }
    for d in cfg.d_list:
        assert 1.0 <= ratio[200_000, d] <= 1.3
        assert ratio[200_000, d] < ratio[20_000, d]


def test_threshold_at_r3_lies_in_its_band():
    """Theorem 2 at r = 3: p50 (n ln^2 n)^{1/3} stays within the band at two sizes."""
    band = statistical_thresholds()["threshold_ratio_band"]
    out = run_experiment(ExperimentConfig(mode="threshold", n_list=(2000, 8000), r=3, master_seed=1))
    assert not out.flagged
    for entry in out.summary["per_n"]:
        assert 1 / band <= entry["ratio"] <= band
    assert out.summary["ratio_spread"] <= band


def test_threshold_flags_unclosed_lower_bracket(monkeypatch):
    # A search that always succeeds never brackets 0.5 from below.
    def always_found(graph, params):
        result = percolate(graph, range(graph.vertex_count), params.r)
        return frozenset(range(params.r)), result

    monkeypatch.setattr("contagion.experiments.search_minimal_tuple", always_found)
    cfg = ExperimentConfig(mode="threshold", n_list=(300,), probe_trials=2)
    outcome = run_experiment(cfg)
    (entry,) = outcome.summary["per_n"]
    assert outcome.flagged
    assert entry["no_crossing"]
    assert entry["p_lo"] is None and entry["p50"] is None
    assert min(entry["probes"]) >= predicted_threshold(300, 2) / experiments_module._P_MAX_FACTOR
    assert all(rec.variant == "probe" for rec in outcome.records)


def test_threshold_flags_a_ratio_out_of_band(monkeypatch, capsys):
    # the ratio located at n = 300 (about 1.16) lies outside a band of 1.01
    cuts = {**statistical_thresholds(), "threshold_ratio_band": 1.01}
    monkeypatch.setattr(experiments_module, "statistical_thresholds", lambda: cuts)
    outcome = run_experiment(ExperimentConfig(mode="threshold", n_list=(300,), probe_trials=2))
    (entry,) = outcome.summary["per_n"]
    assert outcome.flagged and not entry["no_crossing"]
    assert not 1 / 1.01 <= entry["ratio"] <= 1.01
    assert main(["threshold", "--n", "300", "--probe-trials", "2"]) == 2
    assert "[FLAGGED]" in capsys.readouterr().err


def test_threshold_halving_keeps_its_last_success(monkeypatch):
    # A search that succeeds exactly when p >= 0.3 p_pred: p_pred and p_pred / 2
    # both succeed, so no probe after the bracket phase may lie above p_pred / 2.
    p_pred = predicted_threshold(300, 2)

    def fake_trial(config, n, p, trial):
        return [ExperimentRecord(mode="threshold", n=n, d=p * n, p=p, r=config.r, trial=trial,
                                 rng_seed=0, variant="probe", success=p >= 0.3 * p_pred)]

    monkeypatch.setattr(experiments_module, "_search_trial", fake_trial)
    outcome = run_experiment(ExperimentConfig(mode="threshold", n_list=(300,), probe_trials=2))
    (entry,) = outcome.summary["per_n"]
    probes = [p / p_pred for p in entry["probes"]]
    assert probes[0] == 0.25 and [x for x in probes if x >= 0.5] == [0.5, 1.0]
    assert entry["p_lo"] < 0.3 * p_pred <= entry["p_hi"] <= 0.5 * p_pred


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="nope", n_list=(10,))

    def test_rejects_empty_n(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep", n_list=())

    def test_sweep_needs_degrees(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(mode="sweep", n_list=(100,)))

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep", n_list=(10,), d_list=(5.0,), fmt="xml")

    def test_rejects_zero_probe_trials(self):
        with pytest.raises(ValueError, match="probe_trials"):
            ExperimentConfig(mode="threshold", n_list=(300,), probe_trials=0)

    @pytest.mark.parametrize(
        "field,value",
        [("trials", None), ("n_list", ("100",)), ("r", 2.5), ("jobs", True), ("d_list", ("5",))],
    )
    def test_wrong_type_names_its_field(self, field, value):
        values = {"mode": "sweep", "n_list": (10,), "d_list": (5.0,), field: value}
        with pytest.raises(ValueError, match=repr(field)):
            ExperimentConfig(**values)


class TestCli:
    def test_generate_and_percolate(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        rc = main(
            ["generate", "--n", "60", "--p", "0.2", "--seed", "4", "--out", str(gpath)]
        )
        assert rc == 0
        assert gpath.exists()
        rc = main(
            ["percolate", "--graph", str(gpath), "--seeds", "0,1,2,3,4", "--r", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"tau", "contagious", "active_count", "generation"}

    def test_construct_solve(self, tmp_path, capsys):
        rc = main(["construct", "--n", "300", "--d", "25", "--seed", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] >= 2

        rc = main(["solve", "--n", "10", "--p", "0.3", "--seed", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "exact"

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(
            [
                "sweep", "--n", "1500", "--d", "30", "--trials", "2",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert rc in (0, 2)  # band flag allowed at toy scale
        text = out.read_text()
        assert text.startswith(",".join(CSV_HEADER_V1))
        assert text.endswith("\n")

    def test_emitted_traces_are_validated(self, tmp_path, monkeypatch, capsys):
        gpath = tmp_path / "g.txt"
        assert main(["generate", "--n", "60", "--p", "0.2", "--seed", "4", "--out", str(gpath)]) == 0

        def corrupted(result):
            result.generation[result.generation == 0] = -1  # seeds vanish from the map
            return result

        # with no seeds left, the first vertex of round 1 has no earlier neighbor
        seedless = r"error: vertex \d+ activated in round 1 with only 0 earlier neighbors"

        monkeypatch.setattr(cli, "percolate", lambda *args: corrupted(percolate(*args)))
        assert main(["percolate", "--graph", str(gpath), "--seeds", "0,1,2,3,4"]) == 1
        assert re.search(seedless, capsys.readouterr().err)

        original = cli.construct_contagious

        def construct_corrupted(graph, params):
            seeds, trace = original(graph, params)
            corrupted(trace.result)
            return seeds, trace

        monkeypatch.setattr(cli, "construct_contagious", construct_corrupted)
        assert main(["construct", "--graph", str(gpath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(seedless, captured.err)

    def test_missing_file_exits_1(self, capsys):
        assert main(["percolate", "--graph", "/no/such/file", "--seeds", "0"]) == 1

    def test_usage_error_exits_1(self, capsys):
        assert main(["percolate"]) == 1
        assert main(["not-a-command"]) == 1
        assert main([]) == 1

    def test_config_file_merge(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"n_list": [1500], "d_list": [30.0], "trials": 2, "master_seed": 1})
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        rc1 = main(["sweep", "--config", str(cfg), "--out", str(out1)])
        rc2 = main(
            ["sweep", "--n", "1500", "--d", "30", "--trials", "2", "--seed", "1",
             "--out", str(out2)]
        )
        assert rc1 == rc2
        assert out1.read_text() == out2.read_text()

    def test_config_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # the others were settings: search knobs, then fixed factors of the batch modes
        removed = ("c1", "k_target", "rel_tol", "p_max_factor", "threshold_mult",
                   "partial_slack", "partial_d0")
        for key in ("bogus", *removed):
            cfg.write_text(json.dumps({"n_list": [100], key: 1}))
            assert main(["sweep", "--config", str(cfg)]) == 1
            assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        # a d of 10**400 once ended in an OverflowError traceback: no float holds it
        [("trials", None), ("n_list", ["100"]), ("n_list", 100), ("d_list", [10**400])],
    )
    def test_config_wrong_type_exits_1(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [100], "d_list": [5.0], field: value}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_zero_probe_trials_exits_1(self, capsys):
        assert main(["threshold", "--n", "300", "--probe-trials", "0"]) == 1
        assert "probe_trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,flag,value,field",
        [
            # removed settings: search knobs and fixed factors of the batch modes
            ("threshold", "--p-max-factor", "0", "--p-max-factor"),
            ("threshold", "--p-max-factor", "0.5", "--p-max-factor"),
            ("generations", "--threshold-mult", "0", "--threshold-mult"),
            ("generations", "--threshold-mult", "-2", "--threshold-mult"),
            ("generations", "--c1", "0.1", "--c1"),
            ("threshold", "--k-target", "4", "--k-target"),
            ("threshold", "--rel-tol", "0.05", "--rel-tol"),
            ("partial", "--slack", "-1", "--slack"),
            ("partial", "--partial-d0", "5", "--partial-d0"),
        ],
    )
    def test_out_of_range_knob_exits_1_naming_it(self, capsys, mode, flag, value, field):
        assert main([mode, "--n", "200", flag, value]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["partial", "--n", "300", "--d", "12", "--jobs", "0"], "jobs"),
            # the tuple search takes r + 1 vertices; n = 1 used to divide by log 1 = 0
            (["threshold", "--n", "1"], "n_list"),
            (["threshold", "--n", "2"], "n_list"),
            (["threshold", "--n", "300,3", "--r", "3"], "n_list"),
            (["generations", "--n", "1"], "n_list"),
            (["generations", "--n", "2", "--p", "0.5"], "n_list"),
            # past the 2**31 vertex limit; 10**400 once ended in an OverflowError traceback
            (["threshold", "--n", str(10**400)], "n_list"),
            (["sweep", "--n", str(2**31 + 1), "--d", "5"], "n_list"),
        ],
    )
    def test_out_of_range_config_field_exits_1_naming_it(self, capsys, argv, field):
        assert main([*argv, "--trials", "1"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,entry",
        [
            (["sweep", "--n", "10", "--d", "50"], "d_list entry 50 "),
            (["partial", "--n", "10", "--d", "nan"], "d_list entry nan "),
            (["compare", "--n", "10", "--d", "-3"], "d_list entry -3 "),
            # compare's critical size needs 0 < p < 1
            (["compare", "--n", "100", "--d", "0"], "d_list entry 0 "),
            (["compare", "--n", "100", "--d", "100"], "d_list entry 100 "),
            # the default p, 4 x predicted_threshold, is 1.70 at n = 4
            (["generations", "--n", "4"], "n_list entry 4 "),
            (["generations", "--n", "10", "--p", "0.5,1.5"], "p_list entry 1.5 "),
        ],
    )
    def test_grid_point_outside_its_p_range_exits_1_naming_it(self, capsys, argv, entry):
        # checked before any trial runs, and before compare warns of its regime
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {entry}") and " at n = " in err
        assert "Traceback" not in err

    def test_negative_seed_exits_1_naming_it(self, capsys):
        assert main(["construct", "--n", "10", "--p", "0.3", "--seed", "-1"]) == 1
        assert "error: rng_seed must be an integer" in capsys.readouterr().err

    def test_vertex_count_past_int32_exits_1(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("99999999999999999999 0\n")
        assert main(["percolate", "--graph", str(path), "--seeds", "0"]) == 1
        assert "error: line 1: vertex count" in capsys.readouterr().err

    @pytest.mark.parametrize("c_seed,code", [("inf", 1), ("nan", 1), ("1e308", 0)])
    def test_construct_c_seed_at_float_extremes(self, capsys, c_seed, code):
        # a finite c_seed whose initial block overflows to inf takes the fallback
        assert main(["construct", "--n", "2000", "--d", "20", "--c-seed", c_seed]) == code
        out, err = capsys.readouterr()
        if code:
            assert "error: c_seed must be positive and finite" in err
        else:
            assert json.loads(out)["fallback_used"]

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"n_list": [1500], "d_list": [30.0], "trials": 1, "master_seed": 1})
        )
        out = tmp_path / "o.csv"
        main(["sweep", "--config", str(cfg), "--trials", "3", "--out", str(out)])
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 3


# blake2b (16-byte) digests of the rendered CSV and JSON for one small config
# per mode.  They pin the records, the summaries and the flags, so a change to
# the harness that alters any output byte fails here.
PINNED_OUTPUT = {
    "sweep": (
        dict(mode="sweep", n_list=(1500, 3000), d_list=(30.0, 60.0), trials=2),
        "c472ea934056fe8e6154335c60b52bc4",
        "501be929aba0fed7f6fd7a5532ac0986",
    ),
    "threshold": (
        dict(mode="threshold", n_list=(2000, 4000), probe_trials=6),
        "32aaa49d01b2637d921f7423bf582584",
        "c9de51426da528b0977242f087cc8aa6",
    ),
    "compare": (
        # critical_size is the first crossing along one random order (no bisection)
        dict(mode="compare", n_list=(3000,), d_list=(10.0, 20.0), trials=2),
        "3cd00d5951b407dbc8a06757c86e7b73",
        "0b480ce26684b95dc88102e8508a9dfa",
    ),
    "generations": (
        dict(mode="generations", n_list=(2000,), trials=3),
        "1e45ce74d8a747004432fec63447816d",
        "c63c807291b4e48c838c3cca7ff3a8d4",
    ),
    "generations_p_list": (
        dict(mode="generations", n_list=(2000,), p_list=(0.004, 0.02), trials=3),
        "14b9efd52197b45493f7e57d14d96b2a",
        "5cfb505b6d828a22d56a1bbc52db4204",
    ),
    "partial": (
        # d = 5 lies below _PARTIAL_D0 = 10, d = 12 above it
        dict(mode="partial", n_list=(2000,), d_list=(5.0, 12.0), trials=2),
        "dff8660d566bc68401e63fa140df4688",
        "e3e5bb3d54bd6c05a89d67f23e007d91",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_rendered_output_is_pinned(name):
    import dataclasses
    import hashlib

    kwargs, csv_digest, json_digest = PINNED_OUTPUT[name]
    cfg = ExperimentConfig(master_seed=3, **kwargs)
    outcome = run_experiment(cfg)

    def digest(text: str) -> str:
        return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()

    assert digest(render_output(cfg, outcome)) == csv_digest
    json_cfg = dataclasses.replace(cfg, fmt="json")
    assert digest(render_output(json_cfg, outcome)) == json_digest
