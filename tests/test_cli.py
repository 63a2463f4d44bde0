import ast
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toksel
from toksel import cli, selection
from toksel.cli import main
from toksel.dataset import Dataset, save_dataset
from toksel.synthgen import GeneratorConfig, LatentCause, demo_experiment_config, generate_truth
from toksel.dataset import TokenCatalog

from conftest import make_dataset, written_text


MINIMAL_CONFIG = {
    "n_calls": 100,
    "seed": 5,
    "catalog": 4,
    "base_fire_rate": 0.05,
    "latent_causes": [
        {"prevalence": 0.3, "severity": 2.0, "token_weights": [0.8, 0.6, 0.4, 0.2]}
    ],
    "rating": {"severity_slope": 1.5},
}

TWO_ARM_CONFIG = {
    **MINIMAL_CONFIG,
    "n_calls": 2000,
    "arms": {
        "control": {"order_policy": "fixed", "position_multipliers": [1.4], "seed": 7},
        "treatment": {"order_policy": "randomized", "position_multipliers": [1.4], "seed": 8},
    },
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def file_hashes(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def write_selection_data(tmp_path, seed=0, n_tokens=6, n_calls=1500, name="data.csv"):
    rng = np.random.default_rng(seed)
    cause = LatentCause(prevalence=0.3, token_weights=rng.uniform(0.3, 0.9, n_tokens), severity=3.0)
    cfg = GeneratorConfig(
        n_calls=n_calls, catalog=TokenCatalog.numbered(n_tokens),
        latent_causes=(cause,), base_fire_rate=np.full(n_tokens, 0.03),
        rating_severity_slope=1.5, seed=seed,
    )
    path = tmp_path / name
    save_dataset(generate_truth(cfg), path)
    return path


def write_xor_data(tmp_path):
    rows, ratings = [], []
    for t0 in (0, 1):
        for t1 in (0, 1):
            for _ in range(4):
                rows.append([t0, t1, 0])
                ratings.append(1 if t0 ^ t1 else 5)
    path = tmp_path / "xor.csv"
    save_dataset(make_dataset(rows, ratings), path)
    return path


class TestGenerate:
    def test_minimal_config_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--output", str(out)]) == 0
        lines = (out / "truth.csv").read_text().strip().split("\n")
        assert len(lines) == 101  # header + 100 records
        assert (out / "manifest.json").exists()

    def test_two_arm_fan_out(self, tmp_path):
        cfg = write_config(tmp_path, TWO_ARM_CONFIG)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--output", str(out)]) == 0
        assert (out / "control.csv").exists()
        assert (out / "treatment.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {o["path"] for o in manifest["outputs"]} == {"control.csv", "treatment.csv"}
        assert manifest["command"] == "generate"
        assert manifest["master_seed"] == 5

    def test_rerun_identical_hashes(self, tmp_path):
        cfg = write_config(tmp_path, TWO_ARM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg), "--output", str(out1)])
        main(["generate", "--config", str(cfg), "--output", str(out2)])
        assert file_hashes(out1) == file_hashes(out2)

    def test_missing_config_is_data_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.json"), "--output", str(tmp_path / "o")]) == 2

    # 10**14 calls need a 728 TiB draw, past a 47-bit address space, so numpy refuses it
    # without touching memory; 2**62 calls are past what numpy can index at all
    @pytest.mark.parametrize("n_calls", [10**14, 2**62])
    def test_impossible_n_calls_is_a_capacity_error(self, n_calls, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, "n_calls": n_calls})
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("toksel: capacity error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_huge_numbered_catalog_is_refused_before_any_token_is_built(self, tmp_path):
        # in a child whose address space is capped at 1 GiB, so that a catalog built
        # token by token runs out there, and not on the machine that runs the tests
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, "catalog": 10**30})
        src = Path(toksel.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # noqa: E731
        argv = [sys.executable, "-m", "toksel.cli", "generate", "--config", str(cfg), "--output", str(tmp_path / "o")]
        done = subprocess.run(argv, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"toksel: capacity error: catalog of {10**30} tokens exceeds ")
        assert done.stderr.count("\n") == 1

    def test_arms_tagged_in_files(self, tmp_path):
        cfg = write_config(tmp_path, TWO_ARM_CONFIG)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--output", str(out)])
        body = (out / "treatment.csv").read_text().strip().split("\n")[1:]
        assert all(line.split(",")[1] == "treatment" for line in body)


class TestSelect:
    def test_rits_trace_written(self, tmp_path, capsys):
        data = write_selection_data(tmp_path)
        trace_path = tmp_path / "trace.json"
        code = main([
            "select", "--input", str(data), "--k", "3",
            "--strategy", "rits", "--output", str(trace_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "strategy=rits k=3" in printed
        payload = json.loads(trace_path.read_text())
        assert payload["strategy"] == "rits"
        assert len(payload["steps"]) == 3
        marginals = [s["marginal"] for s in payload["steps"]]
        assert marginals == sorted(marginals, reverse=True)
        assert (tmp_path / "trace.json.manifest.json").exists()

    def test_random_without_seed_rejected(self, tmp_path, capsys):
        data = write_selection_data(tmp_path)
        assert main(["select", "--input", str(data), "--k", "2", "--strategy", "random"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_k_zero_is_usage_error(self, tmp_path):
        data = write_selection_data(tmp_path)
        assert main(["select", "--input", str(data), "--k", "0"]) == 1

    def test_csv_after_a_byte_order_mark_is_a_data_error_naming_it(self, tmp_path, capsys):
        # as Excel's "CSV UTF-8" writes it
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + written_text(make_dataset([[0, 1], [1, 0]], [1, 5]), "csv").encode())
        assert main(["select", "--input", str(data), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("toksel: data error: header starts with a UTF-8 byte order mark") and err.count("\n") == 1

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["select", "--input", str(tmp_path / "nope.csv"), "--k", "2"])
        assert code == 2

    def test_exhaustive_capacity_exit(self, tmp_path):
        rng = np.random.default_rng(0)
        sel = (rng.random((40, 30)) < 0.3).astype(int)
        ratings = [1 if rng.random() < 0.3 else 5 for _ in range(40)]
        path = tmp_path / "wide.csv"
        save_dataset(make_dataset(sel, ratings), path)
        code = main(["select", "--input", str(path), "--k", "10", "--strategy", "exhaustive"])
        assert code == 3

    def test_unknown_strategy_usage_error(self, tmp_path):
        data = write_selection_data(tmp_path)
        assert main(["select", "--input", str(data), "--k", "2", "--strategy", "pca"]) == 1

    @pytest.mark.parametrize("strategy", ["rits", "auc_greedy"])
    @pytest.mark.parametrize(
        "flag,value", [("--splits", "0"), ("--train-frac", "nan"), ("--train-frac", "1")]
    )
    def test_split_flags_checked_whatever_the_strategy(self, strategy, flag, value, tmp_path, capsys):
        # rits never reads these flags, but they still enter the manifest
        data = write_selection_data(tmp_path, n_calls=200)
        out = tmp_path / "trace.json"
        code = main([
            "select", "--input", str(data), "--k", "2", "--strategy", strategy,
            "--seed", "1", flag, value, "--output", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument {flag}: must be" in err.splitlines()[-1]
        assert not out.exists()

    def test_catalog_file_is_digested(self, tmp_path):
        """Two catalogs that differ only in token order give different config digests."""
        data = write_selection_data(tmp_path, n_tokens=3, n_calls=300)
        labels = ["token_00", "token_01", "token_02"]
        digests = []
        for name, order in (("forward", labels), ("reversed", labels[::-1])):
            catalog = tmp_path / f"{name}.csv"
            catalog.write_text(
                "id,label,panel\n" + "".join(f"{i},{lab},audio\n" for i, lab in enumerate(order)),
                encoding="utf-8",
            )
            out = tmp_path / f"{name}.json"
            code = main([
                "select", "--input", str(data), "--k", "2", "--catalog", str(catalog),
                "--output", str(out),
            ])
            assert code == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] != digests[1]


class TestEvaluate:
    def test_reports_written_and_deterministic(self, tmp_path, capsys):
        data = write_selection_data(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = [
            "evaluate", "--input", str(data), "--strategies", "rits,auc_greedy,random",
            "--k-max", "4", "--splits", "6", "--seed", "11",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        printed = capsys.readouterr().out
        assert "reaches 90% of full-set IG at k=" in printed
        assert "reaches 94% of full-set IG at k=" in printed
        for strategy in ("rits", "auc_greedy", "random"):
            csv_text = (out1 / f"{strategy}_report.csv").read_text()
            lines = csv_text.strip().split("\n")
            assert len(lines) == 5  # header + k rows
            assert lines[0] == "strategy,k,auc_mean,auc_std,js_mean,js_std"
        assert main(args + ["--output", str(out2)]) == 0
        assert file_hashes(out1) == file_hashes(out2)

    def test_strategies_are_run_as_the_registry_declares(self, tmp_path, capsys, monkeypatch):
        # rows the CLI has never heard of: the greedy one runs over the whole catalog
        # (6 tokens) and is cut to --k-max, and its full trace gives the 90%/94% lines
        calls = []

        def row(name, greedy):
            def run(ds, k, seed, splits, frac):
                calls.append((name, k))
                return replace(selection.select_rits(ds, k), strategy=name)

            return run, greedy

        monkeypatch.setitem(selection.STRATEGIES, "stub_greedy", row("stub_greedy", True))
        monkeypatch.setitem(selection.STRATEGIES, "stub_other", row("stub_other", False))
        data = write_selection_data(tmp_path)
        out = tmp_path / "r"
        assert main([
            "evaluate", "--input", str(data), "--strategies", "stub_other,stub_greedy",
            "--k-max", "2", "--splits", "2", "--seed", "1", "--output", str(out),
        ]) == 0
        assert calls == [("stub_other", 2), ("stub_greedy", 6)]
        printed = capsys.readouterr().out
        assert "stub_greedy: reaches 90% of full-set IG at k=" in printed
        assert "stub_greedy: reaches 94% of full-set IG at k=" in printed
        for name in ("stub_other", "stub_greedy"):
            assert len((out / f"{name}_report.csv").read_text().splitlines()) == 3  # header + k rows

    def test_cli_names_no_strategy(self):
        # every strategy the CLI runs, and what it knows of each, comes from the registry
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not literals & selection.STRATEGIES.keys()

    def test_k_max_bound(self, tmp_path):
        data = write_selection_data(tmp_path)
        code = main([
            "evaluate", "--input", str(data), "--k-max", "9", "--splits", "2",
            "--seed", "1", "--output", str(tmp_path / "r"),
        ])
        assert code == 1

    @pytest.mark.parametrize("k_max", ["-3", "0"])
    def test_k_max_below_one_is_usage_error(self, k_max, tmp_path, capsys):
        data = write_selection_data(tmp_path)
        code = main([
            "evaluate", "--input", str(data), "--k-max", k_max, "--splits", "2",
            "--seed", "1", "--output", str(tmp_path / "r"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == f"toksel evaluate: error: argument --k-max: must be >= 1, got {k_max}"
        assert not (tmp_path / "r").exists()

    def test_trees_checked_with_the_table_scorer(self, tmp_path, capsys):
        data = write_selection_data(tmp_path, n_calls=400)
        code = main([
            "evaluate", "--input", str(data), "--strategies", "rits", "--k-max", "2",
            "--splits", "2", "--seed", "3", "--trees", "0", "--output", str(tmp_path / "r"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == "toksel evaluate: error: argument --trees: must be >= 1, got 0"
        assert not (tmp_path / "r").exists()

    def test_forest_scorer_accepted(self, tmp_path):
        data = write_selection_data(tmp_path, n_calls=400)
        code = main([
            "evaluate", "--input", str(data), "--strategies", "rits",
            "--k-max", "2", "--splits", "2", "--seed", "3",
            "--scorer", "forest", "--trees", "5",
            "--output", str(tmp_path / "rf"),
        ])
        assert code == 0


class TestAbtest:
    def test_self_comparison_null_report(self, tmp_path, capsys):
        data = write_selection_data(tmp_path, n_calls=500)
        report_path = tmp_path / "ab.json"
        code = main([
            "abtest", "--control", str(data), "--treatment", str(data),
            "--output", str(report_path), "--csv", str(tmp_path / "ab.csv"),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["overall"]["relative_delta"] == 0.0
        assert all(t["p_value"] == 1.0 for t in payload["per_token"])
        assert "0 of 6 tokens significant" in capsys.readouterr().out

    def test_manifest_digests_whole_files(self, tmp_path):
        """Digests cover every byte of an input that spans several 1 MiB blocks."""
        control = write_selection_data(tmp_path, seed=1, n_calls=300, name="control.csv")
        treatment = write_selection_data(tmp_path, seed=2, n_calls=70_000, name="treatment.csv")
        size = treatment.stat().st_size
        assert size > 2 * 2**20 and size % 2**20  # ends in a partial block
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(
            "id,label,panel\n" + "".join(f"{i},token_{i:02d},audio\n" for i in range(6)),
            encoding="utf-8",
        )
        report, table = tmp_path / "ab.json", tmp_path / "ab.csv"
        code = main([
            "abtest", "--control", str(control), "--treatment", str(treatment),
            "--catalog", str(catalog), "--output", str(report), "--csv", str(table),
        ])
        assert code == 0
        manifest = json.loads(Path(f"{report}.manifest.json").read_text())
        flags = json.dumps({"denominator": "displays", "alpha": 0.01}, sort_keys=True).encode()
        inputs = b"".join(p.read_bytes() for p in (control, treatment, catalog))
        assert manifest["config_digest"] == hashlib.sha256(inputs + flags).hexdigest()
        assert manifest["outputs"] == [
            {"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in (table, report)
        ]

    def test_missing_file_nonzero_exit_names_path(self, tmp_path, capsys):
        data = write_selection_data(tmp_path, n_calls=100)
        code = main(["abtest", "--control", str(data), "--treatment", str(tmp_path / "gone.csv")])
        assert code == 2
        assert "gone.csv" in capsys.readouterr().err

    def test_biased_demo_flags_top_token(self, tmp_path):
        cfg = write_config(tmp_path, {**TWO_ARM_CONFIG, "n_calls": 20000,
                                      "base_fire_rate": 0.15,
                                      "latent_causes": [{"prevalence": 0.0, "severity": 2.0,
                                                         "token_weights": [0, 0, 0, 0]}]})
        out = tmp_path / "arms"
        main(["generate", "--config", str(cfg), "--output", str(out)])
        report_path = tmp_path / "report.json"
        code = main([
            "abtest", "--control", str(out / "control.csv"),
            "--treatment", str(out / "treatment.csv"), "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        top = payload["per_token"][0]
        assert top["relative_delta"] < -0.1
        assert top["p_value"] < 0.01


class TestAudit:
    def test_zero_trials_usage_error(self, tmp_path):
        data = write_selection_data(tmp_path, n_calls=200)
        assert main(["audit", "--input", str(data), "--trials", "0", "--seed", "1"]) == 1

    def test_clean_data_no_monotonicity_violations(self, tmp_path, capsys):
        data = write_selection_data(tmp_path)
        report_path = tmp_path / "audit.json"
        code = main([
            "audit", "--input", str(data), "--trials", "300", "--seed", "2",
            "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["monotonicity"]["violations"] == 0
        assert set(payload["monotonicity"]) == {
            "trials", "violations", "max_violation", "tolerance", "seed",
        }

    def test_xor_data_reports_submodularity_violations(self, tmp_path):
        data = write_xor_data(tmp_path)
        report_path = tmp_path / "audit.json"
        code = main([
            "audit", "--input", str(data), "--trials", "400", "--seed", "3",
            "--tolerance", "1e-9", "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["submodularity"]["violations"] > 0
        assert payload["monotonicity"]["violations"] == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_not_finite_and_non_negative_is_usage_error(self, tolerance, tmp_path, capsys):
        data = write_selection_data(tmp_path, n_calls=200)
        code = main([
            "audit", "--input", str(data), "--trials", "5", "--seed", "1", "--tolerance", tolerance,
            "--output", str(tmp_path / "audit.json"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == f"toksel audit: error: argument --tolerance: must be finite and >= 0, got {tolerance}"
        assert not (tmp_path / "audit.json").exists()

    def test_rerun_identical_output(self, tmp_path):
        data = write_selection_data(tmp_path, n_calls=400)
        p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
        args = ["audit", "--input", str(data), "--trials", "100", "--seed", "4"]
        main(args + ["--output", str(p1)])
        main(args + ["--output", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("command", [
    ["select", "--k", "2", "--strategy", "random", "--seed", "-2"],
    ["select", "--k", "2", "--strategy", "auc_greedy", "--splits", "2", "--seed", "-2"],
    ["evaluate", "--k-max", "2", "--splits", "2", "--seed", "-1", "--output", "r"],
    ["audit", "--trials", "5", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(command, tmp_path, capsys):
    data = write_selection_data(tmp_path, n_calls=200)
    code = main([command[0], "--input", str(data), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(": error: argument --seed: must be >= 0, got " + command[command.index("--seed") + 1])


@pytest.mark.parametrize("command", [
    ["abtest", "--control", "MISSING", "--treatment", "MISSING", "--alpha", "0"],
    ["select", "--input", "MISSING", "--k", "0"],
    ["evaluate", "--input", "MISSING", "--k-max", "0", "--seed", "1", "--output", "r"],
    ["evaluate", "--input", "MISSING", "--k-max", "2", "--seed", "1", "--trees", "0", "--output", "r"],
    ["audit", "--input", "MISSING", "--trials", "0", "--seed", "1"],
    ["audit", "--input", "MISSING", "--trials", "5", "--seed", "1", "--tolerance", "nan"],
])
def test_bad_numeric_flag_is_refused_before_any_input_is_read(command, tmp_path, capsys):
    # the input does not exist: reading it would exit 2
    code = main([str(tmp_path / "missing.csv") if arg == "MISSING" else arg for arg in command])
    assert code == 1
    assert ": error: argument --" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("strategies", ["bogus", "rits,bogus", ",,", "rits,rits", "rits,random,rits"])
def test_strategies_are_refused_before_any_input_is_read(strategies, tmp_path, capsys):
    # the input does not exist: reading it would exit 2
    argv = ["evaluate", "--input", str(tmp_path / "missing.csv"), "--strategies", strategies,
            "--k-max", "2", "--seed", "1", "--output", str(tmp_path / "r")]
    assert main(argv) == 1
    assert ": error: argument --strategies: must be " in capsys.readouterr().err.splitlines()[-1]


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "toksel" in capsys.readouterr().out


def _jsonl_line(**overrides):
    obj = json.loads(written_text(make_dataset([[1, 0]], [1]), "jsonl"))
    obj["selections"].update(overrides)
    return obj


def _write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    return str(path)


def _select(path, *extra):
    return ["select", "--input", path, "--k", "1", *extra]


def _generate(tmp_path, config):
    return ["generate", "--config", _write(tmp_path, "cfg.json", config), "--output", str(tmp_path / "o")]


def _config(**overrides):
    return {**MINIMAL_CONFIG, **overrides}


def _cause_config(**overrides):
    return _config(latent_causes=[{**MINIMAL_CONFIG["latent_causes"][0], **overrides}])


def _arm_config(**overrides):
    return _config(arms={"control": overrides})


def _silent_arms(tmp_path):
    path = tmp_path / "silent.csv"
    save_dataset(make_dataset([[0, 0], [0, 0]], [1, 5]), path)
    return ["abtest", "--control", str(path), "--treatment", str(path), "--denominator", "responders"]


MALFORMED = {
    "jsonl line not an object": lambda tmp: _select(_write(tmp, "d.jsonl", "[1, 2]\n")),
    "catalog id not an integer": lambda tmp: _select(
        str(write_selection_data(tmp, n_tokens=2, n_calls=20)),
        "--catalog", _write(tmp, "cat.csv", "id,label,panel\nx,token_00,audio\n1,token_01,audio\n"),
    ),
    "input is a directory": lambda tmp: _select(str(tmp)),
    "input not utf-8": lambda tmp: _select(_write(tmp, "d.csv", b"call_id,arm,platform,rating,t\n\xff\n")),
    "config top level is a list": lambda tmp: _generate(tmp, [MINIMAL_CONFIG]),
    "config prevalence not numeric": lambda tmp: _generate(tmp, _cause_config(prevalence="often")),
    "config rating not an object": lambda tmp: _generate(tmp, _config(rating=5)),
    "config arms a list": lambda tmp: _generate(tmp, _config(arms=["control"])),
    "config latent cause not an object": lambda tmp: _generate(tmp, _config(latent_causes=[0.3])),
    "config catalog entries not objects": lambda tmp: _generate(tmp, _config(catalog=["a", "b"])),
    "config position multipliers a string": lambda tmp: _generate(
        tmp, _arm_config(position_multipliers="1.4")
    ),
    "config fold rank a string": lambda tmp: _generate(tmp, _arm_config(fold_rank="top")),
    "config base fire rate not numeric": lambda tmp: _generate(tmp, _config(base_fire_rate="low")),
    "config prevalence above 1": lambda tmp: _generate(tmp, _cause_config(prevalence=2.0)),
    "config n_calls zero": lambda tmp: _generate(tmp, _config(n_calls=0)),
    "config token weights wrong length": lambda tmp: _generate(
        tmp, _cause_config(token_weights=[0.8, 0.6])
    ),
    "config order policy unknown": lambda tmp: _generate(tmp, _arm_config(order_policy="shuffled")),
    "config catalog negative": lambda tmp: _generate(tmp, _config(catalog=-1)),
    "config without latent causes": lambda tmp: _generate(tmp, _config(latent_causes=[])),
    "abtest arm without responders": _silent_arms,
    "jsonl cell is true": lambda tmp: _select(
        _write(tmp, "d.jsonl", json.dumps(_jsonl_line(token_00=True)) + "\n")
    ),
    "jsonl token key missing": lambda tmp: _select(_write(tmp, "d.jsonl", "".join(
        json.dumps(obj) + "\n" for obj in (_jsonl_line(), {**_jsonl_line(), "selections": {"token_00": 1}})
    ))),
    # the cells "" and "11" have the joined length of two valid cells
    "csv cells empty and two characters": lambda tmp: _select(
        _write(tmp, "d.csv", "call_id,arm,platform,rating,token_00,token_01\nc0,none,web,4,,11\n")
    ),
    "jsonl rating true": lambda tmp: _select(_write(tmp, "d.jsonl", {**_jsonl_line(), "rating": True})),
    "jsonl rating 1.0": lambda tmp: _select(_write(tmp, "d.jsonl", {**_jsonl_line(), "rating": 1.0})),
    "config n_calls fractional": lambda tmp: _generate(tmp, _config(n_calls=2.7)),
    "config n_calls true": lambda tmp: _generate(tmp, _config(n_calls=True)),
    "config seed fractional": lambda tmp: _generate(tmp, _config(seed=1.9)),
    "config arm seed fractional": lambda tmp: _generate(tmp, _arm_config(seed=2.5)),
    "config seed negative": lambda tmp: _generate(tmp, _config(seed=-1)),
    "config arm seed negative": lambda tmp: _generate(tmp, _arm_config(seed=-3)),
    "config fold rank fractional": lambda tmp: _generate(tmp, _arm_config(fold_rank=1.5)),
    # a one-token catalog, as True == 1, would fit these weights
    "config catalog true": lambda tmp: _generate(tmp, {**_cause_config(token_weights=[0.8]), "catalog": True}),
    "config prevalence a numeric string": lambda tmp: _generate(tmp, _cause_config(prevalence="0.2")),
    "config base fire rate true": lambda tmp: _generate(tmp, _config(base_fire_rate=True)),
    "jsonl integer past the digit limit": lambda tmp: _select(
        _write(tmp, "d.jsonl", f'{{"rating": {"1" * 5000}}}\n')
    ),
    "jsonl nesting past the recursion limit": lambda tmp: _select(
        _write(tmp, "d.jsonl", "[" * 100_000 + "]" * 100_000 + "\n")
    ),
    # a platform of 5 would be written as 5 and load back as "5"
    "config platform a number": lambda tmp: _generate(tmp, _config(platform=5)),
    # a label of 5 reached the writers, which raised TypeError
    "config catalog label a number, csv": lambda tmp: _generate(tmp, _two_label_config(5)),
    "config catalog label a number, jsonl": lambda tmp: [*_generate(tmp, _two_label_config(5)), "--format", "jsonl"],
    "config catalog label null": lambda tmp: _generate(tmp, _two_label_config(None)),
}


def _two_label_config(label):
    return {**_cause_config(token_weights=[0.8, 0.6]), "catalog": [{"label": label}, {"label": "b"}]}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_one_line_data_error(case, tmp_path, capsys):
    code = main(MALFORMED[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("toksel: data error: ") and err.count("\n") == 1


# every number of a generator config, each in a config that is otherwise valid
_CONFIG_NUMBERS = {
    "base_fire_rate": lambda v: _config(base_fire_rate=v),
    "base_fire_rate by label": lambda v: _config(base_fire_rate={"token_01": v}),
    "prevalence": lambda v: _cause_config(prevalence=v),
    "severity": lambda v: _cause_config(severity=v),
    "token_weights": lambda v: _cause_config(token_weights=[0.8, v, 0.4, 0.2]),
    "intercept": lambda v: _config(rating={"intercept": v}),
    "severity_slope": lambda v: _config(rating={"severity_slope": v}),
    "rate": lambda v: _config(rating={"rate": v}),
    "position_multipliers": lambda v: _arm_config(position_multipliers=[v]),
    "scroll_penalty": lambda v: _arm_config(scroll_penalty=v),
}


@pytest.mark.parametrize(
    "text", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "10**400"],
)
@pytest.mark.parametrize("key", sorted(_CONFIG_NUMBERS))
def test_non_finite_config_number_is_a_one_line_data_error(key, text, tmp_path, capsys):
    """Python's json reads NaN, Infinity and 1e999 (as inf), and an integer past the float
    range does not convert: none may reach the generator, which wrote zero columns or left
    rated calls unrated from them."""
    config = json.dumps(_CONFIG_NUMBERS[key]("@")).replace('"@"', text)
    code = main(["generate", "--config", _write(tmp_path, "cfg.json", config), "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("toksel: data error: config value ") and err.count("\n") == 1
    assert "must be a finite number" in err


def _fresh_python(code, *args):
    """The last line `code` prints, run with `args` by a new interpreter that imports this toksel."""
    src = Path(toksel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()[-1]


def test_only_the_process_entry_freezes_the_collector():
    # main(argv) leaves the collector alone; main() with no list, as the console
    # script and `python -m toksel.cli` call it, freezes the imported objects
    code = (
        "import gc, sys; from toksel import cli; cli.main(['--version']); n = gc.get_freeze_count();"
        " sys.argv = ['toksel', '--version']; cli.main(); print(n, gc.get_freeze_count() > 0)"
    )
    assert _fresh_python(code) == "0 True"


def test_a_bare_memory_error_names_its_cause(tmp_path, capsys):
    data = write_selection_data(tmp_path, n_calls=200)
    with mock.patch("toksel.cli.audit_monotonicity", side_effect=MemoryError):
        code = main(["audit", "--input", str(data), "--trials", "5", "--seed", "0"])
    assert code == 3
    assert capsys.readouterr().err == "toksel: capacity error: out of memory while running audit\n"


def test_cli_import_leaves_scipy_out():
    assert _fresh_python("import sys, toksel.cli; print('scipy' in sys.modules)") == "False"


# The package's public names: its modules, and the names each of them exports.
PUBLIC_NAMES = [
    "AbTestReport", "AuditReport", "CapacityError", "DataError", "Dataset", "EvalReport", "ForestScorer",
    "GeneratorConfig", "LatentCause", "ParameterError", "PatternTable", "PresentationConfig",
    "ProportionComparison", "SchemaError", "SelectionStep", "SelectionTrace", "SplitPlan",
    "Token", "TokenCatalog", "UndefinedStatisticError", "abtest", "apply_presentation", "auc",
    "audit_monotonicity", "audit_submodularity", "cell_counts", "compare_proportions", "dataset",
    "demo_dataset", "demo_experiment_config", "demo_generator_config", "entropy", "errors", "evaluate_subsets",
    "evaluation", "filter_dataset", "generate_truth", "information_gain", "infotheory", "jaccard",
    "jaccard_set", "load_dataset", "pc_entropy", "run_abtest", "save_dataset",
    "select_auc_greedy", "select_exhaustive", "select_random", "select_rits",
    "selection", "synthgen",
]


def test_package_import_loads_no_module():
    code = "import sys, toksel; print(sorted(m for m in sys.modules if m.startswith('toksel.')))"
    assert _fresh_python(code) == "[]"


def test_public_names_are_those_of_the_eager_imports():
    code = (
        "import json, toksel\n"
        "listed = [n for n in dir(toksel) if not n.startswith('_')]\n"
        "star = {}\n"
        "exec('from toksel import *', star)\n"
        "print(json.dumps([toksel.__all__, listed, sorted(set(star) - {'__builtins__'})]))"
    )
    all_names, listed, star = json.loads(_fresh_python(code))
    assert all_names == listed == star == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(toksel, name)
        home = value.__name__ if isinstance(value, type(toksel)) else value.__module__
        assert home.startswith("toksel.")
        assert value is sys.modules[home] or getattr(sys.modules[home], name) is value


def test_cli_import_runs_neither_the_generator_nor_hashlib():
    # numpy 1.x imports numpy.random, and with it _hashlib: only what toksel.cli adds counts.
    # The generator is put in sys.modules unrun (a LazyLoader module, of its own type).
    code = (
        "import json, sys, types, numpy\n"
        "before = set(sys.modules)\n"
        "import toksel.cli\n"
        "added = set(sys.modules) - before\n"
        "ran = type(sys.modules['toksel.synthgen']) is types.ModuleType\n"
        "print(json.dumps([ran, sorted(added & {'hashlib', '_hashlib'})]))"
    )
    assert json.loads(_fresh_python(code)) == [False, []]


def test_abtest_imports_hashlib_only_after_its_statistics(tmp_path):
    """`_hashlib`, whose OpenSSL is resident memory, is not loaded while the
    arms are: only for the manifest's digests."""
    data = write_selection_data(tmp_path, n_calls=300)
    code = (
        "import json, sys, numpy\n"
        "before = '_hashlib' in sys.modules\n"
        "from toksel import cli\n"
        "run_abtest, seen = cli.run_abtest, []\n"
        "def spy(*args, **kwargs):\n"
        "    report = run_abtest(*args, **kwargs)\n"
        "    seen.append('_hashlib' in sys.modules)\n"
        "    return report\n"
        "cli.run_abtest = spy\n"
        "code = cli.main(['abtest', '--control', sys.argv[1], '--treatment', sys.argv[1], '--output', sys.argv[2]])\n"
        "print(json.dumps([code, before, seen, '_hashlib' in sys.modules]))"
    )
    code, before, seen, after = json.loads(_fresh_python(code, data, tmp_path / "abtest.json"))
    assert (code, seen, after) == (0, [before], True)
    assert (tmp_path / "abtest.json.manifest.json").exists()


# Each flag's base command, with every other numeric flag at a small valid value.
_NUMERIC_BASE = {
    "select": ["--k", "2", "--strategy", "auc_greedy", "--seed", "1", "--splits", "2", "--train-frac", "0.7"],
    "evaluate": [
        "--k-max", "2", "--splits", "2", "--seed", "1", "--train-frac", "0.7",
        "--scorer", "forest", "--trees", "2",
    ],
    "audit": ["--trials", "2", "--seed", "1", "--tolerance", "1e-9"],
    "abtest": ["--alpha", "0.01"],
}
_NUMERIC_FLAGS = {
    "--k": ["select"],
    "--k-max": ["evaluate"],
    "--seed": ["select", "evaluate", "audit"],
    "--splits": ["select", "evaluate"],
    "--train-frac": ["select", "evaluate"],
    "--trees": ["evaluate"],
    "--trials": ["audit"],
    "--tolerance": ["audit"],
    "--alpha": ["abtest"],
}
# flags whose cost grows with their value draw no large values
_COSTLY = {"--splits", "--trees", "--trials"}
_VALUES = ["-1", "0", "1", "2", "0.5", "nan", "inf", "-inf"]
_TINY_TOKENS = 3  # catalog size of tiny_data


def _number(convert, ok):
    """Whether a flag's text converts and the value passes `ok`."""

    def valid(text):
        try:
            return ok(convert(text))
        except ValueError:
            return False

    return valid


# Whether a flag's value is valid. The rule is the same in every command that
# takes the flag, whatever the strategy: `select --strategy rits` never reads
# --splits or --train-frac, but checks them, since they enter the manifest.
_VALID = {
    "--k": _number(int, lambda v: 1 <= v <= _TINY_TOKENS),
    "--k-max": _number(int, lambda v: 1 <= v <= _TINY_TOKENS),
    "--seed": _number(int, lambda v: v >= 0),
    "--splits": _number(int, lambda v: v >= 1),
    "--train-frac": _number(float, lambda v: 0 < v < 1),
    "--trees": _number(int, lambda v: v >= 1),
    "--trials": _number(int, lambda v: v >= 1),
    "--tolerance": _number(float, lambda v: 0 <= v < math.inf),
    "--alpha": _number(float, lambda v: 0 < v < 1),
}


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return tmp, write_selection_data(tmp, n_tokens=_TINY_TOKENS, n_calls=120)


@st.composite
def numeric_flag_runs(draw):
    flag = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    command = draw(st.sampled_from(_NUMERIC_FLAGS[flag]))
    values = _VALUES if flag in _COSTLY else _VALUES + ["1000000", str(2**70)]
    # select's base runs auc_greedy, which reads --splits and --train-frac, or rits, which does not
    strategy = draw(st.sampled_from(["auc_greedy", "rits"])) if command == "select" else None
    return flag, command, draw(st.sampled_from(values)), strategy


# more examples than the 160 distinct runs: hypothesis runs every one, then stops
@given(numeric_flag_runs())
@settings(max_examples=400, deadline=None)
def test_numeric_flags_exit_by_contract(tiny_data, run):
    """Any one numeric flag at an edge value: exit 0 exactly when the value is valid, else a
    documented exit code and one error line."""
    tmp, data = tiny_data
    flag, command, value, strategy = run
    args = list(_NUMERIC_BASE[command])
    args[args.index(flag) + 1] = value
    if strategy is not None:
        args[args.index("--strategy") + 1] = strategy
    if command == "abtest":
        args += ["--control", str(data), "--treatment", str(data)]
    else:
        args += ["--input", str(data)]
    if command == "evaluate":
        args += ["--output", str(tmp / "reports")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *args])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (code == 0) == _VALID[flag](value), (code, err)
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert "error:" in lines[-1] and sum("error:" in line for line in lines) == 1


def _refused(name):
    def get(self):
        raise AssertionError(f"Dataset.{name} was read")

    return property(get)


# Every stage, generate included, on a demo of 3000 calls in both formats.
_STAGE_RUNS = [
    "generate --config {work}/config.json --output {work}/data",
    "generate --config {work}/config.json --output {work}/jdata --format jsonl",
    "select --input {work}/data/treatment.csv --strategy rits --k 5 --output {work}/rits.json",
    "select --input {work}/jdata/treatment.jsonl --strategy rits --k 5 --output {work}/jrits.json",
    "select --input {work}/data/treatment.csv --strategy exhaustive --k 2 --output {work}/exhaustive.json",
    "select --input {work}/data/treatment.csv --strategy auc_greedy --k 3 --splits 3 --seed 1"
    " --output {work}/auc_greedy.json",
    "audit --input {work}/data/treatment.csv --trials 30 --seed 2 --output {work}/audit.json",
    "evaluate --input {work}/data/treatment.csv --strategies rits,auc_greedy,random --k-max 4"
    " --splits 3 --seed 3 --output {work}/table",
    "evaluate --input {work}/data/treatment.csv --strategies rits --k-max 3 --splits 2 --seed 3"
    " --scorer forest --trees 3 --output {work}/forest",
    "abtest --control {work}/data/control.csv --treatment {work}/data/treatment.csv"
    " --output {work}/abtest.json --csv {work}/abtest.csv",
]


def _run_stages(work):
    """Each stage's exit code and output text, then every file the stages wrote."""
    config = {**demo_experiment_config(), "n_calls": 3000}
    work.mkdir()
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    runs = []
    for command in _STAGE_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(command.format(work=work).split())
        runs.append((command, code, out.getvalue()))
    files = {p.relative_to(work).as_posix(): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    return runs, files


def test_no_stage_reads_record_strings(tmp_path):
    """The stages read the compact columns: with Dataset.call_ids, .arms and
    .platforms made to raise, every stage exits 0 and writes the bytes of a
    run without the patch, in the same directory."""
    work = tmp_path / "work"
    expected = _run_stages(work)
    assert all(code == 0 for _, code, _ in expected[0]), expected[0]
    shutil.rmtree(work)
    with mock.patch.multiple(
        Dataset, call_ids=_refused("call_ids"), arms=_refused("arms"), platforms=_refused("platforms")
    ):
        got = _run_stages(work)
    assert got == expected
