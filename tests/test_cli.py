import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toksel
from toksel.cli import main
from toksel.dataset import dataset_to_jsonl_text, save_dataset
from toksel.synthgen import GeneratorConfig, LatentCause, generate_truth
from toksel.dataset import TokenCatalog

from conftest import make_dataset


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

    def test_k_max_bound(self, tmp_path):
        data = write_selection_data(tmp_path)
        code = main([
            "evaluate", "--input", str(data), "--k-max", "9", "--splits", "2",
            "--seed", "1", "--output", str(tmp_path / "r"),
        ])
        assert code == 1

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

    def test_rerun_identical_output(self, tmp_path):
        data = write_selection_data(tmp_path, n_calls=400)
        p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
        args = ["audit", "--input", str(data), "--trials", "100", "--seed", "4"]
        main(args + ["--output", str(p1)])
        main(args + ["--output", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "toksel" in capsys.readouterr().out


def _jsonl_line(**overrides):
    obj = json.loads(dataset_to_jsonl_text(make_dataset([[1, 0]], [1])))
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_one_line_data_error(case, tmp_path, capsys):
    code = main(MALFORMED[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("toksel: data error: ") and err.count("\n") == 1


def test_cli_import_leaves_scipy_out():
    src = Path(toksel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, toksel.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
