"""The benchmark's workloads: generated inputs and the toksel commands each one times.

A workload's inputs depend only on its seed: the seed goes into the
workload's generator config (`configs/`), and `toksel generate` turns
that config into the survey files the timed commands read. Commands are
templates whose `{field}` parts are filled per run:

- `{data}`: directory of the generated survey files; `{input}` is the
  file the commands read (`data/<Workload.input>`).
- `{out}`: directory for the commands' outputs.
- `{probe}`: working directory of the traced run's probe commands.
- `{seed}`: the workload seed, passed to commands that take one.
- `{stem}`: the input's file name without extension, for the probes' own files.

Sizes (calls, k, splits, trials, trees) are set so that one run, at
least two passes over the command sequence, takes half a minute to
three quarters of one on two cores, while every command still does the
kind of work its workload is meant to stress. The demo workloads use the
bundled demo config at 50k calls instead of its 100k. demo_select_audit
runs exhaustive k=5 (3,003 subsets) and 200 audit trials so that IG
evaluations, not interpreter start-up and CSV loads, take about half of
its wall time; demo_evaluate runs 6 splits so that the evaluation
layer's own time is about a third of its wall time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Calls in the generated file of the other format that the probes load.
PROBE_CALLS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # generator config file in configs/, without n_calls and seeds
    n_calls: int
    fmt: str  # format of the generated files: csv or jsonl
    input: str  # generated file the commands read, relative to {data}
    commands: tuple[str, ...]

    def generator_config(self, seed: int, n_calls: int | None = None) -> dict:
        """The generator config for a seed: the workload's own sizes, seeds derived from `seed`."""
        cfg = json.loads((CONFIG_DIR / self.config).read_text(encoding="utf-8"))
        cfg["n_calls"] = self.n_calls if n_calls is None else n_calls
        cfg["seed"] = seed
        for i, arm in enumerate(sorted(cfg.get("arms", {})), start=1):
            cfg["arms"][arm]["seed"] = seed * 1000 + i
        return cfg

    def setup_command(self) -> str:
        return f"generate --config {{data}}/config.json --output {{data}} --format {self.fmt}"


WORKLOADS = {
    w.name: w
    for w in (
        # Fixed per-command cost: interpreter start, import, two CSV loads.
        # infotheory, selection and evaluation stay idle here.
        Workload(
            name="demo_abtest",
            config="demo.json",
            n_calls=50_000,
            fmt="csv",
            input="treatment.csv",
            commands=(
                "abtest --control {data}/control.csv --treatment {data}/treatment.csv"
                " --output {out}/abtest_displays.json --csv {out}/abtest_displays.csv",
                "abtest --control {data}/control.csv --treatment {data}/treatment.csv"
                " --denominator responders"
                " --output {out}/abtest_responders.json --csv {out}/abtest_responders.csv",
            ),
        ),
        # Information-gain evaluations on data with few distinct token rows.
        # No rits_lazy here: on demo data the lazy greedy's trace departs from
        # the eager one (a defect of toksel, which test_perfbench records), so
        # the lazy greedy is timed and checked on wide_jsonl.
        Workload(
            name="demo_select_audit",
            config="demo.json",
            n_calls=50_000,
            fmt="csv",
            input="treatment.csv",
            commands=(
                "select --input {input} --k 15 --strategy rits --output {out}/rits.json",
                "select --input {input} --k 5 --strategy exhaustive --output {out}/exhaustive.json",
                "audit --input {input} --trials 200 --seed {seed} --output {out}/audit.json",
            ),
        ),
        # Repeated-split AUC with the table scorer, and the only forest fits.
        Workload(
            name="demo_evaluate",
            config="demo.json",
            n_calls=50_000,
            fmt="csv",
            input="treatment.csv",
            commands=(
                "evaluate --input {input} --strategies rits,auc_greedy,random --k-max 15"
                " --splits 6 --scorer table --seed {seed} --output {out}/table",
                "evaluate --input {input} --strategies rits --k-max 8 --splits 1"
                " --scorer forest --trees 6 --seed {seed} --output {out}/forest",
            ),
        ),
        # JSONL loader and the 20-token cap, on rows that share little.
        Workload(
            name="wide_jsonl",
            config="wide.json",
            n_calls=20_000,
            fmt="jsonl",
            input="treatment.jsonl",
            commands=(
                "select --input {input} --k 20 --strategy rits --output {out}/rits.json",
                "select --input {input} --k 20 --strategy rits_lazy --output {out}/rits_lazy.json",
                "audit --input {input} --trials 40 --seed {seed} --output {out}/audit.json",
                "evaluate --input {input} --strategies rits,random --k-max 20 --splits 2"
                " --scorer table --seed {seed} --output {out}/table",
            ),
        ),
    )
}

# Probe commands of the traced run, keyed by the feature they exercise. A
# workload runs the probes for the features its own commands lack, so that
# every per-layer metric is measured on every workload. The csv and jsonl
# probes load a small generated file of that format (`{probe}/config.json`
# is the workload's config with PROBE_CALLS calls).
PROBES = {
    "rits": ("select --input {input} --k 8 --strategy rits --output {probe}/rits.json",),
    "rits_lazy": (
        "select --input {input} --k 8 --strategy rits_lazy --output {probe}/rits_lazy.json",
    ),
    "exhaustive": (
        "select --input {input} --k 2 --strategy exhaustive --output {probe}/exhaustive.json",
    ),
    "auc_greedy": (
        "select --input {input} --k 3 --strategy auc_greedy --splits 2 --seed {seed}"
        " --output {probe}/auc_greedy.json",
    ),
    "table": (
        "evaluate --input {input} --strategies random --k-max 4 --splits 2 --scorer table"
        " --seed {seed} --output {probe}/table",
    ),
    "forest": (
        "evaluate --input {input} --strategies random --k-max 3 --splits 1 --scorer forest"
        " --trees 4 --seed {seed} --output {probe}/forest",
    ),
    "audit": ("audit --input {input} --trials 10 --seed {seed} --output {probe}/audit.json",),
    "abtest": ("abtest --control {input} --treatment {input} --output {probe}/abtest.json",),
    "csv": (
        "generate --config {probe}/config.json --output {probe}/data --format csv",
        "select --input {probe}/data/{stem}.csv --k 2 --strategy rits --output {probe}/load_csv.json",
    ),
    "jsonl": (
        "generate --config {probe}/config.json --output {probe}/data --format jsonl",
        "select --input {probe}/data/{stem}.jsonl --k 2 --strategy rits"
        " --output {probe}/load_jsonl.json",
    ),
}


def flags(argv: list[str]) -> dict[str, str]:
    """`--name value` pairs of a toksel argument list."""
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def fill(template: str, fields: dict[str, str]) -> list[str]:
    """Argument list of a command template; paths may contain spaces."""
    return [part.format(**fields) for part in template.split()]


def features(argv: list[str]) -> set[str]:
    """Stage, strategies, scorer and input formats a command exercises."""
    stage, f = argv[0], flags(argv)
    out = {stage}
    if stage == "select":
        out.add(f["--strategy"])
    if stage == "evaluate":
        out.update(f["--strategies"].split(","))
        out.add(f["--scorer"])
    for key in ("--input", "--control", "--treatment"):
        if key in f:
            out.add("jsonl" if f[key].endswith(".jsonl") else "csv")
    return out


def probe_templates(workload: Workload, fields: dict[str, str]) -> list[str]:
    """Probe command templates for the features the workload's commands lack."""
    covered = set().union(*(features(fill(c, fields)) for c in workload.commands))
    return [cmd for feature, cmds in PROBES.items() if feature not in covered for cmd in cmds]


def lazy_twins(argvs: list[list[str]]) -> dict[int, int]:
    """Index of each rits_lazy select mapped to the rits select on the same input and k."""
    selects = [(i, flags(a)) for i, a in enumerate(argvs) if a[0] == "select"]
    eager = {(f["--input"], f["--k"]): i for i, f in selects if f["--strategy"] == "rits"}
    return {i: eager[(f["--input"], f["--k"])] for i, f in selects if f["--strategy"] == "rits_lazy"}
