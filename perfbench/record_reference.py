"""Record reference.json: the numbers each workload's commands report on the default seed.

A `select --strategy rits_lazy` command's reference is the trace of the
`rits` command on the same input and k, which the lazy greedy must
reproduce exactly; the lazy run's own output is not recorded.

Run from the repository root, on the code the reference should describe:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from checks import REFERENCE_PATH, extract, input_counts
from run import DEFAULT_SEED, Child, child_env, prepare, toksel_argv
from workloads import WORKLOADS, fill, lazy_twins


def record(workload, env: dict) -> dict:
    work, fields = prepare(workload, DEFAULT_SEED)
    argvs = [fill(workload.setup_command(), fields)] + [fill(c, fields) for c in workload.commands]
    for i, argv in enumerate(argvs):
        child = Child(toksel_argv(argv), env, work / "logs" / f"{i}.log")
        if child.code != 0:
            sys.exit(f"{workload.name}: {argv[0]} failed:\n{child.output}")
    commands = argvs[1:]
    twins = lazy_twins(commands)
    return {
        "inputs": input_counts(Path(fields["input"]), workload.fmt),
        "commands": [extract(commands[twins.get(i, i)]) for i in range(len(commands))],
    }


def main() -> None:
    env = child_env(Path.cwd() / "src")
    reference = {
        "seed": DEFAULT_SEED,
        "workloads": {name: record(w, env) for name, w in WORKLOADS.items()},
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
