"""toksel benchmark: drives the `toksel` CLI on generated survey data.

Run from the repository root:

    python3 perfbench/run.py --workload demo_abtest --seed 1 --seconds 5 --trace 0

Each run generates its inputs from `--seed` with `toksel generate`, then
times the workload's command sequence (see `workloads.py`).

`--trace 0` measures the end-to-end metrics. The run times the setup
(`toksel generate`), then runs the command sequence as a closed loop of
one client: one child process per command, each started after the
previous one exits, never two at once. One run of the first command is a
discarded warm-up (the setup has already compiled the .pyc files and
written the inputs, so that run finds them cached); then passes over the
whole sequence repeat until `--seconds` have passed, at least MIN_PASSES
times. The setup runs again after each of the first passes, up to
SETUP_REPEATS times in all, so that its samples, like the passes', fall
at different times of the run: on a shared host, machine speed drifts
over seconds. Peak RSS and CPU time come from each child's own rusage
(`os.wait4`).

`--trace 1` measures the per-layer metrics. It runs the same commands
in-process through `toksel.cli.main`, each once untraced and once with
spans around calls into toksel's modules (`tracing.py`, `layers.py`),
then the probe commands that exercise the layers the workload does not.
Tracing overhead is the cost of one span, timed on a traced no-op, times
the spans the workload's commands recorded: the difference between the
traced and untraced passes is smaller than their run-to-run noise.

Every command's outputs are checked (`checks.py`); `failed` counts the
commands that exit non-zero or fail a check, and `correct` is false if
any did. The last line of standard output is the result as JSON; the line
before it, prefixed `perfbench-info`, records the environment, the inputs, sample
counts and percentiles. The run writes only under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import REFERENCE_PATH, Checker, input_counts
from layers import TARGETS, MissingLayer, span_metrics
from tracing import Tracer, instrument, span_cost
from workloads import PROBE_CALLS, WORKLOADS, fill, lazy_twins, probe_templates

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 0  # the seed reference.json was recorded with
SETUP_REPEATS = 3
MIN_PASSES = 2  # measured passes per run: reruns are compared byte for byte
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))
# Children, and the traced run's own numpy, get at most one thread per usable core.
THREAD_ENV = {
    var: str(NPROC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import toksel.cli; print(time.perf_counter() - t)"
)


class HarnessError(Exception):
    """The benchmark cannot produce a result."""


class Child:
    """One finished toksel child process, with its own resource usage."""

    def __init__(self, argv: list[str], env: dict, log: Path):
        start = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        self.wall = time.perf_counter() - start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.cpu = usage.ru_utime + usage.ru_stime
        self.output = log.read_text(encoding="utf-8", errors="replace")


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals)}
    if len(vals) >= 20:
        q = math.floor(100 * (len(vals) - 10) / len(vals))
        out[f"p{q}"] = vals[math.ceil(q * len(vals) / 100) - 1]
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare(workload, seed: int) -> tuple[Path, dict]:
    """Empty work directory with the seed's generator configs; the template fields."""
    work = fresh_dir(OUT_DIR / workload.name)
    fields = {
        "data": str(work / "data"),
        "input": str(work / "data" / workload.input),
        "out": str(work / "out"),
        "probe": str(work / "probe"),
        "seed": str(seed),
        "stem": Path(workload.input).stem,
    }
    for name, calls in (("data", None), ("probe", PROBE_CALLS)):
        Path(fields[name]).mkdir()
        cfg = workload.generator_config(seed, calls)
        (Path(fields[name]) / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
    (work / "out").mkdir()
    (work / "logs").mkdir()
    return work, fields


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)


def toksel_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "toksel.cli", *argv]


def timed_run(workload, seed: int, seconds: float, src: Path, checker: Checker):
    work, fields = prepare(workload, seed)
    env = child_env(src)
    logs = (work / "logs" / f"{i}.log" for i in itertools.count())

    setup = fill(workload.setup_command(), fields)
    setup_walls = []

    def run_setup() -> dict:
        """Regenerate the inputs (every setup must write the same bytes); their counts."""
        child = Child(toksel_argv(setup), env, next(logs))
        if child.code != 0:
            raise HarnessError(f"setup failed with exit code {child.code}:\n{child.output}")
        counts = input_counts(Path(fields["input"]), workload.fmt)
        checker.command("setup", setup, child.code, extra=checker.input_problems(counts))
        setup_walls.append(child.wall)
        return counts

    counts = run_setup()

    argvs = [fill(c, fields) for c in workload.commands]
    twins = lazy_twins(argvs)
    warm_up = Child(toksel_argv(argvs[0]), env, next(logs))
    checker.workload_command(0, argvs, warm_up.code, twins)

    walls, measured = [], [[] for _ in argvs]
    window_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - window_start < seconds:
        start = time.perf_counter()
        children = [Child(toksel_argv(a), env, next(logs)) for a in argvs]
        walls.append(time.perf_counter() - start)
        for i, c in enumerate(children):
            checker.workload_command(i, argvs, c.code, twins)
            measured[i].append(c)
        if len(setup_walls) < SETUP_REPEATS:
            run_setup()
    while len(setup_walls) < SETUP_REPEATS:
        run_setup()

    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(c.rss_mb for runs in measured for c in runs),
        "setup_s": statistics.median(setup_walls),
    }
    info = {
        "inputs": counts,
        "wall_s": summary(walls),
        "setup_s": summary(setup_walls),
        "commands": [
            {
                "command": workload.commands[i],
                "wall_s": summary([c.wall for c in runs]),
                "cpu_s": summary([c.cpu for c in runs]),
                "peak_rss_mb": max(c.rss_mb for c in runs),
            }
            for i, runs in enumerate(measured)
        ],
    }
    return metrics, info


def import_toksel(src: Path):
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(src))
    import toksel.cli

    if src.resolve() not in Path(toksel.cli.__file__).resolve().parents:
        raise HarnessError(f"imported toksel from {toksel.cli.__file__}, not from {src}")
    return toksel.cli


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(workload, seed: int, src: Path, checker: Checker):
    cli = import_toksel(src)
    from toksel.dataset import load_dataset
    from toksel.infotheory import information_gain

    work, fields = prepare(workload, seed)
    tracer = Tracer()

    def call(argv, run=None) -> int:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            if run is None:
                code = cli.main(argv)
            else:
                tracer.run = run
                with tracer.span("cli.main", stage=argv[0]):
                    code = cli.main(argv)
        if code != 0:
            checker.problems.append(f"{argv[0]} stderr: {err.getvalue().strip()[-300:]}")
        return code

    setup = fill(workload.setup_command(), fields)
    with instrument(tracer, "toksel", TARGETS):
        code = call(setup, "setup")
    if code != 0:
        raise HarnessError(f"setup failed with exit code {code}: {checker.problems[-1]}")
    counts = input_counts(Path(fields["input"]), workload.fmt)
    checker.command("setup", setup, code, extra=checker.input_problems(counts))

    # Loading the input once warms the loader and the page cache for both passes.
    dataset = load_dataset(fields["input"], format=workload.fmt)
    argvs = [fill(c, fields) for c in workload.commands]
    twins = lazy_twins(argvs)
    untraced_wall = traced_wall = cpu = 0.0
    # Each command runs untraced, then traced, so drift in machine speed hits both alike.
    for i, argv in enumerate(argvs):
        start, cpu_start = time.perf_counter(), time.process_time()
        code = call(argv)
        untraced_wall += time.perf_counter() - start
        cpu += time.process_time() - cpu_start
        checker.workload_command(i, argvs, code, twins)
        with instrument(tracer, "toksel", TARGETS):
            start = time.perf_counter()
            code = call(argv, f"workload:{i}")
            traced_wall += time.perf_counter() - start
        checker.workload_command(i, argvs, code, twins)

    probes = [fill(t, fields) for t in probe_templates(workload, fields)]
    for j, argv in enumerate(probes):
        with instrument(tracer, "toksel", TARGETS):
            code = call(argv, f"probe:{j}")
        checker.command(f"probe{j}", argv, code)

    metrics, from_probes = span_metrics(tracer.spans, tracer.self_times())
    metrics["cli.cpu_s"] = cpu
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    own_spans = sum(1 for s in tracer.spans if s.run.startswith("workload:"))
    metrics["trace.overhead_s"] = span_cost() * own_spans
    for key in ("rows", "rated_rows", "distinct_rows", "distinct_row_labels"):
        metrics[f"dataset.{key}"] = counts[key]

    width = len(dataset.catalog)
    metrics["infotheory.ig_k8_s"] = median_seconds(lambda: information_gain(dataset, range(8)), 15)
    metrics["infotheory.ig_kmax_s"] = median_seconds(
        lambda: information_gain(dataset, range(width)), 5
    )
    tracemalloc.start()
    information_gain(dataset, range(width))
    metrics["infotheory.ig_kmax_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    env = child_env(src)
    imports = []
    for i in range(IMPORT_REPEATS):
        child = Child([sys.executable, "-c", IMPORT_PROBE], env, work / "logs" / f"import{i}.log")
        if child.code != 0:
            raise HarnessError(f"importing toksel.cli failed:\n{child.output}")
        imports.append(float(child.output.split()[-1]))
    metrics["cli.import_s"] = statistics.median(imports)

    info = {
        "inputs": counts,
        "spans": len(tracer.spans),
        "probe_commands": [" ".join(os.path.basename(a) for a in p) for p in probes],
        "metrics_from_probes": from_probes,
        "import_s": summary(imports),
    }
    return metrics, info


def environment(root: Path, src: Path) -> dict:
    source = hashlib.sha256()
    for path in sorted((src / "toksel").rglob("*.py")):
        source.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": NPROC,
        "threads": THREAD_ENV,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "toksel" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/toksel and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"][workload.name]
    checker = Checker(reference)

    try:
        if args.trace:
            metrics, info = traced_run(workload, args.seed, src, checker)
        else:
            metrics, info = timed_run(workload, args.seed, args.seconds, src, checker)
    except (HarnessError, MissingLayer) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if metrics.keys() != declared.keys():
        print(
            f"perfbench: measured metrics {sorted(metrics.keys() ^ declared.keys())}"
            " do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "calls": workload.n_calls,
        "format": workload.fmt,
        "environment": environment(root, src),
        "failed_frac": checker.failed / checker.attempted,
        "problems": checker.problems[:20],
        **info,
    }
    for name, unit in declared.items():
        print(f"{name:36} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':36} {info['failed_frac']:>16.6g} ratio")
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
