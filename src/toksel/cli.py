"""Command-line pipeline: generate, select, evaluate, abtest, audit.

Stages hand off through files. Every command is a pure function of its
inputs, flags, and seed; each run that writes files also writes a
manifest recording the input digest, the seed, and the digests of every
output, so reruns can be checked byte-for-byte. Exit codes: 0 success, 1 usage, 2 data error,
3 capacity exceeded (the exhaustive search's cap on C(n, k), or a run that
needs more memory than the machine can give or address, such as an impossible `n_calls`).

Run as a process (`python -m toksel.cli`, the `toksel` script), `main` freezes the
garbage collector's view of the objects imported so far (`gc.freeze`): they live until
exit, so no collection, not even shutdown's, walks them again.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .abtest import DENOMINATORS, run_abtest
from .dataset import Dataset, TokenCatalog, load_dataset, save_dataset
from .errors import CapacityError, DataError, ParameterError
from .evaluation import SCORERS, SplitPlan, evaluate_subsets, report_to_json_text
from .infotheory import audit_monotonicity, audit_submodularity
from .selection import DEFAULT_COMPARISON, DEFAULT_STRATEGY, STRATEGIES


def _lazy_module(name: str):
    """The module `name`, put in sys.modules now and run on its first
    attribute access (importlib.util.LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Only generate runs the generator, so it is loaded on generate's first use:
# no other command pays for it, and code that finds the modules in sys.modules
# (the benchmark's tracer) still finds this one.
synthgen = _lazy_module(f"{__package__}.synthgen")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this pipeline reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(convert, ok, rule):
    """An argparse type: `convert(text)`, refused with "must be <rule>" when `ok` rejects it."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


# Numeric flags are checked here, before any input is read. numpy's generators
# take only seeds >= 0; a split plan needs one split; NaN is no fraction and no tolerance.
non_negative_int = _bounded(int, lambda v: v >= 0, ">= 0")
positive_int = _bounded(int, lambda v: v >= 1, ">= 1")
open_fraction = _bounded(float, lambda v: 0 < v < 1, "in (0, 1)")
finite_non_negative = _bounded(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
strategy_list = _bounded(
    lambda text: [s.strip() for s in text.split(",") if s.strip()],
    lambda v: v and set(v) <= STRATEGIES.keys() and len(set(v)) == len(v),
    f"a comma-separated list of distinct names among {', '.join(STRATEGIES)}",
)


# files are hashed a block at a time, so that no input or output is held whole; a
# block below malloc's mmap threshold (128 KiB) reuses freed heap memory, while a
# larger one maps fresh pages at each read, which can set a command's peak RSS
_DIGEST_BLOCK = 1 << 16


def _hash_file(digest, path):
    """`digest` updated with the bytes of the file at `path`."""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_DIGEST_BLOCK), b""):
            digest.update(block)
    return digest


def _run(args) -> None:
    """Run one command, then write its outputs and, if there are any, their manifest.

    A command returns (outputs, manifest, inputs, flags, seed). `outputs`
    maps each path to its text, or to the Dataset that save_dataset writes
    there. The manifest goes to `manifest`, or beside the first output when
    that is None; it records a digest of the input files and flags, the
    seed and every output's digest, so reruns can be checked byte-for-byte.
    """
    outputs, manifest_path, inputs, flags, seed = args.func(args)
    if not outputs:
        return
    for path, data in outputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, Dataset):
            save_dataset(data, path, format=path.suffix[1:])
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(data)
    # only the paths are kept: the texts and datasets written are dropped, and
    # then hashlib is imported, whose OpenSSL no command needs before its manifest
    outputs, data = list(outputs), None
    import hashlib

    # a catalog file sets token ids and labels, so it is digested as an input too
    catalog = [Path(args.catalog)] if getattr(args, "catalog", None) else []
    digest = hashlib.sha256()
    for p in [*inputs, *catalog]:
        _hash_file(digest, p)
    digest.update(json.dumps(flags, sort_keys=True).encode())
    manifest = {
        "command": args.command,
        "config_digest": digest.hexdigest(),
        "master_seed": seed,
        "tool_version": __version__,
        "outputs": [
            {"path": out.name, "sha256": _hash_file(hashlib.sha256(), out).hexdigest()}
            for out in sorted(outputs)
        ],
    }
    path = manifest_path or Path(f"{next(iter(outputs))}.manifest.json")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(args, path: str):
    p = Path(path)
    if not p.exists():
        raise DataError(f"input file not found: {p}")
    catalog = TokenCatalog.from_csv(args.catalog) if args.catalog else None
    fmt = args.format
    if fmt == "auto":
        fmt = "jsonl" if p.suffix == ".jsonl" else "csv"
    # the statistic commands read arms, ratings and cells only: call ids and platforms are checked, not kept
    return load_dataset(p, format=fmt, catalog=catalog, record_strings=False)


# -- commands -----------------------------------------------------------


def cmd_generate(args):
    if args.config == "demo":
        gen, arms, arm_seeds = synthgen.experiment_from_config(synthgen.demo_experiment_config())
        input_paths = []
    else:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise DataError(f"config file not found: {cfg_path}")
        gen, arms, arm_seeds = synthgen.load_experiment_config(cfg_path)
        input_paths = [cfg_path]
    flags = {"config": Path(args.config).name, "format": args.format}

    out_dir = Path(args.output)
    truth = synthgen.generate_truth(gen)
    datasets = {
        arm: synthgen.apply_presentation(truth, pres, arm, arm_seeds[arm]) for arm, pres in arms.items()
    } or {"truth": truth}
    outputs = {out_dir / f"{name}.{args.format}": data for name, data in datasets.items()}
    for path, data in outputs.items():
        print(f"wrote {path} ({len(data)} records)")
    return outputs, out_dir / "manifest.json", input_paths, flags, gen.seed


def cmd_select(args):
    dataset = _load(args, args.input)
    run, _ = STRATEGIES[args.strategy]
    trace = run(dataset, args.k, args.seed, args.splits, args.train_frac)

    labels = dataset.catalog.labels
    unit = {"bits": "gain(bits)", "auc": "univ. AUC", "none": "gain"}[trace.gain_metric]
    print(f"strategy={trace.strategy} k={trace.budget_k}")
    print(f"{'step':>4}  {'token':>5}  {unit:>12}  {'cum. IG(bits)':>13}  label")
    for i, step in enumerate(trace.steps, start=1):
        print(
            f"{i:>4}  {step.token_id:>5}  {step.marginal_gain_bits:>12.6f}  "
            f"{step.cumulative_ig_bits:>13.6f}  {labels[step.token_id]}"
        )

    outputs = {}
    if args.output:
        outputs[Path(args.output)] = json.dumps(trace.to_json(dataset.catalog), indent=2) + "\n"
    flags = {
        "input": Path(args.input).name,
        "k": args.k,
        "strategy": args.strategy,
        "splits": args.splits,
        "train_frac": args.train_frac,
    }
    return outputs, None, [Path(args.input)], flags, args.seed


def cmd_evaluate(args):
    dataset = _load(args, args.input)
    n_tokens = len(dataset.catalog)
    if args.k_max > n_tokens:
        raise ParameterError(f"--k-max {args.k_max} exceeds catalog size {n_tokens}")

    # a greedy strategy runs at n and is cut to --k-max; the first gives the 90%/94% lines
    traces = []
    full = None
    for name in args.strategies:
        run, greedy = STRATEGIES[name]
        trace = run(dataset, n_tokens if greedy else args.k_max, args.seed, args.splits, args.train_frac)
        if greedy:
            full = full or trace
            trace = replace(trace, steps=trace.steps[: args.k_max], budget_k=args.k_max)
        traces.append(trace)

    plan = SplitPlan(splits=args.splits, train_fraction=args.train_frac, master_seed=args.seed)
    reports = evaluate_subsets(
        dataset, traces, plan, scorer_kind=args.scorer, trees=args.trees
    )

    out_dir = Path(args.output)
    outputs = {}
    for report in reports:
        outputs[out_dir / f"{report.strategy}_report.json"] = report_to_json_text(report)
        outputs[out_dir / f"{report.strategy}_report.csv"] = report.to_csv_text()

    total = full.steps[-1].cumulative_ig_bits if full else 0.0
    if total > 0:
        for threshold in (0.90, 0.94):
            hit = next(
                i + 1 for i, s in enumerate(full.steps) if s.cumulative_ig_bits >= threshold * total
            )
            print(f"{full.strategy}: reaches {threshold:.0%} of full-set IG at k={hit}")
    print(f"wrote {len(outputs)} report files to {out_dir}")

    flags = {
        "input": Path(args.input).name,
        "strategies": args.strategies,
        "k_max": args.k_max,
        "splits": args.splits,
        "train_frac": args.train_frac,
        "scorer": args.scorer,
        "trees": args.trees,
    }
    return outputs, out_dir / "manifest.json", [Path(args.input)], flags, args.seed


def cmd_abtest(args):
    control = _load(args, args.control)
    treatment = _load(args, args.treatment)
    report = run_abtest(
        control, treatment, denominator=args.denominator, significance_level=args.alpha
    )

    ov = report.overall
    delta = "n/a" if ov.relative_delta is None else f"{ov.relative_delta:+.4f}"
    print(f"overall response rate delta: {delta} (p={ov.p_value:.3g})")
    n_sig = len(report.significant_tokens())
    print(f"{n_sig} of {len(report.per_token)} tokens significant at {report.significance_level}")
    for t in report.per_token:
        cmp = t.comparison
        mark = "*" if cmp.p_value < report.significance_level else " "
        d = "  n/a  " if cmp.relative_delta is None else f"{cmp.relative_delta:+.4f}"
        print(f"  {mark} {d}  p={cmp.p_value:<10.3g} {t.label}")

    outputs = {}
    if args.output:
        outputs[Path(args.output)] = report.to_json_text()
    if args.csv:
        outputs[Path(args.csv)] = report.to_csv_text()
    flags = {"denominator": args.denominator, "alpha": args.alpha}
    return outputs, None, [Path(args.control), Path(args.treatment)], flags, None


def cmd_audit(args):
    dataset = _load(args, args.input)
    mono = audit_monotonicity(dataset, args.trials, seed=args.seed)
    sub = audit_submodularity(dataset, args.trials, seed=args.seed, tolerance=args.tolerance)
    print(
        f"monotonicity: {mono.violations}/{mono.trials} violations"
        f" (max {mono.max_violation:.3e})"
    )
    print(
        f"submodularity: {sub.violations}/{sub.trials} violations beyond {sub.tolerance:g}"
        f" (max {sub.max_violation:.3e}, fraction {sub.violation_fraction:.4f})"
    )
    outputs = {}
    if args.output:
        payload = {"monotonicity": mono.to_json(), "submodularity": sub.to_json()}
        outputs[Path(args.output)] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    flags = {"trials": args.trials, "tolerance": args.tolerance}
    return outputs, None, [Path(args.input)], flags, args.seed


# -- argument wiring ------------------------------------------------------


def _add_io_flags(p: _Parser) -> None:
    p.add_argument("--format", choices=["auto", "csv", "jsonl"], default="auto")
    p.add_argument("--catalog", help="catalog CSV (id,label,panel) for custom token files")


def build_parser() -> _Parser:
    parser = _Parser(prog="toksel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"toksel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate synthetic survey datasets from a config")
    p.add_argument("--config", required=True, help="experiment config JSON, or 'demo'")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("select", help="select a token subset from a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES), default=DEFAULT_STRATEGY)
    p.add_argument("--seed", type=non_negative_int)
    p.add_argument("--splits", type=positive_int, default=100)
    p.add_argument("--train-frac", type=open_fraction, default=0.7)
    p.add_argument("--output", help="trace JSON path")
    _add_io_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="score strategies with repeated-split AUC and Jaccard")
    p.add_argument("--input", required=True)
    p.add_argument("--strategies", type=strategy_list, default=",".join(DEFAULT_COMPARISON))
    p.add_argument("--k-max", type=positive_int, required=True)
    p.add_argument("--splits", type=positive_int, default=100)
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--train-frac", type=open_fraction, default=0.7)
    p.add_argument("--scorer", choices=SCORERS, default="table")
    p.add_argument("--trees", type=positive_int, default=100)
    p.add_argument("--output", required=True, help="report directory")
    _add_io_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("abtest", help="compare response rates between two arms")
    p.add_argument("--control", required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--output", help="report JSON path")
    p.add_argument("--csv", help="per-token CSV path")
    p.add_argument("--denominator", choices=DENOMINATORS, default="displays")
    p.add_argument("--alpha", type=open_fraction, default=0.01)
    _add_io_flags(p)
    p.set_defaults(func=cmd_abtest)

    p = sub.add_parser("audit", help="audit monotonicity and diminishing returns")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--tolerance", type=finite_non_negative, default=1e-9)
    p.add_argument("--output", help="audit report JSON path")
    _add_io_flags(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # the process entry (see the module docstring); a caller that passes an
        # argument list, such as a test or a library, keeps its collector as it is
        gc.freeze()
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        _run(args)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ParameterError as exc:
        print(f"toksel: error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, MemoryError) as exc:
        # MemoryError: an allocation the run needs failed, often with no message of its own
        cause = str(exc) or f"out of memory while running {args.command if args else 'toksel'}"
        print(f"toksel: capacity error: {cause}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        # OSError: an input path that is missing, a directory, or unreadable
        print(f"toksel: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
