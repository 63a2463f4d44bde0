"""Output checks for toksel commands. A command that fails any check counts as failed.

Checks on every seed:
- the command exits 0;
- its manifest lists its outputs, and each listed `sha256` matches the file;
- a rerun of the same command writes byte-identical outputs;
- `audit` reports zero monotonicity violations;
- `select --strategy rits_lazy` gives the same trace as `rits` on the same input and k.

On the default seed the numbers are also compared with `reference.json`,
recorded from the seed code: token order and counts exactly, floats
(AUC, IG, p-values, Jaccard) within REFERENCE_TOLERANCE.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

from workloads import flags

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_TOLERANCE = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_path(argv: list[str]) -> Path:
    stage, f = argv[0], flags(argv)
    if stage in ("generate", "evaluate"):
        return Path(f["--output"]) / "manifest.json"
    return Path(f["--output"] + ".manifest.json")


def named_outputs(argv: list[str]) -> list[Path]:
    """Output files a command is asked for by name; its manifest must list them."""
    f = flags(argv)
    if argv[0] in ("select", "audit"):
        return [Path(f["--output"])]
    if argv[0] == "abtest":
        return [Path(f[k]) for k in ("--output", "--csv") if k in f]
    if argv[0] == "evaluate":
        out = Path(f["--output"])
        return [out / f"{s}_report.{ext}" for s in f["--strategies"].split(",") for ext in ("json", "csv")]
    return []


def manifest_problems(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Problems with a command's manifest, and the digest of every file it lists."""
    manifest = manifest_path(argv)
    try:
        entries = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable manifest {manifest.name}: {exc}"], {}
    problems = []
    digests = {manifest.name: sha256_file(manifest)}
    if not entries:
        problems.append(f"manifest {manifest.name} lists no outputs")
    for entry in entries:
        path = manifest.parent / entry["path"]
        if not path.is_file():
            problems.append(f"{entry['path']}: listed in the manifest but missing")
            continue
        digests[entry["path"]] = sha256_file(path)
        if digests[entry["path"]] != entry["sha256"]:
            problems.append(f"{entry['path']}: sha256 does not match the manifest")
    listed = {entry["path"] for entry in entries}
    problems += [f"{p.name}: not listed in the manifest" for p in named_outputs(argv) if p.name not in listed]
    return problems, digests


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def extract(argv: list[str]) -> dict:
    """The numbers a command's outputs report, for the reference and twin checks."""
    stage, f = argv[0], flags(argv)
    if stage == "select":
        steps = _read_json(f["--output"])["steps"]
        return {
            "tokens": [s["token_id"] for s in steps],
            "marginal": [s["marginal"] for s in steps],
            "cumulative": [s["cumulative"] for s in steps],
        }
    if stage == "audit":
        report = _read_json(f["--output"])
        return {
            f"{kind}_{key}": report[kind][key]
            for kind in ("monotonicity", "submodularity")
            for key in ("violations", "max_violation")
        }
    if stage == "abtest":
        report = _read_json(f["--output"])
        return {
            "overall_p": report["overall"]["p_value"],
            "p": [t["p_value"] for t in report["per_token"]],
            "delta": [t["relative_delta"] for t in report["per_token"]],
        }
    if stage == "evaluate":
        out = {}
        for strategy in f["--strategies"].split(","):
            per_k = _read_json(Path(f["--output"]) / f"{strategy}_report.json")["per_k"]
            out[strategy] = {
                key: [e[key] for e in per_k] for key in ("auc_mean", "auc_std", "js_mean")
            }
        return out
    return {}


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Differences between two extracted values: exact except floats, which
    may differ by REFERENCE_TOLERANCE."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(expected, actual, rel_tol=0.0, abs_tol=REFERENCE_TOLERANCE):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != reference {sorted(expected)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{where}[{i}]")]
    if expected != actual or type(expected) is not type(actual):
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return []


def content_problems(argv: list[str]) -> list[str]:
    if argv[0] == "audit":
        violations = extract(argv)["monotonicity_violations"]
        if violations != 0:
            return [f"monotonicity audit found {violations} violations"]
    return []


def input_counts(path: Path, fmt: str) -> dict[str, int]:
    """Catalog width, rows, rated rows, and distinct token rows and
    (token row, poor-call) pairs among rated rows."""
    tokens = rows = 0
    distinct_rows = set()
    distinct_row_labels = set()
    rated = 0

    def add(rating, cells):
        nonlocal tokens, rows, rated
        tokens = len(cells)
        rows += 1
        if rating not in ("", None):
            rated += 1
            distinct_rows.add(cells)
            distinct_row_labels.add((cells, int(rating) <= 2))

    with open(path, newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                add(row[3], tuple(row[4:]))
        else:
            for line in fh:
                obj = json.loads(line)
                add(obj["rating"], tuple(obj["selections"].values()))
    return {
        "tokens": tokens,
        "rows": rows,
        "rated_rows": rated,
        "distinct_rows": len(distinct_rows),
        "distinct_row_labels": len(distinct_row_labels),
    }


class Checker:
    """Runs the checks on each executed command and keeps the failure count."""

    def __init__(self, reference: dict | None):
        self.reference = reference  # this workload's reference, or None off the default seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, dict[str, str]] = {}

    def input_problems(self, counts: dict[str, int]) -> list[str]:
        if self.reference is None:
            return []
        return mismatches(self.reference["inputs"], counts, "inputs")

    def workload_command(self, i: int, argvs: list[list[str]], code: int, twins: dict[int, int]) -> None:
        """Check command `i` of the workload right after it ran; `twins` maps
        rits_lazy to rits indices, as `workloads.lazy_twins` gives them."""
        extra = []
        j = twins.get(i)
        if j is not None and code == 0:
            try:
                if extract(argvs[i]) != extract(argvs[j]):
                    extra.append("rits_lazy trace differs from rits")
            except (OSError, ValueError, KeyError) as exc:
                extra.append(f"cannot compare with the rits trace: {exc}")
        expected = None if self.reference is None else self.reference["commands"][i]
        self.command(str(i), argvs[i], code, expected, extra)

    def command(self, key: str, argv: list[str], code: int, expected=None, extra=()) -> None:
        """Check one executed command. Commands with the same key must write the same bytes."""
        problems = list(extra)
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            found, digests = manifest_problems(argv)
            problems += found
            if self._digests.setdefault(key, digests) != digests:
                problems.append("outputs differ from an earlier run of the same command")
            if not found:
                try:
                    problems += content_problems(argv)
                    if expected is not None:
                        problems += mismatches(expected, extract(argv), "outputs")
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
        self.attempted += 1
        if problems:
            self.failed += 1
            shown = " ".join(os.path.basename(a) for a in argv)
            self.problems.append(f"{shown}: {'; '.join(problems[:5])}")
