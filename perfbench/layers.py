"""Per-layer metrics from the spans of a traced run.

`TARGETS` names the toksel functions the traced run wraps: the public
functions that `toksel.cli` and `toksel.selection` call, plus `auc`,
`jaccard_set` and `ForestScorer.fit`, which `evaluate_subsets` calls once
per subset and split, and the private `infotheory._cond_term_sum`, the
IG evaluation that selection and the audits call, so that IG time counts
as infotheory's self time, not selection's. `layers.json` says, for
each metric, which end-to-end metric and workload it should move.

Most metrics come from the spans of the workload's own commands (run ids
"setup" and "workload:<i>"). When a workload does not exercise a layer,
the metric comes from the spans of its probe commands instead; the result
line's info names those metrics.
"""

from __future__ import annotations

import statistics

MODULES = ("cli", "dataset", "synthgen", "infotheory", "selection", "evaluation", "abtest")
STAGES = ("generate", "select", "evaluate", "abtest", "audit")


def _evaluate_attrs(a: dict) -> dict:
    subsets = {
        tuple(sorted(t.token_ids[:k])) for t in a["traces"] for k in range(1, len(t.token_ids) + 1)
    }
    return {"scorer": a["scorer_kind"], "subset_splits": len(subsets) * a["plan"].splits}


TARGETS = (
    ("dataset", "load_dataset", lambda a: {"format": a["format"]}),
    ("dataset", "save_dataset", None),
    ("synthgen", "generate_truth", None),
    ("synthgen", "apply_presentation", None),
    ("selection", "select_rits", None),
    ("selection", "select_rits_lazy", None),
    ("selection", "select_exhaustive", None),
    ("selection", "select_auc_greedy", None),
    ("selection", "select_random", None),
    ("infotheory", "_cond_term_sum", None),
    ("infotheory", "audit_monotonicity", lambda a: {"trials": a["trials"]}),
    ("infotheory", "audit_submodularity", lambda a: {"trials": a["trials"]}),
    ("evaluation", "evaluate_subsets", _evaluate_attrs),
    ("evaluation", "univariate_aucs", None),
    ("evaluation", "auc", None),
    ("evaluation", "jaccard_set", None),
    ("evaluation", "ForestScorer.fit", None),
    ("abtest", "run_abtest", None),
)


class MissingLayer(Exception):
    """No span measured a layer that a metric needs."""


def span_metrics(spans, self_times: dict[int, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the names of those taken from probe commands."""
    own = [s for s in spans if not s.run.startswith("probe")]
    from_probes = []

    def pick(metrics, pred):
        """Spans of the workload's own commands that match, else those of its probes."""
        chosen = [s for s in own if pred(s)]
        if not chosen:
            chosen = [s for s in spans if pred(s)]
            from_probes.extend(metrics.split())
        if not chosen:
            raise MissingLayer(metrics)
        return chosen

    def named(name, **attrs):
        return lambda s: s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())

    def mean(metric, pred):
        return statistics.fmean(s.duration for s in pick(metric, pred))

    m = {}
    m["cli.self_s"] = sum(self_times[s.id] for s in pick("cli.self_s", named("cli.main")))
    for stage in STAGES:
        metric = f"cli.{stage}_s"
        m[metric] = sum(s.duration for s in pick(metric, named("cli.main", stage=stage)))
    for module in MODULES[1:]:
        metric = f"{module}.self_s"
        chosen = pick(metric, lambda s, p=module + ".": s.name.startswith(p))
        m[metric] = sum(self_times[s.id] for s in chosen)

    m["dataset.load_csv_s"] = mean("dataset.load_csv_s", named("dataset.load_dataset", format="csv"))
    m["dataset.load_jsonl_s"] = mean(
        "dataset.load_jsonl_s", named("dataset.load_dataset", format="jsonl")
    )
    m["dataset.save_s"] = mean("dataset.save_s", named("dataset.save_dataset"))
    for fn in ("generate_truth", "apply_presentation"):
        m[f"synthgen.{fn}_s"] = mean(f"synthgen.{fn}_s", named(f"synthgen.{fn}"))
    for strategy in ("rits", "rits_lazy", "exhaustive", "auc_greedy"):
        metric = f"selection.{strategy}_s"
        m[metric] = mean(metric, named(f"selection.select_{strategy}"))

    audits = pick(
        "infotheory.audit_trial_s",
        lambda s: s.name in ("infotheory.audit_monotonicity", "infotheory.audit_submodularity"),
    )
    m["infotheory.audit_trial_s"] = sum(s.duration for s in audits) / sum(s.attrs["trials"] for s in audits)

    table = pick(
        "evaluation.evaluate_subsets_s evaluation.subset_splits evaluation.split_auc_s",
        named("evaluation.evaluate_subsets", scorer="table"),
    )
    m["evaluation.evaluate_subsets_s"] = statistics.fmean(s.duration for s in table)
    m["evaluation.subset_splits"] = sum(s.attrs["subset_splits"] for s in table)
    m["evaluation.split_auc_s"] = sum(s.duration for s in table) / m["evaluation.subset_splits"]
    m["evaluation.auc_s"] = mean("evaluation.auc_s", named("evaluation.auc"))
    m["evaluation.jaccard_set_s"] = mean("evaluation.jaccard_set_s", named("evaluation.jaccard_set"))
    m["evaluation.forest_fit_s"] = mean("evaluation.forest_fit_s", named("evaluation.ForestScorer.fit"))
    m["abtest.run_abtest_s"] = mean("abtest.run_abtest_s", named("abtest.run_abtest"))
    return m, sorted(set(from_probes))
