"""Token-subset selection strategies.

The flagship strategy greedily adds the token with the largest marginal
information gain about the poor-call label. Baselines: univariate-AUC
ranking, uniform random, and an exhaustive oracle for small catalogs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, TokenCatalog
from .errors import CapacityError, ParameterError
from .evaluation import SplitPlan, univariate_aucs
from .infotheory import IgEvaluator

EXHAUSTIVE_SUBSET_CAP = 200_000


@dataclass(frozen=True)
class SelectionStep:
    token_id: int
    marginal_gain_bits: float
    cumulative_ig_bits: float


@dataclass(frozen=True)
class SelectionTrace:
    """Ordered token choices with per-step gains.

    gain_metric is "bits" for information-gain strategies, "auc" when
    the marginal column carries a univariate AUC instead (the
    cumulative column stays in bits), and "none" for the random
    baseline, which records no gains.
    """

    strategy: str
    steps: tuple[SelectionStep, ...]
    budget_k: int
    seed: Optional[int] = None
    gain_metric: str = "bits"

    def __post_init__(self):
        ids = [s.token_id for s in self.steps]
        if len(set(ids)) != len(ids):
            raise ParameterError("trace token ids must be distinct")

    @property
    def token_ids(self) -> list[int]:
        return [s.token_id for s in self.steps]

    def to_json(self, catalog: Optional[TokenCatalog] = None) -> dict:
        labels = catalog.labels if catalog is not None else None
        return {
            "strategy": self.strategy,
            "k": self.budget_k,
            "seed": self.seed,
            "gain_metric": self.gain_metric,
            "steps": [
                {
                    "token_id": s.token_id,
                    "label": labels[s.token_id] if labels else None,
                    "marginal": s.marginal_gain_bits,
                    "cumulative": s.cumulative_ig_bits,
                }
                for s in self.steps
            ],
        }


def _check_k(k: int, n_tokens: int) -> None:
    if not 1 <= k <= n_tokens:
        raise ParameterError(f"k must be in 1..{n_tokens}, got {k}")


def _greedy(ev: IgEvaluator, candidates: Sequence[int], k: int) -> tuple[SelectionStep, ...]:
    """k greedy steps over `candidates`; ties go to the earliest candidate."""
    chosen: list[int] = []
    remaining = list(candidates)
    steps = []
    cur_ig = 0.0
    while len(steps) < k:
        best_id = -1
        best_cum = -1.0
        for t in remaining:
            cum = ev.ig(chosen + [t])
            if cum > best_cum:
                best_cum = cum
                best_id = t
        steps.append(SelectionStep(best_id, best_cum - cur_ig, best_cum))
        chosen.append(best_id)
        remaining.remove(best_id)
        cur_ig = best_cum
    return tuple(steps)


def select_rits(dataset: Dataset, k: int) -> SelectionTrace:
    """Greedy maximization of joint information gain, one token per step.

    Step i adds the token maximizing IG(chosen + token); ties break to
    the lowest token id. Deterministic.
    """
    n_tokens = len(dataset.catalog)
    _check_k(k, n_tokens)
    steps = _greedy(IgEvaluator(dataset), range(n_tokens), k)
    return SelectionTrace("rits", steps, budget_k=k)


def select_rits_lazy(dataset: Dataset, k: int) -> SelectionTrace:
    """The select_rits trace under the name `rits_lazy`. A lazy greedy trusts
    stale gains as upper bounds, which needs diminishing returns; plug-in
    IG lacks it (on the bundled demo, stale gains mis-ordered step 7)."""
    return replace(select_rits(dataset, k), strategy="rits_lazy")


def select_auc_greedy(
    dataset: Dataset,
    k: int,
    splits: int = 100,
    seed: Optional[int] = 0,
    train_fraction: float = 0.7,
) -> SelectionTrace:
    """Rank tokens by mean univariate AUC over repeated splits; take the top k.

    The marginal column carries each token's univariate AUC; the
    cumulative column records the joint information gain of the prefix
    so traces stay comparable across strategies.
    """
    n_tokens = len(dataset.catalog)
    _check_k(k, n_tokens)
    if splits < 1:
        raise ParameterError("splits must be >= 1")
    plan = SplitPlan(splits=splits, train_fraction=train_fraction, master_seed=seed)
    means = univariate_aucs(dataset, plan)
    order = np.lexsort((np.arange(n_tokens), -means))[:k]

    ev = IgEvaluator(dataset)
    steps = []
    prefix: list[int] = []
    for t in order:
        prefix.append(int(t))
        steps.append(
            SelectionStep(int(t), float(means[t]), ev.ig(prefix))
        )
    return SelectionTrace("auc_greedy", tuple(steps), budget_k=k, seed=seed, gain_metric="auc")


def select_random(catalog_size: int, k: int, seed: int) -> SelectionTrace:
    """Uniform random subset of k tokens, deterministic for a given seed."""
    if seed is None:
        raise ParameterError("random selection requires a seed for reproducibility")
    if catalog_size < 1:
        raise ParameterError("catalog size must be >= 1")
    _check_k(k, catalog_size)
    rng = np.random.default_rng(seed)
    ids = rng.permutation(catalog_size)[:k]
    steps = tuple(SelectionStep(int(t), 0.0, 0.0) for t in ids)
    return SelectionTrace("random", steps, budget_k=k, seed=seed, gain_metric="none")


def select_exhaustive(
    dataset: Dataset, k: int, max_subsets: int = EXHAUSTIVE_SUBSET_CAP
) -> SelectionTrace:
    """Best size-k subset by joint information gain, by full enumeration.

    Ties resolve to the lexicographically smallest id list. Steps replay
    the winning subset greedily so the trace carries marginal gains.
    """
    n_tokens = len(dataset.catalog)
    _check_k(k, n_tokens)
    n_subsets = math.comb(n_tokens, k)
    if n_subsets > max_subsets:
        raise CapacityError(
            f"{n_subsets} subsets of size {k} exceed the enumeration cap of {max_subsets}"
        )
    ev = IgEvaluator(dataset)
    best_subset = None
    best_ig = -1.0
    for combo in combinations(range(n_tokens), k):
        ig = ev.ig(combo)
        if ig > best_ig:
            best_ig = ig
            best_subset = combo
    return SelectionTrace("exhaustive", _greedy(ev, best_subset, k), budget_k=k)


# Strategy name -> fn(dataset, k, seed, splits, train_fraction). The select_*
# functions are looked up when a strategy runs, not when this table is built,
# so a wrapped select_* function (e.g. for profiling) is the one that runs.
STRATEGIES = {
    "rits": lambda ds, k, seed, splits, frac: select_rits(ds, k),
    "rits_lazy": lambda ds, k, seed, splits, frac: select_rits_lazy(ds, k),
    "auc_greedy": lambda ds, k, seed, splits, frac: select_auc_greedy(
        ds, k, splits=splits, seed=seed, train_fraction=frac
    ),
    "random": lambda ds, k, seed, splits, frac: select_random(len(ds.catalog), k, seed),
    "exhaustive": lambda ds, k, seed, splits, frac: select_exhaustive(ds, k),
}
