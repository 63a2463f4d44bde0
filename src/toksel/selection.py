"""Token-subset selection strategies.

The flagship strategy greedily adds the token with the largest marginal
information gain about the poor-call label. Baselines: univariate-AUC
ranking, uniform random, and an exhaustive oracle for small catalogs.

The greedy and exhaustive searches hold the cells of the subset they
extend and score all of its one-token extensions in one batch
(`infotheory.extension_term_sums`), to the same bits as scoring each
extension on its own. The exhaustive search is a branch and bound over
the lexicographic walk of full enumeration: it skips every subset that
a bound shows cannot beat the greedy subset or the best one found, by
more than a margin that covers rounding (`PRUNE_MARGIN_BITS`), and so
returns enumeration's winner and trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .dataset import Dataset, PatternTable, TokenCatalog, cell_ids, refine_cells
from .errors import CapacityError, ParameterError
from .evaluation import SplitPlan, check_seed, univariate_aucs
from .infotheory import IgEvaluator, extension_term_sums, stacked_term_sums

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
    """k greedy steps over `candidates`; ties go to the earliest candidate.

    The chosen tokens' cells are kept from step to step, and each step
    scores every remaining candidate from them in one batch.
    """
    table = ev.patterns
    cells, n_cells = cell_ids(table.rows, ())
    remaining = list(candidates)
    steps = []
    cur_ig = 0.0
    while len(steps) < k:
        best_id = -1
        best_cum = -1.0
        for t, term_sum in zip(remaining, extension_term_sums(table, cells, n_cells, remaining)):
            cum = ev.gain(term_sum)
            if cum > best_cum:
                best_cum = cum
                best_id = t
        steps.append(SelectionStep(best_id, best_cum - cur_ig, best_cum))
        remaining.remove(best_id)
        cells, n_cells = refine_cells(cells, table.rows[:, best_id], n_cells)
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
    IG lacks it (on the bundled demo, stale gains mis-ordered step 7). Not
    exported; kept because the benchmark's layer targets time it by name."""
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
    check_seed(seed)
    if catalog_size < 1:
        raise ParameterError("catalog size must be >= 1")
    _check_k(k, catalog_size)
    rng = np.random.default_rng(seed)
    ids = rng.permutation(catalog_size)[:k]
    steps = tuple(SelectionStep(int(t), 0.0, 0.0) for t in ids)
    return SelectionTrace("random", steps, budget_k=k, seed=seed, gain_metric="none")


def select_exhaustive(dataset: Dataset, k: int) -> SelectionTrace:
    """Best size-k subset by joint information gain, by branch and bound.

    The search meets the subsets in `combinations` order and keeps the
    first one of the largest gain, so ties resolve to the
    lexicographically smallest id list, as full enumeration resolves
    them. It scores only the subsets that no bound rules out
    (`_prefixes`), against a floor that starts at the greedy k-subset's
    gain. Steps replay the winning subset greedily so the trace carries
    marginal gains. When the winner is the greedy subset, the greedy
    steps are that replay: each step's token was the first of the best
    over every remaining token, so it is over the winner's remaining
    ones too, scored from the same cells to the same bits.
    """
    n_tokens = len(dataset.catalog)
    _check_k(k, n_tokens)
    n_subsets = math.comb(n_tokens, k)
    if n_subsets > EXHAUSTIVE_SUBSET_CAP:
        raise CapacityError(
            f"{n_subsets} subsets of size {k} exceed the enumeration cap of {EXHAUSTIVE_SUBSET_CAP}"
        )
    ev = IgEvaluator(dataset)
    greedy = _greedy(ev, range(n_tokens), k)
    greedy_ig = greedy[-1].cumulative_ig_bits
    best_subset = None
    best_ig = -1.0
    for prefix, cells, n_cells in _prefixes(ev, n_tokens, k - 1, lambda: max(best_ig, greedy_ig)):
        last = range(prefix[-1] + 1 if prefix else 0, n_tokens)
        for t, term_sum in zip(last, extension_term_sums(ev.patterns, cells, n_cells, last)):
            ig = ev.gain(term_sum)
            if ig > best_ig:
                best_ig = ig
                best_subset = (*prefix, t)
    if set(best_subset) != {step.token_id for step in greedy}:
        greedy = _greedy(ev, best_subset, k)
    return SelectionTrace("exhaustive", greedy, budget_k=k)


# How far below the floor a bound must fall before the search prunes on it, in bits.
# Each cell's term n*log2(n) - n0*log2(n0) - n1*log2(n1) is rounded within a few
# units in the last place of its products, whose magnitudes add up to at most
# 2*N*log2(N) over a subset's cells for N rated records, and fsum adds no error. So a
# computed gain is within about 2*log2(N)*2^-50 bits of the exact one: below 1.2e-13
# bits for any N an int64 holds (the known rounding gaps between subsets are about
# 3e-15 bits). A pruned subset's exact gain is at most its exact bound, so its
# computed gain is at most the computed bound plus twice that error, which is below
# floor - PRUNE_MARGIN_BITS + 2.4e-13 < floor: some subset's computed gain is higher,
# and the subset could never have won.
PRUNE_MARGIN_BITS = 1e-12


def _prefixes(
    ev: IgEvaluator, n_tokens: int, depth: int, floor: Callable[[], float]
) -> Iterator[tuple[tuple[int, ...], np.ndarray, int]]:
    """Each increasing `depth`-token prefix that leaves room for one more token, with
    its cells, except those whose every extension a bound shows to be below `floor()`.

    Prefixes come in lexicographic order, so extending each by every
    larger token in turn visits the subsets in `combinations` order. The
    search is depth-first and refines one prefix at a time: it holds the
    cells of at most depth + 1 prefixes.

    The bound is Narendra & Fukunaga's ("A Branch and Bound Algorithm for
    Feature Subset Selection", 1977): plug-in conditional entropy never
    rises when a token is added, so no subset that extends P by t and
    larger tokens gains more than P + {t, ..., n-1}. Before P is extended
    by t, that bound's gain is compared with `floor()`, the larger of the
    greedy subset's gain and the best gain found so far; below it by more
    than PRUNE_MARGIN_BITS, P is done, since the bounds of its larger
    tokens are the gains of subsets of this one. A prefix's bounds are
    scored in batches as the walk reaches them, each as long as the bounds
    the prefix already has. Any subset that could win is still met in
    order, so the winner is enumeration's.
    """
    table = ev.patterns
    suffixes = _suffix_cells(table, n_tokens)

    def walk(prefix, cells, n_cells, bounds):
        # bounds: the bound gains of extending `prefix` by each token from its first on
        if len(prefix) == depth:
            yield prefix, cells, n_cells
            return
        first = prefix[-1] + 1 if prefix else 0
        stop = n_tokens - depth + len(prefix)
        for t in range(first, stop):
            if t - first == len(bounds):
                # the next bounds, as many as are known (or 1): few go unused when the
                # prefix is done early, and few batches are scored when it is not
                more = range(t, min(stop, t + max(1, len(bounds))))
                bounds += _bound_gains(ev, suffixes, prefix, more)
            if bounds[t - first] < floor() - PRUNE_MARGIN_BITS:
                return
            # prefix + t's first bound, prefix + t + {t + 1, ..., n-1}, is this one
            yield from walk((*prefix, t), *refine_cells(cells, table.rows[:, t], n_cells), [bounds[t - first]])

    yield from walk((), *cell_ids(table.rows, ()), [])


def _suffix_cells(table: PatternTable, n_tokens: int) -> list[tuple[np.ndarray, int]]:
    """The cells of each suffix {t, ..., n-1} of the catalog and their count, t = 0..n."""
    suffixes = [cell_ids(table.rows, ())]
    for t in reversed(range(n_tokens)):
        cells, n_cells = suffixes[-1]
        suffixes.append(refine_cells(cells, table.rows[:, t], n_cells))
    return suffixes[::-1]


def _bound_gains(
    ev: IgEvaluator, suffixes: list[tuple[np.ndarray, int]], prefix: tuple[int, ...], tokens: range
) -> list[float]:
    """The gain of prefix + {t, ..., n-1} for each t in `tokens`, in one batch: block
    j starts from the cells of its suffix and is refined by the prefix's columns."""
    start = np.stack([suffixes[t][0] for t in tokens])
    width = suffixes[tokens[0]][1]  # the longest suffix has the most cells
    subsets = np.tile(np.array(prefix, dtype=np.intp), (len(tokens), 1))
    return [ev.gain(term_sum) for term_sum in stacked_term_sums(ev.patterns, start, width, subsets)]


# Strategy name -> (run, greedy). run(dataset, k, seed, splits, train_fraction) gives the
# trace; greedy declares that the trace at k is the first k steps of the trace at the
# catalog size n, which ends at the full-set information. Each run calls its select_*
# function through this module's globals, so a wrapped one (e.g. for profiling) runs.
STRATEGIES = {
    "rits": (lambda ds, k, seed, splits, frac: select_rits(ds, k), True),
    # an alias of rits, kept so that commands naming it still run
    "rits_lazy": (lambda ds, k, seed, splits, frac: select_rits_lazy(ds, k), True),
    "auc_greedy": (
        lambda ds, k, seed, splits, frac: select_auc_greedy(ds, k, splits=splits, seed=seed, train_fraction=frac),
        False,
    ),
    "random": (lambda ds, k, seed, splits, frac: select_random(len(ds.catalog), k, seed), False),
    "exhaustive": (lambda ds, k, seed, splits, frac: select_exhaustive(ds, k), False),
}
# what `select` runs, and what `evaluate` compares, when no strategy is named
DEFAULT_STRATEGY = "rits"
DEFAULT_COMPARISON = ("rits", "auc_greedy", "random")
