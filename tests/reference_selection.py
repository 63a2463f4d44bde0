"""Per-subset greedy and exhaustive searches, the reference for toksel.selection's batched ones.

These are the searches toksel shipped before greedy steps and the
exhaustive search scored a subset's one-token extensions from its cells:
every candidate subset is scored on its own through
`IgEvaluator.ig`, which numbers the subset's cells with
`toksel.dataset.cell_ids` over the pattern table's rows and counts each
cell's records by label. The batched searches must return the same
traces, field by field and bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from toksel.dataset import Dataset
from toksel.infotheory import IgEvaluator
from toksel.selection import SelectionStep


def greedy_reference(ev: IgEvaluator, candidates: Sequence[int], k: int) -> tuple[SelectionStep, ...]:
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


def exhaustive_reference(dataset: Dataset, k: int) -> tuple[tuple[int, ...], tuple[SelectionStep, ...]]:
    """The best size-k subset by full enumeration (ties to the lexicographically
    first) and its greedy replay."""
    ev = IgEvaluator(dataset)
    best_subset = None
    best_ig = -1.0
    for combo in combinations(range(len(dataset.catalog)), k):
        ig = ev.ig(combo)
        if ig > best_ig:
            best_ig = ig
            best_subset = combo
    return best_subset, greedy_reference(ev, best_subset, k)
