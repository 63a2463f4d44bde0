"""Per-trial audits, the reference for toksel.infotheory's batched ones.

These are the audits toksel shipped before the trials were drawn in
chunks and each distinct subset scored once in batches: each trial draws
its subsets and scores them on the spot, one subset's cells at a time
(`reference_cells.cond_term_sum`). The batched audits must return the
same reports, field by field and bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from toksel.dataset import Dataset
from toksel.errors import DataError, ParameterError
from toksel.infotheory import _AUDIT_MAX_SIZE, AuditReport

from reference_cells import cond_term_sum


def _audit(kind, dataset, trials, seed, tolerance, min_tokens, draw) -> AuditReport:
    """Count the gaps above `tolerance` of `trials` draws of `draw(rng, cond, n_tokens)`,
    each a difference of term sums `cond(subset)`, divided by the rated-record count."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= tolerance < math.inf:
        raise ParameterError(f"tolerance must be a finite number >= 0, got {tolerance}")
    n_tokens = len(dataset.catalog)
    if n_tokens < min_tokens:
        raise DataError(f"{kind} audit needs at least {min_tokens} tokens")
    rng = np.random.default_rng(seed)

    def cond(subset):
        return cond_term_sum(dataset, subset)

    violations = 0
    max_violation = 0.0
    for _ in range(trials):
        gap = draw(rng, cond, n_tokens) / dataset.patterns.total
        if gap > tolerance:
            violations += 1
            max_violation = max(max_violation, gap)
    return AuditReport(kind, trials, violations, max_violation, tolerance, seed)


def audit_monotonicity_reference(dataset: Dataset, trials: int, seed: Optional[int] = None) -> AuditReport:
    def draw(rng, cond, n_tokens):
        size2 = int(rng.integers(1, min(n_tokens, _AUDIT_MAX_SIZE) + 1))
        t2 = rng.permutation(n_tokens)[:size2]
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]
        return cond(t2) - cond(t1)

    return _audit("monotonicity", dataset, trials, seed, 0.0, 1, draw)


def audit_submodularity_reference(
    dataset: Dataset, trials: int, seed: Optional[int] = None, tolerance: float = 1e-9
) -> AuditReport:
    def draw(rng, cond, n_tokens):
        size2 = int(rng.integers(0, min(n_tokens - 1, _AUDIT_MAX_SIZE) + 1))
        perm = rng.permutation(n_tokens)
        t2 = tuple(int(x) for x in perm[:size2])
        e = int(perm[size2])
        size1 = int(rng.integers(0, size2 + 1))
        t1 = tuple(t2[i] for i in rng.permutation(size2)[:size1])
        gain_small = cond(t1) - cond(t1 + (e,))
        gain_large = cond(t2) - cond(t2 + (e,))
        return gain_large - gain_small

    return _audit("submodularity", dataset, trials, seed, tolerance, 2, draw)
