import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toksel import infotheory
from toksel.errors import DataError, ParameterError
from toksel.infotheory import (
    _cell_terms,
    IgEvaluator,
    _cond_term_sum,
    audit_monotonicity,
    audit_submodularity,
    cell_counts,
    entropy,
    information_gain,
    pc_entropy,
    subset_term_sums,
)
from toksel.dataset import TokenCatalog
from toksel.synthgen import GeneratorConfig, LatentCause, generate_truth

from conftest import make_dataset, pc_to_rating, proportional_split_dataset
import reference_cells
from reference_audit import audit_monotonicity_reference, audit_submodularity_reference


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(0.5) == 1.0

    def test_degenerate(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_quarter(self):
        assert entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_symmetry(self):
        assert entropy(0.3) == entropy(0.7)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            entropy(-0.1)
        with pytest.raises(ParameterError):
            entropy(1.1)


# hand dataset: 8 rated rows over 2 tokens
#   (t0, t1, rating): tallies below are counted by hand in the cell tests
HAND_ROWS = [
    (0, 0, 5),
    (0, 0, 1),
    (0, 1, 5),
    (0, 1, 5),
    (1, 0, 1),
    (1, 0, 2),
    (1, 1, 1),
    (1, 1, 4),
]


@pytest.fixture
def hand_dataset():
    return make_dataset([[r[0], r[1]] for r in HAND_ROWS], [r[2] for r in HAND_ROWS])


class TestBuildJoint:
    def test_empty_subset_is_pc_marginal(self, hand_dataset):
        assert cell_counts(hand_dataset, []).tolist() == [[4, 4]]

    def test_constant_token_single_cell(self):
        ds = make_dataset([[0], [0], [0]], [1, 5, 4])
        counts = cell_counts(ds, [0])
        assert counts.shape == (1, 2)
        assert counts.sum() == 3

    def test_hand_tally(self, hand_dataset):
        # cells in pattern order, bit0 = t0, bit1 = t1; columns (not poor, poor)
        assert cell_counts(hand_dataset, [0, 1]).tolist() == [
            [1, 1],  # 0b00
            [0, 2],  # 0b01
            [2, 0],  # 0b10
            [1, 1],  # 0b11
        ]

    def test_zero_cells_omitted(self):
        ds = make_dataset([[1, 1], [1, 1], [0, 0]], [1, 5, 4])
        assert cell_counts(ds, [0, 1]).tolist() == [[1, 0], [1, 1]]

    def test_totals_conserve_rated_count(self, hand_dataset):
        for subset in ([], [0], [1], [0, 1]):
            assert cell_counts(hand_dataset, subset).sum() == 8

    def test_unrated_rows_excluded(self):
        ds = make_dataset([[1], [1], [0]], [1, None, 5])
        assert cell_counts(ds, [0]).sum() == 2

    def test_duplicate_ids_rejected(self, hand_dataset):
        with pytest.raises(ParameterError):
            cell_counts(hand_dataset, [0, 0])

    def test_invalid_id_rejected(self, hand_dataset):
        with pytest.raises(ParameterError):
            cell_counts(hand_dataset, [7])

    def test_no_rated_records(self):
        ds = make_dataset([[1], [0]], [None, None])
        with pytest.raises(DataError):
            cell_counts(ds, [0])

    def test_subset_cap(self):
        # 21 tokens was past the old dense-table cap; pattern-table counting has none
        ds = make_dataset(np.zeros((4, 21), dtype=int), [1, 5, 4, 2])
        assert cell_counts(ds, list(range(21))).tolist() == [[2, 2]]


def reference_ig(selections, ratings, subset):
    """Plug-in IG counted row by row over the raw records, without the pattern table."""
    cells: dict[tuple, list[int]] = {}
    for row, rating in zip(selections, ratings):
        if rating is None:
            continue
        cells.setdefault(tuple(int(row[t]) for t in subset), [0, 0])[int(rating <= 2)] += 1
    n0 = np.array([c[0] for c in cells.values()], dtype=np.float64)
    n1 = np.array([c[1] for c in cells.values()], dtype=np.float64)
    base = float(_cell_terms(np.array([n0.sum()]), np.array([n1.sum()]))[0])
    terms = _cell_terms(n0, n1)
    return max(0.0, (base - math.fsum(terms[terms != 0.0])) / (n0.sum() + n1.sum()))


class TestPatternTableIg:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_row_reference(self, data):
        n_tokens = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 40))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=n_tokens, max_size=n_tokens), min_size=n, max_size=n
        ))
        ratings = data.draw(st.lists(st.sampled_from([None, 1, 2, 3, 4, 5]), min_size=n, max_size=n))
        assume(any(r is not None for r in ratings))
        subset = data.draw(st.lists(st.integers(0, n_tokens - 1), unique=True, max_size=n_tokens))
        ds = make_dataset(rows, ratings)
        assert information_gain(ds, subset) == reference_ig(rows, ratings, subset)

    def test_70_token_subset_beyond_int64_packing(self):
        rng = np.random.default_rng(70)
        prototypes = (rng.random((8, 70)) < 0.3).astype(np.uint8)
        rows = prototypes[rng.integers(0, 8, 400)] ^ (rng.random((400, 70)) < 0.01)
        # the label follows the last column, which only the third 32-token chunk sees
        ratings = [int(rng.choice([1, 5], p=[0.8, 0.2] if row[69] else [0.2, 0.8])) for row in rows]
        ds = make_dataset(rows, ratings)
        full = list(range(70))
        expected = reference_ig(rows, ratings, full)
        assert 0.0 < expected < pc_entropy(ds)
        assert information_gain(ds, full) == expected
        assert information_gain(ds, full[::-1]) == expected


class TestInformationGain:
    def test_independent_token_is_zero(self):
        # factorial layout: token and label exactly independent in counts
        ds = make_dataset([[0], [1], [0], [1]], [1, 1, 5, 5])
        assert information_gain(ds, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_predictor_equals_label_entropy(self):
        pc = [1, 1, 0, 0, 1, 0]
        ds = make_dataset([[v] for v in pc], pc_to_rating(pc))
        assert information_gain(ds, [0]) == pytest.approx(pc_entropy(ds), abs=1e-15)

    def test_balanced_hand_example(self):
        # P(pc)=0.5, P(t)=0.5, P(pc|t=1)=0.75, P(pc|t=0)=0.25
        rows = [1, 1, 1, 1, 0, 0, 0, 0]
        pc = [1, 1, 1, 0, 1, 0, 0, 0]
        ds = make_dataset([[t] for t in rows], pc_to_rating(pc))
        assert information_gain(ds, [0]) == pytest.approx(0.188722, abs=1e-6)

    @pytest.mark.parametrize("token", [0.9, 0.0, "0", None], ids=repr)
    def test_ids_that_are_not_integers_rejected(self, token):
        # int() would read each as token 0
        ds = make_dataset([[1, 0], [1, 1], [0, 0], [0, 1]], [1, 1, 5, 5])
        with pytest.raises(ParameterError):
            information_gain(ds, [token])
        with pytest.raises(ParameterError):
            IgEvaluator(ds).cond([token])

    def test_numpy_integer_ids_accepted(self):
        ds = make_dataset([[1, 0], [1, 1], [0, 0], [0, 1]], [1, 1, 5, 5])
        assert information_gain(ds, [np.int64(0)]) == 1.0
        assert IgEvaluator(ds).cond([np.int64(0), np.int32(1)]) == IgEvaluator(ds).cond([1, 0]) == 0.0

    def test_empty_subset_zero(self, ):
        ds = make_dataset([[0], [1]], [1, 5])
        assert information_gain(ds, []) == 0.0

    def test_subset_permutation_invariance_exact(self, xor_dataset):
        a = information_gain(xor_dataset, [0, 1, 2])
        b = information_gain(xor_dataset, [2, 0, 1])
        assert a == b

    def test_record_shuffle_invariance_exact(self, hand_dataset):
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(hand_dataset))
        shuffled = make_dataset(
            hand_dataset.selections[perm],
            [int(r) if r else None for r in hand_dataset.ratings[perm]],
        )
        for subset in ([0], [1], [0, 1]):
            assert information_gain(shuffled, subset) == information_gain(hand_dataset, subset)

    def test_bounded_by_label_entropy(self, hand_dataset):
        h = pc_entropy(hand_dataset)
        for subset in ([], [0], [1], [0, 1]):
            ig = information_gain(hand_dataset, subset)
            assert 0.0 <= ig <= h + 1e-15

    def test_matches_table_recomputation_exactly(self, hand_dataset):
        marginal = cell_counts(hand_dataset, [])
        base = float(_cell_terms(marginal[:, 0], marginal[:, 1])[0])
        for subset in ([0], [1], [0, 1]):
            counts = cell_counts(hand_dataset, subset)
            terms = _cell_terms(counts[:, 0], counts[:, 1])
            expected = max(0.0, (base - math.fsum(terms[terms != 0.0])) / 8)
            assert information_gain(hand_dataset, subset) == expected

    def test_constant_token_adds_nothing_exactly(self, hand_dataset):
        with_const = make_dataset(
            np.column_stack([hand_dataset.selections, np.zeros(8, dtype=int)]),
            [int(r) for r in hand_dataset.ratings],
        )
        assert information_gain(with_const, [0, 2]) == information_gain(with_const, [0])

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 2.0])
    def test_smoothing_is_add_alpha_mutual_information(self, hand_dataset, scale):
        # the plug-in IG is the add-alpha mutual information at alpha = 0: the MI of the
        # unsmoothed joint (cell, label) table of the rated records, 0*log2(0) taken as 0.
        # It depends only on the table's proportions, so any positive scale of it agrees.
        rated = hand_dataset.rated_mask
        sel, pc = hand_dataset.selections[rated], hand_dataset.pc_labels[rated]
        for subset in ([0], [1], [0, 1]):
            joint = np.zeros((2 ** len(subset), 2))
            for row, label in zip(sel, pc):
                joint[sum(row[t] << i for i, t in enumerate(subset)), label] += scale
            p = joint / joint.sum()
            px, py = p.sum(axis=1, keepdims=True), p.sum(axis=0, keepdims=True)
            ratio = np.where(p > 0, p / (px * py), 1.0)
            expected = float(np.sum(p * np.log2(ratio)))
            assert information_gain(hand_dataset, subset) == pytest.approx(expected, abs=1e-12)

def _synthetic(seed=0, n_tokens=8, n_calls=1500):
    rng = np.random.default_rng(seed)
    cause = LatentCause(
        prevalence=0.3, token_weights=rng.uniform(0.3, 0.9, n_tokens), severity=3.0
    )
    cfg = GeneratorConfig(
        n_calls=n_calls,
        catalog=TokenCatalog.numbered(n_tokens),
        latent_causes=(cause,),
        base_fire_rate=np.full(n_tokens, 0.03),
        rating_severity_slope=1.5,
        seed=seed,
    )
    return generate_truth(cfg)


class TestAuditMonotonicity:
    def test_zero_violations_on_synthetic_data(self):
        report = audit_monotonicity(_synthetic(), trials=1000, seed=11)
        assert report.violations == 0
        assert report.max_violation == 0.0

    def test_zero_violations_even_on_xor(self, xor_dataset):
        # monotonicity of plug-in estimates holds regardless of interactions
        report = audit_monotonicity(xor_dataset, trials=500, seed=2)
        assert report.violations == 0

    def test_trials_bound(self, xor_dataset):
        with pytest.raises(ParameterError):
            audit_monotonicity(xor_dataset, trials=0)

    def test_json_shape(self, xor_dataset):
        report = audit_monotonicity(xor_dataset, trials=10, seed=4)
        payload = report.to_json()
        assert set(payload) == {"trials", "violations", "max_violation", "tolerance", "seed"}
        assert payload["trials"] == 10
        assert payload["seed"] == 4


class TestAuditSubmodularity:
    def test_exactly_independent_tokens_no_violations(self):
        # full factorial over 3 tokens x label: every IG is exactly zero
        rows, ratings = [], []
        for pattern in range(8):
            bits = [(pattern >> j) & 1 for j in range(3)]
            for rating in (1, 5):
                rows.append(bits)
                ratings.append(rating)
        ds = make_dataset(rows, ratings)
        report = audit_submodularity(ds, trials=400, seed=7, tolerance=1e-9)
        assert report.violations == 0

    def test_xor_interaction_reported(self, xor_dataset):
        # adding the partner token flips a useless token into a perfect pair
        report = audit_submodularity(xor_dataset, trials=500, seed=3, tolerance=1e-9)
        assert report.violations > 0
        assert report.max_violation > 0.5  # the xor pair jumps by a full bit

    def test_direct_violating_triple(self, xor_dataset):
        base = information_gain(xor_dataset, [])
        alone = information_gain(xor_dataset, [1])
        joint = information_gain(xor_dataset, [0, 1])
        given_t0 = information_gain(xor_dataset, [0])
        assert (alone - base) < (joint - given_t0)

    def test_tolerance_validation(self, xor_dataset):
        with pytest.raises(ParameterError):
            audit_submodularity(xor_dataset, trials=5, tolerance=-1e-3)

    def test_violation_fraction(self, xor_dataset):
        report = audit_submodularity(xor_dataset, trials=200, seed=3)
        assert report.violation_fraction == report.violations / 200


def _interacting_dataset():
    """Label tracks t0 XOR t1 (3:5 odds either way); t2..t4 split every cell in fixed
    proportions, so their true gains are 0 and rounding alone decides monotonicity gaps."""
    rows, ratings = [], []
    for bits in itertools.product([0, 1], repeat=5):
        weight = 1 + bits[2] + 2 * bits[3] + 4 * bits[4]
        not_poor, poor = (3, 5) if bits[0] ^ bits[1] else (5, 3)
        rows += [list(bits)] * (weight * (not_poor + poor))
        ratings += [5] * (weight * not_poor) + [1] * (weight * poor)
    return make_dataset(rows, ratings)


def _count(gaps, tolerance):
    over = [g for g in gaps if g > tolerance]
    return len(over), max(over, default=0.0)


def _replayed_monotonicity(ds, trials, seed):
    rng = np.random.default_rng(seed)
    n, total = len(ds.catalog), ds.patterns.total
    gaps = []
    for _ in range(trials):
        size2 = int(rng.integers(1, min(n, 10) + 1))
        t2 = rng.permutation(n)[:size2]
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]
        gaps.append((_cond_term_sum(ds, sorted(t2)) - _cond_term_sum(ds, sorted(t1))) / total)
    return _count(gaps, 0.0)


def _replayed_submodularity(ds, trials, seed, tolerance):
    rng = np.random.default_rng(seed)
    n, total = len(ds.catalog), ds.patterns.total

    def cond(*parts):
        return _cond_term_sum(ds, sorted(int(t) for part in parts for t in part))

    gaps = []
    for _ in range(trials):
        size2 = int(rng.integers(0, min(n - 1, 10) + 1))
        perm = rng.permutation(n)
        t2, e = perm[:size2], [perm[size2]]
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]
        gaps.append(((cond(t2) - cond(t2, e)) - (cond(t1) - cond(t1, e))) / total)
    return _count(gaps, tolerance)


@pytest.mark.parametrize("seed", range(6))
def test_audits_follow_their_documented_draws(seed):
    """Each trial draws integers, permutation, integers, permutation, in that order.

    The replay recomputes every gap from _cond_term_sum with its own generator; the
    monotonicity gaps here come from rounding only, so they too depend on the draws.
    """
    ds = _interacting_dataset()
    mono = audit_monotonicity(ds, trials=60, seed=seed)
    assert (mono.violations, mono.max_violation) == _replayed_monotonicity(ds, 60, seed)
    sub = audit_submodularity(ds, trials=60, seed=seed, tolerance=1e-9)
    assert (sub.violations, sub.max_violation) == _replayed_submodularity(ds, 60, seed, 1e-9)


@pytest.mark.xfail(strict=True, reason="per-cell terms are rounded before fsum (ROADMAP item 5)")
def test_proportional_split_is_monotone():
    ds = proportional_split_dataset()
    assert _cond_term_sum(ds, (0,)) <= _cond_term_sum(ds, ())
    assert audit_monotonicity(ds, trials=200, seed=0).violations == 0


class TestPcEntropy:
    def test_balanced(self):
        ds = make_dataset([[0]] * 4, [1, 1, 5, 5])
        assert pc_entropy(ds) == 1.0

    def test_matches_entropy_of_rate(self):
        ds = make_dataset([[0]] * 5, [1, 5, 5, 5, 5])
        assert pc_entropy(ds) == pytest.approx(entropy(0.2), abs=1e-12)


@st.composite
def small_table_dataset(draw, max_tokens=40):
    """Up to 40 records over up to `max_tokens` tokens, each row a noisy copy of one of
    a few prototypes, so that rows repeat, and at least one record rated."""
    n_tokens = draw(st.integers(1, max_tokens))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    prototypes = rng.random((draw(st.integers(1, 5)), n_tokens)) < rng.random()
    rows = prototypes[rng.integers(0, len(prototypes), n)] ^ (rng.random((n, n_tokens)) < 0.05)
    ratings = [None if r == 0 else int(r) for r in rng.integers(0, 6, n)]
    ratings[0] = draw(st.integers(1, 5))
    return make_dataset(rows.astype(np.uint8), ratings)


class TestSubsetTermSums:
    """Equal-size subsets scored as one batch, against the per-subset reference sum one subset at a time."""

    @given(dataset=small_table_dataset(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_one_subset_at_a_time(self, dataset, data):
        n_tokens = len(dataset.catalog)
        size = data.draw(st.integers(0, n_tokens))
        subset = st.lists(st.integers(0, n_tokens - 1), unique=True, min_size=size, max_size=size)
        subsets = data.draw(st.lists(subset, min_size=1, max_size=6))
        got = subset_term_sums(dataset.patterns, subsets)
        assert [v.hex() for v in got] == [reference_cells.cond_term_sum(dataset, s).hex() for s in subsets]

    def test_compaction_on_a_table_shorter_than_its_cells(self):
        # 12 tokens over 9 distinct rows: the keys are renumbered several times per subset
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, (9, 12))
        ds = make_dataset(np.repeat(rows, 3, axis=0), [1, 5, 2] * 9)
        assert len(ds.patterns.rows) < 2**12
        subsets = [list(range(12)), list(range(11, -1, -1)), [0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11]]
        got = subset_term_sums(ds.patterns, subsets)
        assert [v.hex() for v in got] == [reference_cells.cond_term_sum(ds, s).hex() for s in subsets]

    def test_empty_subsets_and_no_subsets(self, hand_dataset):
        table = hand_dataset.patterns
        assert subset_term_sums(table, [(), ()]) == [reference_cells.cond_term_sum(hand_dataset, ())] * 2
        assert subset_term_sums(table, []) == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("trials", [1, 37, 200])
def test_audits_equal_the_per_trial_loop(seed, trials):
    ds = _synthetic(seed, n_tokens=12, n_calls=800)
    assert audit_monotonicity(ds, trials, seed) == audit_monotonicity_reference(ds, trials, seed)
    assert audit_submodularity(ds, trials, seed) == audit_submodularity_reference(ds, trials, seed)


@given(dataset=small_table_dataset(max_tokens=14), seed=st.integers(0, 2**16), batch_keys=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_audits_equal_the_per_trial_loop_in_any_batches(dataset, seed, batch_keys):
    # batches of a few subsets each, down to one, give the same reports
    old = infotheory._BATCH_KEYS
    infotheory._BATCH_KEYS = batch_keys
    try:
        assert audit_monotonicity(dataset, 30, seed) == audit_monotonicity_reference(dataset, 30, seed)
        if len(dataset.catalog) >= 2:
            got = audit_submodularity(dataset, 30, seed, tolerance=0.0)
            assert got == audit_submodularity_reference(dataset, 30, seed, tolerance=0.0)
    finally:
        infotheory._BATCH_KEYS = old


def test_audit_on_interacting_and_proportional_data_equals_the_per_trial_loop():
    # gaps that rounding alone decides must come out of both bit for bit
    for ds in (_interacting_dataset(), proportional_split_dataset()):
        for seed in range(3):
            assert audit_monotonicity(ds, 200, seed) == audit_monotonicity_reference(ds, 200, seed)
            assert audit_submodularity(ds, 200, seed, 0.0) == audit_submodularity_reference(ds, 200, seed, 0.0)


@pytest.mark.parametrize("chunk, kept", [(1, None), (7, None), (1000, None), (7, 0)])
def test_audits_give_the_same_reports_in_any_chunks(chunk, kept, monkeypatch):
    # chunks of one trial, of a few, and one for every trial, which keep the scored subsets
    # (none is scored twice), or chunks that drop them all after each one
    monkeypatch.setattr(infotheory, "_AUDIT_CHUNK_TRIALS", chunk)
    if kept is not None:
        monkeypatch.setattr(infotheory, "_AUDIT_KEPT_SUBSETS", kept)
    scored = []

    def spy(table, subsets):
        scored.extend(subsets)
        return subset_term_sums(table, subsets)

    monkeypatch.setattr(infotheory, "subset_term_sums", spy)
    for ds in (_interacting_dataset(), _synthetic(seed=3, n_tokens=12, n_calls=600)):
        for audit, reference, args in (
            (audit_monotonicity, audit_monotonicity_reference, (300, 5)),
            (audit_submodularity, audit_submodularity_reference, (300, 5, 0.0)),
        ):
            assert audit(ds, *args) == reference(ds, *args)
            assert kept == 0 or len(scored) == len(set(scored))
            scored.clear()


def test_audit_memory_does_not_grow_with_trials(monkeypatch):
    # 30 tokens: drawn subsets seldom repeat, so only dropping them bounds the scored ones
    monkeypatch.setattr(infotheory, "_AUDIT_CHUNK_TRIALS", 200)
    monkeypatch.setattr(infotheory, "_AUDIT_KEPT_SUBSETS", 500)
    ds = _synthetic(seed=1, n_tokens=30, n_calls=300)
    ds.patterns
    peaks = []
    for trials in (1000, 8000):
        tracemalloc.start()
        audit_submodularity(ds, trials, 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the kept subsets peak a little higher over more chunks; keeping them all reads 3x
    assert peaks[1] < 2 * peaks[0]
