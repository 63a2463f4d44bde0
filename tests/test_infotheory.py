import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toksel.errors import DataError, ParameterError
from toksel.infotheory import (
    _cell_terms,
    audit_monotonicity,
    audit_submodularity,
    cell_counts,
    entropy,
    information_gain,
    pc_entropy,
)
from toksel.dataset import TokenCatalog
from toksel.synthgen import GeneratorConfig, LatentCause, generate_truth

from conftest import make_dataset, pc_to_rating


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

    def test_smoothing_changes_value(self, hand_dataset):
        plain = information_gain(hand_dataset, [0])
        smoothed = information_gain(hand_dataset, [0], alpha=1.0)
        assert smoothed != plain
        assert smoothed >= 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_smoothing_is_add_alpha_mutual_information(self, hand_dataset, alpha):
        # every one of the 2^k x 2 (token values, label) cells gets the pseudocount
        sel, pc = hand_dataset.selections, hand_dataset.pc_labels
        subset = [0, 1]
        joint = np.full((4, 2), alpha)
        for row, label in zip(sel, pc):
            joint[row[0] + 2 * row[1], label] += 1
        p = joint / joint.sum()
        px, py = p.sum(axis=1, keepdims=True), p.sum(axis=0, keepdims=True)
        expected = float(np.sum(p * np.log2(p / (px * py))))
        assert information_gain(hand_dataset, subset, alpha=alpha) == pytest.approx(expected, abs=1e-12)

    def test_negative_alpha_rejected(self, hand_dataset):
        with pytest.raises(ParameterError):
            information_gain(hand_dataset, [0], alpha=-1)


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


class TestPcEntropy:
    def test_balanced(self):
        ds = make_dataset([[0]] * 4, [1, 1, 5, 5])
        assert pc_entropy(ds) == 1.0

    def test_matches_entropy_of_rate(self):
        ds = make_dataset([[0]] * 5, [1, 5, 5, 5, 5])
        assert pc_entropy(ds) == pytest.approx(entropy(0.2), abs=1e-12)
