import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toksel.errors import DataError, ParameterError, UndefinedStatisticError
from toksel.evaluation import (
    _split_counts,
    _table_split_aucs,
    ForestScorer,
    SplitPlan,
    TableScorer,
    auc,
    evaluate_subsets,
    forest_scorer_fit,
    jaccard,
    jaccard_set,
    report_to_json_text,
    table_scorer_fit,
)
from toksel.selection import select_auc_greedy, select_rits
from toksel.synthgen import GeneratorConfig, LatentCause, generate_truth
from toksel.dataset import TokenCatalog

from conftest import make_dataset, pc_to_rating


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_spec_example(self):
        assert auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == 0.75

    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_pair_count(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(int)
        assert auc(scores, labels) + auc(-scores, labels) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(np.exp(3 * scores), labels) == auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            auc([0.1, 0.2], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            auc([0.1, 0.2], [1, 0, 1])
        with pytest.raises(ParameterError):
            auc([0.1, 0.2], [1, 0], weights=[1])

    def test_weights_equal_repeated_entries(self):
        rng = np.random.default_rng(7)
        scores = rng.choice([0.1, 0.4, 0.7], size=12)
        labels = np.arange(12) % 2
        weights = rng.integers(0, 4, size=12)
        repeated = auc(np.repeat(scores, weights), np.repeat(labels, weights))
        assert auc(scores, labels, weights) == repeated


class TestJaccard:
    def test_identical_nonzero(self):
        assert jaccard([1, 0, 1], [1, 0, 1]) == 1.0

    def test_disjoint(self):
        assert jaccard([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_spec_example(self):
        assert jaccard([1, 1, 0, 1], [1, 0, 0, 1]) == 2 / 3

    def test_both_empty(self):
        assert jaccard([0, 0], [0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            jaccard([1], [1, 0])

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a_bits, b_bits):
        a = [(a_bits >> i) & 1 for i in range(8)]
        b = [(b_bits >> i) & 1 for i in range(8)]
        assert jaccard(a, b) == jaccard(b, a)

    def test_exhaustive_against_set_computation(self):
        # every pair of 8-bit columns (covers all 4-bit pairs as a subset)
        for a_bits, b_bits in itertools.product(range(256), repeat=2):
            a = [(a_bits >> i) & 1 for i in range(8)]
            b = [(b_bits >> i) & 1 for i in range(8)]
            sa = {i for i, v in enumerate(a) if v}
            sb = {i for i, v in enumerate(b) if v}
            expected = len(sa & sb) / len(sa | sb) if sa | sb else 0.0
            assert jaccard(a, b) == expected


class TestJaccardSet:
    def test_singleton_zero(self):
        ds = make_dataset([[1], [0]], [1, 5])
        assert jaccard_set(ds, [0]) == 0.0
        assert jaccard_set(ds, []) == 0.0

    def test_identical_pair_is_one(self):
        ds = make_dataset([[1, 1], [0, 0], [1, 1]], [1, 5, 4])
        assert jaccard_set(ds, [0, 1]) == 1.0

    def test_hand_mean_of_three(self):
        # pairwise similarities 1/2, 1/3, 1/4 -> mean 13/36
        cols = (0b00000001, 0b00000011, 0b00001101)
        sel = [[(c >> row) & 1 for c in cols] for row in range(8)]
        ds = make_dataset(sel, [5] * 8)
        assert jaccard_set(ds, [0, 1, 2]) == pytest.approx(13 / 36, abs=1e-12)
        assert jaccard_set(ds, [0, 1, 2]) == pytest.approx(0.361111, abs=1e-6)

    def test_uses_all_records_not_only_rated(self):
        ds = make_dataset([[1, 1], [1, 0]], [1, None])
        assert jaccard_set(ds, [0, 1]) == 0.5

    def test_invalid_ids(self):
        ds = make_dataset([[1]], [1])
        with pytest.raises(ParameterError):
            jaccard_set(ds, [2])


class TestSplitPlan:
    def test_partition_covers_each_record_once(self):
        plan = SplitPlan(splits=5, train_fraction=0.7, master_seed=3)
        for train, test, _ in plan.partitions(100):
            assert sorted(np.concatenate([train, test])) == list(range(100))
            assert len(train) == 70

    def test_deterministic(self):
        a = SplitPlan(splits=3, master_seed=1).partitions(50)
        b = SplitPlan(splits=3, master_seed=1).partitions(50)
        for (t1, s1, _), (t2, s2, _) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(s1, s2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SplitPlan(splits=0)
        with pytest.raises(ParameterError):
            SplitPlan(splits=3, train_fraction=1.0)
        with pytest.raises(DataError):
            SplitPlan(splits=2).partitions(1)
        with pytest.raises(ParameterError, match="seed"):
            SplitPlan(splits=2, master_seed=None)

    def test_tiny_n_keeps_both_sides_nonempty(self):
        for train, test, _ in SplitPlan(splits=4, train_fraction=0.9, master_seed=0).partitions(3):
            assert len(train) >= 1 and len(test) >= 1


class TestTableScorer:
    def test_hand_smoothing_arithmetic(self):
        # one observed cell with 3 of 4 poor: (3+1)/(4+2)
        sel = [[1], [1], [1], [1], [0], [0]]
        ratings = [1, 1, 1, 5, 5, 5]
        ds = make_dataset(sel, ratings)
        scorer = table_scorer_fit(ds, [0], alpha=1.0)
        assert scorer.predict(np.array([[1]]))[0] == pytest.approx((3 + 1) / (4 + 2))

    def test_unseen_pattern_backs_off_to_prior(self):
        sel = [[1, 1], [1, 1], [0, 0], [0, 0]]
        ds = make_dataset(sel, [1, 1, 5, 5])
        scorer = table_scorer_fit(ds, [0, 1], alpha=1.0)
        prior = (2 + 1) / (4 + 2)
        assert scorer.predict(np.array([[1, 0]]))[0] == pytest.approx(prior)
        assert scorer.prior_ == pytest.approx(prior)

    def test_empty_subset_scores_prior_everywhere(self):
        ds = make_dataset([[1], [0], [1], [0]], [1, 5, 2, 4])
        scorer = table_scorer_fit(ds, [], alpha=1.0)
        scores = scorer.predict(np.array([[1], [0]]))
        assert np.all(scores == scores[0])

    def test_alpha_zero_gives_raw_frequencies(self):
        sel = [[1], [1], [0], [0]]
        ds = make_dataset(sel, [1, 5, 5, 5])
        scorer = table_scorer_fit(ds, [0], alpha=0.0)
        assert scorer.predict(np.array([[1]]))[0] == 0.5
        assert scorer.predict(np.array([[0]]))[0] == 0.0

    def test_single_class_training_rejected(self):
        ds = make_dataset([[1], [0]], [1, 2])
        with pytest.raises(DataError):
            table_scorer_fit(ds, [0])

    def test_subset_order_irrelevant(self):
        rng = np.random.default_rng(4)
        sel = (rng.random((50, 3)) < 0.4).astype(int)
        pc = (rng.random(50) < 0.5).astype(int)
        ds = make_dataset(sel, pc_to_rating(pc))
        s1 = table_scorer_fit(ds, [0, 2, 1])
        s2 = table_scorer_fit(ds, [1, 2, 0])
        probe = (rng.random((20, 3)) < 0.5).astype(int)
        assert np.array_equal(s1.predict(probe), s2.predict(probe))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_split_aucs_equal_row_scorer(data):
    """Split AUCs from pattern counts equal TableScorer fitted and scored row by row."""
    n_tokens = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(4, 60))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n_tokens, max_size=n_tokens), min_size=n, max_size=n
    ))
    ratings = data.draw(st.lists(st.sampled_from([None, 1, 2, 4, 5]), min_size=n, max_size=n))
    subset = tuple(sorted(data.draw(
        st.lists(st.integers(0, n_tokens - 1), unique=True, max_size=n_tokens)
    )))
    alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    ds = make_dataset(rows, ratings)
    X, y = ds.rated_selections, ds.rated_pc
    assume(y.size >= 2)
    partitions = SplitPlan(splits=4, master_seed=data.draw(st.integers(0, 99))).partitions(y.size)

    expected = []
    for train, test, _ in partitions:
        try:
            scorer = TableScorer(subset, alpha=alpha).fit(X[train], y[train])
            expected.append(auc(scorer.predict(X[test]), y[test]))
        except DataError as exc:
            expected.append(type(exc))
            break
    split_counts = _split_counts(ds.patterns, y, partitions)
    if isinstance(expected[-1], type):
        with pytest.raises(expected[-1]):
            _table_split_aucs(ds.patterns, subset, split_counts, alpha)
    else:
        assert _table_split_aucs(ds.patterns, subset, split_counts, alpha).tolist() == expected


class TestForestScorer:
    def _separable(self, n=200, seed=1):
        rng = np.random.default_rng(seed)
        pc = (rng.random(n) < 0.5).astype(int)
        noise = (rng.random(n) < 0.3).astype(int)
        ds = make_dataset(np.column_stack([pc, noise]), pc_to_rating(pc))
        return ds, pc

    @pytest.mark.parametrize("trees", [1, 100])
    def test_perfect_token_gives_auc_one(self, trees):
        ds, pc = self._separable()
        scorer = forest_scorer_fit(ds, [0], trees=trees, seed=3)
        assert auc(scorer.score_dataset(ds), ds.rated_pc) == 1.0

    def test_deterministic_given_seed(self):
        ds, _ = self._separable(seed=9)
        a = forest_scorer_fit(ds, [0, 1], trees=20, seed=5).score_dataset(ds)
        b = forest_scorer_fit(ds, [0, 1], trees=20, seed=5).score_dataset(ds)
        assert np.array_equal(a, b)

    def test_seed_changes_ensemble(self):
        rng = np.random.default_rng(9)
        n = 150
        pc = (rng.random(n) < 0.5).astype(int)
        sel = (rng.random((n, 4)) < (0.2 + 0.4 * pc[:, None])).astype(int)
        ds = make_dataset(sel, pc_to_rating(pc))
        a = forest_scorer_fit(ds, [0, 1, 2, 3], trees=5, seed=5).score_dataset(ds)
        b = forest_scorer_fit(ds, [0, 1, 2, 3], trees=5, seed=6).score_dataset(ds)
        assert not np.array_equal(a, b)

    def test_close_to_table_scorer_on_synthetic_data(self):
        rng = np.random.default_rng(42)
        weights = rng.uniform(0.3, 0.9, size=6)
        cfg = GeneratorConfig(
            n_calls=1000,
            catalog=TokenCatalog.numbered(6),
            latent_causes=(LatentCause(0.3, weights, 2.0),),
            base_fire_rate=np.full(6, 0.03),
            rating_severity_slope=1.5,
            seed=7,
        )
        ds = generate_truth(cfg)
        X, y = ds.rated_selections, ds.rated_pc
        train, test = np.arange(700), np.arange(700, 1000)
        subset = (0, 1, 2, 3, 4, 5)
        table_auc = auc(TableScorer(subset).fit(X[train], y[train]).predict(X[test]), y[test])
        forest_auc = auc(
            ForestScorer(subset, trees=100, seed=11).fit(X[train], y[train]).predict(X[test]),
            y[test],
        )
        assert abs(table_auc - forest_auc) <= 0.02

    def test_trees_bound(self):
        with pytest.raises(ParameterError):
            ForestScorer([0], trees=0)


class TestEvaluateSubsets:
    @pytest.fixture
    def small(self):
        rng = np.random.default_rng(15)
        n = 600
        pc = rng.random(n) < 0.35
        t0 = np.where(pc, rng.random(n) < 0.7, rng.random(n) < 0.1)
        t1 = t0.copy()  # exact duplicate
        t2 = np.where(pc, rng.random(n) < 0.5, rng.random(n) < 0.2)
        t3 = (rng.random(n) < 0.25).astype(bool)
        sel = np.column_stack([t0, t1, t2, t3]).astype(np.uint8)
        return make_dataset(sel, pc_to_rating(pc))

    def test_full_catalog_auc_identical_across_strategies(self, small):
        plan = SplitPlan(splits=8, master_seed=21)
        rits = select_rits(small, 4)
        aucg = select_auc_greedy(small, 4, splits=5, seed=2)
        reports = evaluate_subsets(small, [rits, aucg], plan)
        assert reports[0].per_k[-1].auc_mean == reports[1].per_k[-1].auc_mean
        assert reports[0].per_k[-1].auc_std == reports[1].per_k[-1].auc_std

    def test_duplicate_dataset_js_ordering_at_k2(self, small):
        plan = SplitPlan(splits=5, master_seed=4)
        rits = select_rits(small, 2)
        aucg = select_auc_greedy(small, 2, splits=5, seed=9)
        reports = {r.strategy: r for r in evaluate_subsets(small, [rits, aucg], plan)}
        # univariate ranking puts the duplicate pair first; greedy avoids it
        assert set(aucg.token_ids) == {0, 1}
        assert reports["auc_greedy"].per_k[1].js_mean == 1.0
        assert reports["rits"].per_k[1].js_mean < 1.0

    def test_same_master_seed_byte_identical_reports(self, small):
        rits = select_rits(small, 3)
        r1 = evaluate_subsets(small, [rits], SplitPlan(splits=6, master_seed=77))
        r2 = evaluate_subsets(small, [rits], SplitPlan(splits=6, master_seed=77))
        assert report_to_json_text(r1[0]) == report_to_json_text(r2[0])

    def test_js_split_independent(self, small):
        rits = select_rits(small, 3)
        report = evaluate_subsets(small, [rits], SplitPlan(splits=4, master_seed=5))[0]
        for entry in report.per_k:
            assert entry.js_std == 0.0
            assert entry.js_mean == jaccard_set(small, rits.token_ids[: entry.k])

    def test_single_split_has_zero_std(self, small):
        rits = select_rits(small, 2)
        report = evaluate_subsets(small, [rits], SplitPlan(splits=1, master_seed=5))[0]
        assert all(e.auc_std == 0.0 for e in report.per_k)

    def test_empty_traces_rejected(self, small):
        with pytest.raises(ParameterError):
            evaluate_subsets(small, [], SplitPlan(splits=2, master_seed=1))

    def test_csv_shape(self, small):
        rits = select_rits(small, 3)
        report = evaluate_subsets(small, [rits], SplitPlan(splits=3, master_seed=2))[0]
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "strategy,k,auc_mean,auc_std,js_mean,js_std"
        assert len(lines) == 4
        assert all(line.startswith("rits,") for line in lines[1:])

    def test_forest_scorer_kind(self, small):
        rits = select_rits(small, 2)
        report = evaluate_subsets(
            small, [rits], SplitPlan(splits=2, master_seed=3), scorer_kind="forest", trees=10
        )[0]
        assert 0.5 <= report.per_k[0].auc_mean <= 1.0

    def test_unknown_scorer_kind(self, small):
        rits = select_rits(small, 2)
        with pytest.raises(ParameterError):
            evaluate_subsets(small, [rits], SplitPlan(splits=2, master_seed=3), scorer_kind="svm")
