import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toksel.errors import DataError, ParameterError, UndefinedStatisticError
from toksel.evaluation import (
    _split_aucs,
    ForestScorer,
    SplitPlan,
    auc,
    evaluate_subsets,
    jaccard,
    jaccard_set,
    report_to_json_text,
)
from toksel.infotheory import cell_counts, information_gain
from toksel.selection import select_auc_greedy, select_rits
from toksel.synthgen import (
    GeneratorConfig,
    LatentCause,
    demo_experiment_config,
    generate_truth,
    generator_from_config,
)
from toksel.dataset import TokenCatalog

from conftest import make_dataset, pc_to_rating, rated_records
import reference_forest
from reference_table import TableScorer


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
        # numpy's SeedSequence refuses most of these, later and with its own error; it takes
        # None for fresh entropy and True for 1
        for seed in (None, -1, 1.5, 2.0, "3", True):
            with pytest.raises(ParameterError, match="seed"):
                SplitPlan(splits=2, master_seed=seed)
        assert SplitPlan(splits=2, master_seed=np.int64(5)).master_seed == 5

    def test_tiny_n_keeps_both_sides_nonempty(self):
        for train, test, _ in SplitPlan(splits=4, train_fraction=0.9, master_seed=0).partitions(3):
            assert len(train) >= 1 and len(test) >= 1


class TestTableScorer:
    def test_hand_smoothing_arithmetic(self):
        # one observed cell with 3 of 4 poor: (3+1)/(4+2)
        sel = [[1], [1], [1], [1], [0], [0]]
        ratings = [1, 1, 1, 5, 5, 5]
        ds = make_dataset(sel, ratings)
        scorer = TableScorer([0]).fit(*rated_records(ds))
        assert scorer.predict(np.array([[1]]))[0] == pytest.approx((3 + 1) / (4 + 2))

    def test_unseen_pattern_backs_off_to_prior(self):
        sel = [[1, 1], [1, 1], [0, 0], [0, 0]]
        ds = make_dataset(sel, [1, 1, 5, 5])
        scorer = TableScorer([0, 1]).fit(*rated_records(ds))
        prior = (2 + 1) / (4 + 2)
        assert scorer.predict(np.array([[1, 0]]))[0] == pytest.approx(prior)
        assert scorer.prior_ == pytest.approx(prior)

    def test_empty_subset_scores_prior_everywhere(self):
        ds = make_dataset([[1], [0], [1], [0]], [1, 5, 2, 4])
        scorer = TableScorer([]).fit(*rated_records(ds))
        scores = scorer.predict(np.array([[1], [0]]))
        assert np.all(scores == scores[0])

    def test_single_class_training_rejected(self):
        ds = make_dataset([[1], [0]], [1, 2])
        with pytest.raises(DataError):
            TableScorer([0]).fit(*rated_records(ds))

    @pytest.mark.parametrize("scorer", [TableScorer, ForestScorer])
    def test_ids_that_are_not_integers_rejected(self, scorer):
        # int() would read 0.5 as token 0
        with pytest.raises(ParameterError):
            scorer([0.5])
        assert scorer([np.int64(1), 0]).subset == (0, 1)

    def test_subset_order_irrelevant(self):
        rng = np.random.default_rng(4)
        sel = (rng.random((50, 3)) < 0.4).astype(int)
        pc = (rng.random(50) < 0.5).astype(int)
        ds = make_dataset(sel, pc_to_rating(pc))
        s1 = TableScorer([0, 2, 1]).fit(*rated_records(ds))
        s2 = TableScorer([1, 2, 0]).fit(*rated_records(ds))
        probe = (rng.random((20, 3)) < 0.5).astype(int)
        assert np.array_equal(s1.predict(probe), s2.predict(probe))


def _outcome(fn):
    try:
        return fn()
    except (DataError, UndefinedStatisticError) as exc:
        return type(exc)


def _sorted_subsets(n_tokens):
    return st.lists(st.integers(0, n_tokens - 1), unique=True, max_size=n_tokens).map(
        lambda s: tuple(sorted(s))
    )


def _assert_split_aucs(ds, subsets, plan, row_auc, *args, **kwargs):
    """`_split_aucs` of all the subsets in one call gives, for each subset, the AUC that
    `row_auc(subset, train, test, scorer_seed)` gives on each split, or raises its first error."""
    expected = [[] for _ in subsets]
    try:
        for split in plan.partitions(int(ds.rated_mask.sum())):
            for aucs, subset in zip(expected, subsets):
                aucs.append(row_auc(subset, *split))
    except DataError as exc:
        with pytest.raises(type(exc)):
            _split_aucs(ds, subsets, plan, *args, **kwargs)
    else:
        assert _split_aucs(ds, subsets, plan, *args, **kwargs).tolist() == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_split_aucs_equal_row_scorer(data):
    """Split AUCs from pattern counts, for 1-3 subsets scored in one call, equal
    TableScorer fitted and scored row by row for each subset."""
    n_tokens = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(4, 60))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n_tokens, max_size=n_tokens), min_size=n, max_size=n
    ))
    ratings = data.draw(st.lists(st.sampled_from([None, 1, 2, 4, 5]), min_size=n, max_size=n))
    subsets = data.draw(st.lists(_sorted_subsets(n_tokens), min_size=1, max_size=3))
    ds = make_dataset(rows, ratings)
    X, y = rated_records(ds)
    assume(y.size >= 2)
    plan = SplitPlan(splits=4, master_seed=data.draw(st.integers(0, 99)))

    def row_auc(subset, train, test, _):
        scorer = TableScorer(subset).fit(X[train], y[train])
        return auc(scorer.predict(X[test]), y[test])

    _assert_split_aucs(ds, subsets, plan, row_auc, "table")


@st.composite
def forest_data(draw):
    """Rated rows with duplicate and constant columns mixed in, and 1-3 subsets of them."""
    n = draw(st.integers(4, 80))
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "copy", "constant"]) if columns else st.just("random"))
        if kind == "copy":
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append([draw(st.integers(0, 1))] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    ratings = draw(st.lists(st.sampled_from([None, 1, 2, 4, 5]), min_size=n, max_size=n))
    ds = make_dataset(np.array(columns).T, ratings)
    subsets = draw(st.lists(_sorted_subsets(len(columns)), min_size=1, max_size=3))
    return ds, subsets


@given(forest_data(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_forest_equals_record_forest(data, trees, seed):
    """The weighted-row forest grows the record-by-record forest's trees, bit for bit,
    whether fitted on the records or on the pattern rows and each record's row among
    them, and its split AUCs for 1-3 subsets scored in one call equal the record forest's."""
    ds, subsets = data
    X, y = rated_records(ds)
    assume(y.size >= 2)
    probe = np.array(list(itertools.product([0, 1], repeat=X.shape[1])))
    table = ds.patterns

    def fitted(cls, subset, *data):
        return _outcome(lambda: cls(subset, trees=trees, seed=seed).fit(*data))

    for subset in subsets:
        ref = fitted(reference_forest.ForestScorer, subset, X, y)
        keyed = fitted(ForestScorer, subset, table.rows, table.key_of_record & 1, table.key_of_record >> 1)
        for new in (fitted(ForestScorer, subset, X, y), keyed):
            if isinstance(ref, type):
                assert new is ref
            else:
                assert new._roots == ref._roots
                for rows in (X, probe):
                    assert new.predict(rows).tobytes() == ref.predict(rows).tobytes()

    def record_auc(subset, train, test, scorer_seed):
        scorer = reference_forest.ForestScorer(subset, trees=trees, seed=scorer_seed)
        return auc(scorer.fit(X[train], y[train]).predict(X[test]), y[test])

    plan = SplitPlan(splits=3, master_seed=seed)
    _assert_split_aucs(ds, subsets, plan, record_auc, "forest", trees=trees)


def _depth(node):
    return 0 if isinstance(node, float) else 1 + max(_depth(node[1]), _depth(node[2]))


@pytest.mark.parametrize("subset", [tuple(range(15)), (0, 2, 3, 5, 8, 9, 12, 14)], ids=["k15", "k8"])
def test_forest_equals_record_forest_at_catalog_width(subset):
    """Demo calls at full catalog width: sqrt(15) rounds to 4 candidates per node and
    the trees grow deeper than 7, which the small property cases never reach."""
    cfg = demo_experiment_config()
    cfg["n_calls"] = 4000
    ds = generate_truth(generator_from_config(cfg))
    X, y = rated_records(ds)
    train, test, scorer_seed = next(SplitPlan(splits=1, master_seed=5).partitions(y.size))
    new = ForestScorer(subset, trees=3, seed=scorer_seed).fit(X[train], y[train])
    ref = reference_forest.ForestScorer(subset, trees=3, seed=scorer_seed).fit(X[train], y[train])
    table = ds.patterns
    keyed = ForestScorer(subset, trees=3, seed=scorer_seed).fit(table.rows, y[train], table.key_of_record[train] >> 1)
    assert new._roots == ref._roots == keyed._roots
    assert max(_depth(root) for root in new._roots) > 7
    probe = np.random.default_rng(5).integers(0, 2, size=(2000, X.shape[1]), dtype=np.uint8)
    for rows in (X[test], probe):
        assert new.predict(rows).tobytes() == ref.predict(rows).tobytes()


def _predict_on_fewer_columns(scorer):
    """Fit on the dataset plus one column, so that the `n_tokens` subset fits, then predict on the dataset."""

    def use(ds, subset):
        X, y = rated_records(ds)
        return scorer(subset).fit(np.hstack([X, X[:, :1]]), y).predict(X)

    return use


SUBSET_USERS = {
    "information_gain": information_gain,
    "cell_counts": cell_counts,
    "jaccard_set": jaccard_set,
    "TableScorer.fit": lambda ds, s: TableScorer(s).fit(*rated_records(ds)),
    "ForestScorer.fit": lambda ds, s: ForestScorer(s, trees=2, seed=0).fit(*rated_records(ds)),
    "TableScorer.predict": _predict_on_fewer_columns(TableScorer),
    "ForestScorer.predict": _predict_on_fewer_columns(lambda s: ForestScorer(s, trees=2, seed=0)),
}


@pytest.mark.parametrize("subset", [[1, 1], [-1], [3]], ids=["duplicate", "minus_one", "n_tokens"])
@pytest.mark.parametrize("user", sorted(SUBSET_USERS))
def test_invalid_subset_is_a_parameter_error(user, subset):
    ds = make_dataset([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 5, 2, 4])
    with pytest.raises(ParameterError):
        SUBSET_USERS[user](ds, subset)


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
        X, y = rated_records(ds)
        scorer = ForestScorer([0], trees=trees, seed=3).fit(X, y)
        assert auc(scorer.predict(X), y) == 1.0

    def test_deterministic_given_seed(self):
        ds, _ = self._separable(seed=9)
        X, y = rated_records(ds)
        a = ForestScorer([0, 1], trees=20, seed=5).fit(X, y).predict(X)
        b = ForestScorer([0, 1], trees=20, seed=5).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_seed_changes_ensemble(self):
        rng = np.random.default_rng(9)
        n = 150
        pc = (rng.random(n) < 0.5).astype(int)
        sel = (rng.random((n, 4)) < (0.2 + 0.4 * pc[:, None])).astype(int)
        ds = make_dataset(sel, pc_to_rating(pc))
        X, y = rated_records(ds)
        a = ForestScorer([0, 1, 2, 3], trees=5, seed=5).fit(X, y).predict(X)
        b = ForestScorer([0, 1, 2, 3], trees=5, seed=6).fit(X, y).predict(X)
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
        X, y = rated_records(ds)
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


def test_memory_does_not_grow_with_splits():
    """Each split is drawn, scored and dropped before the next: 40 splits peak like 4."""
    rng = np.random.default_rng(8)
    n = 20_000
    pc = rng.random(n) < 0.3
    sel = (rng.random((n, 6)) < np.where(pc[:, None], 0.5, 0.2)).astype(np.uint8)
    ds = make_dataset(sel, pc_to_rating(pc))
    trace = select_rits(ds, 6)
    evaluate_subsets(ds, [trace], SplitPlan(splits=2, master_seed=0))  # fills the dataset's caches

    def peak(splits):
        tracemalloc.start()
        try:
            evaluate_subsets(ds, [trace], SplitPlan(splits=splits, master_seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_split = n * np.dtype(np.int64).itemsize  # a split's train and test indices
    assert peak(40) - peak(4) < one_split * 36 / 8
