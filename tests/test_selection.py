import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toksel import selection
from toksel.dataset import TokenCatalog, refine_cells
from toksel.errors import CapacityError, ParameterError
from toksel.evaluation import SplitPlan, auc
from toksel.infotheory import (
    IgEvaluator,
    _cond_term_sum,
    extension_term_sums,
    information_gain,
)
from toksel.selection import (
    select_auc_greedy,
    select_exhaustive,
    select_random,
    select_rits,
)
from toksel.synthgen import (
    GeneratorConfig,
    LatentCause,
    apply_presentation,
    demo_experiment_config,
    experiment_from_config,
    generate_truth,
)

from conftest import make_dataset, pc_to_rating, proportional_split_dataset
from reference_selection import exhaustive_reference, greedy_reference
from reference_table import TableScorer


def synthetic(seed, n_tokens=8, n_calls=1500, prevalence=0.3):
    rng = np.random.default_rng(seed)
    cause = LatentCause(
        prevalence=prevalence, token_weights=rng.uniform(0.3, 0.9, n_tokens), severity=3.0
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


def brute_force_greedy(dataset, k):
    """Independent re-derivation of the greedy argmax sequence."""
    chosen = []
    for _ in range(k):
        best_t, best_ig = None, -1.0
        for t in range(len(dataset.catalog)):
            if t in chosen:
                continue
            ig = information_gain(dataset, chosen + [t])
            if ig > best_ig:
                best_t, best_ig = t, ig
        chosen.append(best_t)
    return chosen


class TestSelectRits:
    def test_k1_picks_highest_univariate_ig(self):
        ds = synthetic(5, n_tokens=6)
        igs = [information_gain(ds, [t]) for t in range(6)]
        trace = select_rits(ds, 1)
        assert trace.token_ids == [int(np.argmax(igs))]
        assert trace.steps[0].marginal_gain_bits == pytest.approx(max(igs))

    def test_duplicate_column_not_picked_second(self, duplicate_dataset):
        trace = select_rits(duplicate_dataset, 2)
        assert trace.token_ids[0] == 0  # tie between identical 0 and 1 breaks low
        assert trace.token_ids[1] == 2
        assert trace.steps[1].marginal_gain_bits > 0

    def test_duplicate_marginal_is_exactly_zero(self, duplicate_dataset):
        full = select_rits(duplicate_dataset, 3)
        dup_step = next(s for s in full.steps if s.token_id == 1)
        assert dup_step.marginal_gain_bits == 0.0

    def test_matches_brute_force_replay(self):
        ds = synthetic(9, n_tokens=6)
        trace = select_rits(ds, 3)
        assert trace.token_ids == brute_force_greedy(ds, 3)

    def test_cumulative_matches_direct_ig(self):
        ds = synthetic(4, n_tokens=6)
        trace = select_rits(ds, 4)
        for i, step in enumerate(trace.steps):
            expected = information_gain(ds, trace.token_ids[: i + 1])
            assert step.cumulative_ig_bits == expected

    def test_cumulative_non_decreasing(self):
        ds = synthetic(2)
        cums = [s.cumulative_ig_bits for s in select_rits(ds, 8).steps]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_k_bounds(self):
        ds = synthetic(1, n_tokens=4)
        with pytest.raises(ParameterError):
            select_rits(ds, 0)
        with pytest.raises(ParameterError):
            select_rits(ds, 5)

    def test_column_permutation_equivariance(self):
        ds = synthetic(12, n_tokens=6)
        perm = [3, 5, 0, 1, 4, 2]  # new position of each old column
        sel = np.zeros_like(ds.selections)
        for old, new in enumerate(perm):
            sel[:, new] = ds.selections[:, old]
        permuted = make_dataset(sel, [int(r) if r else None for r in ds.ratings])
        base = select_rits(ds, 4)
        moved = select_rits(permuted, 4)
        assert [perm[t] for t in base.token_ids] == moved.token_ids
        for a, b in zip(base.steps, moved.steps):
            assert a.cumulative_ig_bits == b.cumulative_ig_bits


def run(name, dataset, k, seed=None):
    """The trace of the STRATEGIES row `name`, as the CLI runs it at its default splits."""
    run_strategy, _ = selection.STRATEGIES[name]
    return run_strategy(dataset, k, seed, 100, 0.7)


class TestSelectRitsLazy:
    """`rits_lazy` is an alias row of rits in the strategy registry."""

    @pytest.mark.parametrize("seed", [0, 7, 8, 13, 28])
    def test_equals_eager_on_clean_datasets(self, seed):
        ds = synthetic(seed)
        assert run("rits_lazy", ds, 8).steps == select_rits(ds, 8).steps

    def test_equals_eager_on_duplicate_dataset(self, duplicate_dataset):
        assert run("rits_lazy", duplicate_dataset, 3).steps == select_rits(duplicate_dataset, 3).steps

    def test_exhaustion_equals_eager(self):
        ds = synthetic(14, n_tokens=5)
        lazy = run("rits_lazy", ds, 5)
        eager = select_rits(ds, 5)
        assert lazy.steps == eager.steps
        assert lazy.steps[-1].cumulative_ig_bits == eager.steps[-1].cumulative_ig_bits

    def test_xor_fallback_keeps_gains_truthful(self, xor_dataset):
        # diminishing returns is violated here; the trace must still carry
        # true marginals for its own chain
        trace = run("rits_lazy", xor_dataset, 3)
        for i, step in enumerate(trace.steps):
            assert step.cumulative_ig_bits == information_gain(
                xor_dataset, trace.token_ids[: i + 1]
            )

    def test_xor_reaches_full_information(self, xor_dataset):
        trace = run("rits_lazy", xor_dataset, 3)
        assert trace.steps[-1].cumulative_ig_bits == pytest.approx(1.0)


@pytest.fixture(scope="module")
def demo_arm():
    """The 50k-call treatment arm that the benchmark generates at seed 0."""
    config = {**demo_experiment_config(), "n_calls": 50_000, "seed": 0}
    config["arms"] = {arm: {**pres, "seed": i} for i, (arm, pres) in enumerate(sorted(config["arms"].items()), 1)}
    gen, arms, seeds = experiment_from_config(config)
    return apply_presentation(generate_truth(gen), arms["treatment"], "treatment", seeds["treatment"])


GREEDY_ROWS = [name for name, (_, greedy) in selection.STRATEGIES.items() if greedy]


class TestRegistry:
    def test_rows_run_the_select_functions_the_module_holds_when_they_run(self, monkeypatch, xor_dataset):
        # a wrapped select_* function (e.g. for profiling) is the one a row runs
        class Called(Exception):
            pass

        for attr in [a for a in vars(selection) if a.startswith("select_")]:
            def stub(*args, attr=attr, **kwargs):
                raise Called(attr)

            monkeypatch.setattr(selection, attr, stub)
        for name in selection.STRATEGIES:
            with pytest.raises(Called):
                run(name, xor_dataset, 2, seed=0)

    def test_defaults_are_rows(self):
        assert selection.DEFAULT_STRATEGY in selection.STRATEGIES
        assert set(selection.DEFAULT_COMPARISON) <= selection.STRATEGIES.keys()

    @pytest.mark.parametrize("name", GREEDY_ROWS)
    def test_greedy_trace_at_k_is_a_prefix_of_the_full_trace(self, name, xor_dataset, demo_arm):
        for ds in (xor_dataset, demo_arm):
            n = len(ds.catalog)
            full = run(name, ds, n)
            assert full.steps[-1].cumulative_ig_bits == information_gain(ds, range(n))
            for k in range(1, n + 1):
                assert run(name, ds, k).steps == full.steps[:k]


class TestSelectAucGreedy:
    def test_perfect_token_ranks_first(self):
        rng = np.random.default_rng(8)
        n = 300
        pc = rng.random(n) < 0.4
        noise = (rng.random((n, 2)) < 0.3).astype(int)
        sel = np.column_stack([noise[:, 0], pc.astype(int), noise[:, 1]])
        ds = make_dataset(sel, pc_to_rating(pc))
        trace = select_auc_greedy(ds, 3, splits=10, seed=1)
        assert trace.token_ids[0] == 1
        assert trace.steps[0].marginal_gain_bits == pytest.approx(1.0)

    def test_identical_columns_rank_adjacent_and_both_selected(self, duplicate_dataset):
        trace = select_auc_greedy(duplicate_dataset, 2, splits=10, seed=3)
        assert set(trace.token_ids) == {0, 1}

    def test_ranking_matches_recomputed_univariate_aucs(self):
        ds = synthetic(21, n_tokens=6)
        splits, seed = 12, 77
        trace = select_auc_greedy(ds, 6, splits=splits, seed=seed)

        # independent recomputation of each token's mean AUC over the same plan
        plan = SplitPlan(splits=splits, train_fraction=0.7, master_seed=seed)
        X, y = ds.rated_selections, ds.rated_pc
        parts = list(plan.partitions(X.shape[0]))
        means = []
        for t in range(6):
            vals = []
            for train_idx, test_idx, _ in parts:
                scorer = TableScorer((t,)).fit(X[train_idx], y[train_idx])
                vals.append(auc(scorer.predict(X[test_idx]), y[test_idx]))
            means.append(np.mean(vals))
        expected = sorted(range(6), key=lambda t: (-means[t], t))
        assert trace.token_ids == expected
        for step in trace.steps:
            assert step.marginal_gain_bits == pytest.approx(means[step.token_id])

    def test_gain_metric_flagged(self):
        ds = synthetic(3, n_tokens=5)
        trace = select_auc_greedy(ds, 2, splits=5, seed=2)
        assert trace.gain_metric == "auc"
        assert trace.seed == 2

    def test_cumulative_still_in_bits(self):
        ds = synthetic(3, n_tokens=5)
        trace = select_auc_greedy(ds, 3, splits=5, seed=2)
        for i, step in enumerate(trace.steps):
            assert step.cumulative_ig_bits == information_gain(ds, trace.token_ids[: i + 1])


class TestSelectRandom:
    def test_full_catalog(self):
        trace = select_random(6, 6, seed=5)
        assert sorted(trace.token_ids) == list(range(6))

    def test_same_seed_same_subset(self):
        assert select_random(10, 4, seed=42).token_ids == select_random(10, 4, seed=42).token_ids

    def test_different_seeds_differ_somewhere(self):
        picks = {tuple(select_random(10, 4, seed=s).token_ids) for s in range(20)}
        assert len(picks) > 1

    def test_selection_frequencies_uniform(self):
        n, k, reps = 8, 3, 10000
        counts = np.zeros(n)
        for s in range(reps):
            counts[select_random(n, k, seed=s).token_ids] += 1
        p = k / n
        sigma = math.sqrt(p * (1 - p) / reps)
        assert np.all(np.abs(counts / reps - p) < 3 * sigma + 1e-9)

    def test_gain_metric_none(self):
        trace = select_random(5, 2, seed=0)
        assert trace.gain_metric == "none"
        assert all(s.marginal_gain_bits == 0.0 for s in trace.steps)

    def test_k_bounds(self):
        with pytest.raises(ParameterError):
            select_random(5, 0, seed=1)
        with pytest.raises(ParameterError):
            select_random(5, 6, seed=1)

    def test_seed_required(self, duplicate_dataset):
        for seed in (None, -1, 1.5, "3"):
            with pytest.raises(ParameterError, match="seed"):
                select_random(5, 2, seed=seed)
            with pytest.raises(ParameterError, match="seed"):
                select_auc_greedy(duplicate_dataset, 2, splits=3, seed=seed)


class TestSelectExhaustive:
    def test_k1_matches_greedy(self):
        ds = synthetic(17, n_tokens=7)
        assert select_exhaustive(ds, 1).token_ids == select_rits(ds, 1).token_ids

    def test_never_picks_both_duplicates(self, duplicate_dataset):
        trace = select_exhaustive(duplicate_dataset, 2)
        assert set(trace.token_ids) != {0, 1}

    def test_finds_true_optimum(self):
        ds = synthetic(23, n_tokens=7)
        trace = select_exhaustive(ds, 3)
        best = max(
            (information_gain(ds, list(c)) for c in combinations(range(7), 3))
        )
        assert trace.steps[-1].cumulative_ig_bits == best

    def test_xor_beats_greedy(self, xor_dataset):
        # the xor pair is invisible to univariate greedy but optimal jointly
        exhaustive = select_exhaustive(xor_dataset, 2)
        assert set(exhaustive.token_ids) == {0, 1}
        assert exhaustive.steps[-1].cumulative_ig_bits == pytest.approx(1.0)

    def test_greedy_guarantee_on_random_datasets(self):
        bound = 1 - 1 / math.e
        for seed in range(10):
            ds = synthetic(seed + 100, n_tokens=8, n_calls=1200)
            g = select_rits(ds, 3).steps[-1].cumulative_ig_bits
            e = select_exhaustive(ds, 3).steps[-1].cumulative_ig_bits
            assert g >= bound * e

    def test_capacity_cap(self, monkeypatch):
        ds = synthetic(1, n_tokens=10)
        monkeypatch.setattr(selection, "EXHAUSTIVE_SUBSET_CAP", 100)
        with pytest.raises(CapacityError):
            select_exhaustive(ds, 5)

    def test_replay_cumulative_ends_at_subset_ig(self):
        ds = synthetic(31, n_tokens=6)
        trace = select_exhaustive(ds, 3)
        assert trace.steps[-1].cumulative_ig_bits == information_gain(ds, trace.token_ids)


class TestBundledDemo:
    @pytest.fixture(scope="class")
    def demo(self):
        from toksel.synthgen import demo_dataset

        return demo_dataset()

    def test_demo_k5_marginals_non_increasing(self, demo):
        trace = select_rits(demo, 5)
        margs = [s.marginal_gain_bits for s in trace.steps]
        assert len(margs) == 5
        assert all(b <= a for a, b in zip(margs, margs[1:]))

    def test_demo_k5_search_scores_few_subsets(self, demo, monkeypatch):
        walk = selection._prefixes
        scored = []

        def counted(ev, n_tokens, depth, floor):
            for prefix, cells, n_cells in walk(ev, n_tokens, depth, floor):
                scored.append(n_tokens - (prefix[-1] + 1 if prefix else 0))
                yield prefix, cells, n_cells

        monkeypatch.setattr(selection, "_prefixes", counted)
        trace = select_exhaustive(demo, 5)
        assert sum(scored) < 0.05 * math.comb(15, 5)
        subset, steps = exhaustive_reference(demo, 5)
        assert bits(trace.steps) == bits(steps)

    def test_greedy_winner_is_not_replayed(self, demo_arm, monkeypatch):
        # the best 5-subset of the benchmark's demo arm is the greedy one, whose steps
        # are returned, not scored again
        batches = []

        def counted(table, cells, n_cells, extensions):
            batches.append(len(extensions))
            return extension_term_sums(table, cells, n_cells, extensions)

        monkeypatch.setattr(selection, "extension_term_sums", counted)
        trace = select_exhaustive(demo_arm, 5)
        # the 5 greedy steps and 9 batches of leaves; a replay would take 5 more
        assert len(batches) == 14
        monkeypatch.undo()
        assert trace.steps == select_rits(demo_arm, 5).steps
        assert bits(trace.steps) == bits(exhaustive_reference(demo_arm, 5)[1])

    def test_lazy_equals_eager_at_k15(self, demo):
        # a stale-bound lazy greedy picked token 4 before 12 at step 7 here
        lazy = run("rits_lazy", demo, 15)
        assert lazy.strategy == "rits_lazy"
        assert lazy.steps == select_rits(demo, 15).steps


@st.composite
def tied_dataset(draw):
    """A small dataset whose columns are random, copies of earlier columns or constant,
    so that many subsets tie on gain; at least one record is rated."""
    n_records = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "random", "copy", "constant"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append([draw(st.integers(0, 1))] * n_records)
        else:
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n_records, max_size=n_records)))
    ratings = [draw(st.integers(1, 5))] + draw(
        st.lists(st.sampled_from([None, 1, 2, 3, 4, 5]), min_size=n_records - 1, max_size=n_records - 1)
    )
    return make_dataset(np.array(columns, dtype=np.uint8).T.reshape(n_records, -1), ratings)


def bits(steps):
    return [(s.token_id, s.marginal_gain_bits.hex(), s.cumulative_ig_bits.hex()) for s in steps]


class TestBatchedAgainstReference:
    """The batched greedy and exhaustive searches against the per-subset ones of reference_selection."""

    @given(dataset=tied_dataset(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_greedy_trace(self, dataset, data):
        n_tokens = len(dataset.catalog)
        k = data.draw(st.integers(1, n_tokens))
        got = select_rits(dataset, k).steps
        assert bits(got) == bits(greedy_reference(IgEvaluator(dataset), range(n_tokens), k))

    @given(dataset=tied_dataset(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exhaustive_winner_and_trace(self, dataset, data):
        k = data.draw(st.integers(1, len(dataset.catalog)))
        subset, steps = exhaustive_reference(dataset, k)
        got = select_exhaustive(dataset, k)
        assert got.token_ids == [s.token_id for s in steps]
        assert sorted(got.token_ids) == list(subset)
        assert bits(got.steps) == bits(steps)

    @given(dataset=tied_dataset(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_term_sums_of_every_extension(self, dataset, data):
        n_tokens = len(dataset.catalog)
        subset = data.draw(st.lists(st.integers(0, n_tokens - 1), unique=True, max_size=n_tokens))
        table = dataset.patterns
        cells, n_cells = np.zeros(len(table.rows), dtype=np.int64), 1
        for t in subset:
            cells, n_cells = refine_cells(cells, table.rows[:, t], n_cells)
        assert n_cells == len({tuple(row) for row in table.rows[:, subset]})
        candidates = data.draw(st.permutations([t for t in range(n_tokens) if t not in subset]))
        got = extension_term_sums(table, cells, n_cells, candidates)
        assert [v.hex() for v in got] == [_cond_term_sum(dataset, [*subset, t]).hex() for t in candidates]


@st.composite
def pruning_dataset(draw):
    """Up to 8 tokens whose columns are random, copies of earlier ones, constant, or
    XOR pairs that decide the label, which no single token predicts, so that many
    subsets tie and the greedy floor can sit far below the best subset's gain."""
    n_records = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.random(n_records) < rng.uniform(0.2, 0.8)
    columns = []
    for kind in draw(st.lists(st.sampled_from(["random", "copy", "constant", "xor"]), min_size=1, max_size=6)):
        if kind == "xor":
            a = rng.random(n_records) < 0.5
            flips = rng.random(n_records) < draw(st.sampled_from([0.0, 0.1]))
            columns += [a, a ^ label ^ flips]
        elif kind == "copy" and columns:
            columns.append(columns[rng.integers(len(columns))])
        elif kind == "constant":
            columns.append(np.full(n_records, rng.random() < 0.5))
        else:
            columns.append(rng.random(n_records) < rng.random())
    columns = columns[:8]
    ratings = np.where(label, 1, 5).tolist()
    for i in np.flatnonzero(rng.random(n_records) < 0.2)[1:]:
        ratings[i] = None
    return make_dataset(np.array(columns, dtype=np.uint8).T, ratings)


class TestBranchAndBound:
    """select_exhaustive's pruned search against full enumeration (reference_selection)."""

    def check_every_k(self, dataset):
        for k in range(1, len(dataset.catalog) + 1):
            subset, steps = exhaustive_reference(dataset, k)
            got = select_exhaustive(dataset, k)
            assert sorted(got.token_ids) == list(subset)
            assert bits(got.steps) == bits(steps)

    @given(dataset=pruning_dataset())
    @settings(max_examples=120, deadline=None)
    def test_winner_and_trace_at_every_k(self, dataset):
        self.check_every_k(dataset)

    @pytest.mark.parametrize(
        "extra_columns",
        [
            lambda rng, n: [],
            lambda rng, n: [rng.random(n) < 0.3, np.zeros(n)],
            lambda rng, n: [np.r_[np.ones(219), np.zeros(584)], rng.random(n) < 0.5, rng.random(n) < 0.1],
        ],
        ids=["repro", "random-and-constant", "copy-and-random"],
    )
    def test_proportional_split(self, extra_columns):
        self.check_every_k(proportional_split_dataset(*extra_columns(np.random.default_rng(803), 803)))

    def test_xor_pair_far_above_the_greedy_floor(self):
        # token 0 is the label with one record in four flipped; tokens 1 and 2 are a and
        # a XOR label, each independent of the label: greedy takes token 0 and gains
        # 0.19 bits, while the pair (1, 2) gives the whole bit
        rows, ratings = [], []
        for label in (0, 1):
            for a in (0, 1):
                for flip in (0, 0, 0, 1):
                    rows.append([label ^ flip, a, a ^ label])
                    ratings.append(1 if label else 5)
        ds = make_dataset(rows, ratings)
        assert select_rits(ds, 2).steps[-1].cumulative_ig_bits < 0.2
        assert select_exhaustive(ds, 2).token_ids == [1, 2]
        self.check_every_k(ds)


class TestTraceSerialization:
    def test_json_shape(self):
        ds = synthetic(2, n_tokens=5)
        trace = select_rits(ds, 2)
        payload = trace.to_json(ds.catalog)
        assert payload["strategy"] == "rits"
        assert payload["k"] == 2
        assert len(payload["steps"]) == 2
        step = payload["steps"][0]
        assert set(step) == {"token_id", "label", "marginal", "cumulative"}
        assert step["label"] == ds.catalog.labels[step["token_id"]]

    def test_duplicate_ids_rejected(self):
        from toksel.selection import SelectionStep, SelectionTrace

        with pytest.raises(ParameterError):
            SelectionTrace(
                "rits",
                (SelectionStep(1, 0.0, 0.0), SelectionStep(1, 0.0, 0.0)),
                budget_k=2,
            )
