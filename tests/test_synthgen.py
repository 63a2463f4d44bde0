import dataclasses
import json
import math

import numpy as np
import pytest

from toksel.dataset import TokenCatalog
from toksel.errors import DataError, ParameterError
from toksel.synthgen import (
    GeneratorConfig,
    LatentCause,
    PresentationConfig,
    apply_presentation,
    demo_experiment_config,
    demo_generator_config,
    experiment_from_config,
    generate_truth,
    generator_from_config,
    load_experiment_config,
    _call_ids,
    _display_ranks,
)


def one_cause_config(
    n_calls=1000,
    n_tokens=4,
    prevalence=0.3,
    weight=0.8,
    base=0.05,
    severity=2.0,
    seed=0,
    rating_rate=1.0,
):
    catalog = TokenCatalog.numbered(n_tokens)
    cause = LatentCause(
        prevalence=prevalence, token_weights=np.full(n_tokens, weight), severity=severity
    )
    return GeneratorConfig(
        n_calls=n_calls,
        catalog=catalog,
        latent_causes=(cause,),
        base_fire_rate=np.full(n_tokens, base),
        rating_severity_slope=1.5,
        rating_rate=rating_rate,
        seed=seed,
    )


class TestGeneratorConfig:
    def test_requires_a_cause(self):
        cfg = one_cause_config()
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, latent_causes=())

    def test_probability_validation(self):
        with pytest.raises(ParameterError):
            one_cause_config(prevalence=1.5)
        with pytest.raises(ParameterError):
            one_cause_config(base=-0.1)
        cfg = one_cause_config()
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, n_calls=0)

    def test_weights_shape_checked(self):
        cfg = one_cause_config(n_tokens=4)
        bad = LatentCause(prevalence=0.1, token_weights=np.array([0.5, 0.5]), severity=1.0)
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, latent_causes=(bad,))


class TestGenerateTruth:
    def test_silent_population(self):
        ds = generate_truth(one_cause_config(prevalence=0.0, base=0.0))
        assert not ds.selections.any()
        assert not ds.responded.any()

    def test_deterministic_cause_fires_always(self):
        ds = generate_truth(one_cause_config(prevalence=1.0, weight=1.0, base=0.0))
        assert ds.selections.all()

    def test_noisy_or_marginal_matches_closed_form(self):
        cfg = one_cause_config(n_calls=100_000, prevalence=0.3, weight=0.8, base=0.05, seed=4)
        ds = generate_truth(cfg)
        expected = 1 - (1 - 0.05) * (1 - 0.3 * 0.8)  # 0.278
        sigma = math.sqrt(expected * (1 - expected) / cfg.n_calls)
        rates = ds.selections.mean(axis=0)
        assert np.all(np.abs(rates - expected) < 3 * sigma)

    def test_same_seed_identical(self):
        a = generate_truth(one_cause_config(seed=11))
        b = generate_truth(one_cause_config(seed=11))
        assert np.array_equal(a.selections, b.selections)
        assert np.array_equal(a.ratings, b.ratings)
        assert a.call_ids == b.call_ids

    def test_different_seed_differs(self):
        a = generate_truth(one_cause_config(seed=1))
        b = generate_truth(one_cause_config(seed=2))
        assert not np.array_equal(a.selections, b.selections)

    def test_rating_bands(self):
        # inactive calls: raw = 5 + noise -> ratings 4..5
        quiet = generate_truth(one_cause_config(prevalence=0.0, base=0.0))
        assert set(np.unique(quiet.ratings)) <= {4, 5}
        # one active cause at slope*severity = 3: raw = 2 + noise -> ratings 1..3
        loud = generate_truth(one_cause_config(prevalence=1.0, weight=1.0))
        assert set(np.unique(loud.ratings)) <= {1, 2, 3}

    def test_rating_rate_leaves_unrated_calls(self):
        ds = generate_truth(one_cause_config(n_calls=4000, rating_rate=0.5, seed=3))
        frac = (ds.ratings > 0).mean()
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 4000)
        assert (ds.pc_labels >= 0).sum() == (ds.ratings > 0).sum()

    def test_arm_tag_is_none(self):
        ds = generate_truth(one_cause_config(n_calls=5))
        assert set(ds.arms) == {"none"}

    def test_call_ids_are_zero_padded_indices(self):
        ds = generate_truth(dataclasses.replace(one_cause_config(n_calls=12), platform="web"))
        assert ds.call_ids == tuple(f"c{i:07d}" for i in range(12))
        assert ds.platforms == ("web",) * 12

    @pytest.mark.parametrize("width", [1, 2])
    def test_call_ids_widen_past_the_padding(self, width):
        # 10**7 calls cross the padding of the real ids; narrower padding crosses it at 10 and 100
        n = 10 ** (width + 1) + 5
        assert _call_ids(n, width).slice(0, n) == [f"c{i:0{width}d}" for i in range(n)]


class TestPresentationConfig:
    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            PresentationConfig(order_policy="shuffled")
        with pytest.raises(ParameterError):
            PresentationConfig(panel_policy="mirrored")
        with pytest.raises(ParameterError):
            PresentationConfig(position_multipliers=(-0.5,))
        with pytest.raises(ParameterError):
            PresentationConfig(scroll_penalty=1.2)

    def test_rank_multipliers_pad_with_one(self):
        cfg = PresentationConfig(position_multipliers=(1.4,))
        assert list(cfg.rank_multipliers(4)) == [1.4, 1.0, 1.0, 1.0]

    def test_scroll_applies_below_fold(self):
        cfg = PresentationConfig(
            position_multipliers=(1.4,), scroll_penalty=0.51, fold_rank=2
        )
        assert list(cfg.rank_multipliers(4)) == [1.4, 1.0, 0.51, 0.51]


class TestDisplayRanks:
    def test_fixed_fixed_is_catalog_order(self):
        truth = generate_truth(one_cause_config(n_calls=10))
        ranks = _display_ranks(truth, PresentationConfig(), np.random.default_rng(0))
        assert np.array_equal(ranks, np.tile(np.arange(4), (10, 1)))

    def test_fixed_order_respects_panel_blocks(self):
        # numbered(5): tokens 0-2 audio, 3-4 video
        truth = generate_truth(one_cause_config(n_calls=2000, n_tokens=5))
        cfg = PresentationConfig(panel_policy="swapped_random")
        ranks = _display_ranks(truth, cfg, np.random.default_rng(1))
        audio_first = np.array([0, 1, 2, 3, 4])
        video_first = np.array([2, 3, 4, 0, 1])
        patterns = {tuple(row) for row in ranks}
        assert patterns == {tuple(audio_first), tuple(video_first)}

    def test_randomized_rows_are_permutations(self):
        truth = generate_truth(one_cause_config(n_calls=500))
        cfg = PresentationConfig(order_policy="randomized")
        ranks = _display_ranks(truth, cfg, np.random.default_rng(2))
        expected = set(range(4))
        assert all(set(row) == expected for row in ranks)
        assert len({tuple(r) for r in ranks}) > 1


class TestApplyPresentation:
    def test_identity_when_unbiased(self):
        truth = generate_truth(one_cause_config(seed=21))
        observed = apply_presentation(truth, PresentationConfig(), "control", seed=5)
        assert np.array_equal(observed.selections, truth.selections)
        assert set(observed.arms) == {"control"}
        assert observed.call_ids == truth.call_ids
        assert np.array_equal(observed.ratings, truth.ratings)

    def test_identity_under_randomized_order_too(self):
        truth = generate_truth(one_cause_config(seed=22))
        cfg = PresentationConfig(order_policy="randomized")
        observed = apply_presentation(truth, cfg, "treatment", seed=6)
        assert np.array_equal(observed.selections, truth.selections)

    def test_zero_multiplier_silences_survey(self):
        truth = generate_truth(one_cause_config(seed=23))
        cfg = PresentationConfig(position_multipliers=(0.0, 0.0, 0.0, 0.0))
        observed = apply_presentation(truth, cfg, "control", seed=7)
        assert not observed.selections.any()

    def test_boost_adds_selections_monotonically(self):
        truth = generate_truth(one_cause_config(seed=24, weight=0.4))
        cfg = PresentationConfig(position_multipliers=(1.4, 1.4, 1.4, 1.4))
        observed = apply_presentation(truth, cfg, "control", seed=8)
        # coupled draws: boosted observation is a superset of the truth
        assert np.all(observed.selections >= truth.selections)
        assert observed.selections.sum() > truth.selections.sum()

    def test_thinning_removes_selections_monotonically(self):
        truth = generate_truth(one_cause_config(seed=25))
        cfg = PresentationConfig(position_multipliers=(0.5, 0.5, 0.5, 0.5))
        observed = apply_presentation(truth, cfg, "control", seed=9)
        assert np.all(observed.selections <= truth.selections)
        assert observed.selections.sum() < truth.selections.sum()

    def test_requires_truth_side_channel(self, tmp_path):
        from toksel.dataset import load_dataset, save_dataset

        truth = generate_truth(one_cause_config(n_calls=50))
        path = tmp_path / "t.csv"
        save_dataset(truth, path)
        plain = load_dataset(path)
        with pytest.raises(ParameterError):
            apply_presentation(plain, PresentationConfig(), "control", seed=1)

    def test_deterministic(self):
        truth = generate_truth(one_cause_config(seed=26))
        cfg = PresentationConfig(order_policy="randomized", position_multipliers=(1.4,))
        a = apply_presentation(truth, cfg, "treatment", seed=10)
        b = apply_presentation(truth, cfg, "treatment", seed=10)
        assert np.array_equal(a.selections, b.selections)

    def test_randomized_order_equalizes_expected_multiplier(self):
        # equal-rate independent tokens keep equal observed rates under
        # randomized order even with a strong top-position boost
        n = 60_000
        cfg = one_cause_config(n_calls=n, prevalence=0.0, base=0.2, seed=30)
        truth = generate_truth(cfg)
        pres = PresentationConfig(
            order_policy="randomized", position_multipliers=(1.4,)
        )
        observed = apply_presentation(truth, pres, "treatment", seed=31)
        mean_mult = (1.4 + 3.0) / 4
        expected = 0.2 * mean_mult
        sigma = math.sqrt(expected * (1 - expected) / n)
        rates = observed.selections.mean(axis=0)
        assert np.all(np.abs(rates - expected) < 3 * sigma)

    def test_fixed_order_boosts_only_the_top_token(self):
        n = 60_000
        cfg = one_cause_config(n_calls=n, prevalence=0.0, base=0.2, seed=32)
        truth = generate_truth(cfg)
        pres = PresentationConfig(position_multipliers=(1.4,))
        observed = apply_presentation(truth, pres, "control", seed=33)
        rates = observed.selections.mean(axis=0)
        sigma = math.sqrt(0.28 * 0.72 / n)
        assert abs(rates[0] - 0.28) < 3 * sigma
        assert np.all(np.abs(rates[1:] - 0.2) < 3 * sigma)


class TestConfigFiles:
    def test_weights_accept_list_and_mapping(self):
        base = {
            "n_calls": 10,
            "seed": 1,
            "catalog": 3,
            "base_fire_rate": 0.01,
            "latent_causes": [
                {"prevalence": 0.2, "severity": 1.0, "token_weights": [0.1, 0.2, 0.3]}
            ],
        }
        by_list = generator_from_config(base)
        by_map = generator_from_config(
            {
                **base,
                "latent_causes": [
                    {
                        "prevalence": 0.2,
                        "severity": 1.0,
                        "token_weights": {"token_00": 0.1, "token_01": 0.2, "token_02": 0.3},
                    }
                ],
            }
        )
        assert np.array_equal(
            by_list.latent_causes[0].token_weights, by_map.latent_causes[0].token_weights
        )

    def test_missing_key_reported(self):
        with pytest.raises(DataError, match="n_calls"):
            generator_from_config({"latent_causes": []})

    def test_arm_names_checked(self):
        cfg = demo_experiment_config()
        cfg["arms"] = {"variant_b": {}}
        with pytest.raises(DataError):
            experiment_from_config(cfg)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(demo_experiment_config()), encoding="utf-8")
        gen, arms, seeds = load_experiment_config(path)
        assert gen.n_calls == demo_generator_config().n_calls
        assert set(arms) == {"control", "treatment"}
        assert arms["control"].order_policy == "fixed"
        assert arms["treatment"].order_policy == "randomized"
        assert seeds["control"] == 101

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "n_calls": 10,\n  oops\n}', encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            load_experiment_config(path)


class TestDemoConfig:
    def test_demo_is_15_tokens_5_causes(self):
        gen = demo_generator_config()
        assert len(gen.catalog) == 15
        assert len(gen.latent_causes) == 5

    def test_demo_has_near_duplicate_pair(self):
        gen = demo_generator_config()
        freeze = next(c for c in gen.latent_causes if c.name == "video_freeze")
        w = freeze.token_weights
        strong = np.flatnonzero(w >= 0.8)
        assert strong.size >= 2
