"""Synthetic survey data with latent problem causes and display-order bias.

Calls draw independent latent causes; each cause raises its tokens'
selection propensities through a noisy-OR, and the summed severity of
active causes drives the star rating. Presentation is simulated on top
of the same truth: a token's display rank multiplies its selection
propensity (clamped to [0, 1]) before the selection is observed, so a
top-of-list question can be over-selected relative to its true rate.

Observation draws are coupled to the truth draws through shared
uniforms: with every multiplier at 1 the observed dataset equals the
truth realization exactly, larger multipliers add selections, smaller
ones remove them. Both arms of an experiment present the same truth.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import _SURROGATE, ARMS, Dataset, StringColumn, TokenCatalog
from .errors import CapacityError, DataError, ParameterError

ORDER_POLICIES = ("fixed", "randomized")
PANEL_POLICIES = ("fixed", "swapped_random")

DEFAULT_TOP_MULTIPLIER = 1.4


def _as_probability(value: float, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value}")
    return v


def _weights_vector(weights, catalog: TokenCatalog, name: str) -> np.ndarray:
    """Accept a per-token list or a {label: weight} mapping."""
    if isinstance(weights, dict):
        vec = np.zeros(len(catalog))
        for label, w in weights.items():
            vec[catalog.id_of(label)] = _number(w, name)
    else:
        vec = np.array([_number(w, name) for w in _expect(weights, list, name)])
        if vec.shape != (len(catalog),):
            raise ParameterError(f"{name} must have one weight per catalog token")
    if ((vec < 0) | (vec > 1)).any():
        raise ParameterError(f"{name} entries must be probabilities in [0, 1]")
    return vec


@dataclass(frozen=True)
class LatentCause:
    """One underlying problem: how often it occurs, which tokens it fires, how bad it is."""

    prevalence: float
    token_weights: np.ndarray
    severity: float
    name: str = ""

    def __post_init__(self):
        _as_probability(self.prevalence, "prevalence")


def _addressable(other_side: int) -> int:
    """The longest side of a float64 array whose other side is `other_side`
    that numpy can index: generate_truth draws (n_calls, tokens) and
    (n_calls, causes) arrays."""
    return np.iinfo(np.intp).max // (other_side * np.dtype(np.float64).itemsize)


@dataclass(frozen=True)
class GeneratorConfig:
    n_calls: int
    catalog: TokenCatalog
    latent_causes: tuple[LatentCause, ...]
    base_fire_rate: np.ndarray  # per-token independent firing probability
    rating_intercept: float = 0.0
    rating_severity_slope: float = 1.0
    rating_rate: float = 1.0  # probability a call receives a star rating
    platform: str = "desktop"
    seed: int = 0

    def __post_init__(self):
        if self.n_calls < 1:
            raise ParameterError("n_calls must be >= 1")
        if not self.latent_causes:
            raise ParameterError("at least one latent cause is required")
        for cause in self.latent_causes:
            if cause.token_weights.shape != (len(self.catalog),):
                raise ParameterError("cause token_weights must match catalog size")
        limit = _addressable(max(len(self.catalog), len(self.latent_causes)))
        if self.n_calls > limit:
            raise CapacityError(f"n_calls {self.n_calls} exceeds {limit}, the most calls numpy can address")
        if self.base_fire_rate.shape != (len(self.catalog),):
            raise ParameterError("base_fire_rate must have one entry per token")
        if ((self.base_fire_rate < 0) | (self.base_fire_rate > 1)).any():
            raise ParameterError("base_fire_rate entries must be in [0, 1]")
        _as_probability(self.rating_rate, "rating_rate")


@dataclass(frozen=True)
class PresentationConfig:
    """How the questionnaire is laid out and how layout skews responses.

    Display ranks run top-down over the concatenated panels. With
    order_policy "fixed" tokens keep catalog order; panel_policy
    "swapped_random" coin-flips which panel block comes first per call.
    With order_policy "randomized" every call draws a fresh uniform
    permutation of all tokens (panel placement included).

    position_multipliers[r] scales the selection propensity of the token
    shown at rank r (shorter lists pad with 1.0); ranks at or below
    fold_rank are additionally scaled by scroll_penalty.
    """

    order_policy: str = "fixed"
    panel_policy: str = "fixed"
    position_multipliers: tuple[float, ...] = ()
    scroll_penalty: float = 1.0
    fold_rank: Optional[int] = None

    def __post_init__(self):
        if self.order_policy not in ORDER_POLICIES:
            raise ParameterError(f"order_policy must be one of {ORDER_POLICIES}")
        if self.panel_policy not in PANEL_POLICIES:
            raise ParameterError(f"panel_policy must be one of {PANEL_POLICIES}")
        if any(m < 0 for m in self.position_multipliers):
            raise ParameterError("position multipliers must be >= 0")
        _as_probability(self.scroll_penalty, "scroll_penalty")
        if self.fold_rank is not None and self.fold_rank < 0:
            raise ParameterError("fold_rank must be >= 0")

    def rank_multipliers(self, n_tokens: int) -> np.ndarray:
        mult = np.ones(n_tokens)
        given = np.asarray(self.position_multipliers, dtype=np.float64)[:n_tokens]
        mult[: given.size] = given
        if self.fold_rank is not None:
            mult[self.fold_rank:] *= self.scroll_penalty
        return mult


class TruthDataset(Dataset):
    """Dataset realized by generate_truth, carrying its propensity side-channel.

    The per-cell propensities and the uniforms that realized them are
    what apply_presentation rescales, so presentation effects stay
    coupled to the truth draw. Only generate_truth builds one.
    """

    @classmethod
    def _own(cls, *columns, propensities: np.ndarray, uniforms: np.ndarray) -> "TruthDataset":
        """`Dataset._own`, with the draws that apply_presentation rescales."""
        truth = super()._own(*columns)
        truth._propensities = propensities
        truth._uniforms = uniforms
        for arr in (truth._propensities, truth._uniforms):
            arr.setflags(write=False)
        return truth


def generate_truth(config: GeneratorConfig) -> TruthDataset:
    """Sample a truth dataset; deterministic for a given config seed.

    Draw order is fixed: cause activations, selection uniforms, rating
    noise, rating-presence mask.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_calls
    n_tokens = len(config.catalog)
    causes = config.latent_causes

    prevalences = np.array([c.prevalence for c in causes])
    severities = np.array([c.severity for c in causes])
    weights = np.stack([c.token_weights for c in causes])  # (n_causes, n_tokens)

    active = rng.random((n, len(causes))) < prevalences
    uniforms = rng.random((n, n_tokens))
    noise = rng.integers(-1, 2, size=n)
    rated = rng.random(n) < config.rating_rate

    # noisy-OR: miss probability is the product of (1 - weight) over active causes
    log_miss = np.log(np.clip(1.0 - weights, 1e-300, 1.0))
    miss = np.exp(active.astype(np.float64) @ log_miss) * (1.0 - config.base_fire_rate)
    propensities = 1.0 - miss

    selections = (uniforms < propensities).astype(np.uint8)

    severity_total = active @ severities
    raw = 5.0 - config.rating_severity_slope * severity_total - config.rating_intercept + noise
    ratings = np.clip(np.rint(raw), 1, 5).astype(np.int16)
    ratings[~rated] = 0

    platform = str(config.platform)
    return TruthDataset._own(
        config.catalog,
        _call_ids(n),
        np.full(n, ARMS.index("none"), np.uint8),
        StringColumn(platform * n, np.arange(1, n + 1, dtype=np.int64) * len(platform)),
        ratings,
        selections,
        propensities=propensities,
        uniforms=uniforms,
    )


def _call_ids(n: int, width: int = 7) -> StringColumn:
    """The column of the call ids "c" + i zero-padded to `width` digits, for i in
    range(n), written as digit arrays: ids of d digits are the rows of an
    (m, 1 + d) byte grid."""
    blocks, lo, digits = [], 0, width
    while lo < n:
        hi = min(n, 10**digits)
        ids = np.arange(lo, hi)
        grid = np.empty((hi - lo, 1 + digits), np.uint8)
        grid[:, 0] = ord("c")
        for col in range(digits, 0, -1):
            grid[:, col] = ids % 10 + ord("0")
            ids //= 10
        ends = np.arange(1, hi - lo + 1, dtype=np.int64) * (1 + digits)
        blocks.append(StringColumn(grid.tobytes().decode(), ends))
        lo, digits = hi, digits + 1
    return StringColumn.concat(blocks)


def _display_ranks(
    truth: Dataset, config: PresentationConfig, rng: np.random.Generator
) -> np.ndarray:
    """(n_calls, n_tokens) matrix: the display rank of each token on each call."""
    n = len(truth)
    catalog = truth.catalog
    n_tokens = len(catalog)

    if config.order_policy == "randomized":
        keys = rng.random((n, n_tokens))
        return np.argsort(np.argsort(keys, axis=1), axis=1)

    audio = catalog.panel_ids("audio")
    video = catalog.panel_ids("video")
    rank_audio_first = np.empty(n_tokens, dtype=np.int64)
    rank_audio_first[audio + video] = np.arange(n_tokens)
    if config.panel_policy == "fixed":
        return np.broadcast_to(rank_audio_first, (n, n_tokens))
    rank_video_first = np.empty(n_tokens, dtype=np.int64)
    rank_video_first[video + audio] = np.arange(n_tokens)
    swap = rng.random(n) < 0.5
    return np.where(swap[:, None], rank_video_first, rank_audio_first)


def apply_presentation(
    truth: Dataset, config: PresentationConfig, arm: str, seed: int
) -> Dataset:
    """Observe the truth through a presentation: rank-dependent propensity scaling.

    Requires a dataset produced by generate_truth (the propensity
    side-channel drives the rescaled observation draws). Ratings and
    call identities carry over; the records are tagged with `arm`.
    """
    if not isinstance(truth, TruthDataset):
        raise ParameterError("truth must be a dataset produced by generate_truth")
    if arm not in ARMS:
        raise ParameterError(f"unknown arm {arm!r}")
    rng = np.random.default_rng(seed)
    n_tokens = len(truth.catalog)

    ranks = _display_ranks(truth, config, rng)
    by_rank = config.rank_multipliers(n_tokens)
    multipliers = by_rank[ranks]

    observed_p = np.clip(multipliers * truth._propensities, 0.0, 1.0)
    observed = (truth._uniforms < observed_p).astype(np.uint8)

    # the call id and platform columns are immutable: the observed arm shares the truth's
    return Dataset._own(
        truth.catalog,
        truth._call_ids,
        np.full(len(truth), ARMS.index(arm), np.uint8),
        truth._platforms,
        truth.ratings.copy(),
        observed,
    )


# -- declarative config files -------------------------------------------


def _catalog_from_config(spec, n_calls) -> TokenCatalog:
    if spec is None or spec == "default":
        return TokenCatalog.default()
    if isinstance(spec, (int, float)):
        size = _number(spec, "catalog", int)
        # refused before any token is built: a catalog wider than numpy can draw for the
        # config's calls (for one call while n_calls is unchecked) would build tokens
        # until memory runs out
        calls = n_calls if type(n_calls) is int and n_calls > 1 else 1
        limit = _addressable(calls)
        if size > limit:
            raise CapacityError(f"catalog of {size} tokens exceeds {limit}, the most numpy can address for {calls} calls")
        return TokenCatalog.numbered(size)
    if isinstance(spec, dict) and "file" in spec:
        return TokenCatalog.from_csv(spec["file"])
    if isinstance(spec, list):
        spec = [_expect(t, dict, "catalog entry") for t in spec]
        labels = [_expect(t["label"], str, "label") for t in spec]
        panels = [_expect(t.get("panel", "audio"), str, "panel") for t in spec]
        return TokenCatalog.from_labels(labels, panels)
    raise DataError(f"cannot interpret catalog spec {spec!r}")


def presentation_from_config(obj: dict) -> PresentationConfig:
    _expect(obj, dict, "arms entry")
    multipliers = _expect(obj.get("position_multipliers", []), list, "position_multipliers")
    fold_rank = obj.get("fold_rank")
    try:
        return PresentationConfig(
            order_policy=obj.get("order_policy", "fixed"),
            panel_policy=obj.get("panel_policy", "fixed"),
            position_multipliers=tuple(_number(m, "position_multipliers") for m in multipliers),
            scroll_penalty=_number(obj.get("scroll_penalty", 1.0), "scroll_penalty"),
            fold_rank=None if fold_rank is None else _number(fold_rank, "fold_rank", int),
        )
    except ParameterError as exc:
        raise DataError(f"config: {exc}") from None


def _number(value, name: str, kind=float):
    """A config number: for `kind` int a JSON integer, for float an integer or a decimal in the
    float range, not NaN (json reads NaN, Infinity and 1e999, as inf); never a bool."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise DataError(f"config value {name!r} must be {noun}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise DataError(f"config value {name!r} must be a finite number, got {value!r}")
    return kind(value)


def _seed(value) -> int:
    """A config seed: a JSON integer >= 0, as numpy's generators take."""
    if _number(value, "seed", int) < 0:
        raise DataError(f"config value 'seed' must be >= 0, got {value!r}")
    return value


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise DataError(f"config value {name!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def generator_from_config(obj: dict) -> GeneratorConfig:
    if not isinstance(obj, dict):
        raise DataError(f"config must be a JSON object, got {type(obj).__name__}")
    try:
        catalog = _catalog_from_config(obj.get("catalog", "default"), obj.get("n_calls"))
        base = obj.get("base_fire_rate", 0.0)
        if isinstance(base, (dict, list)):
            base_vec = _weights_vector(base, catalog, "base_fire_rate")
        else:
            base_vec = np.full(len(catalog), _number(base, "base_fire_rate"))
        causes = []
        for i, c in enumerate(_expect(obj["latent_causes"], list, "latent_causes")):
            _expect(c, dict, "latent_causes entry")
            causes.append(
                LatentCause(
                    prevalence=_number(c["prevalence"], "prevalence"),
                    token_weights=_weights_vector(c["token_weights"], catalog, "token_weights"),
                    severity=_number(c["severity"], "severity"),
                    name=c.get("name", f"cause_{i}"),
                )
            )
        rating = _expect(obj.get("rating", {}), dict, "rating")
        platform = _expect(obj.get("platform", "desktop"), str, "platform")
        if _SURROGATE.search(platform):  # refused before generate writes a line of it
            raise DataError(f"config value 'platform' must be UTF-8 text, got {platform!r}")
        return GeneratorConfig(
            n_calls=_number(obj["n_calls"], "n_calls", int),
            catalog=catalog,
            latent_causes=tuple(causes),
            base_fire_rate=base_vec,
            rating_intercept=_number(rating.get("intercept", 0.0), "intercept"),
            rating_severity_slope=_number(rating.get("severity_slope", 1.0), "severity_slope"),
            rating_rate=_number(rating.get("rate", 1.0), "rate"),
            platform=platform,
            seed=_seed(obj.get("seed", 0)),
        )
    except KeyError as exc:
        raise DataError(f"config missing required key {exc.args[0]!r}") from None
    except ParameterError as exc:
        raise DataError(f"config: {exc}") from None


def experiment_from_config(
    obj: dict,
) -> tuple[GeneratorConfig, dict[str, PresentationConfig], dict[str, int]]:
    """Parse a full experiment config: generator plus optional per-arm presentations.

    Returns (generator, {arm: presentation}, {arm: seed}); arm seeds
    default to the generator seed offset by the arm's position.
    """
    gen = generator_from_config(obj)
    arms: dict[str, PresentationConfig] = {}
    arm_seeds: dict[str, int] = {}
    arm_objs = _expect(obj.get("arms", {}), dict, "arms")
    for i, (arm, arm_obj) in enumerate(sorted(arm_objs.items())):
        if arm not in ("control", "treatment"):
            raise DataError(f"arm name must be control or treatment, got {arm!r}")
        arms[arm] = presentation_from_config(arm_obj)
        arm_seeds[arm] = _seed(arm_obj.get("seed", gen.seed + 1000 + i))
    return gen, arms, arm_seeds


def load_experiment_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config parse error at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return experiment_from_config(obj)


# -- bundled demo ---------------------------------------------------------


def demo_experiment_config() -> dict:
    """Declarative config for the bundled demo: 15 tokens, 5 latent causes.

    Each cause fires one flagship token hard plus weaker companions; the
    most prevalent cause fires a near-duplicate token pair, giving
    redundancy-blind strategies something to stumble over. Every cause
    also leaks slightly onto the other flagships, so token signals
    overlap rather than partition. Two tokens fire on base rate alone
    and carry no label information. Single causes land in the
    severity band where one is usually enough for a poor rating and a
    second adds little, keeping marginal token value diminishing.
    """
    cross = 0.12
    flagships = {
        "Video kept freezing": 0.15,
        "I could not hear any sound": 0.11,
        "I heard noise in the call": 0.08,
        "I could not see any video": 0.055,
        "The call ended unexpectedly": 0.035,
    }

    def weights(own: dict) -> dict:
        tw = dict(own)
        for label in flagships:
            tw.setdefault(label, cross)
        return tw

    return {
        "n_calls": 100000,
        "seed": 20260809,
        "catalog": "default",
        "base_fire_rate": 0.006,
        "latent_causes": [
            {
                "name": "video_freeze",
                "prevalence": 0.15,
                "severity": 2.0,
                "token_weights": weights(
                    {
                        "Video kept freezing": 0.95,
                        "Video stopped unexpectedly": 0.80,
                        "Image quality was poor": 0.22,
                        "Video was ahead or behind audio": 0.10,
                    }
                ),
            },
            {
                # the top-of-survey token keeps selection headroom (weight
                # well below 1/1.4) so the position boost is not clipped away
                "name": "no_audio",
                "prevalence": 0.11,
                "severity": 2.0,
                "token_weights": weights(
                    {
                        "I could not hear any sound": 0.65,
                        "The other side could not hear any sound": 0.22,
                        "Volume was low": 0.22,
                    }
                ),
            },
            {
                "name": "audio_degradation",
                "prevalence": 0.08,
                "severity": 2.0,
                "token_weights": weights(
                    {
                        "I heard noise in the call": 0.95,
                        "Speech was not natural or sounded distorted": 0.22,
                        "I heard echo in the call": 0.22,
                    }
                ),
            },
            {
                "name": "no_video",
                "prevalence": 0.055,
                "severity": 2.0,
                "token_weights": weights(
                    {
                        "I could not see any video": 0.95,
                        "The other side could not see my video": 0.22,
                    }
                ),
            },
            {
                "name": "call_drop",
                "prevalence": 0.035,
                "severity": 2.0,
                "token_weights": weights(
                    {
                        "The call ended unexpectedly": 0.95,
                        "We kept interrupting each other": 0.22,
                    }
                ),
            },
        ],
        "rating": {"intercept": 0.0, "severity_slope": 1.5, "rate": 1.0},
        "arms": {
            "control": {
                "order_policy": "fixed",
                "panel_policy": "fixed",
                "position_multipliers": [DEFAULT_TOP_MULTIPLIER],
                "seed": 101,
            },
            "treatment": {
                "order_policy": "randomized",
                "panel_policy": "swapped_random",
                "position_multipliers": [DEFAULT_TOP_MULTIPLIER],
                "seed": 202,
            },
        },
    }


def demo_generator_config() -> GeneratorConfig:
    return generator_from_config(demo_experiment_config())


def demo_dataset() -> TruthDataset:
    """The fixed-seed demo truth dataset used by examples and acceptance checks."""
    return generate_truth(demo_generator_config())
