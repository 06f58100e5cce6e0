"""Synthetic corpora with a dialled-in novelty differential between groups.

Games arrive year by year. Each new game either samples a fresh Bernoulli
feature vector or recombines: copy the vector of a uniformly chosen game
from the previous two years and flip a Poisson number of distinct bits. The
mutation mean is base_mutation_bits for traditional games plus novelty_boost
for crowdfunded ones; the boost is the knob an end-to-end recovery run must
detect, and zero boost makes the groups exchangeable by construction.

Controls are sampled independently of funding, so they cannot confound the
group effect. Draws come from two substreams of one seed, one for vectors
and one for controls, and each year is drawn as arrays in a fixed order,
making output byte-identical for a fixed config.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .corpus import FeatureRegistry, Record, RecordSet, canonical_registry
from .errors import ConfigError

GENRES = (
    "strategy",
    "family",
    "wargames",
    "thematic",
    "party",
    "abstract/strategy",
    "childrens",
    "customizable",
)

MIN_AGES = (6, 8, 10, 12, 14, 16, 18)

BURN_IN_YEARS = 2

# numpy's Poisson sampler rejects larger means; a mean anywhere near it
# already flips every bit, and no smaller mean is changed by the clip
POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class SynthConfig:
    dimension: int = 51
    year_start: int = 2006
    year_end: int = 2015
    games_per_year: int = 500
    crowdfunded_share_by_year: Union[float, Mapping[int, float]] = 0.3
    base_mechanism_rate: float = 0.15
    recombination_rate: float = 0.6
    base_mutation_bits: float = 1.0
    novelty_boost: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.year_end < self.year_start:
            raise ConfigError("year_end must be >= year_start")
        if self.games_per_year < 1:
            raise ConfigError("games_per_year must be >= 1")
        if not 0.0 <= self.base_mechanism_rate <= 1.0:
            raise ConfigError("base_mechanism_rate must be in [0, 1]")
        if not 0.0 <= self.recombination_rate <= 1.0:
            raise ConfigError("recombination_rate must be in [0, 1]")
        for name in ("base_mutation_bits", "novelty_boost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")
        shares = self.shares()
        for year, share in shares.items():
            if not 0.0 <= share <= 1.0:
                raise ConfigError(f"crowdfunded share for {year} must be in [0, 1]")

    def shares(self) -> dict:
        """Per-year crowdfunded share, every simulated year covered."""
        years = range(self.year_start, self.year_end + 1)
        raw = self.crowdfunded_share_by_year
        if isinstance(raw, (int, float)):
            return {y: float(raw) for y in years}
        out = {}
        for y in years:
            if y not in raw:
                raise ConfigError(f"crowdfunded_share_by_year missing year {y}")
            out[y] = float(raw[y])
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SynthConfig":
        kwargs = dict(payload)
        share = kwargs.get("crowdfunded_share_by_year")
        if isinstance(share, Mapping):
            kwargs["crowdfunded_share_by_year"] = {int(y): float(s) for y, s in share.items()}
        return cls(**kwargs)

    def to_dict(self) -> dict:
        share = self.crowdfunded_share_by_year
        if isinstance(share, Mapping):
            share = {str(y): float(s) for y, s in sorted(share.items())}
        return {
            "dimension": self.dimension,
            "year_start": self.year_start,
            "year_end": self.year_end,
            "games_per_year": self.games_per_year,
            "crowdfunded_share_by_year": share,
            "base_mechanism_rate": self.base_mechanism_rate,
            "recombination_rate": self.recombination_rate,
            "base_mutation_bits": self.base_mutation_bits,
            "novelty_boost": self.novelty_boost,
            "seed": self.seed,
        }


def synthetic_registry(dimension: int) -> FeatureRegistry:
    if dimension == 51:
        return canonical_registry()
    return FeatureRegistry(tuple(f"Mechanism {j:02d}" for j in range(dimension)))


def generate_corpus(cfg: SynthConfig) -> RecordSet:
    """Simulate one corpus; deterministic for a fixed config.

    The first two simulated years are burn-in with fresh vectors only (there
    is no recombination source yet). Recombination then copies a uniform
    game from the previous two years and flips Poisson-many distinct bits,
    truncated to the dimension. Each year is drawn as arrays: its controls
    from one substream, its vectors from the other.
    """
    registry = synthetic_registry(cfg.dimension)
    shares = cfg.shares()
    # separate substreams so the mutation dial cannot shift funding flags or
    # controls: the same seed gives identical covariates at any novelty_boost
    vec_seed, ctrl_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_vec = np.random.default_rng(vec_seed)
    rng_ctrl = np.random.default_rng(ctrl_seed)
    dim, n = cfg.dimension, cfg.games_per_year

    records = []
    blocks = []
    for year in range(cfg.year_start, cfg.year_end + 1):
        crowdfunded = rng_ctrl.random(n) < shares[year]
        min_players = 1 + rng_ctrl.integers(0, 3, size=n)
        genre = rng_ctrl.integers(len(GENRES), size=n)
        team_size = 1 + rng_ctrl.poisson(0.6, size=n)
        debut = rng_ctrl.random(n) < 0.35
        complexity = rng_ctrl.uniform(1.0, 4.5, size=n)
        playing_time = rng_ctrl.integers(0, 241, size=n).astype(float)
        max_players = min_players + rng_ctrl.integers(0, 5, size=n)
        min_age = rng_ctrl.integers(len(MIN_AGES), size=n)
        # expansions carry no parent_id, so the trivial-expansion filter
        # keeps them; the flag just gives the covariate spread
        is_expansion = rng_ctrl.random(n) < 0.10
        is_adult = rng_ctrl.random(n) < 0.02
        num_ratings = 10 + rng_ctrl.poisson(150.0, size=n)

        vectors = np.empty((n, dim), dtype=np.uint8)
        recombine = np.zeros(n, dtype=bool)
        if year >= cfg.year_start + BURN_IN_YEARS:
            recombine = rng_vec.random(n) < cfg.recombination_rate
            pool = np.concatenate(blocks[-2:])
            rows = np.flatnonzero(recombine)
            source = pool[rng_vec.integers(len(pool), size=len(rows))]
            mean_flips = np.where(crowdfunded[rows],
                                  cfg.base_mutation_bits + cfg.novelty_boost,
                                  cfg.base_mutation_bits)
            n_flips = rng_vec.poisson(np.minimum(mean_flips, POISSON_MEAN_MAX))
            # the n_flips lowest ranks of one row of uniform keys are distinct
            # bits; a count of dim or more flips them all
            ranks = rng_vec.random((len(rows), dim)).argsort(axis=1).argsort(axis=1)
            vectors[rows] = source ^ (ranks < n_flips[:, None])
        fresh = ~recombine
        vectors[fresh] = rng_vec.random((int(fresh.sum()), dim)) < cfg.base_mechanism_rate
        blocks.append(vectors)

        # Record's field order after (id, year, vector); complexity takes
        # Python's round, as np.round can differ in the last ulp
        controls = zip(
            crowdfunded.tolist(),
            [GENRES[k] for k in genre.tolist()],
            team_size.tolist(),
            debut.tolist(),
            [round(x, 2) for x in complexity.tolist()],
            playing_time.tolist(),
            min_players.tolist(),
            max_players.tolist(),
            [MIN_AGES[k] for k in min_age.tolist()],
            is_expansion.tolist(),
            is_adult.tolist(),
            num_ratings.tolist(),
        )
        records.extend(Record(f"syn-{year}-{i:04d}", year, vectors[i], *values)
                       for i, values in enumerate(controls))
    return RecordSet(records, registry)
