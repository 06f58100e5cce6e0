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

from .corpus import FeatureRegistry, RecordSet, canonical_registry
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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


def synthetic_registry(dimension: int) -> FeatureRegistry:
    if dimension == 51:
        return canonical_registry()
    return FeatureRegistry(tuple(f"Mechanism {j:02d}" for j in range(dimension)))


def _round2(x: np.ndarray) -> np.ndarray:
    """round(v, 2) for each v of x, bit for bit, for |x| < 1e7: both divide the integer
    nearest 100 * v by 100, correctly rounded. x * 100 is off by far less than 1e-6, so
    rint finds that integer except within 1e-6 of a half, where Python's round takes over."""
    scaled = x * 100
    out = np.rint(scaled) / 100
    near = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6)
    out[near] = [round(v, 2) for v in x[near].tolist()]
    return out


def _ranks(keys: np.ndarray) -> np.ndarray:
    """keys.argsort(1).argsort(1), from one argsort and a scatter of its inverse permutation."""
    ranks = np.empty(keys.shape, dtype=np.intp)
    np.put_along_axis(ranks, keys.argsort(axis=1), np.arange(keys.shape[1]), axis=1)
    return ranks


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

    ids, blocks, controls = [], [], []
    suffixes = [f"{i:04d}" for i in range(n)]
    for year in range(cfg.year_start, cfg.year_end + 1):
        # each control drawn into its CONTROLS column; complexity is rounded
        # by _round2, which gives the bits of Python's round(x, 2)
        drawn = {"crowdfunded": rng_ctrl.random(n) < shares[year]}
        drawn["min_players"] = 1 + rng_ctrl.integers(0, 3, size=n)
        drawn["genre"] = np.array(GENRES, dtype=object)[rng_ctrl.integers(len(GENRES), size=n)]
        drawn["team_size"] = 1 + rng_ctrl.poisson(0.6, size=n)
        drawn["debut"] = rng_ctrl.random(n) < 0.35
        drawn["complexity"] = _round2(rng_ctrl.uniform(1.0, 4.5, size=n))
        drawn["playing_time"] = rng_ctrl.integers(0, 241, size=n).astype(float)
        drawn["max_players"] = drawn["min_players"] + rng_ctrl.integers(0, 5, size=n)
        drawn["min_age"] = np.array(MIN_AGES)[rng_ctrl.integers(len(MIN_AGES), size=n)]
        # expansions carry no parent_id, so the trivial-expansion filter
        # keeps them; the flag just gives the covariate spread
        drawn["is_expansion"] = rng_ctrl.random(n) < 0.10
        drawn["is_adult"] = rng_ctrl.random(n) < 0.02
        drawn["num_ratings"] = 10 + rng_ctrl.poisson(150.0, size=n)
        drawn["parent_id"] = np.full(n, None, dtype=object)
        controls.append(drawn)

        vectors = np.empty((n, dim), dtype=np.uint8)
        recombine = np.zeros(n, dtype=bool)
        if year >= cfg.year_start + BURN_IN_YEARS:
            recombine = rng_vec.random(n) < cfg.recombination_rate
            pool = np.concatenate(blocks[-2:])
            rows = np.flatnonzero(recombine)
            source = pool[rng_vec.integers(len(pool), size=len(rows))]
            mean_flips = np.where(drawn["crowdfunded"][rows],
                                  cfg.base_mutation_bits + cfg.novelty_boost,
                                  cfg.base_mutation_bits)
            n_flips = rng_vec.poisson(np.minimum(mean_flips, POISSON_MEAN_MAX))
            # the n_flips lowest ranks of one row of uniform keys are distinct
            # bits; a count of dim or more flips them all
            ranks = _ranks(rng_vec.random((len(rows), dim)))
            vectors[rows] = source ^ (ranks < n_flips[:, None])
        fresh = ~recombine
        vectors[fresh] = rng_vec.random((int(fresh.sum()), dim)) < cfg.base_mechanism_rate
        blocks.append(vectors)
        ids.extend(map(f"syn-{year}-".__add__, suffixes))
    columns = {name: np.concatenate([drawn[name] for drawn in controls]) for name in controls[0]}
    years = np.repeat(np.arange(cfg.year_start, cfg.year_end + 1), n)
    return RecordSet(registry, ids, years, np.concatenate(blocks), columns)
