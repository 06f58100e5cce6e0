"""Workload inputs built from the benchmark seed.

The benchmark writes every input the program sees: the report configs and,
for report-large, the corpus CSV and its registry. The corpus generator here
is the benchmark's own (a vectorised copy of the recombination process the
package's synthesiser describes), so the report-large inputs do not move
when the package's generator changes.
"""

import csv
import json
from pathlib import Path

import numpy as np

YEARS = (2006, 2015)
SHARE = 0.3
BOOST = 2.0
BASE_RATE = 0.15
RECOMBINATION_RATE = 0.6
BASE_FLIPS = 1.0
BURN_IN_YEARS = 2
GENRES = ("strategy", "family", "wargames", "thematic", "party",
          "abstract/strategy", "childrens", "customizable")
MIN_AGES = (6, 8, 10, 12, 14, 16, 18)
CSV_COLUMNS = ("id", "year", "mechanisms", "crowdfunded", "genre", "team_size", "debut",
               "complexity", "playing_time", "min_players", "max_players", "min_age",
               "is_expansion", "is_adult", "num_ratings", "parent_id")

DEMO = {
    "dimension": 16, "games_per_year": 500, "spans": [1, 2, 5],
    "snapshot_years": [2011, 2015], "min_type_count": 4,
    "formats": ["csv", "json", "graphml", "svg"],
    # the README config's layout seed; Kamada-Kawai time depends on the start
    # positions as much as on the graph, so only the corpus changes with the seed
    "layout_seed": 42,
}
LARGE = {
    "dimension": 51, "games_per_year": 2000, "spans": [1, 2, 5],
    "snapshot_years": [2009, 2012, 2015], "min_type_count": 2, "last_complete_year": 2015,
}


def demo_config(seed: int) -> dict:
    """README quick-start config: synthesis runs inside the timed program."""
    return {
        "spans": DEMO["spans"],
        "stats_span": 2,
        "formats": DEMO["formats"],
        "landscape": {"snapshot_years": DEMO["snapshot_years"],
                      "min_type_count": DEMO["min_type_count"], "seed": DEMO["layout_seed"]},
        "synth": {"dimension": DEMO["dimension"], "year_start": YEARS[0], "year_end": YEARS[1],
                  "games_per_year": DEMO["games_per_year"], "crowdfunded_share_by_year": SHARE,
                  "base_mechanism_rate": BASE_RATE, "recombination_rate": RECOMBINATION_RATE,
                  "base_mutation_bits": BASE_FLIPS, "novelty_boost": BOOST, "seed": seed},
    }


def large_config(seed: int, corpus: Path, registry: Path) -> dict:
    """Real-corpus config over a CSV the benchmark generated."""
    return {
        "corpus_path": str(corpus),
        "registry_path": str(registry),
        "spans": LARGE["spans"],
        "stats_span": 2,
        "last_complete_year": LARGE["last_complete_year"],
        "landscape": {"snapshot_years": LARGE["snapshot_years"],
                      "min_type_count": LARGE["min_type_count"], "seed": seed},
    }


def generate_matrix(seed: int, dimension: int, games_per_year: int):
    """(years, crowdfunded, vectors) of a recombination corpus with a novelty boost.

    After the burn-in years a record copies a uniform vector from the two
    previous years with probability RECOMBINATION_RATE and flips
    Poisson(BASE_FLIPS + BOOST * crowdfunded) distinct bits; otherwise it
    draws fresh bits at BASE_RATE.
    """
    rng = np.random.default_rng(seed)
    blocks, years, funded = [], [], []
    for year in range(YEARS[0], YEARS[1] + 1):
        n = games_per_year
        cf = rng.random(n) < SHARE
        fresh = (rng.random((n, dimension)) < BASE_RATE).astype(np.uint8)
        if year - YEARS[0] >= BURN_IN_YEARS:
            pool = np.concatenate(blocks[-2:])
            recombine = rng.random(n) < RECOMBINATION_RATE
            source = pool[rng.integers(len(pool), size=n)]
            n_flips = np.minimum(rng.poisson(BASE_FLIPS + BOOST * cf), dimension)
            # rank of a uniform key per bit: the n_flips lowest ranks are distinct bits
            ranks = np.argsort(np.argsort(rng.random((n, dimension)), axis=1), axis=1)
            mutated = source ^ (ranks < n_flips[:, None]).astype(np.uint8)
            fresh = np.where(recombine[:, None], mutated, fresh)
        blocks.append(fresh)
        years.append(np.full(n, year))
        funded.append(cf)
    return np.concatenate(years), np.concatenate(funded), np.concatenate(blocks)


def write_large_inputs(seed: int, work: Path):
    """Write report-large's registry, corpus CSV and config; return the config path."""
    dim, per_year = LARGE["dimension"], LARGE["games_per_year"]
    names = [f"Mechanism {j:02d}" for j in range(dim)]
    registry = work / "registry.txt"
    registry.write_text("\n".join(names) + "\n", encoding="utf-8")
    years, funded, matrix = generate_matrix(seed, dim, per_year)
    n = len(years)
    rng = np.random.default_rng([seed, 1])
    genre = rng.integers(len(GENRES), size=n)
    team = 1 + rng.poisson(0.6, size=n)
    debut = rng.random(n) < 0.35
    complexity = np.round(rng.uniform(1.0, 4.5, size=n), 2)
    playing = rng.integers(0, 241, size=n)
    min_players = 1 + rng.integers(0, 3, size=n)
    max_players = min_players + rng.integers(0, 5, size=n)
    min_age = rng.integers(len(MIN_AGES), size=n)
    expansion = rng.random(n) < 0.10
    adult = rng.random(n) < 0.02
    ratings = 10 + rng.poisson(150.0, size=n)
    corpus = work / "corpus.csv"
    with open(corpus, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for i in range(n):
            writer.writerow([
                f"g{years[i]}-{i:05d}", years[i],
                ";".join(names[j] for j in np.flatnonzero(matrix[i])),
                int(funded[i]), GENRES[genre[i]], team[i], int(debut[i]),
                f"{complexity[i]:.2f}", playing[i], min_players[i], max_players[i],
                MIN_AGES[min_age[i]], int(expansion[i]), int(adult[i]), ratings[i], "",
            ])
    config = work / "config.json"
    config.write_text(json.dumps(large_config(seed, corpus, registry), indent=2), encoding="utf-8")
    return config, n
