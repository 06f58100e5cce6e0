"""Output checks with the benchmark's own code: artifacts, digest, brute-force scores, models.

Every function returns a list of problems; an empty list means the check passed.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np

TOLERANCE = 5e-7  # scores.csv carries 6 decimals
STATS_ARTIFACTS = ("descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
                   "marginal_means.csv")
BOOSTED_MODELS = ("Distinctiveness", "Novelty")
SIGNIFICANCE = 0.001


def artifact_names(formats, snapshot_years, synth: bool):
    """Every file the README Outputs table promises for this run."""
    names = ["corpus_filtered.csv", "registry.txt", "filter_report.json", "scores.csv",
             "centroids.csv", *STATS_ARTIFACTS]
    names += [f"landscape_{y}.{fmt}" for y in snapshot_years for fmt in formats if fmt != "csv"]
    if synth:
        names += ["synth_corpus.csv", "synth_registry.txt"]
    return sorted(names)


def missing_artifacts(out: Path, names):
    return [f"missing or empty artifact {n}" for n in names
            if not (out / n).is_file() or (out / n).stat().st_size == 0]


def digest(out: Path, names) -> str:
    """sha256 over the artifact set; paths are left out, so checkouts compare."""
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def mechanisms(row) -> frozenset:
    return frozenset(filter(None, row["mechanisms"].split(";")))


def protocol_keeps(year: int, num_ratings: int, n_mechanisms: int, team_size: int) -> bool:
    """The default filter protocol.

    The generated inputs have no parent ids, so the trivial-expansion rule never fires.
    """
    return year >= 2006 and num_ratings >= 10 and n_mechanisms >= 2 and team_size >= 1


def protocol_rows(input_rows):
    """The input rows the default filter protocol keeps, in input order."""
    return [r for r in input_rows if protocol_keeps(int(r["year"]), int(r["num_ratings"]),
                                                    len(mechanisms(r)), int(r["team_size"]))]


def corpus_arrays(rows):
    """(ids, years, matrix) of corpus rows, one column per mechanism name the rows use.

    Hamming distances depend neither on the column order nor on names no row
    has, so the program's registry is not needed.
    """
    names = sorted(frozenset().union(*map(mechanisms, rows)))
    index = {name: j for j, name in enumerate(names)}
    matrix = np.zeros((len(rows), len(names)), dtype=np.uint8)
    for i, row in enumerate(rows):
        for name in mechanisms(row):
            matrix[i, index[name]] = 1
    return [row["id"] for row in rows], np.array([int(row["year"]) for row in rows]), matrix


def window_scores(matrix, years, i: int, span: int, last_complete_year):
    """Brute-force (mean, min, resonance) of record i; None when the past window is empty."""
    year = years[i]
    past = matrix[(years >= year - span) & (years < year)]
    if len(past) == 0:
        return None
    dist = np.count_nonzero(past != matrix[i], axis=1)
    mean = int(dist.sum()) / len(past)
    res = None
    if last_complete_year is not None and year + span <= last_complete_year:
        future = matrix[(years > year) & (years <= year + span)]
        if len(future):
            res = mean - int(np.count_nonzero(future != matrix[i], axis=1).sum()) / len(future)
    return mean, int(dist.min()), res


def score_problems(expected, distinctiveness, novelty_count, resonance, label: str):
    """Compare one score row against its brute-force triple."""
    if expected is None:
        return [f"{label}: scored although its past window is empty"]
    mean, low, res = expected
    problems = []
    if abs(distinctiveness - mean) > TOLERANCE:
        problems.append(f"{label}: distinctiveness {distinctiveness} != brute force {mean:.6f}")
    if novelty_count != low:
        problems.append(f"{label}: novelty_count {novelty_count} != brute force {low}")
    if (res is None) != (resonance is None) or (
            res is not None and abs(resonance - res) > TOLERANCE):
        problems.append(f"{label}: resonance {resonance} != brute force {res}")
    return problems


def check_filter(expected_rows, kept_rows):
    """The filtered cache holds the input rows the protocol keeps, with their years and mechanisms."""
    if [r["id"] for r in expected_rows] != [r["id"] for r in kept_rows]:
        return [f"filtered corpus has {len(kept_rows)} rows, the filter protocol keeps "
                f"{len(expected_rows)} (or the ids differ)"]
    changed = [k["id"] for e, k in zip(expected_rows, kept_rows)
               if int(e["year"]) != int(k["year"]) or mechanisms(e) != mechanisms(k)]
    return [f"{len(changed)} filtered rows differ from the input in year or mechanisms, "
            f"first {changed[0]}"] if changed else []


def check_scores(out: Path, expected_rows, spans, last_complete_year, rng, sample: int = 200):
    """scores.csv row count and a sample of rows against a brute-force Hamming scan.

    The scan runs over expected_rows, the input rows the filter protocol keeps,
    so it does not depend on the program's filtered cache or registry.
    """
    ids, years, matrix = corpus_arrays(expected_rows)
    if last_complete_year is None:
        last_complete_year = int(years.max())
    row_of = {rid: i for i, rid in enumerate(ids)}
    scores = read_rows(out / "scores.csv")
    counts = {y: int((years == y).sum()) for y in np.unique(years)}
    expected_count = sum(n for s in spans for y, n in counts.items()
                         if any(counts.get(p, 0) for p in range(y - s, y)))
    problems = []
    if len(scores) != expected_count:
        problems.append(f"scores.csv has {len(scores)} rows, expected {expected_count}")
    for k in rng.choice(len(scores), size=min(sample, len(scores)), replace=False):
        row = scores[int(k)]
        label = f"scores.csv {row['id']} span {row['span']}"
        if row["id"] not in row_of:
            problems.append(f"{label}: not a record the filter protocol keeps")
            continue
        res = None if row["resonance"] == "NA" else float(row["resonance"])
        expected = window_scores(matrix, years, row_of[row["id"]], int(row["span"]),
                                 last_complete_year)
        problems += score_problems(expected, float(row["distinctiveness"]),
                                   int(row["novelty_count"]), res, label)
    return problems


def check_models(out: Path):
    """crowdfunded is positive with p < 0.001 in the boosted models of models.csv."""
    rows = {r["model"]: r for r in read_rows(out / "models.csv") if r["term"] == "crowdfunded"}
    problems = []
    for model in BOOSTED_MODELS:
        row = rows.get(model)
        if row is None:
            problems.append(f"models.csv has no crowdfunded row for {model}")
        elif not (float(row["coef"]) > 0 and float(row["p"]) < SIGNIFICANCE):
            problems.append(f"{model}: crowdfunded coef {row['coef']} p {row['p']} "
                            f"is not positive with p < {SIGNIFICANCE}")
    return problems
