"""Windowed innovation scores over binary feature vectors.

Three per-record measures, each against a look-back (or look-forward) window
of whole calendar years:

* distinctiveness: mean Hamming distance to every record in the past window;
* novelty: minimum Hamming distance to the past window, plus its binary
  indicator (did the record realize a combination unseen in the window);
* resonance: distinctiveness against the past minus distinctiveness against
  the future, positive when later records sit closer than earlier ones.

Same-year records are never part of a window. score_corpus is the one way
to score, and it runs on one exact kernel:

* distinctiveness and resonance come from window feature counts
  (FeatureProfile): a window's Hamming sum is an int64 dot product with its
  counts, divided once, so the cost is O(n*d) and no pairwise distance is
  formed. Each comparison year is counted once and those counts are summed
  per window;
* novelty packs vectors into ceil(d/64) uint64 words and takes the minimum
  XOR popcount over blocks of NOVELTY_BLOCK_ROWS focal rows, so its memory is
  bounded by block x window rows, not by focal x window.

The scores come back as a ScoreTable of columns, one array per score, built
from one block of arrays per (focal year, span); no object is made per row.

Results are exact integers (or one division of them), deterministic and
independent of scheduling.
"""

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import (
    RecordSet,
    _float_column,
    _format_number,
    _int_column,
    _parse_float,
    _parse_int,
    _raise_first,
    pack_rows,
)
from .errors import DimensionError, EmptyWindow, ParseError, SchemaError

PAST = "past"
FUTURE = "future"

SPAN_PRESETS = (1, 2, 5)
DEFAULT_SPAN = 2

# focal rows per XOR-popcount block of the novelty scan
NOVELTY_BLOCK_ROWS = 256


@dataclass(frozen=True)
class FeatureProfile:
    """Per-feature occurrence counts over one window; the route of every mean distance.

    The mean Hamming distance from a vector g to n window vectors expands to
    sum_j (g_j ? n - c_j : c_j) / n where c_j counts window records with
    feature j set, i.e. (c.sum() + g.(n - 2c)) / n. The numerator is taken in
    int64 and equals the brute-force pairwise sum exactly. score_corpus and
    distinctiveness_fast compute their means this way.
    """

    n: int
    counts: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.n and (self.counts.min() < 0 or self.counts.max() > self.n):
            raise ValueError("feature counts must lie in [0, n]")


@dataclass(frozen=True, eq=False)
class InnovationScores:
    """One ScoreTable row as Python scalars; resonance is None where absent."""

    record_id: str
    span_years: int
    distinctiveness: float
    novelty_count: int
    novelty_binary: bool
    resonance: Optional[float]


SCORE_COLUMNS = ("id", "span", "distinctiveness", "novelty_count", "novelty_binary", "resonance",
                 "resonance_available")


class ScoreTable:
    """Scores keyed by (record_id, span_years), held as columns in (id, span) order.

    `ids` (object), `spans` (int64), `distinctiveness` (float64),
    `novelty_count` (int64) and `resonance` (float64, NaN where absent) share
    row order, and `novelty_binary` derives from novelty_count. `unscored`
    lists the sorted (record_id, span) pairs whose past window was empty.
    `get` and iteration build InnovationScores views.
    """

    def __init__(self, ids, spans, distinctiveness, novelty_count, resonance, unscored: Iterable = ()):
        ids = np.asarray(ids, dtype=object)
        spans = np.asarray(spans, dtype=np.int64)
        order = np.lexsort((spans, ids))
        self.ids = ids[order]
        self.spans = spans[order]
        self.distinctiveness = np.asarray(distinctiveness, dtype=np.float64)[order]
        self.novelty_count = np.asarray(novelty_count, dtype=np.int64)[order]
        self.resonance = np.asarray(resonance, dtype=np.float64)[order]
        self.unscored = tuple(sorted(unscored))
        repeats = np.flatnonzero((self.ids[1:] == self.ids[:-1]) & (self.spans[1:] == self.spans[:-1]))
        if len(repeats):
            i = int(repeats[0])
            raise ValueError(f"duplicate score row {(self.ids[i], self.spans.item(i))}")
        # min <= mean over the same window; exact with integer-sum arithmetic
        if not (self.distinctiveness >= self.novelty_count).all():
            raise ValueError("a novelty_count exceeds its distinctiveness")

    @property
    def novelty_binary(self) -> np.ndarray:
        return self.novelty_count > 0

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return (self._view(i) for i in range(len(self)))

    def _view(self, i: int) -> InnovationScores:
        novelty, resonance = self.novelty_count.item(i), self.resonance.item(i)
        return InnovationScores(self.ids[i], self.spans.item(i), self.distinctiveness.item(i), novelty,
                                novelty > 0, None if math.isnan(resonance) else resonance)

    def get(self, record_id: str, span_years: int) -> Optional[InnovationScores]:
        lo = int(np.searchsorted(self.ids, record_id, side="left"))
        hi = int(np.searchsorted(self.ids, record_id, side="right"))
        hit = np.flatnonzero(self.spans[lo:hi] == span_years)
        return self._view(lo + int(hit[0])) if len(hit) else None

    def write_csv(self, path) -> None:
        """Write one row per score; floats use round-trip repr, so no precision is lost."""
        has_res = ~np.isnan(self.resonance)
        resonance = ["NA" if math.isnan(r) else _format_number(r) for r in self.resonance.tolist()]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SCORE_COLUMNS)
            writer.writerows(zip(
                self.ids.tolist(), self.spans.tolist(), map(_format_number, self.distinctiveness.tolist()),
                self.novelty_count.tolist(), self.novelty_binary.astype(np.int64).tolist(), resonance,
                has_res.astype(np.int64).tolist(),
            ))


def read_scores_csv(path) -> ScoreTable:
    """Inverse of ScoreTable.write_csv; every score reads back exactly as written.

    novelty_binary and resonance_available restate novelty_count and
    resonance and are not read back. A missing column raises SchemaError; a
    short row, a bad cell or a table ScoreTable rejects raises ParseError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in SCORE_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing score columns {missing}")
        rows = list(reader)
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
    cells = dict(zip(header, list(zip(*rows)) or [()] * len(header)))

    def parsed(column, convert, parse):
        values, bad = convert(cells[column])
        _raise_first(bad, lambda i: parse(cells[column][i], i + 2, column))
        return values

    def parse_resonance(value, row_no, column):
        return math.nan if value == "NA" else _parse_float(value, row_no, column)

    def resonance_column(values):
        na = np.array([value == "NA" for value in values], dtype=bool)
        out, bad = _float_column(["nan" if value == "NA" else value for value in values])
        out[na] = math.nan
        return out, bad & ~na

    try:
        return ScoreTable(cells["id"], parsed("span", _int_column, _parse_int),
                          parsed("distinctiveness", _float_column, _parse_float),
                          parsed("novelty_count", _int_column, _parse_int),
                          parsed("resonance", resonance_column, parse_resonance))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def hamming(a, b) -> int:
    """Number of positions where two equal-length binary vectors differ."""
    va, vb = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if va.shape != vb.shape:
        raise DimensionError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return int(np.count_nonzero(va != vb))


def cross_hamming(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between row vectors of A (m,d) and B (k,d).

    The scores never form this matrix; it is the reference that tests compare
    the scoring kernel with. Uses popcount(a) + popcount(b) - 2 a.b; the dot
    products run through a float BLAS matmul whose intermediate values are
    small exact integers, so the int64 result is exact regardless of
    accumulation order.
    """
    if A.shape[1] != B.shape[1]:
        raise DimensionError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    pa = A.sum(axis=1, dtype=np.int64)
    pb = B.sum(axis=1, dtype=np.int64)
    cross = np.rint(A.astype(np.float64) @ B.T.astype(np.float64)).astype(np.int64)
    return pa[:, None] + pb[None, :] - 2 * cross


def window_years(focal_year: int, span: int, direction: str):
    if direction == PAST:
        return focal_year - span, focal_year - 1
    if direction == FUTURE:
        return focal_year + 1, focal_year + span
    raise ValueError(f"direction must be {PAST!r} or {FUTURE!r}")


def build_profile(records: RecordSet, year_lo: int, year_hi: int) -> FeatureProfile:
    rows = records.rows_in_years(year_lo, year_hi)
    counts = records.matrix[rows].sum(axis=0, dtype=np.int64) if len(rows) else np.zeros(
        records.registry.dimension, dtype=np.int64
    )
    return FeatureProfile(n=int(len(rows)), counts=counts)


def _window_profile(year_profiles: Mapping[int, FeatureProfile], year_lo: int, year_hi: int,
                    dimension: int) -> FeatureProfile:
    """Profile of [year_lo, year_hi] as the sum of the single-year profiles it covers."""
    parts = [p for y, p in year_profiles.items() if year_lo <= y <= year_hi]
    counts = sum((p.counts for p in parts), np.zeros(dimension, dtype=np.int64))
    return FeatureProfile(n=sum(p.n for p in parts), counts=counts)


def _distance_sums(bits: np.ndarray, profile: FeatureProfile) -> np.ndarray:
    """Exact int64 sum of Hamming distances from each row of `bits` (k, d) to the window."""
    counts = profile.counts
    return int(counts.sum()) + bits @ (profile.n - 2 * counts)


def _min_distances(focal: np.ndarray, window: np.ndarray, dimension: int) -> np.ndarray:
    """Minimum Hamming distance from each packed focal row to the (non-empty) packed window.

    Works through NOVELTY_BLOCK_ROWS focal rows at a time and sums the
    per-word popcounts into the smallest unsigned type that holds
    `dimension`; temporaries take about 10 bytes per (block row, window row).
    """
    acc = np.min_scalar_type(dimension)
    columns = [np.ascontiguousarray(window[:, w]) for w in range(window.shape[1])]
    out = np.empty(len(focal), dtype=np.int64)
    for lo in range(0, len(focal), NOVELTY_BLOCK_ROWS):
        block = focal[lo : lo + NOVELTY_BLOCK_ROWS]
        dist = np.bitwise_count(block[:, :1] ^ columns[0]).astype(acc, copy=False)
        for w in range(1, len(columns)):
            dist += np.bitwise_count(block[:, w : w + 1] ^ columns[w])
        out[lo : lo + len(block)] = dist.min(axis=1)
    return out


def distinctiveness_fast(g, profile: FeatureProfile) -> float:
    """Mean distance from g to the profile's window; equals the pairwise mean exactly."""
    if profile.n == 0:
        raise EmptyWindow("comparison window is empty")
    bits = np.asarray(g, dtype=np.uint8)
    if len(bits) != len(profile.counts):
        raise DimensionError(f"dimension mismatch: {len(bits)} vs {len(profile.counts)}")
    return int(_distance_sums(bits[None, :], profile)[0]) / profile.n


def score_corpus(
    records: RecordSet,
    spans: Sequence[int] = (DEFAULT_SPAN,),
    last_complete_year: Optional[int] = None,
) -> ScoreTable:
    """Score every record against the other records of the set, for every window length.

    Spans are window lengths in whole years. Records whose past window is
    empty are listed in ScoreTable.unscored instead of receiving a row.
    Resonance is absent unless the forward window is fully covered
    (<= last_complete_year) and non-empty.
    """
    dimension = records.registry.dimension
    max_span = max(spans, default=0)
    year_profiles = {y: build_profile(records, y, y) for y in records.year_rows}
    packed = pack_rows(records.matrix)
    # one (rows, span, distinctiveness, novelty_count, resonance) block per scored (year, span)
    blocks = []
    unscored = []
    for year, focal_rows in sorted(records.year_rows.items()):
        bits, focal = records.matrix[focal_rows], packed[focal_rows]
        # a window's minimum is the minimum over its years, so each
        # (focal year, comparison year) block is scanned once for all spans
        year_mins = {
            y: _min_distances(focal, packed[comp_rows], dimension)
            for y, comp_rows in records.year_rows.items()
            if year - max_span <= y < year
        }
        for span in spans:
            past_lo, past_hi = window_years(year, span, PAST)
            past = _window_profile(year_profiles, past_lo, past_hi, dimension)
            if past.n == 0:
                unscored.extend((records.ids[i], span) for i in focal_rows)
                continue
            sums = _distance_sums(bits, past)
            mins = np.minimum.reduce([m for y, m in year_mins.items() if y >= past_lo])

            res_vals = np.full(len(focal_rows), np.nan)
            if last_complete_year is not None and year + span <= last_complete_year:
                future = _window_profile(year_profiles, *window_years(year, span, FUTURE), dimension)
                if future.n:
                    res_vals = sums / past.n - _distance_sums(bits, future) / future.n
            blocks.append((focal_rows, np.full(len(focal_rows), span), sums / past.n, mins, res_vals))
    rows, span_col, dist, nov, res = (np.concatenate(c) for c in zip(*blocks)) if blocks else ([],) * 5
    return ScoreTable(np.asarray(records.ids, dtype=object)[rows], span_col, dist, nov, res, unscored)
