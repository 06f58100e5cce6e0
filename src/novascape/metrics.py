"""Windowed innovation scores over binary feature vectors.

Three per-record measures, each against a look-back (or look-forward) window
of whole calendar years:

* distinctiveness: mean Hamming distance to every record in the past window;
* novelty: minimum Hamming distance to the past window, plus its binary
  indicator (did the record realize a combination unseen in the window);
* resonance: distinctiveness against the past minus distinctiveness against
  the future, positive when later records sit closer than earlier ones.

Same-year records are never part of a window. Every entry point runs on one
exact kernel:

* distinctiveness and resonance come from window feature counts
  (FeatureProfile): a window's Hamming sum is an int64 dot product with its
  counts, divided once, so the cost is O(n*d) and no pairwise distance is
  formed. score_corpus counts each comparison year once and sums those counts
  per window;
* novelty packs vectors into ceil(d/64) uint64 words and takes the minimum
  XOR popcount over blocks of NOVELTY_BLOCK_ROWS focal rows, so its memory is
  bounded by block x window rows, not by focal x window.

Results are exact integers (or one division of them), deterministic and
independent of scheduling.
"""

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Record, RecordSet, _format_number
from .errors import DimensionError, EmptyWindow

PAST = "past"
FUTURE = "future"

SPAN_PRESETS = (1, 2, 5)
DEFAULT_SPAN = 2

# focal rows per XOR-popcount block of the novelty scan
NOVELTY_BLOCK_ROWS = 256


def _as_vector(g) -> np.ndarray:
    return g.vector if isinstance(g, Record) else np.asarray(g, dtype=np.uint8)


@dataclass(frozen=True)
class FeatureProfile:
    """Per-feature occurrence counts over one window; the route of every mean distance.

    The mean Hamming distance from a vector g to n window vectors expands to
    sum_j (g_j ? n - c_j : c_j) / n where c_j counts window records with
    feature j set, i.e. (c.sum() + g.(n - 2c)) / n. The numerator is taken in
    int64 and equals the brute-force pairwise sum exactly. distinctiveness,
    resonance and score_corpus all compute their means this way.
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
    record_id: str
    span_years: int
    distinctiveness: float
    novelty_count: int
    novelty_binary: bool
    resonance: Optional[float]

    def __post_init__(self):
        assert self.novelty_binary == (self.novelty_count > 0)
        # min <= mean over the same window; exact with integer-sum arithmetic
        assert self.distinctiveness >= self.novelty_count


class ScoreTable:
    """Scores keyed by (record_id, span_years), in deterministic order."""

    def __init__(self, rows: Iterable[InnovationScores], unscored: Iterable = ()):
        self.rows = tuple(sorted(rows, key=lambda r: (r.record_id, r.span_years)))
        self.unscored = tuple(sorted(unscored))
        seen = set()
        for row in self.rows:
            key = (row.record_id, row.span_years)
            if key in seen:
                raise ValueError(f"duplicate score row {key}")
            seen.add(key)
        self._index = {(r.record_id, r.span_years): r for r in self.rows}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def get(self, record_id: str, span_years: int) -> Optional[InnovationScores]:
        return self._index.get((record_id, span_years))

    def for_span(self, span_years: int) -> tuple:
        return tuple(r for r in self.rows if r.span_years == span_years)

    def write_csv(self, path) -> None:
        """Write one row per score; floats use round-trip repr, so no precision is lost."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["id", "span", "distinctiveness", "novelty_count", "novelty_binary", "resonance", "resonance_available"]
            )
            for row in self.rows:
                has_res = row.resonance is not None
                writer.writerow(
                    [
                        row.record_id,
                        row.span_years,
                        _format_number(row.distinctiveness),
                        row.novelty_count,
                        int(row.novelty_binary),
                        _format_number(row.resonance) if has_res else "NA",
                        int(has_res),
                    ]
                )


def read_scores_csv(path) -> ScoreTable:
    """Inverse of ScoreTable.write_csv; every score reads back exactly as written."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                InnovationScores(
                    record_id=rec["id"],
                    span_years=int(rec["span"]),
                    distinctiveness=float(rec["distinctiveness"]),
                    novelty_count=int(rec["novelty_count"]),
                    novelty_binary=bool(int(rec["novelty_binary"])),
                    resonance=None if rec["resonance"] == "NA" else float(rec["resonance"]),
                )
            )
    return ScoreTable(rows)


def hamming(a, b) -> int:
    """Number of positions where two equal-length binary vectors differ."""
    va, vb = _as_vector(a), _as_vector(b)
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


def _pack(matrix: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows (k, d) into (k, ceil(d/64)) uint64 words; padding bits are 0."""
    k, d = matrix.shape
    packed = np.zeros((k, -(-d // 64) * 8), dtype=np.uint8)
    packed[:, : -(-d // 8)] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.uint64)


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


def distinctiveness(g, records: RecordSet, span: int = DEFAULT_SPAN) -> float:
    """Mean Hamming distance from g to every record in its past window.

    Records with vectors identical to g contribute distance 0; the window is
    a multiset over records, not unique vectors.
    """
    rec = g if isinstance(g, Record) else None
    if rec is None:
        raise TypeError("distinctiveness requires a Record (needs a publication year)")
    return distinctiveness_fast(rec, build_profile(records, *window_years(rec.year, span, PAST)))


def distinctiveness_fast(g, profile: FeatureProfile) -> float:
    """Mean distance from g to the profile's window; equals the pairwise mean exactly."""
    if profile.n == 0:
        raise EmptyWindow("comparison window is empty")
    bits = _as_vector(g)
    if len(bits) != len(profile.counts):
        raise DimensionError(f"dimension mismatch: {len(bits)} vs {len(profile.counts)}")
    return int(_distance_sums(bits[None, :], profile)[0]) / profile.n


def novelty_count(g, records: RecordSet, span: int = DEFAULT_SPAN) -> int:
    """Minimum Hamming distance from g to any record in its past window."""
    rec = g if isinstance(g, Record) else None
    if rec is None:
        raise TypeError("novelty_count requires a Record")
    window = records.matrix[records.rows_in_years(*window_years(rec.year, span, PAST))]
    if len(window) == 0:
        raise EmptyWindow("comparison window is empty")
    return int(_min_distances(_pack(rec.vector[None, :]), _pack(window), records.registry.dimension)[0])


def novelty_binary(g, records: RecordSet, span: int = DEFAULT_SPAN) -> bool:
    return novelty_count(g, records, span) > 0


def resonance(
    g,
    records: RecordSet,
    span: int = DEFAULT_SPAN,
    last_complete_year: Optional[int] = None,
) -> Optional[float]:
    """Past-window distinctiveness minus future-window distinctiveness.

    Returns None (absent) when the corpus does not fully cover the forward
    window: every future year must be <= last_complete_year. Positive values
    mean the record sits closer to what followed than to what preceded it.
    """
    rec = g if isinstance(g, Record) else None
    if rec is None:
        raise TypeError("resonance requires a Record")
    if last_complete_year is None or rec.year + span > last_complete_year:
        return None
    past = build_profile(records, *window_years(rec.year, span, PAST))
    future = build_profile(records, *window_years(rec.year, span, FUTURE))
    return distinctiveness_fast(rec, past) - distinctiveness_fast(rec, future)


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
    packed = _pack(records.matrix)
    rows = []
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

            res_vals = None
            if last_complete_year is not None and year + span <= last_complete_year:
                future = _window_profile(year_profiles, *window_years(year, span, FUTURE), dimension)
                if future.n:
                    res_vals = sums / past.n - _distance_sums(bits, future) / future.n

            for j, i in enumerate(focal_rows):
                nov = int(mins[j])
                rows.append(
                    InnovationScores(
                        record_id=records.ids[i],
                        span_years=span,
                        distinctiveness=int(sums[j]) / past.n,
                        novelty_count=nov,
                        novelty_binary=nov > 0,
                        resonance=float(res_vals[j]) if res_vals is not None else None,
                    )
                )
    return ScoreTable(rows, unscored=unscored)
