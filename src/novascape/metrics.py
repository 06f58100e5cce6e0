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
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .corpus import Record, RecordSet, _format_number
from .errors import DimensionError, EmptyWindow

PAST = "past"
FUTURE = "future"

SPAN_PRESETS = (1, 2, 5)
DEFAULT_SPAN = 2

# focal rows per XOR-popcount block of the novelty scan
NOVELTY_BLOCK_ROWS = 256


@dataclass(frozen=True)
class WindowSpec:
    """Window length in whole years."""

    span_years: int = DEFAULT_SPAN

    def __post_init__(self):
        if self.span_years < 1:
            raise ValueError("span_years must be >= 1")


def _as_spec(span: Union[int, WindowSpec]) -> WindowSpec:
    return span if isinstance(span, WindowSpec) else WindowSpec(span_years=int(span))


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

    year_lo: int
    year_hi: int
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
    window: WindowSpec

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
            span = int(rec["span"])
            rows.append(
                InnovationScores(
                    record_id=rec["id"],
                    span_years=span,
                    distinctiveness=float(rec["distinctiveness"]),
                    novelty_count=int(rec["novelty_count"]),
                    novelty_binary=bool(int(rec["novelty_binary"])),
                    resonance=None if rec["resonance"] == "NA" else float(rec["resonance"]),
                    window=WindowSpec(span),
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


def window_years(focal_year: int, span: Union[int, WindowSpec], direction: str):
    spec = _as_spec(span)
    if direction == PAST:
        return focal_year - spec.span_years, focal_year - 1
    if direction == FUTURE:
        return focal_year + 1, focal_year + spec.span_years
    raise ValueError(f"direction must be {PAST!r} or {FUTURE!r}")


def window_slice(records: RecordSet, focal_year: int, span: Union[int, WindowSpec], direction: str) -> RecordSet:
    """Records in the look-back or look-forward window of a focal year.

    The focal year itself is always excluded; the result may be empty.
    """
    lo, hi = window_years(focal_year, span, direction)
    return records.subset(records.rows_in_years(lo, hi))


def build_profile(records: RecordSet, year_lo: int, year_hi: int) -> FeatureProfile:
    rows = records.rows_in_years(year_lo, year_hi)
    counts = records.matrix[rows].sum(axis=0, dtype=np.int64) if len(rows) else np.zeros(
        records.registry.dimension, dtype=np.int64
    )
    return FeatureProfile(year_lo=year_lo, year_hi=year_hi, n=int(len(rows)), counts=counts)


def _window_profile(year_profiles: Mapping[int, FeatureProfile], year_lo: int, year_hi: int,
                    dimension: int) -> FeatureProfile:
    """Profile of [year_lo, year_hi] as the sum of the single-year profiles it covers."""
    parts = [p for y, p in year_profiles.items() if year_lo <= y <= year_hi]
    counts = sum((p.counts for p in parts), np.zeros(dimension, dtype=np.int64))
    return FeatureProfile(year_lo=year_lo, year_hi=year_hi, n=sum(p.n for p in parts), counts=counts)


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


def distinctiveness(g, records: RecordSet, span: Union[int, WindowSpec] = DEFAULT_SPAN) -> float:
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


def novelty_count(g, records: RecordSet, span: Union[int, WindowSpec] = DEFAULT_SPAN) -> int:
    """Minimum Hamming distance from g to any record in its past window."""
    rec = g if isinstance(g, Record) else None
    if rec is None:
        raise TypeError("novelty_count requires a Record")
    window = records.matrix[records.rows_in_years(*window_years(rec.year, span, PAST))]
    if len(window) == 0:
        raise EmptyWindow("comparison window is empty")
    return int(_min_distances(_pack(rec.vector[None, :]), _pack(window), records.registry.dimension)[0])


def novelty_binary(g, records: RecordSet, span: Union[int, WindowSpec] = DEFAULT_SPAN) -> bool:
    return novelty_count(g, records, span) > 0


def resonance(
    g,
    records: RecordSet,
    span: Union[int, WindowSpec] = DEFAULT_SPAN,
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
    spec = _as_spec(span)
    if last_complete_year is None or rec.year + spec.span_years > last_complete_year:
        return None
    past = build_profile(records, *window_years(rec.year, spec, PAST))
    future = build_profile(records, *window_years(rec.year, spec, FUTURE))
    return distinctiveness_fast(rec, past) - distinctiveness_fast(rec, future)


def score_corpus(
    records: RecordSet,
    spans: Sequence[Union[int, WindowSpec]] = (DEFAULT_SPAN,),
    last_complete_year: Optional[int] = None,
    comparison: Optional[RecordSet] = None,
) -> ScoreTable:
    """Score every record for every requested window length.

    Comparators default to the scored records themselves; pass a separate
    RecordSet (e.g. the unfiltered corpus) to change the comparison set.
    Records whose past window is empty are listed in ScoreTable.unscored
    instead of receiving a row. Resonance is absent unless the forward window
    is fully covered (<= last_complete_year) and non-empty.
    """
    comparison = records if comparison is None else comparison
    dimension = records.registry.dimension
    if comparison.registry.dimension != dimension:
        raise DimensionError("comparison set dimension differs from scored records")
    specs = [_as_spec(span) for span in spans]
    max_span = max((spec.span_years for spec in specs), default=0)
    year_profiles = {y: build_profile(comparison, y, y) for y in comparison.year_rows}
    packed = _pack(comparison.matrix)
    focal_packed = packed if comparison is records else _pack(records.matrix)
    rows = []
    unscored = []
    for year, focal_rows in sorted(records.year_rows.items()):
        bits, focal = records.matrix[focal_rows], focal_packed[focal_rows]
        # a window's minimum is the minimum over its years, so each
        # (focal year, comparison year) block is scanned once for all spans
        year_mins = {
            y: _min_distances(focal, packed[comp_rows], dimension)
            for y, comp_rows in comparison.year_rows.items()
            if year - max_span <= y < year
        }
        for spec in specs:
            past_lo, past_hi = window_years(year, spec, PAST)
            past = _window_profile(year_profiles, past_lo, past_hi, dimension)
            if past.n == 0:
                unscored.extend((records.ids[i], spec.span_years) for i in focal_rows)
                continue
            sums = _distance_sums(bits, past)
            mins = np.minimum.reduce([m for y, m in year_mins.items() if y >= past_lo])

            res_vals = None
            if last_complete_year is not None and year + spec.span_years <= last_complete_year:
                future = _window_profile(year_profiles, *window_years(year, spec, FUTURE), dimension)
                if future.n:
                    res_vals = sums / past.n - _distance_sums(bits, future) / future.n

            for j, i in enumerate(focal_rows):
                nov = int(mins[j])
                rows.append(
                    InnovationScores(
                        record_id=records.ids[i],
                        span_years=spec.span_years,
                        distinctiveness=int(sums[j]) / past.n,
                        novelty_count=nov,
                        novelty_binary=nov > 0,
                        resonance=float(res_vals[j]) if res_vals is not None else None,
                        window=spec,
                    )
                )
    return ScoreTable(rows, unscored=unscored)
