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

* distinctiveness and resonance come from window feature counts: a
  window's Hamming sum is an int64 dot product with its per-feature counts,
  divided once, so the cost is O(n*d) and no pairwise distance is formed.
  window_scores, the one place with the window rule, counts each year once
  and takes a window's counts as a difference of cumulative counts;
* novelty writes each 0/1 vector as a float32 sign row 2b - 1. Two sign
  rows at Hamming distance h have dot product d - 2h, so a record's minimum
  distance to a comparison year is (d - its largest dot product) / 2. The
  dot products run through float32 BLAS, one block of at most
  NOVELTY_BLOCK_ROWS focal x NOVELTY_TILE_ROWS window rows at a time, so the
  memory they take is a fixed number of bytes, not focal x window. Every
  partial sum is an integer of magnitude <= d, so the products are exact
  for any d below 2**24, whatever the summation order or BLAS thread count.
  Comparison years are scanned newest first for all spans at once, and a
  record already at distance 0 skips the older ones.

The scores come back as a ScoreTable of columns, one array per score, built
from one block of arrays per (focal year, span) and sorted once into (id,
span) order; no object is made per row. window_scores gives the
distinctiveness and resonance columns alone, with no novelty scan, so a
scores.csv can be checked against them. read_scores_csv reads scores.csv
back through corpus.read_blocks, one block of rows at a time.

Results are exact integers (or one division of them), deterministic and
independent of scheduling.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import RecordSet, _column_check, _number_cells, _raise_first, read_blocks, write_csv_columns
from .errors import ParseError

SPAN_PRESETS = (1, 2, 5)
DEFAULT_SPAN = 2

# focal rows and window rows of one float32 product block of the novelty
# scan: 256 x 2048 x 4 bytes = 2 MiB, small enough to stay in a core's cache
NOVELTY_BLOCK_ROWS = 256
NOVELTY_TILE_ROWS = 2048


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
    `get` builds one InnovationScores view. Rows already in strictly
    increasing (id, span) order, as score_corpus and write_csv leave them,
    are kept as given, without a copy (a numpy column of the column's dtype
    is shared with the caller); others are ranked by id and copied in order.
    """

    def __init__(self, ids, spans, distinctiveness, novelty_count, resonance, unscored: Iterable = ()):
        columns = (np.asarray(ids, dtype=object), np.asarray(spans, dtype=np.int64),
                   np.asarray(distinctiveness, dtype=np.float64), np.asarray(novelty_count, dtype=np.int64),
                   np.asarray(resonance, dtype=np.float64))
        ids, spans = columns[:2]
        if not ((ids[1:] > ids[:-1]) | (ids[1:] == ids[:-1]) & (spans[1:] > spans[:-1])).all():
            id_ranks = _id_ranks(ids)
            order = np.lexsort((spans, id_ranks))
            columns = [column[order] for column in columns]
            id_ranks, spans = id_ranks[order], columns[1]
            repeats = np.flatnonzero((id_ranks[1:] == id_ranks[:-1]) & (spans[1:] == spans[:-1]))
            if len(repeats):
                i = int(repeats[0])
                raise ValueError(f"duplicate score row {(columns[0][i], spans.item(i))}")
        self.ids, self.spans, self.distinctiveness, self.novelty_count, self.resonance = columns
        self.unscored = tuple(sorted(unscored))
        # min <= mean over the same window; exact with integer-sum arithmetic
        if not (self.distinctiveness >= self.novelty_count).all():
            raise ValueError("a novelty_count exceeds its distinctiveness")

    @property
    def novelty_binary(self) -> np.ndarray:
        return self.novelty_count > 0

    def __len__(self) -> int:
        return len(self.ids)

    def get(self, record_id: str, span_years: int) -> Optional[InnovationScores]:
        lo = int(np.searchsorted(self.ids, record_id, side="left"))
        hi = int(np.searchsorted(self.ids, record_id, side="right"))
        hit = np.flatnonzero(self.spans[lo:hi] == span_years)
        if not len(hit):
            return None
        i = lo + int(hit[0])
        novelty, resonance = self.novelty_count.item(i), self.resonance.item(i)
        return InnovationScores(self.ids[i], self.spans.item(i), self.distinctiveness.item(i), novelty,
                                novelty > 0, None if math.isnan(resonance) else resonance)

    def write_csv(self, path) -> None:
        """Write one row per score; floats use round-trip repr, so no precision is lost."""
        has_res = ~np.isnan(self.resonance)
        resonance = _number_cells(self.resonance)
        resonance[~has_res] = "NA"
        write_csv_columns(path, SCORE_COLUMNS, [self.ids.tolist(), self.spans, self.distinctiveness,
                                                self.novelty_count, self.novelty_binary, resonance.tolist(),
                                                has_res])


def _id_ranks(ids: np.ndarray) -> np.ndarray:
    """Each id's rank among the distinct ids of the object array `ids`, in sorted order."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    new = np.ones(len(ids), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


def read_scores_csv(path) -> ScoreTable:
    """Inverse of ScoreTable.write_csv; every score reads back exactly as written.

    novelty_binary and resonance_available restate novelty_count and
    resonance and are not read back. The table comes through read_blocks, and
    a failing row or a table ScoreTable rejects raises ParseError.
    """
    # starmap keeps no block it has passed on, so one block of rows is held at a time
    blocks = list(itertools.starmap(_score_block, read_blocks(path, SCORE_COLUMNS)))
    try:
        return ScoreTable(*((np.concatenate(c) for c in zip(*blocks)) if blocks else ([],) * 5))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _score_block(header: list, first_row: int, lengths: np.ndarray, cells: dict) -> tuple:
    """One block's ids, spans, distinctiveness, novelty counts and resonance; raises its first row's error.

    The checks are one table: each row's cell count, then each column read back.
    """
    # an NA resonance reads as 0, then as NaN
    na = np.fromiter(map("NA".__eq__, cells["resonance"]), dtype=bool, count=len(lengths))
    cells["resonance"] = ["0" if value == "NA" else value for value in cells["resonance"]]
    values, checks = zip(*(_column_check(cells[column], kind, column, first_row) for column, kind in (
        ("span", int), ("distinctiveness", float), ("novelty_count", int), ("resonance", float))))
    _raise_first([(lengths != len(header), lambda i: ParseError(
        f"row {first_row + i}: expected {len(header)} cells, got {lengths.item(i)}")), *checks])
    values[-1][na] = math.nan
    return (np.array(cells["id"], dtype=object), *values)


def _distance_sums(bits: np.ndarray, n: int, counts: np.ndarray) -> np.ndarray:
    """Exact int64 sum of Hamming distances from each row of `bits` (k, d) to a window.

    The window holds n vectors and counts[j] of them have feature j set. A row
    g's distance sum is sum_j (g_j ? n - c_j : c_j) = c.sum() + g.(n - 2c),
    taken in int64, so it equals the brute-force pairwise sum exactly.
    """
    return int(counts.sum()) + bits @ (n - 2 * counts)


def _sign_rows(bits: np.ndarray) -> np.ndarray:
    """A 0/1 array as float32 2b - 1 of the same layout, the operands of the novelty scan."""
    signs = np.multiply(bits, np.float32(2), dtype=np.float32)
    signs -= 1
    return signs


def _min_distances(focal: np.ndarray, window_t: np.ndarray) -> np.ndarray:
    """Minimum Hamming distance from each focal sign row to the (non-empty) window of sign rows, transposed (d, n).

    Rows at Hamming distance h have dot product d - 2h, so the nearest window
    row is the one with the largest product. The products are taken in
    blocks of NOVELTY_BLOCK_ROWS focal x NOVELTY_TILE_ROWS window rows, written
    into one reused float32 buffer, and each block's row maxima fold into a
    running maximum.
    """
    best = np.empty(len(focal), dtype=np.float32)
    buffer = np.empty(min(len(focal), NOVELTY_BLOCK_ROWS) * min(window_t.shape[1], NOVELTY_TILE_ROWS), np.float32)
    for lo in range(0, len(focal), NOVELTY_BLOCK_ROWS):
        block = focal[lo : lo + NOVELTY_BLOCK_ROWS]
        top = best[lo : lo + len(block)]
        for w_lo in range(0, window_t.shape[1], NOVELTY_TILE_ROWS):
            tile = window_t[:, w_lo : w_lo + NOVELTY_TILE_ROWS]
            dots = np.matmul(block, tile, out=buffer[: len(block) * tile.shape[1]].reshape(len(block), -1))
            if w_lo:
                np.maximum(top, dots.max(axis=1), out=top)
            else:
                dots.max(axis=1, out=top)
    return (focal.shape[1] - best.astype(np.int64)) // 2


def _year_minima(records: RecordSet, max_span: int):
    """(year, focal rows, {y: minimum distance to the years y .. year - 1}) for each year, in year order.

    A window's minimum is the minimum over its years, so each focal year
    scans its comparison years within max_span once for all spans, newest
    first, keeping the running minimum. A row already at distance 0 cannot
    get closer, so older years are scanned only for the rows still above 0.
    Each year's sign rows are made once, as the contiguous (d, n) operand of
    later years' scans; only the years a later focal year compares against are kept.
    """
    signs = {}
    for year, focal_rows in records.year_rows.items():
        signs = {y: s for y, s in signs.items() if y >= year - max_span}
        signs[year] = _sign_rows(np.ascontiguousarray(records.matrix[focal_rows].T))
        focal = signs[year].T
        mins = np.full(len(focal_rows), focal.shape[1] + 1)
        running = {}
        for y in sorted((y for y in signs if y < year), reverse=True):
            mins = mins.copy()
            open_rows = np.flatnonzero(mins)
            mins[open_rows] = np.minimum(mins[open_rows], _min_distances(focal[open_rows], signs[y]))
            running[y] = mins
        yield year, focal_rows, running


def window_scores(records: RecordSet, spans: Sequence[int], last_complete_year: Optional[int] = None):
    """(year, focal rows, [(span, distinctiveness, resonance) per span]) for each corpus year, in year order.

    Distinctiveness is None where the past window [year - span, year - 1] holds no record; resonance is
    NaN unless the forward window [year + 1, year + span] is <= last_complete_year and holds one.
    """
    years, year_rows = list(records.year_rows), list(records.year_rows.values())
    # [i]: the record and int64 feature counts of the years before years[i]; a window's are one difference
    n_cum = np.cumsum([0, *map(len, year_rows)])
    counts_cum = np.cumsum([np.zeros(records.registry.dimension, dtype=np.int64),
                            *(records.matrix[rows].sum(axis=0, dtype=np.int64) for rows in year_rows)], axis=0)
    for i, (year, focal_rows) in enumerate(zip(years, year_rows)):
        bits, scores = records.matrix[focal_rows], []
        for span in spans:
            lo, hi = bisect.bisect_left(years, year - span), bisect.bisect_right(years, year + span)
            past_n, future_n = n_cum[i] - n_cum[lo], n_cum[hi] - n_cum[i + 1]
            dist = _distance_sums(bits, past_n, counts_cum[i] - counts_cum[lo]) / past_n if past_n else None
            res = np.full(len(focal_rows), np.nan)
            if past_n and future_n and last_complete_year is not None and year + span <= last_complete_year:
                res = dist - _distance_sums(bits, future_n, counts_cum[hi] - counts_cum[i + 1]) / future_n
            scores.append((span, dist, res))
        yield year, focal_rows, scores


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
    # a (rows, span, distinctiveness, novelty_count, resonance) block per scored (year, span); zip pairs equal years
    blocks, unscored = [], []
    for (year, focal_rows, scores), (*_, running) in zip(window_scores(records, spans, last_complete_year),
                                                         _year_minima(records, max(spans, default=0))):
        for span, dist, res in scores:
            if dist is None:
                unscored.append((focal_rows, span))
                continue
            mins = [m for y, m in running.items() if y >= year - span][-1]
            blocks.append((focal_rows, np.full(len(focal_rows), span), dist, mins, res))
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [np.empty(0, dtype=np.intp)] * 5
    ids = np.asarray(records.ids, dtype=object)
    # rows in (id, span) order, each record's id ranked once, so ScoreTable keeps them as given
    order = np.lexsort((columns[1], _id_ranks(ids)[columns[0]]))
    rows, span_col, dist, nov, res = (column[order] for column in columns)
    pairs = itertools.chain.from_iterable(zip(ids[r].tolist(), itertools.repeat(span)) for r, span in unscored)
    return ScoreTable(ids[rows], span_col, dist, nov, res, pairs)
