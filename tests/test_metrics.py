"""Innovation score behaviour checked against packed-integer brute force.

The oracle path never touches the library's matrix arithmetic: vectors are
packed into Python ints and distances taken with int.bit_count on the XOR,
with exact Fraction means.
"""

import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novascape import metrics
from novascape.corpus import PARSE_BLOCK_ROWS, RecordSet
from novascape.errors import DimensionError, ParseError
from novascape.metrics import (
    SCORE_COLUMNS,
    ScoreTable,
    read_scores_csv,
    score_corpus,
    window_scores,
)

from conftest import cross_hamming, hamming, make_recordset, xor_min_distances


def pack(bits) -> int:
    out = 0
    for j, b in enumerate(bits):
        if b:
            out |= 1 << j
    return out


def oracle_hamming(a, b) -> int:
    return (pack(a) ^ pack(b)).bit_count()


def oracle_mean_distance(g, window):
    if not window:
        return None
    return Fraction(sum(oracle_hamming(g, w) for w in window), len(window))


def oracle_min_distance(g, window):
    return min(oracle_hamming(g, w) for w in window)


bitvec = st.lists(st.integers(0, 1), min_size=6, max_size=6)


class TestHamming:
    def test_frozen_example(self):
        assert hamming([1, 1, 0], [0, 1, 1]) == 2

    def test_identical_is_zero(self):
        assert hamming([1, 0, 1], [1, 0, 1]) == 0

    def test_mismatched_length_raises(self):
        with pytest.raises(DimensionError):
            hamming([1, 0], [1, 0, 1])

    @settings(max_examples=200, deadline=None)
    @given(bitvec, bitvec)
    def test_matches_popcount_oracle(self, a, b):
        assert hamming(a, b) == oracle_hamming(a, b)

    @settings(max_examples=100, deadline=None)
    @given(bitvec, bitvec)
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @settings(max_examples=100, deadline=None)
    @given(bitvec, bitvec, bitvec)
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestCrossHamming:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(bitvec, min_size=1, max_size=6), st.lists(bitvec, min_size=1, max_size=6))
    def test_matches_oracle_elementwise(self, rows_a, rows_b):
        A = np.array(rows_a, dtype=np.uint8)
        B = np.array(rows_b, dtype=np.uint8)
        got = cross_hamming(A, B)
        assert got.dtype == np.int64
        for i, a in enumerate(rows_a):
            for j, b in enumerate(rows_b):
                assert got[i, j] == oracle_hamming(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cross_hamming(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))


class TestWindows:
    def test_span_2_windows_are_the_two_years_before_and_after(self):
        # the 2015 record's past window is 2013-2014 and its future window 2016-2017;
        # each added record repeats its vector, so it moves any score whose window holds it
        base = [("f", 2015, [1, 1, 0, 0]), ("p", 2014, [1, 0, 0, 0]), ("q", 2016, [1, 1, 1, 0])]

        def scores(*years):
            rs = make_recordset(base + [(f"x{year}", year, [1, 1, 0, 0]) for year in years])
            row = score_corpus(rs, spans=(2,), last_complete_year=2017).get("f", 2)
            return row.distinctiveness, row.novelty_count, row.resonance

        alone = scores()
        assert scores(2012, 2018) == alone
        assert scores(2013)[0] != alone[0]
        assert scores(2017)[2] != alone[2]

    def test_same_year_excluded(self):
        rs = make_recordset(
            [("a", 2014, [1, 0]), ("b", 2015, [0, 1]), ("c", 2015, [1, 1]), ("d", 2016, [0, 0])]
        )
        table = score_corpus(rs, spans=(1,), last_complete_year=2016)
        # b's windows are {a} and {d}; with its same-year peer c in either, every value moves
        b = table.get("b", 1)
        assert (b.distinctiveness, b.novelty_count, b.resonance) == (2.0, 2, 1.0)
        c = table.get("c", 1)
        assert (c.distinctiveness, c.novelty_count, c.resonance) == (1.0, 1, -1.0)

    def test_empty_window_is_allowed(self):
        rs = make_recordset([("a", 2014, [1, 0])])
        table = score_corpus(rs, spans=(2,))
        assert len(table) == 0
        assert table.unscored == (("a", 2),)


class TestDistinctiveness:
    def test_frozen_example(self):
        rs = make_recordset([("g", 2015, [1, 1, 0]), ("w1", 2014, [0, 1, 1]), ("w2", 2014, [1, 0, 1])])
        assert score_corpus(rs, spans=(1,)).get("g", 1).distinctiveness == 2.0

    def test_duplicates_count_as_multiset(self):
        rs = make_recordset(
            [("g", 2015, [1, 1]), ("w1", 2014, [1, 1]), ("w2", 2014, [1, 1]), ("w3", 2014, [0, 0])]
        )
        # distances 0, 0, 2 over three window records
        assert score_corpus(rs, spans=(1,)).get("g", 1).distinctiveness == pytest.approx(2 / 3, rel=1e-12)

    def test_empty_window_is_unscored(self):
        rs = make_recordset([("g", 2015, [1, 1])])
        assert score_corpus(rs, spans=(2,)).unscored == (("g", 2),)

    @settings(max_examples=100, deadline=None)
    @given(bitvec, st.lists(bitvec, min_size=1, max_size=10))
    def test_fast_path_equals_brute_force(self, g, window):
        rows = [("g", 2015, g)] + [(f"w{i}", 2014, w) for i, w in enumerate(window)]
        want = oracle_mean_distance(g, window)
        got = score_corpus(make_recordset(rows), spans=(1,)).get("g", 1).distinctiveness
        assert got == pytest.approx(float(want), rel=1e-12)


class TestNovelty:
    def test_frozen_example(self):
        rs = make_recordset(
            [("g", 2015, [1, 1, 0, 0]), ("w1", 2014, [1, 0, 0, 0]), ("w2", 2014, [0, 0, 1, 1])]
        )
        row = score_corpus(rs, spans=(1,)).get("g", 1)
        assert row.novelty_count == 1
        assert row.novelty_binary is True

    def test_repeat_of_window_vector_is_zero(self):
        rs = make_recordset([("g", 2015, [1, 1]), ("w", 2014, [1, 1])])
        row = score_corpus(rs, spans=(1,)).get("g", 1)
        assert row.novelty_count == 0
        assert row.novelty_binary is False

    def test_empty_window_is_unscored(self):
        rs = make_recordset([("g", 2015, [1, 1])])
        table = score_corpus(rs, spans=(1,))
        assert table.get("g", 1) is None and table.unscored == (("g", 1),)

    @settings(max_examples=100, deadline=None)
    @given(bitvec, st.lists(bitvec, min_size=1, max_size=10))
    def test_matches_exhaustive_scan(self, g, window):
        rows = [("g", 2015, g)] + [(f"w{i}", 2014, w) for i, w in enumerate(window)]
        rs = make_recordset(rows)
        assert score_corpus(rs, spans=(1,)).get("g", 1).novelty_count == oracle_min_distance(g, window)

    @settings(max_examples=100, deadline=None)
    @given(bitvec, st.lists(bitvec, min_size=1, max_size=10))
    def test_min_never_exceeds_mean(self, g, window):
        rows = [("g", 2015, g)] + [(f"w{i}", 2014, w) for i, w in enumerate(window)]
        rs = make_recordset(rows)
        row = score_corpus(rs, spans=(1,)).get("g", 1)
        assert row.novelty_count <= row.distinctiveness


class TestResonance:
    def make_corpus(self):
        return make_recordset(
            [("g", 2015, [1, 1, 1]), ("p", 2014, [0, 0, 0]), ("f", 2016, [1, 1, 1])]
        )

    def test_frozen_example(self):
        rs = self.make_corpus()
        got = score_corpus(rs, spans=(1,), last_complete_year=2016).get("g", 1).resonance
        assert got == 3.0

    def test_absent_without_coverage(self):
        rs = self.make_corpus()
        assert score_corpus(rs, spans=(1,), last_complete_year=2015).get("g", 1).resonance is None
        assert score_corpus(rs, spans=(1,), last_complete_year=None).get("g", 1).resonance is None

    def test_identity_against_component_means(self):
        rs = make_recordset(
            [
                ("g", 2015, [1, 0, 1, 0]),
                ("p1", 2013, [1, 1, 0, 0]),
                ("p2", 2014, [0, 0, 1, 1]),
                ("f1", 2016, [1, 0, 1, 1]),
                ("f2", 2017, [1, 0, 1, 0]),
            ]
        )
        g = score_corpus(rs, spans=(2,), last_complete_year=2017).get("g", 2)
        got = g.resonance
        d_past = oracle_mean_distance([1, 0, 1, 0], [[1, 1, 0, 0], [0, 0, 1, 1]])
        d_future = oracle_mean_distance([1, 0, 1, 0], [[1, 0, 1, 1], [1, 0, 1, 0]])
        assert got == pytest.approx(float(d_past - d_future), rel=1e-12)
        assert got == pytest.approx(g.distinctiveness - float(d_future), rel=1e-12)


class TestScoreCorpus:
    def demo_corpus(self):
        return make_recordset(
            [
                ("a", 2013, [1, 0, 0, 0]),
                ("b", 2013, [0, 1, 1, 0]),
                ("c", 2014, [1, 1, 0, 0]),
                ("d", 2014, [0, 0, 1, 1]),
                ("e", 2015, [1, 1, 1, 0]),
                ("f", 2015, [1, 0, 0, 1]),
                ("g", 2016, [0, 1, 0, 1]),
            ]
        )

    def test_batch_agrees_with_brute_force(self):
        rs = self.demo_corpus()
        table = score_corpus(rs, spans=(1, 2), last_complete_year=2016)
        assert len(table) > 0
        records = {rec.id: rec for rec in rs}
        for rid, span, dist, count, res in zip(table.ids, table.spans.tolist(), table.distinctiveness,
                                               table.novelty_count, table.resonance):
            rec = records[rid]
            past = [w.vector for w in rs if rec.year - span <= w.year < rec.year]
            future = [w.vector for w in rs if rec.year < w.year <= rec.year + span]
            assert dist == float(oracle_mean_distance(rec.vector, past))
            assert count == oracle_min_distance(rec.vector, past)
            if rec.year + span > 2016:
                assert np.isnan(res)
            else:
                want_res = float(oracle_mean_distance(rec.vector, past)) - float(
                    oracle_mean_distance(rec.vector, future))
                assert res == pytest.approx(want_res, rel=1e-12)

    def test_unscored_records_listed(self):
        rs = self.demo_corpus()
        table = score_corpus(rs, spans=(1,))
        # 2013 records have no look-back year in corpus
        assert ("a", 1) in table.unscored
        assert ("b", 1) in table.unscored
        assert table.get("a", 1) is None

    def test_rows_sorted_by_id_then_span(self):
        rs = self.demo_corpus()
        table = score_corpus(rs, spans=(2, 1))
        keys = list(zip(table.ids, table.spans.tolist()))
        assert keys == sorted(keys)

    def test_rows_sorted_by_id_when_ids_run_against_the_years(self):
        # "zzz" for a ... "ztt" for g: the later the year, the smaller the id
        rs = self.demo_corpus()
        rs = RecordSet(rs.registry, ("z" + chr(ord("z") - ord(rid) + ord("a")) * 2 for rid in rs.ids),
                       rs.years, rs.matrix, rs.columns)
        table = score_corpus(rs, spans=(2, 1))
        keys = list(zip(table.ids, table.spans.tolist()))
        assert keys == sorted(keys) and len(keys) == 10
        assert table.unscored == (("zyy", 1), ("zyy", 2), ("zzz", 1), ("zzz", 2))

    def test_resonance_rows_are_strict_subset(self):
        rs = self.demo_corpus()
        table = score_corpus(rs, spans=(1,), last_complete_year=2016)
        with_res = ~np.isnan(table.resonance)
        assert 0 < with_res.sum() < len(table)
        rows = [rs.row_of[rid] for rid in table.ids[with_res]]
        assert (rs.years[rows] + table.spans[with_res] <= 2016).all()

    def test_deterministic_across_runs(self):
        a = score_corpus(self.demo_corpus(), spans=(1, 2, 5), last_complete_year=2016)
        b = score_corpus(self.demo_corpus(), spans=(1, 2, 5), last_complete_year=2016)
        assert len(a) == len(b)
        assert a.ids.tolist() == b.ids.tolist()
        assert a.distinctiveness.tolist() == b.distinctiveness.tolist()
        assert a.novelty_count.tolist() == b.novelty_count.tolist()
        assert np.array_equal(a.resonance, b.resonance, equal_nan=True)


class TestWindowScores:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(2000, 2012), st.lists(st.integers(0, 1), min_size=3, max_size=3)),
                    min_size=1, max_size=12),
           st.integers(1, 4), st.one_of(st.none(), st.integers(2000, 2012)))
    def test_matches_the_scored_rows(self, rows, span, last_complete_year):
        # years drawn from a 13-year range leave gaps wider and narrower than the span
        rs = make_recordset([(f"r{i}", year, bits) for i, (year, bits) in enumerate(rows)])
        table = score_corpus(rs, (span,), last_complete_year)
        ids = np.asarray(rs.ids, dtype=object)
        years, scored, unscored = [], [], []
        for year, focal_rows, [(at, dist, res)] in window_scores(rs, (span,), last_complete_year):
            years.append(year)
            assert at == span
            if dist is None:
                unscored += [(rid, span) for rid in ids[focal_rows]]
            else:
                # float64 bits as int64, so NaN resonance compares equal and -0.0 differs from 0.0
                scored += zip(ids[focal_rows], dist.view(np.int64).tolist(), res.view(np.int64).tolist())
        assert years == sorted(set(rs.years.tolist()))
        assert sorted(scored) == list(zip(table.ids, table.distinctiveness.view(np.int64).tolist(),
                                          table.resonance.view(np.int64).tolist()))
        assert sorted(unscored) == list(table.unscored)


class TestOrderedRows:
    @pytest.fixture
    def counted_ranks(self, monkeypatch):
        calls, id_ranks = [], metrics._id_ranks

        def counted(ids):
            calls.append(len(ids))
            return id_ranks(ids)

        monkeypatch.setattr(metrics, "_id_ranks", counted)
        return calls

    def test_score_corpus_ranks_the_record_ids_once(self, counted_ranks):
        rs = make_recordset([(f"r{i:02d}", 2010 + i % 4, [i % 2, int(i % 3 == 0), 1]) for i in range(20)][::-1])
        table = score_corpus(rs, spans=(5, 1, 2), last_complete_year=2013)
        assert counted_ranks == [len(rs)]
        keys = list(zip(table.ids.tolist(), table.spans.tolist()))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_ordered_columns_are_kept_without_ranking_or_copying(self, counted_ranks):
        spans = np.tile(np.array([1, 2], dtype=np.int64), 3)
        distinctiveness = np.arange(6, dtype=np.float64)
        table = ScoreTable(["a", "a", "b", "b", "c", "c"], spans, distinctiveness, np.zeros(6, dtype=np.int64),
                           np.full(6, np.nan))
        assert counted_ranks == []
        assert np.shares_memory(table.spans, spans)
        assert np.shares_memory(table.distinctiveness, distinctiveness)
        # rows out of order are ranked once and copied in order
        shuffled = ScoreTable(["b", "b", "a", "a"], spans[:4], distinctiveness[:4], np.zeros(4, dtype=np.int64),
                              np.full(4, np.nan))
        assert counted_ranks == [4]
        assert not np.shares_memory(shuffled.spans, spans)
        assert shuffled.distinctiveness.tolist() == [2.0, 3.0, 0.0, 1.0]


class TestPackedKernel:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130, 300])
    def test_score_corpus_matches_oracles_across_word_boundaries(self, dim, monkeypatch):
        # 3-row blocks and 2-row window tiles leave the 7- and 5-row years partial
        # last ones; 2015 rows differ from 2014 rows in ~90% of features, so at
        # d=300 distances pass 255
        monkeypatch.setattr(metrics, "NOVELTY_BLOCK_ROWS", 3)
        monkeypatch.setattr(metrics, "NOVELTY_TILE_ROWS", 2)
        rng = np.random.default_rng(dim)
        rows = [
            (f"r{year}_{k}", year, (rng.random(dim) < p).astype(int).tolist())
            for year, count, p in ((2014, 4, 0.05), (2015, 7, 0.95), (2016, 5, 0.5))
            for k in range(count)
        ]
        table = score_corpus(make_recordset(rows), spans=(1, 2), last_complete_year=2016)
        checked = 0
        for rid, year, bits in rows:
            for span in (1, 2):
                past = [w for _, y, w in rows if year - span <= y < year]
                future = [w for _, y, w in rows if year < y <= year + span]
                got = table.get(rid, span)
                if not past:
                    assert got is None and (rid, span) in table.unscored
                    continue
                d_past = oracle_mean_distance(bits, past)
                assert got.distinctiveness == float(d_past)
                assert got.novelty_count == oracle_min_distance(bits, past)
                if year + span <= 2016:
                    assert got.resonance == float(d_past) - float(oracle_mean_distance(bits, future))
                else:
                    assert got.resonance is None
                checked += 1
        assert checked == 2 * 7 + 2 * 5

    def test_peak_allocation_stays_far_below_a_pairwise_matrix(self):
        rng = np.random.default_rng(51)
        rs = make_recordset(
            [(f"r{i}", 2015 + i % 2, rng.integers(0, 2, 51).tolist()) for i in range(6000)]
        )
        assert rs.matrix.shape == (6000, 51) and len(rs.year_rows) == 2  # cached before tracing
        tracemalloc.start()
        try:
            table = score_corpus(rs, spans=(1, 2), last_complete_year=2016)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 2 * 3000
        # one 3000 x 3000 focal x window int64 distance matrix alone is 72 MB;
        # the scan's 256 x 2048 float32 block is 2 MiB and the whole call peaked
        # at 4.0 MiB
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"


DEFAULT_BLOCK = (metrics.NOVELTY_BLOCK_ROWS, metrics.NOVELTY_TILE_ROWS)


def drawn_years(draw, dimension, sizes):
    """One 0/1 matrix per size, each at a drawn density, so distances span 0 to d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = [draw(st.sampled_from((0.0, 0.05, 0.5, 0.95, 1.0))) for _ in sizes]
    return [(rng.random((n, dimension)) < p).astype(np.uint8) for n, p in zip(sizes, densities)]


class TestProductKernel:
    """The float32 product scan against the XOR-popcount scan it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_minima_equal_the_xor_popcount_oracle(self, data):
        dimension = data.draw(st.sampled_from((1, 16, 51, 63, 64, 65, 300)), label="d")
        # 2-6 years, gaps allowed, of 1-9 rows: 1- and 3-row blocks and tiles end on
        # and off every size; each focal year sees 1-5 comparison years
        years = sorted(data.draw(st.sets(st.integers(2010, 2017), min_size=2, max_size=6), label="years"))
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=len(years), max_size=len(years)), label="sizes")
        max_span = data.draw(st.integers(1, 5), label="max_span")
        by_year = dict(zip(years, drawn_years(data.draw, dimension, sizes)))
        rs = make_recordset([(f"r{year}_{k}", year, bits.tolist())
                             for year, matrix in by_year.items() for k, bits in enumerate(matrix)])
        per_year = {(year, y): xor_min_distances(by_year[year], by_year[y])
                    for year in years for y in years if year - max_span <= y < year}
        # _year_minima gives the minimum over the comparison years y .. year - 1
        running = {(year, y): np.min([m for (f, c), m in per_year.items() if f == year and c >= y], axis=0)
                   for year, y in per_year}
        signs = {year: metrics._sign_rows(matrix) for year, matrix in by_year.items()}
        for block, tile in itertools.product((1, 3, DEFAULT_BLOCK[0]), (1, 3, DEFAULT_BLOCK[1])):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "NOVELTY_BLOCK_ROWS", block)
                mp.setattr(metrics, "NOVELTY_TILE_ROWS", tile)
                got = {(year, y): metrics._min_distances(signs[year], signs[y].T.copy()) for year, y in per_year}
                got_running = {(year, y): mins for year, _, minima in metrics._year_minima(rs, max_span)
                               for y, mins in minima.items()}
            for pair, mins in per_year.items():
                assert np.array_equal(got[pair], mins), (block, tile, pair)
            assert got_running.keys() == running.keys(), (block, tile)
            for pair, mins in running.items():
                assert np.array_equal(got_running[pair], mins), (block, tile, pair)

    @pytest.mark.parametrize("focal_rows, window_rows", [(255, 2047), (256, 2048), (257, 2049), (513, 4097)])
    def test_default_block_boundaries(self, focal_rows, window_rows):
        # sparse focal rows against dense window rows put d=300 distances past 255
        rng = np.random.default_rng(focal_rows)
        focal = (rng.random((focal_rows, 300)) < rng.choice([0.02, 0.5], (focal_rows, 1))).astype(np.uint8)
        window = (rng.random((window_rows, 300)) < 0.98).astype(np.uint8)
        want = xor_min_distances(focal, window)
        got = metrics._min_distances(metrics._sign_rows(focal), metrics._sign_rows(window).T.copy())
        assert np.array_equal(got, want)
        assert want.min() < 200 < 255 < want.max()


class TestScoreTableCsv:
    def test_format(self, tmp_path):
        rs = make_recordset(
            [("a", 2014, [0, 0, 0]), ("b", 2015, [1, 1, 1]), ("c", 2016, [1, 0, 0])]
        )
        table = score_corpus(rs, spans=(1,), last_complete_year=2016)
        path = tmp_path / "scores.csv"
        table.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,span,distinctiveness,novelty_count,novelty_binary,resonance,resonance_available"
        # b: past {000} -> dist 3, future {100} -> 2, resonance 1
        assert lines[1] == "b,1,3,3,1,1,1"
        # c: past {111} -> dist 2, no future coverage
        assert lines[2] == "c,1,2,2,1,NA,0"

    def test_round_trip_is_exact(self, tmp_path):
        # g: past distances 3+2+2 -> 7/3, future distances 1+1+1 -> resonance 7/3 - 1
        rs = make_recordset(
            [("p1", 2014, [0, 0, 0]), ("p2", 2014, [0, 0, 1]), ("p3", 2014, [0, 0, 1]),
             ("g", 2015, [1, 1, 1]),
             ("f1", 2016, [0, 1, 1]), ("f2", 2016, [1, 0, 1]), ("f3", 2016, [1, 1, 0])]
        )
        table = score_corpus(rs, spans=(1, 2), last_complete_year=2016)
        assert table.get("g", 1).distinctiveness == 7 / 3
        path = tmp_path / "scores.csv"
        table.write_csv(path)

        def fields(t):
            resonance = [None if np.isnan(r) else r for r in t.resonance.tolist()]
            return [t.ids.tolist(), t.spans.tolist(), t.distinctiveness.tolist(), t.novelty_count.tolist(),
                    t.novelty_binary.tolist(), resonance]

        again = read_scores_csv(path)
        assert fields(again) == fields(table)
        assert again.get("g", 1).resonance == 7 / 3 - 1

    def test_utf8_bom_is_skipped(self, tmp_path):
        rs = make_recordset([("a", 2014, [0, 1]), ("b", 2015, [1, 1]), ("c", 2016, [1, 0])])
        table = score_corpus(rs, spans=(1, 2), last_complete_year=2016)
        path, bom = tmp_path / "scores.csv", tmp_path / "bom.csv"
        table.write_csv(path)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, again = read_scores_csv(path), read_scores_csv(bom)
        assert again.ids.tolist() == plain.ids.tolist()
        for name in ("spans", "distinctiveness", "novelty_count", "resonance"):
            assert np.array_equal(getattr(again, name), getattr(plain, name), equal_nan=True), name

    @pytest.mark.parametrize("rows, message", [
        # the smallest failing row is reported, so row 2's distinctiveness comes before row 3's span
        (["a,1,x,0,0,NA,0", "b,1.5,1,0,0,NA,0"], "row 2: column 'distinctiveness' is not a number: 'x'"),
        (["a,1,1,0,0,NA,0", "b,1,1,0,0,nan,1"], "row 3: column 'resonance' is not finite: 'nan'"),
        # a blank row is skipped, and rows are numbered counting non-blank rows only
        (["a,1,1,0,0,NA,0", "", "b,1,1,0,0,NA"], "row 3: expected 7 cells, got 6"),
        (["a,1,1,0,0,NA,0", "a,1,2,0,0,NA,0"], "scores.csv: duplicate score row ('a', 1)"),
        (["a,1,1,2,1,NA,0"], "scores.csv: a novelty_count exceeds its distinctiveness"),
    ], ids=["column-order", "nan-is-not-NA", "blank-row", "duplicate-row", "novelty-above-distinctiveness"])
    def test_bad_rows(self, tmp_path, rows, message):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([",".join(SCORE_COLUMNS)] + rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_scores_csv(path)

    def test_memory_is_bounded_by_the_file(self, tmp_path):
        # six blocks of rows; the reader holds its output and one block, not a list of every row
        rng = np.random.default_rng(35)
        n = 6 * PARSE_BLOCK_ROWS
        novelty = rng.integers(0, 20, n)
        resonance = rng.normal(0, 3, n)
        resonance[rng.random(n) < 0.3] = np.nan
        table = ScoreTable([f"g{i // 3}" for i in range(n)], np.tile([1, 2, 5], n // 3),
                           novelty + rng.random(n) * 10, novelty, resonance)
        path = tmp_path / "scores.csv"
        table.write_csv(path)
        read_scores_csv(path)  # imports and caches before tracing
        tracemalloc.start()
        try:
            again = read_scores_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        # a list of every row peaked at about 10x the file, and re-sorting the rows read in order at 4.1x
        assert peak < 4 * size, f"peak {peak / size:.1f}x the file's {size} bytes"
        assert again.ids.tolist() == table.ids.tolist()
        for name in ("spans", "distinctiveness", "novelty_count", "resonance"):
            assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True), name

    def test_rows_out_of_order_read_back_in_order(self, tmp_path):
        # a shuffled scores.csv reads back as the ordered one, and a repeated row raises wherever it stands
        rng = np.random.default_rng(36)
        n = 300
        novelty = rng.integers(0, 20, n)
        resonance = rng.normal(0, 3, n)
        resonance[rng.random(n) < 0.3] = np.nan
        table = ScoreTable([f"g{i // 3}" for i in range(n)], np.tile([1, 2, 5], n // 3),
                           novelty + rng.random(n) * 10, novelty, resonance)
        path, shuffled = tmp_path / "scores.csv", tmp_path / "shuffled.csv"
        table.write_csv(path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        ordered = read_scores_csv(path)
        assert ordered.ids.tolist() == table.ids.tolist()
        # every row moved, then only each id's spans reversed
        reversed_spans = [line for i in range(0, n, 3) for line in reversed(lines[i:i + 3])]
        for rows in ([lines[i] for i in rng.permutation(n)], reversed_spans):
            shuffled.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
            again = read_scores_csv(shuffled)
            assert again.ids.tolist() == ordered.ids.tolist()
            for name in ("spans", "distinctiveness", "novelty_count", "resonance"):
                assert np.array_equal(getattr(again, name), getattr(ordered, name), equal_nan=True), name
                assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True), name
        lines = [lines[i] for i in rng.permutation(n)]
        row = lines[5].split(",")[:2]
        for file, rows in ((path, sorted(lines)), (shuffled, lines)):
            file.write_text("\n".join([header] + rows + [lines[5]]) + "\n", encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(f"duplicate score row ('{row[0]}', {row[1]})")):
                read_scores_csv(file)

    def test_column_layouts_read_back_as_the_plain_file(self, tmp_path):
        # columns found by name: in any order, with extra columns ignored
        # and a repeated name read from its last column, as the corpus reads
        rs = make_recordset([("a", 2014, [0, 1, 1]), ("b", 2015, [1, 1, 0]), ("c", 2015, [0, 0, 1]),
                             ("d", 2016, [1, 0, 0])])
        table = score_corpus(rs, spans=(1, 2), last_complete_year=2016)
        path = tmp_path / "scores.csv"
        table.write_csv(path)
        header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        at = header.index("distinctiveness")
        permutation = [6, 2, 0, 5, 3, 1, 4]
        layouts = {
            "permuted": [[row[j] for j in permutation] for row in [header, *rows]],
            "extra": [header + ["notes"]] + [row + [f"n{i}"] for i, row in enumerate(rows)],
            "repeated": [header + ["distinctiveness"]] + [row[:at] + ["x"] + row[at + 1:] + [row[at]]
                                                          for row in rows],
        }
        plain = read_scores_csv(path)
        for name, lines in layouts.items():
            variant = tmp_path / f"{name}.csv"
            variant.write_text("\n".join(map(",".join, lines)) + "\n", encoding="utf-8")
            again = read_scores_csv(variant)
            assert again.ids.tolist() == plain.ids.tolist(), name
            for column in ("spans", "distinctiveness", "novelty_count", "resonance"):
                assert np.array_equal(getattr(again, column), getattr(plain, column), equal_nan=True), name
        # the row width is counted from the header, extra column included
        short = tmp_path / "short.csv"
        short.write_text("\n".join(map(",".join, [layouts["extra"][0], rows[0]])) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape("row 2: expected 8 cells, got 7")):
            read_scores_csv(short)

    def test_byte_deterministic(self, tmp_path):
        rs = make_recordset([("a", 2014, [0, 1]), ("b", 2015, [1, 1])])
        table = score_corpus(rs, spans=(1, 2))
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        table.write_csv(p1)
        score_corpus(rs, spans=(1, 2)).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_rows_rejected(self):
        rs = make_recordset([("a", 2014, [0, 1]), ("b", 2015, [1, 1])])
        t = score_corpus(rs, spans=(1,))
        with pytest.raises(ValueError):
            ScoreTable([t.ids[0]] * 2, [t.spans[0]] * 2, [t.distinctiveness[0]] * 2,
                       [t.novelty_count[0]] * 2, [np.nan] * 2)
