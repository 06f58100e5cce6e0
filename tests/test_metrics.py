"""Innovation score behaviour checked against packed-integer brute force.

The oracle path never touches the library's matrix arithmetic: vectors are
packed into Python ints and distances taken with int.bit_count on the XOR,
with exact Fraction means.
"""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novascape import metrics
from novascape.errors import DimensionError, EmptyWindow, ParseError
from novascape.metrics import (
    FUTURE,
    PAST,
    SCORE_COLUMNS,
    FeatureProfile,
    ScoreTable,
    build_profile,
    cross_hamming,
    distinctiveness_fast,
    hamming,
    read_scores_csv,
    score_corpus,
    window_years,
)

from conftest import make_recordset


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
    def test_past_and_future_year_ranges(self):
        assert window_years(2015, 2, PAST) == (2013, 2014)
        assert window_years(2015, 2, FUTURE) == (2016, 2017)
        assert window_years(2015, 5, PAST) == (2010, 2014)

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

    def test_empty_window_raises(self):
        rs = make_recordset([("g", 2015, [1, 1])])
        with pytest.raises(EmptyWindow):
            distinctiveness_fast([1, 1], build_profile(rs, *window_years(2015, 2, PAST)))
        assert score_corpus(rs, spans=(2,)).unscored == (("g", 2),)

    def test_profile_fast_path_frozen_example(self):
        profile = FeatureProfile(n=2, counts=np.array([1, 1, 2]))
        assert distinctiveness_fast([1, 1, 0], profile) == 2.0

    def test_build_profile_counts(self):
        rs = make_recordset([("a", 2013, [0, 1, 1]), ("b", 2014, [1, 0, 1]), ("c", 2015, [1, 1, 1])])
        profile = build_profile(rs, 2013, 2014)
        assert profile.n == 2
        assert profile.counts.tolist() == [1, 1, 2]

    @settings(max_examples=100, deadline=None)
    @given(bitvec, st.lists(bitvec, min_size=1, max_size=10))
    def test_fast_path_equals_brute_force(self, g, window):
        rows = [("g", 2015, g)] + [(f"w{i}", 2014, w) for i, w in enumerate(window)]
        rs = make_recordset(rows)
        profile = build_profile(rs, 2014, 2014)
        want = oracle_mean_distance(g, window)
        got_slow = score_corpus(rs, spans=(1,)).get("g", 1).distinctiveness
        got_fast = distinctiveness_fast(g, profile)
        assert got_slow == pytest.approx(float(want), rel=1e-12)
        assert got_fast == got_slow


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
        for row in table:
            rec = rs[rs.row_of[row.record_id]]
            past = [w.vector for w in rs if rec.year - row.span_years <= w.year < rec.year]
            future = [w.vector for w in rs if rec.year < w.year <= rec.year + row.span_years]
            assert row.distinctiveness == float(oracle_mean_distance(rec.vector, past))
            assert row.novelty_count == oracle_min_distance(rec.vector, past)
            if rec.year + row.span_years > 2016:
                assert row.resonance is None
            else:
                want_res = float(oracle_mean_distance(rec.vector, past)) - float(
                    oracle_mean_distance(rec.vector, future))
                assert row.resonance == pytest.approx(want_res, rel=1e-12)

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
        keys = [(r.record_id, r.span_years) for r in table]
        assert keys == sorted(keys)

    def test_resonance_rows_are_strict_subset(self):
        rs = self.demo_corpus()
        table = score_corpus(rs, spans=(1,), last_complete_year=2016)
        with_res = [r for r in table if r.resonance is not None]
        assert 0 < len(with_res) < len(table)
        for row in with_res:
            assert rs[rs.row_of[row.record_id]].year + row.span_years <= 2016

    def test_deterministic_across_runs(self):
        a = score_corpus(self.demo_corpus(), spans=(1, 2, 5), last_complete_year=2016)
        b = score_corpus(self.demo_corpus(), spans=(1, 2, 5), last_complete_year=2016)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.record_id == rb.record_id
            assert ra.distinctiveness == rb.distinctiveness
            assert ra.novelty_count == rb.novelty_count
            assert ra.resonance == rb.resonance


class TestPackedKernel:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130, 300])
    def test_score_corpus_matches_oracles_across_word_boundaries(self, dim, monkeypatch):
        # 3-row blocks leave the 7-row year a partial last block; 2015 rows
        # differ from 2014 rows in ~90% of features, so at d=300 distances pass 255
        monkeypatch.setattr(metrics, "NOVELTY_BLOCK_ROWS", 3)
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
        # one 3000 x 3000 focal x window int64 distance matrix alone is 72 MB
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
            return [(r.record_id, r.span_years, r.distinctiveness, r.novelty_count,
                     r.novelty_binary, r.resonance) for r in t]

        again = read_scores_csv(path)
        assert fields(again) == fields(table)
        assert again.get("g", 1).resonance == 7 / 3 - 1

    @pytest.mark.parametrize("rows, message", [
        # columns are checked in column order, so row 3's span comes before row 2's distinctiveness
        (["a,1,x,0,0,NA,0", "b,1.5,1,0,0,NA,0"], "row 3: column 'span' is not an integer: '1.5'"),
        (["a,1,1,0,0,NA,0", "b,1,1,0,0,nan,1"], "row 3: column 'resonance' is not finite: 'nan'"),
        (["a,1,1,0,0,NA,0", "", "b,1,1,0,0,NA,0"], "row 3: expected 7 cells, got 0"),
    ], ids=["column-order", "nan-is-not-NA", "blank-row"])
    def test_bad_rows(self, tmp_path, rows, message):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([",".join(SCORE_COLUMNS)] + rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_scores_csv(path)

    def test_byte_deterministic(self, tmp_path):
        rs = make_recordset([("a", 2014, [0, 1]), ("b", 2015, [1, 1])])
        table = score_corpus(rs, spans=(1, 2))
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        table.write_csv(p1)
        score_corpus(rs, spans=(1, 2)).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_rows_rejected(self):
        rs = make_recordset([("a", 2014, [0, 1]), ("b", 2015, [1, 1])])
        row = next(iter(score_corpus(rs, spans=(1,))))
        with pytest.raises(ValueError):
            ScoreTable([row.record_id] * 2, [row.span_years] * 2, [row.distinctiveness] * 2,
                       [row.novelty_count] * 2, [np.nan] * 2)
