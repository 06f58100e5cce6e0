"""Registry, parsing, filtering, and round-trip behaviour of the corpus layer."""

import json
from typing import get_args

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from novascape.corpus import (
    CONTROLS,
    FILTER_RULES,
    RULE_DESIGNER,
    RULE_MECHANISMS,
    RULE_RATINGS,
    RULE_TRIVIAL_EXPANSION,
    RULE_YEAR,
    FeatureRegistry,
    FilterConfig,
    RecordSet,
    apply_filters,
    canonical_registry,
    load_registry,
    parse_records,
    write_records_csv,
    write_registry,
)
from novascape.errors import (
    DimensionError,
    DuplicateFeature,
    DuplicateId,
    EmptyRegistry,
    ParseError,
    SchemaError,
    UnknownFeature,
)
from novascape.synth import SynthConfig, generate_corpus

from conftest import make_record, make_recordset, make_registry

CSV_HEADER = (
    "id,year,mechanisms,crowdfunded,genre,team_size,debut,complexity,"
    "playing_time,min_players,max_players,min_age,is_expansion,is_adult,num_ratings"
)


def write_csv(tmp_path, rows, header=CSV_HEADER, name="corpus.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestRegistry:
    def test_dimension_and_order(self):
        reg = FeatureRegistry(("Dice Rolling", "Set Collection", "Auction/Bidding"))
        assert reg.dimension == 3
        assert reg.index("Set Collection") == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateFeature):
            FeatureRegistry(("A", "B", "A"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyRegistry):
            FeatureRegistry(())

    def test_encode_decode_round_trip(self):
        reg = make_registry(5)
        bits = reg.encode(["f3", "f0"])
        assert bits.tolist() == [1, 0, 0, 1, 0]
        assert reg.decode(bits) == ("f0", "f3")

    def test_encode_repeated_name_sets_bit_once(self):
        reg = make_registry(3)
        assert reg.encode(["f1", "f1"]).tolist() == [0, 1, 0]

    def test_encode_unknown_feature(self):
        reg = make_registry(3)
        with pytest.raises(UnknownFeature) as exc:
            reg.encode(["f1", "nope"], row=7)
        assert "nope" in str(exc.value)
        assert "7" in str(exc.value)

    def test_decode_wrong_length(self):
        reg = make_registry(3)
        with pytest.raises(DimensionError):
            reg.decode(np.zeros(4, dtype=np.uint8))

    def test_load_text_and_json_agree(self, tmp_path):
        names = ["Dice Rolling", "Hand Management"]
        txt = tmp_path / "reg.txt"
        txt.write_text("\n".join(names) + "\n", encoding="utf-8")
        js = tmp_path / "reg.json"
        js.write_text(json.dumps(names), encoding="utf-8")
        assert load_registry(txt).names == load_registry(js).names == tuple(names)

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "reg.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyRegistry):
            load_registry(path)

    @pytest.mark.parametrize("name", ["a;b", ";", " d", "e ", "f\t"])
    def test_names_no_corpus_row_can_set_are_rejected(self, tmp_path, name):
        # rows split mechanisms on ";" and strip each name, so these bits could never be set
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(["Dice Rolling", name]), encoding="utf-8")
        with pytest.raises(ParseError):
            load_registry(path)

    def test_canonical_registry_is_51_wide(self):
        reg = canonical_registry()
        assert reg.dimension == 51
        assert reg.names[0] == "Acting"
        assert reg.names[-1] == "Worker Placement"
        assert "Deck/Pool Building" in reg.names
        assert "Dice Rolling" in reg.names

    def test_registry_write_read_round_trip(self, tmp_path):
        reg = canonical_registry()
        path = tmp_path / "reg.txt"
        write_registry(reg, path)
        assert load_registry(path).names == reg.names


class TestParsing:
    def good_row(self, rid="g1", mechanisms="f0;f2", **over):
        cells = {
            "id": rid,
            "year": "2015",
            "mechanisms": mechanisms,
            "crowdfunded": "1",
            "genre": "Strategy Games",
            "team_size": "2",
            "debut": "0",
            "complexity": "2.5",
            "playing_time": "90",
            "min_players": "2",
            "max_players": "4",
            "min_age": "12",
            "is_expansion": "0",
            "is_adult": "0",
            "num_ratings": "150",
        }
        cells.update(over)
        return ",".join(cells[c] for c in CSV_HEADER.split(","))

    def test_parse_basic(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row()])
        rs = parse_records(path, registry4)
        assert len(rs) == 1
        rec = rs[0]
        assert rec.id == "g1"
        assert rec.year == 2015
        assert rec.vector.tolist() == [1, 0, 1, 0]
        assert rec.crowdfunded is True
        assert rec.debut is False
        assert rec.complexity == 2.5
        assert rec.parent_id is None

    def test_parse_optional_parent_id(self, tmp_path, registry4):
        header = CSV_HEADER + ",parent_id"
        rows = [self.good_row() + ",", self.good_row(rid="g2") + ",g1"]
        path = write_csv(tmp_path, rows, header=header)
        rs = parse_records(path, registry4)
        assert rs[0].parent_id is None
        assert rs[1].parent_id == "g1"

    def test_missing_column_is_schema_error(self, tmp_path, registry4):
        header = CSV_HEADER.replace(",num_ratings", "")
        row = self.good_row().rsplit(",", 1)[0]
        path = write_csv(tmp_path, [row], header=header)
        with pytest.raises(SchemaError):
            parse_records(path, registry4)

    def test_duplicate_id_rejected(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(), self.good_row()])
        with pytest.raises(DuplicateId):
            parse_records(path, registry4)

    def test_unknown_mechanism_reports_row(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(), self.good_row(rid="g2", mechanisms="f0;mystery")])
        with pytest.raises(UnknownFeature) as exc:
            parse_records(path, registry4)
        assert "3" in str(exc.value)  # header is line 1

    def test_bad_boolean_rejected(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(crowdfunded="yes")])
        with pytest.raises(ParseError):
            parse_records(path, registry4)

    def test_out_of_range_complexity_rejected(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(complexity="6.1")])
        with pytest.raises(ParseError):
            parse_records(path, registry4)

    def test_min_players_above_max_rejected(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(min_players="5", max_players="2")])
        with pytest.raises(ParseError):
            parse_records(path, registry4)

    def test_empty_mechanism_list_is_zero_vector(self, tmp_path, registry4):
        path = write_csv(tmp_path, [self.good_row(mechanisms="")])
        rs = parse_records(path, registry4)
        assert rs[0].popcount == 0


class TestRecordSet:
    def test_matrix_and_year_rows(self):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [0, 1]), ("c", 2010, [1, 1])])
        assert rs.matrix.shape == (3, 2)
        assert rs.matrix.dtype == np.uint8
        assert rs.year_rows[2010].tolist() == [0, 2]
        assert rs.rows_in_years(2010, 2010).tolist() == [0, 2]
        assert rs.rows_in_years(2005, 2009).tolist() == []

    def test_duplicate_ids_rejected(self):
        reg = make_registry(2)
        recs = [make_record("x", 2010, [1, 0], reg), make_record("x", 2011, [0, 1], reg)]
        with pytest.raises(DuplicateId):
            RecordSet(recs, reg)

    def test_dimension_mismatch_rejected(self):
        reg = make_registry(2)
        rec = make_record("x", 2010, [1, 0, 1], make_registry(3))
        with pytest.raises(DimensionError):
            RecordSet([rec], reg)


class TestFilters:
    def base_rows(self):
        reg = make_registry(3)
        return reg, [
            make_record("keep", 2010, [1, 1, 0], reg),
            make_record("old", 1999, [1, 1, 0], reg),
            make_record("thin", 2010, [1, 0, 0], reg),
            make_record("quiet", 2010, [1, 1, 0], reg, num_ratings=3),
            make_record("anon", 2010, [1, 1, 0], reg, team_size=0),
        ]

    def test_each_rule_fires(self):
        reg, recs = self.base_rows()
        out, report = apply_filters(RecordSet(recs, reg), FilterConfig())
        assert out.ids == ("keep",)
        assert report.input_count == 5
        assert report.output_count == 1
        assert report.dropped == {
            "year_range": 1,
            "min_ratings": 1,
            "min_mechanisms": 1,
            "require_designer": 1,
        }

    def test_first_failed_rule_wins(self):
        # old AND quiet: year_range is checked first
        reg = make_registry(2)
        rec = make_record("both", 1999, [1, 1], reg, num_ratings=0)
        _, report = apply_filters(RecordSet([rec], reg), FilterConfig())
        assert report.dropped == {"year_range": 1}

    def test_trivial_expansion_dropped(self):
        reg = make_registry(3)
        parent = make_record("base", 2010, [1, 1, 0], reg)
        clone = make_record("exp1", 2011, [1, 1, 0], reg, is_expansion=True, parent_id="base")
        fresh = make_record("exp2", 2012, [1, 0, 1], reg, is_expansion=True, parent_id="base")
        orphan = make_record("exp3", 2011, [1, 1, 0], reg, is_expansion=True, parent_id="gone")
        out, report = apply_filters(RecordSet([parent, clone, fresh, orphan], reg), FilterConfig())
        assert out.ids == ("base", "exp2", "exp3")
        assert report.dropped == {"trivial_expansion": 1}

    def test_trivial_expansion_can_be_disabled(self):
        reg = make_registry(2)
        parent = make_record("base", 2010, [1, 1], reg)
        clone = make_record("exp", 2011, [1, 1], reg, is_expansion=True, parent_id="base")
        out, _ = apply_filters(RecordSet([parent, clone], reg), FilterConfig(drop_trivial_expansions=False))
        assert out.ids == ("base", "exp")

    def test_year_max(self):
        reg = make_registry(2)
        recs = [make_record("a", 2016, [1, 1], reg), make_record("b", 2018, [1, 1], reg)]
        out, report = apply_filters(RecordSet(recs, reg), FilterConfig(year_max=2016))
        assert out.ids == ("a",)
        assert report.dropped == {"year_range": 1}

    def test_report_json_lists_every_rule(self):
        reg, recs = self.base_rows()
        _, report = apply_filters(RecordSet(recs, reg), FilterConfig())
        payload = json.loads(report.to_json())
        assert payload["input_count"] == 5
        assert payload["output_count"] == 1
        assert set(payload["dropped"]) == set(FILTER_RULES)
        assert payload["dropped"]["trivial_expansion"] == 0

    def test_idempotent(self):
        reg, recs = self.base_rows()
        cfg = FilterConfig()
        once, _ = apply_filters(RecordSet(recs, reg), cfg)
        twice, report = apply_filters(once, cfg)
        assert twice.ids == once.ids
        assert report.input_count == report.output_count

    def test_order_independent(self):
        reg, recs = self.base_rows()
        cfg = FilterConfig()
        fwd, _ = apply_filters(RecordSet(recs, reg), cfg)
        rev, _ = apply_filters(RecordSet(list(reversed(recs)), reg), cfg)
        assert sorted(fwd.ids) == sorted(rev.ids)


@st.composite
def random_records(draw):
    reg = make_registry(4)
    n = draw(st.integers(1, 12))
    recs = []
    for i in range(n):
        bits = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
        recs.append(
            make_record(
                f"r{i}",
                draw(st.integers(2000, 2018)),
                bits,
                reg,
                num_ratings=draw(st.integers(0, 50)),
                team_size=draw(st.integers(0, 3)),
                is_expansion=draw(st.booleans()),
                parent_id=draw(st.sampled_from([None, "r0", "r1"])),
            )
        )
    return RecordSet(recs, reg)


@settings(max_examples=60, deadline=None)
@given(random_records())
def test_filtering_is_idempotent(records):
    cfg = FilterConfig()
    once, _ = apply_filters(records, cfg)
    twice, _ = apply_filters(once, cfg)
    assert twice.ids == once.ids


@settings(max_examples=60, deadline=None)
@given(random_records())
def test_filter_counts_are_consistent(records):
    _, report = apply_filters(records, FilterConfig())
    assert report.input_count == report.output_count + sum(report.dropped.values())


def first_failed_rule(rec, records, cfg):
    """Per-record reference of the filtering protocol: the first rule rec fails, or None."""
    if rec.year < cfg.year_min or (cfg.year_max is not None and rec.year > cfg.year_max):
        return RULE_YEAR
    if rec.num_ratings < cfg.min_ratings:
        return RULE_RATINGS
    if rec.popcount < cfg.min_mechanisms:
        return RULE_MECHANISMS
    if cfg.require_designer and rec.team_size < 1:
        return RULE_DESIGNER
    if cfg.drop_trivial_expansions and rec.is_expansion and rec.parent_id is not None:
        parent = {r.id: r for r in records}.get(rec.parent_id)
        if parent is not None and np.array_equal(parent.vector, rec.vector):
            return RULE_TRIVIAL_EXPANSION
    return None


@settings(max_examples=100, deadline=None)
@given(
    random_records(),
    st.one_of(st.none(), st.integers(2000, 2018)),
    st.integers(0, 5),
    st.booleans(),
    st.booleans(),
)
def test_filter_masks_match_per_record_reference(records, year_max, min_mechanisms, designer, trivial):
    cfg = FilterConfig(min_mechanisms=min_mechanisms, year_max=year_max,
                       require_designer=designer, drop_trivial_expansions=trivial)
    out, report = apply_filters(records, cfg)
    kept, dropped = [], {}
    for rec in records:
        rule = first_failed_rule(rec, records, cfg)
        if rule is None:
            kept.append(rec.id)
        else:
            dropped[rule] = dropped.get(rule, 0) + 1
    assert out.ids == tuple(kept)
    assert report.dropped == {rule: dropped[rule] for rule in FILTER_RULES if rule in dropped}


def test_write_read_round_trip(tmp_path):
    reg = make_registry(3)
    rs = RecordSet([
        make_record("a", 2010, [1, 0, 1], reg, complexity=3.25, playing_time=45.5, genre="party"),
        make_record("b", 2011, [0, 1, 1], reg, crowdfunded=True, debut=False, team_size=3,
                    min_players=1, max_players=0, min_age=0, is_expansion=True, is_adult=True,
                    num_ratings=0, parent_id="a"),
    ], reg)
    path = tmp_path / "corpus.csv"
    write_records_csv(rs, path)
    back = parse_records(path, rs.registry)
    assert back.ids == rs.ids
    assert np.array_equal(back.matrix, rs.matrix)
    for orig, rt in zip(rs, back):
        for name in ("id", "year") + tuple(name for name, _ in CONTROLS):
            assert getattr(rt, name) == getattr(orig, name), name
        assert np.array_equal(rt.vector, orig.vector)
        for name, kind in (("id", str), ("year", int)) + CONTROLS:
            assert type(getattr(rt, name)) in (get_args(kind) or (kind,)), name
    assert back[1].parent_id == "a" and back[0].parent_id is None
    assert back[1].crowdfunded is True and back[1].is_adult is True and back[0].debut is True


small_synth_configs = st.builds(
    SynthConfig,
    dimension=st.integers(1, 20),
    year_start=st.just(2006),
    year_end=st.integers(2006, 2009),
    games_per_year=st.integers(1, 40),
    crowdfunded_share_by_year=st.floats(0.0, 1.0),
    base_mechanism_rate=st.floats(0.0, 1.0),
    recombination_rate=st.floats(0.0, 1.0),
    base_mutation_bits=st.floats(0.0, 5.0),
    novelty_boost=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)


# report hands the synthetic corpus to ingest in memory; a stepwise ingest
# parses the written CSV, so the two must hold the same columns
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_synth_configs)
def test_synthetic_corpus_round_trips_through_csv(tmp_path, cfg):
    rs = generate_corpus(cfg)
    path = tmp_path / "synth.csv"
    write_records_csv(rs, path)
    back = parse_records(path, rs.registry)
    assert back.ids == rs.ids
    assert np.array_equal(back.years, rs.years)
    assert np.array_equal(back.matrix, rs.matrix)
    assert back.columns.keys() == rs.columns.keys()
    for name, column in rs.columns.items():
        assert back.columns[name].dtype == column.dtype, name
        assert back.columns[name].tolist() == column.tolist(), name


def test_write_is_byte_deterministic(tmp_path):
    rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [0, 1])], complexity=1.75)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_records_csv(rs, p1)
    write_records_csv(rs, p2)
    assert p1.read_bytes() == p2.read_bytes()
