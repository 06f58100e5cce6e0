"""Registry, parsing, filtering, and round-trip behaviour of the corpus layer."""

import csv
import io
import itertools
import json
from typing import Optional, get_args

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from novascape import corpus
from novascape.corpus import (
    _KINDS,
    CONTROLS,
    MECHANISM_SEPARATOR,
    REQUIRED_COLUMNS,
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
    _parse_int,
    _validate_row,
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

    @pytest.mark.parametrize("text", ["Dice Rolling\nHand Management\n", '["Dice Rolling", "Hand Management"]'],
                             ids=["text", "json"])
    def test_utf8_bom_is_not_part_of_the_first_name(self, tmp_path, text):
        path = tmp_path / "reg.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        reg = load_registry(path)
        assert reg.names == ("Dice Rolling", "Hand Management")
        write_registry(reg, path)
        assert path.read_bytes().startswith(b"Dice Rolling\n")


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

    def test_earliest_bad_row_wins_over_an_earlier_check(self, tmp_path, registry4):
        # year is checked before min_age within a row, but row 2 comes first
        path = write_csv(tmp_path, [self.good_row(min_age="30"), self.good_row(rid="g2", year="20x5")])
        with pytest.raises(ParseError, match=r"^row 2: min_age 30 outside \[0, 25\]$"):
            parse_records(path, registry4)

    def test_header_only_file_is_empty(self, tmp_path, registry4):
        rs = parse_records(write_csv(tmp_path, []), registry4)
        assert len(rs) == 0 and rs.matrix.shape == (0, 4)
        assert {name: column.dtype for name, column in rs.columns.items()} == {
            name: np.dtype(_KINDS[kind][0]) for name, kind in CONTROLS}

    def test_utf8_bom_is_skipped_and_not_written(self, tmp_path, registry4):
        plain = write_csv(tmp_path, [self.good_row()])
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        rs = parse_records(marked, registry4)
        assert rs.ids == ("g1",) and rs.matrix.tolist() == [[1, 0, 1, 0]]
        write_records_csv(rs, marked)
        assert marked.read_bytes().startswith(b"id,year,")

    @pytest.mark.parametrize("first", ["good", "bad"])
    def test_bad_row_before_an_unreadable_one_is_reported_as_before(self, tmp_path, registry4, first):
        # csv.reader fails on row 3's oversized field; a bad row 2 is still the error
        row = self.good_row() if first == "good" else self.good_row(min_age="30")
        path = write_csv(tmp_path, [row, self.good_row(rid="x" * (csv.field_size_limit() + 1))])
        assert parse_outcome(parse_records, path, registry4) == parse_outcome(
            dictreader_parse_records, path, registry4)
        with pytest.raises(csv.Error if first == "good" else ParseError):
            parse_records(path, registry4)


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


def dictreader_parse_records(path, registry):
    """The row-by-row csv.DictReader parser that parse_records replaced, kept as its oracle."""
    ids, years, vectors = [], [], []
    columns = {name: [] for name, _ in CONTROLS}
    parsers = [(name, _KINDS[kind][1]) for name, kind in CONTROLS]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        # DictReader rows are 1-based after the header line
        for row_no, row in enumerate(reader, start=2):
            if any(row.get(c) is None for c in REQUIRED_COLUMNS):
                raise ParseError(f"row {row_no}: short row")
            mech_field = row["mechanisms"].strip()
            mechanisms = [m.strip() for m in mech_field.split(MECHANISM_SEPARATOR) if m.strip()] if mech_field else []
            vectors.append(registry.encode(mechanisms, row=row_no))
            years.append(_parse_int(row["year"], row_no, "year"))
            values = {name: parse(row.get(name), row_no, name) for name, parse in parsers}
            _validate_row(row["id"], values, row_no)
            ids.append(row["id"])
            for name, value in values.items():
                columns[name].append(value)
    matrix = np.array(vectors, dtype=np.uint8).reshape(len(ids), registry.dimension)
    return RecordSet.from_columns(registry, ids, years, matrix, columns)


def parse_outcome(parse, path, registry):
    """Every column with its dtype, or the type and message of the error raised."""
    try:
        rs = parse(path, registry)
    except Exception as exc:
        return type(exc), str(exc)
    columns = {"year": rs.years, "matrix": rs.matrix, **rs.columns}
    return rs.ids, {name: (column.dtype, column.tolist()) for name, column in columns.items()}


# Cells each column draws from: valid ones, edge cases of the builtins'
# grammar among them (underscores, edge spaces, Unicode digits, signs), and
# for a spoiled cell ones that fail a parse, the int64 or finiteness check, or
# a range check.
GOOD_CELLS = {
    "year": ["2015", "1_999", " 2010 ", "\u0662\u0660\u0661\u0665", "+2001", "-5"],
    "team_size": ["2", "0", "1_0", " 3 "],
    "complexity": ["2.5", "0", " 1.5 ", "0_1.5", "\u0663.5", "5", "1e0"],
    "playing_time": ["90", "0", "1_0.5", "1e2", " 45.5 ", "\u0663"],
    "min_players": ["1", "2", " 1 ", "\u0661"],
    "max_players": ["0", "4", "1_0", " 7 ", "\u0664"],
    "min_age": ["12", "0", " 7 ", "2_5", "\u0663", "25"],
    "num_ratings": ["150", "0", "1_000", "9223372036854775807", " 7 "],
    "notes": ["Strategy Games", "a,b", 'say "hi"', "two\nlines", "x;y", ""],
    "id": ["", ",a", '"q"', "\nb", ";c"],  # suffixes to a row's unique id
    **{name: ["0", "1"] for name, kind in CONTROLS if kind is bool},
}
GOOD_CELLS.update(genre=GOOD_CELLS["notes"], parent_id=["", "r0", "zz", "a;b"])
BAD_CELLS = {
    "id": ["", "r0", "r1"],  # empty, or the id of row 2 or 3
    "year": ["x", "2.5", "", "1__0", "9223372036854775808", "-9223372036854775809"],
    "team_size": ["-1", "-1", "x", "nan"],
    "complexity": ["5.5", "-0.5", "nan", "inf", "1e400", "1,5"],
    "playing_time": ["-1", "-1e-9", "inf", "1e400", "-inf", "", "abc"],
    "min_players": ["9", "11", "", "+-1"],
    "max_players": ["1", "1", "9223372036854775808", "1.0"],
    "min_age": ["26", "-1", "\u0663\u0663", "2__5"],
    "num_ratings": ["-1", "-1", "-9223372036854775809", "1e3"],
    **{name: ["", " 1", "true", "2", "01"] for name, kind in CONTROLS if kind is bool},
}
MECHANISM_PARTS = ["f0", "f1", "f2", "f3", " f1 ", "f2\n", "", " "]
BAD_MECHANISM_PARTS = ["zz", "F0", "f0 f1"]
GOOD_CELLS["mechanisms"] = [MECHANISM_SEPARATOR.join(parts) for k in range(4)
                            for parts in itertools.product(MECHANISM_PARTS, repeat=k)]


@st.composite
def corpus_csv_texts(draw):
    """CSV text in the corpus schema: shuffled, repeated, missing or extra columns; good and bad rows."""
    names = list(REQUIRED_COLUMNS) + draw(st.sampled_from([[], ["parent_id"], ["notes"], ["parent_id", "notes"]]))
    header = draw(st.permutations(names))
    if draw(st.integers(0, 3)) == 0:
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(names)))  # repeated name
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(REQUIRED_COLUMNS)))  # schema error
    n = draw(st.integers(0, 12))
    spoiled_rows = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    lines = [header]
    for i in range(n):
        spoil = i in spoiled_rows
        # a spoiled row takes a bad cell in one or two columns
        spoiled = draw(st.sets(st.sampled_from(names), min_size=1, max_size=2)) if spoil else set()
        pick = draw(st.integers(0, 2**64))  # one draw chooses every other cell of the row
        row = []
        for name in header:
            if name == "mechanisms" and name in spoiled:
                parts = draw(st.lists(st.sampled_from(MECHANISM_PARTS + BAD_MECHANISM_PARTS), max_size=4))
                cell = MECHANISM_SEPARATOR.join(parts)
            elif name in spoiled:
                cell = draw(st.sampled_from(BAD_CELLS.get(name, GOOD_CELLS[name])))
            else:
                pick, at = divmod(pick, len(GOOD_CELLS[name]))
                cell = f"r{i}{GOOD_CELLS[name][at]}" if name == "id" else GOOD_CELLS[name][at]
            row.append(cell)
        if spoil and draw(st.integers(0, 3)) == 0:  # short or long row
            row = row[:max(0, len(row) - draw(st.integers(0, 3)))]
            row += draw(st.lists(st.sampled_from(["", "9"]), max_size=2))
        lines.extend([[]] * draw(st.integers(0, 1)) + [row])  # [] writes a blank line
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus_csv_texts(), st.sampled_from([1, 3, 4096]))
def test_column_parser_matches_the_row_parser(tmp_path, monkeypatch, text, block_rows):
    # a block of 3 puts block boundaries inside most drawn files
    monkeypatch.setattr(corpus, "PARSE_BLOCK_ROWS", block_rows)
    path = tmp_path / "corpus.csv"
    path.write_text(text, encoding="utf-8", newline="")
    registry = make_registry(4)
    assert parse_outcome(parse_records, path, registry) == parse_outcome(dictreader_parse_records, path, registry)


def single_cell_variants():
    """(column, cell) for every listed cell, and (None, length) for every cut of a row."""
    names = list(REQUIRED_COLUMNS) + ["parent_id"]
    for name in names:
        if name == "mechanisms":
            yield from ((name, part) for part in MECHANISM_PARTS + BAD_MECHANISM_PARTS)
        else:
            yield from ((name, cell) for cell in GOOD_CELLS[name] + BAD_CELLS.get(name, []))
    yield from ((None, length) for length in range(len(names) + 2))


@pytest.mark.parametrize("block_rows", [2, 4096])
def test_column_parser_matches_the_row_parser_on_every_listed_cell(tmp_path, monkeypatch, block_rows):
    # each listed cell, or each row length, in row 3 of an otherwise valid file
    monkeypatch.setattr(corpus, "PARSE_BLOCK_ROWS", block_rows)
    names = list(REQUIRED_COLUMNS) + ["parent_id"]
    registry = make_registry(4)
    path = tmp_path / "corpus.csv"
    for name, variant in single_cell_variants():
        rows = [[f"r{i}" if c == "id" else GOOD_CELLS[c][0] for c in names] for i in range(4)]
        if name is None:
            rows[1] = (rows[1] + ["9"])[:variant]
        else:
            rows[1][names.index(name)] = variant
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([names] + rows)
        expected = parse_outcome(dictreader_parse_records, path, registry)
        assert parse_outcome(parse_records, path, registry) == expected, (name, variant)
