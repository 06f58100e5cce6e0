"""End-to-end tests for the pipeline CLI: exit codes, files, determinism."""

import collections.abc
import copy
import csv
import dataclasses
import gc
import json
import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Union, get_args, get_origin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novascape import cli, landscape, stats
from novascape.cli import (
    EXIT_EMPTY,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    LandscapeConfig,
    PipelineConfig,
    atomic_write,
    main,
    recovery_seed,
)
from novascape.corpus import FilterConfig, Record, load_registry, parse_records
from novascape.metrics import InnovationScores, read_scores_csv, score_corpus
from novascape.errors import ConfigError
from novascape.landscape import EXPORT_FORMATS
from novascape.stats import FAMILIES, JOINED_COLUMNS, JOINED_LABELS, ROBUST_VARIANTS, TRANSFORMS, ModelSpec
from novascape.synth import SynthConfig, generate_corpus


def pipeline_payload(out_dir: Path) -> dict:
    # small but deep enough for every stage to produce non-trivial output
    return {
        "out_dir": str(out_dir),
        "spans": [1, 2],
        "stats_span": 2,
        "landscape": {"snapshot_years": [2009, 2011], "min_type_count": 4, "seed": 7},
        "synth": {
            "dimension": 12,
            "year_start": 2006,
            "year_end": 2011,
            "games_per_year": 150,
            "crowdfunded_share_by_year": 0.3,
            "base_mechanism_rate": 0.3,
            "novelty_boost": 1.0,
            "seed": 11,
        },
    }


MODEL = {"outcome": "distinctiveness", "family": "ols", "terms": ["crowdfunded"]}


def write_config(tmp_path: Path, payload: dict, name: str = "run.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def snapshot(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def set_cell(path: Path, row: int, column: str, value: str) -> None:
    """Rewrite one cell of a CSV file; row 1 is the first row after the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def synth_and_ingest(cfg: Path, out: Path) -> None:
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    assert main(["ingest", "--config", str(cfg), "--corpus", str(out / "synth_corpus.csv"),
                 "--registry", str(out / "synth_registry.txt")]) == EXIT_OK


# a valid config with every section, every list non-empty and the share as a map,
# so that every field path below exists in it
FULL_PAYLOAD = {
    "spans": [2],
    "filters": {},
    "landscape": {"snapshot_years": [2011]},
    "formats": ["json"],
    "models": {"M": {"outcome": "distinctiveness", "family": "ols",
                     "terms": [["crowdfunded", "identity"]], "fixed_effects": ["year"]}},
    "synth": {"year_start": 2006, "year_end": 2006, "crowdfunded_share_by_year": {"2006": 0.3}},
}

# one value of each JSON type
JSON_VALUES = (True, 3, 2.5, "text", None, [1], {"k": 1})


def field_paths(kind, path=()):
    """(path, type) of `kind` and of all it nests: dataclass fields, the values
    of a mapping (under the key FULL_PAYLOAD uses) and list elements (the first
    of a Tuple[X, ...], each of a fixed-length tuple)."""
    yield path, kind
    for option in get_args(kind) if get_origin(kind) is Union else (kind,):
        if dataclasses.is_dataclass(option):
            for f in dataclasses.fields(option):
                yield from field_paths(f.type, path + (f.name,))
        elif get_origin(option) is collections.abc.Mapping:
            key = "2006" if get_args(option)[0] is int else "M"
            yield from field_paths(get_args(option)[1], path + (key,))
        elif get_origin(option) is tuple:
            items = get_args(option)
            for i, item in enumerate(items[:1] if items[-1] is Ellipsis else items):
                yield from field_paths(item, path + (i,))


def json_fits(kind, value) -> bool:
    """Whether the JSON type of `value` is one that field type `kind` takes."""
    if get_origin(kind) is Union:
        return any(json_fits(option, value) for option in get_args(kind))
    if get_origin(kind) is tuple:
        return isinstance(value, list)
    if get_origin(kind) is collections.abc.Mapping or dataclasses.is_dataclass(kind):
        return isinstance(value, dict)
    return type(value) in ((int, float) if kind is float else (kind,))


def with_value(payload: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@st.composite
def model_specs(draw):
    numeric = [c for c in JOINED_COLUMNS if c not in JOINED_LABELS]
    outcome = draw(st.sampled_from(numeric))
    terms = draw(st.lists(st.sampled_from([c for c in numeric if c != outcome]), unique=True, max_size=3))
    return ModelSpec(
        outcome, draw(st.sampled_from(FAMILIES)),
        tuple((t, draw(st.sampled_from(TRANSFORMS))) for t in terms),
        tuple(draw(st.lists(st.sampled_from(JOINED_COLUMNS), unique=True, max_size=2))),
        draw(st.sampled_from(ROBUST_VARIANTS)),
    )


@st.composite
def pipeline_configs(draw):
    years, seeds = st.integers(1900, 2100), st.integers(0, 2**63 - 1)
    unit, texts = st.floats(0.0, 1.0), st.text(max_size=8)
    spans = tuple(draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True)))
    synth = None
    if draw(st.booleans()):
        start = draw(years)
        end = start + draw(st.integers(0, 3))
        synth = SynthConfig(
            dimension=draw(st.integers(1, 64)), year_start=start, year_end=end,
            games_per_year=draw(st.integers(1, 1000)),
            crowdfunded_share_by_year=draw(unit | st.fixed_dictionaries(
                {y: unit for y in range(start, end + 1)})),
            base_mechanism_rate=draw(unit), recombination_rate=draw(unit),
            base_mutation_bits=draw(st.floats(0.0, 1e6)), novelty_boost=draw(st.floats(0.0, 1e6)),
            seed=draw(seeds),
        )
    return PipelineConfig(
        corpus_path=draw(st.none() | texts), registry_path=draw(st.none() | texts),
        out_dir=draw(texts), spans=spans, stats_span=draw(st.sampled_from(spans)),
        last_complete_year=draw(st.none() | years),
        filters=FilterConfig(draw(st.integers(0, 5)), draw(st.integers(0, 50)), draw(st.booleans()),
                             draw(st.booleans()), draw(years), draw(st.none() | years)),
        landscape=LandscapeConfig(tuple(draw(st.lists(years, max_size=3, unique=True))),
                                  draw(st.integers(1, 20)), draw(unit), draw(seeds)),
        formats=tuple(draw(st.lists(st.sampled_from(landscape.EXPORT_FORMATS), max_size=4, unique=True))),
        models=draw(st.dictionaries(texts, model_specs(), min_size=1, max_size=3)),
        synth=synth,
    )


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.spans == (1, 2, 5)
        assert cfg.stats_span in cfg.spans

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"corpus": "x.csv"})

    def test_stats_span_must_be_in_spans(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"spans": [1, 5], "stats_span": 2})

    def test_bad_model_section_is_config_error(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(
                {"models": {"Dup": {"outcome": "distinctiveness", "family": "ols",
                                    "terms": ["crowdfunded", "crowdfunded"]}}}
            )

    def test_round_trip_through_dict(self):
        cfg = PipelineConfig.from_dict(pipeline_payload(Path("/tmp/x")))
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @given(pipeline_configs())
    def test_json_round_trip_of_drawn_configs(self, cfg):
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_every_field_rejects_every_wrong_json_type(self):
        PipelineConfig.from_dict(FULL_PAYLOAD)
        checked = set()
        for path, kind in field_paths(PipelineConfig):
            name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
            for value in JSON_VALUES:
                if path and not json_fits(kind, value):
                    with pytest.raises(ConfigError) as exc:
                        PipelineConfig.from_dict(with_value(FULL_PAYLOAD, path, value))
                    assert f"{name} must be" in str(exc.value)
                    checked.add(name)
        # the walk reaches nested sections, mapping values and list elements
        assert {"landscape.seed", "synth.crowdfunded_share_by_year.2006",
                "models.M.terms[0][1]", "filters.year_max", "spans[0]"} <= checked


class TestReport:
    def test_full_pipeline_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        expected = {
            "synth_corpus.csv", "synth_registry.txt",
            "corpus_filtered.csv", "registry.txt", "filter_report.json",
            "scores.csv",
            "landscape_2009.graphml", "landscape_2009.json", "landscape_2009.svg",
            "landscape_2011.graphml", "landscape_2011.json", "landscape_2011.svg",
            "centroids.csv",
            "descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
            "model_diagnostics.csv", "marginal_means.csv", "pipeline_config.json",
        }
        assert expected <= names
        assert not any(n.endswith(".tmp") for n in names)

    def test_filter_report_ends_in_one_newline(self, tmp_path):
        out = tmp_path / "run"
        synth_and_ingest(write_config(tmp_path, pipeline_payload(out)), out)
        text = (out / "filter_report.json").read_text(encoding="utf-8")
        assert text.endswith("}\n") and json.loads(text)["output_count"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        first = snapshot(out)
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        assert snapshot(out) == first

    def test_model_diagnostics_account_for_every_joined_row(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        with open(out / "model_diagnostics.csv", newline="") as fh:
            rows = {row["model"]: row for row in csv.DictReader(fh)}
        assert list(rows) == ["Distinctiveness", "Novelty", "Resonance"]
        with open(out / "scores.csv", newline="") as fh:
            joined = [row for row in csv.DictReader(fh) if row["span"] == "2"]
        for name, row in rows.items():
            accounted = int(row["n_obs"]) + int(row["incomplete_dropped"]) + int(row["separated_rows"])
            assert accounted == len(joined), name
        assert int(rows["Resonance"]["incomplete_dropped"]) == sum(r["resonance_available"] == "0" for r in joined)
        assert rows["Novelty"]["family"] == "logistic" and 0 < int(rows["Novelty"]["n_iter"]) <= 8
        assert rows["Distinctiveness"]["separated_levels"] == "" and rows["Distinctiveness"]["n_iter"] == "0"

    def test_model_rows_are_the_fitted_columns_in_order(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        with open(out / "models.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["model", "term", "coef", "se", "z", "p"]
        records = parse_records(out / "corpus_filtered.csv", load_registry(out / "registry.txt"))
        data = stats.join_scores(records, read_scores_csv(out / "scores.csv"), span=2)
        expected = []
        for name, spec in PipelineConfig().models.items():
            fit = stats.fit_model(stats.build_design(data, spec))
            assert fit.columns[0] == "const"
            estimates = (fit.coefficients, fit.robust_se, fit.z_or_t, fit.p_values)
            expected += [[name, term, *(f"{values[term]:.6g}" for values in estimates)] for term in fit.columns]
        # one row per fitted column of each model, in the fit's column order
        assert rows == expected

    def test_model_table_has_a_row_per_fitted_term(self, tmp_path):
        # terms outside the standard models get rows too, labelled by column name
        # where stats.TERM_LABELS has none, and the constant comes last
        out = tmp_path / "run"
        model = {"outcome": "distinctiveness", "family": "ols", "terms": ["resonance", ["year", "zscore"]]}
        cfg = write_config(tmp_path, {**pipeline_payload(out), "models": {"M": model}})
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        lines = (out / "models.txt").read_text().splitlines()
        assert [line.split("  ")[0] for line in lines[3:9:2]] == ["Resonance", "year", "Constant"]
        assert set(lines[9]) == {"-"}

    def test_centroid_rows_are_group_by_year(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        lines = (out / "centroids.csv").read_text().splitlines()
        assert lines[0] == "year,group,x,y"
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert len(pairs) == len(set(pairs))
        assert {p[0] for p in pairs} == {"2009", "2011"}

    def test_earlier_snapshot_reuses_final_positions(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        early, final = (
            {node["id"]: (node["x"], node["y"])
             for node in json.loads((out / f"landscape_{year}.json").read_text())["nodes"]}
            for year in (2009, 2011)
        )
        assert early
        for key, xy in early.items():
            assert final[key] == xy

    def test_model_table_mentions_reference_values(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        text = (out / "models.txt").read_text()
        for token in ("0.235", "0.412", "0.014", "Year FE", "Genre FE",
                      "McFadden's Pseudo R-Squared", "Observations"):
            assert token in text


class TestOverrides:
    def test_seed_override_changes_synthesis(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        base = (out / "synth_corpus.csv").read_bytes()
        assert main(["synth", "--config", str(cfg), "--seed", "99"]) == EXIT_OK
        assert (out / "synth_corpus.csv").read_bytes() != base

    def test_format_flag_restricts_exports(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg), "--format", "svg"]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert "landscape_2011.svg" in names
        assert "landscape_2011.graphml" not in names
        assert "centroids.csv" in names

    def test_csv_format_writes_node_tables(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg), "--format", "csv"]) == EXIT_OK
        assert main(["landscape", "--config", str(cfg), "--format", "json"]) == EXIT_OK
        for year in (2009, 2011):
            with open(out / f"landscape_{year}.csv", newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                assert tuple(reader.fieldnames) == landscape.EXPORT_COLUMNS
                rows = list(reader)
            nodes = json.loads((out / f"landscape_{year}.json").read_text())["nodes"]
            assert nodes
            assert rows == [{k: str(v) for k, v in node.items()} for node in nodes]

    def test_spans_flag_changes_score_rows(self, tmp_path):
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        cfg = write_config(tmp_path, payload)
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg),
                     "--corpus", str(out / "synth_corpus.csv"),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        assert main(["score", "--config", str(cfg), "--spans", "1"]) == EXIT_OK
        spans = {line.split(",")[1] for line in
                 (out / "scores.csv").read_text().splitlines()[1:]}
        assert spans == {"1"}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "ghost.json")]) == EXIT_INPUT

    def test_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["ingest", "--config", str(bad)]) == EXIT_INPUT

    def test_config_that_is_no_object_is_exit_2(self, tmp_path, caplog):
        cfg = write_config(tmp_path, [{"spans": [2]}])
        assert main(["ingest", "--config", str(cfg)]) == EXIT_INPUT
        assert "config must be a JSON object" in caplog.text

    def test_score_without_ingest_cache(self, tmp_path):
        assert main(["score", "--out", str(tmp_path / "empty")]) == EXIT_INPUT

    def test_stats_without_scores_is_exit_2(self, tmp_path, caplog):
        out = tmp_path / "run"
        synth_and_ingest(write_config(tmp_path, pipeline_payload(out)), out)
        assert main(["stats", "--out", str(out)]) == EXIT_INPUT
        assert "scores.csv missing; run the score subcommand first" in caplog.text

    def test_synth_without_synth_section(self, tmp_path):
        cfg = write_config(tmp_path, {"out_dir": str(tmp_path / "o")})
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT

    @pytest.mark.parametrize("key", ["novelty_boost", "base_mutation_bits"])
    def test_non_finite_synth_value_is_exit_2(self, tmp_path, key):
        out = tmp_path / "o"
        payload = pipeline_payload(out)
        payload["synth"][key] = float("nan")  # json writes NaN, which json.loads accepts
        cfg = write_config(tmp_path, payload)
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT
        assert not (out / "synth_corpus.csv").exists()

    @pytest.mark.parametrize("section", [
        {"spans": ["x"]},
        {"filters": {"min_mechanisms": -1}},
        {"synth": {"dimensions": 51}},
        {"synth": {"dimension": "51"}},
        {"models": []},
        {"spans": [2, 2]},
        {"landscape": {"snapshot_years": [2015, 2011, 2015]}},
        {"formats": ["json", "json"]},
        {"seed": -1},
        {"landscape": {"seed": -1}},
        {"synth": {"seed": -1}},
        {"seed": 7},
        {"landscape": {"min_type_count": -3}},
        {"landscape": {"cf_share_threshold": 7.0}},
        {"models": {"M": {**MODEL, "outcome": "distinctivness"}}},
        {"models": {"M": {**MODEL, "terms": ["crowdfunded", "teamsize"]}}},
        {"models": {"M": {**MODEL, "fixed_effects": ["genres"]}}},
        {"models": {"M": {**MODEL, "terms": ["genre"]}}},
        {"models": {}},
        {"formats": ["pdf"]},
    ], ids=["span-text", "negative-filter", "unknown-synth-key", "synth-dimension-text", "models-list",
            "repeated-span", "repeated-snapshot-year", "repeated-format", "negative-seed",
            "negative-landscape-seed", "negative-synth-seed", "top-level-seed",
            "min-type-count-negative", "cf-share-threshold-above-1", "unknown-outcome",
            "unknown-term", "unknown-fixed-effect", "label-column-as-term", "models-empty",
            "unknown-format"])
    def test_malformed_config_value_is_exit_2(self, tmp_path, section):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"out_dir": str(out), "synth": {}, **section})
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--spans", "2,2"], ["--seed", "-1"], ["--spans", "1,x"]],
                             ids=["repeated-span", "negative-seed", "span-text"])
    def test_malformed_flag_is_exit_2(self, tmp_path, flags):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg), *flags]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("section", [
        {"landscape": {"min_type_count": "4"}},
        {"landscape": {"cf_share_threshold": "0.5"}},
        {"seed": "7"},
        {"seed": True},
        {"last_complete_year": "2009"},
        {"stats_span": "2"},
        {"out_dir": 5},
        {"corpus_path": 5},
        {"registry_path": ["r.txt"]},
        {"formats": "json"},
        {"spans": "12"},
        {"landscape": {"snapshot_years": "2009"}},
        {"filters": {"year_max": "2015"}},
        {"filters": {"require_designer": "no"}},
        {"synth": {"seed": 1.5}},
        {"synth": {"seed": True}},
        {"synth": {"games_per_year": 50.5}},
        {"synth": {"dimension": True}},
        {"landscape": {"seed": "7"}},
        {"landscape": {"seed": True}},
        {"spans": [1.9, 2]},
        {"models": {"M": {**MODEL, "fixed_effects": "year"}}},
        {"synth": {"crowdfunded_share_by_year": "0.3"}},
        {"models": {"M": {**MODEL, "terms": [["playing_time"]]}}},
    ], ids=["min-type-count-text", "cf-share-text", "seed-text", "seed-bool", "last-year-text",
            "stats-span-text", "out-dir-number", "corpus-path-number", "registry-path-list",
            "formats-string", "spans-string", "snapshot-years-string", "year-max-text",
            "require-designer-text", "synth-seed-float", "synth-seed-bool",
            "synth-games-per-year-float", "synth-dimension-bool", "landscape-seed-text",
            "landscape-seed-bool", "span-float", "fixed-effects-string", "synth-share-text",
            "term-list-of-1"])
    def test_wrongly_typed_config_value_is_exit_2(self, tmp_path, caplog, section):
        out = tmp_path / "o"
        synth = pipeline_payload(out)["synth"]
        cfg = write_config(tmp_path, {"out_dir": str(out), "synth": synth, **section})
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert "must be" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("names", ["A\nB\nA\n", "", '["f0", 1]', '["f0",'],
                             ids=["duplicate-name", "empty-file", "json-non-string", "json-truncated"])
    def test_bad_registry_is_exit_2(self, tmp_path, names):
        registry = tmp_path / "reg.txt"
        registry.write_text(names)
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("id,year\n")
        code = main(["ingest", "--corpus", str(corpus), "--registry", str(registry),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT

    def test_registry_name_the_cache_cannot_hold_is_exit_2(self, tmp_path, caplog):
        # registry.txt holds one name per line, so score could not read back a cache
        # whose registry has a name with a line break in it
        registry = tmp_path / "reg.json"
        registry.write_text(json.dumps(["Dice\nRolling", "Trading", "Auction"]))
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "id,year,mechanisms,crowdfunded,genre,team_size,debut,complexity,"
            "playing_time,min_players,max_players,min_age,is_expansion,is_adult,"
            "num_ratings,parent_id\n"
            "g1,2010,Trading;Auction,0,family,1,0,2.0,60,2,4,8,0,0,50,\n"
        )
        out = tmp_path / "o"
        code = main(["ingest", "--corpus", str(corpus), "--registry", str(registry), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "'Dice\\nRolling'" in caplog.text
        assert not (out / "registry.txt").exists()

    def test_unknown_mechanism_names_offending_row(self, tmp_path, caplog):
        registry = tmp_path / "reg.txt"
        registry.write_text("Alpha\nBeta\nGamma\n")
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "id,year,mechanisms,crowdfunded,genre,team_size,debut,complexity,"
            "playing_time,min_players,max_players,min_age,is_expansion,is_adult,"
            "num_ratings,parent_id\n"
            "g1,2010,Alpha;Delta,0,family,1,0,2.0,60,2,4,8,0,0,50,\n"
        )
        cfg = write_config(tmp_path, {
            "out_dir": str(tmp_path / "o"),
            "corpus_path": str(corpus),
            "registry_path": str(registry),
        })
        code = main(["ingest", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert "row 2" in caplog.text and "Delta" in caplog.text

    @pytest.mark.parametrize("command", ["ingest", "report"])
    @pytest.mark.parametrize("spoiled, damage", [
        ("config", "directory"), ("corpus", "directory"), ("config", "undecodable"),
        ("corpus", "undecodable"), ("registry", "undecodable"), ("corpus", "oversized-field"),
    ])
    def test_unreadable_input_file_is_exit_2(self, tmp_path, caplog, command, spoiled, damage):
        header = ("id,year,mechanisms,crowdfunded,genre,team_size,debut,complexity,playing_time,"
                  "min_players,max_players,min_age,is_expansion,is_adult,num_ratings,parent_id\n")
        paths = {name: tmp_path / name for name in ("config", "corpus", "registry")}
        paths["registry"].write_text("Alpha\nBeta\n")
        paths["corpus"].write_text(header + "g1,2010,Alpha,0,family,1,0,2.0,60,2,4,8,0,0,50,\n")
        write_config(tmp_path, {"out_dir": str(tmp_path / "o")}, name="config")
        target = paths[spoiled]
        target.unlink()
        if damage == "directory":
            target.mkdir()
        elif damage == "undecodable":
            target.write_bytes(b"\xff\xfe")
        else:
            target.write_text(header + "x" * (csv.field_size_limit() + 1) + "\n")
        code = main([command, "--config", str(paths["config"]), "--corpus", str(paths["corpus"]),
                     "--registry", str(paths["registry"])])
        assert code == EXIT_INPUT
        assert caplog.records[-1].levelname == "ERROR"
        assert str(target) in caplog.records[-1].getMessage()

    def test_report_with_no_record_kept_is_exit_3(self, tmp_path, caplog):
        payload = {**pipeline_payload(tmp_path / "run"), "filters": {"year_min": 3000}}
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_EMPTY
        assert "no record passed the filters" in caplog.text

    def test_landscape_with_no_record_kept_is_exit_3(self, tmp_path, caplog):
        out = tmp_path / "run"
        payload = {**pipeline_payload(out), "filters": {"year_min": 3000}, "landscape": {}}
        cfg = write_config(tmp_path, payload)
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg),
                     "--corpus", str(out / "synth_corpus.csv"),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        assert main(["landscape", "--config", str(cfg)]) == EXIT_EMPTY
        assert "no record passed the filters" in caplog.text

    def test_empty_landscape_is_exit_3(self, tmp_path):
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        payload["landscape"] = {"snapshot_years": [2011], "min_type_count": 10**6, "seed": 7}
        cfg = write_config(tmp_path, payload)
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg),
                     "--corpus", str(out / "synth_corpus.csv"),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        assert main(["landscape", "--config", str(cfg)]) == EXIT_EMPTY

    def test_report_with_empty_landscape_still_writes_stats(self, tmp_path, caplog):
        # no type is plotted in 1990, before the corpus starts
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        payload["landscape"]["snapshot_years"] = [1990]
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_EMPTY
        assert "no plotted nodes" in caplog.text
        assert not list(out.glob("landscape_*")) and not (out / "centroids.csv").exists()
        for name in ("descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
                     "model_diagnostics.csv", "marginal_means.csv", "pipeline_config.json"):
            assert (out / name).stat().st_size > 0, name

    def test_report_writes_stats_before_a_failing_layout(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError("layout")

        out = tmp_path / "run"
        monkeypatch.setattr(cli, "layout", fail)
        with pytest.raises(MemoryError):
            main(["report", "--config", str(write_config(tmp_path, pipeline_payload(out)))])
        for name in ("descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
                     "model_diagnostics.csv", "marginal_means.csv"):
            assert (out / name).exists(), name

    def test_report_with_no_scored_record_still_writes_the_landscape(self, tmp_path, caplog):
        # a single year has no earlier records to compare against
        out = tmp_path / "run"
        payload = {**pipeline_payload(out), "filters": {"year_min": 2011}}
        payload["landscape"] = {"snapshot_years": [2011], "min_type_count": 2, "seed": 7}
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_EMPTY
        assert "no scored records for span 2" in caplog.text
        assert not (out / "models.csv").exists()
        assert (out / "landscape_2011.json").exists() and (out / "centroids.csv").exists()

    def test_snapshot_year_after_the_corpus_is_exit_2(self, tmp_path, caplog):
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        payload["landscape"]["snapshot_years"] = [2009, 2050]
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_INPUT
        assert "[2050]" in caplog.text and "final year 2011" in caplog.text
        assert not list(out.glob("landscape_*"))

    def test_failing_model_is_exit_4_and_others_still_run(self, tmp_path):
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        # year both as a numeric term and as a fixed effect is collinear
        payload["models"] = {
            "Good": {"outcome": "distinctiveness", "family": "ols",
                     "terms": ["crowdfunded", "complexity"], "fixed_effects": ["year"]},
            "Broken": {"outcome": "distinctiveness", "family": "ols",
                       "terms": ["crowdfunded", "year"], "fixed_effects": ["year"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["report", "--config", str(cfg)]) == EXIT_NUMERIC
        fitted = {line.split(",")[0] for line in
                  (out / "models.csv").read_text().splitlines()[1:]}
        assert fitted == {"Good"}
        assert "Broken" in (out / "models.txt").read_text()

    def test_empty_group_test_is_exit_3_and_the_rest_still_written(self, tmp_path, caplog):
        # no year is complete, so every resonance is NaN: its test and its model fail
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {**pipeline_payload(out), "last_complete_year": 1990})
        assert main(["report", "--config", str(cfg)]) == EXIT_EMPTY
        assert "group test Resonance failed" in caplog.text
        with open(out / "group_tests.csv", newline="") as fh:
            tested = [row["feature"] for row in csv.DictReader(fh)]
        assert tested == [stats.LABELS[column] for column in stats.BATTERY_FEATURES if column != "resonance"]
        fitted = {line.split(",")[0] for line in (out / "models.csv").read_text().splitlines()[1:]}
        assert fitted == {"Distinctiveness", "Novelty"}
        diagnosed = {line.split(",")[0] for line in (out / "model_diagnostics.csv").read_text().splitlines()[1:]}
        assert diagnosed == fitted
        assert (out / "marginal_means.csv").exists() and (out / "pipeline_config.json").exists()

    def test_stats_rejects_scores_from_an_earlier_ingest(self, tmp_path, caplog):
        out = tmp_path / "run"
        payload = pipeline_payload(out)
        cfg = write_config(tmp_path, payload)
        corpus = ["--corpus", str(out / "synth_corpus.csv"),
                  "--registry", str(out / "synth_registry.txt")]
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg), *corpus]) == EXIT_OK
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        # the re-ingest drops 2006-2007, which the scores were computed against
        narrowed = write_config(tmp_path, {**payload, "filters": {"year_min": 2008}}, "narrow.json")
        assert main(["ingest", "--config", str(narrowed), *corpus]) == EXIT_OK
        assert main(["stats", "--config", str(narrowed)]) == EXIT_INPUT
        assert "re-run score" in caplog.text
        assert not (out / "models.csv").exists()
        assert main(["score", "--config", str(narrowed)]) == EXIT_OK
        assert main(["stats", "--config", str(narrowed)]) == EXIT_OK

    @staticmethod
    def reingest_edited(tmp_path, edit) -> tuple:
        """Synth, ingest and score, then re-ingest the corpus as edit(header, rows) rewrote it.

        Returns the config, the output directory and the scores.csv bytes of the first ingest.
        """
        out = tmp_path / "run"
        # no trivial-expansion rule, so an edit to the mechanisms keeps every id the filters keep
        cfg = write_config(tmp_path, {**pipeline_payload(out), "filters": {"drop_trivial_expansions": False}})
        synth_and_ingest(cfg, out)
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        with open(out / "synth_corpus.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        edit(header, rows)
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert main(["ingest", "--config", str(cfg), "--corpus", str(edited),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        return cfg, out, (out / "scores.csv").read_bytes()

    def test_stats_rejects_scores_of_a_reingest_that_keeps_the_ids(self, tmp_path, caplog):
        # each year's rows pass their mechanisms cells round among the rows
        # with as many mechanisms: every id, year and filter outcome stays,
        # but the vectors, and so the scores, change
        def swap_mechanisms(header, rows):
            year, mechanisms = header.index("year"), header.index("mechanisms")
            groups = {}
            for row in rows:
                groups.setdefault((row[year], row[mechanisms].count(";")), []).append(row)
            for group in groups.values():
                cells = [row[mechanisms] for row in group]
                for row, cell in zip(group, cells[1:] + cells[:1]):
                    row[mechanisms] = cell

        cfg, out, stale = self.reingest_edited(tmp_path, swap_mechanisms)
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "was not scored from the ingested corpus" in caplog.text
        assert not (out / "models.csv").exists()
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert (out / "scores.csv").read_bytes() != stale
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK

    def test_stats_rejects_scores_of_another_last_complete_year(self, tmp_path, caplog):
        # under 2008 no span-2 row has resonance (2007 + 2 > 2008); under the inferred 2011, 2007-2009 have it
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        early = write_config(tmp_path, {**pipeline_payload(out), "last_complete_year": 2008}, "early.json")
        synth_and_ingest(cfg, out)
        assert main(["score", "--config", str(early)]) == EXIT_OK
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "was not scored from the ingested corpus" in caplog.text
        assert "with last_complete_year 2011; re-run score" in caplog.text
        assert not (out / "models.csv").exists()
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK

    def test_stats_accepts_scores_of_a_reingest_that_changes_only_controls(self, tmp_path, caplog):
        # complexity is no input of any score, so the scores.csv of the first ingest still holds
        def halve_complexity(header, rows):
            at = header.index("complexity")
            for row in rows:
                row[at] = repr(float(row[at]) / 2)

        cfg, out, stale = self.reingest_edited(tmp_path, halve_complexity)
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK
        assert "re-run score" not in caplog.text
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert (out / "scores.csv").read_bytes() == stale

    def test_stats_names_a_span_the_scores_lack(self, tmp_path, caplog):
        # scored from this ingest, but only for span 1, while the config's stats_span is 2
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg), "--corpus", str(out / "synth_corpus.csv"),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        assert main(["score", "--config", str(cfg), "--spans", "1"]) == EXIT_OK
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "holds no scores for stats_span 2, only for spans [1]; re-run score with span 2" in caplog.text
        assert "was not scored from the ingested corpus" not in caplog.text
        assert not (out / "models.csv").exists()

    def test_carriage_returns_in_quoted_cells_survive_the_caches(self, tmp_path):
        # a CR inside a quoted id, genre or parent_id parses; the ingest and
        # score caches must quote it again for score and stats to read them
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        with open(out / "synth_corpus.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        rid, genre, parent = (header.index(c) for c in ("id", "genre", "parent_id"))
        for i, row in enumerate(rows):
            row[rid] += "\r" if i % 3 == 0 else ""
            row[genre] = "Card\rGames" if i % 2 else row[genre]
            row[parent] = rows[0][rid] if i % 5 == 1 else row[parent]
        corpus = tmp_path / "quoted.csv"
        with open(corpus, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows([header, *rows])
        registry = str(out / "synth_registry.txt")
        assert main(["ingest", "--config", str(cfg), "--corpus", str(corpus), "--registry", registry]) == EXIT_OK
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK
        cached = parse_records(out / "corpus_filtered.csv", load_registry(registry))
        assert any("\r" in i for i in cached.ids) and "Card\rGames" in cached.columns["genre"].tolist()
        assert rows[0][rid] in cached.columns["parent_id"].tolist()
        assert any("\r" in i for i in read_scores_csv(out / "scores.csv").ids.tolist())

    @pytest.mark.parametrize("column, cell, message", [
        ("distinctiveness", "x1.5", "row 2: column 'distinctiveness' is not a number: 'x1.5'"),
        ("resonance", None, "missing required columns ['resonance']"),
    ], ids=["bad-cell", "missing-column"])
    def test_damaged_scores_csv_is_exit_2(self, tmp_path, caplog, column, cell, message):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["ingest", "--config", str(cfg), "--corpus", str(out / "synth_corpus.csv"),
                     "--registry", str(out / "synth_registry.txt")]) == EXIT_OK
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        scores = out / "scores.csv"
        with open(scores, newline="") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index(column)
        if cell is None:
            rows = [row[:at] + row[at + 1:] for row in rows]
        else:
            rows[1][at] = cell
        with open(scores, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert message in caplog.text
        assert not (out / "models.csv").exists()

    @pytest.mark.parametrize("case", ["scores-cell", "cache-row", "registry-name"])
    def test_input_error_names_its_file(self, tmp_path, caplog, case):
        # the library's messages name no file; the logged error does
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        if case == "registry-name":
            spoiled, message, command = tmp_path / "reg.txt", "duplicate feature name 'A'", "ingest"
            spoiled.write_text("A\nB\nA\n")
            (tmp_path / "corpus.csv").write_text("id,year\n")
            extra = ["--corpus", str(tmp_path / "corpus.csv"), "--registry", str(spoiled)]
        else:
            synth_and_ingest(cfg, out)
            extra = []
            if case == "scores-cell":
                assert main(["score", "--config", str(cfg)]) == EXIT_OK
                spoiled, command = out / "scores.csv", "stats"
                set_cell(spoiled, 1, "distinctiveness", "x1.5")
                message = "row 2: column 'distinctiveness' is not a number: 'x1.5'"
            else:
                spoiled, command = out / "corpus_filtered.csv", "score"
                set_cell(spoiled, 3, "complexity", "9.0")
                message = "row 4: complexity 9.0 outside [0, 5]"
        assert main([command, "--config", str(cfg), *extra]) == EXIT_INPUT
        assert caplog.records[-1].getMessage() == f"{spoiled}: {message}"

    @pytest.mark.parametrize("section, message", [
        ({"models": {"M": {**MODEL, "family": "probit"}}}, "models.M: unknown family 'probit'"),
        ({"models": {"M": {"outcome": "distinctiveness", "terms": ["crowdfunded"]}}},
         "models.M: ModelSpec.__init__() missing 1 required positional argument: 'family'"),
        ({"synth": {"crowdfunded_share_by_year": {"abc": 0.3}}},
         "synth.crowdfunded_share_by_year key 'abc' must be an integer"),
    ], ids=["unknown-family", "missing-family", "share-year-text"])
    def test_config_error_names_its_model_or_key(self, tmp_path, caplog, section, message):
        cfg = write_config(tmp_path, {"out_dir": str(tmp_path / "o"), "synth": {}, **section})
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT
        assert caplog.records[-1].getMessage() == message

    @pytest.mark.parametrize("key", ["min_mechanisms", "min_ratings"])
    def test_negative_filter_threshold_names_its_key(self, tmp_path, caplog, key):
        cfg = write_config(tmp_path, {**pipeline_payload(tmp_path / "o"), "filters": {key: -1}})
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT
        assert caplog.records[-1].getMessage() == f"{key} must be >= 0, got -1"

    def test_unconverged_glm_is_exit_4_and_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stats, "MAX_IRLS_ITER", 1)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_NUMERIC
        fitted = {line.split(",")[0] for line in
                  (out / "models.csv").read_text().splitlines()[1:]}
        assert fitted == {"Distinctiveness", "Resonance"}


class TestInMemoryReport:
    # stats' check must accept what score wrote under an inferred and under an explicit last_complete_year
    @pytest.mark.parametrize("last_complete_year", [None, 2009], ids=["inferred", "2009"])
    def test_stepwise_run_writes_the_same_bytes_as_report(self, tmp_path, last_complete_year):
        report_out, step_out = tmp_path / "report", tmp_path / "step"
        report_cfg, step_cfg = (
            write_config(tmp_path, {**pipeline_payload(out), "last_complete_year": last_complete_year},
                         f"{out.name}.json") for out in (report_out, step_out))
        assert main(["report", "--config", str(report_cfg)]) == EXIT_OK
        corpus = ["--corpus", str(step_out / "synth_corpus.csv"),
                  "--registry", str(step_out / "synth_registry.txt")]
        for command in ("synth", "ingest", "score", "landscape", "stats"):
            extra = corpus if command == "ingest" else []
            assert main([command, "--config", str(step_cfg), *extra]) == EXIT_OK
        report, stepwise = snapshot(report_out), snapshot(step_out)
        assert set(stepwise) == set(report) - {"pipeline_config.json"}
        for name, data in stepwise.items():
            assert data == report[name], name

    def test_standalone_stats_over_a_long_span_writes_what_report_writes(self, tmp_path):
        # the scores.csv check decides per corpus year, so its time does not grow with the span;
        # the child has a timeout, so a check that loops over the span fails instead of hanging
        span = 10**9
        report_out, step_out = tmp_path / "report", tmp_path / "step"
        report_cfg, step_cfg = (write_config(tmp_path, {**pipeline_payload(out), "spans": [span], "stats_span": span},
                                             f"{out.name}.json") for out in (report_out, step_out))
        report_code = main(["report", "--config", str(report_cfg)])
        assert main(["synth", "--config", str(step_cfg)]) == EXIT_OK
        steps = [["ingest", "--config", str(step_cfg), "--corpus", str(step_out / "synth_corpus.csv"),
                  "--registry", str(step_out / "synth_registry.txt")],
                 ["score", "--config", str(step_cfg)], ["stats", "--config", str(step_cfg)]]
        script = f"from novascape.cli import main\nprint(*(main(argv) for argv in {steps!r}))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=entry_env(), timeout=60)
        assert proc.stdout.split() == ["0", "0", str(report_code)], proc.stderr[-2000:]
        report, stepwise = snapshot(report_out), snapshot(step_out)
        for name in ("descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
                     "model_diagnostics.csv", "marginal_means.csv"):
            assert stepwise[name] == report[name], name

    def test_report_parses_its_input_once_and_lays_out_once(self, tmp_path, monkeypatch):
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("parse_records", "load_registry", "read_scores_csv", "layout"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        synth_out = tmp_path / "synth"
        cfg = write_config(tmp_path, pipeline_payload(synth_out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        # the synthetic corpus is handed to ingest, not parsed back
        assert [name for name, _ in calls] == ["layout"]

        calls.clear()
        payload = pipeline_payload(tmp_path / "csv")
        del payload["synth"]
        payload["corpus_path"] = str(synth_out / "synth_corpus.csv")
        payload["registry_path"] = str(synth_out / "synth_registry.txt")
        assert main(["report", "--config", str(write_config(tmp_path, payload, "csv.json"))]) == EXIT_OK
        reads = [(name, Path(arg).name) for name, arg in calls if name != "layout"]
        assert reads == [("load_registry", "synth_registry.txt"),
                         ("parse_records", "synth_corpus.csv")]
        assert [name for name, _ in calls].count("layout") == 1

    def test_only_the_subcommands_read_the_caches(self, tmp_path, monkeypatch):
        reads = []

        def recording(name, fn):
            def wrapper(path, *args):
                reads.append((name, Path(path).name))
                return fn(path, *args)
            return wrapper

        for name in ("parse_records", "read_scores_csv"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        synth_and_ingest(cfg, out)
        for command in ("score", "landscape", "stats"):
            reads.clear()
            assert main([command, "--config", str(cfg)]) == EXIT_OK
            scores = [("read_scores_csv", "scores.csv")] if command == "stats" else []
            assert reads == [("parse_records", "corpus_filtered.csv"), *scores], command

        def unreachable(cfg):
            raise AssertionError("report read a cache")

        monkeypatch.setattr(cli, "_load_cache", unreachable)
        monkeypatch.setattr(cli, "_load_scored_cache", unreachable)
        reads.clear()
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        assert reads == []

    def test_report_keys_the_corpus_once_per_report(self, tmp_path, monkeypatch):
        calls, built = [], []

        def counting(name):
            fn = getattr(landscape, name)

            def wrapper(rows):
                calls.append((name, len(rows)))
                return fn(rows)
            return wrapper

        def keeping(fn):
            def wrapper(*args, **kwargs):
                built.append(fn(*args, **kwargs))
                return built[-1]
            return wrapper

        monkeypatch.setattr(landscape, "pack_rows", counting("pack_rows"))
        monkeypatch.setattr(landscape, "_keys", counting("_keys"))
        monkeypatch.setattr(cli, "build_landscape", keeping(cli.build_landscape))
        payload = pipeline_payload(tmp_path / "run")
        payload["landscape"]["snapshot_years"] = [2008, 2009, 2011]
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_OK
        (graphs,) = built
        assert [g.snapshot_year for g in graphs] == [2008, 2009, 2011]
        assert [name for name, _ in calls].count("pack_rows") == 1
        # only the plotted types of each snapshot become Python ints
        assert sum(rows for name, rows in calls if name == "_keys") == sum(len(g.keys) for g in graphs) > 0

    def test_report_builds_export_rows_once_per_snapshot(self, tmp_path, monkeypatch):
        built, written = [], []

        def building(graph, positions):
            built.append(landscape.export_rows(graph, positions))
            return built[-1]

        def writing(fn):
            def wrapper(graph, rows, *args, **kwargs):
                written.append(rows)
                return fn(graph, rows, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "export_rows", building)
        for name in ("export_graph", "render_svg"):
            monkeypatch.setattr(cli, name, writing(getattr(cli, name)))
        payload = {**pipeline_payload(tmp_path / "run"), "formats": list(EXPORT_FORMATS)}
        assert main(["report", "--config", str(write_config(tmp_path, payload))]) == EXIT_OK
        # two snapshots, each written in every format from its one set of rows
        assert len(built) == 2
        assert len(written) == 2 * len(EXPORT_FORMATS)
        assert all(rows is built[i // len(EXPORT_FORMATS)] for i, rows in enumerate(written))

    def test_stats_holds_one_design_at_a_time(self, tmp_path):
        # 12 years of fixed effects make the designs the largest arrays stats makes
        records = generate_corpus(SynthConfig(dimension=12, year_start=2000, year_end=2011,
                                              games_per_year=800, seed=5))
        table = score_corpus(records, spans=(2,), last_complete_year=2011)
        cfg = PipelineConfig(out_dir=str(tmp_path), spans=(2,), stats_span=2, last_complete_year=2011)
        data = stats.join_scores(records, table, span=2)
        largest = max(stats.build_design(data, spec).X.nbytes for spec in cfg.models.values())
        joined = sum(column.nbytes for column in data.values())
        del data
        tracemalloc.start()
        try:
            assert cli.cmd_stats(cfg, records, table) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the joined table, one design, and one n x k buffer of the fit or the marginal means
        assert peak < 3 * largest + joined, (peak, largest, joined)

    def test_library_path_builds_no_record_view(self, tmp_path, monkeypatch):
        built = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                built.append((name, args[1] if len(args) > 1 else None))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Record, "__init__", counting("Record", Record.__init__))
        monkeypatch.setattr(InnovationScores, "__init__",
                            counting("InnovationScores", InnovationScores.__init__))
        recovery_seed(0, 2.0)
        cfg = write_config(tmp_path, pipeline_payload(tmp_path / "run"))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        assert built == []
        # the counters do see views: iteration and table lookups build them
        records = generate_corpus(SynthConfig(dimension=4, year_start=2006, year_end=2007,
                                              games_per_year=3))
        assert [rec.id for rec in records] == list(records.ids)
        assert built == [("Record", rid) for rid in records.ids]
        assert score_corpus(records, spans=(1,)).get("syn-2007-0000", 1).span_years == 1
        assert built[len(records):] == [("InnovationScores", "syn-2007-0000")]


class TestAtomicWrite:
    def test_nested_writers_of_one_path(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as outer:
            outer.write_text("outer")
            with atomic_write(target) as inner:
                inner.write_text("inner")
            assert target.read_text() == "inner"
        assert target.read_text() == "outer"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_failed_writer_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as tmp:
                tmp.write_text("new")
                raise RuntimeError("writer failed")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def entry_env() -> dict:
    """The environment of a `python -m novascape` child that imports this novascape, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestConsoleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        proc = subprocess.run(
            [sys.executable, "-m", "novascape", "synth", "--config", str(cfg)],
            capture_output=True, text=True, env=entry_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "synth_corpus.csv").exists()
        assert "seed" in proc.stderr

    @pytest.mark.parametrize("change, code", [
        ({}, EXIT_OK),
        ({"spans": []}, EXIT_INPUT),
        # no type is implemented a million times, so the landscape plots none
        ({"landscape": {"snapshot_years": [2011], "min_type_count": 10**6}}, EXIT_EMPTY),
    ])
    def test_python_dash_m_report_ends_as_main_does(self, tmp_path, caplog, change, code):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {**pipeline_payload(out), **change})
        command = ["report", "--config", str(cfg)]
        proc = subprocess.run([sys.executable, "-m", "novascape", *command],
                              capture_output=True, text=True, env=entry_env())
        written = snapshot(out) if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        caplog.set_level(logging.INFO)
        assert main(command) == code == proc.returncode, proc.stderr[-2000:]
        assert (snapshot(out) if out.exists() else {}) == written
        assert bool(written) == (code != EXIT_INPUT)
        # the last log line is flushed before the process ends
        last = caplog.records[-1]
        assert proc.stderr.splitlines()[-1] == f"{last.levelname} novascape: {last.getMessage()}"

    def test_run_freezes_the_heap_and_exits_with_the_code_of_main(self, tmp_path, monkeypatch):
        from novascape.__main__ import run

        monkeypatch.setattr(sys, "argv", ["novascape", "report", "--config", str(tmp_path / "missing.json")])
        try:
            with pytest.raises(SystemExit) as exited:
                run()
            assert exited.value.code == EXIT_INPUT
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_pipeline_never_imports_scipy_stats(self, tmp_path):
        """A fresh interpreter runs a Monte-Carlo seed and a whole report
        without loading scipy.stats, networkx or any scipy package whose
        compiled routines the package loads directly (scipy.linalg,
        scipy.special, scipy.optimize) or replaced (scipy.sparse), nor the
        array-API layer they bring, nor scipy itself or scipy._lib, whose
        __init__.py those loads skip, nor numpy.ma, which np.percentile
        imports; this process cannot tell, because the test oracles import
        them. The landscape files show that the layout ran."""
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "out_dir": str(out),
            "landscape": {"min_type_count": 2},
            "synth": {"dimension": 16, "games_per_year": 50, "novelty_boost": 2.0},
        })
        child = (
            "import sys\n"
            "import novascape\n"
            "from novascape.cli import main, recovery_seed\n"
            "unwanted = ('networkx', 'scipy', 'scipy._lib', 'scipy.stats', 'scipy.linalg', 'scipy.special',\n"
            "            'scipy.optimize', 'scipy.sparse', 'scipy._lib._array_api', 'numpy.f2py', 'numpy.ma')\n"
            "recovery_seed(0, 2.0)\n"
            "loaded = [m for m in unwanted if m in sys.modules]\n"
            "assert not loaded, f'a Monte-Carlo seed imported {loaded}'\n"
            f"assert main(['report', '--config', {str(cfg)!r}]) == 0\n"
            "loaded = [m for m in unwanted if m in sys.modules]\n"
            "assert not loaded, f'a report imported {loaded}'\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (out / "models.csv").exists()
        assert list(out.glob("landscape_*.json"))
        # networkx is the tests' oracle only: no package source names it
        naming = [p.name for p in (src / "novascape").rglob("*.py") if "networkx" in p.read_text("utf-8")]
        assert not naming, naming


def edged(edges, values):
    """`values`, or one of the `edges` an eighth of the time."""
    return st.sampled_from([False] * 7 + [True]).flatmap(lambda edge: st.sampled_from(edges) if edge else values)


# leaf values of drawn report configs by field name, edges included: 0 and 1,
# years before, inside and after the corpora (2005-2009), and paths that exist
# or do not; "@TMP" is the run's directory and "@DATA" holds a parsed corpus
YEARS = st.integers(2003, 2011)
UNIT = edged([0.0, 1.0], st.floats(0.0, 1.0))
NUMERIC_COLUMNS = [c for c in JOINED_COLUMNS if c not in JOINED_LABELS]
LEAVES = {
    "corpus_path": edged(["@TMP/missing.csv"], st.just("@DATA/corpus.csv")),
    "registry_path": edged(["@TMP/missing.txt"], st.just("@DATA/registry.txt")),
    "out_dir": st.just("@TMP/out"),
    "spans": edged([0], st.integers(1, 3)), "stats_span": st.integers(1, 2),
    "last_complete_year": YEARS, "snapshot_years": YEARS, "year_min": YEARS, "year_max": YEARS,
    "min_mechanisms": st.integers(0, 3), "min_ratings": st.integers(0, 40),
    "min_type_count": edged([0], st.integers(1, 4)), "cf_share_threshold": UNIT,
    "seed": edged([-1, 0], st.integers(0, 2**63 - 1)),
    "formats": st.sampled_from(landscape.EXPORT_FORMATS),
    "outcome": st.sampled_from(NUMERIC_COLUMNS), "family": st.sampled_from(FAMILIES),
    "terms": st.sampled_from(NUMERIC_COLUMNS), "terms[0]": st.sampled_from(NUMERIC_COLUMNS),
    "terms[1]": st.sampled_from(TRANSFORMS), "fixed_effects": st.sampled_from(JOINED_COLUMNS),
    "robust_se": st.sampled_from(ROBUST_VARIANTS),
    "dimension": edged([0, 1], st.integers(4, 12)),
    "year_start": st.integers(2005, 2007), "year_end": edged([2004], st.integers(2007, 2009)),
    "games_per_year": edged([0, 1], st.integers(30, 150)), "crowdfunded_share_by_year": UNIT,
    "base_mechanism_rate": UNIT, "recombination_rate": UNIT,
    "base_mutation_bits": st.floats(0.0, 4.0), "novelty_boost": st.floats(0.0, 4.0),
}
KEYS = {"crowdfunded_share_by_year": st.integers(2005, 2009), "models": st.text(max_size=3)}
# always set: where the run writes, its input (a corpus or a synth section, each
# possibly null) and a synth section small enough to run often
REQUIRED = {"out_dir", "corpus_path", "registry_path", "synth", "dimension", "year_start", "year_end",
            "games_per_year"}


def json_configs(kind, name=""):
    """JSON values of config type `kind`, shaped as `_read` walks it: an object
    per dataclass, whose defaulted fields may be left out, a list without
    repeats per tuple and an object per mapping, each possibly empty; leaves
    come from LEAVES."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return st.one_of([json_configs(option, name) for option in args])
    if dataclasses.is_dataclass(kind):
        fields = {f.name: json_configs(f.type, f.name) for f in dataclasses.fields(kind)}
        required = {f.name for f in dataclasses.fields(kind) if f.name in REQUIRED
                    or f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
        return st.fixed_dictionaries({k: s for k, s in fields.items() if k in required},
                                     optional={k: s for k, s in fields.items() if k not in required})
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(json_configs(args[0], name), max_size=3, unique_by=json.dumps)
    if origin is tuple:
        return st.tuples(*(LEAVES.get(f"{name}[{i}]", LEAVES[name]) for i in range(len(args)))).map(list)
    if origin is collections.abc.Mapping:
        return st.dictionaries(KEYS[name].map(str), json_configs(args[1], name), max_size=3)
    if kind is type(None):
        return st.none()
    return st.booleans() if kind is bool else LEAVES[name]


def stage_files(out: Path, cfg: PipelineConfig) -> set:
    """The files of every report stage that had data, read from what ingest and score left in `out`."""
    names = {"corpus_filtered.csv", "registry.txt", "filter_report.json", "pipeline_config.json"}
    if cfg.synth is not None and cfg.corpus_path is None:
        names |= {"synth_corpus.csv", "synth_registry.txt"}
    kept = parse_records(out / "corpus_filtered.csv", load_registry(out / "registry.txt"))
    if not len(kept):
        return names
    names.add("scores.csv")
    years = sorted(cfg.landscape.snapshot_years) or [int(kept.years.max())]
    types, counts = np.unique(kept.matrix, axis=0, return_counts=True)
    frequent = {row.tobytes() for row in types[counts >= cfg.landscape.min_type_count]}
    if frequent & {row.tobytes() for row in kept.matrix[kept.years <= years[-1]]}:
        names |= {f"landscape_{y}.{fmt}" for y in years for fmt in cfg.formats} | {"centroids.csv"}
    if (read_scores_csv(out / "scores.csv").spans == cfg.stats_span).any():
        names |= {"descriptives.csv", "group_tests.csv", "models.csv", "models.txt",
                  "model_diagnostics.csv", "marginal_means.csv"}
    return names


@pytest.fixture(scope="module")
def parsed_corpus(tmp_path_factory):
    """A written corpus (2005-2009, d=8) and its registry, for configs that name corpus_path."""
    data = tmp_path_factory.mktemp("data")
    out = data / "synth"
    payload = {"out_dir": str(out), "synth": {"dimension": 8, "year_start": 2005, "year_end": 2009,
                                              "games_per_year": 60, "seed": 3}}
    assert main(["synth", "--config", str(write_config(data, payload))]) == EXIT_OK
    os.replace(out / "synth_corpus.csv", data / "corpus.csv")
    os.replace(out / "synth_registry.txt", data / "registry.txt")
    return data


class TestDrawnReports:
    @settings(max_examples=300, deadline=None)
    @given(payload=json_configs(PipelineConfig))
    # no corpus and no synth section: ingest fails after the config has loaded
    @example(payload={"out_dir": "@TMP/out", "corpus_path": None, "registry_path": None, "synth": None})
    def test_report_exits_with_a_code_and_writes_every_stage_with_data(self, parsed_corpus, payload):
        with tempfile.TemporaryDirectory() as tmp:
            text = json.dumps(payload).replace("@TMP", tmp).replace("@DATA", str(parsed_corpus))
            path = Path(tmp) / "run.json"
            path.write_text(text)
            code = main(["report", "--config", str(path)])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY, EXIT_NUMERIC)
            try:
                cfg = PipelineConfig.from_json(path)
            except ConfigError:
                assert code == EXIT_INPUT and not Path(tmp, "out").exists()
                return
            out = Path(cfg.out_dir)
            assert (out / "pipeline_config.json").exists()
            if code != EXIT_INPUT:
                assert stage_files(out, cfg) <= {p.name for p in out.iterdir()}
            if (out / "models.csv").exists():
                # models.txt has a row for every fitted term but the fixed-effect dummies
                with open(out / "models.csv", newline="") as fh:
                    terms = {row["term"] for row in csv.DictReader(fh) if "=" not in row["term"]}
                shown = {line.split("  ")[0] for line in (out / "models.txt").read_text().splitlines()}
                assert {stats.TERM_LABELS.get(term, term) for term in terms} <= shown
