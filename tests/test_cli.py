"""End-to-end tests for the pipeline CLI: exit codes, files, determinism."""

import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from novascape import cli, landscape, stats
from novascape.cli import (
    EXIT_EMPTY,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    PipelineConfig,
    atomic_write,
    main,
)
from novascape.errors import ConfigError


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


def write_config(tmp_path: Path, payload: dict, name: str = "run.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def snapshot(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


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
            "marginal_means.csv", "pipeline_config.json",
        }
        assert expected <= names
        assert not any(n.endswith(".tmp") for n in names)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        first = snapshot(out)
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        assert snapshot(out) == first

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

    def test_score_without_ingest_cache(self, tmp_path):
        assert main(["score", "--out", str(tmp_path / "empty")]) == EXIT_INPUT

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
    ], ids=["span-text", "negative-filter", "unknown-synth-key", "synth-dimension-text", "models-list"])
    def test_malformed_config_value_is_exit_2(self, tmp_path, section):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"out_dir": str(out), "synth": {}, **section})
        assert main(["synth", "--config", str(cfg)]) == EXIT_INPUT
        assert not out.exists()

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

    def test_unconverged_glm_is_exit_4_and_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stats, "MAX_IRLS_ITER", 1)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_NUMERIC
        fitted = {line.split(",")[0] for line in
                  (out / "models.csv").read_text().splitlines()[1:]}
        assert fitted == {"Distinctiveness", "Resonance"}


class TestInMemoryReport:
    def test_stepwise_run_writes_the_same_bytes_as_report(self, tmp_path):
        report_out, step_out = tmp_path / "report", tmp_path / "step"
        report_cfg = write_config(tmp_path, pipeline_payload(report_out), "report.json")
        step_cfg = write_config(tmp_path, pipeline_payload(step_out), "step.json")
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

    def test_report_parses_its_input_once_and_lays_out_once(self, tmp_path, monkeypatch):
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("parse_records", "load_registry", "read_scores_csv", "layout"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        reads = [(name, Path(arg).name) for name, arg in calls if name != "layout"]
        assert reads == [("load_registry", "synth_registry.txt"),
                         ("parse_records", "synth_corpus.csv")]
        assert [name for name, _ in calls].count("layout") == 1


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


class TestConsoleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, pipeline_payload(out))
        # the child imports the same novascape, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "novascape", "synth", "--config", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "synth_corpus.csv").exists()
        assert "seed" in proc.stderr
