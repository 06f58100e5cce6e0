"""Command-line pipeline: ingest, score, landscape, stats, synth, report.

One JSON config describes a full run; flags override the common knobs. A
typical flow over a synthetic corpus:

    novascape synth  --config run.json --out runs/demo
    novascape report --config run.json --out runs/demo

`report` parses its input at most once (a corpus it synthesises goes to
ingest in memory) and hands records and scores from stage to stage in
memory. The stages read no file: the subcommand table (COMMANDS) alone reads
the caches the previous subcommand left in the output directory. Both routes
write the same bytes.

All randomness flows from seeds in the config (logged at run time). Outputs
are written atomically (temp file + rename) and contain no timestamps, so a
rerun with the same config and seeds reproduces the directory byte for byte.

Exit codes: 0 success, 2 input error, 3 empty result, 4 numeric failure.
"""

import argparse
import collections.abc
import csv
import dataclasses
import json
import logging
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union, get_args, get_origin

import numpy as np

from .corpus import (
    FilterConfig,
    RecordSet,
    apply_filters,
    canonical_registry,
    load_registry,
    parse_records,
    write_csv_columns,
    write_records_csv,
    write_registry,
)
from .errors import (
    ConfigError,
    EmptyGraph,
    EmptySample,
    NovascapeError,
    NumericError,
    ParseError,
    RankDeficient,
    RegistryError,
)
from .landscape import (
    DEFAULT_CF_SHARE_THRESHOLD,
    DEFAULT_LAYOUT_SEED,
    DEFAULT_MIN_TYPE_COUNT,
    EXPORT_FORMATS,
    build_landscape,
    centroids,
    classify_snapshots,
    export_graph,
    export_rows,
    layout,
    render_svg,
)
from .metrics import DEFAULT_SPAN, SPAN_PRESETS, ScoreTable, read_scores_csv, score_corpus, window_scores
from .stats import (
    COUNT_NOVELTY_MODEL,
    DESCRIBE_COLUMNS,
    JOINED_COLUMNS,
    JOINED_LABELS,
    STANDARD_MODELS,
    ModelSpec,
    build_design,
    describe,
    fit_model,
    format_model_table,
    group_test_battery,
    join_scores,
    marginal_means,
)
from .synth import SynthConfig, generate_corpus

log = logging.getLogger("novascape")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NUMERIC = 4

MODEL_PRESETS = dict(STANDARD_MODELS + (COUNT_NOVELTY_MODEL,))

# cache file names inside the output directory; the standalone score,
# landscape and stats subcommands read what ingest and score wrote
CORPUS_CACHE = "corpus_filtered.csv"
REGISTRY_CACHE = "registry.txt"
SCORES_FILE = "scores.csv"

# the headers of the stats tables but descriptives.csv (stats.DESCRIBE_COLUMNS)
GROUP_TEST_COLUMNS = ("feature", "n_crowdfunded", "n_traditional", "mean_crowdfunded", "mean_traditional",
                      "u_statistic", "auc", "p_value", "exact")
MODEL_COLUMNS = ("model", "term", "coef", "se", "z", "p")
# OLS is solved directly, so its n_iter and max_score are 0
DIAGNOSTIC_COLUMNS = ("model", "family", "n_obs", "incomplete_dropped", "separated_levels",
                      "separated_rows", "n_iter", "max_score", "log_likelihood")
MARGINAL_MEAN_COLUMNS = ("model", "crowdfunded", "estimate", "se", "ci_low", "ci_high")


@contextmanager
def atomic_write(path: Path):
    """Yield a unique temp path in the target directory; rename over `path` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open() would give, not mkstemp's 0600
    os.close(fd)
    tmp = Path(name)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# the JSON types each scalar config field type accepts; only a bool field takes a bool
_SCALAR_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((type(None),), "null"),
}


def _json_form(kind) -> Tuple[tuple, str]:
    """The Python types json.load gives a value of config type `kind`, and their name."""
    origin = get_origin(kind)
    if origin is Union:
        forms = [_json_form(option) for option in get_args(kind)]
        return sum((types for types, _ in forms), ()), " or ".join(text for _, text in forms)
    if origin is tuple:
        return (list,), "a list"
    if origin is collections.abc.Mapping or dataclasses.is_dataclass(kind):
        return (dict,), "an object"
    return _SCALAR_TYPES[kind]


def _read(kind, value, name: str):
    """The config value `name` of field type `kind`, read from its JSON form.

    A dataclass comes from an object without unknown keys, Tuple[X, ...] from a
    list, a Mapping from an object, and a Union through the first of its types
    that takes the value's JSON type; every element is read the same way, and
    a float field stores a float.
    """
    types, text = _json_form(kind)
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        raise ConfigError(f"{name} must be {text}, got {value!r}")
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return _read(next(k for k in args if isinstance(value, _json_form(k)[0])), value, name)
    if dataclasses.is_dataclass(kind):
        fields = {f.name: f.type for f in dataclasses.fields(kind)}
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise ConfigError(f"unknown keys {unknown} in {name or 'the config'}; "
                              f"a key must be one of {sorted(fields)}")
        values = {key: _read(fields[key], item, f"{name}.{key}" if name else key) for key, item in value.items()}
        try:
            return kind(**values)
        except (TypeError, ValueError) as exc:  # a missing field, or a check that names no key
            raise ConfigError(f"{name}: {exc}") from exc
    if origin is tuple:
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{name} must be a list of {len(args)}, got {value!r}")
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        return tuple(_read(k, item, f"{name}[{i}]") for i, (k, item) in enumerate(zip(kinds, value)))
    if origin is collections.abc.Mapping:
        # JSON object keys are strings; an int key is parsed from one
        return {_read_key(args[0], key, name): _read(args[1], item, f"{name}.{key}") for key, item in value.items()}
    return float(value) if kind is float else value


def _read_key(kind, key: str, name: str):
    try:
        return kind(key)
    except ValueError:
        raise ConfigError(f"{name} key {key!r} must be {_json_form(kind)[1]}") from None


@dataclass(frozen=True)
class LandscapeConfig:
    """Which snapshots are drawn, which types they plot, and the layout seed."""

    snapshot_years: Tuple[int, ...] = ()
    min_type_count: int = DEFAULT_MIN_TYPE_COUNT
    cf_share_threshold: float = DEFAULT_CF_SHARE_THRESHOLD
    seed: int = DEFAULT_LAYOUT_SEED

    def __post_init__(self):
        if len(set(self.snapshot_years)) < len(self.snapshot_years):
            raise ConfigError(f"snapshot_years must not repeat a value, got {self.snapshot_years}")
        if self.min_type_count < 1:
            raise ConfigError(f"min_type_count must be >= 1, got {self.min_type_count}")
        if not 0.0 <= self.cf_share_threshold <= 1.0:
            raise ConfigError(f"cf_share_threshold must be in [0, 1], got {self.cf_share_threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; its JSON form is this dataclass tree (see _read)."""

    corpus_path: Optional[str] = None
    registry_path: Optional[str] = None
    out_dir: str = "out"
    spans: Tuple[int, ...] = SPAN_PRESETS
    stats_span: int = DEFAULT_SPAN
    last_complete_year: Optional[int] = None
    filters: FilterConfig = field(default_factory=FilterConfig)
    landscape: LandscapeConfig = field(default_factory=LandscapeConfig)
    formats: Tuple[str, ...] = ("graphml", "json", "svg")
    models: Mapping[str, ModelSpec] = field(default_factory=lambda: dict(STANDARD_MODELS))
    synth: Optional[SynthConfig] = None

    def __post_init__(self):
        if not self.spans:
            raise ConfigError("spans must be non-empty")
        if any(s < 1 for s in self.spans):
            raise ConfigError(f"spans must be positive, got {self.spans}")
        if self.stats_span not in self.spans:
            raise ConfigError(f"stats_span {self.stats_span} not among spans {self.spans}")
        for name in ("spans", "formats"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values}")
        bad = [f for f in self.formats if f not in EXPORT_FORMATS]
        if bad:
            raise ConfigError(f"unknown formats {bad}; choose from {EXPORT_FORMATS}")
        if not self.models:
            raise ConfigError("models must name at least one model")
        for name, spec in self.models.items():
            bad = [c for c in (spec.outcome, *(c for c, _ in spec.terms))
                   if c not in JOINED_COLUMNS or c in JOINED_LABELS]
            bad += [c for c in spec.fixed_effects if c not in JOINED_COLUMNS]
            if bad:
                raise ConfigError(
                    f"model {name!r} names {bad}; an outcome or term must be a numeric column of "
                    f"the score join and a fixed effect any of its columns {JOINED_COLUMNS}"
                )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PipelineConfig":
        return _read(cls, payload, "")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        """The JSON form from_dict reads back; without synth when there is none."""
        out = json.loads(json.dumps(dataclasses.asdict(self)))
        if self.synth is None:
            del out["synth"]
        return out


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = _read_input(PipelineConfig.from_json, args.config) if args.config else PipelineConfig()
    overrides: dict = {}
    if args.spans:
        try:
            overrides["spans"] = tuple(int(s) for s in args.spans.split(","))
        except ValueError as exc:
            raise ConfigError(f"--spans expects comma-separated integers: {args.spans!r}") from exc
        if cfg.stats_span not in overrides["spans"]:
            overrides["stats_span"] = overrides["spans"][0]
    if args.out:
        overrides["out_dir"] = args.out
    if args.format:
        overrides["formats"] = (args.format,)
    if getattr(args, "corpus", None):
        overrides["corpus_path"] = args.corpus
    if getattr(args, "registry", None):
        overrides["registry_path"] = args.registry
    if args.seed is not None:
        overrides["landscape"] = replace(cfg.landscape, seed=args.seed)
        if cfg.synth is not None:
            overrides["synth"] = replace(cfg.synth, seed=args.seed)
    return replace(cfg, **overrides) if overrides else cfg


def _read_corpus(cfg: PipelineConfig) -> RecordSet:
    """The corpus at corpus_path, parsed against registry_path (default: the canonical registry)."""
    if not cfg.corpus_path:
        raise ConfigError("ingest needs corpus_path (config key or --corpus)")
    registry = _read_input(load_registry, cfg.registry_path) if cfg.registry_path else canonical_registry()
    return _read_input(parse_records, cfg.corpus_path, registry)


def _load_cache(cfg: PipelineConfig) -> RecordSet:
    """The records the ingest subcommand cached in the output directory."""
    corpus = Path(cfg.out_dir) / CORPUS_CACHE
    registry = Path(cfg.out_dir) / REGISTRY_CACHE
    if not corpus.exists() or not registry.exists():
        raise ConfigError(
            f"no ingested corpus under {cfg.out_dir!r} (expected {CORPUS_CACHE} "
            f"and {REGISTRY_CACHE}); run the ingest subcommand first"
        )
    return _read_input(parse_records, corpus, _read_input(load_registry, registry))


def _load_scored_cache(cfg: PipelineConfig) -> Tuple[RecordSet, ScoreTable]:
    """The ingest cache and the scores.csv that was scored from it.

    Every scored id must be a cached record, and the stats_span rows must hold exactly the ids,
    distinctiveness and resonance of metrics.window_scores under the resolved last_complete_year, bit
    for bit; novelty, which would cost score's scan, is not re-derived. A table scored without
    stats_span is named as such.
    """
    records = _load_cache(cfg)
    path = Path(cfg.out_dir) / SCORES_FILE
    if not path.exists():
        raise ConfigError(f"{path} missing; run the score subcommand first")
    table = _read_input(read_scores_csv, path)
    last_year = _last_complete_year(cfg, records) if len(records) else cfg.last_complete_year  # no year to infer
    # each record's stats_span distinctiveness and resonance by row, NaN where unscored
    expected = np.full((2, len(records)), np.nan)
    for _, rows, [(_, dist, res)] in window_scores(records, (cfg.stats_span,), last_year):
        if dist is not None:
            expected[:, rows] = dist, res
    table_rows = np.fromiter(map(records.row_of.get, table.ids.tolist(), [-1] * len(table)), np.intp, len(table))
    at_span, current = table.spans == cfg.stats_span, (table_rows >= 0).all()
    if current and not np.isnan(expected[0]).all() and not at_span.any():
        raise ConfigError(f"{path} holds no scores for stats_span {cfg.stats_span}, only for spans "
                          f"{sorted(set(table.spans.tolist()))}; re-run score with span {cfg.stats_span}")
    # the floats compared through int64, so NaN matches NaN and every bit counts
    if not (current and np.array_equal(np.sort(table_rows[at_span]), np.flatnonzero(~np.isnan(expected[0])))
            and np.array_equal(expected[:, table_rows[at_span]].view(np.int64),
                               np.stack((table.distinctiveness[at_span], table.resonance[at_span])).view(np.int64))):
        raise ConfigError(f"{path} was not scored from the ingested corpus in {cfg.out_dir!r} "
                          f"with last_complete_year {last_year}; re-run score")
    return records, table


def _read_input(read, path, *args):
    """read(path, *args), with every input error naming the file: decoding and csv
    errors, and the library's row, cell and registry errors, name none."""
    try:
        return read(path, *args)
    except (UnicodeDecodeError, csv.Error, ParseError, RegistryError) as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise ParseError(f"{path}: {exc}") from exc


def _final_year(records: RecordSet) -> int:
    """The latest year among `records`; EmptySample when the filters kept none."""
    if not len(records):
        raise EmptySample("no record passed the filters")
    return int(records.years.max())


def _last_complete_year(cfg: PipelineConfig, records: RecordSet) -> int:
    if cfg.last_complete_year is not None:
        return cfg.last_complete_year
    inferred = _final_year(records)
    log.info("last_complete_year not set; assuming final corpus year %d is complete", inferred)
    return inferred


def cmd_ingest(cfg: PipelineConfig, records: RecordSet) -> RecordSet:
    """Filter `records`, write the caches, return the kept records."""
    kept, report = apply_filters(records, cfg.filters)
    out = Path(cfg.out_dir)
    with atomic_write(out / CORPUS_CACHE) as tmp:
        write_records_csv(kept, tmp)
    with atomic_write(out / REGISTRY_CACHE) as tmp:
        write_registry(records.registry, tmp)
    with atomic_write(out / "filter_report.json") as tmp:
        tmp.write_text(report.to_json(), encoding="utf-8")
    log.info("ingested %d records, kept %d after filters", len(records), len(kept))
    return kept


def cmd_score(cfg: PipelineConfig, records: RecordSet) -> ScoreTable:
    """Score `records`, write scores.csv, return the table."""
    last_year = _last_complete_year(cfg, records)
    table = score_corpus(records, spans=cfg.spans, last_complete_year=last_year)
    with atomic_write(Path(cfg.out_dir) / SCORES_FILE) as tmp:
        table.write_csv(tmp)
    if len(table) == 0:
        log.warning("no record has a non-empty comparison window for spans %s; scores.csv is empty",
                    cfg.spans)
    elif table.unscored:
        log.info("%d (record, span) pairs had empty windows and were not scored", len(table.unscored))
    log.info("wrote %d score rows for spans %s", len(table), cfg.spans)
    return table


def cmd_landscape(cfg: PipelineConfig, records: RecordSet) -> int:
    settings = cfg.landscape
    final_year = _final_year(records)
    late = [y for y in settings.snapshot_years if y > final_year]
    if late:
        raise ConfigError(f"snapshot years {late} come after the corpus's final year {final_year}")
    years = tuple(sorted(settings.snapshot_years)) or (final_year,)
    graphs = build_landscape(records, years, settings.min_type_count)
    log.info("landscape layout seed: %d", settings.seed)
    # one layout of the final snapshot; exports, SVGs and centroids keep only
    # the positions of each snapshot's plotted nodes
    positions = layout(graphs[-1], seed=settings.seed)
    classes = classify_snapshots(graphs, settings.cf_share_threshold)
    out = Path(cfg.out_dir)

    rows = []
    for g in graphs:
        exported = export_rows(g, positions)
        for fmt in cfg.formats:
            path = out / f"landscape_{g.snapshot_year}.{fmt}"
            with atomic_write(path) as tmp:
                if fmt == "svg":
                    render_svg(g, exported, tmp, classes=classes[g.snapshot_year])
                else:
                    export_graph(g, exported, fmt, tmp, seed=settings.seed)
        rows += [(g.snapshot_year, group, f"{x:.6f}", f"{y:.6f}")
                 for group, (x, y) in filter(None, centroids(exported))]
    _write_table(out / "centroids.csv", ("year", "group", "x", "y"), rows)
    log.info("wrote %d snapshots (%s) and %d centroid rows", len(graphs), years, len(rows))
    return EXIT_OK


def _write_table(path: Path, header: Sequence[str], rows: Sequence[tuple]) -> None:
    """Write the tuple rows under `header` as a CSV table, atomically; a None cell is empty."""
    with atomic_write(path) as tmp:
        write_csv_columns(tmp, header, list(zip(*rows)) or [()] * len(header))


def cmd_stats(cfg: PipelineConfig, records: RecordSet, table: ScoreTable) -> int:
    """Descriptives, group tests and models of `records` joined with their scores."""
    data = join_scores(records, table, span=cfg.stats_span)
    out = Path(cfg.out_dir)

    _write_table(out / "descriptives.csv", DESCRIBE_COLUMNS, describe(data))

    # a failed group test or model is reported and left out; the others are still written
    battery = group_test_battery(data)
    untested = [label for label, res in battery if res is None]
    for label in untested:
        log.error("group test %s failed: a group has no values", label)
    test_rows = [(label, *res.n, *(f"{m:.6f}" for m in res.group_means), f"{res.u_statistic:.1f}",
                  f"{res.auc:.6f}", f"{res.p_value:.6g}", int(res.exact))
                 for label, res in battery if res is not None]
    _write_table(out / "group_tests.csv", GROUP_TEST_COLUMNS, test_rows)

    fits, model_rows, diagnostic_rows, mm_rows = [], [], [], []
    for name, spec in cfg.models.items():
        design = None  # rows are made right after each fit, so one design is alive at a time
        try:
            design = build_design(data, spec)
            fit = fit_model(design)
        except NovascapeError as exc:
            fits.append((name, None))
            log.error("model %s failed: %s", name, exc)
            continue
        fits.append((name, fit))
        estimates = (fit.coefficients, fit.robust_se, fit.z_or_t, fit.p_values)
        model_rows += [(name, term, *(f"{v[term]:.6g}" for v in estimates)) for term in fit.columns]
        separated_rows = sum(rows for _, _, rows in design.separated)
        incomplete = len(data[spec.outcome]) - len(design.rows_used) - separated_rows
        diagnostic_rows.append((
            name, fit.family, fit.n_obs, incomplete,
            "; ".join(f"{fe}={level} ({rows} rows)" for fe, level, rows in design.separated),
            separated_rows, fit.n_iter, f"{fit.max_score:.3g}", f"{fit.log_likelihood:.6f}"))
        if "crowdfunded" in fit.columns:
            mm_rows += [(name, int(mm.level), *(f"{v:.6f}" for v in (mm.estimate, mm.se, mm.ci_low, mm.ci_high)))
                        for mm in marginal_means(fit, design.X, "crowdfunded")]
    failures = sum(fit is None for _, fit in fits)

    _write_table(out / "models.csv", MODEL_COLUMNS, model_rows)
    with atomic_write(out / "models.txt") as tmp:
        tmp.write_text(format_model_table(fits), encoding="utf-8")
    _write_table(out / "model_diagnostics.csv", DIAGNOSTIC_COLUMNS, diagnostic_rows)
    _write_table(out / "marginal_means.csv", MARGINAL_MEAN_COLUMNS, mm_rows)

    if untested or failures:
        log.error("%d of %d group tests and %d of %d models failed; remaining tables were still written",
                  len(untested), len(battery), failures, len(cfg.models))
        return EXIT_EMPTY if untested else EXIT_NUMERIC
    log.info("fitted %d models on %d joined rows (span %d)",
             len(cfg.models), len(data["distinctiveness"]), cfg.stats_span)
    return EXIT_OK


def cmd_synth(cfg: PipelineConfig) -> RecordSet:
    """Generate the synthetic corpus, write it and its registry, return it."""
    if cfg.synth is None:
        raise ConfigError("config lacks a synth section")
    log.info("synthesis seed: %d", cfg.synth.seed)
    corpus = generate_corpus(cfg.synth)
    out = Path(cfg.out_dir)
    with atomic_write(out / "synth_corpus.csv") as tmp:
        write_records_csv(corpus, tmp)
    with atomic_write(out / "synth_registry.txt") as tmp:
        write_registry(corpus.registry, tmp)
    log.info("wrote %d synthetic records over %d-%d",
             len(corpus), cfg.synth.year_start, cfg.synth.year_end)
    return corpus


def cmd_report(cfg: PipelineConfig) -> int:
    """Full pipeline in one command; stages pass records and scores in memory.

    Each stage still writes its files, so the output directory matches a
    stepwise run of the subcommands byte for byte. pipeline_config.json is
    written first, so a run that fails in a stage still leaves its config.
    """
    synthesise = cfg.synth is not None and cfg.corpus_path is None
    if synthesise:
        # ingest takes the corpus in memory: parsing the files synth writes
        # gives the same columns, and the written config names those files
        cfg = replace(cfg, corpus_path=str(Path(cfg.out_dir) / "synth_corpus.csv"),
                      registry_path=str(Path(cfg.out_dir) / "synth_registry.txt"))
    with atomic_write(Path(cfg.out_dir) / "pipeline_config.json") as tmp:
        tmp.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    records = cmd_ingest(cfg, cmd_synth(cfg) if synthesise else _read_corpus(cfg))
    table = cmd_score(cfg, records)
    # neither stage reads the other's files, so an empty result in one lets the other write
    # its own; stats goes first, so a layout that fails or runs out of memory leaves them
    codes = []
    for stage in (lambda: cmd_stats(cfg, records, table), lambda: cmd_landscape(cfg, records)):
        try:
            codes.append(stage())
        except (EmptySample, EmptyGraph) as exc:
            log.error("empty result: %s", exc)
            codes.append(EXIT_EMPTY)
    return codes[0] or codes[1]


# the model presets the effect-recovery Monte Carlo fits
RECOVERY_MODELS = ("Distinctiveness", "Novelty", "Novelty (Count)")


def recovery_seed(seed: int, boost: float, games_per_year: int = 500, years: int = 10,
                  share: float = 0.3, span: int = 2) -> dict:
    """Crowdfunded (coef, p) per RECOVERY_MODELS preset for one synthetic corpus from 2006.

    One Monte-Carlo seed in memory: synth, filter, score one span, join, fit.
    """
    cfg = SynthConfig(year_start=2006, year_end=2006 + years - 1, games_per_year=games_per_year,
                      crowdfunded_share_by_year=share, novelty_boost=boost, seed=seed)
    kept, _ = apply_filters(generate_corpus(cfg), FilterConfig())
    table = score_corpus(kept, spans=(span,), last_complete_year=cfg.year_end)
    data = join_scores(kept, table, span=span)
    fits = {name: fit_model(build_design(data, MODEL_PRESETS[name])) for name in RECOVERY_MODELS}
    return {name: (fit.coefficients["crowdfunded"], fit.p_values["crowdfunded"])
            for name, fit in fits.items()}


# the only readers of the caches; each stage is looked up by name when called,
# so a wrapper put on novascape.cli's name runs here too
COMMANDS = {
    "ingest": lambda cfg: cmd_ingest(cfg, _read_corpus(cfg)),
    "score": lambda cfg: cmd_score(cfg, _load_cache(cfg)),
    "landscape": lambda cfg: cmd_landscape(cfg, _load_cache(cfg)),
    "stats": lambda cfg: cmd_stats(cfg, *_load_scored_cache(cfg)),
    "synth": cmd_synth,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novascape",
        description="Innovation metrics, landscapes, and statistics for mechanism-vector corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse, validate, and filter a corpus CSV"),
        ("score", "compute windowed innovation scores for the ingested corpus"),
        ("landscape", "build and export type-landscape snapshots"),
        ("stats", "descriptives, group tests, regressions, marginal means"),
        ("synth", "generate a synthetic corpus from the config's synth section"),
        ("report", "run the full pipeline (synth if configured, then ingest..stats)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="pipeline config JSON")
        p.add_argument("--spans", metavar="1,2,5", help="comma-separated window spans")
        p.add_argument("--seed", type=int, metavar="N", help="override layout/synthesis seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=EXPORT_FORMATS, help="restrict export format")
        p.add_argument("--corpus", metavar="PATH", help="corpus CSV (overrides config)")
        p.add_argument("--registry", metavar="PATH", help="registry file (overrides config)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        result = COMMANDS[args.command](cfg)
        # synth, ingest and score return their records or scores for report to chain
        return result if isinstance(result, int) else EXIT_OK
    except (ParseError, RegistryError, ConfigError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except (EmptyGraph, EmptySample) as exc:
        log.error("empty result: %s", exc)
        return EXIT_EMPTY
    except (NumericError, RankDeficient) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
