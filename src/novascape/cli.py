"""Command-line pipeline: ingest, score, landscape, stats, synth, report.

One JSON config describes a full run; flags override the common knobs. A
typical flow over a synthetic corpus:

    novascape synth  --config run.json --out runs/demo
    novascape report --config run.json --out runs/demo

`report` parses its input once and hands records and scores from stage to
stage in memory; the standalone subcommands read what the previous one left
in the output directory. Both routes write the same bytes.

All randomness flows from seeds in the config (logged at run time). Outputs
are written atomically (temp file + rename) and contain no timestamps, so a
rerun with the same config and seeds reproduces the directory byte for byte.

Exit codes: 0 success, 2 input error, 3 empty result, 4 numeric failure.
"""

import argparse
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
from typing import List, Mapping, Optional, Sequence, Tuple

from .corpus import (
    FilterConfig,
    RecordSet,
    apply_filters,
    canonical_registry,
    load_registry,
    parse_records,
    write_records_csv,
    write_registry,
)
from .errors import (
    ConfigError,
    EmptyGraph,
    EmptySample,
    EmptyWindow,
    NovascapeError,
    NumericError,
    ParseError,
    RankDeficient,
)
from .landscape import (
    EXPORT_FORMATS,
    build_landscape,
    centroids,
    classify_snapshots,
    export_graph,
    layout,
    render_svg,
)
from .metrics import SPAN_PRESETS, ScoreTable, read_scores_csv, score_corpus
from .stats import (
    COUNT_NOVELTY_MODEL,
    REFERENCE_CROWDFUNDED,
    STANDARD_MODELS,
    ModelSpec,
    build_design,
    describe,
    fit_model,
    fit_rows,
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


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; serializable so one JSON captures the run."""

    corpus_path: Optional[str] = None
    registry_path: Optional[str] = None
    out_dir: str = "out"
    spans: Tuple[int, ...] = SPAN_PRESETS
    stats_span: int = 2
    last_complete_year: Optional[int] = None
    filters: FilterConfig = field(default_factory=FilterConfig)
    snapshot_years: Tuple[int, ...] = ()
    min_type_count: int = 6
    cf_share_threshold: float = 0.5
    seed: int = 42
    formats: Tuple[str, ...] = ("graphml", "json", "svg")
    models: Tuple[Tuple[str, ModelSpec], ...] = STANDARD_MODELS
    synth: Optional[SynthConfig] = None

    def __post_init__(self):
        if not self.spans:
            raise ConfigError("spans must be non-empty")
        if any(s < 1 for s in self.spans):
            raise ConfigError(f"spans must be positive, got {self.spans}")
        if self.stats_span not in self.spans:
            raise ConfigError(f"stats_span {self.stats_span} not among spans {self.spans}")
        bad = [f for f in self.formats if f not in EXPORT_FORMATS]
        if bad:
            raise ConfigError(f"unknown formats {bad}; choose from {EXPORT_FORMATS}")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PipelineConfig":
        known = {
            "corpus_path", "registry_path", "out_dir", "spans", "stats_span",
            "last_complete_year", "filters", "landscape", "seed", "formats",
            "models", "synth",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        kwargs: dict = {}
        for key in ("corpus_path", "registry_path", "out_dir", "stats_span",
                    "last_complete_year", "seed"):
            if key in payload:
                kwargs[key] = payload[key]
        try:
            if "spans" in payload:
                kwargs["spans"] = tuple(int(s) for s in payload["spans"])
            if "formats" in payload:
                kwargs["formats"] = tuple(payload["formats"])
            if "filters" in payload:
                kwargs["filters"] = FilterConfig(**payload["filters"])
            if "landscape" in payload:
                ls = dict(payload["landscape"])
                if "snapshot_years" in ls:
                    kwargs["snapshot_years"] = tuple(int(y) for y in ls.pop("snapshot_years"))
                for key in ("min_type_count", "cf_share_threshold", "seed"):
                    if key in ls:
                        kwargs[key] = ls.pop(key)
                if ls:
                    raise ConfigError(f"unknown landscape keys {sorted(ls)}")
            if "models" in payload:
                kwargs["models"] = tuple(
                    (name, ModelSpec.from_dict(spec)) for name, spec in payload["models"].items()
                )
            if "synth" in payload:
                kwargs["synth"] = SynthConfig.from_dict(payload["synth"])
            return cls(**kwargs)
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

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
        out = {
            "corpus_path": self.corpus_path,
            "registry_path": self.registry_path,
            "out_dir": self.out_dir,
            "spans": list(self.spans),
            "stats_span": self.stats_span,
            "last_complete_year": self.last_complete_year,
            "filters": dataclasses.asdict(self.filters),
            "landscape": {
                "snapshot_years": list(self.snapshot_years),
                "min_type_count": self.min_type_count,
                "cf_share_threshold": self.cf_share_threshold,
                "seed": self.seed,
            },
            "formats": list(self.formats),
            "models": {name: spec.to_dict() for name, spec in self.models},
        }
        if self.synth is not None:
            out["synth"] = self.synth.to_dict()
        return out


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
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
        overrides["seed"] = args.seed
        if cfg.synth is not None:
            overrides["synth"] = replace(cfg.synth, seed=args.seed)
    return replace(cfg, **overrides) if overrides else cfg


def _load_cache(cfg: PipelineConfig) -> RecordSet:
    corpus = Path(cfg.out_dir) / CORPUS_CACHE
    registry = Path(cfg.out_dir) / REGISTRY_CACHE
    if not corpus.exists() or not registry.exists():
        raise ConfigError(
            f"no ingested corpus under {cfg.out_dir!r} (expected {CORPUS_CACHE} "
            f"and {REGISTRY_CACHE}); run the ingest subcommand first"
        )
    return parse_records(corpus, load_registry(registry))


def _last_complete_year(cfg: PipelineConfig, records: RecordSet) -> int:
    if cfg.last_complete_year is not None:
        return cfg.last_complete_year
    inferred = max(int(y) for y in records.years)
    log.info("last_complete_year not set; assuming final corpus year %d is complete", inferred)
    return inferred


def cmd_ingest(cfg: PipelineConfig) -> RecordSet:
    """Parse and filter the input corpus, write the caches, return the kept records."""
    if not cfg.corpus_path:
        raise ConfigError("ingest needs corpus_path (config key or --corpus)")
    registry = load_registry(cfg.registry_path) if cfg.registry_path else canonical_registry()
    records = parse_records(cfg.corpus_path, registry)
    kept, report = apply_filters(records, cfg.filters)
    out = Path(cfg.out_dir)
    with atomic_write(out / CORPUS_CACHE) as tmp:
        write_records_csv(kept, tmp)
    with atomic_write(out / REGISTRY_CACHE) as tmp:
        write_registry(registry, tmp)
    with atomic_write(out / "filter_report.json") as tmp:
        tmp.write_text(report.to_json() + "\n", encoding="utf-8")
    log.info("ingested %d records, kept %d after filters", len(records.records), len(kept.records))
    return kept


def cmd_score(cfg: PipelineConfig, records: Optional[RecordSet] = None) -> ScoreTable:
    """Score `records` (default: the ingest cache), write scores.csv, return the table."""
    records = _load_cache(cfg) if records is None else records
    last_year = _last_complete_year(cfg, records)
    table = score_corpus(records, spans=cfg.spans, last_complete_year=last_year)
    with atomic_write(Path(cfg.out_dir) / SCORES_FILE) as tmp:
        table.write_csv(tmp)
    if len(table) == 0:
        log.warning(
            "no record has a non-empty comparison window for spans %s; scores.csv is empty",
            cfg.spans,
        )
    elif table.unscored:
        log.info("%d (record, span) pairs had empty windows and were not scored", len(table.unscored))
    log.info("wrote %d score rows for spans %s", len(table), cfg.spans)
    return table


def cmd_landscape(cfg: PipelineConfig, records: Optional[RecordSet] = None) -> int:
    records = _load_cache(cfg) if records is None else records
    years = tuple(sorted(cfg.snapshot_years)) or (max(int(y) for y in records.years),)
    graphs = [
        build_landscape(records, up_to_year=y, min_type_count=cfg.min_type_count,
                        cf_share_threshold=cfg.cf_share_threshold)
        for y in years
    ]
    final = graphs[-1]
    log.info("landscape layout seed: %d", cfg.seed)
    # one layout of the final snapshot; exports, SVGs and centroids keep only
    # the positions of each snapshot's plotted nodes
    positions = layout(final, seed=cfg.seed)
    classes = classify_snapshots(graphs)
    out = Path(cfg.out_dir)

    rows = []
    for g in graphs:
        for fmt in cfg.formats:
            path = out / f"landscape_{g.snapshot_year}.{fmt}"
            with atomic_write(path) as tmp:
                if fmt == "svg":
                    render_svg(g, positions, tmp, classes=classes[g.snapshot_year])
                else:
                    export_graph(g, positions, fmt, tmp, seed=cfg.seed)
        for cen in centroids(g, positions, records, g.snapshot_year):
            if cen is not None:
                rows.append(
                    {
                        "year": cen.year,
                        "group": cen.group,
                        "x": f"{cen.point[0]:.6f}",
                        "y": f"{cen.point[1]:.6f}",
                    }
                )
    with atomic_write(out / "centroids.csv") as tmp:
        _write_dict_csv(tmp, rows, ["year", "group", "x", "y"])
    log.info("wrote %d snapshots (%s) and %d centroid rows", len(graphs), years, len(rows))
    return EXIT_OK


def _write_dict_csv(path, rows: List[dict], columns: Sequence[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _read_scores(cfg: PipelineConfig, records: RecordSet) -> ScoreTable:
    """Read scores.csv and check that it was scored from the ingest cache `records`.

    Every scored id must be a cached record, and the ids scored for
    stats_span must be exactly the cached records with a non-empty past
    window; a table left over from an earlier ingest fails one or the other.
    """
    path = Path(cfg.out_dir) / SCORES_FILE
    if not path.exists():
        raise ConfigError(f"{path} missing; run the score subcommand first")
    table = read_scores_csv(path)
    years = set(records.year_rows)
    expected = {
        rec.id for rec in records.records
        if any(rec.year - k in years for k in range(1, cfg.stats_span + 1))
    }
    scored = {row.record_id for row in table.for_span(cfg.stats_span)}
    if scored != expected or not {row.record_id for row in table} <= set(records.ids):
        raise ConfigError(
            f"{path} was not scored from the ingested corpus in {cfg.out_dir!r}; re-run score"
        )
    return table


def cmd_stats(
    cfg: PipelineConfig,
    records: Optional[RecordSet] = None,
    table: Optional[ScoreTable] = None,
) -> int:
    """Descriptives, group tests and models; inputs default to the ingest and score caches."""
    records = _load_cache(cfg) if records is None else records
    table = _read_scores(cfg, records) if table is None else table
    if len(table.for_span(cfg.stats_span)) == 0:
        raise EmptySample(f"no score rows for span {cfg.stats_span}")
    data = join_scores(records, table, span=cfg.stats_span)
    out = Path(cfg.out_dir)

    desc = describe(data)
    with atomic_write(out / "descriptives.csv") as tmp:
        _write_dict_csv(tmp, desc, list(desc[0].keys()))

    battery = group_test_battery(data)
    test_rows = [
        {
            "feature": label,
            "n_crowdfunded": res.n[0],
            "n_traditional": res.n[1],
            "mean_crowdfunded": f"{res.group_means[0]:.6f}",
            "mean_traditional": f"{res.group_means[1]:.6f}",
            "u_statistic": f"{res.u_statistic:.1f}",
            "auc": f"{res.auc:.6f}",
            "p_value": f"{res.p_value:.6g}",
            "exact": int(res.exact),
        }
        for label, res in battery
    ]
    with atomic_write(out / "group_tests.csv") as tmp:
        _write_dict_csv(tmp, test_rows, list(test_rows[0].keys()))

    # a failed model is reported and left out; the others are still written
    fits = []
    designs = {}
    failures = 0
    for name, spec in cfg.models:
        try:
            design = build_design(data, spec)
            fit = fit_model(design)
        except NovascapeError as exc:
            failures += 1
            fits.append((name, None))
            log.error("model %s failed: %s", name, exc)
            continue
        designs[name] = design
        fits.append((name, fit))

    model_rows = []
    for name, fit in fits:
        if fit is None:
            continue
        for row in fit_rows(fit):
            model_rows.append(
                {
                    "model": name,
                    "term": row["term"],
                    "coef": f"{row['coef']:.6g}",
                    "se": f"{row['se']:.6g}",
                    "z": f"{row['z']:.6g}",
                    "p": f"{row['p']:.6g}",
                }
            )
    with atomic_write(out / "models.csv") as tmp:
        _write_dict_csv(tmp, model_rows, ["model", "term", "coef", "se", "z", "p"])

    with atomic_write(out / "models.txt") as tmp:
        tmp.write_text(format_model_table(fits, reference=REFERENCE_CROWDFUNDED), encoding="utf-8")

    mm_rows = []
    for name, fit in fits:
        if fit is None or "crowdfunded" not in fit.columns:
            continue
        design = designs[name]
        for mm in marginal_means(fit, design.X, "crowdfunded", (0.0, 1.0)):
            mm_rows.append(
                {
                    "model": name,
                    "crowdfunded": int(mm.level),
                    "estimate": f"{mm.estimate:.6f}",
                    "se": f"{mm.se:.6f}",
                    "ci_low": f"{mm.ci_low:.6f}",
                    "ci_high": f"{mm.ci_high:.6f}",
                }
            )
    with atomic_write(out / "marginal_means.csv") as tmp:
        _write_dict_csv(tmp, mm_rows, ["model", "crowdfunded", "estimate", "se", "ci_low", "ci_high"])

    if failures:
        log.error("%d of %d models failed; remaining tables were still written",
                  failures, len(cfg.models))
        return EXIT_NUMERIC
    log.info("fitted %d models on %d joined rows (span %d)",
             len(cfg.models), len(data["distinctiveness"]), cfg.stats_span)
    return EXIT_OK


def cmd_synth(cfg: PipelineConfig) -> int:
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
             len(corpus.records), cfg.synth.year_start, cfg.synth.year_end)
    return EXIT_OK


def cmd_report(cfg: PipelineConfig) -> int:
    """Full pipeline in one command; stages pass records and scores in memory.

    Each stage still writes its files, so the output directory matches a
    stepwise run of the subcommands byte for byte.
    """
    if cfg.synth is not None and cfg.corpus_path is None:
        cmd_synth(cfg)
        cfg = replace(
            cfg,
            corpus_path=str(Path(cfg.out_dir) / "synth_corpus.csv"),
            registry_path=str(Path(cfg.out_dir) / "synth_registry.txt"),
        )
    records = cmd_ingest(cfg)
    table = cmd_score(cfg, records)
    code = cmd_landscape(cfg, records)
    code = cmd_stats(cfg, records, table) or code
    with atomic_write(Path(cfg.out_dir) / "pipeline_config.json") as tmp:
        tmp.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return code


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


COMMANDS = {
    "ingest": cmd_ingest,
    "score": cmd_score,
    "landscape": cmd_landscape,
    "stats": cmd_stats,
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
        # ingest and score return their records or scores for report to chain
        return result if isinstance(result, int) else EXIT_OK
    except (ParseError, ConfigError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except (EmptyGraph, EmptySample, EmptyWindow) as exc:
        log.error("empty result: %s", exc)
        return EXIT_EMPTY
    except (NumericError, RankDeficient) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
