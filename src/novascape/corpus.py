"""Corpus ingestion: feature registry, record parsing, and the filtering protocol.

Products are described by fixed-width binary feature vectors ("mechanism
vectors" for board games). The registry defines the vector dimensionality and
the bit order; records are parsed from a flat CSV schema and filtered down to
an analysis set with explicit, reported rules.
"""

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DimensionError,
    DuplicateFeature,
    DuplicateId,
    EmptyRegistry,
    ParseError,
    SchemaError,
    UnknownFeature,
)

REQUIRED_COLUMNS = (
    "id",
    "year",
    "mechanisms",
    "crowdfunded",
    "genre",
    "team_size",
    "debut",
    "complexity",
    "playing_time",
    "min_players",
    "max_players",
    "min_age",
    "is_expansion",
    "is_adult",
    "num_ratings",
)
OPTIONAL_COLUMNS = ("parent_id",)

MECHANISM_SEPARATOR = ";"

# Filter rule identifiers, in application order. A dropped record is counted
# against the first rule it fails.
RULE_YEAR = "year_range"
RULE_RATINGS = "min_ratings"
RULE_MECHANISMS = "min_mechanisms"
RULE_DESIGNER = "require_designer"
RULE_TRIVIAL_EXPANSION = "trivial_expansion"
FILTER_RULES = (RULE_YEAR, RULE_RATINGS, RULE_MECHANISMS, RULE_DESIGNER, RULE_TRIVIAL_EXPANSION)


@dataclass(frozen=True)
class FeatureRegistry:
    """Ordered list of named binary features; order defines bit indices."""

    names: tuple

    def __post_init__(self):
        if len(self.names) == 0:
            raise EmptyRegistry("registry has no features")
        seen = set()
        for name in self.names:
            if not name:
                raise ParseError("empty feature name in registry")
            # the corpus parser splits on the separator and strips each name,
            # so no mechanisms cell could ever set such a feature's bit
            if MECHANISM_SEPARATOR in name or name != name.strip():
                raise ParseError(f"feature name {name!r} has a {MECHANISM_SEPARATOR!r} or edge whitespace")
            if name in seen:
                raise DuplicateFeature(f"duplicate feature name {name!r}")
            seen.add(name)

    @property
    def dimension(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict:
        return {name: j for j, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        return self._index[name]

    def encode(self, mechanisms: Iterable[str], row: int = -1) -> np.ndarray:
        """Encode feature names into a uint8 bit vector of registry dimension.

        Unknown names raise UnknownFeature with the offending row number.
        Repeated names set their bit once.
        """
        bits = np.zeros(self.dimension, dtype=np.uint8)
        for name in mechanisms:
            j = self._index.get(name)
            if j is None:
                raise UnknownFeature(row, name)
            bits[j] = 1
        return bits

    def decode(self, bits: np.ndarray) -> tuple:
        """Feature names whose bit is set, in registry order."""
        if len(bits) != self.dimension:
            raise DimensionError(f"vector length {len(bits)} != registry dimension {self.dimension}")
        return tuple(self.names[j] for j in np.flatnonzero(bits))


def load_registry(path) -> FeatureRegistry:
    """Load a registry from a text file (one name per line) or a JSON array."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON registry: {exc}") from exc
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise ParseError(f"{path}: JSON registry must be an array of strings")
        names = entries
    else:
        names = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            name = line.strip()
            if not name:
                if line.strip("\n\r ") == "" and lineno == len(text.splitlines()):
                    continue
                raise ParseError(f"{path}: blank feature name at line {lineno}")
            names.append(name)
    if not names:
        raise EmptyRegistry(f"{path}: registry file is empty")
    return FeatureRegistry(tuple(names))


def canonical_registry() -> FeatureRegistry:
    """The 51-mechanism registry used by the 2017 BoardGameGeek snapshot."""
    text = resources.files("novascape.data").joinpath("mechanisms_bgg_2017.txt").read_text("utf-8")
    names = tuple(line.strip() for line in text.splitlines() if line.strip())
    return FeatureRegistry(names)


@dataclass(frozen=True, eq=False)
class Record:
    """One product: identity, publication year, feature vector, and controls."""

    id: str
    year: int
    vector: np.ndarray
    crowdfunded: bool
    genre: str
    team_size: int
    debut: bool
    complexity: float
    playing_time: float
    min_players: int
    max_players: int
    min_age: int
    is_expansion: bool
    is_adult: bool
    num_ratings: int
    parent_id: Optional[str] = None

    @property
    def popcount(self) -> int:
        return int(self.vector.sum())


class RecordSet:
    """Immutable collection of records sharing one registry.

    Caches the stacked vector matrix and per-year row indices; safe to share
    read-only across threads.
    """

    def __init__(self, records: Iterable[Record], registry: FeatureRegistry):
        self.registry = registry
        self.records = tuple(records)
        seen = set()
        for rec in self.records:
            if len(rec.vector) != registry.dimension:
                raise DimensionError(
                    f"record {rec.id}: vector length {len(rec.vector)} != dimension {registry.dimension}"
                )
            if rec.id in seen:
                raise DuplicateId(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, i: int) -> Record:
        return self.records[i]

    @cached_property
    def matrix(self) -> np.ndarray:
        """(n, dimension) uint8 matrix of all vectors, row order preserved."""
        if not self.records:
            return np.zeros((0, self.registry.dimension), dtype=np.uint8)
        return np.stack([rec.vector for rec in self.records]).astype(np.uint8)

    @cached_property
    def years(self) -> np.ndarray:
        return np.array([rec.year for rec in self.records], dtype=np.int64)

    @cached_property
    def ids(self) -> tuple:
        return tuple(rec.id for rec in self.records)

    @cached_property
    def crowdfunded(self) -> np.ndarray:
        return np.array([rec.crowdfunded for rec in self.records], dtype=bool)

    @cached_property
    def by_id(self) -> dict:
        return {rec.id: rec for rec in self.records}

    @cached_property
    def year_rows(self) -> dict:
        """Map year -> sorted row indices of records published that year."""
        out = {}
        for i, rec in enumerate(self.records):
            out.setdefault(rec.year, []).append(i)
        return {y: np.array(rows, dtype=np.int64) for y, rows in out.items()}

    def rows_in_years(self, year_lo: int, year_hi: int) -> np.ndarray:
        """Row indices of records with year in [year_lo, year_hi], ascending."""
        parts = [self.year_rows[y] for y in sorted(self.year_rows) if year_lo <= y <= year_hi]
        if not parts:
            return np.array([], dtype=np.int64)
        return np.concatenate(parts)


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds of the analysis-set filtering protocol."""

    min_mechanisms: int = 2
    min_ratings: int = 10
    require_designer: bool = True
    drop_trivial_expansions: bool = True
    year_min: int = 2006
    year_max: Optional[int] = None

    def __post_init__(self):
        if self.min_mechanisms < 0 or self.min_ratings < 0:
            raise ValueError("thresholds must be >= 0")


@dataclass
class FilterReport:
    input_count: int
    output_count: int
    dropped: dict

    def to_json(self) -> str:
        payload = {
            "input_count": self.input_count,
            "output_count": self.output_count,
            "dropped": {rule: self.dropped.get(rule, 0) for rule in FILTER_RULES},
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _parse_int(value: str, row: int, column: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"row {row}: column {column!r} is not an integer: {value!r}")


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"row {row}: column {column!r} is not a number: {value!r}")
    if not np.isfinite(out):
        raise ParseError(f"row {row}: column {column!r} is not finite: {value!r}")
    return out


def _parse_bool(value: str, row: int, column: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise ParseError(f"row {row}: column {column!r} must be 0 or 1, got {value!r}")


def parse_records(path, registry: FeatureRegistry) -> RecordSet:
    """Parse the corpus CSV against a registry; row order is preserved.

    Rows with missing or out-of-range values are rejected outright (no
    imputation); downstream analyses assume complete cases.
    """
    records = []
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
            vector = registry.encode(mechanisms, row=row_no)
            rec = Record(
                id=row["id"],
                year=_parse_int(row["year"], row_no, "year"),
                vector=vector,
                crowdfunded=_parse_bool(row["crowdfunded"], row_no, "crowdfunded"),
                genre=row["genre"],
                team_size=_parse_int(row["team_size"], row_no, "team_size"),
                debut=_parse_bool(row["debut"], row_no, "debut"),
                complexity=_parse_float(row["complexity"], row_no, "complexity"),
                playing_time=_parse_float(row["playing_time"], row_no, "playing_time"),
                min_players=_parse_int(row["min_players"], row_no, "min_players"),
                max_players=_parse_int(row["max_players"], row_no, "max_players"),
                min_age=_parse_int(row["min_age"], row_no, "min_age"),
                is_expansion=_parse_bool(row["is_expansion"], row_no, "is_expansion"),
                is_adult=_parse_bool(row["is_adult"], row_no, "is_adult"),
                num_ratings=_parse_int(row["num_ratings"], row_no, "num_ratings"),
                parent_id=(row.get("parent_id") or None),
            )
            _validate_record(rec, row_no)
            records.append(rec)
    record_set = RecordSet(records, registry)
    return record_set


def _validate_record(rec: Record, row_no: int) -> None:
    if not rec.id:
        raise ParseError(f"row {row_no}: empty id")
    if not 0.0 <= rec.complexity <= 5.0:
        raise ParseError(f"row {row_no}: complexity {rec.complexity} outside [0, 5]")
    if not 0 <= rec.min_age <= 25:
        raise ParseError(f"row {row_no}: min_age {rec.min_age} outside [0, 25]")
    if rec.playing_time < 0:
        raise ParseError(f"row {row_no}: negative playing_time")
    if rec.num_ratings < 0:
        raise ParseError(f"row {row_no}: negative num_ratings")
    if rec.team_size < 0:
        raise ParseError(f"row {row_no}: negative team_size")
    if rec.max_players > 0 and rec.min_players > rec.max_players:
        raise ParseError(f"row {row_no}: min_players {rec.min_players} > max_players {rec.max_players}")


def apply_filters(records: RecordSet, cfg: FilterConfig):
    """Apply the filtering protocol; returns (filtered RecordSet, FilterReport).

    Rules run in FILTER_RULES order and each dropped record counts against the
    first rule it fails. Trivial expansions are expansions whose parent_id
    resolves, within the unfiltered input, to a record with an identical
    vector; expansions without a resolvable parent are retained. Filtering is
    idempotent and order independent.
    """
    dropped = {rule: 0 for rule in FILTER_RULES}
    keep = []
    for rec in records:
        rule = _first_failed_rule(rec, records, cfg)
        if rule is None:
            keep.append(rec)
        else:
            dropped[rule] += 1
    out = RecordSet(keep, records.registry)
    report = FilterReport(
        input_count=len(records),
        output_count=len(out),
        dropped={rule: n for rule, n in dropped.items() if n > 0},
    )
    return out, report


def _first_failed_rule(rec: Record, records: RecordSet, cfg: FilterConfig):
    if rec.year < cfg.year_min or (cfg.year_max is not None and rec.year > cfg.year_max):
        return RULE_YEAR
    if rec.num_ratings < cfg.min_ratings:
        return RULE_RATINGS
    if rec.popcount < cfg.min_mechanisms:
        return RULE_MECHANISMS
    if cfg.require_designer and rec.team_size < 1:
        return RULE_DESIGNER
    if cfg.drop_trivial_expansions and rec.is_expansion and rec.parent_id is not None:
        parent = records.by_id.get(rec.parent_id)
        if parent is not None and np.array_equal(parent.vector, rec.vector):
            return RULE_TRIVIAL_EXPANSION
    return None


def _format_number(x) -> str:
    """Canonical cell text: integers bare, floats via round-trip repr."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def write_records_csv(records: RecordSet, path) -> None:
    """Write records in the canonical corpus CSV schema (byte deterministic)."""
    registry = records.registry
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
        for rec in records:
            mechanisms = MECHANISM_SEPARATOR.join(registry.decode(rec.vector))
            writer.writerow(
                [
                    rec.id,
                    rec.year,
                    mechanisms,
                    int(rec.crowdfunded),
                    rec.genre,
                    rec.team_size,
                    int(rec.debut),
                    _format_number(rec.complexity),
                    _format_number(rec.playing_time),
                    rec.min_players,
                    rec.max_players,
                    rec.min_age,
                    int(rec.is_expansion),
                    int(rec.is_adult),
                    rec.num_ratings,
                    rec.parent_id or "",
                ]
            )


def write_registry(registry: FeatureRegistry, path) -> None:
    Path(path).write_text("\n".join(registry.names) + "\n", encoding="utf-8")
