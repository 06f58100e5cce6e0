"""Corpus ingestion: feature registry, record parsing, and the filtering protocol.

Products are described by fixed-width binary feature vectors ("mechanism
vectors" for board games). The registry defines the vector dimensionality and
the bit order; records are parsed from a flat CSV schema and filtered down to
an analysis set with explicit, reported rules.
"""

import csv
import itertools
import json
from dataclasses import dataclass, make_dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

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

# The record schema after id, year and the mechanism vector: each control
# field and its type, in CSV order. Record, the RecordSet columns, the parser,
# the writer and the stats join all read it; parent_id alone may be absent.
CONTROLS = (
    ("crowdfunded", bool),
    ("genre", str),
    ("team_size", int),
    ("debut", bool),
    ("complexity", float),
    ("playing_time", float),
    ("min_players", int),
    ("max_players", int),
    ("min_age", int),
    ("is_expansion", bool),
    ("is_adult", bool),
    ("num_ratings", int),
    ("parent_id", Optional[str]),
)
OPTIONAL_COLUMNS = tuple(name for name, kind in CONTROLS if kind == Optional[str])
REQUIRED_COLUMNS = ("id", "year", "mechanisms") + tuple(
    name for name, _ in CONTROLS if name not in OPTIONAL_COLUMNS
)

MECHANISM_SEPARATOR = ";"

# Non-blank corpus rows parsed per block: enough to amortise the per-block
# array work, few enough that the row lists stay small next to the columns.
PARSE_BLOCK_ROWS = 4096

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
    """Load a registry from a text file (one name per line) or a JSON array; a UTF-8 BOM is skipped."""
    text = Path(path).read_text(encoding="utf-8-sig")
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


# One product: identity, publication year, feature vector, and the CONTROLS
# fields. A RecordSet builds these views on demand from its columns.
Record = make_dataclass(
    "Record",
    [("id", str), ("year", int), ("vector", np.ndarray)]
    + [(name, kind, None) if name in OPTIONAL_COLUMNS else (name, kind) for name, kind in CONTROLS],
    namespace={"__module__": __name__, "popcount": property(lambda self: int(self.vector.sum()))},
    frozen=True,
    eq=False,
)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows (k, d) into (k, ceil(d/64)) uint64 words; bit j is feature j, padding bits 0."""
    k, d = matrix.shape
    packed = np.zeros((k, -(-d // 64) * 8), dtype=np.uint8)
    packed[:, : -(-d // 8)] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.uint64)


class RecordSet:
    """Immutable collection of records sharing one registry, held as columns.

    `ids`, `years`, the (n, dimension) uint8 `matrix` and `columns` (one
    typed array per CONTROLS field) share row order; `row_of` maps id to
    row. Indexing and iteration build Record views with Python scalars.
    Safe to share read-only across threads.
    """

    def __init__(self, records: Iterable[Record], registry: FeatureRegistry):
        records = tuple(records)
        for rec in records:
            if len(rec.vector) != registry.dimension:
                raise DimensionError(
                    f"record {rec.id}: vector length {len(rec.vector)} != dimension {registry.dimension}"
                )
        matrix = np.array([rec.vector for rec in records], dtype=np.uint8)
        columns = {name: [getattr(rec, name) for rec in records] for name, _ in CONTROLS}
        self._assign(registry, [rec.id for rec in records], [rec.year for rec in records],
                     matrix.reshape(len(records), registry.dimension), columns)

    @classmethod
    def from_columns(cls, registry: FeatureRegistry, ids, years, matrix, columns: Mapping) -> "RecordSet":
        """Records from parallel columns; `columns` maps every CONTROLS field to its values."""
        out = cls.__new__(cls)
        out._assign(registry, ids, years, matrix, columns)
        return out

    def _assign(self, registry, ids, years, matrix, columns) -> None:
        self.registry = registry
        self.ids = tuple(ids)
        self.years = np.asarray(years, dtype=np.int64)
        self.matrix = np.asarray(matrix, dtype=np.uint8)
        if self.matrix.shape != (len(self.ids), registry.dimension):
            raise DimensionError(
                f"vector matrix shape {self.matrix.shape} != ({len(self.ids)}, {registry.dimension})"
            )
        self.columns = {
            name: np.asarray(columns[name], dtype=_KINDS[kind][0])
            for name, kind in CONTROLS
        }
        self.row_of = {}
        for i, rid in enumerate(self.ids):
            if self.row_of.setdefault(rid, i) != i:
                raise DuplicateId(f"duplicate record id {rid!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Record]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Record:
        controls = {name: column.item(i) for name, column in self.columns.items()}
        return Record(self.ids[i], self.years.item(i), self.matrix[i], **controls)

    @cached_property
    def records(self) -> tuple:
        """Every row as a Record view, built on first use."""
        return tuple(self)

    def take(self, rows: np.ndarray) -> "RecordSet":
        """The records at the given row indices, in that order."""
        return RecordSet.from_columns(
            self.registry, [self.ids[i] for i in rows.tolist()], self.years[rows], self.matrix[rows],
            {name: column[rows] for name, column in self.columns.items()},
        )

    @cached_property
    def year_rows(self) -> dict:
        """Map year -> sorted row indices of records published that year."""
        years, first = np.unique(self.years, return_index=True)
        return {int(y): np.flatnonzero(self.years == y) for y in years[np.argsort(first)]}

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
        out = int(value)
    except (TypeError, ValueError):
        raise ParseError(f"row {row}: column {column!r} is not an integer: {value!r}")
    if not -(2**63) <= out < 2**63:
        raise ParseError(f"row {row}: column {column!r} is outside the int64 range: {value!r}")
    return out


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


def _format_number(x) -> str:
    """Canonical cell text: integers bare, floats via round-trip repr."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


# Column converters: a sequence of cells in, (values array, mask of the cells
# the matching _parse_* rejects) out. They call the builtins the cell parsers
# call, never numpy's string casts, which accept a different set of strings.

def _cellwise(parse, cells, dtype) -> tuple:
    """Cell by cell through `parse`; 0 stands in for each rejected cell."""
    values, bad = [], np.zeros(len(cells), dtype=bool)
    for i, value in enumerate(cells):
        try:
            values.append(parse(value, 0, ""))
        except ParseError:
            values.append(0)
            bad[i] = True
    return np.array(values, dtype=dtype), bad


def _int_column(cells) -> tuple:
    try:
        return np.array(list(map(int, cells)), dtype=np.int64), np.zeros(len(cells), dtype=bool)
    except (ValueError, OverflowError):  # not an integer, or outside int64
        return _cellwise(_parse_int, cells, np.int64)


def _float_column(cells) -> tuple:
    try:
        values = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return _cellwise(_parse_float, cells, np.float64)
    return values, ~np.isfinite(values)


_BOOL_CODES = {"0": 0, "1": 1}


def _bool_column(cells) -> tuple:
    codes = np.fromiter(map(_BOOL_CODES.get, cells, itertools.repeat(2)), dtype=np.int8, count=len(cells))
    return codes == 1, codes == 2


def _str_column(cells) -> tuple:
    return np.array(cells, dtype=object), np.zeros(len(cells), dtype=bool)


def _optional_str_column(cells) -> tuple:
    return _str_column([value or None for value in cells])


def _raise_first(bad: np.ndarray, check) -> None:
    """If any row is flagged, call check(i) on the first; it raises that row's error."""
    if bad.any():
        i = int(bad.argmax())
        check(i)
        raise AssertionError(f"row index {i} was flagged but passes the row checks")


# per CONTROLS type: column dtype, CSV cell parser, CSV cell formatter, column converter
_KINDS = {
    bool: (bool, _parse_bool, int, _bool_column),
    int: (np.int64, _parse_int, int, _int_column),
    float: (np.float64, _parse_float, _format_number, _float_column),
    str: (object, lambda value, row, column: value, str, _str_column),
    Optional[str]: (object, lambda value, row, column: value or None, lambda value: value or "",
                    _optional_str_column),
}


def parse_records(path, registry: FeatureRegistry) -> RecordSet:
    """Parse the corpus CSV against a registry; row order is preserved.

    Rows with missing or out-of-range values are rejected outright (no
    imputation); downstream analyses assume complete cases. Non-blank rows
    are read PARSE_BLOCK_ROWS at a time and each block is checked column by
    column. The error raised is that of the smallest failing row, from the
    first check it fails in `_check_row`'s order; a repeated id is reported
    only once every row has parsed. A UTF-8 byte order mark is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        # a repeated name reads its last column, as csv.DictReader does
        position = {name: i for i, name in enumerate(header)}
        ids, years = [], [np.empty(0, dtype=np.int64)]
        matrices = [np.empty((0, registry.dimension), dtype=np.uint8)]
        columns = {name: [np.empty(0, dtype=_KINDS[kind][0])] for name, kind in CONTROLS}
        # rows are numbered 1-based after the header, counting non-blank rows only
        first_row = 2
        for rows in _row_blocks(reader):
            block_ids, block_years, matrix, values = _parse_block(rows, position, registry, first_row)
            ids.extend(block_ids)
            years.append(block_years)
            matrices.append(matrix)
            for name, column in values.items():
                columns[name].append(column)
            first_row += len(block_ids)
    return RecordSet.from_columns(registry, ids, np.concatenate(years), np.concatenate(matrices),
                                  {name: np.concatenate(parts) for name, parts in columns.items()})


def _row_blocks(reader) -> Iterator[list]:
    """The reader's non-blank rows in lists of PARSE_BLOCK_ROWS.

    The rows read before a reader error come out before it is raised, so a
    bad row ahead of the damage is still the one reported.
    """
    rows = filter(None, reader)
    while True:
        block = []
        try:
            block.extend(itertools.islice(rows, PARSE_BLOCK_ROWS))  # keeps the rows read before a failure
        except (csv.Error, UnicodeDecodeError):
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def _parse_block(rows: list, position: dict, registry: FeatureRegistry, first_row: int) -> tuple:
    """Ids, years, vector matrix and CONTROLS columns of one block; raises its first row's error."""
    n = len(rows)
    required = max(position[c] for c in REQUIRED_COLUMNS)
    width = 1 + max(position[c] for c in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if c in position)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    bad = lengths <= required  # short row
    # pad short rows so one transpose holds every column read; an absent
    # parent_id reads as "" and so as None, and a short row fails anyway
    for i in np.flatnonzero(lengths < width).tolist():
        rows[i] = rows[i] + [""] * (width - len(rows[i]))
    cells = list(zip(*rows))
    del rows

    def column(name):
        return cells[position[name]] if name in position else ("",) * n

    mechanisms = column("mechanisms")
    parts = np.fromiter(map(str.count, mechanisms, itertools.repeat(MECHANISM_SEPARATOR)),
                        dtype=np.intp, count=n) + 1
    # one code per separated name: its feature index, -1 for an empty name, -2 for an unknown one
    codes = {**registry._index, "": -1}
    names = MECHANISM_SEPARATOR.join(mechanisms).split(MECHANISM_SEPARATOR)
    feature = np.fromiter(map(codes.get, map(str.strip, names), itertools.repeat(-2)),
                          dtype=np.intp, count=len(names))
    row = np.repeat(np.arange(n), parts)
    matrix = np.zeros((n, registry.dimension), dtype=np.uint8)
    matrix[row[feature >= 0], feature[feature >= 0]] = 1
    bad[row[feature == -2]] = True  # unknown feature

    years, bad_year = _int_column(column("year"))
    bad |= bad_year
    values = {}
    for name, kind in CONTROLS:
        values[name], bad_value = _KINDS[kind][3](column(name))
        bad |= bad_value
    ids = column("id")
    bad |= _failed_ranges(ids, values)

    def check(i):
        def cell(name):  # a csv.DictReader row's get: None where absent or past the row's end
            at = position.get(name)
            return None if at is None or at >= lengths[i] else cells[at][i]

        _check_row(cell, first_row + i, registry)

    _raise_first(bad, check)
    return ids, years, matrix, values


def _check_row(cell, row_no: int, registry: FeatureRegistry) -> None:
    """Every check of one row in order; `cell(name)` is its text, None where absent or short."""
    if any(cell(c) is None for c in REQUIRED_COLUMNS):
        raise ParseError(f"row {row_no}: short row")
    mech_field = cell("mechanisms").strip()
    mechanisms = [m.strip() for m in mech_field.split(MECHANISM_SEPARATOR) if m.strip()] if mech_field else []
    registry.encode(mechanisms, row=row_no)
    _parse_int(cell("year"), row_no, "year")
    values = {name: _KINDS[kind][1](cell(name), row_no, name) for name, kind in CONTROLS}
    _validate_row(cell("id"), values, row_no)


def _failed_ranges(ids, v: dict) -> np.ndarray:
    """Mask of the rows _validate_row rejects."""
    return (
        np.fromiter(map("".__eq__, ids), dtype=bool, count=len(ids))
        | ~((0.0 <= v["complexity"]) & (v["complexity"] <= 5.0))
        | ~((0 <= v["min_age"]) & (v["min_age"] <= 25))
        | (v["playing_time"] < 0)
        | (v["num_ratings"] < 0)
        | (v["team_size"] < 0)
        | ((v["max_players"] > 0) & (v["min_players"] > v["max_players"]))
    )


def _validate_row(rid: str, v: dict, row_no: int) -> None:
    if not rid:
        raise ParseError(f"row {row_no}: empty id")
    if not 0.0 <= v["complexity"] <= 5.0:
        raise ParseError(f"row {row_no}: complexity {v['complexity']} outside [0, 5]")
    if not 0 <= v["min_age"] <= 25:
        raise ParseError(f"row {row_no}: min_age {v['min_age']} outside [0, 25]")
    if v["playing_time"] < 0:
        raise ParseError(f"row {row_no}: negative playing_time")
    if v["num_ratings"] < 0:
        raise ParseError(f"row {row_no}: negative num_ratings")
    if v["team_size"] < 0:
        raise ParseError(f"row {row_no}: negative team_size")
    if v["max_players"] > 0 and v["min_players"] > v["max_players"]:
        raise ParseError(f"row {row_no}: min_players {v['min_players']} > max_players {v['max_players']}")


def apply_filters(records: RecordSet, cfg: FilterConfig):
    """Apply the filtering protocol; returns (filtered RecordSet, FilterReport).

    Rules run in FILTER_RULES order and each dropped record counts against the
    first rule it fails. Trivial expansions are expansions whose parent_id
    resolves, within the unfiltered input, to a record with an identical
    vector; expansions without a resolvable parent are retained. Filtering is
    idempotent and order independent.
    """
    years, columns = records.years, records.columns
    year_max = np.inf if cfg.year_max is None else cfg.year_max
    fails = {
        RULE_YEAR: (years < cfg.year_min) | (years > year_max),
        RULE_RATINGS: columns["num_ratings"] < cfg.min_ratings,
        RULE_MECHANISMS: records.matrix.sum(axis=1) < cfg.min_mechanisms,
        RULE_DESIGNER: (columns["team_size"] < 1) & bool(cfg.require_designer),
        RULE_TRIVIAL_EXPANSION: _trivial_expansions(records) & bool(cfg.drop_trivial_expansions),
    }
    keep = np.ones(len(records), dtype=bool)
    dropped = {}
    for rule in FILTER_RULES:
        hit = keep & fails[rule]
        if hit.any():
            dropped[rule] = int(hit.sum())
        keep &= ~hit
    out = records.take(np.flatnonzero(keep))
    return out, FilterReport(input_count=len(records), output_count=len(out), dropped=dropped)


def _trivial_expansions(records: RecordSet) -> np.ndarray:
    """Expansions whose parent_id names a record of the set with an identical vector."""
    rows = np.flatnonzero(records.columns["is_expansion"])
    # each parent's row (-1 for an absent or unknown parent_id), then one gather of both vectors
    parents = np.fromiter(map(records.row_of.get, records.columns["parent_id"][rows].tolist(),
                              itertools.repeat(-1)), dtype=np.intp, count=len(rows))
    out = np.zeros(len(records), dtype=bool)
    out[rows] = (parents >= 0) & (records.matrix[parents] == records.matrix[rows]).all(axis=1)
    return out


def write_records_csv(records: RecordSet, path) -> None:
    """Write records in the canonical corpus CSV schema (byte deterministic)."""
    # every set bit in row-major order, so each row's names are one slice in registry order
    rows, features = np.nonzero(records.matrix)
    names = np.array(records.registry.names, dtype=object)[features].tolist()
    ends = np.searchsorted(rows, np.arange(1, len(records) + 1)).tolist()
    mechanisms = [MECHANISM_SEPARATOR.join(names[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    cells = [map(_KINDS[kind][2], records.columns[name].tolist()) for name, kind in CONTROLS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "year", "mechanisms") + tuple(name for name, _ in CONTROLS))
        writer.writerows(zip(records.ids, records.years.tolist(), mechanisms, *cells))


def write_registry(registry: FeatureRegistry, path) -> None:
    Path(path).write_text("\n".join(registry.names) + "\n", encoding="utf-8")
