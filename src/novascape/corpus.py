"""Corpus ingestion: feature registry, record parsing, and the filtering protocol.

Products are described by fixed-width binary feature vectors ("mechanism
vectors" for board games). The registry defines the vector dimensionality and
the bit order; records are parsed from a flat CSV schema, each column through
its type's row of _KINDS, (dtype, reader), with _rejection naming a rejected
cell, and filtered down to an analysis set with explicit, reported rules.
read_blocks reads back every CSV table the package reads, the corpus and
scores.csv, as blocks of row lengths and columns by header name, and is the
only place a row read is padded or transposed; write_csv_columns writes
every one it produces, a number column's text made once per distinct value.
"""

import csv
import itertools
import json
from dataclasses import dataclass, make_dataclass
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Optional

import numpy as np

from .errors import (
    ConfigError,
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
        # write_registry writes a name per line; load_registry reads utf-8-sig text, as JSON if it opens with "["
        if self.names[0].startswith("["):
            raise ParseError(f"first feature name {self.names[0]!r} starts with '['")
        seen = set()
        for name in self.names:
            if not name:
                raise ParseError("empty feature name in registry")
            # the corpus parser splits on the separator and strips each name,
            # so no mechanisms cell could ever set such a feature's bit
            if MECHANISM_SEPARATOR in name or name != name.strip():
                raise ParseError(f"feature name {name!r} has a {MECHANISM_SEPARATOR!r} or edge whitespace")
            if name.splitlines() != [name] or name.startswith("\ufeff"):
                raise ParseError(f"feature name {name!r} has a line break or a leading byte order mark")
            if name in seen:
                raise DuplicateFeature(f"duplicate feature name {name!r}")
            seen.add(name)

    @property
    def dimension(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict:
        return {name: j for j, name in enumerate(self.names)}


def load_registry(path) -> FeatureRegistry:
    """Load a registry from a text file (one name per line) or a JSON array; a UTF-8 BOM is skipped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if text.lstrip().startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON registry: {exc}") from exc
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise ParseError(f"{path}: JSON registry must be an array of strings")
        names = entries
    else:
        lines = text.splitlines()
        if lines and not lines[-1].strip():
            lines.pop()  # a last line of whitespace only
        names = [line.strip() for line in lines]
        if "" in names:
            raise ParseError(f"{path}: blank feature name at line {names.index('') + 1}")
    if not names:
        raise EmptyRegistry(f"{path}: registry file is empty")
    return FeatureRegistry(tuple(names))


def canonical_registry() -> FeatureRegistry:
    """The 51-mechanism registry used by the 2017 BoardGameGeek snapshot."""
    with resources.as_file(resources.files("novascape.data") / "mechanisms_bgg_2017.txt") as path:
        return load_registry(path)


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
    row. Iteration builds Record views with Python scalars. Safe to share
    read-only across threads.
    """

    def __init__(self, registry: FeatureRegistry, ids, years, matrix, columns: Mapping):
        """Records from parallel columns; `columns` maps every CONTROLS field to its values."""
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
        self.row_of = dict(zip(self.ids, range(len(self.ids))))
        if len(self.row_of) < len(self.ids):  # name the first repeat in row order
            seen = {}
            first = next(rid for i, rid in enumerate(self.ids) if seen.setdefault(rid, i) != i)
            raise DuplicateId(f"duplicate record id {first!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Record]:
        controls = (column.tolist() for column in self.columns.values())
        return (Record(*row) for row in zip(self.ids, self.years.tolist(), self.matrix, *controls))

    def take(self, rows: np.ndarray) -> "RecordSet":
        """The records at the given row indices, in that order."""
        return RecordSet(
            self.registry, map(self.ids.__getitem__, rows.tolist()), self.years[rows], self.matrix[rows],
            {name: column[rows] for name, column in self.columns.items()},
        )

    @cached_property
    def year_rows(self) -> dict:
        """Map year -> sorted row indices of that year's records, years ascending (np.unique imports numpy.ma)."""
        return {y: np.flatnonzero(self.years == y) for y in sorted(set(self.years.tolist()))}


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
        for name in ("min_mechanisms", "min_ratings"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


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


def _number_cells(values: np.ndarray) -> np.ndarray:
    """Each number's canonical cell text, made once per distinct value: bools
    as 0 and 1, integers as they are, and floats as integers where whole and
    below 1e15 in magnitude, else as their round-trip repr (np.unique merges
    -0.0 with 0.0, which both write as 0, and every NaN, which writes as nan)."""
    distinct, inverse = np.unique(values, return_inverse=True)  # return_inverse keeps numpy.ma unloaded
    if distinct.dtype.kind == "f":
        whole = ((distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e15)).tolist()
        texts = [str(int(v)) if w else repr(v) for v, w in zip(distinct.tolist(), whole)]
    else:
        texts = list(map(str, distinct.astype(np.int64).tolist()))
    return np.array(texts, dtype=object)[inverse]


def _raise_first(checks: list) -> None:
    """Raise the error of the first check that flags the smallest flagged row.

    Each check is (row mask, error): error(i) returns row index i's exception.
    """
    flagged = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if flagged:
        i, k = min(flagged)
        raise checks[k][1](i)


# per CONTROLS type: column dtype, and the reader mapped over a column: a
# builtin, never numpy's string casts, which accept a different set of strings
_KINDS = {
    bool: (bool, {"0": False, "1": True}.__getitem__),
    int: (np.int64, int),
    float: (np.float64, float),
    str: (object, str),
    Optional[str]: (object, lambda value: value or None),
}


def _rejection(value: str, kind) -> Optional[str]:
    """Why `kind`'s rule rejects a cell, as the message's words before the cell, or None if it reads."""
    if kind is bool:
        return None if value in ("0", "1") else "must be 0 or 1, got"
    if kind is int:
        try:
            return None if -(2**63) <= int(value) < 2**63 else "is outside the int64 range:"
        except ValueError:
            return "is not an integer:"
    if kind is float:
        try:
            return None if np.isfinite(float(value)) else "is not finite:"
        except ValueError:
            return "is not a number:"
    return None


def _column_check(cells, kind, column: str, first_row: int) -> tuple:
    """A sequence of cells as its values, and its check: the cells `kind`'s rule rejects, and their error.

    The kind's reader runs over the whole column; only when a cell fails does
    the column go cell by cell through _rejection, with 0 standing in for each
    rejected cell.
    """
    dtype, read = _KINDS[kind]
    try:
        values = np.fromiter(map(read, cells), dtype, count=len(cells))
        bad = ~np.isfinite(values) if kind is float else np.zeros(len(cells), dtype=bool)
    except (KeyError, ValueError, OverflowError):  # not 0/1, not a number, or outside int64
        bad = np.fromiter((_rejection(value, kind) is not None for value in cells), dtype=bool, count=len(cells))
        values = np.fromiter((0 if b else read(value) for value, b in zip(cells, bad.tolist())),
                             dtype, count=len(cells))
    return values, (bad, lambda i: ParseError(
        f"row {first_row + i}: column {column!r} {_rejection(cells[i], kind)} {cells[i]!r}"))


def read_blocks(path, required) -> Iterator[tuple]:
    """A CSV table read back, as (header, first row number, lengths, cells) per
    block of PARSE_BLOCK_ROWS non-blank rows: each row's cell count as read,
    and each header name's column (a repeated name's last, as csv.DictReader
    reads it), every row short of the header padded with "" first.

    A UTF-8 byte order mark and blank rows are skipped; rows are numbered from
    2, counting non-blank rows only. A header missing a `required` column
    raises SchemaError. The rows read before a reader error come out before
    it is raised, so a bad row ahead of the damage is still the one reported.
    """
    def shaped(first_row, block):
        lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
        for i in np.flatnonzero(lengths < len(header)).tolist():
            block[i] += [""] * (len(header) - len(block[i]))
        return header, first_row, lengths, dict(zip(header, zip(*block)))

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        rows, first_row = filter(None, reader), 2
        while True:
            block = []
            try:
                block.extend(itertools.islice(rows, PARSE_BLOCK_ROWS))  # keeps the rows read before a failure
            except (csv.Error, UnicodeDecodeError):
                if block:
                    yield shaped(first_row, block)
                raise
            if not block:
                return
            yield shaped(first_row, block)
            first_row += len(block)


def parse_records(path, registry: FeatureRegistry) -> RecordSet:
    """Parse the corpus CSV against a registry; row order is preserved.

    Rows with missing or out-of-range values are rejected outright (no
    imputation); downstream analyses assume complete cases. Each block of
    read_blocks is checked column by column. The error raised is that of the
    smallest failing row, from the first check it fails in `_parse_block`'s
    order; a repeated id is reported only once every row has parsed.
    """
    ids, years = [], [np.empty(0, dtype=np.int64)]
    matrices = [np.empty((0, registry.dimension), dtype=np.uint8)]
    columns = {name: [np.empty(0, dtype=_KINDS[kind][0])] for name, kind in CONTROLS}
    # starmap keeps no block it has passed on, so one block of rows is held at a time
    for block_ids, block_years, matrix, values in itertools.starmap(
            partial(_parse_block, registry=registry), read_blocks(path, REQUIRED_COLUMNS)):
        ids.extend(block_ids)
        years.append(block_years)
        matrices.append(matrix)
        for name, column in values.items():
            columns[name].append(column)
    return RecordSet(registry, ids, np.concatenate(years), np.concatenate(matrices),
                     {name: np.concatenate(parts) for name, parts in columns.items()})


def _parse_block(header: list, first_row: int, lengths: np.ndarray, cells: dict, registry: FeatureRegistry) -> tuple:
    """Ids, years, vector matrix and CONTROLS columns of one read_blocks block; raises its first row's error.

    Every check is a (row mask, error) pair in one list, in the order a row is
    checked: short row, unknown feature, year, each CONTROLS column, then the
    value ranges. A row is short if it ends before a required name's last column.
    """
    n = len(lengths)
    required = max(i for i, name in enumerate(header) if name in REQUIRED_COLUMNS)

    def error(message, *values):
        """Row index i's ParseError: `message` formatted with each of `values` at i."""
        return lambda i: ParseError(f"row {first_row + i}: " + message.format(*(v.item(i) for v in values)))

    checks = [(lengths <= required, error("short row"))]

    mechanisms = cells["mechanisms"]
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
    unknown = np.zeros(n, dtype=bool)
    unknown[row[feature == -2]] = True

    def unknown_feature(i):
        stripped = map(str.strip, mechanisms[i].split(MECHANISM_SEPARATOR))
        return UnknownFeature(first_row + i, next(name for name in stripped if name not in codes))

    checks.append((unknown, unknown_feature))
    values = {}
    for name, kind in (("year", int),) + CONTROLS:
        values[name], check = _column_check(cells.get(name, ("",) * n), kind, name, first_row)
        checks.append(check)
    ids = cells["id"]
    complexity, min_age, lo, hi = (values[c] for c in ("complexity", "min_age", "min_players", "max_players"))
    checks += [
        (np.fromiter(map("".__eq__, ids), dtype=bool, count=n), error("empty id")),
        (~((0.0 <= complexity) & (complexity <= 5.0)), error("complexity {} outside [0, 5]", complexity)),
        (~((0 <= min_age) & (min_age <= 25)), error("min_age {} outside [0, 25]", min_age)),
        (values["playing_time"] < 0, error("negative playing_time")),
        (values["num_ratings"] < 0, error("negative num_ratings")),
        (values["team_size"] < 0, error("negative team_size")),
        ((hi > 0) & (lo > hi), error("min_players {} > max_players {}", lo, hi)),
    ]
    _raise_first(checks)
    return ids, values.pop("year"), matrix, values


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
    controls = [column.tolist() if column.dtype == object else column for column in records.columns.values()]
    write_csv_columns(path, ("id", "year", "mechanisms") + tuple(name for name, _ in CONTROLS),
                      [records.ids, records.years, mechanisms, *controls])


_QUOTED_CHARS = (",", '"', "\r", "\n")


def _text_cells(cells) -> list:
    """A text column's cells as written: None as an empty cell, and a cell
    holding a comma, quote, CR or LF in quotes, its quotes doubled."""
    try:
        text = "".join(cells)
    except TypeError:  # None or numbers among the text
        cells = ["" if cell is None else str(cell) for cell in cells]
        text = "".join(cells)
    if not any(char in text for char in _QUOTED_CHARS):
        return cells
    return list(map(_quoted, cells))


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(char in cell for char in _QUOTED_CHARS) else cell


def write_csv_columns(path, header, columns) -> None:
    """Write a CSV table of two or more columns, given column by column.

    A numpy array holds numbers, whose text _number_cells makes once per
    distinct value. A list or tuple holds cells written as str() writes them,
    None as an empty cell: it is scanned once, and only the cells that need
    quotes get them. Each line is then one ",".join of a row's text. The
    bytes are csv.writer(lineterminator="\n")'s, except that a cell holding a
    CR is quoted too, where Python 3.11's writer leaves it bare and so
    unreadable.
    """
    assert len(header) == len(columns) > 1
    assert all(isinstance(c, (list, tuple, np.ndarray)) for c in columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_text_cells(list(header))) + "\n")
        cells = (_number_cells(c).tolist() if isinstance(c, np.ndarray) else _text_cells(c) for c in columns)
        for line in map(",".join, zip(*cells)):
            fh.write(line + "\n")


def write_registry(registry: FeatureRegistry, path) -> None:
    Path(path).write_text("\n".join(registry.names) + "\n", encoding="utf-8")
