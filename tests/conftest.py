"""Shared builders for compact in-memory corpora, and the Hamming and edge oracles the tests share."""

from novascape import default_one_blas_thread

# one BLAS thread before numpy loads: the suite's fits (the Monte Carlo's are
# about 4,500 x 26) are too small to gain from a second thread
default_one_blas_thread()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from novascape.corpus import CONTROLS, FeatureRegistry, Record, RecordSet, pack_rows  # noqa: E402
from novascape.errors import DimensionError  # noqa: E402
from novascape.landscape import _keys  # noqa: E402


def make_registry(dimension: int) -> FeatureRegistry:
    return FeatureRegistry(names=tuple(f"f{i}" for i in range(dimension)))


def make_record(rid, year, bits, registry, **overrides) -> Record:
    fields = dict(
        id=str(rid),
        year=year,
        vector=np.asarray(bits, dtype=np.uint8),
        crowdfunded=False,
        genre="Strategy Games",
        team_size=1,
        debut=True,
        complexity=2.0,
        playing_time=60.0,
        min_players=2,
        max_players=4,
        min_age=10,
        is_expansion=False,
        is_adult=False,
        num_ratings=100,
    )
    fields.update(overrides)
    return Record(**fields)


def recordset_of(records, registry) -> RecordSet:
    """The RecordSet of `records` (make_record outputs) in their order, built from their columns."""
    records = list(records)
    matrix = np.array([rec.vector for rec in records], dtype=np.uint8)
    columns = {name: [getattr(rec, name) for rec in records] for name, _ in CONTROLS}
    return RecordSet(registry, [rec.id for rec in records], [rec.year for rec in records],
                     matrix.reshape(len(records), registry.dimension), columns)


def make_recordset(rows, dimension=None, **overrides) -> RecordSet:
    """rows: iterable of (id, year, bits) triples."""
    rows = list(rows)
    if dimension is None:
        dimension = len(rows[0][2])
    registry = make_registry(dimension)
    return recordset_of((make_record(rid, year, bits, registry, **overrides) for rid, year, bits in rows),
                        registry)


def hamming(a, b) -> int:
    """Number of positions where two equal-length binary vectors differ."""
    va, vb = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if va.shape != vb.shape:
        raise DimensionError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return int(np.count_nonzero(va != vb))


def cross_hamming(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between row vectors of A (m,d) and B (k,d).

    The scoring kernel never forms this matrix; the tests compare it with
    this one. Uses popcount(a) + popcount(b) - 2 a.b; the dot products run
    through a float BLAS matmul whose intermediate values are small exact
    integers, so the int64 result is exact regardless of accumulation order.
    """
    if A.shape[1] != B.shape[1]:
        raise DimensionError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    pa = A.sum(axis=1, dtype=np.int64)
    pb = B.sum(axis=1, dtype=np.int64)
    cross = np.rint(A.astype(np.float64) @ B.T.astype(np.float64)).astype(np.int64)
    return pa[:, None] + pb[None, :] - 2 * cross


def xor_min_distances(focal: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Minimum Hamming distance from each 0/1 row of `focal` (m, d) to the rows of `window` (k, d).

    The XOR-popcount scan the package used before its float32 product: rows
    are packed into uint64 words, and 256 focal rows at a time sum their
    per-word popcounts into the smallest unsigned type that holds d. No
    floating point is involved, so it checks the product kernel from outside.
    """
    dimension = focal.shape[1]
    focal, window = pack_rows(focal), pack_rows(window)
    acc = np.min_scalar_type(dimension)
    columns = [np.ascontiguousarray(window[:, w]) for w in range(window.shape[1])]
    out = np.empty(len(focal), dtype=np.int64)
    for lo in range(0, len(focal), 256):
        block = focal[lo : lo + 256]
        dist = np.bitwise_count(block[:, :1] ^ columns[0]).astype(acc, copy=False)
        for w in range(1, len(columns)):
            dist += np.bitwise_count(block[:, w : w + 1] ^ columns[w])
        out[lo : lo + len(block)] = dist.min(axis=1)
    return out


def key_words(keys, dimension: int) -> np.ndarray:
    """Int keys in ascending order as (k, ceil(dimension / 64)) uint64 words,
    the layout landscape._distinct(pack_rows(...)) gives a snapshot's types in."""
    n_words = -(-dimension // 64)
    return np.array([[key >> (64 * w) & (2**64 - 1) for w in range(n_words)] for key in sorted(keys)],
                    dtype=np.uint64).reshape(len(keys), n_words)


def key_of(bits) -> int:
    """The landscape's int key of one binary vector: bit j of the key is feature j."""
    return _keys(pack_rows(np.asarray(bits, dtype=bool).reshape(1, -1)))[0]


def flip_edges_loop(keys, dimension: int) -> tuple:
    """Sorted Hamming-1 pairs (u, v), u < v, among int keys, from a set probe per
    key and bit: the loop landscape.flip_edges's array lookups are checked against."""
    key_set = set(keys)
    edges = []
    for key in keys:
        for j in range(dimension):
            other = key ^ (1 << j)
            if other > key and other in key_set:
                edges.append((key, other))
    return tuple(sorted(edges))


@pytest.fixture
def registry4():
    return make_registry(4)


@pytest.fixture
def rng():
    return np.random.default_rng(20170501)
