"""Shared builders for compact in-memory corpora."""

import os

# one BLAS thread before numpy loads: the suite's fits (the Monte Carlo's are
# about 4,500 x 26) are too small to gain from a second thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from novascape.corpus import FeatureRegistry, Record, RecordSet  # noqa: E402


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


def make_recordset(rows, dimension=None, **overrides) -> RecordSet:
    """rows: iterable of (id, year, bits) triples."""
    rows = list(rows)
    if dimension is None:
        dimension = len(rows[0][2])
    registry = make_registry(dimension)
    records = [make_record(rid, year, bits, registry, **overrides) for rid, year, bits in rows]
    return RecordSet(records, registry)


@pytest.fixture
def registry4():
    return make_registry(4)


@pytest.fixture
def rng():
    return np.random.default_rng(20170501)
