"""The library surface the benchmark's Monte-Carlo workload reads, exercised as it runs.

bench/child.py builds one seed through the library and checks it by
iterating the RecordSet (Record.year, num_ratings, popcount, team_size) and
by ScoreTable.get. A seed that reports a problem, or a name it reads that is
gone, fails here instead of in every benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def child():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # child imports its siblings by bare name
        yield importlib.import_module("child")


@pytest.mark.parametrize("seed, boosted", [(0, True), (1, False)], ids=["boost", "null"])
def test_montecarlo_seed_checks_without_problems(child, seed, boosted):
    lib, models = child._library()
    outputs = child.one_seed(lib, models, seed, child.MC_BOOST if boosted else 0.0)
    problems, digest, verdicts = child.check_seed(seed, *outputs)
    assert problems == []
    assert len(digest) == 64 and set(verdicts) == {name for name, _ in models}
