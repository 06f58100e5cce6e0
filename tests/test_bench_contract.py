"""The library surface the benchmark reads, exercised as it runs.

bench/child.py builds one Monte-Carlo seed through the library and checks it
by iterating the RecordSet (Record.year, num_ratings, popcount, team_size)
and by ScoreTable.get. Its traced CLI run wraps novascape.cli's functions by
name (bench/spans.py LAYERS and child.CLI_STAGES). A seed that reports a
problem, or a name either route reads that is gone, fails here instead of in
every benchmark run.
"""

import importlib
import json
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


@pytest.fixture(scope="module")
def spans(child):
    return importlib.import_module("spans")  # child imported it from the same path


def test_traced_report_covers_every_layer(child, spans, tmp_path, monkeypatch):
    """Every name the benchmark wraps exists on novascape.cli, and a traced
    report gives the layer counts the benchmark reads: a wrapper on a name
    that is gone would be skipped, and its metrics would read zero."""
    from novascape import cli

    missing = [n for n in [*spans.LAYERS, *child.CLI_STAGES] if not hasattr(cli, n)]
    assert not missing, f"bench wraps names novascape.cli no longer has: {missing}"
    tracer = spans.Tracer(run=0)
    for name in [*spans.LAYERS, *child.CLI_STAGES]:
        monkeypatch.setattr(cli, name, getattr(cli, name))  # restored after the test
    spans.wrap_layers(tracer, cli, list(spans.LAYERS))
    for attr, name in child.CLI_STAGES.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    monkeypatch.setitem(cli.COMMANDS, "report", cli.cmd_report)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"),
        "landscape": {"snapshot_years": [2011], "min_type_count": 4},
        "synth": {"dimension": 12, "year_start": 2006, "year_end": 2011, "games_per_year": 150},
    }))
    assert cli.main(["report", "--config", str(config)]) == 0
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["landscape.layout.calls"] >= 1
    assert metrics["stats.fit.n_iter"] > 0
    assert metrics["metrics.score.pairs"] > 0
    assert all(metrics[f"{stage}.s"] > 0 for stage in spans.STAGES)
