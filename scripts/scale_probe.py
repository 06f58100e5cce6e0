"""Time `score_corpus` on synthetic corpora of growing size, the Kamada-Kawai
`layout` of growing landscapes, `read_scores_csv`, the corpus and scores.csv
writers, or a whole `report`, one fresh process per size.

Each size is a synthetic corpus (d=51, 2006-2015, a tenth of the records per
year, novelty boost 2.0, seed 0) scored with spans 1, 2 and 5 and resonance
up to 2015. Generation is not timed. Each size prints one JSON line:

  records      corpus size
  pairs        (focal, comparison) record pairs the novelty scan compares:
               each record against every record of the 5 years before its own
  wall_s       score_corpus wall time
  pairs_per_s  pairs / wall_s
  max_rss_mb   the process's peak resident set (ru_maxrss)

With --layout, each size is instead a min_type_count: the 2015 snapshot of
the filtered synthetic corpus (d=16, 2006-2015, 500 records a year, seed 0)
plotting the types of at least that many records is laid out, and each
prints one JSON line:

  min_type_count  the snapshot's plotted-type threshold
  nodes           positioned types (the main component)
  hops_peak_mb    tracemalloc peak of the layout's first phase alone, the main
                  component and its hop matrix (_main_component), in MiB;
                  traced in its own call before the timed layouts
  wall_s          median wall time of three untraced layouts, timed after
                  one untimed warm-up layout
  wall_spread_s   max minus min of those three wall times
  peak_mb         tracemalloc peak of one more layout, traced, in MiB

With --read, each size is again a synthetic corpus of that many records,
scored with spans 1, 2 and 5 and written to a temporary scores.csv (neither
timed), which read_scores_csv then reads back. Each size prints one JSON line:

  records  corpus size
  rows     score rows in the file
  file_mb  the file's size in MiB
  wall_s   median wall time of three untraced reads
  peak_mb  tracemalloc peak of one more read, traced, in MiB

With --write, each size is again a synthetic corpus of that many records,
scored with spans 1, 2 and 5 (not timed); the corpus is written with
write_records_csv and the table with ScoreTable.write_csv to a temporary
directory. Each size prints one JSON line:

  records         corpus size
  rows            score rows written
  corpus_wall_s   median wall time of three untraced corpus writes
  corpus_peak_mb  tracemalloc peak of one more corpus write, traced, in MiB
  scores_wall_s   median wall time of three untraced scores.csv writes
  scores_peak_mb  tracemalloc peak of one more scores.csv write, traced, in MiB

With --report, each size is a corpus CSV of that many records from the
benchmark's own generator (bench/inputs.py, a tenth of the records a year,
seed 0; bench/ is only read), with its registry and its report-large config,
written to a temporary directory (not timed). `novascape report` then runs
on it in the same process. Each size prints one JSON line:

  records      corpus size
  parse_s      wall time of parse_records on the corpus CSV
  ingest_s     wall time of the ingest stage after the parse: the filters
               and the cache writes
  score_s      wall time of the score stage, scores.csv written
  stats_s      wall time of the stats stage
  landscape_s  wall time of the landscape stage: build, layout and exports
  exit         the report's exit code
  max_rss_mb   the process's peak resident set (ru_maxrss), input
               generation included

BLAS runs on one thread unless the environment sets the thread count, as in
the tests and the benchmark. The package is imported from this checkout's src/.

Usage:
    python3 scripts/scale_probe.py [--sizes 20000 80000 200000]
    python3 scripts/scale_probe.py --layout 3 2 1
    python3 scripts/scale_probe.py --read 20000 100000
    python3 scripts/scale_probe.py --write 20000 200000
    python3 scripts/scale_probe.py --report 20000 100000
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS = (1, 2, 5)
YEARS = (2006, 2015)


def synthetic(records: int):
    """The probe's d=51 corpus of `records` records, a tenth a year."""
    from novascape.synth import SynthConfig, generate_corpus

    return generate_corpus(SynthConfig(dimension=51, year_start=YEARS[0], year_end=YEARS[1],
                                       games_per_year=records // (YEARS[1] - YEARS[0] + 1),
                                       novelty_boost=2.0, seed=0))


def timed(call) -> tuple:
    """The sorted wall times of three untraced calls, and the tracemalloc peak of one more, in MiB."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return sorted(walls), round(peak / 2**20, 2)


def probe(records: int) -> dict:
    from novascape.metrics import score_corpus

    corpus = synthetic(records)
    sizes = {year: len(rows) for year, rows in corpus.year_rows.items()}
    pairs = sum(n * sizes.get(y, 0) for year, n in sizes.items() for y in range(year - max(SPANS), year))
    start = time.perf_counter()
    score_corpus(corpus, SPANS, last_complete_year=YEARS[1])
    wall = time.perf_counter() - start
    return {"records": len(corpus), "pairs": pairs, "wall_s": round(wall, 4), "pairs_per_s": round(pairs / wall),
            "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def probe_layout(min_type_count: int) -> dict:
    from novascape.corpus import FilterConfig, apply_filters
    from novascape.landscape import _main_component, build_landscape, layout
    from novascape.synth import SynthConfig, generate_corpus

    corpus = generate_corpus(SynthConfig(dimension=16, year_start=YEARS[0], year_end=YEARS[1],
                                         games_per_year=500, seed=0))
    (graph,) = build_landscape(apply_filters(corpus, FilterConfig())[0], (YEARS[1],), min_type_count)
    tracemalloc.start()
    _main_component(len(graph.keys), *graph.edges.T)
    hops_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    positions = layout(graph)  # untimed: the first layout in a process also loads the L-BFGS-B extension
    walls, peak = timed(lambda: layout(graph))
    return {"min_type_count": min_type_count, "nodes": len(positions), "hops_peak_mb": round(hops_peak / 2**20, 2),
            "wall_s": round(walls[1], 4), "wall_spread_s": round(walls[2] - walls[0], 4), "peak_mb": peak}


def probe_read(records: int) -> dict:
    from novascape.metrics import read_scores_csv, score_corpus

    corpus = synthetic(records)
    table = score_corpus(corpus, SPANS, last_complete_year=YEARS[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        table.write_csv(path)
        walls, peak = timed(lambda: read_scores_csv(path))
        size = path.stat().st_size
    return {"records": len(corpus), "rows": len(table), "file_mb": round(size / 2**20, 2),
            "wall_s": round(walls[1], 4), "peak_mb": peak}


def probe_write(records: int) -> dict:
    from novascape.corpus import write_records_csv
    from novascape.metrics import score_corpus

    corpus = synthetic(records)
    table = score_corpus(corpus, SPANS, last_complete_year=YEARS[1])
    out = {"records": len(corpus), "rows": len(table)}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in (("corpus", lambda: write_records_csv(corpus, Path(tmp) / "corpus.csv")),
                            ("scores", lambda: table.write_csv(Path(tmp) / "scores.csv"))):
            walls, peak = timed(write)
            out[f"{name}_wall_s"], out[f"{name}_peak_mb"] = round(walls[1], 4), peak
    return out


# the report stage each timed function of novascape.cli runs
REPORT_STAGES = {"parse_records": "parse", "cmd_ingest": "ingest", "cmd_score": "score", "cmd_stats": "stats",
                 "cmd_landscape": "landscape"}


def probe_report(records: int) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leaves no __pycache__ in bench/
    import inputs
    from novascape import cli

    walls = dict.fromkeys(REPORT_STAGES.values(), 0.0)

    def timed_stage(stage, call):
        def timed_call(*args):
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                walls[stage] += time.perf_counter() - start
        return timed_call

    for name, stage in REPORT_STAGES.items():
        setattr(cli, name, timed_stage(stage, getattr(cli, name)))
    # the report-large inputs at this size: only this process's copy of the dict changes
    inputs.LARGE = {**inputs.LARGE, "games_per_year": records // (YEARS[1] - YEARS[0] + 1)}
    with tempfile.TemporaryDirectory() as tmp:
        config, n = inputs.write_large_inputs(0, Path(tmp))
        code = cli.main(["report", "--config", str(config), "--out", str(Path(tmp) / "out")])
    return {"records": n, **{f"{stage}_s": round(wall, 4) for stage, wall in walls.items()}, "exit": code,
            "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


PROBES = {"score": probe, "layout": probe_layout, "read": probe_read, "write": probe_write, "report": probe_report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[20000, 80000, 200000])
    instead = parser.add_mutually_exclusive_group()
    instead.add_argument("--layout", type=int, nargs="+", metavar="MIN_TYPE_COUNT",
                         help="lay out the snapshot at each min_type_count instead of scoring")
    instead.add_argument("--read", type=int, nargs="+", metavar="SIZE",
                         help="read back the scores.csv of each corpus size instead of scoring")
    instead.add_argument("--write", type=int, nargs="+", metavar="SIZE",
                         help="write the corpus and scores.csv of each corpus size instead of scoring")
    instead.add_argument("--report", type=int, nargs="+", metavar="SIZE",
                         help="time the stages of a report on the benchmark's corpus of each size instead")
    # one probe at one size, in this process
    parser.add_argument("--one", nargs=2, metavar=("PROBE", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.one is not None:
        print(json.dumps(PROBES[args.one[0]](int(args.one[1]))), flush=True)
        return 0
    from novascape import BLAS_THREAD_VARIABLES

    env = {**dict.fromkeys(BLAS_THREAD_VARIABLES, "1"), **os.environ}
    kind = next((kind for kind in ("layout", "read", "write", "report") if getattr(args, kind)), "score")
    for size in getattr(args, kind) if kind != "score" else args.sizes:
        subprocess.run([sys.executable, __file__, "--one", kind, str(size)], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
