"""The measured process: a traced `novascape` CLI run, or a serial Monte-Carlo batch loop.

    python3 bench/child.py cli --trace-out SPANS.json --run N [--alloc] -- report --config CFG
    python3 bench/child.py montecarlo --seed 1 --seconds 25 --trace 0 --result OUT.json \
        --setup-modules "novascape.synth, novascape.stats"

`cli` rebinds the names novascape.cli imported from the layer modules to
traced wrappers, runs the CLI and writes the spans on exit. `montecarlo`
calls the library directly, one seed after another, after one untimed
warm-up seed, in batches scheduled by `schedule`, and times the set-up
imports between the batches. Each batch and import carries the host-speed
scale of `calibrate.Clock`, from slowness samples taken on both sides of it.
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import checks
from calibrate import Clock
from spans import LAYERS, Tracer, wrap_layers

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_STAGES = {"cmd_report": "cli.report", "cmd_synth": "cli.synth", "cmd_ingest": "cli.ingest",
              "cmd_score": "cli.score", "cmd_landscape": "cli.landscape", "cmd_stats": "cli.stats"}

# the per-seed work of the effect-recovery acceptance test
MC_YEARS = (2006, 2015)
MC_GAMES_PER_YEAR = 500
MC_SHARE = 0.3
MC_BOOST = 2.0
MC_BOOST_EVERY = 3  # boost and null seeds alternate 1:2
MC_SPAN = 2
MC_CHECKED_RECORDS = 20
MC_BATCH = 6
# input k of benchmark seed s: report-demo seed s*SEED_STRIDE + k, Monte-Carlo batch
# synth seeds s*SEED_STRIDE + k*MC_BATCH + j
SEED_STRIDE = 100_000
RUN_LIMIT_S = 170  # every process a benchmark call starts is killed after this
SETUP_SAMPLES = 5
MODES = ("plain", "traced", "alloc")  # untraced, spans only, spans and tracemalloc
MC_LIBRARY = ("generate_corpus", "apply_filters", "score_corpus", "join_scores",
              "build_design", "fit_model")


def schedule(modes, seconds: float, rotate: bool = True):
    """Yield (mode, input index) for each run of a measured phase.

    The modes take turns on one input; with rotate, each turn of all modes
    moves to the next input, so medians cover several inputs. Input 0 runs
    first and at least twice (a single mode takes two turns on it), so every
    call checks determinism within its measured phase. Runs then start until
    `seconds` have passed.
    """
    start = time.perf_counter()
    first_turns = 2 if len(modes) == 1 else 1
    i = 0
    while i < len(modes) * first_turns or time.perf_counter() - start < seconds:
        turn = i // len(modes)
        yield modes[i % len(modes)], max(0, turn - first_turns + 1) if rotate else 0
        i += 1


class SetupSampler:
    """Wall times of fresh interpreters importing a workload's modules (setup_s).

    Each time is scaled to the host's fast state by `clock` (calibrate.py).
    One untimed warm-up import runs first. The timed imports are spread over
    the measured phase, so that a short slowdown of the host moves only a few
    of them: pace(), called after each run, takes imports until their share
    of `samples` catches up with the share of `seconds` that has passed, and
    finish() takes the rest.
    """

    def __init__(self, modules: str, seconds: float, clock: Clock, samples: int = SETUP_SAMPLES,
                 env=None, deadline=None):
        self.clock = clock
        self.cmd = [sys.executable, "-c", f"import {modules}"]
        self.seconds = seconds
        self.samples = samples
        self.env = env
        self.deadline = time.monotonic() + RUN_LIMIT_S if deadline is None else deadline
        self.times = []
        if samples:
            self._import()
        self.start = time.perf_counter()

    def _import(self) -> float:
        timeout = max(1.0, self.deadline - time.monotonic())
        before = self.clock.before()
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                              timeout=timeout)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise SystemExit(f"{self.cmd[-1]} failed:\n{done.stderr[-2000:]}")
        return wall * self.clock.scale(before)

    def pace(self) -> None:
        due = math.ceil(self.samples * (time.perf_counter() - self.start) / self.seconds)
        while len(self.times) < min(due, self.samples):
            self.times.append(self._import())

    def finish(self) -> list:
        while len(self.times) < self.samples:
            self.times.append(self._import())
        return self.times


def _check_source(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"novascape imported from {module.__file__}, not from {SRC}")


def run_cli(args) -> int:
    import novascape.cli as cli

    _check_source(cli)
    tracer = Tracer(args.run, args.alloc)
    wrap_layers(tracer, cli, [n for n in LAYERS if hasattr(cli, n)])
    for attr, name in CLI_STAGES.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    cli.COMMANDS["report"] = cli.cmd_report
    try:
        return cli.main(args.argv)
    finally:
        Path(args.trace_out).write_text(json.dumps({"spans": tracer.spans,
                                                    "overhead_s": tracer.overhead}),
                                        encoding="utf-8")


def _library():
    from novascape import corpus, metrics, stats, synth

    _check_source(synth)
    lib = types.SimpleNamespace(
        generate_corpus=synth.generate_corpus, apply_filters=corpus.apply_filters,
        score_corpus=metrics.score_corpus, join_scores=stats.join_scores,
        build_design=stats.build_design, fit_model=stats.fit_model,
        SynthConfig=synth.SynthConfig, FilterConfig=corpus.FilterConfig)
    specs = dict(stats.STANDARD_MODELS)
    models = (("ols", specs["Distinctiveness"]), ("logit", specs["Novelty"]),
              ("poisson", stats.COUNT_NOVELTY_MODEL[1]))
    return lib, models


def one_seed(lib, models, seed: int, boost: float):
    cfg = lib.SynthConfig(year_start=MC_YEARS[0], year_end=MC_YEARS[1],
                          games_per_year=MC_GAMES_PER_YEAR, crowdfunded_share_by_year=MC_SHARE,
                          novelty_boost=boost, seed=seed)
    corpus = lib.generate_corpus(cfg)
    kept, _ = lib.apply_filters(corpus, lib.FilterConfig())
    table = lib.score_corpus(kept, spans=(MC_SPAN,), last_complete_year=MC_YEARS[1])
    data = lib.join_scores(kept, table, span=MC_SPAN)
    fits = {name: lib.fit_model(lib.build_design(data, spec)) for name, spec in models}
    return corpus, kept, table, data, fits


def check_seed(seed, corpus, kept, table, data, fits):
    """Problems, result digest and recovery verdicts of one seed; none of it is timed.

    The filter and the brute-force scores are checked against the generated
    corpus, with the benchmark's own copy of the filter protocol.
    """
    problems = [f"seed {seed}: {name} fit did not converge"
                for name, fit in fits.items() if not fit.converged]
    rows = np.flatnonzero([checks.protocol_keeps(r.year, r.num_ratings, r.popcount, r.team_size)
                           for r in corpus])
    matrix, years = corpus.matrix[rows], corpus.years[rows]
    ids = [corpus.ids[j] for j in rows]
    if list(kept.ids) != ids:
        problems.append(f"seed {seed}: filter kept {len(kept)} records, the protocol keeps "
                        f"{len(ids)} (or the ids differ)")
    elif not (np.array_equal(kept.matrix, matrix) and np.array_equal(kept.years, years)):
        problems.append(f"seed {seed}: filtered records differ from the generated ones")
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(ids), size=MC_CHECKED_RECORDS, replace=False):
        expected = checks.window_scores(matrix, years, int(i), MC_SPAN, MC_YEARS[1])
        row = table.get(ids[int(i)], MC_SPAN)
        label = f"seed {seed} record {ids[int(i)]}"
        if row is None:
            if expected is not None:
                problems.append(f"{label}: not scored although its past window is not empty")
            continue
        problems += checks.score_problems(expected, row.distinctiveness, row.novelty_count,
                                          row.resonance, label)
    h = hashlib.sha256()
    for column in ("distinctiveness", "novelty_count", "resonance"):
        h.update(data[column].tobytes())
    for fit in fits.values():
        h.update(fit.beta.tobytes() + fit.cov.tobytes())
    verdicts = {name: (fit.coefficients["crowdfunded"], fit.p_values["crowdfunded"])
                for name, fit in fits.items()}
    return problems, h.hexdigest(), verdicts


def run_batch(lib, models, seeds, mode: str, run: int, clock: Clock):
    """One batch of seeds; "scale" is the host-speed scale of its wall and CPU times."""
    seed_fn = one_seed
    tracer = None
    if mode != "plain":
        tracer = Tracer(run, measure_alloc=mode == "alloc")
        seed_fn = tracer.wrap("montecarlo.seed", one_seed)
        lib = types.SimpleNamespace(**vars(lib))
        wrap_layers(tracer, lib, MC_LIBRARY)
    batch = {"mode": mode, "wall": 0.0, "cpu": 0.0, "records": 0, "seed_walls": [],
             "problems": [], "digests": [], "recovered": 0, "null_false_pos": 0}
    before = clock.before()
    for k, seed in enumerate(seeds):
        boost = MC_BOOST if k % MC_BOOST_EVERY == 0 else 0.0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        corpus, kept, table, data, fits = seed_fn(lib, models, seed, boost)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        batch["wall"] += wall
        batch["cpu"] += cpu
        batch["records"] += len(corpus)
        batch["seed_walls"].append(wall)
        problems, digest, verdicts = check_seed(seed, corpus, kept, table, data, fits)
        batch["problems"].append(problems)
        batch["digests"].append(digest)
        if boost:
            batch["recovered"] += all(c > 0 and p < checks.SIGNIFICANCE
                                      for c, p in verdicts.values())
        else:
            batch["null_false_pos"] += verdicts["ols"][1] < 0.05
    batch["scale"] = clock.scale(before)
    if tracer is not None:
        batch["spans"] = tracer.spans
        batch["overhead_s"] = tracer.overhead
    return batch


def run_montecarlo(args) -> int:
    lib, models = _library()
    one_seed(lib, models, args.seed * SEED_STRIDE, MC_BOOST)  # lazy imports, first calls
    clock = Clock(processes=False)
    setup = SetupSampler(args.setup_modules, args.seconds, Clock(processes=True),
                         0 if args.trace else SETUP_SAMPLES)
    batches = []
    for mode, k in schedule(MODES if args.trace else MODES[:1], args.seconds):
        seeds = [args.seed * SEED_STRIDE + k * MC_BATCH + j for j in range(MC_BATCH)]
        batches.append({"input": k, **run_batch(lib, models, seeds, mode, len(batches), clock)})
        setup.pace()
    Path(args.result).write_text(json.dumps({"batches": batches, "setup": setup.finish(),
                                             "slowness": clock.samples}),
                                 encoding="utf-8")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace-out", required=True)
    cli.add_argument("--run", type=int, default=0)
    cli.add_argument("--alloc", action="store_true", help="tracemalloc peak of the score layer")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    mc = sub.add_parser("montecarlo")
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--seconds", type=float, required=True)
    mc.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mc.add_argument("--result", required=True)
    mc.add_argument("--setup-modules", required=True, help="import list timed for setup_s")
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_cli(arguments) if arguments.mode == "cli" else run_montecarlo(arguments))
