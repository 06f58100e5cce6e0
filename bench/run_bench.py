"""novascape benchmark: one workload per call, end to end or traced layer by layer.

    python3 bench/run_bench.py --workload report-demo --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/. Workloads (WORKLOADS below holds their parameters):

  report-demo   `novascape report` on the README quick-start config (synth inside)
  report-large  `novascape report` over a 20,000-record d=51 corpus CSV made in set-up
  montecarlo    serial effect-recovery seeds through the library (synth, score, fits)

Set-up writes the inputs. The measured phase then repeats the workload for
--seconds: one fresh CLI process per report run, or one process running
6-seed batches for montecarlo. Between the runs it times fresh interpreters
importing the workload's modules (setup_s). Every run is checked (exit code,
artifacts, filter and brute-force scores against the input, planted effect,
GLM convergence, artifact digest equal across runs), and a run with a failed
check counts in `failed`. --trace 0 reports the end-to-end
metrics, with every time scaled to the host's fast state by calibration
samples taken on both sides of each run (see calibrate.py). --trace 1
cycles untraced runs, traced runs (spans recorded around calls into the
package's modules, which give the layer times) and traced runs with
tracemalloc on in the score layer (which give its peak), and reports the
per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one BLAS thread here as in the measured processes, so the calibration kernel
# runs under the same conditions in both; set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse
import ctypes
import glob
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import inputs
import calibrate
from child import (MC_BATCH, MC_BOOST, MC_GAMES_PER_YEAR, MC_SPAN, MC_YEARS, MODES,
                   RUN_LIMIT_S, SEED_STRIDE, SETUP_SAMPLES, SetupSampler, schedule)
from spans import COUNTS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

WORKLOADS = {
    "report-demo": {
        "why": "populated landscape (Kamada-Kawai 3 times for 2 snapshots) and the only "
               "report path with synth inside the timed program",
        "params": {**inputs.DEMO, "years": inputs.YEARS, "boost": inputs.BOOST,
                   "seed_argument": f"run k uses synth seed seed*{SEED_STRIDE}+k"},
        "imports": "novascape.cli",
    },
    "report-large": {
        "why": "scoring memory and time dominate (focal x window matrices); the CSV cache "
               "is re-read 4 times and scores.csv once; layout is negligible",
        "params": {**inputs.LARGE, "years": inputs.YEARS, "boost": inputs.BOOST,
                   "seed_argument": "seed of the benchmark's corpus generator and landscape seed"},
        "imports": "novascape.cli",
    },
    "montecarlo": {
        "why": "synth and the three model fits dominate; the per-seed work of the "
               "effect-recovery acceptance test, which drives most of tier-1 time",
        "params": {"dimension": 51, "games_per_year": MC_GAMES_PER_YEAR, "years": MC_YEARS,
                   "span": MC_SPAN, "boost": MC_BOOST, "boost_to_null": "1:2",
                   "seeds_per_batch": MC_BATCH,
                   "models": ["Distinctiveness OLS", "Novelty logit", "count-novelty Poisson"],
                   "seed_argument": f"batch k uses synth seeds seed*{SEED_STRIDE}"
                                    f"+k*{MC_BATCH}+j, j<{MC_BATCH}"},
        "imports": "novascape.synth, novascape.corpus, novascape.metrics, novascape.stats",
    },
}


def child_env() -> dict:
    """Environment of the measured processes: NOVASCAPE_THREADS unset, one BLAS thread.

    With the default two BLAS threads on a two-CPU shared host, report-large's
    wall time varied by 28% between back-to-back runs of one input, against
    11% with one thread at about the same speed.
    """
    env = dict(os.environ)
    env.pop("NOVASCAPE_THREADS", None)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_threads():
    """Threads OpenBLAS bundled with numpy uses in this process, or None when it cannot be asked.

    This process holds BLAS to one thread like the measured ones, so this
    observes that the setting takes effect.
    """
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
            "blas_threads_observed": blas_threads(),
            "blas_threads_measured": {var: child_env()[var] for var in BLAS_THREAD_VARS}}


class Runner:
    """Starts measured processes one at a time and reaps each with its rusage."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.clock = calibrate.Clock(processes=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, cmd):
        """(wall s, user+sys CPU s, peak RSS MB, exit code, host-speed scale) of one process."""
        before = self.clock.before()
        with open(self.work / "log.txt", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(c) for c in cmd], stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(max(1, int(self.deadline - time.monotonic())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode,
                self.clock.scale(before))

    def log_tail(self, lines=15):
        text = (self.work / "log.txt").read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


# ---------------------------------------------------------------------------
# workloads: each returns its runs (a CLI process, or a Monte-Carlo batch) and setup_s samples

def report_workload(name, runner: Runner, args):
    """One fresh CLI process per run; report-demo rotates its synth seed per run.

    Returns the runs, the setup_s samples and the host slowness samples.
    """
    demo = name == "report-demo"
    if demo:
        records = inputs.DEMO["games_per_year"] * (inputs.YEARS[1] - inputs.YEARS[0] + 1)
        formats, years, last_year = (inputs.DEMO["formats"], inputs.DEMO["snapshot_years"], None)
    else:
        config, records = inputs.write_large_inputs(args.seed, runner.work)
        formats, years, last_year = (("graphml", "json", "svg"), inputs.LARGE["snapshot_years"],
                                     inputs.LARGE["last_complete_year"])
    names = checks.artifact_names(formats, years, synth=demo)
    out = runner.work / "out"
    spans_path = runner.work / "spans.json"
    runs, verdicts = [], {}
    setup = SetupSampler(WORKLOADS[name]["imports"], args.seconds, runner.clock,
                         0 if args.trace else SETUP_SAMPLES, runner.env, runner.deadline)
    for mode, k in schedule(MODES if args.trace else MODES[:1], args.seconds, rotate=demo):
        if demo:
            seed = args.seed * SEED_STRIDE + k
            config = runner.work / f"config-{k}.json"
            config.write_text(json.dumps(inputs.demo_config(seed), indent=2), encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        cli_args = ["report", "--config", config, "--out", out]
        if mode == "plain":
            cmd = [sys.executable, "-m", "novascape", *cli_args]
        else:
            cmd = [sys.executable, CHILD, "cli", "--trace-out", spans_path, "--run", len(runs),
                   *(["--alloc"] if mode == "alloc" else []), "--", *cli_args]
        wall, cpu, rss, code, scale = runner.spawn(cmd)
        problems = [] if code == 0 else [f"exit code {code}:\n{runner.log_tail()}"]
        problems += checks.missing_artifacts(out, names)
        digest = checks.digest(out, names)
        # content checks run on an input's first output; identical bytes share the verdict
        if k not in verdicts:
            verdicts[k] = digest, [] if problems else report_output_problems(
                out, runner.work, demo, last_year, args.seed)
        elif digest != verdicts[k][0]:
            problems.append(f"input {k}: artifact digest differs from its first run")
        problems += verdicts[k][1]
        run = {"input": k, "mode": mode, "wall": wall, "cpu": cpu, "rss": rss, "scale": scale,
               "records": records, "problems": [problems], "digest": digest}
        if mode != "plain":
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            run["spans"], run["overhead_s"] = trace["spans"], trace["overhead_s"]
            run["recovered"] = int(code == 0 and not checks.check_models(out))
            run["null_false_pos"] = 0
        runs.append(run)
        setup.pace()
    return runs, setup.finish(), runner.clock.samples


def report_output_problems(out: Path, work: Path, synth: bool, last_year, seed: int):
    """Filter, brute-force score and planted-effect checks on one run's artifacts.

    Filter and scores are checked against the input corpus: the synthesised
    one for report-demo, the benchmark's own for report-large.
    """
    source = out / "synth_corpus.csv" if synth else work / "corpus.csv"
    expected = checks.protocol_rows(checks.read_rows(source))
    spans = (inputs.DEMO if synth else inputs.LARGE)["spans"]
    return (checks.check_filter(expected, checks.read_rows(out / "corpus_filtered.csv"))
            + checks.check_scores(out, expected, spans, last_year, np.random.default_rng(seed))
            + checks.check_models(out))


def montecarlo_workload(runner: Runner, args):
    """One process runs every batch; each batch is one operation per seed.

    Returns the batches, the setup_s samples and the host slowness samples
    taken around the batches.
    """
    result = runner.work / "montecarlo.json"
    cmd = [sys.executable, CHILD, "montecarlo", "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--result", result,
           "--setup-modules", WORKLOADS["montecarlo"]["imports"]]
    _, _, rss, code, _ = runner.spawn(cmd)
    if code != 0:
        raise SystemExit(f"montecarlo process exited with {code}:\n{runner.log_tail()}")
    result = json.loads(result.read_text(encoding="utf-8"))
    batches = result["batches"]
    first = {}
    for batch in batches:
        batch["rss"] = rss
        reference = first.setdefault(batch["input"], batch["digests"])
        for j, (digest, problems) in enumerate(zip(batch["digests"], batch["problems"])):
            if digest != reference[j]:
                problems.append(f"batch input {batch['input']} seed {j}: result digest differs "
                                "from its first run")
    return batches, result["setup"], result["slowness"]


# ---------------------------------------------------------------------------
# summary

def tail(samples):
    """The highest percentile that has at least 10 samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return "no percentile has 10 samples beyond it"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) // n} {value:.6g}"


def end_to_end(runs, setup, workload):
    """End-to-end samples, with times scaled to the host's fast state (see calibrate.py).

    A run metric has one sample per input, the median of that input's runs,
    so input 0, which every call runs twice, counts once like the others.
    """
    plain = [r for r in runs if r["mode"] == "plain"]

    def per_input(value):
        by_input = {}
        for r in plain:
            by_input.setdefault(r["input"], []).append(value(r))
        return [statistics.median(values) for values in by_input.values()]

    samples = {
        "wall_s": per_input(lambda r: r["wall"] * r["scale"]),
        "records_per_s": per_input(lambda r: r["records"] / (r["wall"] * r["scale"])),
        "cpu_s": per_input(lambda r: r["cpu"] * r["scale"]),
        "peak_rss_mb": per_input(lambda r: r["rss"]),
        "setup_s": setup,
    }
    if workload == "montecarlo":
        samples["peak_rss_mb"] = samples["peak_rss_mb"][:1]  # one process ran every batch
        samples["seed_s"] = [w * r["scale"] for r in plain for w in r["seed_walls"]]
    return samples


def per_layer(runs):
    """Per-layer samples of a traced call.

    Layer times and the tracer's own cost come from the traced runs, the
    score peak from the tracemalloc runs. Counts come from the traced runs of
    input 0, which every call runs, so they are exact for a seed however many
    inputs fit into the call; traced and tracemalloc runs of one input must
    give the same counts.
    """
    rows = {mode: [] for mode in MODES[1:]}
    first = {}
    for run in runs:
        if run["mode"] != "plain":
            row = layer_metrics(run["spans"])
            row["stats.recovered"] = run["recovered"]
            row["stats.null_false_pos"] = run["null_false_pos"]
            row["trace.overhead_s"] = run["overhead_s"]
            rows[run["mode"]].append((run["input"], row))
            reference = first.setdefault(run["input"], row)
            for name in COUNTS:
                if row[name] != reference[name]:
                    run["problems"][0].append(f"input {run['input']}: count {name} {row[name]} "
                                              f"differs from {reference[name]} on the same input")
    traced = [row for _, row in rows["traced"]]
    samples = {name: [row[name] for row in traced] for name in traced[0]}
    for name in (*COUNTS, "stats.recovered", "stats.null_false_pos"):
        samples[name] = [row[name] for k, row in rows["traced"] if k == 0]
    samples["metrics.score.peak_alloc_mb"] = [row["metrics.score.peak_alloc_mb"]
                                              for _, row in rows["alloc"]]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "novascape" / "cli.py").is_file():
        print(f"no novascape sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        if args.workload == "montecarlo":
            runs, setup, slowness = montecarlo_workload(runner, args)
        else:
            runs, setup, slowness = report_workload(args.workload, runner, args)
        samples = per_layer(runs) if args.trace else end_to_end(runs, setup, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a run holds one problem list per operation: a CLI run, or a seed of a batch
    outcomes = [problems for r in runs for problems in r["problems"]]
    failed = sum(bool(p) for p in outcomes)
    for problems in outcomes:
        for problem in problems:
            print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([{k: r[k] for k in ("mode", "wall", "spans") if k in r}
                                          for r in runs]), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(runs)} runs, "
          f"{len(outcomes)} operations, {failed} failed, error_rate {failed / len(outcomes):.4g}")
    print(f"host {json.dumps(host_facts())}")
    unscaled = [r["wall"] for r in runs if r["mode"] == "plain"]
    print(f"host speed: median slowness {statistics.median(slowness):.4g} of {len(slowness)} samples "
          f"(1 in the fast state); unscaled wall_s median "
          f"{statistics.median(unscaled):.6g} s")
    if args.workload != "montecarlo":
        print(f"artifact digest {runs[0]['digest']}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    units.setdefault("seed_s", "s")  # printed for montecarlo; wall_s covers the batch
    for name, values in samples.items():
        note = " (computed from input years)" if name == "metrics.score.pairs" else ""
        print(f"  {name:28s} {statistics.median(values):14.6g} {units[name]:6s} "
              f"median of {len(values)}; {tail(values)}{note}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if name != "seed_s"}
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
