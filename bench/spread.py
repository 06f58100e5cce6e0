"""Run each workload over several seeds and report medians and quartile spreads.

    python3 bench/spread.py                          # every workload, seeds 1..10
    python3 bench/spread.py --workloads montecarlo --seeds 1,2,3,4,5
    python3 bench/spread.py --baseline bench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the seeds, with quartiles
from statistics.quantiles(values, n=4). A spread above a third of the
metric's bound in BENCHMARK.json is flagged. Runs are serial. --baseline
writes the host facts, workload parameters, metric definitions and results.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run_bench import WORKLOADS, host_facts

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="write the results to this JSON file")
    args = parser.parse_args(argv)
    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    for workload in args.workloads.split(","):
        results = [run_once(command, workload, seed, bench["run_seconds"], args.trace) for seed in seeds]
        rows = {}
        print(f"{workload}: seeds {seeds}, correct {all(r['correct'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            row = {"unit": metric["unit"], "better": metric["better"], "median": median,
                   "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = ""
            if "bound" in metric:
                row["bound"] = metric["bound"]
                flag = "  SPREAD ABOVE BOUND/3" if spread > metric["bound"] / 3 else ""
            rows[metric["name"]] = row
            print(f"  {metric['name']:28s} median {median:12.6g} {metric['unit']:6s} "
                  f"spread {spread:7.4f}{flag}  [{' '.join(f'{v:.4g}' for v in values)}]")
        report[workload] = {
            "why": WORKLOADS[workload]["why"], "params": WORKLOADS[workload]["params"],
            "seeds": seeds, "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": rows,
        }
    if args.baseline:
        payload = {"host": host_facts(), "command": bench["command"],
                   "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": report}
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
