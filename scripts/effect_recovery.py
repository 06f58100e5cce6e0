"""Monte-Carlo check that the pipeline recovers a known crowdfunding effect.

Two arms over many seeds:
  * boost arm: corpora generated with novelty_boost > 0; count how often the
    crowdfunded coefficient is positive and significant in all three models
    (distinctiveness OLS, binary-novelty logistic, count-novelty Poisson).
  * null arm: novelty_boost = 0; the share of significant crowdfunded
    coefficients in the distinctiveness OLS estimates the false-positive rate,
    which should sit near alpha.

Seeds run in parallel, one worker process per CPU, each on one BLAS thread
unless the environment sets the thread variables.

Usage:
    python3 scripts/effect_recovery.py --seeds 100 --null-seeds 200
"""

import argparse
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from novascape import default_one_blas_thread

# one BLAS thread before numpy loads, in this process and in every spawn worker
# (which imports this module again): a seed's fits are too small to gain from
# a second thread, and the workers already fill the CPUs
default_one_blas_thread()

from novascape.cli import RECOVERY_MODELS, recovery_seed  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="boost-arm seed count")
    parser.add_argument("--null-seeds", type=int, default=200, help="null-arm seed count")
    parser.add_argument("--boost", type=float, default=2.0)
    parser.add_argument("--games-per-year", type=int, default=500)
    parser.add_argument("--years", type=int, default=10)
    parser.add_argument("--share", type=float, default=0.3)
    parser.add_argument("--span", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--p-threshold", type=float, default=0.001,
                        help="significance bar for the boost arm")
    return parser.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    print(f"games/yr={args.games_per_year} years={args.years} share={args.share} span={args.span}")

    t0 = time.time()
    seed_fn = partial(recovery_seed, games_per_year=args.games_per_year, years=args.years,
                      share=args.share, span=args.span)
    with ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn")) as pool:
        boost_results = list(pool.map(partial(seed_fn, boost=args.boost), range(args.seeds)))
        null_results = list(pool.map(partial(seed_fn, boost=0.0), range(args.null_seeds)))

    recovered = 0
    worst = {name: 0.0 for name in RECOVERY_MODELS}
    for fits in boost_results:
        ok = all(c > 0 and p < args.p_threshold for c, p in fits.values())
        recovered += ok
        for name, (_, p) in fits.items():
            worst[name] = max(worst[name], p)
    print(f"boost={args.boost}: all three models significant in "
          f"{recovered}/{args.seeds} seeds")
    for name, p in worst.items():
        print(f"  worst {name} p = {p:.3g}")

    false_pos = sum(fits["Distinctiveness"][1] < args.alpha for fits in null_results)
    fpr = false_pos / args.null_seeds if args.null_seeds else float("nan")
    print(f"boost=0: distinctiveness-OLS false-positive rate at alpha={args.alpha}: "
          f"{false_pos}/{args.null_seeds} = {fpr:.3f}")
    print(f"elapsed {time.time() - t0:.1f}s")

    # the false-positive criterion holds only when null seeds ran
    ok = recovered >= 0.95 * args.seeds and (not args.null_seeds or 0.02 <= fpr <= 0.08)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
