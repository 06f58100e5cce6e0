"""Check that `novascape report` writes the same bytes: one SHA-256 per artifact.

Runs `report` on the README demo seeds 0, 7 and 11 (config from
scripts/run_synthetic_demo.build_config) and, with --large, on the
report-large seeds 1-3 (inputs from bench/inputs.write_large_inputs, which
is only read). Each run happens in a fresh temporary working directory with
relative input and output paths, so the paths that pipeline_config.json and
demo_config.json record are the same on every host. The digests are written
to, or compared with, tests/data/artifact_digests.json, which also records
the Python, numpy and scipy versions they were taken with: layout and fit
bits depend on those. BLAS runs on one thread, whatever the environment says.

A change that is meant to move bytes regenerates the manifest with --write
and names every moved file: while the versions match, --write first prints
each run or artifact whose digest differs from the manifest's.

Usage:
    python3 scripts/artifact_digests.py --check [--large]
    python3 scripts/artifact_digests.py --write [--large]
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "scripts", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

# one BLAS thread before numpy loads, as in tests/conftest.py and bench/. Since
# build_design drops separated fixed-effect levels, demo seed 0 and
# report-large seeds 1 and 3 write the same models.* bytes under two threads
# (tests/test_artifact_digests.py checks demo seed 0); one thread keeps the
# digests from depending on the thread count a host's BLAS would choose
from novascape import BLAS_THREAD_VARIABLES  # noqa: E402

os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import run_synthetic_demo  # noqa: E402
from novascape.cli import main as cli_main  # noqa: E402

MANIFEST = ROOT / "tests" / "data" / "artifact_digests.json"
DEMO_SEEDS = (0, 7, 11)
LARGE_SEEDS = (1, 2, 3)
OUT = "out"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


@contextlib.contextmanager
def _scratch_cwd():
    """Run the body in a new temporary directory, then return and remove it."""
    before = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="novascape-digests-") as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(before)


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def demo_digests(seed: int) -> dict:
    """Artifacts of the README demo (run_synthetic_demo) for one seed."""
    with _scratch_cwd() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = run_synthetic_demo.run(["--out", OUT, "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"demo seed {seed}: report exited {code}")
        return _digests(tmp / OUT)


def large_digests(seed: int) -> dict:
    """Artifacts of `report` over the report-large inputs for one seed."""
    from bench.inputs import write_large_inputs

    with _scratch_cwd() as tmp:
        inputs = Path("inputs")
        inputs.mkdir()
        config, _ = write_large_inputs(seed, inputs)
        code = cli_main(["report", "--config", str(config), "--out", OUT])
        if code != 0:
            raise RuntimeError(f"report-large seed {seed}: report exited {code}")
        return _digests(tmp / OUT)


def compute(large: bool = False) -> dict:
    runs = {f"demo-{seed}": demo_digests(seed) for seed in DEMO_SEEDS}
    if large:
        runs.update({f"large-{seed}": large_digests(seed) for seed in LARGE_SEEDS})
    return runs


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def differences(expected: dict, actual: dict) -> list:
    """One line per run or artifact whose digest differs, is missing or is new."""
    lines = []
    for run in sorted(actual):
        if run not in expected:
            lines.append(f"{run}: not in the manifest")
            continue
        want, got = expected[run], actual[run]
        for name in sorted(set(want) | set(got)):
            if name not in got:
                lines.append(f"{run}: {name} was not written")
            elif name not in want:
                lines.append(f"{run}: {name} is new")
            elif want[name] != got[name]:
                lines.append(f"{run}: {name} changed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the digests in the manifest")
    mode.add_argument("--check", action="store_true", help="compare the digests with the manifest")
    parser.add_argument("--large", action="store_true", help="also run report-large seeds 1-3")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)

    actual = compute(args.large)
    if args.write:
        # runs not recomputed are kept only while the versions match
        old = load_manifest() if MANIFEST.exists() else {"versions": None}
        same = old["versions"] == versions()
        for line in differences(old["runs"], actual) if same else ():
            print(line)
        manifest = {"versions": versions(), "runs": old["runs"] if same else {}}
        manifest["runs"].update(actual)
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, actual.values()))} digests of {len(actual)} runs to {MANIFEST}")
        return 0

    manifest = load_manifest()
    if manifest["versions"] != versions():
        print(f"note: digests were taken with {manifest['versions']}, this host has {versions()}")
    lines = differences(manifest["runs"], actual)
    for line in lines:
        print(line)
    print(f"{len(actual)} runs, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
