"""The README demo and report-large write the bytes recorded in tests/data/artifact_digests.json."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from novascape import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "artifact_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_manifest_for_this_host(digests) -> dict:
    manifest = digests.load_manifest()
    # layout and fit bits depend on these versions; no other condition skips
    if manifest["versions"] != digests.versions():
        pytest.skip(f"digests taken with {manifest['versions']}, running {digests.versions()}")
    return manifest


def test_demo_artifacts_match_the_manifest():
    digests = load_script()
    manifest = load_manifest_for_this_host(digests)
    actual = {f"demo-{seed}": digests.demo_digests(seed) for seed in digests.DEMO_SEEDS}
    assert digests.differences(manifest["runs"], actual) == []


def test_large_artifacts_match_the_manifest():
    # report-large's d=51 corpus and its three snapshots, as `--check --large` runs them
    digests = load_script()
    manifest = load_manifest_for_this_host(digests)
    actual = {f"large-{seed}": digests.large_digests(seed) for seed in digests.LARGE_SEEDS}
    assert digests.differences(manifest["runs"], actual) == []


def test_large_stepwise_route_matches_the_manifest(tmp_path):
    # ingest, score, landscape and stats one by one, each reading the caches the
    # one before it wrote, give report's bytes; only report writes pipeline_config.json
    digests = load_script()
    manifest = load_manifest_for_this_host(digests)
    from bench.inputs import write_large_inputs

    config, _ = write_large_inputs(1, tmp_path)
    out = tmp_path / "out"
    for command in ("ingest", "score", "landscape", "stats"):
        assert digests.cli_main([command, "--config", str(config), "--out", str(out)]) == 0
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    expected = {name: digest for name, digest in manifest["runs"]["large-1"].items()
                if name != "pipeline_config.json"}
    assert digests.differences({"large-1": expected}, {"large-1": actual}) == []


def test_demo_models_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the manifest was taken on one BLAS thread; the fits must not depend on it
    manifest = load_manifest_for_this_host(load_script())
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARIABLES, "2"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_synthetic_demo.py"), "--out", "out",
                    "--seed", "0"], cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300)
    digest = hashlib.sha256((tmp_path / "out" / "models.csv").read_bytes()).hexdigest()
    assert digest == manifest["runs"]["demo-0"]["models.csv"]
