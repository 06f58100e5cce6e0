"""The README demo writes the bytes recorded in tests/data/artifact_digests.json."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_artifacts_match_the_manifest():
    digests = load_script()
    manifest = digests.load_manifest()
    # layout and fit bits depend on these versions; no other condition skips
    if manifest["versions"] != digests.versions():
        pytest.skip(f"digests taken with {manifest['versions']}, running {digests.versions()}")
    actual = {f"demo-{seed}": digests.demo_digests(seed) for seed in digests.DEMO_SEEDS}
    assert digests.differences(manifest["runs"], actual) == []
