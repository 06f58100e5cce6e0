"""The bare package: `import novascape` loads no submodule, and the library path loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import novascape

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(statement: str) -> set:
    """The names in sys.modules of a fresh interpreter after running `statement`."""
    child = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return set(proc.stdout.split())


def test_import_novascape_loads_no_submodule():
    assert not [m for m in loaded_after("import novascape") if m.startswith("novascape.")]


def test_library_path_loads_no_scipy_and_no_pipeline_module():
    loaded = loaded_after("import novascape.synth, novascape.corpus, novascape.metrics")
    assert {"novascape.synth", "novascape.corpus", "novascape.metrics"} <= loaded
    unwanted = {"novascape.cli", "novascape.landscape", "novascape.stats"}
    assert not loaded & unwanted and not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert novascape.__version__ == tomllib.load(fh)["project"]["version"]
