"""The bare package: `import novascape` loads no submodule, the library path loads
no scipy, and the CLI and stats load neither scipy's top-level package nor any of
the scipy packages they bypass."""

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


# loaded by importing scipy, scipy.linalg, scipy.special, scipy.optimize or scipy.sparse,
# whose compiled routines the package loads from their files or does without, and
# numpy.ma, which np.percentile imports
COLD_START_UNWANTED = ("scipy", "scipy._lib", "scipy._lib._array_api", "scipy.linalg", "scipy.special",
                       "scipy.sparse", "scipy.optimize", "numpy.f2py", "numpy.ma")


@pytest.mark.parametrize("module", ["novascape.cli", "novascape.stats"])
def test_cold_start_loads_no_scipy_package_it_bypasses(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert not [m for m in COLD_START_UNWANTED if m in loaded]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert novascape.__version__ == tomllib.load(fh)["project"]["version"]
