"""The bare package: `import novascape` loads no submodule, the library path loads
no scipy, the CLI and stats load neither scipy's top-level package nor any of
the scipy packages they bypass, and only the process entry sets BLAS threads."""

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


@pytest.mark.parametrize("module, given, want", [
    ("novascape.__main__", {}, "1 1 1"),
    ("novascape.__main__", {"OPENBLAS_NUM_THREADS": "2"}, "2 1 1"),
    ("novascape.metrics", {"OPENBLAS_NUM_THREADS": "2"}, "2 - -"),
])
def test_process_entry_holds_blas_to_one_thread_unless_the_environment_sets_it(module, given, want):
    # the variables as numpy first loads, which is when OpenBLAS reads them: the entry sets its
    # defaults before then, and the library leaves the environment as it finds it
    probe = ("import os, sys\n"
             "class Watch:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name == 'numpy':\n"
             f"            print(*(os.environ.get(v, '-') for v in {novascape.BLAS_THREAD_VARIABLES!r}))\n"
             "sys.meta_path.insert(0, Watch())\n"
             f"import {module}\n")
    env = {name: value for name, value in os.environ.items() if name not in novascape.BLAS_THREAD_VARIABLES}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**env, **given, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.split() == want.split()
