"""Loading scipy's compiled routines from their extension files: the same
objects scipy's packages export, None where a routine is missing or has
another signature, and sys.modules left as it was found."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg
import scipy.optimize
import scipy.special

from novascape import _compiled
from novascape._compiled import extension, routines, signature

ROOT = Path(__file__).resolve().parent.parent
# every extension the package loads, with the package that exports its routines
LOADED = (("linalg/_flapack", scipy.linalg.lapack, "dgeqp3"), ("special/_ufuncs", scipy.special, "stdtrit"),
          ("optimize/_lbfgsb", scipy.optimize._lbfgsb, "setulb"))


@pytest.mark.parametrize("relpath, public, name", LOADED)
def test_a_load_from_the_file_adds_nothing_to_sys_modules(monkeypatch, relpath, public, name):
    # as in a process that never imported the package
    package = "scipy." + relpath.rpartition("/")[0]
    monkeypatch.delitem(sys.modules, package)
    monkeypatch.delitem(sys.modules, "scipy." + relpath.replace("/", "."))
    before = dict(sys.modules)
    module = extension(relpath)
    assert dict(sys.modules) == before
    assert getattr(module, name) is getattr(public, name)


def test_fresh_interpreter_loads_leave_sys_modules_as_found():
    # the real cold start: no scipy package below the top level imported before or after
    child = (
        "import sys\n"
        "import scipy\n"
        "from novascape._compiled import extension\n"
        "before = set(sys.modules)\n"
        f"assert all(extension(relpath) for relpath in {[relpath for relpath, _, _ in LOADED]!r})\n"
        "assert set(sys.modules) == before, sorted(set(sys.modules) ^ before)\n"
        "import novascape.stats, scipy.special\n"
        "assert novascape.stats.stdtrit is scipy.special.stdtrit\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cold_loads_run_no_scipy_init_file():
    # scipy not imported at all: the top-level package and scipy._lib are stubbed too,
    # so no scipy __init__.py is opened, and the stubs are gone after the loads
    child = (
        "import sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == 'open' else None)\n"
        "from novascape._compiled import extension\n"
        "before = set(sys.modules)\n"
        f"assert all(extension(relpath) for relpath in {[relpath for relpath, _, _ in LOADED]!r})\n"
        "assert set(sys.modules) == before, sorted(set(sys.modules) ^ before)\n"
        "scipy_files = [path for path in opened if 'scipy' in path]\n"
        "assert scipy_files and not [path for path in scipy_files if '__init__' in path], scipy_files\n"
        "import novascape.stats, scipy.special\n"
        "assert novascape.stats.stdtrit is scipy.special.stdtrit\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_imported_module_is_reused():
    assert extension("linalg/_flapack") is sys.modules["scipy.linalg._flapack"]


def test_missing_file_gives_none(monkeypatch):
    assert extension("linalg/_no_such_extension") is None
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(_compiled, "EXTENSION_SUFFIXES", [".missing"])
    assert extension("linalg/_flapack") is None
    assert routines.__wrapped__("linalg/_flapack",
                                ("x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])",)) is None


def test_a_lookup_is_kept_for_the_process(monkeypatch):
    loads = []

    def counting(relpath):
        loads.append(relpath)
        return extension(relpath)

    monkeypatch.setattr(_compiled, "extension", counting)
    # a pair no other caller looks up, so this test makes the first lookup
    signatures = ("x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])",
                  "q,work,info = dorgqr(a,tau,[lwork,overwrite_a])")
    first = routines("linalg/_flapack", signatures)
    assert first.dtrtrs is scipy.linalg.lapack.dtrtrs
    assert routines("linalg/_flapack", signatures) is first
    assert loads == ["linalg/_flapack"]


def test_another_signature_gives_none():
    dtrtrs = "x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])"
    assert routines("linalg/_flapack", (dtrtrs,)).dtrtrs is scipy.linalg.lapack.dtrtrs
    assert routines("linalg/_flapack", (dtrtrs, "x,info = dtrtrs(a,b)")) is None
    assert routines("linalg/_flapack", ("x = dnosuch(a)",)) is None
    # a ufunc is known by its name and number of inputs
    assert routines("special/_ufuncs", ("stdtr(x1, x2)",)).stdtr is scipy.special.stdtr
    assert routines("special/_ufuncs", ("stdtr(x)",)) is None


def test_signature_of_each_kind_of_routine():
    assert signature(scipy.special.ndtr) == "ndtr(x)"
    assert signature(scipy.special.stdtrit) == "stdtrit(x1, x2)"
    assert signature(scipy.linalg.lapack.dorgqr) == "q,work,info = dorgqr(a,tau,[lwork,overwrite_a])"
    assert signature(None) == ""
