"""scripts/effect_recovery.py: its exit status and the BLAS threads of its workers."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "effect_recovery.py"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_script():
    spec = importlib.util.spec_from_file_location("effect_recovery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_null_seeds_is_no_false_positive_failure(capsys):
    # with no null seed the false-positive rate is NaN, which no range holds
    assert load_script().run(["--seeds", "0", "--null-seeds", "0"]) == 0
    assert "0/0 = nan" in capsys.readouterr().out


def test_one_blas_thread_unless_the_environment_sets_one():
    # spawn workers import the script again, so what its import sets is what they run with
    probe = ("import importlib.util, os, sys\n"
             f"spec = importlib.util.spec_from_file_location('effect_recovery', {str(SCRIPT)!r})\n"
             "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
             f"print(*(os.environ[name] for name in {THREAD_VARIABLES!r}))\n")
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for given, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        out = subprocess.run([sys.executable, "-c", probe], env={**env, **given}, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == want.split()
