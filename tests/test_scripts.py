"""The scripts: effect_recovery.py's exit status and the BLAS threads of its workers,
scale_probe.py's output lines and warm-up, run_synthetic_demo.py's run, and what artifact_digests.py
--write reports."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from novascape import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "effect_recovery.py"


def load_script(path: Path = SCRIPT):
    spec = importlib.util.spec_from_file_location(path.stem, path)
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
             f"print(*(os.environ[name] for name in {BLAS_THREAD_VARIABLES!r}))\n")
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for given, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        out = subprocess.run([sys.executable, "-c", probe], env={**env, **given}, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == want.split()


def test_scale_probe_prints_one_line_per_size():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--sizes", "2000"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    (line,) = out.splitlines()
    probe = json.loads(line)
    assert list(probe) == ["records", "pairs", "wall_s", "pairs_per_s", "max_rss_mb"]
    assert probe["records"] == 2000 and probe["pairs"] > 0 and probe["wall_s"] > 0


def test_scale_probe_layout_prints_one_line_per_min_type_count():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--layout", "8"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    (line,) = out.splitlines()
    probe = json.loads(line)
    assert list(probe) == ["min_type_count", "nodes", "hops_peak_mb", "wall_s", "wall_spread_s", "peak_mb"]
    assert probe["min_type_count"] == 8 and probe["nodes"] == 6 and probe["wall_s"] > 0 and probe["peak_mb"] > 0
    assert probe["wall_spread_s"] >= 0
    assert 0 < probe["hops_peak_mb"] <= probe["peak_mb"]


def test_scale_probe_read_prints_one_line_per_size():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--read", "2000"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    (line,) = out.splitlines()
    probe = json.loads(line)
    assert list(probe) == ["records", "rows", "file_mb", "wall_s", "peak_mb"]
    assert probe["records"] == 2000 and probe["rows"] > 0 and probe["file_mb"] > 0
    assert probe["wall_s"] > 0 and probe["peak_mb"] > 0


def test_scale_probe_write_prints_one_line_per_size():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--write", "2000"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    (line,) = out.splitlines()
    probe = json.loads(line)
    assert list(probe) == ["records", "rows", "corpus_wall_s", "corpus_peak_mb", "scores_wall_s", "scores_peak_mb"]
    assert probe["records"] == 2000 and probe["rows"] > 0
    assert all(probe[key] > 0 for key in list(probe)[2:])


def test_scale_probe_layout_warms_up_before_timing(monkeypatch):
    # one untimed warm-up, three timed layouts and one traced
    from novascape import landscape

    calls, layout = [], landscape.layout

    def counting(graph, *args, **kwargs):
        calls.append(len(graph.keys))
        return layout(graph, *args, **kwargs)

    monkeypatch.setattr(landscape, "layout", counting)
    probe = load_script(ROOT / "scripts" / "scale_probe.py").probe_layout(8)
    assert len(calls) == 5 and probe["nodes"] == 6


def test_synthetic_demo_prints_the_model_table(tmp_path, capsys):
    demo = load_script(ROOT / "scripts" / "run_synthetic_demo.py")
    assert demo.run(["--out", str(tmp_path), "--years", "4", "--games-per-year", "80"]) == 0
    assert (tmp_path / "models.txt").read_text() in capsys.readouterr().out


def test_digest_write_names_the_moved_artifacts(tmp_path, monkeypatch, capsys):
    digests = load_script(ROOT / "scripts" / "artifact_digests.py")
    manifest = tmp_path / "artifact_digests.json"
    runs = {"demo-0": {"a.csv": "1", "b.txt": "2"}, "large-1": {"a.csv": "3"}}
    manifest.write_text(json.dumps({"versions": digests.versions(), "runs": runs}))
    monkeypatch.setattr(digests, "MANIFEST", manifest)
    monkeypatch.setattr(digests, "compute", lambda large: {"demo-0": {"a.csv": "1", "b.txt": "4"}})
    assert digests.main(["--write"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == ["demo-0: b.txt changed"]
    # a run not recomputed is kept
    assert json.loads(manifest.read_text())["runs"] == {**runs, "demo-0": {"a.csv": "1", "b.txt": "4"}}
