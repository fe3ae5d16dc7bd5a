"""Self-tests of the benchmark harness; about a minute.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_counts_repeat_on_one_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    a, b = (result(run("--workload", "point-query", "--seed", "7",
                       "--seconds", "1", "--trace", "1")) for _ in range(2))
    assert a["correct"] and b["correct"]
    assert sorted(a["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert {k: a["metrics"][k] for k in counted} == {k: b["metrics"][k] for k in counted}
    assert a["metrics"]["check.same_colour_pairs"]["value"] > 0


def test_corrupted_golden_digest_fails(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    digest = golden["colour-dual"]["sha256"]
    golden["colour-dual"]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    done = run("--workload", "colour-dual", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--golden", str(path))
    res = result(done)
    info = json.loads(done.stdout.splitlines()[-2])["info"]
    assert not res["correct"] and res["failed"] > 0
    assert info["failed_frac"] > 0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "colour-dual", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
