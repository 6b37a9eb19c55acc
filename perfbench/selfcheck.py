"""Tiny-size check of the benchmark itself, so it cannot rot.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at its smallest size, untraced and
traced, and asserts that each run exits 0, ends with the result object, and
emits exactly the metrics the manifest names, with their units.  Runs the
two file-writing workloads a second time to see the digest comparison with
the previous run come out identical, and runs the benchmark from a copy that
holds no package source to see it fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int, manifest: dict) -> str:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    want = manifest["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}, (
        f"{where}: metric names differ: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {m['name']}"
        if not trace:
            assert entry["value"] > 0, f"{where}: {m['name']} is {entry['value']}"
    if not trace:  # reported with the end-to-end metrics but not in the manifest
        for name in ("point_ms_tail", "fail_frac", "mismatch_frac"):
            assert any(line.split()[:1] == [name] for line in lines), f"{where}: no {name}"
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines), where
    return proc.stdout


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in manifest["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, manifest)
            print(f"ok  {w['name']} trace={trace}")
    for name in ("presets-compare", "df-grid"):
        out = check_run(name, 0, manifest)
        assert "vs previous run: identical" in out, f"{name}: digests changed between runs"
        print(f"ok  {name} digests repeat across runs")

    bare = ROOT / ".perfbench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for p in manifest["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(manifest["command"] + ["--workload", "df-grid", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without a package source"
    shutil.rmtree(bare)
    print("ok  fails without a package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
