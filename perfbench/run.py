"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Times ``setup_s`` as the median of
SETUP_RUNS fresh interpreters that import the package and build the inputs,
then runs the measuring process (``bench.py``).  Every child gets BLAS
threads pinned to 1 and is waited for; the last line of standard output is
the result object.  NAME is one of the workloads in BENCHMARK.json, or
``all`` to run each of them in turn (one report and result line each).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the package comes from this checkout's src/
    return env


def timed_child(cmd: list[str], env: dict) -> float:
    """Wall time of one set-up child.

    Waits without a timeout (a watchdog kills it instead): subprocess's own
    timeout polls in steps of up to 50 ms, which would quantize the time.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def run_one(argv: list[str]) -> int:
    bench = [sys.executable, str(HERE / "bench.py")]
    env = child_env()
    try:
        setup_s = statistics.median(timed_child(bench + argv + ["--setup-only"], env)
                                    for _ in range(SETUP_RUNS))
        proc = subprocess.run(bench + argv + ["--setup-s", repr(setup_s),
                                              "--setup-runs", str(SETUP_RUNS)],
                              env=env, timeout=MEASURE_TIMEOUT_S)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc.cmd[1]} exceeded {exc.timeout} s", file=sys.stderr)
        return 1
    return proc.returncode


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (HERE.parent / "src" / "twrc" / "__init__.py").is_file():
        print(f"perfbench: no package source under {HERE.parent / 'src'}", file=sys.stderr)
        return 2
    i = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[i:i + 1] != ["all"]:
        return run_one(argv)
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return max(run_one(argv[:i] + [w["name"]] + argv[i + 1:]) for w in manifest["workloads"])


if __name__ == "__main__":
    sys.exit(main())
