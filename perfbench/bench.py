"""Measuring process: one workload, one seed, traced or untraced.

Started by ``run.py`` with BLAS threads pinned to 1.  Imports the package from
the checkout's ``src/``, runs timed passes of the workload for the given
number of seconds, checks the first pass against the HiGHS reference and the
other passes against the first pass's digests, then prints a report and, as
the last line, the result object.  With ``--setup-only`` it only imports the
package and builds the inputs (what ``setup_s`` times).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Tail percentiles on offer; the tail metric uses the highest one that leaves
# at least TAIL_BEYOND of a pass's calls above it, or the slowest call where
# a pass has too few.
# p99.9 is left out: on a shared 2-CPU machine its few samples measure the
# neighbours' bursts more than the package (run-to-run spread 0.33 vs 0.1).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Printed with the end-to-end metrics but left out of BENCHMARK.json, so not
# gated: over ten runs of one code its spread reached 0.16-0.24 of the median
# (the slowest calls meet the host's fast spells least often), about the
# largest bound a gated metric may have.
REPORTED_ONLY = {"point_ms_tail": "ms"}


def load_twrc():
    src = ROOT / "src"
    if not (src / "twrc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}/twrc")
    sys.path.insert(0, str(src))
    import twrc

    if Path(twrc.__file__).resolve().parent != (src / "twrc").resolve():
        sys.exit(f"perfbench: imported twrc from {twrc.__file__}, not from {src}")
    return twrc


def manifest_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in manifest order, for 'end_to_end' or 'per_layer'."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[section]}


def tail_percentile(n_min: int) -> float:
    for p in TAIL_LADDER:
        if n_min * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n_min} samples are too few for a tail percentile")


def nearest_rank(sorted_vals, p: float) -> float:
    return sorted_vals[max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)]


def source_fingerprint() -> str:
    """Digest of the package and benchmark sources: what makes two runs 'the same code'."""
    h = hashlib.sha256()
    files = [*(ROOT / "src" / "twrc").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for f in sorted(files):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def compare_with_previous(key: str, digests: dict) -> str:
    """Compare with the digests an earlier run of the same code and inputs left."""
    path = OUT / "digests.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    before = record.get(key)
    record[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    if before is None:
        return "first run of this code and input"
    return "identical" if before == digests else "DIFFERENT"


def run_passes(w, seconds: float, traced_every_other: bool, tracer):
    """Timed passes until the budget would be overrun by one more median pass.

    Untraced runs make at least ``w.min_passes`` passes; traced runs alternate
    untraced and traced passes and make at least one of each.

    The cyclic garbage collector runs once at the end of each pass, inside
    its time, instead of whenever allocations cross its threshold: there its
    pauses fell on some calls in some passes and on others in the rest, and
    the p99 of presets-compare's call times differed by up to 25% between the
    odd and the even passes of one run (1-3% with the collection deferred).
    What the benchmark keeps between passes is frozen out of later scans.
    """
    from spans import instrument
    from workloads import PassRecord

    passes = []
    t_start = time.perf_counter()
    gc.collect()
    gc.freeze()
    gc.disable()
    w.start()
    try:
        while True:
            traced = traced_every_other and len(passes) % 2 == 1
            rec = PassRecord()
            patches = instrument(w.twrc, tracer) if traced else None
            lo = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            try:
                w.run_pass(rec)
                gc.collect()
            finally:
                rec.wall_s = time.perf_counter() - t0
                if patches is not None:
                    patches.restore()
            rec.traced = traced
            rec.span_range = (lo, len(tracer.spans)) if traced else None
            rec.digest = rec.digests()
            rec.n_bytes = rec.bytes_written()
            rec.attempted = len(rec.calls)
            rec.latency_ns = [c.ns for c in rec.calls
                              if w.latency_family in (None, c.family)]
            if passes:
                rec.calls = None  # only the first pass is checked in full
            else:
                # peak memory of the package doing the workload once; later
                # passes would add the benchmark's own growing bookkeeping
                rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes.append(rec)
            gc.collect()
            gc.freeze()

            n_plain = sum(not p.traced for p in passes)
            if traced_every_other:
                enough = n_plain >= 1 and len(passes) > n_plain
            else:
                enough = n_plain >= w.min_passes
            elapsed = time.perf_counter() - t_start
            if enough and elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                return passes
    finally:
        w.stop()
        gc.enable()
        gc.unfreeze()


@dataclass
class Verification:
    verdict: object  # reference.Verdict of the first pass
    raised: list
    unexpected: list  # raised calls whose exception the package does not declare
    output_problems: list[str]
    stable: bool  # every pass gave the first pass's digests
    vs_previous: str
    combined: str

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.verdict.bad)

    def correct(self, expect_exact: bool) -> bool:
        return (self.stable and self.vs_previous != "DIFFERENT" and not self.unexpected
                and not self.output_problems and self.verdict.reference_errors == 0
                and (self.failed == 0 or not expect_exact))


def verify(twrc, w, passes, key: str) -> Verification:
    """Checks made after the timed section: reference, outputs, determinism."""
    import reference

    first = passes[0]
    raised = [c for c in first.calls if c.raised]
    return Verification(
        verdict=reference.check_calls(twrc, first.calls),
        raised=raised,
        unexpected=[c for c in raised
                    if not isinstance(c.result, (twrc.ValidationError, twrc.SolverError))],
        output_problems=w.check_outputs(first) if hasattr(w, "check_outputs") else [],
        stable=all(p.digest == first.digest for p in passes),
        vs_previous=compare_with_previous(f"{key}|src={source_fingerprint()}", first.digest),
        combined=hashlib.sha256(json.dumps(first.digest, sort_keys=True).encode()).hexdigest(),
    )


def fastest(passes) -> tuple[list[int], float]:
    """(each timed call's fastest time over the passes, sorted; the pass time).

    Every pass makes the same calls.  The pass time is the sum of the calls'
    fastest times and the fastest time of the rest of the pass (its time
    outside the timed calls).
    """
    n = len(passes[0].latency_ns)
    if any(len(p.latency_ns) != n for p in passes):
        raise RuntimeError("passes made different numbers of calls")
    calls = sorted(min(times) for times in zip(*(p.latency_ns for p in passes)))
    rest = min(p.wall_s - sum(p.latency_ns) / 1e9 for p in passes)
    return calls, sum(calls) / 1e9 + rest


def end_to_end(w, plain, setup_s: float, setup_runs: int, peak_rss_mb: float):
    """(name -> value, name -> note) of the end-to-end metrics, untraced passes only.

    Times are fastest over the passes, call by call.  On a shared 2-vCPU host
    the speed switches between a fast and a slow state, 1.3-1.4x apart, within
    a second and for tens of seconds at a time, so a mean or a median over
    passes follows how much of a run fell in slow spells (ten runs of
    presets-compare: spread 0.19-0.30 of the median).  A call well under a
    second, repeated in 20 or more passes, meets a fast spell at least once,
    so its fastest time is steady (six random-wide runs: spread 0.03-0.05,
    against 0.10-0.14 for the calls' medians over passes).  The latency
    percentiles are taken over the calls' fastest times, so the tail is that
    of the calls' own cost, not of the neighbours' bursts.
    """
    lat_of = "df calls" if w.latency_family == "df" else "calls"
    calls, wall = fastest(plain)
    each = f"each its fastest of {len(plain)} passes"
    try:
        tail_p = tail_percentile(len(calls))
        tail = nearest_rank(calls, tail_p)
        tail_note = f"p{tail_p:g} of {len(calls)} {lat_of}, {each}"
    except ValueError:  # too few calls for TAIL_BEYOND beyond a percentile
        tail = calls[-1]
        tail_note = f"slowest of {len(calls)} {lat_of} (too few for a tail), {each}"
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "points_per_s": plain[0].attempted / wall,
        "point_ms_p50": statistics.median(calls) / 1e6,
        "point_ms_tail": tail / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {setup_runs} fresh interpreters: import twrc + build inputs",
        "wall_s": f"one pass: {lat_of} and the rest, {each}",
        "points_per_s": f"{plain[0].attempted} evaluator/bound calls a pass, over wall_s",
        "point_ms_p50": f"median of {len(calls)} {lat_of}, {each}",
        "point_ms_tail": tail_note,
        "peak_rss_mb": "ru_maxrss of the measuring process after its first pass",
    }
    return values, notes


def per_layer(tracer, passes, wall_plain: float):
    """Per-layer metrics of the traced passes: counts of the first, medians of times."""
    from spans import layer_metrics

    traced = [p for p in passes if p.traced]
    per = [layer_metrics(tracer, *p.span_range) for p in traced]
    layer = {}
    for name in per[0]:
        exact = name.endswith((".calls", ".fails", "lps_per_point")) or name == "lp.phase1_share"
        layer[name] = per[0][name] if exact else statistics.median(m[name] for m in per)
    layer["cli.bytes_written"] = passes[0].n_bytes
    wall_traced = fastest(traced)[1]
    layer["trace.overhead_s"] = wall_traced - wall_plain
    counts_repeat = all(m[n] == per[0][n] for m in per for n in per[0] if n.endswith(".calls"))
    print(f"tracing overhead: traced wall_s {wall_traced:.6g} - untraced wall_s "
          f"{wall_plain:.6g} = {wall_traced - wall_plain:.6g} s; call counts "
          f"{'repeat' if counts_repeat else 'DIFFER'} across {len(traced)} traced passes")
    return layer, counts_repeat


def write_spans(path: Path, tracer, passes) -> None:
    with path.open("w") as f:
        f.write(json.dumps({"passes": [p.span_range for p in passes if p.traced],
                            "evaluators": tracer.family}) + "\n")
        for s in tracer.spans:
            f.write(json.dumps(s) + "\n")


def print_verification(v: Verification, attempted: int, n_passes: int) -> None:
    import reference

    checked = v.verdict.checked
    print(f"  {'fail_frac':<14} {len(v.raised) / attempted:>12.6g}      "
          f"{len(v.raised)} of {attempted} calls raised")
    print(f"  {'mismatch_frac':<14} {len(v.verdict.bad) / checked if checked else 0.0:>12.6g}      "
          f"{len(v.verdict.bad)} of {checked} results disagree with HiGHS "
          f"(value rtol {reference.VALUE_RTOL:g}, violation {reference.VIOLATION_TOL:g})")
    for reason, n in sorted(v.verdict.reasons.items()):
        print(f"    mismatch {reason}: {n}")
    for c in v.raised:
        print(f"    raised {c.family} k={c.k!r} gains={c.gains.as_tuple()}: "
              f"{type(c.result).__name__}: {c.result}")
    for problem in v.output_problems:
        print(f"    output problem: {problem}")
    if v.verdict.reference_errors:
        print(f"    reference could not solve {v.verdict.reference_errors} programs")
    print(f"digests: {v.combined[:16]}; {'identical' if v.stable else 'DIFFERENT'} across "
          f"{n_passes} passes; vs previous run: {v.vs_previous}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (self-check)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-s", type=float, default=math.nan)
    ap.add_argument("--setup-runs", type=int, default=0)
    args = ap.parse_args(argv)

    twrc = load_twrc()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    workdir = OUT / f"{tag}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](twrc, args.seed, args.tiny, workdir)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes = run_passes(w, args.seconds, bool(args.trace), tracer)
    v = verify(twrc, w, passes, tag)
    plain = [p for p in passes if not p.traced]
    attempted = passes[0].attempted

    env = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "scipy": __import__("scipy").__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_VARS},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}: {len(passes)} passes "
          f"({len(plain)} untraced), closed loop, 1 caller")
    print("env: " + json.dumps(env, sort_keys=True))
    values, notes = end_to_end(w, plain, args.setup_s, args.setup_runs, passes[0].peak_rss_mb)
    units = manifest_units("end_to_end")
    for name, val in values.items():
        unit = units.get(name) or REPORTED_ONLY[name]
        print(f"  {name:<14} {val:>12.6g} {unit:<4} {notes[name]}"
              + (" (not gated)" if name in REPORTED_ONLY else ""))
    print_verification(v, attempted, len(passes))
    correct = v.correct(w.expect_exact)
    full = {"workload": args.workload, "seed": args.seed, "env": env,
            "digests": passes[0].digest, "raised": len(v.raised),
            "mismatched": len(v.verdict.bad), "checked": v.verdict.checked,
            "mismatch_reasons": v.verdict.reasons, "passes": [p.wall_s for p in passes],
            "end_to_end": values, "end_to_end_notes": notes}
    if args.trace:
        values, counts_repeat = per_layer(tracer, passes, values["wall_s"])
        correct = correct and counts_repeat
        units = manifest_units("per_layer")
        for name, val in values.items():
            print(f"  {name:<40} {val:.6g} {units[name]}")
        write_spans(workdir / "spans.jsonl", tracer, passes)
        full["per_layer"] = values
    if set(values) - set(REPORTED_ONLY) != set(units):
        raise RuntimeError("metrics differ from the manifest: "
                           f"{sorted((set(values) - set(REPORTED_ONLY)) ^ set(units))}")
    print(f"correct: {str(correct).lower()}"
          + ("" if w.expect_exact else " (this workload counts known defects in failed)"))
    (workdir / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": v.failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
