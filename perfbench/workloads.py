"""The three benchmark workloads and the per-call record each pass keeps.

All load comes from one caller in a closed loop: each call starts when the
previous one has returned.  Inputs come from the seed alone; the package
receives only the generated gains, rays and scenarios.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Patches

# ray kinds of random-wide, cycled by channel index; None draws k log-uniformly
RANDOM_KS = (0.0, 1.0, 1e6, math.inf, None)  # 1e6 stands for 'large k'


@dataclass
class Call:
    """One evaluator or bound call: what was asked, what came back, how long."""

    family: str
    gains: object
    k: float
    result: object  # the returned value, or the exception raised
    ns: int
    weights: tuple[float, float] | None = None

    @property
    def raised(self) -> bool:
        return isinstance(self.result, Exception)


class PassRecord:
    """One timed pass: its calls and files, and what was measured of it."""

    def __init__(self) -> None:
        self.calls: list[Call] | None = []  # dropped after the pass but the first
        self.paths: list[Path] = []
        self.wall_s = 0.0
        self.traced = False
        self.span_range: tuple[int, int] | None = None
        self.digest: dict[str, str] = {}
        self.n_bytes = 0
        self.attempted = 0
        self.latency_ns: list[int] = []
        self.peak_rss_mb = math.nan

    def digests(self) -> dict[str, str]:
        """sha256 of every file the pass wrote, plus one over all call results."""
        out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.paths}
        h = hashlib.sha256()
        for c in self.calls:
            h.update(_result_text(c).encode())
        out["<results>"] = h.hexdigest()
        return out

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.paths)


def _result_text(c: Call) -> str:
    r = c.result
    if isinstance(r, Exception):
        return f"{c.family}|{type(r).__name__}:{r}\n"
    if isinstance(r, float):
        return f"{c.family}|{r!r}\n"
    if hasattr(r, "operative"):
        return f"{c.family}|{r.operative!r}\n"
    shares = getattr(r, "shares", None)
    lam = shares.as_tuple() if shares is not None else ()
    return f"{c.family}|{r.ra!r},{r.rb!r},{lam!r}\n"


class _Recorder:
    """Times every call run_compare/run_thresholds make into the evaluators.

    Stands in for ``protocol_evaluator`` and ``capacity_thresholds`` in
    ``twrc.cli`` and appends each call to the current pass record.
    """

    def __init__(self, cli) -> None:
        self._evaluator = cli.protocol_evaluator
        self._thresholds = cli.capacity_thresholds
        self.rec: PassRecord | None = None

    def _timed(self, family, fn, gains, k, *args):
        calls = self.rec.calls
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:
            calls.append(Call(family, gains, k, exc, time.perf_counter_ns() - t0))
            raise
        calls.append(Call(family, gains, k, out, time.perf_counter_ns() - t0))
        return out

    def protocol_evaluator(self, name, gains, alpha_grid=33):
        ev = self._evaluator(name, gains, alpha_grid)
        family = "df" if name == "six-state-df" else name
        return lambda k: self._timed(family, ev, gains, k, k)

    def capacity_thresholds(self, gains, *args):
        return self._timed("thresholds", self._thresholds, gains, math.nan, gains, *args)


class _CompareWorkload:
    """Shared driver of the two run_compare workloads."""

    expect_exact = True  # every result must agree with the reference

    def __init__(self, twrc, workdir: Path) -> None:
        self.twrc = twrc
        self.dir = workdir
        self.recorder = _Recorder(twrc.cli)
        self.patches = Patches()
        self.thresholds = None

    def start(self) -> None:
        cli = self.twrc.cli
        self.patches.set(cli, "protocol_evaluator", self.recorder.protocol_evaluator)
        self.patches.set(cli, "capacity_thresholds", self.recorder.capacity_thresholds)

    def stop(self) -> None:
        self.patches.restore()

    def run_pass(self, rec: PassRecord) -> None:
        cli = self.twrc.cli
        self.recorder.rec = rec
        for sc in self.scenarios:
            try:
                rec.paths += cli.run_compare(sc, out_dir=self.dir)
            except (self.twrc.SweepError, self.twrc.ValidationError, self.twrc.SolverError):
                pass  # the raising evaluator call is already recorded
        if self.thresholds is not None:
            rng, cs = self.thresholds
            rec.paths.append(cli.run_thresholds(rng, cs, self.dir / "thresholds.csv"))

    def check_outputs(self, rec: PassRecord) -> list[str]:
        """Each summary's symmetric rate is its sweep's k = 1 point, to 12 digits."""
        at_k1 = {(c.gains.as_tuple(), c.family): c.result.rb
                 for c in rec.calls if c.k == 1.0 and not c.raised}
        problems = []
        for sc in self.scenarios:
            summary = json.loads((self.dir / f"{sc.name}_summary.json").read_text())
            gains = sc.gains().as_tuple()
            for proto, entry in summary["protocols"].items():
                want = at_k1.get((gains, "df" if proto == "six-state-df" else proto))
                if want is None or entry["symmetric_rate"] != float(format(want, ".12g")):
                    problems.append(f"{sc.name} {proto}: symmetric_rate "
                                    f"{entry['symmetric_rate']} but the k=1 point has {want}")
        return problems


class PresetsCompare(_CompareWorkload):
    """Every preset and LP protocol, at theta_points 91 (half the default 181).

    A pass then takes about a second, so a run makes 20-30 of them, enough for
    nearly every call to meet a fast spell of the host once; at 181 rays a
    run made 12-15, and the median call's fastest time differed by 10%
    between the odd and the even passes of one run.
    """

    name = "presets-compare"
    min_passes = 3
    latency_family = None
    protocols = ("outer-analytic", "mabc", "tdbc", "hbc", "six-state", "comabc")

    def __init__(self, twrc, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(twrc, workdir)
        theta = 3 if tiny else 91
        self.scenarios = [twrc.preset_scenario(p, theta_points=theta, protocols=self.protocols)
                          for p in twrc.PRESETS]
        self.thresholds = ((0.0, 2.0 if tiny else 40.0, 1.0), (1.0, 0.5, 0.1))


class DfGrid(_CompareWorkload):
    """DF on one preset's five rays (theta_points 3 is the smallest sweep).

    alpha_grid 9 in place of the package default 33: 162 LPs a point (81 on
    the grid, 81 in the refinement) in 0.13-0.18 s, against 1170 in 1.6 s.
    The host switches between a fast and a slow state, 1.3x apart, for tens
    of seconds at a time; a 1.6-s point rarely fits in a fast spell, so at 33
    whole runs read fast or slow (wall_s 6.3 or 8.1 s, ten-run spread 0.15).
    A point in a 0.7-s pass is repeated 40-odd times a run, and its fastest
    time mostly meets a fast spell, as the sub-millisecond calls of the
    other workloads do; in a slow phase of a few minutes it does not.
    """

    name = "df-grid"
    min_passes = 3
    latency_family = "df"
    presets = ("case-a",)
    ALPHA_GRID = 9

    def __init__(self, twrc, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(twrc, workdir)
        grid = 2 if tiny else self.ALPHA_GRID
        self.scenarios = [twrc.preset_scenario(p, theta_points=3, alpha_grid=grid,
                                               protocols=("six-state-df",))
                          for p in self.presets]


class RandomWide:
    """Fresh seeded channels at extreme scales; every evaluator called directly.

    gamma2 is uniform in -50..70 dB, gamma1 up to 20 dB below it and gamma3 up
    to 30 dB below gamma1; every tenth channel has gamma3 = 0 and every tenth
    (offset 5) gamma3 = 1e-12 gamma1, every seventh gamma1 = gamma2.  Each
    channel gets one ray k from RANDOM_KS, so nothing is shared across rays;
    DF runs at alpha_grid 3 without the refinement pass (9 LPs a call, as in
    the acceptance tests) on every DF_EVERY-th channel, about a tenth of the
    pass: with refinement (90 LPs a call) DF took over half of it, and its
    few costly calls made the pass time swing with the seed.  DF_EVERY is
    prime to the ray, gamma3 and gamma1 = gamma2 cycles, so DF meets every
    case, and its calls stay well inside the slowest 1% of calls, so they do
    not decide the p99 tail.
    """

    name = "random-wide"
    min_passes = 3
    latency_family = None
    expect_exact = False  # known defects show here; they are counted, not gated
    DF_EVERY = 27
    DF_GRID = 3

    def __init__(self, twrc, seed: int, tiny: bool, workdir: Path) -> None:
        self.twrc = twrc
        rng = np.random.default_rng(seed)
        n = 30 if tiny else 480
        self.items = []
        for i in range(n):
            g2_db = rng.uniform(-50.0, 70.0)
            g1_db = g2_db if i % 7 == 6 else g2_db - rng.uniform(0.0, 20.0)
            g3_db = g1_db - rng.uniform(0.0, 30.0)
            k_draw = 10.0 ** rng.uniform(-3.0, 3.0)
            g1, g2 = twrc.db_to_linear(g1_db), twrc.db_to_linear(g2_db)
            g3 = {0: 0.0, 5: g1 * 1e-12}.get(i % 10, twrc.db_to_linear(g3_db))
            gains = twrc.validate_gains(g1, g2, g3)
            k = RANDOM_KS[i % len(RANDOM_KS)]
            k = k_draw if k is None else k
            self.items.extend(self._calls(gains, k, df=i % self.DF_EVERY == 0))

    def _calls(self, g, k: float, df: bool):
        """(family, module, function, args, kwargs, weights) for one channel."""
        ach, outer = self.twrc.achievable, self.twrc.outer
        if k == 0.0:
            analytic = ("one_way_bound", (g,))
        elif math.isinf(k):
            analytic = ("one_way_bound_ab", (g,))
        else:
            analytic = ("analytic_rb_bound", (k, g))
        wa, wb = (1.0, 0.0) if math.isinf(k) else (k, 1.0)
        out = [
            ("outer", outer, "outer_ratio_bound", (k, g), {}, None),
            ("mabc", ach, "mabc_boundary", (k, g), {}, None),
            ("tdbc", ach, "hbc_boundary", (k, g), {"tdbc_only": True}, None),
            ("hbc", ach, "hbc_boundary", (k, g), {}, None),
            ("six-state", ach, "six_state_boundary", (k, g), {}, None),
            ("comabc", ach, "comabc_boundary", (k, g), {}, None),
            ("analytic", outer, analytic[0], analytic[1], {}, None),
            ("outer-weighted", outer, "outer_weighted_bound", (wa, wb, g), {}, (wa, wb)),
            ("thresholds", outer, "capacity_thresholds", (g,), {}, None),
        ]
        if not math.isinf(k):
            out.append(("analytic-weighted", outer, "analytic_weighted_bound", (k, g), {},
                        (k, 1.0)))
        if df:
            out.append(("df", ach, "six_state_df_boundary", (k, g),
                        {"alpha_grid": self.DF_GRID, "refine": False}, None))
        return [(fam, mod, fn, args, kw, wts, g, k) for fam, mod, fn, args, kw, wts in out]

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def run_pass(self, rec: PassRecord) -> None:
        calls, clock = rec.calls, time.perf_counter_ns
        for fam, mod, fn, args, kw, wts, g, k in self.items:
            f = getattr(mod, fn)  # looked up per call so traced wrappers apply
            t0 = clock()
            try:
                out = f(*args, **kw)
            except Exception as exc:
                out = exc
            calls.append(Call(fam, g, k, out, clock() - t0, wts))


WORKLOADS = {w.name: w for w in (PresetsCompare, DfGrid, RandomWide)}
