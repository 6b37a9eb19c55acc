"""Spans at the package's module boundaries, recorded from outside ``src/``.

The package binds its collaborators by name (``from .lp import solve_lp``),
so a boundary is traced by replacing that name in each module that calls
through it and restoring it afterwards.  Nothing inside the package changes.

A span is ``(id, parent, evaluator, name, t0_ns, t1_ns, ok, phase1)``: the
parent is the enclosing span, the evaluator is the span of the per-ray
evaluator (or bound) the call serves, and ``phase1`` is set on ``solve_lp``
spans whose program needs phase 1 (an ``=``/``>=`` row or a negative rhs).
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

LP_FAMILIES = ("outer", "mabc", "tdbc", "hbc", "six-state", "comabc", "df")
PROTOCOLS = ("mabc", "tdbc", "hbc", "six_state", "comabc", "six_state_df")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.family: dict[int, str] = {}  # evaluator span id -> LP family
        self._stack: list[tuple[int, int]] = []  # (span id, evaluator span id)
        self._next = 1

    def wrap(self, name: str, fn, family: str | None = None, phase1=None):
        """``fn`` recording one span per call; ``family`` marks an evaluator."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent, ev = stack[-1] if stack else (0, 0)
            if family is not None:
                ev = sid
                self.family[sid] = family
            stack.append((sid, ev))
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, ev, name, t0, t1, ok,
                              phase1(args[0]) if phase1 is not None else None))

        return traced


def needs_phase1(lp) -> bool:
    return any(r != "<=" for r in lp.relations) or bool((lp.rhs < 0.0).any())


class _SharesProxy:
    """Stands in for ``TimeShares`` where a module only calls ``from_sequence``."""

    def __init__(self, real, from_sequence):
        self._real = real
        self.from_sequence = from_sequence

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Patches:
    """Replace module attributes, remembering the originals for ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def instrument(twrc, tracer: Tracer) -> Patches:
    """Wrap every boundary the per-layer metrics name; returns the undo record."""
    ach, outer, region, cli = twrc.achievable, twrc.outer, twrc.region, twrc.cli
    p = Patches()
    w = tracer.wrap

    solve = w("lp.solve_lp", twrc.lp.solve_lp, phase1=needs_phase1)
    build = w("lp.LinearProgram", twrc.lp.LinearProgram)
    caps = w("core.link_capacities", twrc.core.link_capacities)
    shares = _SharesProxy(twrc.core.TimeShares,
                          w("core.TimeShares", twrc.core.TimeShares.from_sequence))
    for mod in (ach, outer):
        p.set(mod, "solve_lp", solve)
        p.set(mod, "LinearProgram", build)
        p.set(mod, "link_capacities", caps)
        p.set(mod, "TimeShares", shares)

    for attr, name, fam in (("mabc_boundary", "mabc", "mabc"),
                            ("six_state_boundary", "six_state", "six-state"),
                            ("comabc_boundary", "comabc", "comabc"),
                            ("six_state_df_boundary", "six_state_df", "df")):
        p.set(ach, attr, w(f"achievable.{name}", getattr(ach, attr), family=fam))
    hbc = w("achievable.hbc", ach.hbc_boundary, family="hbc")
    tdbc = w("achievable.tdbc", ach.hbc_boundary, family="tdbc")

    def hbc_boundary(k, gains, tdbc_only=False):
        return (tdbc if tdbc_only else hbc)(k, gains, tdbc_only=tdbc_only)

    p.set(ach, "hbc_boundary", hbc_boundary)

    # each module's current binding is wrapped, so timing hooks stay inside
    p.set(outer, "outer_weighted_bound",
          w("outer.outer_weighted_bound", outer.outer_weighted_bound, family="outer"))
    for mod in (outer, cli):
        p.set(mod, "outer_ratio_bound",
              w("outer.outer_ratio_bound", mod.outer_ratio_bound, family="outer"))
        p.set(mod, "capacity_thresholds",
              w("outer.capacity_thresholds", mod.capacity_thresholds))
    for mod, attrs in ((outer, ("analytic_rb_bound", "analytic_weighted_bound",
                                "one_way_bound", "one_way_bound_ab")),
                       (cli, ("analytic_rb_bound", "one_way_bound", "one_way_bound_ab"))):
        for attr in attrs:
            p.set(mod, attr, w("outer.analytic", getattr(mod, attr)))

    p.set(region, "convex_hull", w("region.convex_hull", region.convex_hull))
    for attr in ("sweep_region", "max_radial_gap", "symmetric_rate"):
        p.set(cli, attr, w(f"region.{attr}", getattr(cli, attr)))
    for attr in ("run_compare", "run_thresholds"):
        p.set(cli, attr, w(f"cli.{attr}", getattr(cli, attr)))
    return p


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts and self times over ``tracer.spans[lo:hi]`` (one pass)."""
    spans = tracer.spans[lo:hi]
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        child_ns[s[1]] += s[5] - s[4]
    calls: dict[str, int] = defaultdict(int)
    fails: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    lp_ns: dict[str, list[int]] = defaultdict(list)
    phase1 = 0
    for sid, _, ev, name, t0, t1, ok, p1 in spans:
        calls[name] += 1
        fails[name] += not ok
        own = t1 - t0 - child_ns.get(sid, 0)
        self_ns[name] += own
        if name == "lp.solve_lp":
            fam = tracer.family.get(ev, "none")
            calls[f"lp.solve_lp.{fam}"] += 1
            self_ns[f"lp.solve_lp.{fam}"] += own
            lp_ns[fam].append(t1 - t0)
            phase1 += bool(p1)

    m: dict[str, float] = {}

    def put(name: str, with_calls: bool = True) -> None:
        if with_calls:
            m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9

    put("lp.solve_lp")
    m["lp.solve_lp.fails"] = fails.get("lp.solve_lp", 0)
    for fam in LP_FAMILIES:
        put(f"lp.solve_lp.{fam}")
        durs = lp_ns.get(fam)
        m[f"lp.solve_lp.{fam}.us_p50"] = statistics.median(durs) / 1e3 if durs else 0.0
    n_lp = calls.get("lp.solve_lp", 0)
    m["lp.phase1_share"] = phase1 / n_lp if n_lp else 0.0
    for name in ("lp.LinearProgram", "core.TimeShares", "core.link_capacities"):
        put(name)
    for proto in PROTOCOLS:
        put(f"achievable.{proto}")
    df_points = calls.get("achievable.six_state_df", 0)
    m["achievable.six_state_df.lps_per_point"] = (
        calls.get("lp.solve_lp.df", 0) / df_points if df_points else 0.0)
    for name in ("outer_ratio_bound", "outer_weighted_bound", "analytic", "capacity_thresholds"):
        put(f"outer.{name}")
    for name in ("sweep_region", "convex_hull", "max_radial_gap", "symmetric_rate"):
        put(f"region.{name}", with_calls=False)
    for name in ("run_compare", "run_thresholds"):
        put(f"cli.{name}", with_calls=False)
    return m
