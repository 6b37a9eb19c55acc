"""Command-line front end: scenario files, figure presets, sweeps, CSV/JSON output.

Gains are given in dB at this boundary only.  All emitted numbers carry 12
significant digits so repeated runs diff clean.

Scenario file format (flat key = value lines, each key at most once, '#' comments):

    name = my-case
    gamma1_db = 10
    gamma2_db = 15
    gamma3_db = 3
    theta_points = 181          # optional, default 181
    alpha_grid = 33             # optional, default 33
    protocols = outer, mabc     # optional, default: outer bound only
    outputs = ./results         # optional, default '.'

`compare --protocols`, `--theta-points` and `--alpha-grid` override the file;
without `--protocols`, `compare` runs the file's list (every protocol for a preset).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import achievable
from .core import (
    ZERO_SHARES,
    ChannelGains,
    ValidationError,
    as_integer,
    as_real,
    db_to_linear,
    is_ra_axis,
    linear_to_db,
    validate_gains,
)
from .lp import SolverError
from .outer import (
    analytic_rb_bound,
    capacity_thresholds,
    one_way_bound,
    one_way_bound_ab,
    outer_evaluator,
    outer_ratio_bound,  # noqa: F401 -- perfbench/spans.py wraps cli's binding
)
from .region import Region, SweepError, max_radial_gap, ray_ratio, sweep_region, symmetric_rate

SCHEMA_VERSION = 1


def _analytic_point(k: float, gains: ChannelGains):
    """The closed-form outer bound on the ray Ra = k*Rb (no time shares)."""
    if is_ra_axis(k):
        return achievable.BoundaryPoint(one_way_bound_ab(gains), 0.0, ZERO_SHARES)
    rb = one_way_bound(gains) if k == 0.0 else analytic_rb_bound(k, gains)
    return achievable.BoundaryPoint(k * rb, rb, ZERO_SHARES)


# protocol or bound id -> evaluator factory (gains, alpha_grid) -> (k -> point);
# the only list of ids.  An LP family's factory states the channel's system and
# builds its program once, so a ray only ties column 0, derives its program,
# solves it and expands the shares.  Six-state DF states its channel once too,
# with its seed power-split columns, and a ray prices new splits into its
# master LP on its tied program.  A factory looks its functions up when
# called, so a rebound module attribute takes effect.
_EVALUATORS = {
    "outer": lambda g, a: outer_evaluator(g),
    "outer-analytic": lambda g, a: lambda k: _analytic_point(k, g),
    "mabc": lambda g, a: achievable.ray_evaluator(achievable.mabc_system(g)),
    "tdbc": lambda g, a: achievable.ray_evaluator(achievable.hbc_system(g, tdbc_only=True)),
    "hbc": lambda g, a: achievable.ray_evaluator(achievable.hbc_system(g)),
    "six-state-df": lambda g, a: achievable.df_evaluator(g, a),
    "six-state": lambda g, a: achievable.ray_evaluator(achievable.six_state_system(g)),
    "comabc": lambda g, a: achievable.ray_evaluator(achievable.comabc_system(g)),
}
PROTOCOL_IDS = tuple(_EVALUATORS)
# what `compare --preset` runs by default: every protocol, no extra bound
_COMPARE_DEFAULT = tuple(p for p in PROTOCOL_IDS if not p.startswith("outer"))


def protocol_evaluator(name: str, gains: ChannelGains, alpha_grid: int = 33):
    """Per-ray evaluator for a protocol or bound identifier on one channel."""
    if name not in _EVALUATORS:
        raise ValidationError(f"unknown protocol {name!r}")
    return _EVALUATORS[name](gains, alpha_grid)


# largest accepted sweep sizes: a 0.025-degree ray grid, 257 DF seed power
# splits a broadcast state (a master LP of 531 columns) and a 0.001-dB
# threshold grid over 100 dB
MAX_THETA_POINTS = 3601
MAX_ALPHA_GRID = 257
MAX_GAMMA2_POINTS = 100_001

# gamma1, gamma2, gamma3 in dB
PRESETS = {
    "case-a": (10.0, 15.0, 3.0),
    "case-b": (20.0, 20.0, 8.0),
    "case-c": (30.0, 35.0, 13.0),
    "low-snr": (0.0, 5.0, -7.0),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    gamma1_db: float
    gamma2_db: float
    gamma3_db: float
    theta_points: int = 181
    alpha_grid: int = 33
    protocols: tuple[str, ...] = ()
    outputs: str = "."

    def __post_init__(self) -> None:
        # the name becomes an output file-name prefix, so it must stay inside --out
        if self.name in ("", ".", "..") or any(ch in self.name for ch in "/\\\0"):
            raise ValidationError(
                f"scenario name must be a plain file name without path separators, "
                f"got {self.name!r}")
        for nm in ("gamma1_db", "gamma2_db", "gamma3_db"):
            v = as_real(getattr(self, nm))
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidationError(f"{nm} must be finite, got {v!r}")
            object.__setattr__(self, nm, v)
        for nm in ("theta_points", "alpha_grid"):
            object.__setattr__(self, nm, as_integer(nm, getattr(self, nm)))
        if not 3 <= self.theta_points <= MAX_THETA_POINTS:
            raise ValidationError(
                f"theta_points must be >= 3 and <= {MAX_THETA_POINTS}, got {self.theta_points}")
        if not 2 <= self.alpha_grid <= MAX_ALPHA_GRID:
            raise ValidationError(
                f"alpha_grid must be >= 2 and <= {MAX_ALPHA_GRID}, got {self.alpha_grid}")
        for p in self.protocols:
            if p not in PROTOCOL_IDS:
                raise ValidationError(
                    f"unknown protocol {p!r}; known: {', '.join(PROTOCOL_IDS)}")

    def gains(self, auto_swap: bool = True) -> ChannelGains:
        return validate_gains(
            db_to_linear(self.gamma1_db),
            db_to_linear(self.gamma2_db),
            db_to_linear(self.gamma3_db),
            auto_swap=auto_swap,
        )


def preset_scenario(name: str, **overrides) -> Scenario:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    g1, g2, g3 = PRESETS[name]
    return Scenario(name=name, gamma1_db=g1, gamma2_db=g2, gamma3_db=g3, **overrides)


_INT_KEYS = ("theta_points", "alpha_grid")
_FLOAT_KEYS = ("gamma1_db", "gamma2_db", "gamma3_db")


def load_scenario(path: str | Path) -> Scenario:
    """Parse a flat key = value scenario file (see the module docstring)."""
    path = Path(path)
    fields: dict = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        if key == "name" or key == "outputs":
            fields[key] = value
        elif key in _FLOAT_KEYS or key in _INT_KEYS:
            kind, noun = (float, "a number") if key in _FLOAT_KEYS else (int, "an integer")
            try:
                fields[key] = kind(value)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: {key} must be {noun}, got {value!r}")
        elif key == "protocols":
            fields[key] = tuple(p.strip() for p in value.split(",") if p.strip())
        else:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
    missing = [k for k in ("name", *_FLOAT_KEYS) if k not in fields]
    if missing:
        raise ValidationError(f"{path}: missing required keys: {', '.join(missing)}")
    return Scenario(**fields)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


_CSV_HEADER = ("theta_deg,k,ra,rb,lambda1,lambda2,lambda3,lambda4,lambda5,lambda6,"
               "active_state_count")


def _region_csv(reg: Region, mirrored: bool) -> str:
    """CSV rows for a swept region, mirrored back to the caller's orientation
    when the gains were relabeled."""
    rows = []
    for theta, p in zip(reg.thetas_deg, reg.points):
        ra, rb = p.ra, p.rb
        lams = p.shares.as_tuple()
        if mirrored:
            theta = 90.0 - theta
            ra, rb = rb, ra
            lams = (lams[1], lams[0], lams[2], lams[3], lams[5], lams[4])
        rows.append((theta, ray_ratio(theta), ra, rb, *lams, len(p.shares.active_states())))
    rows.sort(key=lambda r: r[0])
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(",".join([_fmt(v) for v in r[:-1]] + [str(r[-1])]))
    return "\n".join(lines) + "\n"


def run_compare(scenario: Scenario, auto_swap: bool = True,
                out_dir: str | Path | None = None) -> list[Path]:
    """Sweep the outer bound plus every requested protocol; emit CSVs and a summary.

    Returns the written paths.  Output is deterministic byte-for-byte for
    identical inputs.
    """
    gains = scenario.gains(auto_swap=auto_swap)
    out = Path(out_dir if out_dir is not None else scenario.outputs)
    # an unusable --out fails before the sweeps; nothing is made until after them
    base = out
    while not base.exists() and base != base.parent:
        base = base.parent
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise OSError(f"cannot make {str(out)!r}: {str(base)!r} is not a writable directory")
    names = list(dict.fromkeys(["outer", *scenario.protocols]))
    regions: dict[str, Region] = {}
    for name in names:
        ev = protocol_evaluator(name, gains, scenario.alpha_grid)
        regions[name] = sweep_region(ev, gains, scenario.theta_points)

    # made only once every sweep succeeded, so a failed run leaves no empty directory
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        path = out / f"{scenario.name}_{name}.csv"
        path.write_text(_region_csv(regions[name], gains.swapped), newline="\n")
        written.append(path)

    outer_reg = regions["outer"]
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "name": scenario.name,
            "gamma1_db": scenario.gamma1_db,
            "gamma2_db": scenario.gamma2_db,
            "gamma3_db": scenario.gamma3_db,
            "theta_points": scenario.theta_points,
            "alpha_grid": scenario.alpha_grid,
            "auto_swap": bool(auto_swap),
            "swapped": bool(gains.swapped),
        },
        "protocols": {},
    }
    for name in names:
        reg = regions[name]
        gap, _ = max_radial_gap(outer_reg, reg)
        summary["protocols"][name] = {
            "symmetric_rate": float(_fmt(symmetric_rate(reg))),
            "sum_rate_max": float(_fmt(max(p.ra + p.rb for p in reg.points))),
            "max_gap_vs_outer": float(_fmt(gap)),
        }
    spath = out / f"{scenario.name}_summary.json"
    spath.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", newline="\n")
    written.append(spath)
    return written


def run_thresholds(gamma2_db_range: tuple[float, float, float],
                   c_values, out_path: str | Path) -> Path:
    """Sweep the direct-link capacity threshold over gamma2 for each c = gamma1/gamma2.

    Writes one CSV row (c, gamma2_db, threshold_db) per grid point.
    """
    lo, hi, step = gamma2_db_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValidationError(f"bad gamma2 dB range: {lo}..{hi}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"range step must be > 0, got {step}")
    c_values = tuple(float(c) for c in c_values)
    if not c_values:
        raise ValidationError("no c values given: need at least one c = gamma1/gamma2 in (0, 1]")
    for c in c_values:
        if not 0.0 < c <= 1.0:
            raise ValidationError(f"c must lie in (0, 1], got {c}")

    # grid points lo + i*step up to hi, with hi itself kept despite round-off
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GAMMA2_POINTS:
        raise ValidationError(
            f"gamma2 grid must have <= {MAX_GAMMA2_POINTS} points, got {lo}:{hi}:{step}")
    grid = [lo + i * step for i in range(math.floor(steps) + 1)]

    lines = ["c,gamma2_db,threshold_db"]
    for c in c_values:
        for db in grid:
            g2 = db_to_linear(db)
            g1 = c * g2
            th = capacity_thresholds(ChannelGains(g1, g2, 0.0))
            lines.append(f"{_fmt(c)},{_fmt(db)},{_fmt(linear_to_db(th.operative))}")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", newline="\n")
    return out_path


def _scenario_from_args(args, protocols=None) -> Scenario:
    """The --scenario or --preset scenario with the command-line overrides;
    ``protocols`` replaces its list (a preset's is every protocol)."""
    if args.scenario:
        sc = load_scenario(args.scenario)
    elif args.preset:
        sc = preset_scenario(args.preset, protocols=_COMPARE_DEFAULT)
    else:
        raise ValidationError("provide either --scenario FILE or --preset NAME")
    overrides = {key: getattr(args, key) for key in _INT_KEYS
                 if getattr(args, key) is not None}
    if protocols is not None:
        overrides["protocols"] = protocols
    return dataclasses.replace(sc, **overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", help="path to a scenario file")
    source.add_argument("--preset", help="named preset: " + ", ".join(PRESETS))
    p.add_argument("--theta-points", type=int, default=None, dest="theta_points")
    p.add_argument("--alpha-grid", type=int, default=None, dest="alpha_grid")
    p.add_argument("--auto-swap", action=argparse.BooleanOptionalAction, default=True,
                   help="relabel terminals so gamma1 <= gamma2 (default on)")
    p.add_argument("--out", default=None, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twrc",
                                 description="Two-way relay channel rate-region toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_cmp = sub.add_parser("compare", help="sweep the outer bound and protocols")
    _add_common(p_cmp)
    p_cmp.add_argument("--protocols",
                       help="comma-separated protocol ids (default: the scenario file's "
                            "list, which is the outer bound only if it has none; every "
                            "protocol with --preset)")

    p_out = sub.add_parser("outer", help="sweep the outer bound only")
    _add_common(p_out)

    p_sw = sub.add_parser("sweep", help="sweep a single protocol or bound")
    _add_common(p_sw)
    p_sw.add_argument("--protocol", required=True, choices=PROTOCOL_IDS)

    p_th = sub.add_parser("thresholds", help="direct-link capacity thresholds vs gamma2")
    p_th.add_argument("--gamma2-db", required=True, metavar="LO:HI:STEP",
                      help="gamma2 sweep range in dB, e.g. 0:40:1; a range that "
                           "starts below 0 dB needs the = form, e.g. --gamma2-db=-40:40:1")
    p_th.add_argument("--c-values", default="1,0.5,0.1",
                      help="comma-separated gamma1/gamma2 ratios in (0, 1]")
    p_th.add_argument("--out", default=".", help="output directory")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "thresholds":
            try:
                lo, hi, step = (float(v) for v in args.gamma2_db.split(":"))
            except ValueError:
                raise ValidationError(f"--gamma2-db expects LO:HI:STEP, got {args.gamma2_db!r}")
            try:
                c_values = [float(c) for c in args.c_values.split(",") if c.strip()]
            except ValueError:
                raise ValidationError(
                    f"--c-values expects comma-separated numbers, got {args.c_values!r}")
            out = Path(args.out) / "thresholds.csv"
            paths = [run_thresholds((lo, hi, step), c_values, out)]
        else:
            if args.command == "outer":
                protocols = ()
            elif args.command == "sweep":
                protocols = (args.protocol,)
            elif args.protocols is not None:
                protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
            else:
                protocols = None
            sc = _scenario_from_args(args, protocols)
            paths = run_compare(sc, auto_swap=args.auto_swap, out_dir=args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except SweepError as exc:
        # a failing ray exits as its cause would, with the angle in the message
        if isinstance(exc.__cause__, SolverError):
            print(f"solver error: {exc}: {exc.__cause__}", file=sys.stderr)
            return 3
        if isinstance(exc.__cause__, ValidationError):
            print(f"error: {exc}: {exc.__cause__}", file=sys.stderr)
            return 2
        raise
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
