"""Rate-region geometry: ray sweeps, convex-hull closure, and region comparisons.

A region is swept by evaluating a per-ray function on a grid of ray angles
measured from the Rb axis (theta = atan2(Ra, Rb)), closing the result into
the convex hull with the origin, and comparing regions by radial support
values along shared rays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ChannelGains, ValidationError, as_integer

_EPS = 1e-12


class SweepError(RuntimeError):
    """A per-ray evaluator failed during a sweep."""


class GainsMismatchError(ValueError):
    """Two regions over different channel gains were compared."""


@dataclass(frozen=True)
class Region:
    """A swept region boundary plus its convex closure.

    ``points`` are the per-ray boundary points in order of strictly
    increasing ray angle ``thetas_deg`` (0 = Rb axis, 90 = Ra axis);
    ``hull`` is the closed region's vertex loop in counter-clockwise order,
    always containing the origin.
    """

    points: tuple
    thetas_deg: tuple[float, ...]
    gains: ChannelGains
    hull: tuple[tuple[float, float], ...]

    @functools.cached_property
    def supports(self) -> dict[float, float]:
        """``support_along_ray`` of the hull at each swept angle, computed once."""
        return dict(zip(self.thetas_deg, supports_along_rays(self.hull, self.thetas_deg)))


def ray_ratio(theta_deg: float) -> float:
    """The ray ratio k = Ra/Rb = tan(theta) of a ray angle, exact on the
    symmetric ray (45 -> 1) and the Ra axis (90 -> inf)."""
    if theta_deg == 90.0:
        return math.inf
    return 1.0 if theta_deg == 45.0 else math.tan(math.radians(theta_deg))


def ray_grid(theta_points: int) -> list[tuple[float, float]]:
    """The sweep grid as (theta_deg, ``ray_ratio``) pairs, including both axis
    endpoints 0 and 90 degrees.

    ``theta_points`` interior angles span [0.5, 89.5] degrees uniformly; one
    within 1e-9 of 45 degrees is snapped to the symmetric ray.
    ``theta_points`` must be an integer (a numpy one too) of at least 3.
    """
    theta_points = as_integer("theta_points", theta_points)
    if theta_points < 3:
        raise ValidationError(f"theta_points must be >= 3, got {theta_points}")
    lo, hi = 0.5, 89.5
    step = (hi - lo) / (theta_points - 1)
    interior = (lo + i * step for i in range(theta_points))
    thetas = [0.0] + [45.0 if abs(t - 45.0) < 1e-9 else t for t in interior] + [90.0]
    return [(theta, ray_ratio(theta)) for theta in thetas]


def sweep_region(evaluator: Callable[[float], object], gains: ChannelGains,
                 theta_points: int = 181) -> Region:
    """Sweep a per-ray evaluator over the grid and close the region.

    ``evaluator(k)`` must return an object with ``ra`` and ``rb`` attributes
    (boundary point on the ray Ra = k*Rb; ``k = math.inf`` asks for the Ra
    axis).  Evaluator failures abort the sweep with the failing angle.
    """
    points = []
    thetas = []
    for theta, k in ray_grid(theta_points):
        try:
            p = evaluator(k)
        except Exception as exc:
            raise SweepError(f"evaluator failed at theta = {theta} deg (k = {k})") from exc
        points.append(p)
        thetas.append(theta)
    hull = convex_hull([(0.0, 0.0)] + [(p.ra, p.rb) for p in points])
    return Region(tuple(points), tuple(thetas), gains, tuple(hull))


def convex_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull (monotone chain), counter-clockwise, with every strict turn
    kept at any scale; then a vertex within ``_EPS`` of its radius of the chord
    of its kept neighbours (a round-off kink) is dropped, but never the first."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    kept = hull[:1]
    for b, c in zip(hull[1:], hull[2:] + hull[:1]):
        if cross(kept[-1], b, c) >= _EPS * math.dist(kept[-1], c) * math.hypot(*b):
            kept.append(b)
    return kept


def support_along_ray(hull: Sequence[tuple[float, float]], theta_deg: float) -> float:
    """Radial extent of a convex region (containing the origin) along a ray.

    The ray leaves the origin at ``theta_deg`` from the Rb axis; returns the
    distance to the boundary (0 for an empty/degenerate region off the ray).
    """
    return supports_along_rays(hull, [theta_deg])[0]


def supports_along_rays(hull: Sequence[tuple[float, float]],
                        thetas_deg: Sequence[float]) -> list[float]:
    """``support_along_ray`` at each of ``thetas_deg``, in one numpy pass over
    every (angle, vertex) pair.

    The support is the largest of 0, the radius of each vertex on the ray and
    the ray parameter of each edge the ray crosses; each candidate takes the
    same IEEE operations whatever the angle count, so the result does not
    depend on how the angles are batched.
    """
    if not hull:
        return [0.0] * len(thetas_deg)
    t = [math.radians(theta) for theta in thetas_deg]
    d0 = np.array([math.sin(a) for a in t]).reshape(-1, 1)  # one row per angle
    d1 = np.array([math.cos(a) for a in t]).reshape(-1, 1)
    p = np.array(hull, dtype=float)
    px, py = p[:, 0], p[:, 1]
    proj = px * d0 + py * d1
    off = px * d1 - py * d0
    # a vertex exactly on the ray (also covers degenerate segment hulls)
    on = (proj > 0.0) & (np.abs(off) <= 1e-9 * np.maximum(1.0, proj))
    best = np.where(on, [math.hypot(x, y) for x, y in hull], 0.0).max(axis=1, initial=0.0)
    if len(hull) >= 2:
        ex, ey = np.roll(px, -1) - px, np.roll(py, -1) - py  # edge to the next vertex
        denom = d0 * ey - d1 * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (px * ey - py * ex) / denom  # ray parameter at the crossing
            u = off / denom                  # position along the edge
        cross = (np.abs(denom) >= _EPS) & (s > 0.0) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
        best = np.maximum(best, np.where(cross, s, 0.0).max(axis=1))
    return best.tolist()


def symmetric_rate(region: Region) -> float:
    """The rate R of the boundary point with Ra = Rb = R.

    Exact when the symmetric ray is on the sweep grid; otherwise linear
    interpolation between the two bracketing swept points.
    """
    pts = region.points
    if not pts:
        return 0.0
    prev = None
    for p in pts:
        if abs(p.ra - p.rb) <= 1e-12 * max(1.0, p.ra, p.rb):
            if p.ra > 0.0 or p.rb > 0.0:
                return float(p.rb)
            prev = p
            continue
        if p.ra > p.rb:
            if prev is None:
                return 0.0
            d1 = prev.rb - prev.ra
            d2 = p.rb - p.ra
            if d1 == d2:
                return float(prev.rb)
            t = d1 / (d1 - d2)
            return float(prev.ra + t * (p.ra - prev.ra))
        prev = p
    return 0.0


def contains(outer_r: Region, inner_r: Region, tol: float) -> bool:
    """True iff every swept point of ``inner_r`` is inside ``outer_r``'s hull,
    measured radially along the point's own ray."""
    _check_same_gains(outer_r, inner_r)
    rays = [(radius, math.degrees(math.atan2(p.ra, p.rb)))
            for p in inner_r.points if (radius := math.hypot(p.ra, p.rb)) > tol]
    supports = supports_along_rays(outer_r.hull, [theta for _, theta in rays])
    for (radius, _), support in zip(rays, supports):
        slack = tol + 1e-12 * max(1.0, radius)  # floating cushion keeps tol=0 reflexive
        if radius > support + slack:
            return False
    return True


def max_radial_gap(a: Region, b: Region) -> tuple[float, float]:
    """Largest support difference of ``a`` minus ``b`` over the shared ray grid.

    Returns (gap, theta_deg_at_max); the gap is negative wherever ``b``
    extends beyond ``a`` everywhere on the grid.
    """
    _check_same_gains(a, b)
    common = sorted(set(a.thetas_deg) & set(b.thetas_deg))
    if not common:
        raise GainsMismatchError("regions share no sweep angles")
    best_gap = -math.inf
    best_theta = common[0]
    sup_a, sup_b = a.supports, b.supports
    for theta in common:
        gap = sup_a[theta] - sup_b[theta]
        if gap > best_gap:
            best_gap, best_theta = gap, theta
    return (best_gap, best_theta)


def hausdorff_distance(a: Region, b: Region) -> float:
    """Hausdorff distance between the two closed (convex) regions."""
    _check_same_gains(a, b)
    d_ab = max(_point_to_hull_distance(v, b.hull) for v in a.hull)
    d_ba = max(_point_to_hull_distance(v, a.hull) for v in b.hull)
    return max(d_ab, d_ba)


def _point_to_hull_distance(p: tuple[float, float], hull) -> float:
    if not hull:
        return math.hypot(*p)
    if len(hull) == 1:
        return math.hypot(p[0] - hull[0][0], p[1] - hull[0][1])
    inside = True
    dist = math.inf
    n = len(hull)
    for idx in range(n):
        a = hull[idx]
        b = hull[(idx + 1) % n]
        if n == 2 and idx == 1:
            break
        crossv = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if crossv < -_EPS:
            inside = False
        dist = min(dist, _point_to_segment(p, a, b))
    return 0.0 if inside and n > 2 else dist


def _point_to_segment(p, a, b) -> float:
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    L2 = ex * ex + ey * ey
    if L2 <= _EPS:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * ex + (p[1] - ay) * ey) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (ax + t * ex), p[1] - (ay + t * ey))


def _check_same_gains(a: Region, b: Region) -> None:
    if a.gains.as_tuple() != b.gains.as_tuple():
        raise GainsMismatchError(
            f"regions computed for different gains: {a.gains.as_tuple()} "
            f"vs {b.gains.as_tuple()}"
        )
