"""Scalar SNR/capacity arithmetic and validated channel configurations.

Rates are in bits per channel use; SNRs are linear (dimensionless) everywhere
inside the library. Decibels appear only at I/O boundaries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An input violates the channel model's assumptions."""


def cap(gamma: float) -> float:
    """Capacity log2(1 + gamma) of a complex Gaussian channel with linear SNR gamma."""
    gamma = as_real(gamma)
    if not _finite(gamma) or gamma < 0.0:
        raise ValidationError(f"SNR must be finite and non-negative, got {gamma!r}")
    return math.log2(1.0 + gamma)


def db_to_linear(snr_db: float) -> float:
    """Convert an SNR from decibels to linear scale: 10^(snr_db / 10)."""
    snr_db = as_real(snr_db)
    if not _finite(snr_db):
        raise ValidationError(f"dB value must be finite, got {snr_db!r}")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValidationError(f"dB value {snr_db!r} overflows a float SNR (limit about 3082 dB)") from None


def linear_to_db(snr: float) -> float:
    """Convert a positive linear SNR to decibels."""
    snr = as_real(snr)
    if not _finite(snr) or snr <= 0.0:
        raise ValidationError(f"linear SNR must be finite and positive, got {snr!r}")
    return 10.0 * math.log10(snr)


def as_integer(name: str, value) -> int:
    """``value`` as an int, accepting numpy integers; a float such as 4.0, a
    string or any other non-integer raises ``ValidationError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


_NUMPY_REAL = (np.integer, np.floating)


def as_real(value):
    """``value`` as a Python float if it is a numpy real scalar (np.float32,
    np.int64, ...), so checks and arithmetic see the float it stands for;
    any other value as it is (Python ints and floats keep their results)."""
    return float(value) if isinstance(value, _NUMPY_REAL) else value


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def is_ra_axis(k: float) -> bool:
    """Whether the ray ratio k of the ray Ra = k*Rb selects the Ra axis.

    k must be finite and >= 0, or +inf, which stands for the Ra axis (Rb = 0).
    """
    k = as_real(k)
    if isinstance(k, float) and k == math.inf:
        return True
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError(f"ray ratio k must be finite and >= 0, or inf, got {k!r}")
    return False


def tie_ray(matrix, k: float) -> np.ndarray:
    """Substitute the ray Ra = k*Rb into a system whose columns 0 and 1 are Ra, Rb.

    They become one column of the larger rate R, so no coefficient grows: R = Rb
    and k*colRa + colRb for k <= 1, R = Ra and colRa + colRb/k for k > 1 (the
    Ra axis at k = inf, as 1/inf = 0).  ``matrix`` may be a (B, m, n) stack.
    """
    is_ra_axis(k)  # rejects a k that is no ray ratio
    m = np.asarray(matrix, dtype=float)
    rate = k * m[..., 0] + m[..., 1] if k <= 1.0 else m[..., 0] + m[..., 1] / k
    return np.concatenate([rate[..., None], m[..., 2:]], axis=-1)


def ray_rates(rate: float, k: float) -> tuple[float, float]:
    """(Ra, Rb) on the ray Ra = k*Rb from the rate R that ``tie_ray`` keeps."""
    rate, k = float(rate), as_real(k)
    return (k * rate, rate) if k <= 1.0 else (rate, rate / k)


@dataclass(frozen=True)
class ChannelGains:
    """Linear SNRs of the three links: gamma1 for a-r, gamma2 for b-r, gamma3 for a-b.

    Valid configurations have the direct link weaker than both relay links
    (gamma3 <= gamma1 and gamma3 <= gamma2) and the terminals ordered so that
    gamma1 <= gamma2.  ``swapped`` records that ``validate_gains`` exchanged
    the roles of a and b to restore the ordering, so results can be mirrored
    back to the caller's orientation.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    swapped: bool = False

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2", "gamma3"):
            v = as_real(getattr(self, name))
            if not _finite(v) or v < 0.0:
                raise ValidationError(f"{name} must be finite and non-negative, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.gamma1 > self.gamma2:
            raise ValidationError(
                f"gamma1 > gamma2 ({self.gamma1} > {self.gamma2}); relabel the "
                f"terminals (auto_swap) so the weaker relay link is gamma1"
            )
        if self.gamma3 > self.gamma1:
            raise ValidationError(
                f"gamma3 > gamma1 ({self.gamma3} > {self.gamma1}); the direct "
                f"link must be weaker than both relay links"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gamma1, self.gamma2, self.gamma3)


def validate_gains(g1: float, g2: float, g3: float, auto_swap: bool = False) -> ChannelGains:
    """Build a validated ChannelGains, optionally relabeling a/b to order the relay links.

    With ``auto_swap`` set and g1 > g2, the roles of the two terminals are
    exchanged and the swap is recorded on the result.  A direct link stronger
    than either relay link is rejected in any case.
    """
    g1, g2, g3 = map(as_real, (g1, g2, g3))
    for name, v in (("gamma1", g1), ("gamma2", g2), ("gamma3", g3)):
        if not _finite(v) or v < 0.0:
            raise ValidationError(f"{name} must be finite and non-negative, got {v!r}")
    swapped = False
    if auto_swap and g1 > g2:
        g1, g2 = g2, g1
        swapped = True
    return ChannelGains(g1, g2, g3, swapped=swapped)


@dataclass(frozen=True)
class LinkCaps:
    """Capacities of the link combinations that appear in the bound and protocol LPs.

    c1, c2, c3 are the single-link capacities of the a-r, b-r and a-b links;
    c12, c13, c23 are capacities of SNR sums (simultaneous receptions); the
    *_coh entries are the coherent two-transmitter capacities toward one node,
    C((sqrt(g_relay) + sqrt(g_direct))^2).
    """

    c1: float
    c2: float
    c3: float
    c12: float
    c13: float
    c23: float
    c13_coh: float
    c23_coh: float

    def swapped(self) -> "LinkCaps":
        """Relabel the two terminals (gamma1 <-> gamma2)."""
        return LinkCaps(
            c1=self.c2,
            c2=self.c1,
            c3=self.c3,
            c12=self.c12,
            c13=self.c23,
            c23=self.c13,
            c13_coh=self.c23_coh,
            c23_coh=self.c13_coh,
        )


def link_capacities(gains: ChannelGains) -> LinkCaps:
    """Precompute every capacity expression used by the bounds and protocols."""
    g1, g2, g3 = gains.gamma1, gains.gamma2, gains.gamma3
    return LinkCaps(
        c1=cap(g1),
        c2=cap(g2),
        c3=cap(g3),
        c12=cap(g1 + g2),
        c13=cap(g1 + g3),
        c23=cap(g2 + g3),
        c13_coh=cap((math.sqrt(g1) + math.sqrt(g3)) ** 2),
        c23_coh=cap((math.sqrt(g2) + math.sqrt(g3)) ** 2),
    )


_SHARE_TOL = 1e-9
_SHARE_MAX = 1.0 + _SHARE_TOL
_SHARE_FIELDS = ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6")
ACTIVE_STATE_TOL = 1e-7  # a state whose time share exceeds this is reported active


@dataclass(frozen=True)
class TimeShares:
    """Fractions of channel uses spent in each of the six half-duplex network states."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    lambda6: float

    def __post_init__(self) -> None:
        # one pass: check each share and clamp its LP round-off, so downstream
        # consumers see clean fractions; a float in range needs no other test
        total, clamped = 0.0, []
        for i, v in enumerate(self.as_tuple(), start=1):
            if type(v) is not float or not -_SHARE_TOL <= v <= _SHARE_MAX:
                v = as_real(v)
                if not _finite(v) or not -_SHARE_TOL <= v <= _SHARE_MAX:
                    raise ValidationError(f"lambda{i} must lie in [0, 1], got {v!r}")
                v = float(v)
            v = v if v >= 0.0 else 0.0
            total += v
            clamped.append(v if v <= 1.0 else 1.0)
        if total > _SHARE_MAX:
            raise ValidationError(f"time shares sum to {total}, above 1")
        self.__dict__.update(zip(_SHARE_FIELDS, clamped))  # the frozen fields, set once

    @classmethod
    def from_sequence(cls, values) -> "TimeShares":
        vals = tuple(map(float, values))
        if len(vals) != 6:
            raise ValidationError(f"expected 6 time shares, got {len(vals)}")
        return cls(*vals)

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3,
                self.lambda4, self.lambda5, self.lambda6)

    def active_states(self, threshold: float = ACTIVE_STATE_TOL) -> frozenset[int]:
        """State numbers whose share exceeds ``threshold``."""
        return frozenset(i for i, v in enumerate(self.as_tuple(), start=1) if v > threshold)


ZERO_SHARES = TimeShares(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
