"""Exact interval-count discrepancy and the Erdos-Turan inequality.

The discrepancy of a finite sequence is the supremum over subintervals of
[0, 1) of |count - T * measure|.  The count function only jumps at the
point values and the measure is linear in the endpoints, so the supremum is
attained on the finite family of intervals whose endpoints are point values
(or 0, or approach 1), each endpoint open or closed, degenerate intervals
included.  That family is scanned exhaustively over scaled integers, which
makes the supremum an exact rational.

Approximate points are snapped to a dyadic grid and the discrepancy picks
up the radius 2*T*eps, eps being the worst per-point uncertainty; the
interval-count functional is 2T-Lipschitz in a sup-norm perturbation of
the points as long as no point wraps past an integer (wrapping raises
IndeterminateComparison instead).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from ._kernels import cos_sin_sum, interval_deviation_max, scaled_residues
from .errors import DomainError, InvariantViolation
from .exact import Real, frac, frac_exact
from .expsum import _sum_radius, pi_bounds

GRID_BITS = 50

_COMBO_FLAGS = {0: (True, True), 1: (True, False), 2: (False, True), 3: (False, False)}


@dataclass(frozen=True)
class DiscrepancyReport:
    T: int
    L_value: Fraction
    L_radius: Fraction
    witness: tuple[Fraction, Fraction, bool, bool]
    G: Optional[int] = None
    et_rhs: Optional[Real] = None
    slack: Optional[Real] = None


def _scaled_points(points: Sequence[Real]):
    """Fractional parts as (numerator, Q) scaled integers plus the worst
    per-point uncertainty; exact inputs stay exact over the lcm denominator,
    enclosure inputs snap to the dyadic grid and carry the snap radius."""
    fracs = [frac(p) for p in points]
    if all(f.is_exact for f in fracs):
        q = 1
        for f in fracs:
            q = q * f.mid.denominator // math.gcd(q, f.mid.denominator)
        nums = [f.mid.numerator * (q // f.mid.denominator) for f in fracs]
        return nums, q, Fraction(0)
    Q = 1 << GRID_BITS
    nums, worst = [], Fraction(0)
    for f in fracs:
        n = (2 * f.mid.numerator * Q + f.mid.denominator) // (2 * f.mid.denominator)
        n = min(max(n, 0), Q - 1)
        worst = max(worst, f.rad + abs(f.mid - Fraction(n, Q)))
        nums.append(n)
    return nums, Q, worst


def _candidate_tables(nums: list[int], q: int):
    """Sorted endpoint values (0 and 1 included) with below/equal counts."""
    counts: dict[int, int] = {}
    for n in nums:
        counts[n] = counts.get(n, 0) + 1
    w = sorted(set(counts) | {0, q})
    lt, eq, running = [], [], 0
    for v in w:
        lt.append(running)
        eq.append(counts.get(v, 0))
        running += counts.get(v, 0)
    return w, lt, eq


def deviation_max_py(nums: list[int], q: int, total: int):
    """Reference scan of the candidate family in pure python; mirrors the
    kernel's candidate order and tie-breaking exactly."""
    w, lt, eq = _candidate_tables(nums, q)
    m = len(w)
    best = (-1, 0, 0, 0)
    for i in range(m):
        for j in range(i, m):
            width = total * (w[j] - w[i])
            for combo in range(4):
                if j == i and combo != 0:
                    continue
                if j == m - 1 and combo in (0, 2):
                    continue
                lc, rc = _COMBO_FLAGS[combo]
                low = lt[i] if lc else lt[i] + eq[i]
                high = lt[j] + eq[j] if rc else lt[j]
                dev = abs((high - low) * q - width)
                if dev > best[0]:
                    best = (dev, i, j, combo)
    dev, i, j, combo = best
    return dev, w[i], w[j], combo


def discrepancy_L(points: Sequence[Real]) -> DiscrepancyReport:
    """Exact supremum of |count - T*measure| over subintervals of [0, 1).

    Returns the attaining interval (left, right, left_closed, right_closed);
    a right endpoint of 1 stands for an interval reaching toward 1 but open
    there, as required by intervals inside [0, 1).
    """
    T = len(points)
    if T < 1:
        raise DomainError("need at least one point")
    nums, q, worst = _scaled_points(points)
    w, lt, eq = _candidate_tables(nums, q)
    dev, i, j, combo = interval_deviation_max(w, lt, eq, T, q)
    left, right = Fraction(w[i], q), Fraction(w[j], q)
    L = Fraction(dev, q)
    radius = 2 * T * worst
    if not (1 - radius <= L <= T + radius):
        raise InvariantViolation(f"discrepancy {L} outside [1, T={T}]")
    lc, rc = _COMBO_FLAGS[combo]
    return DiscrepancyReport(T, L, radius, (left, right, lc, rc))


def _exp_sum_magnitude(nums: list[int], q: int, g: int, pt_err: Fraction):
    """|sum of e(g * x_n)| as an enclosure, x_n given as scaled integers."""
    T = len(nums)
    c, s = cos_sin_sum(scaled_residues(nums, g, q), q)
    mid = Fraction(math.hypot(c, s))
    # each component is within _sum_radius(T); the point error moves every
    # angle by at most 2 pi g pt_err
    rad = 2 * _sum_radius(T) + 7 * g * T * pt_err + mid / (1 << 50)
    lo = max(Fraction(0), mid - rad)
    return Real.from_interval(lo, min(mid + rad, Fraction(T) + rad))


def erdos_turan_check(points: Sequence[Real], G: int) -> DiscrepancyReport:
    """Verify L <= T/(G+1) + (2 + 2/pi) * sum_{g<=G} |sum e(g x_n)|/g.

    The right side is accumulated as an exact rational interval (upward
    rounded where it matters); the check is radius-aware and raises on a
    genuine violation.
    """
    if G < 1:
        raise DomainError(f"need G >= 1, got {G}")
    base = discrepancy_L(points)
    nums, q, worst = _scaled_points(points)
    T = base.T
    pi_lo, pi_hi = pi_bounds()
    c_lo, c_hi = 2 + 2 / pi_hi, 2 + 2 / pi_lo
    rhs_lo = rhs_hi = Fraction(T, G + 1)
    for g in range(1, G + 1):
        mag = _exp_sum_magnitude(nums, q, g, worst)
        rhs_lo += c_lo * mag.lo / g
        rhs_hi += c_hi * mag.hi / g
    if base.L_value - base.L_radius > rhs_hi:
        raise InvariantViolation(
            f"Erdos-Turan inequality violated: L={float(base.L_value):.6g} "
            f"> rhs={float(rhs_hi):.6g} at T={T}, G={G}"
        )
    rhs = Real.from_interval(rhs_lo, rhs_hi)
    slack = rhs - Real(base.L_value, base.L_radius)
    return replace(base, G=G, et_rhs=rhs, slack=slack)


def fractional_orbit(gamma: Real, T: int) -> list[Real]:
    """The sequence {n * gamma} for n = 1..T."""
    if T < 1:
        raise DomainError(f"need T >= 1, got {T}")
    if gamma.is_exact:
        return [Real(frac_exact(gamma.mid * n)) for n in range(1, T + 1)]
    return [frac(gamma * n) for n in range(1, T + 1)]
