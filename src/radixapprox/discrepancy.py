"""Exact interval-count discrepancy and the Erdos-Turan inequality.

The discrepancy of a finite sequence is the supremum over subintervals of
[0, 1) of |count - T * measure|.  The count function only jumps at the
point values and the measure is linear in the endpoints, so the supremum is
attained on the finite family of intervals whose endpoints are point values
(or 0, or approach 1), each endpoint open or closed, degenerate intervals
included.  That family is scanned in one linear pass over scaled Python
ints (``_kernels.interval_deviation_max``), so the supremum is exact.

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

from ._kernels import interval_deviation_max, scaled_residues
from .digitsets import CAP_DEFAULT
from .errors import DomainError, InvariantViolation, ResourceLimit
from .exact import Real, frac, frac_of_multiple
from .expsum import _magnitude, _trig_sum, pi_bounds

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
    if not points:
        raise DomainError("need at least one point")
    if all(p.is_exact for p in points):
        q = math.lcm(*(p.mid.denominator for p in points))
        nums = [p.mid.numerator % p.mid.denominator * (q // p.mid.denominator) for p in points]
        return nums, q, Fraction(0)
    Q = 1 << GRID_BITS
    nums, worst = [], Fraction(0)
    for f in map(frac, points):
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
    return _discrepancy(*_scaled_points(points))


def _discrepancy(nums: list[int], q: int, worst: Fraction) -> DiscrepancyReport:
    """discrepancy_L of points already scaled by _scaled_points."""
    T = len(nums)
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
    # _magnitude widens by the sum of the two radii: each float component is
    # within _sum_radius(T), and the point error moves every angle by at most
    # 2 pi g pt_err, so the sum by less than 7 g T pt_err in modulus
    re, im = _trig_sum([scaled_residues(nums, g, q)], q, T, Fraction(7, 2) * g * T * pt_err)
    mag = _magnitude(re, im)
    return Real.from_interval(mag.lo, min(mag.hi, T + mag.rad))


def erdos_turan_check(points: Sequence[Real], G: int) -> DiscrepancyReport:
    """Verify L <= T/(G+1) + (2 + 2/pi) * sum_{g<=G} |sum e(g x_n)|/g.

    The right side is accumulated as an exact rational interval (upward
    rounded where it matters); the check is radius-aware and raises on a
    genuine violation.
    """
    if G < 1:
        raise DomainError(f"need G >= 1, got {G}")
    nums, q, worst = _scaled_points(points)
    base = _discrepancy(nums, q, worst)
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


def fractional_orbit(gamma: Real, T: int, *, cap: int = CAP_DEFAULT) -> list[Real]:
    """The sequence {n * gamma} for n = 1..T, refused over cap before any
    point is built; each point is read off its residue by
    ``frac_of_multiple``, which raises when its enclosure reaches an integer."""
    if T < 1:
        raise DomainError(f"need T >= 1, got {T}")
    if T > cap:
        raise ResourceLimit(f"orbit of {T} points exceeds the cap {cap}")
    return [frac_of_multiple(gamma, n) for n in range(1, T + 1)]
