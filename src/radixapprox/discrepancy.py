"""Exact interval-count discrepancy and the Erdos-Turan inequality.

The discrepancy of a finite sequence is the supremum over subintervals of
[0, 1) of |count - T * measure|.  The count function only jumps at the
point values and the measure is linear in the endpoints, so the supremum is
attained on the finite family of intervals whose endpoints are point values
(or 0, or approach 1), each endpoint open or closed, degenerate intervals
included.  That family is scanned in linear passes over one typed array of
residues (``_kernels.interval_deviation_max``), so the supremum is exact.

Point n of the orbit {n gamma} is the exact residue v/Q of n M/Q on the
grid Q of gamma.mid = M/Q, for exact and enclosure gamma alike, within
n * gamma.rad of the true point; so the discrepancy picks up the radius
2*T*T*gamma.rad: the interval-count functional is 2T-Lipschitz in a
sup-norm perturbation of the points as long as no point wraps past an
integer (wrapping raises IndeterminateComparison instead).

The Erdos-Turan right side is read off gamma in closed form, O(G) on top
of the O(T) scan: the orbit {n gamma} is an arithmetic progression mod 1.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ._kernels import _PRODUCT_LIMIT, _int_array, interval_deviation_max
from .digitsets import CAP_DEFAULT
from .errors import DomainError, InvariantViolation, ResourceLimit
from .exact import Real, dist_ends_of_multiple, residue_of_multiple
from .expsum import _PRODUCT_BITS, pi_bounds, sin_pi_bounds

#: An orbit whose residues outgrow int64 (T Q >= 2^62) holds Python ints:
#: about 200 B a point for pi at 128 bits and 1.8 KB at 4096 bits, against
#: 18 B for int64 residues.  Such an orbit takes at most this share of the
#: cap, scaled down by the bytes of Q past those of a 150-bit int (pi at the
#: default 128 bits has a 142-bit Q), so its peak stays near 26 MB at every
#: precision under the default cap.
BIG_ORBIT_SHARE = 256
_BIG_ORBIT_Q_BYTES = sys.getsizeof(1 << 149)


@dataclass(frozen=True)
class DiscrepancyReport:
    T: int
    L_value: Fraction
    L_radius: Fraction
    witness: tuple[Fraction, Fraction, bool, bool]
    G: Optional[int] = None
    et_rhs: Optional[Real] = None
    slack: Optional[Real] = None


class ScaledPoints(NamedTuple):
    """Points nums[i] / q in [0, 1), each within worst of the point it stands for."""

    nums: np.ndarray
    q: int
    worst: Fraction


def _candidate_tables(nums: np.ndarray, q: int):
    """Sorted endpoint values (0 and 1 included) with below/equal counts."""
    w, eq = np.unique(nums, return_counts=True)
    if w[0]:  # 0 is an endpoint also with no point on it
        w, eq = np.insert(w, 0, 0), np.insert(eq, 0, 0)
    w, eq = np.append(w, _int_array([q], len(nums) * q)), np.append(eq, 0)
    return w, np.cumsum(eq) - eq, eq


def discrepancy_L(points: ScaledPoints) -> DiscrepancyReport:
    """Exact supremum of |count - T*measure| over subintervals of [0, 1).

    Returns the attaining interval (left, right, left_closed, right_closed);
    a right endpoint of 1 stands for an interval reaching toward 1 but open
    there, as required by intervals inside [0, 1).
    """
    nums, q, worst = points
    T = len(nums)
    if not T:
        raise DomainError("need at least one point")
    w, lt, eq = _candidate_tables(_int_array(nums, T * q), q)
    dev, i, j, lc, rc = interval_deviation_max(w, lt, eq, T, q)
    left, right = Fraction(int(w[i]), q), Fraction(int(w[j]), q)
    L = Fraction(dev, q)
    radius = 2 * T * worst
    if not (1 - radius <= L <= T + radius):
        raise InvariantViolation(f"discrepancy {L} outside [1, T={T}]")
    return DiscrepancyReport(T, L, radius, (left, right, lc, rc))


def erdos_turan_check(gamma: Real, T: int, G: int, *, cap: int = CAP_DEFAULT) -> DiscrepancyReport:
    """Verify L <= T/(G+1) + (2 + 2/pi) * sum_{g<=G} |sum_{n<=T} e(g n gamma)|/g
    on the orbit ``fractional_orbit(gamma, T, cap=cap)``, built here, so the
    points and the right side read the same gamma.  The orbit's errors (T,
    cap) come before the check of G.

    Each Weyl sum is a geometric series (Kuipers & Niederreiter, *Uniform
    Distribution of Sequences*, ch. 2): sin(pi ||T g gamma||) / sin(pi
    ||g gamma||) in modulus, T where ||g gamma|| = 0, and clamped to [0, T]
    where its enclosure reaches 0.  So the right side encloses that of every
    gamma in the enclosure, whose L lies within L_radius of the reported L.

    Each term of the sum is rounded outward to the grid 2**-_PRODUCT_BITS,
    so the digits stay bounded and each end of the right side widens by
    less than G * 2**-_PRODUCT_BITS; the check is radius-aware and raises
    on a genuine violation.  A term is one integer floor (or ceiling)
    division of the products of the numerators and the denominators, with
    no Fraction reduced along the way.
    """
    points = fractional_orbit(gamma, T, cap=cap)
    if G < 1:
        raise DomainError(f"need G >= 1, got {G}")
    base = discrepancy_L(points)
    pi_lo, pi_hi = pi_bounds()
    c_lo, c_hi = 2 + 2 / pi_hi, 2 + 2 / pi_lo
    one = 1 << _PRODUCT_BITS
    sum_lo = sum_hi = 0
    for g in range(1, G + 1):
        (lo, lo_den), (hi, hi_den) = _weyl_sum_bounds(gamma, T, g)
        sum_lo += c_lo.numerator * lo * one // (c_lo.denominator * lo_den * g)
        sum_hi -= c_hi.numerator * hi * one // -(c_hi.denominator * hi_den * g)
    fixed = Fraction(T, G + 1)
    rhs = Real.from_interval(fixed + Fraction(sum_lo, one), fixed + Fraction(sum_hi, one))
    if base.L_value - base.L_radius > rhs.hi:
        raise InvariantViolation(
            f"Erdos-Turan inequality violated: L={float(base.L_value):.6g} "
            f"> rhs={float(rhs.hi):.6g} at T={T}, G={G}"
        )
    slack = rhs - Real(base.L_value, base.L_radius)
    return replace(base, G=G, et_rhs=rhs, slack=slack)


def _weyl_sum_bounds(gamma: Real, T: int, g: int) -> tuple:
    """((p, q), (r, s)) with p/q <= |sum_{n<=T} e(n g gamma')| <= r/s for
    every gamma' in gamma: quotients of the integer sine bounds of the
    integer distance ends, left unreduced."""
    w_lo, w_hi = dist_ends_of_multiple(gamma, g)
    if w_hi[0] == 0:
        return (T, 1), (T, 1)
    if w_lo[0] == 0:
        return (0, 1), (T, 1)
    # sin(pi ||T g gamma||) in [s/s_den, t/t_den], sin(pi ||g gamma||) in [u/u_den, v/v_den]
    (s, s_den), (t, t_den) = sin_pi_bounds(*dist_ends_of_multiple(gamma, T * g))
    (u, u_den), (v, v_den) = sin_pi_bounds(w_lo, w_hi)
    hi = (t * u_den, t_den * u)
    if hi[0] > T * hi[1]:
        hi = (T, 1)
    return (s * v_den, s_den * v), hi


def fractional_orbit(gamma: Real, T: int, *, cap: int = CAP_DEFAULT) -> ScaledPoints:
    """The sequence {n * gamma} for n = 1..T, refused over cap (over cap //
    BIG_ORBIT_SHARE, scaled by the size of Q, when T Q >= 2^62) before any
    point is read: the residues v = n M mod Q of gamma.mid = M/Q as one
    array.  v/Q is within n * gamma.rad of {n gamma}, so worst = T *
    gamma.rad, 0 for an exact gamma."""
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    if T < 1:
        raise DomainError(f"need T >= 1, got {T}")
    if T * Q >= _PRODUCT_LIMIT:
        cap = cap // BIG_ORBIT_SHARE * _BIG_ORBIT_Q_BYTES // max(_BIG_ORBIT_Q_BYTES, sys.getsizeof(Q))
    if T > cap:
        raise ResourceLimit(f"orbit of {T} points exceeds the cap {cap}")
    nums = _int_array(np.arange(1, T + 1), T * Q)
    nums *= M % Q
    nums %= Q
    # only a point within t = ceil(T rad Q) of 0 or Q can straddle an integer
    t = -(-T * gamma.rad.numerator * Q // gamma.rad.denominator)
    for n in np.flatnonzero((nums < t) | (nums >= Q - t)).tolist():
        residue_of_multiple(gamma, n + 1)
    return ScaledPoints(nums, Q, T * gamma.rad)
