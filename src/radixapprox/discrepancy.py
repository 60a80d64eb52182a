"""Exact interval-count discrepancy and the Erdos-Turan inequality.

The discrepancy of a finite sequence is the supremum over subintervals of
[0, 1) of |count - T * measure|.  The count function only jumps at the
point values and the measure is linear in the endpoints, so the supremum is
attained on the finite family of intervals whose endpoints are point values
(or 0, or approach 1), each endpoint open or closed, degenerate intervals
included.  That family is scanned in linear int64 passes
(``_kernels.interval_deviation_max``), so the supremum is exact.

While T Q < 2**62 the points are int64 residues v, their own keys, and
every end is exact.  Beyond, each point is read through a 62-bit
fixed-point key k <= v 2**62 / Q < k + 2: an orbit's keys come from int64
limbs (``_kernels.fixed_point_orbit``), explicit residues are keyed
floor(v 2**62 / Q).  The points sort on these keys, and only points keyed
within one unit of a neighbour are read exactly and ordered by one sort of
their residues.  The endpoints w are keyed on the grid 2**K, K = 62 -
bit_length(T), by the top K bits; an end e = c Q - w T, c <= T a count,
reads as E = c 2**K - k T with e 2**K / Q in (E - 2T, E], so every end
equal to the largest or least e lies within 2T of the largest or least E,
and only those ends, and the two witness endpoints, are read as Python
ints.

Point n of the orbit {n gamma} is the exact residue v/Q of n M/Q on the
grid Q of gamma.mid = M/Q, for exact and enclosure gamma alike, within
n * gamma.rad of the true point; so the discrepancy picks up the radius
2*T*T*gamma.rad: the interval-count functional is 2T-Lipschitz in a
sup-norm perturbation of the points as long as no point wraps past an
integer (wrapping raises IndeterminateComparison instead).  Only a point
within T rad of an integer can straddle one; with the key's own two units
that is a key below tau = ceil(T rad 2**62) or at least 2**62 - tau - 1,
and the top key 2**62 - 1 also holds any limb reading that wrapped past 1:
those points are read exactly (``exact.residue_of_multiple``) and keyed
floor(v 2**62 / Q).

The Erdos-Turan right side is read off gamma in closed form, O(G) on top
of the O(T) scan: the orbit {n gamma} is an arithmetic progression mod 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import (_PRODUCT_LIMIT, POINT_UNIT, KeyedInts, fixed_point_keys,
                       fixed_point_orbit, interval_deviation_max)
from .digitsets import CAP_DEFAULT
from .errors import DomainError, InvariantViolation, ResourceLimit
from .exact import Real, _real_of_ends, dist_ends_of_multiple, residue_of_multiple
from .expsum import _PRODUCT_BITS, pi_bounds, sin_pi_bounds


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
    """Points nums[i] / q in [0, 1), each within worst of the point it stands
    for: nums is any sequence of ints, or KeyedInts for an orbit read
    through its fixed-point keys."""

    nums: Sequence[int]
    q: int
    worst: Fraction


def _order_close_runs(points: KeyedInts, order: np.ndarray, starts: np.ndarray) -> None:
    """Order the points of every run of keys within one unit of the last
    (starts False) by their exact values, in place, and mark in starts
    where those values change.  Keys two units apart order their points
    (keys[i] <= v_i unit / q < keys[i] + 2), so the runs lie in key order
    and one sort of their values, read at once, puts each back in its own
    slots."""
    inner = ~starts
    if not inner.any():
        return
    slots = np.flatnonzero(inner | np.append(inner[1:], False))
    values = points.value(order[slots])
    by = np.argsort(values, kind="stable")
    order[slots] = order[slots[by]]
    values = values[by]
    starts[slots[1:]] = values[1:] != values[:-1]


def _candidate_tables(nums, q: int):
    """Sorted endpoint values w (the point values, then q) as KeyedInts,
    with below/equal counts.  While T q < 2**62 the residues are their own
    keys; beyond, the points sort on 62-bit fixed-point keys (an orbit's
    own, or floor(v 2**62 / q) of explicit residues), w is keyed on their
    top 62 - bit_length(T) bits, and only points keyed within one unit of a
    neighbour are read exactly.

    0 is no endpoint unless a point lies on it: both ends of its row would
    be 0, strictly between the extremes, for the top is at least
    T (q - v_max) > 0 and the bottom at most -v_min T < 0, and the row of q
    already holds an end of 0 (q counts all T points below it)."""
    T = len(nums)
    starts = np.empty(T, dtype=bool)  # where the sorted points start a new value
    starts[0] = True
    if T * q < _PRODUCT_LIMIT:
        keys = np.array(nums, dtype=np.int64)
        keys.sort()
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        w = np.append(keys[first], q)
        w = KeyedInts(w, q, lambda i, w=w: int(w[i]))
    else:
        points = nums if isinstance(nums, KeyedInts) else KeyedInts(
            fixed_point_keys(nums, q, POINT_UNIT), POINT_UNIT,
            np.asarray(nums, dtype=object).__getitem__)
        order = np.argsort(points.keys)
        np.greater(np.diff(points.keys[order]), 1, out=starts[1:])
        _order_close_runs(points, order, starts)
        first = np.flatnonzero(starts)
        rep = order[first]
        shift = T.bit_length()
        w = np.append(points.keys[rep] >> shift, POINT_UNIT >> shift)
        w = KeyedInts(w, POINT_UNIT >> shift,
                      lambda i: q if i == len(rep) else points.value(int(rep[i])))
    eq = np.append(np.diff(first, append=T), 0)
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
    w, lt, eq = _candidate_tables(nums, q)
    dev, i, j, lc, rc = interval_deviation_max(w, lt, eq, T, q)
    left, right = Fraction(w.value(i), q), Fraction(w.value(j), q)
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
    # T/(G+1) plus each end of the sum, over (G+1) 2**_PRODUCT_BITS
    fixed, den = T * one, (G + 1) * one
    rhs = _real_of_ends((fixed + sum_lo * (G + 1), den), (fixed + sum_hi * (G + 1), den))
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
    """The sequence {n * gamma} for n = 1..T, refused over cap before any
    point is read: the residues v = n M mod Q of gamma.mid = M/Q, as one
    int64 array while T Q < 2**62 and otherwise as KeyedInts, the 62-bit
    keys of ``fixed_point_orbit`` with the exact v read by index.  v/Q is
    within n * gamma.rad of {n gamma}, so worst = T * gamma.rad, 0 for an
    exact gamma."""
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    R, D = gamma.rad.numerator, gamma.rad.denominator
    if T < 1:
        raise DomainError(f"need T >= 1, got {T}")
    if T > cap:
        raise ResourceLimit(f"orbit of {T} points exceeds the cap {cap}")
    r = M % Q
    if T * Q < _PRODUCT_LIMIT:
        keys, unit = np.arange(1, T + 1), Q
        keys *= r
        keys %= Q
    else:
        keys, unit = fixed_point_orbit(r, Q, T), POINT_UNIT
    # only a point within T rad of an integer can straddle one: its key lies
    # below tau, or at least unit - tau, one unit lower for a fixed-point
    # key, whose top key unit - 1 also holds any limb reading that wrapped
    # past 1; read those exactly, and key them floor(v unit / Q)
    tau = min(-(-T * R * unit // D), unit)
    top = unit - tau - (unit != Q)
    for n in np.flatnonzero((keys < tau) | (keys >= top)).tolist():
        keys[n] = residue_of_multiple(gamma, n + 1) * unit // Q
    if unit == Q:
        return ScaledPoints(keys, Q, T * gamma.rad)
    return ScaledPoints(KeyedInts(keys, unit, lambda i: np.add(i, 1, dtype=object) * r % Q),
                        Q, T * gamma.rad)
