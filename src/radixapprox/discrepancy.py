"""Exact interval-count discrepancy and the Erdos-Turan inequality.

The discrepancy of a finite sequence is the supremum over subintervals of
[0, 1) of |count - T * measure|.  The count function only jumps at the
point values and the measure is linear in the endpoints, so the supremum is
attained on the finite family of intervals whose endpoints are point values
(or 0, or approach 1), each endpoint open or closed, degenerate intervals
included.  That family is scanned in linear int64 passes
(``_kernels.interval_deviation_max``), so the supremum is exact.

The scan reads each residue v through its key k = v >> s, s = max(0,
bit_length(T Q) - 62), so every table and every end fits int64; s = 0, and
the keys are the residues, while T Q < 2**62.  The points sort on their
keys, and only a run of equal keys (points within 2**s / Q of each other)
is ordered and split exactly in Python ints.  An end e = c Q - w T, c <= T
a count, reads as E = c (Q >> s) - k T with |e / 2**s - E| < T, both
remainders being below 2**s; so every end equal to the largest or least e
lies within 2T of the largest or least E, and only those ends, and the two
witness endpoints, are read as Python ints.

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

from ._kernels import _PRODUCT_LIMIT, KeyedInts, _int_array, _keys, interval_deviation_max, key_shift
from .digitsets import CAP_DEFAULT
from .errors import DomainError, InvariantViolation, ResourceLimit
from .exact import Real, dist_ends_of_multiple, residue_of_multiple
from .expsum import _PRODUCT_BITS, pi_bounds, sin_pi_bounds

#: An orbit whose residues outgrow int64 (T Q >= 2^62) holds Python ints:
#: discrepancy_L over it peaks at about 120 B a point for pi at 128 bits and
#: 650 B at 4096 bits, against 17 B for int64 residues.  Such an orbit takes
#: at most this share of the cap, scaled down by the bytes of Q past those of
#: a 150-bit int (pi at the default 128 bits has a 142-bit Q), so its peak
#: stays at or below 16 MB at every precision under the default cap.
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


def _split_ties(nums, order: np.ndarray, starts: np.ndarray) -> None:
    """Order each run of equal keys in ``order`` by the exact values, in
    place, and mark in ``starts`` where those values change."""
    first = np.flatnonzero(starts)
    size = np.diff(first, append=len(starts))
    for a, n in zip(first[size > 1].tolist(), size[size > 1].tolist()):
        run = sorted(order[a : a + n].tolist(), key=nums.__getitem__)
        order[a : a + n] = run
        starts[a + 1 : a + n] = [nums[u] != nums[v] for u, v in zip(run, run[1:])]


def _candidate_tables(nums, q: int):
    """Sorted endpoint values w (0 and q included) as KeyedInts, with
    below/equal counts.  The points sort on their keys; only a run of equal
    keys (points within 2**shift / q of each other) is ordered exactly."""
    T = len(nums)
    shift = key_shift(T * q)
    keys = _keys(nums, shift)
    if shift:  # the exact values behind the keys are read through the sort order
        order = np.argsort(keys)
        keys = keys[order]
    else:  # the keys are the values
        keys.sort()
    starts = np.empty(T, dtype=bool)  # where the sorted points start a new value
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    if shift:
        _split_ties(nums, order, starts)
    first = np.flatnonzero(starts)
    # 0 is an endpoint also with no point on it
    head = np.zeros(int((nums[order[0]] if shift else keys[0]) != 0), dtype=np.int64)
    w = np.concatenate((head, keys[first], [q >> shift]))
    eq = np.concatenate((head, np.diff(first, append=T), [0]))
    if shift:
        rep = order[first]

        def value(i: int) -> int:
            i -= len(head)
            return q if i == len(rep) else int(nums[rep[i]]) if i >= 0 else 0
    else:
        def value(i: int) -> int:
            return int(w[i])

    return KeyedInts(w, shift, value), np.cumsum(eq) - eq, eq


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
