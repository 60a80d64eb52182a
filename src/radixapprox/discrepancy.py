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
of the O(T) scan: the orbit {n gamma} is an arithmetic progression mod 1,
so each Weyl sum is a quotient of two sines.  The sum over g is one pass
in floats (``_weyl_sum_ends``), from the residues g M mod Q and g T M mod
Q stepped in Python ints, with a written outward error bound: its sines lie
in the _FACTOR_ERR envelope of ``expsum._cosine_product_ends``, and gamma.rad
reads through ``expsum._float_up``, as in the cosine product.  Only a g
whose distance falls below float range, or whose enclosure may reach 0, is
read from integer ends, with the exact small-angle bounds of sin(pi h).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import (_PRODUCT_LIMIT, POINT_UNIT, KeyedInts, fixed_point_keys,
                       fixed_point_orbit, interval_deviation_max)
from .digitsets import CAP_DEFAULT
from .errors import DomainError, InvariantViolation, ResourceLimit
from .exact import Real, _real_of_ends, dist_ends_of_multiple, residue_of_multiple
from .expsum import _DIST_DOWN, _NORMAL_MIN, _PRODUCT_BITS, _float_up, pi_bounds

# the factors of _weyl_sum_ends, u = 2**-53: 1 -+ 2**-46 = 128u around each
# float sum and 1 - 2**-44 for the least quotient summed as T; and the right
# side's grid
_SUM_DOWN, _SUM_UP, _TOP = 1 - 2.0**-46, 1 + 2.0**-46, 1 - 2.0**-44
_GRID = float(1 << _PRODUCT_BITS)


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

    The sum over g is one pass in floats with a written outward bound
    (``_weyl_sum_ends``), rounded outward once onto the grid
    2**-_PRODUCT_BITS, so the right side prints in few digits at any G.
    The check cross-multiplies integer ends, and raises only on a genuine
    violation; the right side and the slack are one ``Real`` each, built
    from integer ends.
    """
    points = fractional_orbit(gamma, T, cap=cap)
    if G < 1:
        raise DomainError(f"need G >= 1, got {G}")
    base = discrepancy_L(points)
    lo, hi = _weyl_sum_ends(gamma, T, G)
    # T/(G+1) plus each end of the sum, over (G+1) 2**_PRODUCT_BITS
    fixed, den = T << _PRODUCT_BITS, (G + 1) << _PRODUCT_BITS
    lo, hi = fixed + lo * (G + 1), fixed + hi * (G + 1)
    # L -+ L_radius, over c
    L, radius = base.L_value, base.L_radius
    c = L.denominator * radius.denominator
    mid, rad = L.numerator * radius.denominator, radius.numerator * L.denominator
    if (mid - rad) * den > hi * c:
        raise InvariantViolation(
            f"Erdos-Turan inequality violated: L={float(L):.6g} "
            f"> rhs={hi / den:.6g} at T={T}, G={G}"
        )
    rhs = _real_of_ends((lo, den), (hi, den))
    slack = _real_of_ends((lo * c - (mid + rad) * den, den * c), (hi * c - (mid - rad) * den, den * c))
    return replace(base, G=G, et_rhs=rhs, slack=slack)


@functools.cache
def _et_factor_bounds() -> tuple[tuple[Fraction, Fraction], tuple[float, float]]:
    """The bounds 2 + 2/pi_hi < 2 + 2/pi < 2 + 2/pi_lo of ``pi_bounds``, and
    floats below and above them, one step outward of the nearest."""
    pi_lo, pi_hi = pi_bounds()
    c_lo, c_hi = 2 + 2 / pi_hi, 2 + 2 / pi_lo
    return (c_lo, c_hi), (math.nextafter(float(c_lo), 0.0), math.nextafter(float(c_hi), math.inf))


def _weyl_sum_ends(gamma: Real, T: int, G: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= 2**64 (2 + 2/pi) sum_{g<=G} W_g / g <= hi
    for every gamma' in gamma, W_g = |sum_{n<=T} e(n g gamma')|, from one
    pass over g in Python floats.  With u = 2**-53 and gamma.mid = M/Q:

    The residues v = g M mod Q and t = g (T M mod Q) mod Q step by one
    addition mod Q in Python ints, exact at every Q.  The midpoint's
    distances read x = fl(w/Q), w = min(v, Q - v), and y the same of t:
    one correctly rounded division each, within u relative.  gamma.rad
    reads as rho = ``expsum._float_up(gamma.rad)``, the reading the cosine
    product shares, and T rad as rho_T = _float_up(fl(T rho)), so that
    fl(g rho) >= g rad and fl(g rho_T) >= g T rad.

    Ends of ||g gamma'||, as in ``expsum._cosine_product_ends``: lo =
    fl(fl(x (1 - 4u)) - fl(g rho)) is at most w/Q - g rad, and hi = min(1/2,
    fl(x + fl(g rho))) at least (1 - 2u) min(1/2, w/Q + g rad).  The ends
    a_lo, a_hi of ||T g gamma'|| read the same from y; for an exact gamma
    all four ends are x and y.
    The lower end of a term is sin(pi a_lo) / sin(pi hi), its upper end
    sin(pi a_hi) / sin(pi lo).  Each math.sin of fl(pi h) at such an end,
    outward of the true end or within 2u of it, is within _FACTOR_ERR 2**-51
    = 36u of the sine at the true end: the envelope of
    ``expsum._cosine_product_ends``, on its 4-ulp assumption about the
    platform sin.  The quotient and the division by g add u each: each float
    term is within 36u + 36u + u + u = 74u, and second order, of an outward
    end of W_g / g.  ``math.fsum`` adds one ulp (2u), and the floats around
    2 + 2/pi and the product with 1 -+ 2**-46 one u each: 78u and second
    order, inside 2**-46 = 128u, and 2**64 is exact, so floor and ceil of
    the two float sums are outward ends.

    Integer ends: a g with an end below tiny = G _NORMAL_MIN (a distance
    below float range reads as 0), and so every g whose enclosure of
    ||g gamma'|| may reach 0, is read from the integer ends of
    ``_integer_term`` instead: [0, T] where the lower end of ||g gamma'||
    is 0, and otherwise the exact small-angle bounds of sin(pi h).  Its
    ends are 0 or at least tiny, so every sine argument and every float
    term is 0 or normal: a term is at least tiny / g >= _NORMAL_MIN.

    Clamps: the lower end of a term is 0 where a_lo <= 0.  An upper end is
    T where its quotient reads at least T (1 - 2**-44), and both ends are T
    for an exact gamma with w = 0.  An end of T is summed on integers, as
    floor(k_lo / g) or ceil(k_hi / g) with k = c T 2**64 rounded outward
    for the bounds c of 2 + 2/pi, so within a unit of c T 2**64 / g; every
    float upper end times 1 + 2**-46 stays below T; so hi exceeds the
    trivial bound 2**64 c_hi T sum_{g<=G} 1/g by at most G.
    """
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    r, s, half = M % Q, T * M % Q, Q >> 1
    tiny, top = G * _NORMAL_MIN, T * _TOP
    sin, pi = math.sin, math.pi
    lows, highs, lows_at_T, highs_at_T = [], [], [], []
    add_lo, add_hi = lows.append, highs.append
    exact = not gamma.rad
    if not exact:
        rho = _float_up(gamma.rad)
        rho_T = _float_up(T * rho)
    v = t = 0
    for g in range(1, G + 1):
        v += r
        if v >= Q:
            v -= Q
        t += s
        if t >= Q:
            t -= Q
        x, y = (v if v <= half else Q - v) / Q, (t if t <= half else Q - t) / Q
        if exact:
            if not v:
                lows_at_T.append(g)
                highs_at_T.append(g)
                continue
            if x < tiny or 0 < y < tiny:
                down, up = _integer_term(gamma, T, g, v, t, tiny)
            else:
                down = up = sin(pi * y) / sin(pi * x)
        else:
            e, e_T = g * rho, g * rho_T
            lo, hi = x * _DIST_DOWN - e, x + e
            a_lo, a_hi = y * _DIST_DOWN - e_T, y + e_T
            if lo < tiny or a_hi < tiny or 0 < a_lo < tiny:
                down, up = _integer_term(gamma, T, g, v, t, tiny)
            else:
                up = sin(pi * (a_hi if a_hi < 0.5 else 0.5)) / sin(pi * lo)
                down = sin(pi * a_lo) / sin(pi * (hi if hi < 0.5 else 0.5)) if a_lo > 0 else 0.0
        add_lo(down / g)
        if up < top:
            add_hi(up / g)
        else:
            highs_at_T.append(g)
    (c_lo, c_hi), (f_lo, f_hi) = _et_factor_bounds()
    lo = math.floor(math.fsum(lows) * f_lo * _SUM_DOWN * _GRID)
    hi = math.ceil(math.fsum(highs) * f_hi * _SUM_UP * _GRID)
    if lows_at_T:
        k = (c_lo.numerator * T << _PRODUCT_BITS) // c_lo.denominator
        lo += sum(k // g for g in lows_at_T)
    if highs_at_T:
        k = -(-(c_hi.numerator * T << _PRODUCT_BITS) // c_hi.denominator)
        hi += sum(-(-k // g) for g in highs_at_T)
    return lo, hi


def _integer_term(gamma: Real, T: int, g: int, v: int, t: int, tiny: float) -> tuple[float, float]:
    """Floats lo <= W_g <= hi <= T, each 0 or at least tiny, from the integer
    distance ends of ``dist_ends_of_multiple`` (of the residues v of g and t
    of T g) and the exact small-angle bounds pi_lo h (1 - (pi_hi h)**2 / 6)
    <= sin(pi h) <= pi_hi h of ``pi_bounds``, which hold at every h >= 0 and
    are tight where a distance falls below float range: each quotient is one
    correctly rounded division of Fractions, moved one float step outward.
    The caller has found ||g gamma|| > 0 for an exact gamma; an enclosure
    that reaches 0 takes [0, T]."""
    w_lo, w_hi = (Fraction(*end) for end in dist_ends_of_multiple(gamma, g, v))
    if not w_lo:
        return 0.0, T
    a_lo, a_hi = (Fraction(*end) for end in dist_ends_of_multiple(gamma, T * g, t))
    pi_lo, pi_hi = pi_bounds()
    lo = pi_lo * a_lo * (1 - (pi_hi * a_lo) ** 2 / 6) / (pi_hi * w_hi)
    hi = pi_hi * a_hi / (pi_lo * w_lo * (1 - (pi_hi * w_lo) ** 2 / 6))
    lo = math.nextafter(float(lo), 0.0)
    hi = T if hi >= T else math.nextafter(float(hi), math.inf)
    return (lo if lo >= tiny else 0.0), max(hi, tiny)


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
