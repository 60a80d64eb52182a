"""Digit-restricted exponential sums and their certified bounds.

The central identity: the sum of e(k*j*gamma) over j ranging across the
truncated zero-one set factors as a product of cosines, so its magnitude
equals 2**(r+1) * prod |cos(pi * k * b**d * gamma)|.  The direct sum is
evaluated term by term (never through that factorization, which is what the
reports are checking) over exact residues, each term one rounded complex
product of two half-table unit vectors, each of those from an angle rounded
once, or, when the grid q of the residues has (r+1) q < 2**(r+1), as the sum of
c_v e(v/q) over the q residues v with the exact count c_v of terms at each,
each the unit vector of v times c_v; both sums add complex runs of terms;
the product side and the bound 2**(r+1) * prod (1 - pi*||k b^d gamma||^2)
are integer ends, rounded outward to a dyadic grid (_product_ends).  The
report stays on integer ends from the certified bounds to the checks, which
cross-multiply them; each reported number is built once, as a midpoint and
a radius (``exact._real_of_ends``).

Error-radius policy: every float quantity carries a rigorously conservative
radius (one-sided term evaluation error plus summation error), and every
inequality check is radius-aware, so a check can only fail when the
mathematics genuinely fails.  Note the cosine arguments carry the factor
pi; the identity is verified numerically in the test suite.
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import digitsets as ds
from ._kernels import cos_sin_sum, count_rows, digit_scan_close, term_rows
from .errors import (
    DomainError,
    HypothesisViolation,
    IndeterminateComparison,
    InvariantViolation,
    ResourceLimit,
)
from .exact import (
    BOUND_PRECISION,
    Real,
    _real_of_ends,
    dist_ends_of_multiple,
    dist_le_of_multiple,
    dist_to_nearest_int,
    iv_precision,
    iv_to_real,
    power_residues,
)

#: Cap on r for every method: a direct sum has at most 2**(R_CAP_DEFAULT + 1)
#: terms, and the separation scan's half tables at most 2**14 entries each.
R_CAP_DEFAULT = 26

# float64 budgets in units of 1/_ERR_UNIT: |term evaluated - e(v/q)| per
# component, and the unit roundoff 2**-53 with room for the factor
# 1/(1 - h u); see _sum_radius
_ERR_UNIT = 10**17
_TERM_ERR, _EPS = 430, 12
# relative envelope _FACTOR_ERR * 2**-51 for one float64 sin at an exact
# argument: its bounds are (2**51 -+ _FACTOR_ERR) / 2**51 times it; see sin_pi_bounds
_FACTOR_ERR = 9
_FACTOR_LO, _FACTOR_HI = (1 << 51) - _FACTOR_ERR, (1 << 51) + _FACTOR_ERR
_NORMAL_MIN = 2.0**-1021
# the product enclosures round every partial product outward to 2**-_PRODUCT_BITS
_PRODUCT_BITS = 64


@functools.cache
def pi_bounds() -> tuple[Fraction, Fraction]:
    """Certified rational bounds pi_lo < pi < pi_hi (120-bit tight)."""
    with iv_precision(120) as iv:
        enc = iv_to_real(iv.pi)
    return enc.lo, enc.hi


def sin_pi_bounds(
    lo: tuple[int, int], hi: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Unreduced integer pairs (s, t), (u, v) with s/t <= sin(pi lo) and
    sin(pi hi) <= u/v, for ends given as pairs (num, den) with 0 <= lo <=
    hi <= 1/2.

    Each distinct end h = num/den is fl(sin(fl(pi) fl(h))) widened by
    _FACTOR_ERR * 2**-51 = 36u: its integer ratio times (2**51 -+
    _FACTOR_ERR) over 2**51.  With u = 2**-53, the three roundings of the
    argument (num/den is one correctly rounded division, reduced or not) keep
    it within 3.01u of x = pi h, which moves sin x by at most 3.01u * pi/2 <
    4.73u relative, as x / sin x <= pi/2 on (0, pi/2].  A platform ``sin``
    within 4 ulp (8u, the assumption of ``_sum_radius``) makes the total
    under 13u, inside the 36u.  A nonzero h that reads below _NORMAL_MIN may
    have left the normal range (10**-400 reads as 0), so it gets the exact
    pi_lo h (1 - (pi_hi h)**2 / 6) <= sin(pi h) <= pi_hi h from
    ``pi_bounds``; a read at or above it puts h above 2**-1022.
    """
    s_lo = _sin_pi(*lo)
    s_hi = s_lo if hi == lo else _sin_pi(*hi)
    if s_lo is None:
        (a, c), ((p, q), (P, Q)) = lo, map(Fraction.as_integer_ratio, pi_bounds())
        below = (p * a * (6 * Q * Q * c * c - P * P * a * a), 6 * q * Q * Q * c * c * c)
    else:
        below = (s_lo[0] * _FACTOR_LO, s_lo[1] << 51)
    if s_hi is None:
        (a, c), (P, Q) = hi, pi_bounds()[1].as_integer_ratio()
        above = (P * a, Q * c)
    else:
        above = (s_hi[0] * _FACTOR_HI, s_hi[1] << 51)
    return below, above


def _sin_pi(num: int, den: int) -> Optional[tuple[int, int]]:
    # fl(sin(fl(pi) fl(num/den))) as an integer ratio, or None below _NORMAL_MIN
    x = num / den
    if x < _NORMAL_MIN and num:
        return None
    return math.sin(math.pi * x).as_integer_ratio()


def _sum_radius(n: int) -> tuple[int, int]:
    """Worst-case float64 radius, as an integer pair (num, den), for one
    component of an n-term sum of cos(2 pi v/q) or sin(2 pi v/q), summed
    block by block (``cos_sin_sum`` on a complex run) and, over several
    blocks, by ``math.fsum``; on the direct path a block is a run of whole
    rows of the half tables (``term_rows``), at most max(2**16, 2**s)
    entries and at most n.  With u = 2**-53:

    Each term is within 4.3e-15 (_TERM_ERR) per component.  A half-table
    angle fl(fl(2 pi) (x - (x >= 1/2))), x = fl(t/q) for an exact residue t
    (Sterbenz makes the shift exact), lies in [-pi, pi) and within
    2 pi * 2u of 2 pi t/q mod 2 pi.  cos and sin are 1-Lipschitz and numpy
    evaluates them on [-pi, pi] within 4 ulp, 4u, so the unit vector E =
    fl(cos) + i fl(sin) is within eta = 4 pi u + sqrt(2) 4u < 2.03e-15 of
    e(t/q), and |E| <= 1 + eta.  The exact product E_H E_L is then within
    eta (1 + eta) + eta = 2 eta + eta**2 < 4.05e-15 of e(v/q).  numpy rounds
    each component of the complex product a c - b d (or a d + b c): without
    FMA it rounds both products and the difference, with FMA one product
    and the fused result, and either way the error is at most
    (2u + u**2)(|a c| + |b d|) <= (2u + u**2)(1 + eta)**2 < 2.3e-16, as
    |a c| + |b d| <= |E_H| |E_L| (Cauchy-Schwarz).  In all, under 4.28e-15.

    Summation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 4): numpy's ``sum`` halves a block of m <= n terms until it is at
    most 128 long, in at most bits(m) - 6 <= bits(n) - 6 levels, on a
    strided view (the real or imaginary part of a complex run) as on a
    contiguous array.  A leaf of 128 holds 8 interleaved accumulators of at
    most 16 terms (15 additions), combines them in 3 more, then adds at most
    7 leftover terms one by one.  So a term passes at most h = bits(n) + 19
    additions, and ``fsum`` rounds once more.  The error is at most
    gamma_(h+1) * sum |x_i| <= (bits(n) + 20) * 1.01 u * n (1 + 4.3e-15),
    and 1.2e-16 (_EPS) exceeds 1.01 u (1 + 4.3e-15).

    The count path (``count_rows``, taken when (r+1) q < n) sums q
    weighted unit vectors c_v E_v instead, c_v the exact number of the n
    terms with residue v: at most n <= 2**27, so exact in int64 and
    float64, and sum c_v = n.  Each angle theta_v is one half angle above,
    rounded once, within 2 pi * 2u of 2 pi v/q mod 2 pi, so E_v = fl(cos
    theta_v) + i fl(sin theta_v) is within 4 pi u + 4u < 1.9e-15 per
    component, inside _TERM_ERR, and the weighted terms are within n *
    _TERM_ERR.  numpy's complex product c_v E_v forms each component as
    c_v fl(cos theta_v) - fl(sin theta_v) 0 (or c_v fl(sin) + fl(cos) 0),
    whose cross term is an exact zero, so it adds one rounding, relative
    u.  The q products are summed in blocks of at most min(q, 2**16)
    residues, so each passes at most bits(q) + 19 additions, and ``fsum``
    rounds once more: h = bits(q) + 21 roundings in all, error at most
    gamma_h * n.  On this path r >= 1, so q < n / 2 and bits(q) < bits(n):
    h is at most the direct path's bits(n) + 20, and _sum_radius(n) covers
    both.  At r = 0 the path needs q < 2, where every residue is 0
    and the sum takes the exact shortcut of ``eval_expsum``.
    """
    bits = max(n.bit_length(), 1)
    return n * (_TERM_ERR + (bits + 20) * _EPS), _ERR_UNIT


# ---------------------------------------------------------------------------
# distance scale classes
# ---------------------------------------------------------------------------


def _class_of(b: int, w: Fraction) -> int:
    # smallest t >= 1 with w > 1/(2 b^t), for w in (0, 1/2]
    t, scale = 1, 2 * b
    while w.numerator * scale <= w.denominator:
        t += 1
        scale *= b
    return t


def classify_G(b: int, y: Real) -> Optional[int]:
    """Locate ||y|| on the geometric scale of half-powers of b: the class
    t >= 1 with 1/(2b^t) < ||y|| <= 1/(2b^(t-1)), or None when ||y|| = 0."""
    ds.check_base(b)
    w = dist_to_nearest_int(y)
    lo, hi = w.lo, w.hi
    if lo.numerator <= 0:
        if not hi:
            return None
        raise IndeterminateComparison(
            f"||y|| enclosure {w!r} cannot separate zero from a finite class"
        )
    t = _class_of(b, hi)
    if lo.numerator * 2 * b**t <= lo.denominator:  # lo lies in a later class
        raise IndeterminateComparison(f"||y|| enclosure {w!r} straddles a class boundary")
    return t


# ---------------------------------------------------------------------------
# separation hypothesis and close shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    counterexample: Optional[int]
    b: int
    r: int
    beta: Fraction


@functools.lru_cache(maxsize=1)
def separation_check(b: int, r: int, beta: Fraction, gamma: Real) -> SeparationReport:
    """Check ||gamma * x|| > beta for every nonzero x in the extended
    truncated set; on failure report the least violating x.

    The last verdict is kept: small_shift_count checks again the
    (b, r, beta, gamma) its caller has usually just checked, and scans once."""
    ds.check_base(b)
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    beta = Fraction(beta)
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    if r > R_CAP_DEFAULT:
        raise ResourceLimit(f"r={r} exceeds the term cap r <= {R_CAP_DEFAULT}")

    # a truncated element x <= V = unrank(b, count) has ||gamma x|| within
    # x rad of its reading ||x M/Q|| (gamma.mid = M/Q), so one read above
    # beta + V rad certainly passes; for an exact gamma the first read fails
    count = (1 << (r + 1)) - 1
    Q, add_mod = power_residues(gamma, 1, b, r + 1)
    window = beta + ds.unrank(b, count) * gamma.rad
    hits = digit_scan_close(add_mod, count, Q, window.numerator, window.denominator)
    trunc = (ds.unrank(b, i) for i in hits)
    # ascending merge of both families, first failure wins
    for x in heapq.merge(trunc, ds.power_gaps(b, r)):
        if dist_le_of_multiple(gamma, x, beta):
            return SeparationReport(False, x, b, r, beta)
    return SeparationReport(True, None, b, r, beta)


@dataclass(frozen=True)
class ShiftReport:
    g: int
    positions: tuple[int, ...]


def small_shift_count(b: int, r: int, k: int, gamma: Real, beta: Fraction) -> ShiftReport:
    """Positions d in 0..r with ||k * b**d * gamma|| <= beta, for beta > 0.

    Fewer than 3*sqrt(k) positions are close under the separation
    hypothesis; a count g with g^2 >= 9k raises unless separation_check
    fails (its scan runs only then).
    """
    ds.check_base(b)
    if r < 0 or k < 1:
        raise DomainError("need r >= 0 and k >= 1")
    beta = Fraction(beta)
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    positions = tuple(d for d in range(r + 1) if dist_le_of_multiple(gamma, k * b**d, beta))
    g = len(positions)
    if g * g >= 9 * k and separation_check(b, r, beta, gamma).ok:
        raise InvariantViolation(
            f"close-shift count g={g} reached 3*sqrt({k}) despite the separation hypothesis"
        )
    return ShiftReport(g, positions)


# ---------------------------------------------------------------------------
# the exponential sum report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpSumReport:
    b: int
    r: int
    k: int
    gamma: Real
    value_re: Real
    value_im: Real
    magnitude: Real
    product_magnitude: Real
    product_bound: Real
    term_count: int
    zero_excluded: bool
    decay_bound: Optional[Real] = None
    separation_beta: Optional[Fraction] = None
    far_positions: Optional[tuple[int, ...]] = None


def _product_ends(factors_lo, factors_hi, scale: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((lo, 2**_PRODUCT_BITS), (hi, 2**_PRODUCT_BITS)), integer ends of an
    enclosure of scale * prod [lo_d, hi_d] for factors with 0 <= lo_d, each
    given as an integer pair (num, den) with den > 0, reduced or not.

    Every partial product is rounded outward to the grid 2**-_PRODUCT_BITS,
    so the digits stay bounded.  Each of the m roundings moves its end by
    less than 2**-_PRODUCT_BITS and the later factors scale that by at most
    F**(m-1), F = max(1, every hi_d): each end widens by at most
    scale * m * F**(m-1) * 2**-_PRODUCT_BITS.
    """
    one = 1 << _PRODUCT_BITS
    lo = hi = one
    for (a, c), (e, f) in zip(factors_lo, factors_hi):
        lo = lo * a // c
        hi = -(-hi * e // f)
    return (max(0, lo) * scale, one), (hi * scale, one)


def _magnitude_ends(x: float, y: float, rad: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """((lo, den), (hi, den)), integer ends of an enclosure of |z| for z in
    the box [x -+ rad] x [y -+ rad], rad an integer pair (num, den), around a
    float hypot; exact, |x|, when rad and y are 0.

    With u = 2**-53: x and y are the float sums, or x a sum minus 1.0,
    which IEEE subtraction rounds correctly, so it equals float(Fraction(x)
    - 1): within u relative of the exact difference, which is exact or at
    least 1/2 in magnitude (Sterbenz), so no subnormal arises.  The float
    pair thus has a norm within u * |(x, y)| of the exact one.  CPython >=
    3.10 documents ``math.hypot`` within 1 ulp, at most 2u relative to the
    result h.  Together |h - |(x, y)|| <= 2u h + u (1 + 2u) h / (1 - u) <
    3.01 u h, inside the slack h * 2**-50 = 8u h.  Moving x and y by at most
    rad each moves |(x, y)| by at most hypot(rad, rad) <= 2 rad.  The lower
    end is clamped at 0.
    """
    p, d = rad
    if not (p or y):
        a, c = abs(x).as_integer_ratio()
        return (a, c), (a, c)
    a, c = math.hypot(x, y).as_integer_ratio()
    # h and its slack 2 rad + h 2**-50 over the one denominator d c 2**50
    mid, slack = a * d << 50, (p * c << 51) + a * d
    den = d * c << 50
    return (max(0, mid - slack), den), (mid + slack, den)


def _exceeds(a: tuple[int, int], b: tuple[int, int]) -> bool:
    # a > b for integer pairs (num, den) with den > 0
    return a[0] * b[1] > b[0] * a[1]


def eval_expsum(
    b: int,
    r: int,
    k: int,
    gamma: Real,
    exclude_zero: bool = False,
) -> ExpSumReport:
    """Evaluate the digit-restricted exponential sum and its certified
    companions: the factored product magnitude and the product bound.

    The report's internal consistency (|sum| against the product magnitude,
    and against the bound) is verified before returning, on the integer
    ends of the enclosures; radii make both checks rigorous.
    """
    ds.check_base(b)
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r > R_CAP_DEFAULT:
        raise ResourceLimit(f"r={r} exceeds the term cap r <= {R_CAP_DEFAULT}")

    q, res_mods = power_residues(gamma, k, b, r + 1)

    # the ends of w_d = ||k b^d gamma|| as integer pairs (num, den)
    w_los, w_his = zip(*(dist_ends_of_multiple(gamma, k * b**d) for d in range(r + 1)))
    # |cos(pi theta)| = sin(pi h) with h = 1/2 - ||theta||, an identity of
    # the tent map; so the h interval flips the w interval around 1/2
    h_los = [(c - 2 * a, 2 * c) for a, c in w_his]
    h_his = [(c - 2 * a, 2 * c) for a, c in w_los]

    # product magnitude 2^(r+1) prod sin(pi h_d); a factor at h = 0 is exactly 0
    n = 1 << (r + 1)
    f_lo, f_hi = zip(*map(sin_pi_bounds, h_los, h_his))
    prod_lo, prod_hi = _product_ends(f_lo, f_hi, n)

    # product bound 2^(r+1) prod (1 - pi w_d^2), from exact rational factors
    (lo_p, lo_q), (hi_p, hi_q) = map(Fraction.as_integer_ratio, pi_bounds())
    b_lo = [(hi_q * c * c - hi_p * a * a, hi_q * c * c) for a, c in w_his]
    b_hi = [(lo_q * c * c - lo_p * a * a, lo_q * c * c) for a, c in w_los]
    bound_lo, bound_hi = _product_ends(b_lo, b_hi, n)

    # the direct sum over the n terms, exact when every angle is 0; by the
    # cost model min(n, (r+1) q), sum q unit vectors weighted by the count of
    # terms at each residue when that is cheaper, the n terms otherwise;
    # each part is the fsum of its blocks' sums (cos_sin_sum)
    if all(v == 0 for v in res_mods):
        x, y, (s, S) = float(n), 0.0, (0, 1)
    else:
        runs = count_rows if (r + 1) * q < n else term_rows
        cos_parts, sin_parts = zip(*map(cos_sin_sum, runs(res_mods, q)))
        x, y, (s, S) = math.fsum(cos_parts), math.fsum(sin_parts), _sum_radius(n)
    # both parts within _sum_radius(n) and, as every term e(k j gamma) moves
    # by at most 2 pi |k| j rad, 7 |k| (sum of the j) R/D for gamma.rad = R/D
    R, D = gamma.rad.numerator, gamma.rad.denominator
    total_j = (1 << r) * (b ** (r + 1) - 1) // (b - 1)
    rad = (s * D + 7 * abs(k) * total_j * R * S, S * D)
    mag_lo, mag_hi = _magnitude_ends(x, y, rad)

    product_magnitude = _real_of_ends(prod_lo, prod_hi)
    product_bound = _real_of_ends(bound_lo, bound_hi)
    # both enclose the same number, so they must intersect
    if _exceeds(mag_lo, prod_hi) or _exceeds(prod_lo, mag_hi):
        raise InvariantViolation(
            f"product identity failed at b={b}, r={r}, k={k}, gamma={gamma!r}: "
            f"|sum|={float(_real_of_ends(mag_lo, mag_hi).mid):.6g} "
            f"vs product={float(product_magnitude.mid):.6g}"
        )
    if _exceeds(mag_lo, bound_hi):
        raise InvariantViolation(
            f"product bound violated at b={b}, r={r}, k={k}: "
            f"|sum|={float(_real_of_ends(mag_lo, mag_hi).mid):.6g} "
            f"> bound={float(product_bound.hi):.6g}"
        )

    # the zero-excluded sum drops the term e(0) = 1: its real part is the
    # exact x - 1, its magnitude reads the float x - 1.0
    re_num, re_den = x.as_integer_ratio()
    terms = n
    if exclude_zero:
        re_num, terms = re_num - re_den, n - 1
        mag_lo, mag_hi = _magnitude_ends(x - 1.0, y, rad)
    part_rad = Fraction(*rad)

    return ExpSumReport(
        b=b,
        r=r,
        k=k,
        gamma=gamma,
        value_re=Real(Fraction(re_num, re_den), part_rad),
        value_im=Real(Fraction(y), part_rad),
        magnitude=_real_of_ends(mag_lo, mag_hi),
        product_magnitude=product_magnitude,
        product_bound=product_bound,
        term_count=terms,
        zero_excluded=exclude_zero,
    )


def _decay_bound(b: int, r: int, k: int, m: int) -> Real:
    """Outward enclosure of 2^(r+3) * (1 - pi/(4 b^2))^((r+1 - 3 sqrt(k))/m)."""
    with iv_precision(BOUND_PRECISION) as iv:
        e = (r + 1 - 3 * iv.sqrt(k)) / m
        return iv_to_real(2 ** (r + 3) * iv.exp(e * iv.log(1 - iv.pi / (4 * b * b))))


def decay_bound_check(b: int, r: int, k: int, m: int, gamma: Real) -> ExpSumReport:
    """The conditional decay bound for the zero-excluded sum.

    Requires the separation hypothesis ||gamma x|| > 1/(2 b^m) on the
    extended truncated set (checked; violations raise with the least
    counterexample).  Verifies, radius-aware, that the zero-excluded sum
    magnitude stays below 2^(r+3) * (1 - pi/(4 b^2))^((r - 3 sqrt(k) + 1)/m)
    and that fewer than 3 sqrt(k) shift positions are close (g^2 < 9k, else
    ``InvariantViolation``), so more than r + 1 - 3 sqrt(k) stay separated.
    """
    ds.check_base(b)
    if m < 1 or k < 1 or r < 0:
        raise DomainError("need m >= 1, k >= 1, r >= 0")
    beta = Fraction(1, 2 * b**m)
    sep = separation_check(b, r, beta, gamma)
    if not sep.ok:
        raise HypothesisViolation(
            f"separation hypothesis fails at x={sep.counterexample}: "
            f"||gamma x|| <= {beta}",
            counterexample=sep.counterexample,
        )

    report = eval_expsum(b, r, k, gamma, exclude_zero=True)

    # fewer than 3 sqrt(k) shifts are close, so more than r + 1 - 3 sqrt(k) stay far
    close = small_shift_count(b, r, k, gamma, beta).positions
    far = [d for d in range(r + 1) if d not in close]

    bound = _decay_bound(b, r, k, m)
    if report.magnitude.lo > bound.hi:
        raise InvariantViolation(
            f"decay bound violated at b={b}, r={r}, k={k}, m={m}: "
            f"|sum|={float(report.magnitude.mid):.6g} > {float(bound.hi):.6g}"
        )

    return replace(
        report,
        decay_bound=bound,
        separation_beta=beta,
        far_positions=tuple(far),
    )
