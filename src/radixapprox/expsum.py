"""Digit-restricted exponential sums and their certified bounds.

The central identity: the sum of e(k*j*gamma) over j ranging across the
truncated zero-one set factors as a product of cosines, so its magnitude
equals 2**(r+1) * prod |cos(pi * k * b**d * gamma)|.  The direct sum is
evaluated over exact residues, not through the cosines the reports check:
the term of n = h 2**s + l is the product E_H[h] E_L[l] of two half-table
unit vectors, each from an angle rounded once, so the sum of all the terms
is the product of the two half sums (``_kernels.half_sums``), a
distributivity step that applies no identity the terms do not already use;
each half sum still adds 2**s (or 2**(k-s)) subset residues.  The product
side and the bound 2**(r+1) * prod (1 - pi*||k b^d gamma||^2) are one float
pass over the digits (``_cosine_product_ends``), each product widened once
and rounded outward onto the dyadic grid 2**-_PRODUCT_BITS.  The report
stays on integer ends from the certified bounds to the checks, which
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

from mpmath.libmp.libmpi import mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_pi, mpi_sqrt, mpi_sub

from . import digitsets as ds
from ._kernels import digit_scan_close, half_sums
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
    dist_le_of_multiple,
    dist_to_nearest_int,
    mpi_of_int,
    mpi_to_real,
    power_residues,
)

#: Cap on r for every method: a direct sum adds two half sums of at most
#: 2**14 unit vectors each, and the separation scan's half tables hold at most
#: 2**14 entries each.
R_CAP_DEFAULT = 26

# float64 budgets in units of 1/_ERR_UNIT, per term of the sum: the two
# half-table unit vectors' errors and the rounding of the product of the
# half sums, and the unit roundoff 2**-53 with room for the factor
# 1/(1 - h u); see _sum_radius
_ERR_UNIT = 10**17
_TERM_ERR, _EPS = 430, 12
# the relative envelope _FACTOR_ERR * 2**-51 = 36u of one float factor; see
# _cosine_product_ends
_FACTOR_ERR = 9
_NORMAL_MIN = 2.0**-1021
# the products and the Erdos-Turan right side are rounded outward to 2**-_PRODUCT_BITS
_PRODUCT_BITS = 64
# u = 2**-53: 1 -+ 4u moves a distance end outward, 1 + 8u a radius
# (_float_up) and 1 -+ 2**-42 a product; a product read below _PRODUCT_MIN
# takes the ends [0, _PRODUCT_MIN]; _PI_FLOATS bracket pi for the bound
# factors 1 - pi w**2
_DIST_DOWN, _DIST_UP, _RAD_UP = 1 - 2.0**-51, 1 + 2.0**-51, 1 + 2.0**-50
_PROD_DOWN, _PROD_UP, _PRODUCT_MIN = 1 - 2.0**-42, 1 + 2.0**-42, 2.0**-900
_PI_FLOATS = (math.pi, math.nextafter(math.pi, math.inf))


@functools.cache
def pi_bounds() -> tuple[Fraction, Fraction]:
    """Certified rational bounds pi_lo < pi < pi_hi (120-bit tight)."""
    enc = mpi_to_real(mpi_pi(120))
    return enc.lo, enc.hi


def _float_up(x) -> float:
    """The float reading rho of a radius x >= 0, a Fraction or a float, such
    that fl(fl(n) rho) >= n x for every integer 1 <= n < 2**1023: rho =
    max(next(f), fl(f (1 + 8u))), f the float nearest x, u = 2**-53.  Where
    f is normal, rho >= x (1 + 5u) covers the two roundings.  Where it is
    subnormal, rho >= x + 2**-1075 (x + 3 * 2**-1075 from f >= 2**-1023 on),
    and fl(n) rho is exact until it is normal, from where that margin, n
    times over, covers its 2u."""
    f = float(x)
    return max(math.nextafter(f, math.inf), f * _RAD_UP)


def _sum_radius(n: int) -> tuple[int, int]:
    """Worst-case float64 radius, as an integer pair (num, den), for each
    component of the sum of the n = 2**k terms e(v/q), k = r + 1, as
    ``eval_expsum`` forms it: the complex product A' B' of the two float
    half sums of ``_kernels.half_sums``, over m_H = 2**(k-s) and m_L =
    2**s unit vectors, s = k // 2, so m_H m_L = n.  With u = 2**-53:

    Each unit vector E is within eta < 2.03e-15 of e(t/q) (modulus of the
    difference).  A half-table angle fl(fl(2 pi) (x - (x >= 1/2))), x =
    fl(t/q) for an exact residue t (Sterbenz makes the shift exact), lies in
    [-pi, pi) and within 2 pi * 2u of 2 pi t/q mod 2 pi, which moves the
    point on the circle by at most 4 pi u.  numpy evaluates cos and sin on
    [-pi, pi] within 4 ulp, 4u, each, so eta = 4 pi u + sqrt(2) 4u <
    2.03e-15, and |E| <= 1 + eta.

    A half sum of m unit vectors is within m eps of the exact sum A of its
    m terms e(t/q), eps = eta + gamma_h (1 + eta).  The exact sum of the E
    is within m eta of A.  numpy's ``sum`` (``cos_sin_sum``, each component
    a strided view, summed as a contiguous array) halves a run of m terms
    until it is at most 128 long, in at most bits(m) - 6 levels; a leaf of
    128 holds 8 interleaved accumulators of at most 16 terms (15
    additions), combines them in 3 more, then adds at most 7 leftover terms
    one by one.  So a term passes at most h = bits(m) + 19 additions, and
    each component is within gamma_h = h u / (1 - h u) times its sum of
    absolute values (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4); by Minkowski the two components' errors together
    have modulus at most gamma_h sum |E| <= gamma_h m (1 + eta).

    With A, B the exact half sums of the float ones A', B', |A| <= m_H and
    |B'| <= m_L (1 + eps_L), so the exact product is off by |A'B' - AB| <=
    |A' - A||B'| + |A||B' - B| <= n (eps_H + eps_L + eps_H eps_L).  Each
    component of the float product, a c - b d or a d + b c for A' = a + i b
    and B' = c + i d, in Python floats (two rounded products and a rounded
    sum, no FMA), is within (2u + u**2)(|a c| + |b d|) <= (2u + u**2)|A'||B'|
    <= (2u + u**2) n (1 + eps_H)(1 + eps_L) of that of A'B', by
    Cauchy-Schwarz.  So each component is within n times

        2 eta + (2u + u**2)(1 + eps_H)(1 + eps_L) + eps_H eps_L
            + (gamma_hH + gamma_hL)(1 + eta).

    At r <= R_CAP_DEFAULT, m <= 2**14 and h <= 34, so eps < 5.9e-15: the
    first three terms are under 4.06e-15 + 2.3e-16 + 4e-29 < 4.3e-15
    (_TERM_ERR), and as gamma_h (1 + eta) < 1.01 h u, the last is under
    (hH + hL) 1.2e-16 (_EPS), where hH + hL = bits(m_H) + bits(m_L) + 38 =
    k + 40 = bits(n) + 39.  At r = 0 the low table is the one entry e(0) = 1
    and its sum is exact.
    """
    bits = max(n.bit_length(), 1)
    return n * (_TERM_ERR + (bits + 39) * _EPS), _ERR_UNIT


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


def separation_check(b: int, r: int, beta: Fraction, gamma: Real) -> SeparationReport:
    """Check ||gamma * x|| > beta for every nonzero x in the extended
    truncated set; on failure report the least violating x."""
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


def _cosine_product_ends(gamma: Real, k: int, b: int, residues: list[int]):
    """Integer ends ((lo, 2**64), (hi, 2**64)) of the product magnitude
    2**(r+1) prod_d |cos(pi theta_d)| and of the bound 2**(r+1) prod_d (1 -
    pi ||theta_d||**2), theta_d = k b**d gamma', for every gamma' in gamma:
    one float pass over the residues v_d = k b**d M mod Q of gamma.mid = M/Q.

    Ends (u = 2**-53): w = ||theta_d|| reads x = fl(a/Q), a = min(v, Q - v),
    and h = 1/2 - w (|cos(pi theta)| = sin(pi h)) y = fl((Q - 2a)/(2Q)), each
    within u; e = fl(n rho) >= n rad, n = |k| b**d, rho =
    ``_float_up(min(gamma.rad, 1))`` (0 where rad or k is 0; e = 1 from n =
    2**1023 on), as a radius of 1 or more widens every distance to [0, 1/2].  Where x is normal, fl(fl(x (1 - 4u)) - e), clamped at 0, is below
    the lower end, and fl(fl(x (1 + 4u)) + e), clamped at 1/2, at least (1 -
    u) times the upper end, and y the same; a w below float range reads the
    bound factor 1.

    The _FACTOR_ERR envelope: a factor read in floats at an end outward of
    the true end, or within 2u of it, is within _FACTOR_ERR 2**-51 = 36u of
    the factor at the true end, relative, on its outward side.  A sine
    fl(sin(fl(fl(pi) h))), h in [_NORMAL_MIN, 1/2]: sin(pi h) is concave on
    [0, 1/2] and 0 at 0, so h within 2u moves it by 2u; fl(pi) and the
    product move the argument by 1.36u, and a platform sin within 4 ulp (8u,
    as in ``_sum_radius``) adds 8u: under 12u.  A bound factor fl(1 - fl(fl(p
    w) w)), p from _PI_FLOATS: w within 2u and the two roundings move pi
    w**2 by 6u, at most 3.66 times the factor (at w = 1/2), and the
    subtraction adds u: under 23u.

    Products: a factor within 36u is within 36 factors 1 + delta, |delta| <=
    u, so a product of r + 1 <= 27 of them, with its r roundings, is within
    gamma_999 < 2**-43 of the product at the true ends, on the outward side,
    while its partial products stay normal (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 3): floor and ceil of fl(P (1 -+ 2**-42))
    2**(r+1) 2**64 are the integer ends.  No factor exceeds 1, so partial
    products decrease: a lower product read at least _PRODUCT_MIN had every
    partial product and sine argument normal, and one below reads 0.  An upper
    product reads at least _PRODUCT_MIN, above the true end (below 2**-1019)
    where a partial product left the normal range or an h read below
    _NORMAL_MIN (its true end is below 2**-1021 (1 + 2u)).  An exact reading
    keeps 0 where some 2v = Q, and the bound 2**(r+1) where every v is 0.
    """
    Q, one = gamma.mid.denominator, 1 << _PRODUCT_BITS
    grid = float(one << len(residues))
    rho = _float_up(min(gamma.rad, 1)) if gamma.rad and k else 0.0
    pi_lo, pi_hi = _PI_FLOATS
    m_lo = m_hi = b_lo = b_hi = 1.0
    n = abs(k)
    for v in residues:
        a = min(v, Q - v)
        x, y = a / Q, (Q - 2 * a) / (2 * Q)
        e = rho and (n * rho if n.bit_length() < 1024 else 1.0)
        n *= b
        w_lo, w_hi = max(0.0, x * _DIST_DOWN - e), min(0.5, x * _DIST_UP + e)
        h_lo, h_hi = max(0.0, y * _DIST_DOWN - e), min(0.5, y * _DIST_UP + e)
        m_lo *= math.sin(math.pi * h_lo)
        m_hi *= math.sin(math.pi * h_hi)
        b_lo *= 1 - pi_hi * w_hi * w_hi
        b_hi *= 1 - pi_lo * w_lo * w_lo
    magnitude, bound = (((math.floor(lo * _PROD_DOWN * grid) if lo >= _PRODUCT_MIN else 0, one),
                         (math.ceil(max(hi * _PROD_UP, _PRODUCT_MIN) * grid), one))
                        for lo, hi in ((m_lo, m_hi), (b_lo, b_hi)))
    if not rho and any(2 * v == Q for v in residues):
        magnitude = (0, one), (0, one)
    if not (rho or any(residues)):
        bound = ((one << len(residues), one),) * 2
    return magnitude, bound


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

    n = 1 << (r + 1)
    (prod_lo, prod_hi), (bound_lo, bound_hi) = _cosine_product_ends(gamma, k, b, res_mods)

    # the direct sum over the n terms, exact when every angle is 0, and
    # otherwise the product of the two half sums, in Python floats
    if all(v == 0 for v in res_mods):
        x, y, (s, S) = float(n), 0.0, (0, 1)
    else:
        (ar, ai), (br, bi) = half_sums(res_mods, q)
        x, y, (s, S) = ar * br - ai * bi, ar * bi + ai * br, _sum_radius(n)
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
    p = BOUND_PRECISION
    three_root_k = mpi_mul(mpi_of_int(3, p), mpi_sqrt(mpi_of_int(k, p), p), p)
    e = mpi_div(mpi_sub(mpi_of_int(r + 1, p), three_root_k, p), mpi_of_int(m, p), p)
    factor = mpi_sub(mpi_of_int(1, p), mpi_div(mpi_pi(p), mpi_of_int(4 * b * b, p), p), p)
    power = mpi_exp(mpi_mul(e, mpi_log(factor, p), p), p)
    return mpi_to_real(mpi_mul(mpi_of_int(2 ** (r + 3), p), power, p))


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
