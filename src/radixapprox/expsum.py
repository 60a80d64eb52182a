"""Digit-restricted exponential sums and their certified bounds.

The central identity: the sum of e(k*j*gamma) over j ranging across the
truncated zero-one set factors as a product of cosines, so its magnitude
equals 2**(r+1) * prod |cos(pi * k * b**d * gamma)|.  The direct sum is
evaluated term by term (never through that factorization, which is what the
reports are checking) with exact mod-1 reduction of every angle; the
product side and the bound 2**(r+1) * prod (1 - pi*||k b^d gamma||^2) are
computed as exact rational intervals around float factors.

Error-radius policy: every float quantity carries a rigorously conservative
radius (one-sided term evaluation error plus summation error), and every
inequality check is radius-aware, so a check can only fail when the
mathematics genuinely fails.  Note the cosine arguments carry the factor
pi; the identity is verified numerically in the test suite.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath

from . import digitsets as ds
from ._kernels import cos_sin_sum, first_close, residue_blocks
from .errors import (
    DomainError,
    HypothesisViolation,
    IndeterminateComparison,
    InvariantViolation,
    ResourceLimit,
)
from .exact import Real, dist_exact, dist_to_nearest_int, iv_to_real

#: Default cap on r: at most 2**(R_CAP_DEFAULT + 1) terms per direct sum.
R_CAP_DEFAULT = 26

# float64 budgets: |e(theta) evaluated - true| per component, and the unit
# roundoff 2**-53 with room for the factor 1/(1 - h u); see _sum_radius
_TERM_ERR = Fraction(4, 10**15)
_EPS = Fraction(12, 10**17)
# relative envelope for one float64 sin factor at an exactly reduced argument
_FACTOR_ERR = Fraction(9, 2**51)

_pi_cache: Optional[tuple[Fraction, Fraction]] = None


def pi_bounds() -> tuple[Fraction, Fraction]:
    """Certified rational bounds pi_lo < pi < pi_hi (120-bit tight)."""
    global _pi_cache
    if _pi_cache is None:
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = 120
            enc = iv_to_real(iv.pi)
        finally:
            iv.prec = old
        _pi_cache = (enc.lo, enc.hi)
    return _pi_cache


def _sum_radius(n: int) -> Fraction:
    """Worst-case float64 radius for one component of an n-term sum of
    cos(2 pi v/q) or sin(2 pi v/q), summed by ``cos_sin_sum`` block by block
    and, over several blocks, by ``math.fsum``.  With u = 2**-53:

    Each term is within _TERM_ERR = 4e-15.  int64 residues form the angle
    as v * fl(2 pi / q): five roundings (pi, q, the quotient, v, the
    product) put it within 2 pi * 5.01 u < 3.5e-15.  Python-int residues
    round v / q, 2 pi and the product: three roundings, < 2.1e-15.  cos and
    sin are 1-Lipschitz, and numpy evaluates them within 4 ulp, 4.5e-16.

    Summation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 4): numpy's ``sum`` halves a block until it is at most 128 long, in
    at most bits(n) - 6 levels.  A leaf of 128 holds 8 interleaved
    accumulators of at most 16 terms (15 additions), combines them in 3
    more, then adds at most 7 leftover terms one by one.  So a term passes
    at most h = bits(n) + 19 additions, and ``fsum`` rounds once more.  The
    error is at most gamma_(h+1) * sum |x_i| <= (bits(n) + 20) * 1.01 u * n,
    and _EPS = 1.2e-16 exceeds 1.01 u.
    """
    bits = max(n.bit_length(), 1)
    return n * (_TERM_ERR + (bits + 20) * _EPS)


# ---------------------------------------------------------------------------
# distance scale classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GClass:
    """Scale class t >= 1 meaning 1/(2b^t) < ||y|| <= 1/(2b^(t-1)); t is
    None exactly when ||y|| = 0."""

    t: Optional[int]


def _class_of(b: int, w: Fraction) -> int:
    # smallest t >= 1 with w > 1/(2 b^t), for w in (0, 1/2]
    t, scale = 1, 2 * b
    while w.numerator * scale <= w.denominator:
        t += 1
        scale *= b
    return t


def classify_G(b: int, y: Real) -> GClass:
    """Locate ||y|| on the geometric scale of half-powers of b."""
    ds.check_base(b)
    w = dist_to_nearest_int(y)
    if w.is_exact:
        if w.mid == 0:
            return GClass(None)
        return GClass(_class_of(b, w.mid))
    if w.hi == 0:
        return GClass(None)
    if w.lo <= 0:
        raise IndeterminateComparison(
            f"||y|| enclosure {w!r} cannot separate zero from a finite class"
        )
    t_from_hi = _class_of(b, w.hi)
    t_from_lo = _class_of(b, w.lo)
    if t_from_hi != t_from_lo:
        raise IndeterminateComparison(f"||y|| enclosure {w!r} straddles a class boundary")
    return GClass(t_from_hi)


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

    if gamma.is_exact:
        q = gamma.mid.denominator
        p = gamma.mid.numerator % q
        add_mod = [(p * pow(b, d, q)) % q for d in range(r + 1)]
        worst: Optional[int] = None
        for first, res in residue_blocks(add_mod, q, 1, 1 << (r + 1)):
            hit = first_close(res, q, beta.numerator, beta.denominator)
            if hit >= 0:
                worst = ds.unrank(b, first + hit)
                break
        for x in ds.power_gaps(b, r):
            if worst is not None and x >= worst:
                break
            if dist_exact(gamma.mid * x) <= beta:
                worst = x
                break
        if worst is None:
            return SeparationReport(True, None, b, r, beta)
        return SeparationReport(False, worst, b, r, beta)

    # enclosure gamma: ascending merge of both families, first failure wins
    beta_r = Real(beta)
    trunc = (ds.unrank(b, i) for i in range(1, 1 << (r + 1)))
    for x in heapq.merge(trunc, ds.power_gaps(b, r)):
        if not (dist_to_nearest_int(gamma * x) > beta_r):
            return SeparationReport(False, x, b, r, beta)
    return SeparationReport(True, None, b, r, beta)


@dataclass(frozen=True)
class ShiftReport:
    g: int
    positions: tuple[int, ...]


def small_shift_count(
    b: int,
    r: int,
    k: int,
    gamma: Real,
    beta: Fraction,
    separation_ok: Optional[bool] = None,
) -> ShiftReport:
    """Positions d in 0..r with ||k * b**d * gamma|| <= beta.

    When the caller has verified the separation hypothesis (pass
    separation_ok=True), the count is asserted to stay below 3*sqrt(k),
    and a violation raises.
    """
    ds.check_base(b)
    if r < 0 or k < 1:
        raise DomainError("need r >= 0 and k >= 1")
    beta = Fraction(beta)
    positions = []
    for d in range(r + 1):
        if dist_to_nearest_int(gamma * (k * b**d)) <= Real(beta):
            positions.append(d)
    g = len(positions)
    if separation_ok and g * g >= 9 * k:
        raise InvariantViolation(
            f"close-shift count g={g} reached 3*sqrt({k}) despite the separation hypothesis"
        )
    return ShiftReport(g, tuple(positions))


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


def _shift_residues(b: int, r: int, k: int, gamma_q: Fraction) -> tuple[int, list[int]]:
    q = gamma_q.denominator
    a = (k * gamma_q.numerator) % q
    return q, [(a * pow(b, d, q)) % q for d in range(r + 1)]


def _product_interval(factors_lo: list[Fraction], factors_hi: list[Fraction], scale: int):
    lo, hi = Fraction(1), Fraction(1)
    for flo, fhi in zip(factors_lo, factors_hi):
        lo *= flo
        hi *= fhi
    return Real.from_interval(max(Fraction(0), lo * scale), hi * scale)


def _direct_sum_exact(b: int, r: int, k: int, gamma_q: Fraction):
    """Direct term-by-term sum over the truncated zero-one set, with exact
    angle reduction; returns (re, im) as Real and the term count."""
    n = 1 << (r + 1)
    q, res_mods = _shift_residues(b, r, k, gamma_q)
    if all(v == 0 for v in res_mods):
        return Real(Fraction(n)), Real(Fraction(0)), n
    parts = [cos_sin_sum(res, q) for _, res in residue_blocks(res_mods, q, 0, n)]
    rad = _sum_radius(n)
    re_mid = Fraction(math.fsum(c for c, _ in parts))
    im_mid = Fraction(math.fsum(s for _, s in parts))
    return Real(re_mid, rad), Real(im_mid, rad), n


def _magnitude(re: Real, im: Real) -> Real:
    if re.is_exact and im.is_exact:
        if im.mid == 0:
            return Real(abs(re.mid))
        if re.mid == 0:
            return Real(abs(im.mid))
    mid = math.hypot(float(re.mid), float(im.mid))
    slack = re.rad + im.rad + Fraction(abs(mid)) * Fraction(1, 2**50)
    lo = max(Fraction(0), Fraction(mid) - slack)
    return Real.from_interval(lo, Fraction(mid) + slack)


def eval_expsum(
    b: int,
    r: int,
    k: int,
    gamma: Real,
    exclude_zero: bool = False,
    r_cap: int = R_CAP_DEFAULT,
) -> ExpSumReport:
    """Evaluate the digit-restricted exponential sum and its certified
    companions: the factored product magnitude and the product bound.

    The report's internal consistency (|sum| against the product magnitude,
    and against the bound) is verified before returning; radii make both
    checks rigorous.
    """
    ds.check_base(b)
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r > r_cap:
        raise ResourceLimit(f"r={r} exceeds the term cap r <= {r_cap}")

    # every term e(k j gamma) moves by at most 2 pi |k| j rad
    total_j = (1 << r) * (b ** (r + 1) - 1) // (b - 1)
    extra_rad = Fraction(7) * abs(k) * total_j * gamma.rad

    q, res_mods = _shift_residues(b, r, k, gamma.mid)

    pi_lo, pi_hi = pi_bounds()
    if gamma.is_exact:
        w_los = [Fraction(min(v, q - v), q) for v in res_mods]
        w_his = w_los
    else:
        w_los, w_his = [], []
        for d in range(r + 1):
            wd = dist_to_nearest_int(gamma * (k * b**d))
            w_los.append(max(Fraction(0), wd.lo))
            w_his.append(min(Fraction(1, 2), wd.hi))
    # |cos(pi theta)| = sin(pi h) with h = 1/2 - ||theta||, an identity of
    # the tent map; so the h interval flips the w interval around 1/2
    h_los = [Fraction(1, 2) - w for w in w_his]
    h_his = [Fraction(1, 2) - w for w in w_los]

    # product magnitude 2^(r+1) prod sin(pi h_d), zero detected exactly
    scale = 1 << (r + 1)
    if any(h == 0 for h in h_his):
        product_magnitude = Real(Fraction(0))
    else:
        f_lo, f_hi = [], []
        for hlo, hhi in zip(h_los, h_his):
            s_lo = math.sin(math.pi * float(hlo))
            s_hi = math.sin(math.pi * float(hhi))
            f_lo.append(max(Fraction(0), Fraction(s_lo) * (1 - _FACTOR_ERR)))
            f_hi.append(Fraction(s_hi) * (1 + _FACTOR_ERR))
        product_magnitude = _product_interval(f_lo, f_hi, scale)

    # product bound 2^(r+1) prod (1 - pi w_d^2), exact rational interval
    b_lo = [1 - pi_hi * w * w for w in w_his]
    b_hi = [1 - pi_lo * w * w for w in w_los]
    product_bound = _product_interval(b_lo, b_hi, scale)

    re_full, im_full, n = _direct_sum_exact(b, r, k, gamma.mid)
    if extra_rad:
        re_full = Real(re_full.mid, re_full.rad + extra_rad)
        im_full = Real(im_full.mid, im_full.rad + extra_rad)
    mag_full = _magnitude(re_full, im_full)

    # both enclose the same number, so they must intersect
    if mag_full.lo > product_magnitude.hi or product_magnitude.lo > mag_full.hi:
        raise InvariantViolation(
            f"product identity failed at b={b}, r={r}, k={k}, gamma={gamma!r}: "
            f"|sum|={float(mag_full.mid):.6g} vs product={float(product_magnitude.mid):.6g}"
        )
    if mag_full.lo > product_bound.hi + Fraction(1, 10**9):
        raise InvariantViolation(
            f"product bound violated at b={b}, r={r}, k={k}: "
            f"|sum|={float(mag_full.mid):.6g} > bound={float(product_bound.hi):.6g}"
        )

    if exclude_zero:
        re_val = re_full - 1
        im_val = im_full
        magnitude = _magnitude(re_val, im_val)
        terms = n - 1
    else:
        re_val, im_val, magnitude, terms = re_full, im_full, mag_full, n

    return ExpSumReport(
        b=b,
        r=r,
        k=k,
        gamma=gamma,
        value_re=re_val,
        value_im=im_val,
        magnitude=magnitude,
        product_magnitude=product_magnitude,
        product_bound=product_bound,
        term_count=terms,
        zero_excluded=exclude_zero,
    )


def _pow_bounds(base_lo: Fraction, base_hi: Fraction, e_lo: Fraction, e_hi: Fraction):
    """Conservative float bounds for base**e over the given rectangle."""
    corners = [
        math.pow(float(bb), float(ee))
        for bb in (base_lo, base_hi)
        for ee in (e_lo, e_hi)
    ]
    lo = min(corners) * (1 - 1e-11)
    hi = max(corners) * (1 + 1e-11) + 1e-300
    return Fraction(max(lo, 0.0)), Fraction(hi)


def _sqrt_bounds(k: int) -> tuple[Fraction, Fraction]:
    s = math.isqrt(k)
    if s * s == k:
        return Fraction(s), Fraction(s)
    f = math.sqrt(k)
    lo, hi = Fraction(f), Fraction(f)
    while lo * lo > k:
        f = math.nextafter(f, 0.0)
        lo = Fraction(f)
    g = max(float(hi), f)
    while hi * hi < k:
        g = math.nextafter(g, math.inf)
        hi = Fraction(g)
    return lo, hi


def decay_bound_check(b: int, r: int, k: int, m: int, gamma: Real) -> ExpSumReport:
    """The conditional decay bound for the zero-excluded sum.

    Requires the separation hypothesis ||gamma x|| > 1/(2 b^m) on the
    extended truncated set (checked; violations raise with the least
    counterexample).  Verifies, radius-aware, that the zero-excluded sum
    magnitude stays below 2^(r+3) * (1 - pi/(4 b^2))^((r - 3 sqrt(k) + 1)/m)
    and that at least r - 3 sqrt(k) + 1 shift positions stay separated.
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

    far = []
    for d in range(r + 1):
        if dist_to_nearest_int(gamma * (k * b**d)) > Real(beta):
            far.append(d)
    deficit = (r + 1) - len(far)
    if deficit > 0 and deficit * deficit > 9 * k:
        raise InvariantViolation(
            f"only {len(far)} of {r + 1} shifts stay separated; "
            f"fewer than r - 3 sqrt(k) + 1"
        )

    pi_lo, pi_hi = pi_bounds()
    base_lo = 1 - pi_hi / (4 * b * b)
    base_hi = 1 - pi_lo / (4 * b * b)
    s_lo, s_hi = _sqrt_bounds(k)
    e_lo = Fraction(r + 1 - 3 * s_hi, m)
    e_hi = Fraction(r + 1 - 3 * s_lo, m)
    p_lo, p_hi = _pow_bounds(base_lo, base_hi, e_lo, e_hi)
    scale = 1 << (r + 3)
    bound = Real.from_interval(p_lo * scale, p_hi * scale)

    if report.magnitude.lo > bound.hi + Fraction(1, 10**9):
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
