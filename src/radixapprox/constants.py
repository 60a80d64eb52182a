"""Explicit evaluation of the constant chain behind the decay bound.

The chain, all per base b:

* contraction base  U = 4b^2 / (4b^2 - pi), the inverse of the per-step
  factor 1 - pi/(4b^2) that each well-separated digit position contributes;
* the Erdos-Turan constant C = 2 + 2/pi;
* depth coefficient H: the supremum over scales m >= 1 of
  (3*sqrt(8*b^m) + 2*m^2*log_U(256*C*b) - 1) / b^(m/2), which bounds how
  deep a truncation can stay fully separated at scale m;
* window coefficient J = 2*H.

All are certified enclosures (mpmath interval arithmetic).  The scan for H
writes the m-th term as 3*sqrt(8) + (2*m^2*L - 1)/sqrt(b^m), L = log_U(256*C*b),
evaluates 3*sqrt(8) and each sqrt(b^m) once, and keeps the running maximum
an interval.  Once m^2/b^(m/2) decreases, it stops when the tail bound
3*sqrt(8) + 2*L*(m+1)^2/sqrt(b^(m+1)) is below that maximum, records the
stopping scale, and only then makes the maximum a Real.  A base whose U is
not certified above 1 at the working precision (about 2*log2(b) + 3 bits)
is indeterminate.

The resulting bound for the minimum of ||gamma n|| over the zero-one
integers is b*J^2/(2*t^2) * (b-1) with t the largest repunit exponent under
N; J is so large that the bound only says something for astronomically
large N, and the report says "vacuous" whenever it carries no information.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .digitsets import check_base, repunit_cap
from .errors import DomainError, IndeterminateComparison, InvariantViolation
from .exact import DEFAULT_PRECISION, Real, iv_from_fractions, iv_precision, iv_to_real

_SCAN_HARD_CAP = 500


@dataclass(frozen=True)
class ConstantSet:
    b: int
    contraction_base: Real  # U > 1
    et_constant: Real  # 2 + 2/pi
    depth_coeff: Real  # H
    window_coeff: Real  # J = 2H
    scan_depth: int  # scale at which the maximizing scan provably stopped


@dataclass(frozen=True)
class ApproxBound:
    b: int
    N: int
    repunit_exp: int
    target_scale: Optional[int]
    vacuous: bool
    ext_bound: Optional[Real]  # bound for the extended-set minimum
    zero_one_bound: Optional[Real]  # (b-1) times that, via the transfer step


def _decreasing_from(b: int) -> int:
    # smallest m with (m+1)^4 < b * m^4; beyond it m^2 / b^(m/2) decreases
    m = 1
    while (m + 1) ** 4 >= b * m**4:
        m += 1
    return m


def compute_constants(b: int, precision_bits: int = DEFAULT_PRECISION) -> ConstantSet:
    """Certified enclosures for the full constant chain at base b."""
    check_base(b)
    with iv_precision(precision_bits) as iv:
        four_b2 = iv.mpf(4 * b * b)
        U = four_b2 / (four_b2 - iv.pi)
        if not U.a > 1:
            # 2*bit_length(b) + 3 bits keep the rounding of U below pi/(4b^2)
            raise IndeterminateComparison(
                f"contraction base 4b^2/(4b^2 - pi) at b={b} is not certified above 1 at "
                f"{precision_bits} bits; {2 * b.bit_length() + 3} bits decide it"
            )
        C = 2 + 2 / iv.pi
        log_term = iv.log(256 * C * b) / iv.log(U)
        three_root8 = 3 * iv.sqrt(8)

        m_dec = _decreasing_from(b)
        m = 1
        best = three_root8 + (2 * log_term - 1) / iv.sqrt(iv.mpf(b))
        while True:
            root = iv.sqrt(iv.mpf(b ** (m + 1)))  # the tail's and the next term's
            if m >= m_dec and (three_root8 + 2 * log_term * (m + 1) ** 2 / root).b < best.a:
                break
            m += 1
            if m > _SCAN_HARD_CAP:
                raise InvariantViolation(
                    f"depth-coefficient scan failed to certify a maximum by m={m}"
                )
            term = three_root8 + (2 * m * m * log_term - 1) / root
            best = iv.mpf([max(best.a, term.a), max(best.b, term.b)])
        depth = iv_to_real(best)
        return ConstantSet(
            b=b,
            contraction_base=iv_to_real(U),
            et_constant=iv_to_real(C),
            depth_coeff=depth,
            window_coeff=depth * 2,
            scan_depth=m,
        )


def approximation_bound(
    consts: ConstantSet, N: int, precision_bits: int = DEFAULT_PRECISION
) -> ApproxBound:
    """The explicit decay bound b*J^2/(2 t^2) at (b, N), or "vacuous", with
    b and J read off consts (``compute_constants(b)``).

    t is the largest repunit exponent with repunit <= N.  The bound is
    vacuous when the target scale floor(2*log_b(t/J)) is below 1 or when
    the bound itself reaches 1/2; the extended-set bound and its (b-1)-fold
    transfer to the zero-one set are reported otherwise.
    """
    b = consts.b
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    t = repunit_cap(b, N)
    if t < 1:
        return ApproxBound(b, N, t, None, True, None, None)

    J = consts.window_coeff
    ext = J * J * Fraction(b, 2 * t * t)
    zero_one = ext * (b - 1)

    # target scale floor(2 log_b (t/J)), from a certified log enclosure
    with iv_precision(precision_bits) as iv:
        j_iv = iv_from_fractions(iv, J.lo, J.hi)
        x = iv_to_real(2 * iv.log(iv.mpf(t) / j_iv) / iv.log(iv.mpf(b)))
    if x.hi < 1:
        return ApproxBound(b, N, t, None, True, ext, zero_one)
    lo_floor = x.lo.numerator // x.lo.denominator
    hi_floor = x.hi.numerator // x.hi.denominator
    if lo_floor != hi_floor:
        raise IndeterminateComparison(
            f"target scale enclosure {x!r} straddles an integer at b={b}, N={N}"
        )
    m_n = lo_floor
    vacuous = m_n < 1 or not (ext.hi < Fraction(1, 2))
    return ApproxBound(b, N, t, m_n, vacuous, ext, zero_one)
