"""The certified closed forms as they were written on ``mpmath.iv``, kept as
the reference that the libmp interval bodies in ``radixapprox`` must equal
bit for bit (``test_interval_identity.py``), the interval helpers the
constant-chain tests build their own scans with, and the exact reading of
an mpmath float that the tests compare 200- and 300-bit values with.

Each function is the former library body, unchanged apart from its imports:
``iv_precision`` is the only code here that sets ``mpmath.iv.prec``.
"""
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from radixapprox.constants import (
    _SCAN_HARD_CAP,
    ApproxBound,
    ConstantSet,
    _decreasing_from,
)
from radixapprox.digitsets import check_base, repunit_cap
from radixapprox.errors import DomainError, IndeterminateComparison, InvariantViolation
from radixapprox.exact import (
    _GUARD_BITS,
    BOUND_PRECISION,
    DEFAULT_PRECISION,
    Real,
    _raw_to_fraction,
    dist_to_nearest_int,
)


@contextmanager
def iv_precision(bits: int):
    """mpmath's interval context with ``bits`` of working precision; the
    previous precision is restored on exit, also when the body raises."""
    iv = mpmath.iv
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


def iv_from_fractions(ctx, lo: Fraction, hi: Fraction):
    """Certified interval enclosing [lo, hi] in the given iv context."""
    a = ctx.mpf(lo.numerator) / ctx.mpf(lo.denominator)
    b = ctx.mpf(hi.numerator) / ctx.mpf(hi.denominator)
    return ctx.mpf([a.a, b.b])


def mpf_to_fraction(x) -> Fraction:
    """The exact rational of an mpmath float (at the caller's precision)."""
    return _raw_to_fraction(mpmath.mpf(x)._mpf_)


def iv_to_real(value) -> Real:
    """Exact Real enclosure of an mpmath interval (no further rounding)."""
    a, b = value._mpi_
    return Real.from_interval(_raw_to_fraction(a), _raw_to_fraction(b))


def parse_named(text: str, precision_bits: int) -> Real:
    """``Real.parse`` of a named constant."""
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        if text == "sqrt2":
            mid = mpf_to_fraction(mpmath.sqrt(2))
        elif text == "pi":
            mid = mpf_to_fraction(+mpmath.pi)
        else:
            mid = mpf_to_fraction(+mpmath.e)
    return Real(mid, Fraction(4, 2**precision_bits))


def compute_constants(b: int, precision_bits: int = DEFAULT_PRECISION) -> ConstantSet:
    check_base(b)
    with iv_precision(precision_bits) as iv:
        four_b2 = iv.mpf(4 * b * b)
        U = four_b2 / (four_b2 - iv.pi)
        if not U.a > 1:
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
            root = iv.sqrt(iv.mpf(b ** (m + 1)))
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
    b = consts.b
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    t = repunit_cap(b, N)
    if t < 1:
        return ApproxBound(b, N, t, None, True, None, None)

    J = consts.window_coeff
    ext = J * J * Fraction(b, 2 * t * t)
    zero_one = ext * (b - 1)

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


def power_decay_bound(b: int, N: int) -> Real:
    with iv_precision(BOUND_PRECISION) as iv:
        decay = iv.exp(-iv.log(N) * iv.log(b) / (iv.ln2 * (b - 1)))
        return iv_to_real(decay / b**4)


def decay_bound(b: int, r: int, k: int, m: int) -> Real:
    with iv_precision(BOUND_PRECISION) as iv:
        e = (r + 1 - 3 * iv.sqrt(k)) / m
        return iv_to_real(2 ** (r + 3) * iv.exp(e * iv.log(1 - iv.pi / (4 * b * b))))


def pi_bounds() -> tuple[Fraction, Fraction]:
    with iv_precision(120) as iv:
        enc = iv_to_real(iv.pi)
    return enc.lo, enc.hi


def cos_bound_margin(x: Real, precision_bits: int = DEFAULT_PRECISION) -> Real:
    with iv_precision(precision_bits + _GUARD_BITS) as iv:
        w = dist_to_nearest_int(x)
        w_iv = iv_from_fractions(iv, w.lo, w.hi)
        k = x.mid.numerator // x.mid.denominator
        arg = iv_from_fractions(iv, x.lo - k, x.hi - k)
        cos_abs = abs(iv.cos(iv.pi * arg))
        margin = (1 - iv.pi * w_iv**2) - cos_abs
        return iv_to_real(margin)
