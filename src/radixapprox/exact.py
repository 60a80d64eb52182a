"""Exact arithmetic kernel: big rationals, rigorous enclosures, ``dist`` and ``frac``.

Two number representations are used everywhere in this package:

* exact rationals, carried by :class:`fractions.Fraction` (aliased
  ``Rational``), which the stdlib keeps in canonical form (positive
  denominator, reduced); and
* :class:`Real`, a midpoint/radius enclosure whose midpoint and radius are
  themselves exact rationals.  An exact value is simply a ``Real`` with
  radius zero.

Ball arithmetic on ``Real`` is exact (no rounding step ever widens an
interval silently); radii enter only through declared input uncertainty and
through transcendental evaluations, which are performed with mpmath's
interval context and therefore carry certified outward-rounded endpoints.
Comparisons whose outcome is not decidable outside the radius raise
:class:`~radixapprox.errors.IndeterminateComparison` instead of guessing.

{gamma n} and ||gamma n|| have one reading each, off the residue
v = n*M mod Q of gamma.mid = M/Q (``frac_of_multiple``,
``dist_ends_of_multiple`` and its ``Real`` form ``dist_of_multiple``);
``frac`` and ``dist_to_nearest_int`` are their n = 1 case.  ``dist_exact``
stays only as the acceptance suite's independent reference.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import mpmath

from .errors import DomainError, IndeterminateComparison

Rational = Fraction

#: Default significand size (bits) for approximate inputs and for
#: transcendental evaluations.  Configurable per call.
DEFAULT_PRECISION = 128

#: Working precision (bits) of the bounds that are fixed functions of
#: integer parameters (the adversary's power-decay bound, the decay bound).
BOUND_PRECISION = 80

_GUARD_BITS = 16

Scalar = Union[int, Fraction]

_NAMED_CONSTANTS = ("sqrt2", "pi", "e")


def _raw_to_fraction(raw) -> Fraction:
    """Exact rational value of a libmp raw (sign, man, exp, bc) tuple."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise DomainError("cannot convert a non-finite value to a rational")
    # the mantissa may be a gmpy2 integer; keep Fractions on python ints
    man, exp = -int(man) if sign else int(man), int(exp)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def mpf_to_fraction(x) -> Fraction:
    """Convert an mpmath float to the exact rational it represents."""
    return _raw_to_fraction(mpmath.mpf(x)._mpf_)


def dist_exact(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    v = x.numerator % x.denominator
    return Fraction(min(v, x.denominator - v), x.denominator)


@dataclass(frozen=True)
class Real:
    """A real number known to lie in [mid - rad, mid + rad]."""

    mid: Fraction
    rad: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        if self.rad < 0:
            raise DomainError("error radius must be non-negative")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value: Scalar | str) -> "Real":
        return cls(Fraction(value))

    @classmethod
    def approx(cls, mid: Scalar, rad: Scalar) -> "Real":
        return cls(Fraction(mid), Fraction(rad))

    @classmethod
    def from_interval(cls, lo: Fraction, hi: Fraction) -> "Real":
        if hi < lo:
            raise DomainError("empty interval")
        half = (hi - lo) / 2
        return cls(lo + half, half)

    @classmethod
    def parse(cls, text: str, precision_bits: int = DEFAULT_PRECISION) -> "Real":
        """Parse a number from CLI-style input.

        ``p/q`` and decimal literals become the exact rational of the
        literal.  The named constants ``sqrt2``, ``pi`` and ``e`` expand to
        an enclosure with ``precision_bits`` significant bits; the artifact
        never claims more about such an input than this interval.
        """
        text = text.strip()
        if text in _NAMED_CONSTANTS:
            with mpmath.workprec(precision_bits + _GUARD_BITS):
                if text == "sqrt2":
                    mid = mpf_to_fraction(mpmath.sqrt(2))
                elif text == "pi":
                    mid = mpf_to_fraction(+mpmath.pi)
                else:
                    mid = mpf_to_fraction(+mpmath.e)
            return cls(mid, Fraction(4, 2**precision_bits))
        try:
            return cls(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {text!r} as a number") from exc

    # -- basic queries ------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.rad == 0

    @property
    def lo(self) -> Fraction:
        return self.mid - self.rad if self.rad else self.mid

    @property
    def hi(self) -> Fraction:
        return self.mid + self.rad if self.rad else self.mid

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Real({self.mid})"
        return f"Real({self.mid} +/- {self.rad})"

    # -- exact ball arithmetic ----------------------------------------

    def _coerce(self, other) -> "Real":
        if isinstance(other, Real):
            return other
        if isinstance(other, (int, Fraction)):
            return Real(Fraction(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Real(self.mid + o.mid, self.rad + o.rad)

    __radd__ = __add__

    def __neg__(self):
        return Real(-self.mid, self.rad)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Real(self.mid - o.mid, self.rad + o.rad)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        corners = [a * b for a in (self.lo, self.hi) for b in (o.lo, o.hi)]
        return Real.from_interval(min(corners), max(corners))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Real.from_interval(Fraction(0), max(-self.lo, self.hi))

    # -- comparisons ---------------------------------------------------
    #
    # True/False only when certain; otherwise IndeterminateComparison.
    # Two exact values always compare decidably.

    def _cmp(self, other, certain_true, certain_false, name):
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare Real with {type(other).__name__}")
        if certain_true(self, o):
            return True
        if certain_false(self, o):
            return False
        raise IndeterminateComparison(
            f"{self!r} {name} {o!r} straddles the error radius"
        )

    def __lt__(self, other):
        return self._cmp(other, lambda a, b: a.hi < b.lo, lambda a, b: a.lo >= b.hi, "<")

    def __le__(self, other):
        return self._cmp(other, lambda a, b: a.hi <= b.lo, lambda a, b: a.lo > b.hi, "<=")

    def __gt__(self, other):
        return self._cmp(other, lambda a, b: a.lo > b.hi, lambda a, b: a.hi <= b.lo, ">")

    def __ge__(self, other):
        return self._cmp(other, lambda a, b: a.lo >= b.hi, lambda a, b: a.hi < b.lo, ">=")


def frac(x: Real) -> Real:
    """Fractional part {x} in [0, 1); x - {x} is an integer.

    In approximate mode the enclosure must stay inside one unit interval,
    since the map jumps at integers; otherwise the result is indeterminate.
    The n = 1 case of ``frac_of_multiple``.
    """
    return frac_of_multiple(x, 1)


def dist_to_nearest_int(x: Real) -> Real:
    """Distance from x to the nearest integer, in [0, 1/2].

    Exact input gives an exact output.  Approximate input gives the exact
    range of the (continuous) distance function over the enclosure: with
    w = ||mid|| and rho = rad it is [max(0, w - rho), min(1/2, w + rho)],
    since the distance is 1-Lipschitz with its kinks at the integers and
    half-integers.  No comparison is performed here, so no indeterminacy
    can arise.  The n = 1 case of ``dist_of_multiple``.
    """
    return dist_of_multiple(x, 1)


def residue_of_multiple(gamma: Real, n: int) -> int:
    """v = n*M mod Q for gamma.mid = M/Q: {gamma n} is v/Q with radius
    |n| * gamma.rad; raises when that enclosure leaves [0, 1)."""
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    R, D = gamma.rad.numerator, gamma.rad.denominator
    v = n * M % Q
    nR = abs(n) * R
    if not nR * Q <= v * D < (D - nR) * Q:  # |n|R/D <= v/Q < 1 - |n|R/D
        raise IndeterminateComparison(
            f"fractional part of {gamma * n!r} straddles an integer boundary"
        )
    return v


def frac_of_multiple(gamma: Real, n: int) -> Real:
    """``frac(gamma * n)``, read off ``residue_of_multiple``."""
    v = residue_of_multiple(gamma, n)
    return Real(Fraction(v, gamma.mid.denominator), gamma.rad and abs(n) * gamma.rad)


def dist_ends_of_multiple(gamma: Real, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((lo, den), (hi, den')), unreduced integer pairs: lo/den and hi/den'
    are the ends of ``dist_to_nearest_int(gamma * n)``.

    Read off the residue v = n*M mod Q of gamma.mid = M/Q (the distance has
    period 1, so reducing the midpoint first does not change it): the
    midpoint's distance is min(v, Q - v)/Q, and the radius |n| R/D of
    gamma.rad = R/D moves the ends over den = Q D, clamped at 0 and at 1/2,
    which reads (1, 2).  An exact reading has both ends (min(v, Q - v), Q).
    """
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    v = n * M % Q
    w = min(v, Q - v)
    R = gamma.rad.numerator
    if not (R and n):
        return (w, Q), (w, Q)
    D = gamma.rad.denominator
    wD, nRQ, den = w * D, abs(n) * R * Q, Q * D
    hi = (1, 2) if 2 * (wD + nRQ) >= den else (wD + nRQ, den)
    return (max(0, wD - nRQ), den), hi


def dist_of_multiple(gamma: Real, n: int) -> Real:
    """``dist_to_nearest_int(gamma * n)`` as a Real, from
    ``dist_ends_of_multiple``."""
    lo, hi = dist_ends_of_multiple(gamma, n)
    if lo == hi:
        return Real(Fraction(*lo))
    return Real.from_interval(Fraction(*lo), Fraction(*hi))


def power_residues(gamma: Real, k: int, b: int, digits: int) -> tuple[int, list[int]]:
    """(Q, [k b**d M mod Q for d < digits]) for gamma.mid = M/Q: the
    residues of the digit weights k b**d, from which the zero-one scans and
    sums build the residue of k gamma n for every n with those digits."""
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    a = k * M % Q
    return Q, [a * pow(b, d, Q) % Q for d in range(digits)]


@contextmanager
def iv_precision(bits: int):
    """mpmath's interval context with ``bits`` of working precision.

    The only place that sets ``mpmath.iv.prec``; the previous precision is
    restored on exit, also when the body raises.
    """
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


def iv_to_real(value) -> Real:
    """Exact Real enclosure of an mpmath interval (no further rounding);
    an unbounded or NaN endpoint raises ``DomainError``."""
    a, b = value._mpi_
    return Real.from_interval(_raw_to_fraction(a), _raw_to_fraction(b))


def cos_bound_margin(x: Real, precision_bits: int = DEFAULT_PRECISION) -> Real:
    """Slack of the inequality |cos(pi*x)| <= 1 - pi*||x||^2.

    Returns (1 - pi*||x||^2) - |cos(pi*x)| as a certified enclosure; the
    inequality asserts this is >= 0 for every real x.  Transcendental parts
    are evaluated with mpmath interval arithmetic at the requested precision.
    """
    with iv_precision(precision_bits + _GUARD_BITS) as iv:
        w = dist_to_nearest_int(x)
        w_iv = iv_from_fractions(iv, w.lo, w.hi)
        # |cos(pi*t)| is 1-periodic, so shift the argument by floor(mid)
        k = x.mid.numerator // x.mid.denominator
        arg = iv_from_fractions(iv, x.lo - k, x.hi - k)
        cos_abs = abs(iv.cos(iv.pi * arg))
        margin = (1 - iv.pi * w_iv**2) - cos_abs
        return iv_to_real(margin)
