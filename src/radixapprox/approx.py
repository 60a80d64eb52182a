"""Witness-producing approximation: oracle minimization, the repunit
pigeonhole algorithm, and the transfer from the extended set back to the
zero-one integers.

All searches return an :class:`ApproxResult` whose distance can be
recomputed exactly from the inputs.  For rational gamma everything is
exact; for enclosure-valued gamma the searches either certify their answer
or raise ``IndeterminateComparison``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import digitsets as ds
from ._kernels import digit_scan_min_sharded
from .errors import (
    DomainError,
    IndeterminateComparison,
    InvariantViolation,
    ResourceLimit,
)
from .exact import Real, dist_exact, dist_to_nearest_int, frac


@dataclass(frozen=True)
class ApproxResult:
    """A witness denominator and the distance it achieves.

    ``guarantee``, when set, is the bound the witness certifies; the
    constructor-side checks enforce distance <= guarantee.
    """

    witness: int
    distance: Real
    set_tag: ds.SetSpec
    guarantee: Optional[Fraction]
    mode: str  # "exact" | "approximate"


def oracle_min(
    gamma: Real,
    spec: ds.SetSpec,
    N: int,
    *,
    cap: int = ds.CAP_DEFAULT,
    threads: int = 1,
) -> ApproxResult:
    """Exact minimizer of ||gamma * n|| over the zero-one integers in [1, N].

    The first n zero-one integers are exactly those <= ``ds.unrank(b, n)``,
    so an index bound is passed as that limit.  Ties go to the smallest
    witness.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    if spec.kind != "zero_one":
        raise DomainError("oracle search is defined for the zero-one set only")
    b = spec.base

    if gamma.is_exact:
        q = gamma.mid.denominator
        p = gamma.mid.numerator % q
        count = ds.count_upto(b, N)
        if count > cap:
            raise ResourceLimit(f"enumeration of {count} elements exceeds the cap {cap}")
        pow_mod = [(p * pow(b, d, q)) % q for d in range(count.bit_length())]
        num, idx = digit_scan_min_sharded(pow_mod, count, q, threads)
        witness = ds.unrank(b, idx)
        return ApproxResult(
            witness=witness,
            distance=Real(Fraction(num, q)),
            set_tag=spec,
            guarantee=None,
            mode="exact",
        )

    # enclosure-valued gamma: certify the argmin or refuse
    elems = list(ds.iter_spec_upto(spec, N, cap=cap))
    dists = [dist_to_nearest_int(gamma * s) for s in elems]
    w_i = min(range(len(elems)), key=lambda i: (dists[i].hi, elems[i]))
    for i, d in enumerate(dists):
        if i != w_i and d.lo < dists[w_i].hi:
            raise IndeterminateComparison(
                f"cannot certify the minimizer: candidates {elems[w_i]} and "
                f"{elems[i]} have overlapping distance enclosures"
            )
    return ApproxResult(elems[w_i], dists[w_i], spec, None, "approximate")


def _bin_of_exact(f: Fraction, bins: int) -> int:
    # half-open bins [h/bins, (h+1)/bins); f in [0,1) so h <= bins-1
    return (f.numerator * bins) // f.denominator


def pigeonhole_witness(gamma: Real, b: int, N: int) -> ApproxResult:
    """A witness w in the zero-one set with ||gamma*w|| <= 1/(cap+1), where
    cap is the largest repunit exponent fitting below N.

    Constructive: scan the repunits for a direct witness; failing that, two
    repunits share a half-open bin of width 1/(cap+1) and their difference
    (again a zero-one integer) is the witness.  The returned difference is
    checked for set membership and range before returning.
    """
    ds.check_base(b)
    t = ds.repunit_cap(b, N)
    guarantee = Fraction(1, t + 1)
    reps = ds.repunits(b, N)
    tag = ds.SetSpec.zero_one(b)

    if gamma.is_exact:
        q = gamma.mid.denominator
        p = gamma.mid.numerator % q
        fracs = [Fraction((p * u) % q, q) for u in reps]
        for u, f in zip(reps, fracs):
            if min(f, 1 - f) <= guarantee:
                return ApproxResult(u, Real(min(f, 1 - f)), tag, guarantee, "exact")
        bins = [_bin_of_exact(f, t + 1) for f in fracs]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if bins[i] == bins[j]:
                    w = reps[j] - reps[i]
                    if not (1 <= w <= N and ds.contains(b, w)):
                        raise InvariantViolation(
                            f"pigeonhole difference {w} left the zero-one set"
                        )
                    d = dist_exact(gamma.mid * w)
                    if d > guarantee:
                        raise InvariantViolation(
                            f"pigeonhole witness {w} misses its guarantee at b={b}, N={N}"
                        )
                    return ApproxResult(w, Real(d), tag, guarantee, "exact")
        raise InvariantViolation(f"no pigeonhole collision found at b={b}, N={N}")

    # enclosure gamma
    fres = [frac(gamma * u) for u in reps]
    for u, f in zip(reps, fres):
        d = dist_to_nearest_int(gamma * u)
        if d <= Real(guarantee):
            return ApproxResult(u, d, tag, guarantee, "approximate")
    bins = []
    for f in fres:
        lo_bin = (f.lo.numerator * (t + 1)) // f.lo.denominator
        hi_bin = (f.hi.numerator * (t + 1)) // f.hi.denominator
        if lo_bin != hi_bin:
            raise IndeterminateComparison(
                f"bin membership of {f!r} straddles a bin boundary"
            )
        bins.append(lo_bin)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if bins[i] == bins[j]:
                w = reps[j] - reps[i]
                if not (1 <= w <= N and ds.contains(b, w)):
                    raise InvariantViolation(
                        f"pigeonhole difference {w} left the zero-one set"
                    )
                return ApproxResult(
                    w, dist_to_nearest_int(gamma * w), tag, guarantee, "approximate"
                )
    raise InvariantViolation(f"no pigeonhole collision found at b={b}, N={N}")


def transfer_witness(
    b: int, y: int, distance_star: Real, N: Optional[int] = None
) -> tuple[int, Real]:
    """Convert a witness from the extended set into a zero-one witness.

    ``distance_star`` is the claimed distance for y against gamma/(b-1).
    If y is itself a zero-one integer the distance scales by b-1; if y is a
    power difference b**d - b**c, then y/(b-1) is a zero-one integer in
    range and certifies the same distance.
    """
    ds.check_base(b)
    if y < 1:
        raise DomainError(f"need y >= 1, got {y}")
    if ds.contains(b, y):
        return y, distance_star * (b - 1)
    # power-difference branch: y = b**c * (b**e - 1)
    m, c = y, 0
    while m % b == 0:
        m //= b
        c += 1
    e = ds.ilog(b, m + 1)
    if b**e != m + 1 or e < 1:
        raise DomainError(f"{y} is neither a zero-one integer nor a power difference")
    if y % (b - 1) != 0:
        raise InvariantViolation(f"power difference {y} not divisible by {b - 1}")
    n = y // (b - 1)
    if not ds.contains(b, n):
        raise InvariantViolation(f"transferred witness {n} left the zero-one set")
    if N is not None and not (1 <= n <= N):
        raise InvariantViolation(f"transferred witness {n} left [1, {N}]")
    return n, distance_star
