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
from ._kernels import digit_scan_close, digit_scan_min_sharded
from .errors import DomainError, IndeterminateComparison, InvariantViolation
from .exact import Real, dist_of_multiple, frac_of_multiple, power_residues


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


def oracle_min(gamma: Real, b: int, N: int, *, cap: int = ds.CAP_DEFAULT) -> ApproxResult:
    """Exact minimizer of ||gamma * n|| over the zero-one integers in [1, N].

    The first n zero-one integers are exactly those <= ``ds.unrank(b, n)``,
    so an index bound is passed as that limit.  Ties go to the smallest
    witness.
    """
    spec = ds.SetSpec(b)
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")

    # scan the residues of gamma.mid = M/Q; ||gamma n|| lies within n rad <=
    # V rad of its reading ||n M/Q||, V = unrank(b, count), so an element read
    # above best/Q + 2 V rad can neither win nor overlap the winner.  With
    # rad = 0 equal distances never overlap and the first argmin is smallest
    count = ds.capped_count(b, N, cap)
    Q, pow_mod = power_residues(gamma, 1, b, count.bit_length())
    best, idx = digit_scan_min_sharded(pow_mod, count, Q)
    window = Fraction(best, Q) + 2 * ds.unrank(b, count) * gamma.rad
    close = digit_scan_close(pow_mod, count, Q, window.numerator, window.denominator)
    elems = [ds.unrank(b, i) for i in (close if gamma.rad else [idx])]
    mode = "exact" if gamma.is_exact else "approximate"
    dists = [dist_of_multiple(gamma, s) for s in elems]
    w_i = min(range(len(elems)), key=lambda i: (dists[i].hi, elems[i]))
    for i, d in enumerate(dists):
        if i != w_i and d.lo < dists[w_i].hi:
            raise IndeterminateComparison(
                f"cannot certify the minimizer: candidates {elems[w_i]} and "
                f"{elems[i]} have overlapping distance enclosures"
            )
    return ApproxResult(elems[w_i], dists[w_i], spec, None, mode)


def _first_collision(reps: list[int], bins: list[int], b: int, N: int) -> int:
    """reps[j] - reps[i] for the lexicographically first pair i < j sharing
    a bin, checked to be a zero-one integer in [1, N]: the least pair
    (first occurrence, later occurrence) over the bins, found in one pass."""
    first: dict[int, int] = {}
    pairs = [(i, j) for j, h in enumerate(bins) if (i := first.setdefault(h, j)) != j]
    if not pairs:
        raise InvariantViolation(f"no pigeonhole collision found at b={b}, N={N}")
    i, j = min(pairs)
    w = reps[j] - reps[i]
    if not (1 <= w <= N and ds.contains(b, w)):
        raise InvariantViolation(f"pigeonhole difference {w} left the zero-one set")
    return w


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
    tag = ds.SetSpec(b)
    mode = "exact" if gamma.is_exact else "approximate"

    bound = Real(guarantee)
    for u in reps:
        d = dist_of_multiple(gamma, u)
        if d <= bound:
            return ApproxResult(u, d, tag, guarantee, mode)
    # no repunit is within the guarantee, so no enclosure reaches an integer
    # and frac_of_multiple cannot raise; bins are half-open [h/(t+1), (h+1)/(t+1))
    bins = []
    for u in reps:
        f = frac_of_multiple(gamma, u)
        lo_bin = (f.lo.numerator * (t + 1)) // f.lo.denominator
        hi_bin = (f.hi.numerator * (t + 1)) // f.hi.denominator
        if lo_bin != hi_bin:
            raise IndeterminateComparison(
                f"bin membership of {f!r} straddles a bin boundary"
            )
        bins.append(lo_bin)
    w = _first_collision(reps, bins, b, N)
    d = dist_of_multiple(gamma, w)
    if d.lo > guarantee:
        raise InvariantViolation(
            f"pigeonhole witness {w} misses its guarantee at b={b}, N={N}"
        )
    return ApproxResult(w, d, tag, guarantee, mode)


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
