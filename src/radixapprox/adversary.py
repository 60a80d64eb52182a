"""The adversarial lower-bound construction and its residue toolkit.

For any N, take T = ceil(log2(N+1)) and k = ceil(T/(b-1)) + 1; then no sum
of at most T powers of b is a multiple of b**k - 1, so gamma = 1/(b**k - 1)
keeps ||gamma * n|| >= 1/(b**k - 1) for the first N zero-one integers.
That quantity in turn dominates b**-4 * N**(-log2(b)/(b-1)).
``adversarial_gamma`` certifies the minimum from the digit counts of that
lemma, in O(T) exact integer steps at any N, with no scan of the set.

The toolkit proving the no-multiples step in general: a carry procedure
folding any digit vector into base-b range without raising its digit sum or
changing its residue mod b**k - 1, the reduction of a power sum into the
digit-sum bounded set, and the scan of the truncated power sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath.libmp import mpf_ln2, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg

from . import digitsets as ds
from .errors import DomainError, InvariantViolation
from .exact import BOUND_PRECISION, Real, mpi_of_int, mpi_to_real


@dataclass(frozen=True)
class AdversaryCertificate:
    b: int
    N: int
    T: int
    k: int
    gamma_N: Fraction  # 1/(b^k - 1)
    min_distance: Fraction  # exact min of ||gamma_N * b_n|| over n <= N
    min_witness_index: int
    guaranteed_bound: Fraction  # 1/(b^k - 1), the sharper intermediate bound
    power_decay_bound: Real  # b^-4 * N^(-log2(b)/(b-1)), outward enclosure
    passed: bool


def _power_decay_bound(b: int, N: int) -> Real:
    """Outward enclosure of b**-4 * N**(-log2(b)/(b-1)) in exact rationals."""
    p = BOUND_PRECISION
    # N^(-log2 b/(b-1)) = exp(-ln N * ln b / (ln 2 * (b-1)))
    ln2 = mpf_ln2(p, round_floor), mpf_ln2(p, round_ceiling)
    log_product = mpi_mul(mpi_neg(mpi_log(mpi_of_int(N, p), p), p), mpi_log(mpi_of_int(b, p), p), p)
    decay = mpi_exp(mpi_div(log_product, mpi_mul(ln2, mpi_of_int(b - 1, p), p), p), p)
    return mpi_to_real(mpi_div(decay, mpi_of_int(b**4, p), p))


def adversarial_gamma(b: int, N: int) -> AdversaryCertificate:
    """Construct the adversarial rational and certify its lower bound.

    The minimum of ||gamma_N * b_n|| over the first N zero-one integers is
    certified by the no-multiples lemma, in exact integers and with no
    enumeration, so any N >= 1 answers in O(T) time.  The written
    certificate, with M = b**k - 1:

    * every zero-one n <= b_N has at most T digits, and b**d = b**(d mod k)
      mod M, so n = sum c_j b**j mod M, where c_j counts the ones of n at
      the positions d = j mod k;
    * c_j <= ceil(T/k) <= b - 1, so that sum is a base-b number of k digits
      and no digit carries: it lies in [0, M];
    * it is 0 only for n = 0, and M only when every c_j is b - 1, which
      needs k(b - 1) <= T ones;
    * so for n >= 1 the residue r lies in [1, M - 1) and
      ||n / M|| = min(r, M - r) / M >= 1/M, with equality at n = 1 (r = 1),
      the smallest tying index.

    Both digit-count inequalities follow from k > T/(b-1) and are checked
    exactly; a failure raises ``InvariantViolation``.  The minimum is then
    compared against the power-decay bound with the right side rounded
    outward.
    """
    ds.check_base(b)
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    # ceil(log2(N + 1)) for N >= 1 equals the bit length of N
    T = N.bit_length()
    k = -(-T // (b - 1)) + 1
    if -(-T // k) > b - 1:
        raise InvariantViolation(
            f"a digit count of {-(-T // k)} > b-1 can carry at b={b}, T={T}, k={k}")
    if T >= k * (b - 1):
        raise InvariantViolation(
            f"T={T} ones can fill all k={k} digits with b-1 at b={b}")
    modulus = b**k - 1
    gamma = Fraction(1, modulus)
    bound = _power_decay_bound(b, N)
    return AdversaryCertificate(
        b=b,
        N=N,
        T=T,
        k=k,
        gamma_N=gamma,
        min_distance=gamma,
        min_witness_index=1,
        guaranteed_bound=gamma,
        power_decay_bound=bound,
        passed=gamma >= bound.hi,
    )


def residue_reduce(b: int, k: int, u: Sequence[int]) -> tuple[int, ...]:
    """Fold a non-negative digit vector into base-b range by carries.

    Each step picks the lowest position d with u_d >= b, removes b there
    and adds 1 at position (d+1) mod k; the value mod b**k - 1 is preserved
    and the digit sum drops by b-1, so the procedure terminates with all
    digits in 0..b-1, the same residue, and a digit sum in (0, sum(u)].
    All three conclusions are verified exactly before returning.
    """
    ds.check_base(b)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if len(u) != k:
        raise DomainError(f"digit vector must have length k={k}, got {len(u)}")
    if any(x < 0 for x in u):
        raise DomainError("digits must be non-negative")
    if sum(u) == 0:
        raise DomainError("the all-zero vector is outside the procedure's domain")

    v = list(u)
    while True:
        for d in range(k):
            if v[d] >= b:
                v[d] -= b
                v[(d + 1) % k] += 1
                break
        else:
            break

    modulus = b**k - 1
    val_u = sum(x * b**j for j, x in enumerate(u))
    val_v = sum(x * b**j for j, x in enumerate(v))
    if val_u % modulus != val_v % modulus:
        raise InvariantViolation(f"carry folding changed the residue: {u} -> {v}")
    if not 0 < sum(v) <= sum(u):
        raise InvariantViolation(f"carry folding broke the digit-sum bound: {u} -> {v}")
    if any(not 0 <= x < b for x in v):
        raise InvariantViolation(f"carry folding left an out-of-range digit: {v}")
    return tuple(v)


@dataclass(frozen=True)
class ReduceReport:
    source: int  # w, the power sum itself
    residue_value: int  # c_w, inside the digit-sum bounded set
    digits: tuple[int, ...]
    t: int
    congruent_zero: bool  # flags c_w == 0 mod b^k - 1 (only when k <= t/(b-1))


def reduce_to_bounded(b: int, k: int, exponents: Sequence[int]) -> ReduceReport:
    """Reduce a sum of t powers of b into the digit-sum bounded set mod
    b**k - 1, verifying the congruence exactly.

    Exponents fold to their residue mod k (b**k is 1 mod b**k - 1), the
    resulting digit-count vector is carry-folded, and the value of the
    folded vector is the canonical representative.
    """
    ds.check_base(b)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    t = len(exponents)
    if t < 1:
        raise DomainError("need at least one exponent")
    if any(e < 0 for e in exponents):
        raise DomainError("exponents must be non-negative")
    u = [0] * k
    for e in exponents:
        u[e % k] += 1
    digits = residue_reduce(b, k, u)
    c_w = sum(x * b**j for j, x in enumerate(digits))
    w = sum(b**e for e in exponents)
    modulus = b**k - 1
    if (w - c_w) % modulus != 0:
        raise InvariantViolation(f"reduction broke the congruence: {w} vs {c_w} mod {modulus}")
    if not 0 < sum(digits) <= t:
        raise InvariantViolation(f"reduced digit sum left (0, {t}]: {digits}")
    return ReduceReport(
        source=w,
        residue_value=c_w,
        digits=digits,
        t=t,
        congruent_zero=c_w % modulus == 0,
    )


@dataclass(frozen=True)
class NoMultiplesReport:
    ok: bool
    counterexample: Optional[int]
    b: int
    k: int
    t: int
    e_max: int
    applicable: bool  # k > t/(b-1), the regime where a multiple is impossible


def no_multiples_check(
    b: int, k: int, t: int, e_max: int, cap: int = ds.CAP_DEFAULT
) -> NoMultiplesReport:
    """Scan the truncated power sums for multiples of b**k - 1.

    In the applicable regime k > t/(b-1) any multiple found is an invariant
    failure; outside it a counterexample may legitimately exist and is
    returned.
    """
    ds.check_base(b)
    if k < 1 or t < 1:
        raise DomainError("need k >= 1 and t >= 1")
    modulus = b**k - 1
    applicable = k * (b - 1) > t
    for w in ds.power_sums(b, t, e_max, cap=cap):
        if w % modulus == 0:
            if applicable:
                raise InvariantViolation(
                    f"power sum {w} is a multiple of {modulus} although "
                    f"k={k} > t/(b-1)={t}/{b - 1}"
                )
            return NoMultiplesReport(False, w, b, k, t, e_max, applicable)
    return NoMultiplesReport(True, None, b, k, t, e_max, applicable)
