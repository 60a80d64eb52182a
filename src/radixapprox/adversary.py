"""The adversarial lower-bound construction and its residue toolkit.

For any N, take T = ceil(log2(N+1)) and k = ceil(T/(b-1)) + 1; then no sum
of at most T powers of b is a multiple of b**k - 1, so gamma = 1/(b**k - 1)
keeps ||gamma * n|| >= 1/(b**k - 1) for the first N zero-one integers.
That quantity in turn dominates b**-4 * N**(-log2(b)/(b-1)).

The toolkit proving the no-multiples step: a carry procedure folding any
digit vector into base-b range without raising its digit sum or changing
its residue mod b**k - 1, the reduction of a power sum into the digit-sum
bounded set, and the closed form for that set's maximum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import digitsets as ds
from .approx import oracle_min
from .errors import DomainError, InvariantViolation
from .exact import BOUND_PRECISION, Real, iv_precision, iv_to_real


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
    with iv_precision(BOUND_PRECISION) as iv:
        # N^(-log2 b/(b-1)) = exp(-ln N * ln b / (ln 2 * (b-1)))
        decay = iv.exp(-iv.log(N) * iv.log(b) / (iv.ln2 * (b - 1)))
        return iv_to_real(decay / b**4)


def adversarial_gamma(
    b: int,
    N: int,
    cap: int = ds.CAP_DEFAULT,
) -> AdversaryCertificate:
    """Construct the adversarial rational and certify its lower bound.

    Evaluates min ||gamma_N * b_n|| over the first N zero-one integers
    exactly, through residues mod b**k - 1 (constant-size arithmetic per
    element no matter how large b_n grows), and compares against the
    power-decay bound with the right side rounded outward.
    """
    ds.check_base(b)
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    # ceil(log2(N + 1)) for N >= 1 equals the bit length of N
    T = N.bit_length()
    k = -(-T // (b - 1)) + 1
    modulus = b**k - 1
    gamma = Fraction(1, modulus)

    res = oracle_min(Real(gamma), b, ds.unrank(b, N), cap=cap)
    min_distance = res.distance.mid
    if min_distance == 0:
        raise InvariantViolation(
            f"zero-one element {res.witness} is a multiple of {modulus}; "
            f"the no-multiples construction failed at b={b}, N={N}"
        )
    bound = _power_decay_bound(b, N)
    passed = min_distance >= bound.hi
    return AdversaryCertificate(
        b=b,
        N=N,
        T=T,
        k=k,
        gamma_N=gamma,
        min_distance=min_distance,
        min_witness_index=ds.rank(b, res.witness),
        guaranteed_bound=Fraction(1, modulus),
        power_decay_bound=bound,
        passed=passed,
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
    spec = ds.SetSpec.power_sums(b, t, e_max)
    for w in ds.iter_spec(spec, cap=cap):
        if w % modulus == 0:
            if applicable:
                raise InvariantViolation(
                    f"power sum {w} is a multiple of {modulus} although "
                    f"k={k} > t/(b-1)={t}/{b - 1}"
                )
            return NoMultiplesReport(False, w, b, k, t, e_max, applicable)
    return NoMultiplesReport(True, None, b, k, t, e_max, applicable)
