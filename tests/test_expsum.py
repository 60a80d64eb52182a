import heapq
import json
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np
import pytest

from radixapprox import digitsets as ds
from radixapprox import expsum
from radixapprox import _kernels
from radixapprox._kernels import MOD_LIMIT, cos_sin_sum, digit_scan_close, first_close, half_sums, subset_residues
from radixapprox.digitsets import power_gaps, unrank
from radixapprox.errors import (DomainError, HypothesisViolation, IndeterminateComparison,
                               InvariantViolation)
from radixapprox.exact import (Real, _real_of_ends, dist_exact, dist_of_multiple, dist_to_nearest_int,
                               power_residues)
from radixapprox.expsum import (
    _FACTOR_ERR,
    _NORMAL_MIN,
    _PI_FLOATS,
    R_CAP_DEFAULT,
    SeparationReport,
    _class_of,
    _cosine_product_ends,
    _decay_bound,
    _magnitude_ends,
    _sum_radius,
    classify_G,
    decay_bound_check,
    eval_expsum,
    pi_bounds,
    separation_check,
    small_shift_count,
)
from iv_reference import mpf_to_fraction
from test_exact import gamma_near, parent_dist_to_nearest_int

E = lambda *a: Real.exact(Fraction(*a))


def _mpf(f: Fraction):
    """f at the working precision of the caller's mpmath context."""
    return mpmath.mpf(f.numerator) / f.denominator


def digit_weights(b, r, k, gamma: Fraction):
    """(q, w): w[d] = k gamma b^d mod 1 on the grid q, for d <= r."""
    q = gamma.denominator
    return q, [k * gamma.numerator * b**d % q for d in range(r + 1)]


def all_residues(b, r, k, gamma: Fraction):
    """(q, res): res[n] = k gamma unrank(b, n) mod 1 on the grid q, for
    every n < 2^(r+1), as one subset_residues table of all r + 1 digits."""
    q, weights = digit_weights(b, r, k, gamma)
    return q, subset_residues(weights, q)


def _direct_sum(b, r, k, gamma: Fraction):
    """(re, im, n) of the direct sum over the 2^(r+1) truncated zero-one
    terms, through the half sums, float product and radius eval_expsum uses."""
    q, weights = digit_weights(b, r, k, gamma)
    n = 1 << (r + 1)
    (ar, ai), (br, bi) = half_sums(weights, q)
    rad = Fraction(*_sum_radius(n))
    return Real(Fraction(ar * br - ai * bi), rad), Real(Fraction(ar * bi + ai * br), rad), n


def parent_row_run_sum(weights, q: int) -> tuple[float, float]:
    """(re, im) of the direct sum as the per-term code formed it: every term
    one rounded complex product E_H[h] E_L[l] of two half-table unit
    vectors, in runs of whole rows of at most 2^16 terms, each run's parts
    summed by cos_sin_sum and the runs by math.fsum; each part within
    parent_sum_radius(n) of the exact sum."""
    s, L, H = _kernels._half_tables(weights, (1 << len(weights)) - 1, q)
    low, high = _kernels._unit_vectors(L, q), _kernels._unit_vectors(H, q)
    step = max((1 << 16) >> s, 1)
    runs = ((high[h : h + step, None] * low).ravel() for h in range(0, len(high), step))
    cos_parts, sin_parts = zip(*map(cos_sin_sum, runs))
    return math.fsum(cos_parts), math.fsum(sin_parts)


def _product_value(b, r, k, gamma: Fraction, exclude_zero: bool):
    """(re, im) of prod_d (1 + e(k b^d gamma)) at 200 bits, less the zero
    term e(0) = 1 when it is excluded, as exact fractions."""
    q, weights = digit_weights(b, r, k, gamma)
    with mpmath.workprec(200):
        s = mpmath.mpc(1)
        for w in weights:
            s *= 1 + mpmath.expjpi(2 * mpmath.mpf(w) / q)
        s -= exclude_zero
        return mpf_to_fraction(s.real), mpf_to_fraction(s.imag)


# The Fraction factor side that the integer pairs replaced, kept as the
# reference they must match bit for bit.
def parent_sin_pi_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Rational s_lo <= sin(pi lo) and sin(pi hi) <= s_hi, 0 <= lo <= hi <= 1/2."""
    widen_lo, widen_hi = 1 - Fraction(9, 2**51), 1 + Fraction(9, 2**51)

    def bounds(h, *widens):
        x = float(h)
        if x < _NORMAL_MIN and h:
            pi_lo, pi_hi = pi_bounds()
            return tuple(pi_hi * h if w > 1 else pi_lo * h * (1 - (pi_hi * h) ** 2 / 6) for w in widens)
        s = Fraction(math.sin(math.pi * x))
        return tuple(s * w for w in widens)

    if lo == hi:
        return bounds(lo, widen_lo, widen_hi)
    return bounds(lo, widen_lo) + bounds(hi, widen_hi)


def parent_dist_of_multiple(gamma: Real, n: int) -> Real:
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    return parent_dist_to_nearest_int(Real(Fraction(n * M % Q, Q), gamma.rad and abs(n) * gamma.rad))


def parent_classify_G(b: int, y: Real) -> Optional[int]:
    """classify_G with its exact-input branch, as the parent had it."""
    ds.check_base(b)
    w = parent_dist_to_nearest_int(y)
    if w.is_exact:
        if w.mid == 0:
            return None
        return _class_of(b, w.mid)
    if w.hi == 0:
        return None
    if w.lo <= 0:
        raise IndeterminateComparison(
            f"||y|| enclosure {w!r} cannot separate zero from a finite class"
        )
    t_from_hi = _class_of(b, w.hi)
    t_from_lo = _class_of(b, w.lo)
    if t_from_hi != t_from_lo:
        raise IndeterminateComparison(f"||y|| enclosure {w!r} straddles a class boundary")
    return t_from_hi


def parent_product_interval(factors_lo, factors_hi, scale: int) -> Real:
    one = 1 << 64
    lo = hi = one
    for flo, fhi in zip(factors_lo, factors_hi):
        lo = lo * flo.numerator // flo.denominator
        hi = -(-hi * fhi.numerator // fhi.denominator)
    return Real.from_interval(Fraction(max(0, lo) * scale, one), Fraction(hi * scale, one))


def parent_product_side(b, r, k, gamma: Real, sin_interval=parent_sin_pi_interval,
                        pi=None) -> tuple[Real, Real]:
    """(product_magnitude, product_bound) of eval_expsum, as the Fraction code
    computed them (with the sine bounds and pi bounds given, if any)."""
    pi_lo, pi_hi = pi or pi_bounds()
    ws = [parent_dist_of_multiple(gamma, k * b**d) for d in range(r + 1)]
    w_los, w_his = [w.lo for w in ws], [w.hi for w in ws]
    h_los = [Fraction(1, 2) - w for w in w_his]
    h_his = [Fraction(1, 2) - w for w in w_los]
    n = 1 << (r + 1)
    f_lo, f_hi = zip(*map(sin_interval, h_los, h_his))
    b_lo = [1 - pi_hi * w * w for w in w_his]
    b_hi = [1 - pi_lo * w * w for w in w_los]
    return parent_product_interval(f_lo, f_hi, n), parent_product_interval(b_lo, b_hi, n)


# The Fraction sum side that the integer ends replaced: _sum_radius as a
# Fraction, the trig-sum enclosure and _magnitude, composed as eval_expsum
# composed them, kept as the reference its five reported Reals must match.
def parent_sum_radius(n: int) -> Fraction:
    """The radius of the per-term row-run sum (parent_row_run_sum)."""
    bits = max(n.bit_length(), 1)
    return n * (Fraction(43, 10**16) + (bits + 20) * Fraction(12, 10**17))


def factored_sum_radius(n: int) -> Fraction:
    """The radius of the product of the two half sums: two half-table
    summation trees of bits(m) + 19 additions each, bits(n) + 39 in all."""
    bits = max(n.bit_length(), 1)
    return n * (Fraction(43, 10**16) + (bits + 39) * Fraction(12, 10**17))


def parent_magnitude(re: Real, im: Real) -> Real:
    if re.is_exact and im.is_exact:
        if im.mid == 0:
            return Real(abs(re.mid))
        if re.mid == 0:
            return Real(abs(im.mid))
    mid = math.hypot(float(re.mid), float(im.mid))
    slack = re.rad + im.rad + Fraction(abs(mid)) * Fraction(1, 2**50)
    lo = max(Fraction(0), Fraction(mid) - slack)
    return Real.from_interval(lo, Fraction(mid) + slack)


def parent_sum(b, r, k, gamma: Real) -> tuple[Real, Real]:
    """(re, im) of the full sum: the float product of the two half sums,
    within factored_sum_radius(n) plus 7 |k| (sum of the j) gamma.rad."""
    n = 1 << (r + 1)
    total_j = (1 << r) * (b ** (r + 1) - 1) // (b - 1)
    extra_rad = Fraction(7) * abs(k) * total_j * gamma.rad
    q, res_mods = power_residues(gamma, k, b, r + 1)
    if all(v == 0 for v in res_mods):
        return Real(Fraction(n), extra_rad), Real(Fraction(0), extra_rad)
    (ar, ai), (br, bi) = half_sums(res_mods, q)
    rad = factored_sum_radius(n) + extra_rad
    return Real(Fraction(ar * br - ai * bi), rad), Real(Fraction(ar * bi + ai * br), rad)


def parent_report(b, r, k, gamma: Real, exclude_zero: bool) -> tuple[Real, ...]:
    """(value_re, value_im, magnitude, product_magnitude, product_bound) of
    eval_expsum, as the Fraction and from_interval code composed them."""
    re, im = parent_sum(b, r, k, gamma)
    if exclude_zero:
        re = re - 1
    return (re, im, parent_magnitude(re, im), *parent_product_side(b, r, k, gamma))


def parent_check_messages(b, r, k, gamma: Real, **factors) -> tuple[str, str]:
    """The two InvariantViolation messages of eval_expsum's checks, as the
    parent formatted them from its Reals of the full sum and the products."""
    mag = parent_magnitude(*parent_sum(b, r, k, gamma))
    product, bound = parent_product_side(b, r, k, gamma, **factors)
    return (f"product identity failed at b={b}, r={r}, k={k}, gamma={gamma!r}: "
            f"|sum|={float(mag.mid):.6g} vs product={float(product.mid):.6g}",
            f"product bound violated at b={b}, r={r}, k={k}: "
            f"|sum|={float(mag.mid):.6g} > bound={float(bound.hi):.6g}")


def true_products(b, r, k, value: Fraction) -> tuple:
    """(2^(r+1) prod_d |cos(pi theta_d)|, 2^(r+1) prod_d (1 - pi ||theta_d||^2))
    at 200 bits, theta_d = k b^d value, each distance reduced exactly first."""
    with mpmath.workprec(200):
        magnitude = bound = mpmath.mpf(2) ** (r + 1)
        for d in range(r + 1):
            w = dist_exact(k * b**d * value)
            magnitude *= mpmath.sin(mpmath.pi * _mpf(Fraction(1, 2) - w))
            bound *= 1 - mpmath.pi * _mpf(w) ** 2
        return magnitude, bound


def encloses_200(enc: Real, value) -> bool:
    with mpmath.workprec(200):
        return _mpf(enc.lo) <= value <= _mpf(enc.hi)


def magnitude_real(x: float, y: float, rad: Fraction = Fraction(0)) -> Real:
    """The Real eval_expsum reports of _magnitude_ends."""
    return _real_of_ends(*_magnitude_ends(x, y, rad.as_integer_ratio()))


def count_builds(monkeypatch, fn, *args) -> tuple[int, int]:
    """(Fractions, Reals) constructed by one call of fn(*args), after one
    uncounted call has filled the caches (``pi_bounds``)."""
    fn(*args)
    counts = [0, 0]
    new, post_init = Fraction.__new__, Real.__post_init__

    def counting_new(cls, *a, **kw):
        counts[0] += 1
        return new(cls, *a, **kw)

    def counting_post_init(self):
        counts[1] += 1
        post_init(self)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting_new)
        m.setattr(Real, "__post_init__", counting_post_init)
        fn(*args)
    return counts[0], counts[1]


def _coprime_gamma(rng, q: int) -> Fraction:
    a = rng.randrange(1, q)
    while math.gcd(a, q) != 1:
        a = rng.randrange(1, q)
    return Fraction(a, q)


class TestClassify:
    def test_examples(self):
        assert classify_G(2, E(1, 2)) == 1
        assert classify_G(2, E(1, 5)) == 2
        assert classify_G(3, E(3)) is None

    def test_class_boundaries_inclusive_above(self):
        # the top endpoint 1/(2 b^(t-1)) belongs to class t
        assert classify_G(3, E(1, 2)) == 1
        assert classify_G(3, E(1, 6)) == 2
        assert classify_G(3, E(1, 18)) == 3

    def test_matches_the_parent_on_exact_and_enclosure_inputs(self):
        # integer and non-integer y of both signs, radii zero to >= 1/2, and
        # balls around the class boundaries m +- 1/(2 b^t) and around integers
        def reading(fn, b, y):
            try:
                return fn(b, y)
            except IndeterminateComparison as exc:
                return type(exc), str(exc)

        rng = random.Random(22)
        outcomes = Counter()
        for _ in range(3000):
            b = rng.choice([2, 3, 5, 10])
            rad = rng.choice([Fraction(0), Fraction(1, 10**rng.randint(3, 30)),
                              Fraction(1, rng.randint(2 * b, 10**4)), Fraction(rng.randint(1, 4), 2)])
            m = rng.randint(-5, 5)
            shape = rng.randrange(3)
            if shape == 0:
                q = rng.choice([1, rng.randint(2, 10**6)])
                mid = Fraction(rng.randint(-5 * q, 5 * q), q)
            else:
                edge = Fraction(0) if shape == 1 else Fraction(rng.choice([-1, 1]), 2 * b ** rng.randint(0, 6))
                mid = m + edge + rad * Fraction(rng.randint(-4, 4), 4)
            y = Real(mid, rad)
            want = reading(parent_classify_G, b, y)
            assert reading(classify_G, b, y) == want
            outcomes[(y.is_exact, isinstance(want, tuple) and want[1].split()[-2])] += 1
        # exact, decided enclosure, zero-or-class and class-boundary raises all occur
        assert outcomes[(True, False)] > 500 and outcomes[(False, False)] > 300
        assert outcomes[(False, "finite")] > 100 and outcomes[(False, "class")] > 100

    def test_step_down_property(self):
        rng = random.Random(21)
        for _ in range(500):
            b = rng.choice([2, 3, 5])
            q = rng.randint(4 * b, 10**6)
            a = rng.randint(1, q // (2 * b))
            y = Fraction(a, q) + rng.randint(0, 5)
            t = classify_G(b, Real.exact(y))
            if t is None or t < 2:
                continue
            assert classify_G(b, Real.exact(b * y)) == t - 1

    def test_enclosure_modes(self):
        assert classify_G(2, Real.approx(Fraction(1, 5), Fraction(1, 10**20))) == 2
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(1, 4), Fraction(1, 10**20)))
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(0), Fraction(1, 10**20)))


def extended_trunc(b, r):
    """Nonzero elements of the truncated zero-one set and the power gaps."""
    return sorted({unrank(b, i) for i in range(1, 2 ** (r + 1))} | set(power_gaps(b, r)))


def separation_two_branch(b, r, beta, gamma):
    """separation_check as written before both kinds of gamma shared one
    merge: the residue kernel plus Fraction distances for an exact gamma,
    products of Reals for an enclosure."""
    if gamma.is_exact:
        q, res = all_residues(b, r, 1, gamma.mid)
        hit = first_close(res[1:], q, beta.numerator, beta.denominator)
        worst = unrank(b, hit + 1) if hit >= 0 else None
        for x in power_gaps(b, r):
            if worst is not None and x >= worst:
                break
            if dist_exact(gamma.mid * x) <= beta:
                worst = x
                break
        return SeparationReport(worst is None, worst, b, r, beta)
    trunc = (unrank(b, i) for i in range(1, 1 << (r + 1)))
    for x in heapq.merge(trunc, power_gaps(b, r)):
        if dist_to_nearest_int(gamma * x) <= Real(beta):
            return SeparationReport(False, x, b, r, beta)
    return SeparationReport(True, None, b, r, beta)


def separation_merge_parent(b, r, beta, gamma):
    """separation_check as its merge loop was written before it compared
    integer ends: one Real distance and one Real comparison per element."""
    count = (1 << (r + 1)) - 1
    Q, add_mod = power_residues(gamma, 1, b, r + 1)
    window = beta + unrank(b, count) * gamma.rad
    hits = digit_scan_close(add_mod, count, Q, window.numerator, window.denominator)
    beta_r = Real(beta)
    for x in heapq.merge((unrank(b, i) for i in hits), power_gaps(b, r)):
        if dist_of_multiple(gamma, x) <= beta_r:
            return SeparationReport(False, x, b, r, beta)
    return SeparationReport(True, None, b, r, beta)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IndeterminateComparison as exc:
        return type(exc), str(exc)


class TestSeparation:
    def test_examples(self):
        rep = separation_check(2, 1, Fraction(1, 10), E(1, 3))
        assert (rep.ok, rep.counterexample) == (False, 3)
        assert separation_check(2, 1, Fraction(1, 10), E(1, 5)).ok
        rep = separation_check(2, 1, Fraction(1, 10), E(1, 2))
        assert (rep.ok, rep.counterexample) == (False, 2)

    def test_counterexample_is_least(self):
        rng = random.Random(22)
        for _ in range(50):
            b = rng.choice([2, 3, 5])
            r = rng.randint(0, 6)
            q = rng.randint(2, 10**4)
            gamma = Fraction(rng.randint(1, q - 1), q)
            beta = Fraction(1, rng.randint(2, 40))
            rep = separation_check(b, r, beta, Real.exact(gamma))
            # brute force over the extended truncated set
            least = None
            for x in extended_trunc(b, r):
                if dist_exact(gamma * x) <= beta:
                    least = x
                    break
            assert rep.ok == (least is None)
            assert rep.counterexample == least

    def test_enclosure_gamma(self):
        gamma = Real.approx(Fraction(2, 5), Fraction(1, 10**25))
        assert separation_check(2, 1, Fraction(1, 8), gamma).ok

    def test_r_cap_is_checked_before_any_table(self, monkeypatch):
        from radixapprox import _kernels
        from radixapprox.errors import ResourceLimit

        def no_tables(*args):
            raise AssertionError("half tables built above the r cap")

        monkeypatch.setattr(_kernels, "_half_tables", no_tables)
        with pytest.raises(ResourceLimit, match="exceeds the term cap"):
            separation_check(2, expsum.R_CAP_DEFAULT + 1, Fraction(1, 4096), E(5, 313))

    def test_r_at_the_cap_answers(self):
        rep = separation_check(2, expsum.R_CAP_DEFAULT, Fraction(1, 4096), E(5, 313))
        assert (rep.ok, rep.counterexample) == (False, 313)

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_check(self, kind):
        rng = random.Random(24)
        outcomes = set()
        for _ in range(400):
            b = rng.choice([2, 3, 5, 10])
            r = rng.randint(0, 7)
            q = rng.choice([rng.randint(2, 10**4), b ** (r + 2) + rng.choice([-1, 1]),
                            rng.randint(2, 10**20)])
            mid = Fraction(rng.randint(-3 * q, 3 * q), q)
            gamma = Real(mid, Fraction(1, 1 << rng.randint(10, 90)) if kind == "enclosure" else 0)
            beta = Fraction(1, rng.randint(2, 2 * b**3))
            want = _outcome(separation_two_branch, b, r, beta, gamma)
            assert _outcome(separation_check, b, r, beta, gamma) == want
            outcomes.add(want[0] if isinstance(want, tuple) else want.ok)
        assert outcomes == ({True, False, IndeterminateComparison} if kind == "enclosure"
                            else {True, False})

    @pytest.mark.parametrize(
        "b, r, beta, gamma",
        [
            # q < MOD_LIMIT, but q * beta_den wraps int64
            (10, 6, Fraction(1, 2000), Fraction(25038706291147849, 33122781086234565)),
            (2, 13, Fraction(1, 10000), Fraction(43709930429851096, MOD_LIMIT - 1)),
            # q at and just above MOD_LIMIT: Python-int residues
            (3, 7, Fraction(1, 1000), Fraction(98765432123456789, MOD_LIMIT)),
            (2, 13, Fraction(1, 10000), Fraction(25969627795047259, MOD_LIMIT + 1)),
            (10, 5, Fraction(1, 5000), Fraction(987654321987654321, MOD_LIMIT + 1)),
            # q * beta_den = 2^62 - 1, 2^62, 2^62 + 1
            (2, 10, Fraction(1, 2147483647), Fraction(1234567, 2147483649)),
            (3, 9, Fraction(1, 1 << 31), Fraction((1 << 29) + 1, 1 << 31)),
            (5, 6, Fraction(1, 5), Fraction(123456789012345677, 922337203685477581)),
            (5, 6, Fraction(1, 20), Fraction(123456789012345677, 922337203685477581)),
        ],
    )
    def test_counterexample_at_the_int64_limits(self, b, r, beta, gamma):
        rep = separation_check(b, r, beta, Real.exact(gamma))
        least = next(
            (x for x in extended_trunc(b, r) if dist_exact(gamma * x) <= beta), None
        )
        assert (rep.ok, rep.counterexample) == (least is None, least)

    def test_matches_the_two_branch_check_past_a_passing_window_element(self):
        # rad close to beta / V, so the first element read within the window
        # beta + V rad certifies as passing and a later element decides
        rng = random.Random(25)
        outcomes = []
        for _ in range(800):
            b, r = rng.choice([2, 3, 5, 10]), rng.randint(1, 7)
            V = unrank(b, (1 << (r + 1)) - 1)
            beta = Fraction(1, rng.randint(4, 4 * b**3))
            q = rng.randint(2, 10**6)
            mid = Fraction(rng.randint(0, q), q) + Fraction(rng.randint(0, 10**9), 10**9 * q)
            gamma = Real(mid, beta / V * Fraction(rng.randint(1, 1000), 1000))
            window = beta + V * gamma.rad
            trunc = (unrank(b, i) for i in range(1, 1 << (r + 1)))
            first = next((x for x in trunc if dist_exact(mid * x) <= window), None)
            if first is None or not dist_to_nearest_int(gamma * first).lo > beta:
                continue
            want = _outcome(separation_two_branch, b, r, beta, gamma)
            assert _outcome(separation_check, b, r, beta, gamma) == want
            outcomes.append(want[0] if isinstance(want, tuple) else want.ok)
        counts = [outcomes.count(k) for k in (True, False, IndeterminateComparison)]
        assert min(counts) >= 5, counts

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_parent_merge_loop_at_beta_and_the_clamp(self, kind):
        # ||gamma x|| at beta or at 1/2 for an element x of the extended set
        rng = random.Random(26)
        outcomes = Counter()
        for _ in range(600):
            b, r = rng.choice([2, 3, 5, 10]), rng.randint(0, 7)
            beta = Fraction(1, rng.randint(2, 2 * b**3))
            x = rng.choice(extended_trunc(b, r)[:6])
            gamma = gamma_near(rng, x, rng.choice([beta, Fraction(1, 2)]), kind)
            want = _outcome(separation_merge_parent, b, r, beta, gamma)
            assert _outcome(separation_check, b, r, beta, gamma) == want
            outcomes[want[0] if isinstance(want, tuple) else want.ok] += 1
        assert min(outcomes[k] for k in (True, False)) > 30, outcomes
        assert (outcomes[IndeterminateComparison] > 50) == (kind == "enclosure"), outcomes

    @pytest.mark.parametrize("gamma", [E(314159265358, 1099511627689), Real.parse("sqrt2", 128)])
    def test_builds_no_real_per_scanned_element(self, gamma, monkeypatch):
        # a passing check reads every power gap: 3 at r = 2, 105 at r = 14
        beta = Fraction(1, 10**6)
        assert all(separation_check(2, r, beta, gamma).ok for r in (2, 14))
        few, many = (count_builds(monkeypatch, separation_check, 2, r, beta, gamma) for r in (2, 14))
        assert few == many and few[1] == 0

    def test_window_reaches_the_largest_truncated_element(self):
        # ||7 gamma|| reads 107/1000 = beta + 7 rad, so its enclosure touches beta;
        # the elements 1..6 and the power gaps certainly pass
        gamma = Real(Fraction(3107, 7000), Fraction(1, 1000))
        want = _outcome(separation_two_branch, 2, 2, Fraction(1, 10), gamma)
        assert want == (IndeterminateComparison,
                        "Real(107/1000 +/- 7/1000) <= Real(1/10) straddles the error radius")
        assert _outcome(separation_check, 2, 2, Fraction(1, 10), gamma) == want


def shifts_per_position(b, r, k, gamma, beta, outcomes):
    """(g, positions) of small_shift_count, one scalar distance per position;
    tallies each position's outcome."""
    positions = []
    for d in range(r + 1):
        try:
            close = dist_to_nearest_int(gamma * (k * b**d)) <= Real(beta)
        except IndeterminateComparison:
            outcomes["indeterminate"] += 1
            raise
        outcomes["close" if close else "far"] += 1
        if close:
            positions.append(d)
    return len(positions), tuple(positions)


class TestSmallShifts:
    def test_examples(self):
        assert small_shift_count(2, 1, 1, E(1, 5), Fraction(1, 10)).g == 0
        rep = small_shift_count(3, 2, 1, E(0), Fraction(1, 10))
        assert rep.g == 3 and rep.positions == (0, 1, 2)
        # distances 1/27, 1/9, 1/3: only the first is <= 1/10
        rep = small_shift_count(3, 2, 1, E(1, 27), Fraction(1, 10))
        assert rep.g == 1 and rep.positions == (0,)

    def test_matches_the_per_position_reading(self):
        # exact gamma of both signs, the named constants at 64-256 bits, and
        # random midpoints with radii from 1/10 down to 1e-12
        rng = random.Random(25)
        outcomes = Counter()
        for i in range(1500):
            b = rng.choice([2, 3, 5, 10])
            r = rng.randint(0, 8)
            k = rng.randint(1, 50)
            beta = Fraction(1, rng.randint(2, 40))
            q = rng.randint(2, 10**6)
            mid = Fraction(rng.randint(-5 * q, 5 * q), q)
            if i % 4 == 0:
                gamma = Real(mid)
            elif i % 4 == 1:
                gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 128, 256]))
            elif i % 4 == 2:
                gamma = Real(mid, Fraction(1, rng.randint(10, 10 ** rng.randint(2, 12))))
            else:  # ||k b^d gamma|| at beta or at 1/2 for one position d
                n, target = k * b ** rng.randint(0, r), rng.choice([beta, Fraction(1, 2)])
                gamma = gamma_near(rng, n, target, rng.choice(["exact", "enclosure"]))
            want = _outcome(shifts_per_position, b, r, k, gamma, beta, outcomes)
            rep = _outcome(small_shift_count, b, r, k, gamma, beta)
            assert (rep if isinstance(rep, tuple) else (rep.g, rep.positions)) == want
        assert min(outcomes["close"], outcomes["far"], outcomes["indeterminate"]) > 100, outcomes

    def test_builds_no_real_per_position(self, monkeypatch):
        gamma = Real.parse("sqrt2", 128)
        few, many = (count_builds(monkeypatch, small_shift_count, 2, r, 3, gamma, Fraction(1, 10))
                     for r in (2, 14))
        assert few == many and few[1] == 0

    def test_bound_under_separation(self):
        rng = random.Random(23)
        verified = 0
        for _ in range(300):
            b = rng.choice([3, 4, 5])
            r = rng.randint(1, 5)
            m = rng.randint(1, 3)
            D = b ** (r + 2) - 1
            gamma = E(rng.randint(1, D - 1), D)
            beta = Fraction(1, 2 * b**m)
            if not separation_check(b, r, beta, gamma).ok:
                continue
            k = rng.randint(1, 64)
            rep = small_shift_count(b, r, k, gamma, beta)
            assert rep.g**2 < 9 * k
            verified += 1
        assert verified > 20

    # gamma = 0: all six positions are close, g = 6 >= 3 sqrt(1), and the
    # separation hypothesis fails at x = 1
    SIX_CLOSE = (2, 5, 1, E(0), Fraction(1, 8))

    def test_a_large_count_without_separation_is_no_violation(self):
        assert not separation_check(2, 5, Fraction(1, 8), E(0)).ok
        rep = small_shift_count(*self.SIX_CLOSE)
        assert rep.g == 6 and rep.positions == tuple(range(6))

    def test_a_large_count_under_separation_raises(self, monkeypatch):
        monkeypatch.setattr(expsum, "separation_check",
                            lambda b, r, beta, gamma: SeparationReport(True, None, b, r, beta))
        with pytest.raises(InvariantViolation, match=r"^close-shift count g=6 reached "
                           r"3\*sqrt\(1\) despite the separation hypothesis$"):
            small_shift_count(*self.SIX_CLOSE)

    @pytest.mark.parametrize("beta", [Fraction(0), Fraction(-1, 2)])
    def test_a_non_positive_beta_is_refused_before_any_position(self, beta, monkeypatch):
        def no_reads(*args):
            raise AssertionError("a position was read")

        monkeypatch.setattr(expsum, "dist_le_of_multiple", no_reads)
        with pytest.raises(DomainError, match=rf"^need beta > 0, got {beta}$"):
            small_shift_count(2, 5, 1, Real(Fraction(1, 3)), beta)

    def test_separation_is_scanned_only_for_a_large_count(self, monkeypatch):
        calls = []
        check = expsum.separation_check
        monkeypatch.setattr(expsum, "separation_check", lambda *a: calls.append(a) or check(*a))
        assert small_shift_count(3, 2, 9, E(0), Fraction(1, 10)).g == 3  # 3^2 < 9 * 9
        assert small_shift_count(3, 2, 1, E(1, 27), Fraction(1, 10)).g == 1
        assert calls == []
        small_shift_count(*self.SIX_CLOSE)
        assert calls == [(2, 5, Fraction(1, 8), E(0))]


def product_cases():
    """(b, r, k, gamma) for the 200-bit product test: small and large exact
    moduli, sqrt2/pi/e at 64, 256 and 4096 bits, r = 0 and the term cap, b
    up to 40, ||theta|| at 1/2 and within 10^-400 of it, radii past 1/2 and
    beyond float range, and a k b^d rad beyond float range."""
    rng = random.Random(45)
    cases = []
    for i in range(48):
        if i % 3 == 0:
            q = rng.choice([rng.randint(2, 50), rng.randint(2, 10**6), rng.randint(2, 2**70), 10**199 + 7])
            gamma = E(_coprime_gamma(rng, q))
        else:
            gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 256, 4096]))
        r = rng.choice([0, R_CAP_DEFAULT, rng.randint(0, 12)])
        k = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 6))
        cases.append((rng.randint(2, 40), r, k, gamma))
    half = Fraction(1, 2) + Fraction(1, 10**400)
    cases += [(2, 3, 1, E(1, 2)), (3, 5, 1, E(1, 2)), (2, 0, 1, E(half)), (3, 4, 1, E(half)),
              (2, 0, 1, Real(half, Fraction(1, 10**500))), (7, 6, 1, Real(half, Fraction(1, 10**500))),
              (2, 3, 1, Real(Fraction(1, 3), Fraction(3, 4))), (5, 2, 7, Real(Fraction(2, 5), 1)),
              (3, 4, 10**400, Real.parse("pi", 64)), (2, 3, 1, Real(Fraction(1, 3), Fraction(10**400))),
              (40, R_CAP_DEFAULT, 1, Real.parse("e", 4096)),
              (5, 3, 7, E(0)), (2, 6, -21, Real.approx(Fraction(2, 7), Fraction(1, 10**30)))]
    return cases


class TestProductInterval:
    def test_contains_the_exact_product_within_the_stated_widening(self):
        # every field holds the 200-bit products at the ends and the midpoint
        # of gamma; for an exact gamma each end lies within 2^-41 of the
        # product plus one grid step 2^-64 (the docstring's widening)
        seen = Counter()
        for b, r, k, gamma in product_cases():
            rep = eval_expsum(b, r, k, gamma)
            for value in {gamma.lo, gamma.mid, gamma.hi}:
                magnitude, bound = true_products(b, r, k, value)
                assert encloses_200(rep.product_magnitude, magnitude), (b, r, k, gamma)
                assert encloses_200(rep.product_bound, bound), (b, r, k, gamma)
            if gamma.is_exact:
                for enc, value in zip((rep.product_magnitude, rep.product_bound), (magnitude, bound)):
                    with mpmath.workprec(200):
                        slack = value * mpmath.ldexp(1, -41) + mpmath.ldexp(1, -64)
                        assert value - _mpf(enc.lo) <= slack and _mpf(enc.hi) - value <= slack
            seen[(gamma.is_exact, rep.product_magnitude.is_exact, rep.product_bound.is_exact)] += 1
            seen["zero lower end"] += rep.product_magnitude.lo == 0 < rep.product_magnitude.hi
        # exact zeros and exact bounds, rounded products, and products below the grid
        assert seen[(True, True, False)] >= 2 and seen[(True, False, True)] >= 1, seen
        assert seen[(True, False, False)] > 10 and seen[(False, False, False)] > 20, seen
        assert seen["zero lower end"] >= 6, seen

    def test_exact_fields_stay_exact(self):
        from radixapprox.cli import _write

        for b in (2, 3):
            rep = eval_expsum(b, 3, 1, E(1, 2))  # h = 0 at d = 0
            assert json.loads(_write(rep.product_magnitude)) == {"exact": "0/1"}
        for gamma in (E(0), E(3, 7)):
            rep = eval_expsum(5, 3, 7, gamma)  # every k b^d gamma an integer
            assert json.loads(_write(rep.product_bound)) == {"exact": "16/1"}

    @pytest.mark.parametrize("digits", [20, 24, 27])
    def test_a_product_below_float_range_reads_zero_to_a_grid_step(self, digits):
        # every factor sin(pi 2^-40): the float product reads about 2^-767,
        # 2^-920 (below _PRODUCT_MIN) and 2^-1035 (partial products below
        # float range); each encloses the 200-bit product as [0, 2^-64]
        Q = 1 << 41
        (lo, hi), _ = _cosine_product_ends(E(1, Q), 1, 2, [Q // 2 - 1] * digits)
        assert (lo, hi) == ((0, 1 << 64), (1, 1 << 64))
        with mpmath.workprec(200):
            assert 0 < 2**digits * mpmath.sin(mpmath.pi * mpmath.ldexp(1, -40)) ** digits < mpmath.ldexp(1, -64)

    def test_digits_stay_bounded_at_r_26(self):
        # 600-digit moduli: both fields keep the grid 2^-64 at the term cap
        rng = random.Random(42)
        q = 10**600 + 7
        for gamma in (E(rng.randrange(1, q), q), Real(Fraction(rng.randrange(1, q), q), Fraction(1, 10**590))):
            rep = eval_expsum(3, R_CAP_DEFAULT, 1, gamma)
            for enc in (rep.product_magnitude, rep.product_bound):
                assert max(enc.mid.denominator, enc.rad.denominator) <= 2**65

    def test_report_fields_stay_short_for_long_inputs(self):
        q = 10**199 + 7
        for gamma, r in ((E(10**198, q), 10), (Real.parse("e", 512), 12)):
            rep = eval_expsum(3, r, 7, gamma)
            for enc in (rep.product_magnitude, rep.product_bound):
                assert len(str(enc.mid.denominator)) < 40 and len(str(enc.rad.denominator)) < 40


# value_re.mid and value_im.mid of eval_expsum(b, r, k, gamma, exclude_zero),
# the float product of the two half sums: small moduli, an int64 modulus, the
# modulus 2^64 + 13, sqrt2 at 128 bits and the README's two sums.
# recorded_sums() writes the table.
PINNED_MIDS = [
    (2, 14, 1, "5/313", False, "4530228998115129/1125899906842624", "5426384989435615/281474976710656"),
    (3, 12, -7, "5/313", True, "-2923714554246685/1125899906842624", "764059598040529/140737488355328"),
    (10, 13, 3, "457/499", False,
     "7612571138642035/1152921504606846976", "3531987486047963/1152921504606846976"),
    (2, 15, 100, "457/499", True, "-1830360431446087/9007199254740992", "-5023406402581695/9007199254740992"),
    (2, 22, 1, "5/262147", True, "-3412808413516887/35184372088832", "157055411151691/281474976710656"),
    (3, 10, 3, "314159265358/1099511627689", False,
     "-5287743382167947/4503599627370496", "8622454925912775/18014398509481984"),
    (2, 11, -1, "314159265358/1099511627689", True,
     "218275580278149/2251799813685248", "-6098937082762605/36028797018963968"),
    (10, 9, 7, "12345678901234567/18446744073709551629", True,
     "-11916494303522961/9007199254740992", "-226299633379825/1125899906842624"),
    (2, 12, 1, "sqrt2@128", False, "2695257453561923/4503599627370496", "-1671645500757589/4503599627370496"),
    (3, 8, 10, "sqrt2@128", True,
     "-291404167403095747/288230376151711744", "3043432557812231/288230376151711744"),
    # the sum and decay commands under README's "## CLI"
    (2, 12, 7, "5/313", False, "765394798843669/2251799813685248", "-5756800016864623/72057594037927936"),
    (5, 6, 3, "457/499", True, "-8796085866637833/4503599627370496", "-6987408875260985/4503599627370496"),
]


def _pinned_gamma(text: str) -> Real:
    name, _, bits = text.partition("@")
    return Real.parse(name, int(bits)) if bits else E(Fraction(text))


def recorded_sums():
    """PINNED_MIDS with the mids eval_expsum reports now, one Python line a
    case.  Print them with ``PYTHONPATH=src python tests/test_expsum.py``
    only when the float sums are meant to change."""
    for b, r, k, gamma, exclude_zero, _, _ in PINNED_MIDS:
        rep = eval_expsum(b, r, k, _pinned_gamma(gamma), exclude_zero)
        yield (b, r, k, gamma, exclude_zero, str(rep.value_re.mid), str(rep.value_im.mid))


class TestEvalExpsum:
    def test_single_pair_cancels(self):
        rep = eval_expsum(2, 0, 1, E(1, 2))
        assert rep.magnitude.hi < Fraction(1, 10**12)
        assert rep.product_magnitude.mid == 0

    @pytest.mark.parametrize("b", [2, 3])
    def test_vanishing_factor_gives_an_exact_zero_product(self, b):
        from radixapprox.cli import _write

        rep = eval_expsum(b, 3, 1, E(1, 2))
        assert rep.product_magnitude.rad == 0
        assert json.loads(_write(rep.product_magnitude)) == {"exact": "0/1"}

    def test_tiny_factor_is_no_exact_zero(self):
        # h = 10^-400 reads as the float 0; the factor 2 sin(pi h) is not 0
        from radixapprox.cli import _write

        rep = eval_expsum(2, 0, 1, E(1, 2) + Fraction(1, 10**400))
        with mpmath.workprec(200):
            true = 2 * mpmath.sin(mpmath.pi / mpmath.mpf(10) ** 400)
            assert _mpf(rep.product_magnitude.lo) <= true <= _mpf(rep.product_magnitude.hi)
        assert json.loads(_write(rep.product_magnitude)) != {"exact": "0/1"}

    def test_gamma_zero_counts_terms(self):
        rep = eval_expsum(5, 3, 7, Real.exact(0))
        assert rep.value_re.mid == 16 and rep.value_im.mid == 0
        assert rep.magnitude.mid == 16
        assert rep.product_bound.lo <= 16 <= rep.product_bound.hi

    def test_quarter_full_cancellation(self):
        rep = eval_expsum(2, 1, 1, E(1, 4))
        assert rep.magnitude.hi < Fraction(1, 10**12)
        assert rep.product_magnitude.mid == 0

    def test_identity_and_bound_randomized(self):
        rng = random.Random(24)
        for _ in range(150):
            b = rng.randint(2, 10)
            r = rng.randint(0, 10)
            k = rng.randint(1, 100)
            q = rng.randint(2, 10**6)
            rep = eval_expsum(b, r, k, E(rng.randint(1, q - 1), q))
            m, p = rep.magnitude, rep.product_magnitude
            assert abs(m.mid - p.mid) <= m.rad + p.rad
            assert m.lo <= rep.product_bound.hi + Fraction(1, 10**9)

    def test_zero_exclusion_shifts_by_one(self):
        rep_all = eval_expsum(3, 4, 5, E(3, 11))
        rep_exc = eval_expsum(3, 4, 5, E(3, 11), exclude_zero=True)
        assert rep_exc.value_re.mid == rep_all.value_re.mid - 1
        assert rep_exc.value_im.mid == rep_all.value_im.mid
        assert rep_exc.term_count == rep_all.term_count - 1

    def test_negative_k(self):
        rep = eval_expsum(3, 2, -4, E(2, 7))
        mirror = eval_expsum(3, 2, 4, E(2, 7))
        assert abs(rep.magnitude.mid - mirror.magnitude.mid) <= rep.magnitude.rad + mirror.magnitude.rad

    def test_term_cap(self):
        from radixapprox.errors import ResourceLimit

        with pytest.raises(ResourceLimit):
            eval_expsum(2, 27, 1, E(1, 3))

    def test_big_denominator_fallback(self):
        q = (1 << 61) + 1
        rep = eval_expsum(2, 3, 1, E(1, q))
        # gamma is nearly 0, so the sum is nearly the term count
        assert abs(rep.magnitude.mid - 16) < Fraction(1, 10**6)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT + 1, (1 << 64) + 13])
    def test_sum_radius_covers_angles_near_zero(self, q):
        # gamma = 1/q puts every angle within 2^-40 of 0: all terms add up
        # with one sign, the worst case for the summation error
        re, im, n = _direct_sum(2, 11, 1, Fraction(1, q))
        with mpmath.workprec(200):
            exact_re = mpmath.fsum(mpmath.cos(2 * mpmath.pi * v / q) for v in range(n))
            exact_im = mpmath.fsum(mpmath.sin(2 * mpmath.pi * v / q) for v in range(n))
        assert re.rad == im.rad == Fraction(*_sum_radius(n))
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT + 1])
    def test_sum_radius_covers_spread_angles(self, q):
        b, r, k, gamma = 3, 10, 7, Fraction(q // 3 + 1, q)
        re, im, n = _direct_sum(b, r, k, gamma)
        with mpmath.workprec(200):
            angles = [2 * mpmath.pi * ((k * gamma.numerator * x) % q) / q
                      for x in [0] + [unrank(b, i) for i in range(1, n)]]
            exact_re = mpmath.fsum(mpmath.cos(t) for t in angles)
            exact_im = mpmath.fsum(mpmath.sin(t) for t in angles)
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

    @pytest.mark.parametrize("q", [(1 << 40) - 87, MOD_LIMIT - 1, MOD_LIMIT + 1, (1 << 64) + 13, None],
                             ids=["2^40-87", "ML-1", "ML+1", "2^64+13", "sqrt2@128"])
    def test_direct_sum_matches_a_plain_sum_over_every_residue(self, q):
        # r across the 2^16-entry runs of whole rows and odd and even digit
        # counts; the reference sums one table of all 2^(r+1) residues, so the
        # two float sums differ by at most _sum_radius(n) each
        rng = random.Random(q)
        for r in (0, 1, 9, 10, 11, 17, 18, 19):
            b, k = rng.choice([2, 3, 10]), rng.choice([-7, 1, 3, 10])
            if q is None:
                gamma = Real.parse("sqrt2", 128)
            else:
                a = rng.randrange(1, q)
                while math.gcd(a, q) != 1:
                    a = rng.randrange(1, q)
                gamma = E(a, q)
            rep = eval_expsum(b, r, k, gamma)
            n = 1 << (r + 1)
            extra = 7 * abs(k) * (1 << r) * (b ** (r + 1) - 1) // (b - 1) * gamma.rad
            grid, res = all_residues(b, r, k, gamma.mid)
            # one Python-int division per term, not the half-table angles,
            # and numpy's own cos, sin and sum, not the kernels'
            theta = np.array([v / grid for v in res.tolist()]) * (2 * np.pi)
            ref = float(np.cos(theta).sum()), float(np.sin(theta).sum())
            assert rep.term_count == len(res) == n
            for part, want in zip((rep.value_re, rep.value_im), ref):
                assert part.rad == Fraction(*_sum_radius(n)) + extra
                assert abs(part.mid - Fraction(want)) <= part.rad + Fraction(*_sum_radius(n))

    def test_enclosure_sum_holds_no_python_int_per_term(self):
        # r = 14 has 2^15 terms; the two half tables of Python ints hold
        # 2^7 + 2^8 entries, and each run of angles is floats
        gamma = Real.parse("pi", 256)
        tracemalloc.start()
        try:
            eval_expsum(3, 14, 1, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("kind", ["below 2^53", "above 2^53", "2^64+13", "sqrt2@128"])
    def test_factored_sum_meets_the_per_term_row_runs(self, kind):
        # the product of the half sums against the parent's sum of every
        # term E_H[h] E_L[l]: both enclose the one exact sum, so their mids
        # differ by at most the two radii
        rng = random.Random(kind)
        for i in range(12):
            b, r = rng.randint(2, 10), rng.choice([0, 1, 2, 5, rng.randint(0, 16), 16])
            k = rng.choice([1, -1]) * rng.randint(1, 10**rng.randint(1, 4))
            if kind == "sqrt2@128":
                gamma = Real.parse("sqrt2", 128)
            else:
                q = {"below 2^53": rng.randint(2, 1 << 53), "above 2^53": rng.randint(1 << 53, 1 << 62),
                     "2^64+13": (1 << 64) + 13}[kind]
                gamma = E(_coprime_gamma(rng, q))
            exclude_zero = i % 2 == 1
            rep = eval_expsum(b, r, k, gamma, exclude_zero)
            q, res_mods = power_residues(gamma, k, b, r + 1)
            if all(v == 0 for v in res_mods):
                continue
            n = 1 << (r + 1)
            extra = 7 * abs(k) * (1 << r) * (b ** (r + 1) - 1) // (b - 1) * gamma.rad
            ref = parent_row_run_sum(res_mods, q)
            for part, want in zip((rep.value_re, rep.value_im), (Fraction(ref[0]) - exclude_zero, Fraction(ref[1]))):
                assert part.rad == factored_sum_radius(n) + extra
                assert abs(part.mid - want) <= part.rad + parent_sum_radius(n)

    @pytest.mark.parametrize("gamma", [E(1, 3), E(314159265358, 1099511627689), E(1, (1 << 64) + 13)],
                             ids=["1/3", "2^40-87", "aligned"])
    def test_parts_hold_the_200_bit_product_at_the_term_cap(self, gamma):
        # r = R_CAP_DEFAULT: 2^27 terms in two half sums of 2^13 and 2^14;
        # at 1/(2^64+13) every term's angle is below 2^-20 of a turn, so
        # |sum| is close to n, the radius's worst case
        r = expsum.R_CAP_DEFAULT
        for b, k, exclude_zero in ((2, 1, False), (3, -5, True)):
            rep = eval_expsum(b, r, k, gamma, exclude_zero)
            for part, want in zip((rep.value_re, rep.value_im),
                                  _product_value(b, r, k, gamma.mid, exclude_zero)):
                assert part.lo <= want <= part.hi
        if gamma.mid.denominator > 1 << 64:
            assert rep.magnitude.lo > (1 - Fraction(1, 10**6)) * 2 ** (r + 1)

    @pytest.mark.parametrize("r, q", [(1, 2), (3, 4), (7, 32), (15, 4096)])
    def test_the_cost_model_boundary_sums_the_row_runs(self, r, q):
        # (r+1) q == 2^(r+1), where the former min(2^(r+1), (r+1) q) cost
        # model left the row runs for residue counts at one residue fewer:
        # small moduli, whose residues repeat, on both sides of it.  The one
        # factored sum holds the 200-bit product and meets the per-term row
        # runs within the two radii (q = 1 takes the exact shortcut)
        rng = random.Random(r)
        assert (r + 1) * q == 1 << (r + 1)
        n = 1 << (r + 1)
        for modulus, exclude_zero in ((q, False), (q - 1, True))[: 1 + (q > 2)]:
            gamma = _coprime_gamma(rng, modulus)
            rep = eval_expsum(3, r, -5, E(gamma), exclude_zero)
            assert rep.term_count == n - exclude_zero
            ref = parent_row_run_sum(digit_weights(3, r, -5, gamma)[1], modulus)
            for part, want, value in zip((rep.value_re, rep.value_im),
                                         (Fraction(ref[0]) - exclude_zero, Fraction(ref[1])),
                                         _product_value(3, r, -5, gamma, exclude_zero)):
                assert part.lo <= value <= part.hi
                assert abs(part.mid - want) <= part.rad + parent_sum_radius(n)

    def test_direct_sum_holds_one_run_of_terms(self):
        # r = 26 has 2^27 terms; the direct sum, the product of the two half
        # sums, holds one run of unit vectors per half table (2^13 and 2^14)
        # with their int64 residues and angles, never a run of the terms
        # themselves, and peaks at about 1.0 MB under tracemalloc
        gamma = E(314159265358, 1099511627689)
        tracemalloc.start()
        try:
            eval_expsum(2, 26, 3, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("size", [1000, 8193, 1 << 18])
    def test_strided_parts_sum_as_contiguous_arrays(self, size):
        # _sum_radius bounds numpy's pairwise sum of a contiguous array; the
        # real and imaginary parts of a complex run are strided views, and
        # cos_sin_sum must add them along the same tree, bit for bit
        rng = np.random.default_rng(size)
        for _ in range(10):
            z = np.exp(1j * rng.uniform(-np.pi, np.pi, size)) * rng.uniform(0.5, 1.5, size)
            assert not z.real.flags.c_contiguous
            want = (np.ascontiguousarray(z.real).sum(), np.ascontiguousarray(z.imag).sum())
            assert cos_sin_sum(z) == want

    @pytest.mark.parametrize("b, r, k, gamma, exclude_zero, re_mid, im_mid", PINNED_MIDS,
                             ids=[f"{g}-r{r}-{'excl' if x else 'all'}" for _, r, _, g, x, _, _ in PINNED_MIDS])
    def test_mids_match_the_recorded_sums(self, b, r, k, gamma, exclude_zero, re_mid, im_mid):
        # the float product of the half sums, bit for bit as recorded, and
        # each recorded mid within _sum_radius(n) of the 200-bit sum at
        # gamma.mid, whose residues the float sums read
        rep = eval_expsum(b, r, k, _pinned_gamma(gamma), exclude_zero)
        assert (rep.value_re.mid, rep.value_im.mid) == (Fraction(re_mid), Fraction(im_mid))
        rad = Fraction(*_sum_radius(1 << (r + 1)))
        want = _product_value(b, r, k, rep.gamma.mid, exclude_zero)
        assert abs(Fraction(re_mid) - want[0]) <= rad and abs(Fraction(im_mid) - want[1]) <= rad

    @pytest.mark.parametrize("gamma, r", [(E(5, 313), 14), (E(314159265358, 1099511627689), 10),
                                          (Real.parse("sqrt2", 128), 9), (E(5, 262147), 26)])
    def test_the_sum_adds_each_half_table_once_through_cos_sin_sum(self, gamma, r, monkeypatch):
        # one float sum of a run per half table: 2^s + 2^(k-s) unit
        # vectors, k = r + 1 digits and s = k // 2, and no term of the 2^k
        assert not {"_re_im_sum", "cos_sin_sum", "term_rows", "count_rows"} & vars(expsum).keys()
        seen = []
        monkeypatch.setattr(_kernels, "cos_sin_sum", lambda z: seen.append(len(z)) or cos_sin_sum(z))
        eval_expsum(2, r, 1, gamma)
        k = r + 1
        assert sorted(seen) == [1 << k // 2, 1 << (k - k // 2)]

    def test_magnitude_slack_covers_200_bit_hypot(self):
        rng = random.Random(31)
        cases = []
        for _ in range(400):
            x = Fraction(rng.uniform(-2.0**27, 2.0**27))
            y = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
            cases.append((x, y))
            # near-cancelling: a sum of doubles close to 1, minus the
            # excluded zero term; and rationals that are not doubles
            d = Fraction(1 + rng.uniform(-1, 1) * 2.0 ** -rng.randint(1, 52))
            cases.append((d - 1, Fraction(rng.uniform(-1, 1)) / 2 ** rng.randint(0, 60)))
            # eval_expsum reads the excluded sum as the float x - 1.0: IEEE
            # subtraction rounds the exact difference correctly
            assert float(d) - 1.0 == float(d - 1)
            cases.append((Fraction(1, rng.randint(3, 10**9)), -Fraction(1, rng.randint(3, 10**9))))
        def hypot200(x, y):
            with mpmath.workprec(200):
                return mpf_to_fraction(mpmath.hypot(_mpf(x), _mpf(y)))

        for x, y in cases:
            true = hypot200(x, y)
            # the helper reads the parts as floats, each rounded once
            mag = magnitude_real(float(x), float(y))
            assert mag.lo <= true <= mag.hi
            # the derivation in the docstring: within 3 * 2^-53 of the float
            assert abs(true - mag.mid) <= 3 * mag.mid / 2**53
            # the parts' one radius adds to the slack: the corners of its
            # box, and of the smaller box of radii rx and ry, lie inside
            rx, ry = abs(x) / 7 + Fraction(1, 10**9), abs(y) / 5
            rad = max(rx, ry)
            wide = magnitude_real(float(x), float(y), rad)
            for dx, dy in ((rx, ry), (rad, rad)):
                for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    assert wide.lo <= hypot200(x + sx * dx, y + sy * dy) <= wide.hi

    def test_float_factors_lie_within_the_factor_envelope(self):
        # the docstring of _cosine_product_ends: a float sine at h in
        # [_NORMAL_MIN, 1/2] within 12u of sin(pi h), a bound factor within
        # 23u of 1 - pi w^2 on its outward side, both inside _FACTOR_ERR
        # 2^-51 = 36u; and R_CAP_DEFAULT + 1 factors of it, with their
        # roundings, stay inside the gamma_n < 2^-43 of a product
        u = Fraction(1, 2**53)
        n = (4 * _FACTOR_ERR + 1) * (R_CAP_DEFAULT + 1)
        assert n * u / (1 - n * u) < Fraction(1, 2**43)
        rng = random.Random(39)
        hs = [rng.uniform(0, 0.5) for _ in range(2000)]
        hs += [0.5 - rng.randint(1, 2**20) * 2.0 ** -rng.randint(21, 80) for _ in range(300)]
        hs += [rng.randint(1, 2**20) * 2.0 ** -rng.randint(21, 1040) for _ in range(300)]
        hs = [h for h in hs if _NORMAL_MIN <= h <= 0.5] + [0.5, _NORMAL_MIN]
        pi_lo, pi_hi = _PI_FLOATS
        worst = [0, 0]
        with mpmath.workprec(200):
            assert _mpf(Fraction(pi_lo)) < mpmath.pi < _mpf(Fraction(pi_hi))
            for h in hs:
                true = mpmath.sin(mpmath.pi * _mpf(Fraction(h)))
                err = abs(_mpf(Fraction(math.sin(math.pi * h))) - true) / true / _mpf(u)
                worst[0] = max(worst[0], err)
                w = min(h, 0.5)
                true = 1 - mpmath.pi * _mpf(Fraction(w)) ** 2
                upper, lower = (_mpf(Fraction(1 - p * w * w)) for p in (pi_lo, pi_hi))
                assert lower <= true * (1 + 23 * _mpf(u)) and upper >= true * (1 - 23 * _mpf(u))
                worst[1] = max(worst[1], abs(upper - true) / true / _mpf(u))
        assert worst[0] < 12 and worst[1] < 23 < 4 * _FACTOR_ERR, worst

    @pytest.mark.parametrize("gamma", [E(314159265358, 1099511627689), Real.parse("pi", 128)])
    def test_product_side_builds_no_fraction_or_real_per_digit(self, gamma, monkeypatch):
        # both r take the direct path in one run of terms, so only the
        # product side could grow with the digits
        few, many = (count_builds(monkeypatch, eval_expsum, 3, r, 1, gamma) for r in (2, 12))
        assert few == many

    def test_report_matches_the_fraction_code(self):
        # the three Reals of the sum equal the Fraction and from_interval
        # composition on drawn (b, r, k, gamma), exact and enclosed, with
        # and without the zero term; the two products, now one float pass,
        # meet the Fraction code's, whose exact fields they keep
        rng = random.Random(44)
        cases = []
        for _ in range(200):
            if rng.random() < 0.5:
                q = rng.choice([rng.randint(2, 50), rng.randint(2, 10**6), rng.randint(2, 2**70)])
                gamma = E(rng.randint(1, q - 1), q)
            else:
                gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 128, 256]))
            k = rng.choice([1, -1]) * rng.randint(1, 10**rng.randint(1, 6))
            cases.append((rng.randint(2, 7), rng.randint(0, 10), k, gamma))
        # every residue 0 (the exact shortcut): gamma = 0 and k a multiple of q
        cases += [(5, 3, 7, E(0)), (2, 2, 1, Real.approx(0, Fraction(1, 10**20))),
                  (3, 4, 14, E(3, 7)), (2, 6, -21, Real.approx(Fraction(2, 7), Fraction(1, 10**30)))]
        # |sum| within its slack of 0, so the magnitude is clamped at 0
        cases += [(2, 0, 1, E(1, 2)), (2, 1, 1, E(1, 4)), (3, 0, 1, Real.parse("1/2") + Fraction(1, 10**30))]
        seen = set()
        for b, r, k, gamma in cases:
            for exclude_zero in (False, True):
                rep = eval_expsum(b, r, k, gamma, exclude_zero)
                *want, product, bound = parent_report(b, r, k, gamma, exclude_zero)
                assert [rep.value_re, rep.value_im, rep.magnitude] == want
                for got, parent in ((rep.product_magnitude, product), (rep.product_bound, bound)):
                    assert got.lo <= parent.hi and parent.lo <= got.hi
                    assert got.is_exact == parent.is_exact and (got == parent or not got.is_exact)
                shortcut = all(v == 0 for v in power_residues(gamma, k, b, r + 1)[1])
                seen.add((gamma.is_exact, exclude_zero, shortcut, rep.magnitude.lo == 0 < rep.magnitude.hi))
        assert {(e, x, False, False) for e in (True, False) for x in (True, False)} <= seen
        assert {(e, x, True, False) for e in (True, False) for x in (True, False)} <= seen
        assert (True, False, False, True) in seen

    @pytest.mark.parametrize("gamma", [E(314159265358, 1099511627689), Real.parse("pi", 256)],
                             ids=["exact", "pi@256"])
    @pytest.mark.parametrize("exclude_zero", [False, True])
    def test_builds_ten_fractions_and_five_reals_at_any_r(self, gamma, exclude_zero, monkeypatch):
        # a midpoint and a radius per reported number, the two parts sharing
        # their radius; the Fraction code built 52 Fractions and 6 Reals a
        # call (55 and 8 without the zero term)
        few, many = (count_builds(monkeypatch, eval_expsum, 3, r, 1, gamma, exclude_zero) for r in (2, 14))
        assert few == many
        assert few[0] <= 10 and few[1] <= 5
        assert not {"_trig_sum", "_magnitude", "_product_interval"} & vars(expsum).keys()
        assert "from_interval" not in pathlib.Path(expsum.__file__).read_text()

    @pytest.mark.parametrize("gamma", [E(1, 3), Real.approx(Fraction(1, 3), Fraction(1, 10**30))],
                             ids=["exact", "enclosure"])
    def test_a_failed_identity_raises_the_parent_message(self, gamma, monkeypatch):
        # halved sines put the product near 2^-(r+1) of |sum| = 1 (every
        # ||2^d / 3|| is 1/3, and |cos(pi/3)| = 1/2); the float pass reads
        # every sine through math.sin
        want, _ = parent_check_messages(
            2, 3, 1, gamma, sin_interval=lambda lo, hi: tuple(s / 2 for s in parent_sin_pi_interval(lo, hi)))
        sin = math.sin
        monkeypatch.setattr(math, "sin", lambda x: sin(x) / 2)
        with pytest.raises(InvariantViolation) as info:
            eval_expsum(2, 3, 1, gamma)
        assert str(info.value) == want and want.startswith("product identity failed")

    @pytest.mark.parametrize("gamma", [E(1, 3), Real.approx(Fraction(1, 3), Fraction(1, 10**30))],
                             ids=["exact", "enclosure"])
    def test_a_violated_bound_raises_the_parent_message(self, gamma, monkeypatch):
        # pi read as 6 puts each bound factor at 1 - 6/9 = 1/3, below the
        # factor |cos(pi/3)| = 1/2 of |sum| = 1
        six = (Fraction(6), Fraction(6))
        monkeypatch.setattr(expsum, "_PI_FLOATS", (6.0, 6.0))
        _, want = parent_check_messages(2, 3, 1, gamma, pi=six)
        with pytest.raises(InvariantViolation) as info:
            eval_expsum(2, 3, 1, gamma)
        assert str(info.value) == want and want.startswith("product bound violated")

    def test_enclosure_gamma_widens_radius(self):
        gamma = Real.approx(Fraction(2, 7), Fraction(1, 10**25))
        rep = eval_expsum(3, 2, 1, gamma)
        exact = eval_expsum(3, 2, 1, E(2, 7))
        assert rep.value_re.rad > exact.value_re.rad
        assert abs(rep.magnitude.mid - exact.magnitude.mid) <= rep.magnitude.rad + exact.magnitude.rad


class TestDecayBound:
    def test_worked_instance(self):
        rep = decay_bound_check(2, 1, 1, 2, E(2, 5))
        assert abs(float(rep.magnitude.mid) - 0.6180339887) < 1e-6
        assert abs(float(rep.decay_bound.hi) - 16 * (1 - math.pi / 16) ** -0.5) < 1e-6
        assert rep.far_positions == (0, 1)
        assert rep.separation_beta == Fraction(1, 8)

    def test_single_term_instance(self):
        rep = decay_bound_check(2, 0, 1, 1, E(1, 3))
        assert abs(float(rep.magnitude.mid) - 1.0) < 1e-9
        assert abs(float(rep.decay_bound.hi) - 8 * (1 - math.pi / 16) ** -2.0) < 1e-6

    def test_bound_contains_the_300_bit_value_on_the_criterion_5_grid(self):
        for b in (3, 4, 5, 7, 10):
            for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
                for m in (1, 2, 3):
                    for k in (1, 2, 3, 5, 9, 16, 25, 36, 49, 64):
                        with mpmath.workprec(300):
                            value = mpf_to_fraction(mpmath.mpf(2) ** (r + 3) * (
                                1 - mpmath.pi / (4 * b * b)) ** ((r + 1 - 3 * mpmath.sqrt(k)) / m))
                        bound = _decay_bound(b, r, k, m)
                        assert bound.lo <= value <= bound.hi
                        assert bound.rad <= bound.mid / 10**20

    def test_far_positions_complement_the_close_shifts_on_the_criterion_5_grid(self):
        rng = random.Random(105)
        verified = 0
        for b in (3, 4, 5, 7, 10):
            for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
                for m in (1, 2, 3):
                    for _ in range(6):
                        D = b ** (r + 2) + rng.choice([-1, 1])
                        gamma = Fraction(rng.randint(1, D - 1), D)
                        beta = Fraction(1, 2 * b**m)
                        if not separation_check(b, r, beta, Real(gamma)).ok:
                            continue
                        k = rng.choice([1, 2, 3, 5, 9, 16, 25, 36, 49, 64])
                        rep = decay_bound_check(b, r, k, m, Real(gamma))
                        close = small_shift_count(b, r, k, Real(gamma), beta).positions
                        assert sorted(rep.far_positions + close) == list(range(r + 1))
                        assert rep.far_positions == tuple(
                            d for d in range(r + 1) if dist_exact(gamma * k * b**d) > beta)
                        verified += 1
        assert verified >= 100

    def test_a_violation_below_1e_9_raises(self, monkeypatch):
        # both sides are certified enclosures, so a bound 1e-10 below the
        # sum's lower end is a violation however small
        gamma = E(2, 5)
        lo = eval_expsum(2, 1, 1, gamma, exclude_zero=True).magnitude.lo
        tight = Real.from_interval(lo - Fraction(2, 10**10), lo - Fraction(1, 10**10))
        monkeypatch.setattr(expsum, "_decay_bound", lambda *args: tight)
        with pytest.raises(InvariantViolation):
            decay_bound_check(2, 1, 1, 2, gamma)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation) as err:
            decay_bound_check(2, 1, 1, 2, E(1, 3))
        assert err.value.counterexample == 3

    def test_bad_args(self):
        with pytest.raises(DomainError):
            decay_bound_check(2, 1, 0, 1, E(1, 3))
        with pytest.raises(DomainError):
            decay_bound_check(2, -1, 1, 1, E(1, 3))


if __name__ == "__main__":
    for case in recorded_sums():
        print(f"    {case!r},")
