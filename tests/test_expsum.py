import math
import random
from fractions import Fraction

import mpmath
import pytest

from radixapprox._kernels import MOD_LIMIT
from radixapprox.digitsets import power_gaps, unrank
from radixapprox.errors import DomainError, HypothesisViolation, IndeterminateComparison
from radixapprox.exact import Real, dist_exact
from radixapprox.expsum import (
    _direct_sum_exact,
    _sum_radius,
    classify_G,
    decay_bound_check,
    eval_expsum,
    separation_check,
    small_shift_count,
)

E = lambda *a: Real.exact(Fraction(*a))


def _mpf(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


class TestClassify:
    def test_examples(self):
        assert classify_G(2, E(1, 2)).t == 1
        assert classify_G(2, E(1, 5)).t == 2
        assert classify_G(3, E(3)).t is None

    def test_class_boundaries_inclusive_above(self):
        # the top endpoint 1/(2 b^(t-1)) belongs to class t
        assert classify_G(3, E(1, 2)).t == 1
        assert classify_G(3, E(1, 6)).t == 2
        assert classify_G(3, E(1, 18)).t == 3

    def test_step_down_property(self):
        rng = random.Random(21)
        for _ in range(500):
            b = rng.choice([2, 3, 5])
            q = rng.randint(4 * b, 10**6)
            a = rng.randint(1, q // (2 * b))
            y = Fraction(a, q) + rng.randint(0, 5)
            t = classify_G(b, Real.exact(y)).t
            if t is None or t < 2:
                continue
            assert classify_G(b, Real.exact(b * y)).t == t - 1

    def test_enclosure_modes(self):
        assert classify_G(2, Real.approx(Fraction(1, 5), Fraction(1, 10**20))).t == 2
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(1, 4), Fraction(1, 10**20)))
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(0), Fraction(1, 10**20)))


def extended_trunc(b, r):
    """Nonzero elements of the truncated zero-one set and the power gaps."""
    return sorted({unrank(b, i) for i in range(1, 2 ** (r + 1))} | set(power_gaps(b, r)))


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


class TestSmallShifts:
    def test_examples(self):
        assert small_shift_count(2, 1, 1, E(1, 5), Fraction(1, 10)).g == 0
        rep = small_shift_count(3, 2, 1, E(0), Fraction(1, 10))
        assert rep.g == 3 and rep.positions == (0, 1, 2)
        # distances 1/27, 1/9, 1/3: only the first is <= 1/10
        rep = small_shift_count(3, 2, 1, E(1, 27), Fraction(1, 10))
        assert rep.g == 1 and rep.positions == (0,)

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
            rep = small_shift_count(b, r, k, gamma, beta, separation_ok=True)
            assert rep.g**2 < 9 * k
            verified += 1
        assert verified > 20


class TestEvalExpsum:
    def test_single_pair_cancels(self):
        rep = eval_expsum(2, 0, 1, E(1, 2))
        assert rep.magnitude.hi < Fraction(1, 10**12)
        assert rep.product_magnitude.mid == 0

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
        re, im, n = _direct_sum_exact(2, 11, 1, Fraction(1, q))
        with mpmath.workprec(200):
            exact_re = mpmath.fsum(mpmath.cos(2 * mpmath.pi * v / q) for v in range(n))
            exact_im = mpmath.fsum(mpmath.sin(2 * mpmath.pi * v / q) for v in range(n))
        assert re.rad == im.rad == _sum_radius(n)
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT + 1])
    def test_sum_radius_covers_spread_angles(self, q):
        b, r, k, gamma = 3, 10, 7, Fraction(q // 3 + 1, q)
        re, im, n = _direct_sum_exact(b, r, k, gamma)
        with mpmath.workprec(200):
            angles = [2 * mpmath.pi * ((k * gamma.numerator * x) % q) / q
                      for x in [0] + [unrank(b, i) for i in range(1, n)]]
            exact_re = mpmath.fsum(mpmath.cos(t) for t in angles)
            exact_im = mpmath.fsum(mpmath.sin(t) for t in angles)
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

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

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation) as err:
            decay_bound_check(2, 1, 1, 2, E(1, 3))
        assert err.value.counterexample == 3

    def test_bad_args(self):
        with pytest.raises(DomainError):
            decay_bound_check(2, 1, 0, 1, E(1, 3))
        with pytest.raises(DomainError):
            decay_bound_check(2, -1, 1, 1, E(1, 3))
