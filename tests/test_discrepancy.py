import random
from fractions import Fraction

import mpmath
import pytest

from radixapprox.discrepancy import (
    _exp_sum_magnitude,
    deviation_max_py,
    discrepancy_L,
    erdos_turan_check,
    fractional_orbit,
)
from radixapprox.errors import DomainError
from radixapprox.exact import Real

E = lambda *a: Real.exact(Fraction(*a))


def brute_L(fracs):
    """Supremum over *all* intervals, approximated by nudging every
    candidate endpoint; exact agreement with the family scan is required."""
    T = len(fracs)
    eps = Fraction(1, 10**9)
    cands = {Fraction(0), Fraction(1)}
    for v in fracs:
        cands.update((v - eps, v, v + eps))
    cl = sorted(c for c in cands if 0 <= c <= 1)
    best = Fraction(0)
    for i, a in enumerate(cl):
        for b in cl[i:]:
            for lc, rc in ((True, True), (True, False), (False, True), (False, False)):
                if b == 1 and rc:
                    continue
                if a == b and not (lc and rc):
                    continue
                cnt = sum(
                    1
                    for f in fracs
                    if (a <= f if lc else a < f) and (f <= b if rc else f < b)
                )
                best = max(best, abs(cnt - T * (b - a)))
    return best


class TestDiscrepancy:
    def test_single_point(self):
        rep = discrepancy_L([E(1, 2)])
        assert rep.L_value == 1 and rep.L_radius == 0
        assert rep.witness == (Fraction(1, 2), Fraction(1, 2), True, True)

    def test_uniform_grid(self):
        rep = discrepancy_L([E(0), E(1, 4), E(1, 2), E(3, 4)])
        assert rep.L_value == 1

    def test_two_points(self):
        rep = discrepancy_L([E(0), E(1, 2)])
        assert rep.L_value == 1

    def test_witness_attains_value(self):
        rng = random.Random(31)
        for _ in range(60):
            T = rng.randint(1, 12)
            fracs = [Fraction(rng.randint(0, 29), 30) for _ in range(T)]
            rep = discrepancy_L([Real.exact(f) for f in fracs])
            left, right, lc, rc = rep.witness
            cnt = sum(
                1
                for f in fracs
                if (left <= f if lc else left < f) and (f <= right if rc else f < right)
            )
            assert abs(cnt - T * (right - left)) == rep.L_value

    def test_matches_interval_supremum(self):
        rng = random.Random(32)
        for _ in range(40):
            T = rng.randint(1, 9)
            fracs = [Fraction(rng.randint(0, 17), 18) for _ in range(T)]
            rep = discrepancy_L([Real.exact(f) for f in fracs])
            assert rep.L_value == brute_L(fracs)

    def test_refining_candidates_never_increases(self):
        rng = random.Random(33)
        for _ in range(10):
            T = rng.randint(2, 10)
            q = 120
            nums = [rng.randint(0, q - 1) for _ in range(T)]
            base = deviation_max_py(nums, q, T)[0]
            # refine by scaling the grid 16x and adding random extra endpoints:
            # counts at non-data endpoints cannot beat data endpoints
            scaled = [n * 16 for n in nums]
            refined = deviation_max_py(scaled, q * 16, T)[0]
            assert Fraction(refined, q * 16) == Fraction(base, q)

    def test_permutation_and_shift_invariance(self):
        rng = random.Random(34)
        fracs = [Fraction(rng.randint(0, 100), 101) for _ in range(8)]
        rep = discrepancy_L([Real.exact(f) for f in fracs])
        shuffled = list(fracs)
        rng.shuffle(shuffled)
        rep2 = discrepancy_L([Real.exact(f + rng.randint(-3, 3)) for f in shuffled])
        assert rep.L_value == rep2.L_value

    def test_bounds(self):
        rng = random.Random(35)
        for _ in range(30):
            T = rng.randint(1, 20)
            pts = [E(rng.randint(0, 50), 51) for _ in range(T)]
            rep = discrepancy_L(pts)
            assert 1 <= rep.L_value <= T

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            discrepancy_L([])

    def test_heterogeneous_denominators_stay_exact(self):
        pts = [E(1, 10**6 + 3), E(1, 7), E(3, 13), E(1, 2)]
        rep = discrepancy_L(pts)
        assert rep.L_radius == 0
        assert rep.L_value == brute_L([p.mid for p in pts])

    def test_approximate_points_carry_radius(self):
        pts = [Real.approx(Fraction(i, 7) % 1, Fraction(1, 10**20)) for i in range(1, 6)]
        rep = discrepancy_L(pts)
        assert rep.L_radius > 0
        exact = discrepancy_L([E(i % 7, 7) for i in range(1, 6)])
        assert abs(rep.L_value - exact.L_value) <= rep.L_radius + exact.L_radius


class TestErdosTuran:
    def test_single_point(self):
        rep = erdos_turan_check([E(1, 2)], 1)
        assert rep.L_value == 1
        assert rep.et_rhs.lo > 3 and rep.et_rhs.hi < Fraction(32, 10)
        assert rep.slack.lo > 2

    def test_full_period_orbit(self):
        rep = erdos_turan_check(fractional_orbit(E(1, 7), 7), 6)
        assert rep.L_value == 1
        # all inner sums vanish, so the rhs collapses to T/(G+1) = 1
        assert abs(float(rep.et_rhs.mid) - 1.0) < 1e-9

    def test_degenerate_sequence(self):
        rep = erdos_turan_check([Real.exact(0)] * 10, 3)
        assert rep.L_value == 10
        assert rep.et_rhs.lo > 50 and rep.et_rhs.hi < 51

    def test_holds_on_random_orbits(self):
        rng = random.Random(36)
        for _ in range(25):
            q = rng.randint(2, 10**5)
            gamma = E(rng.randint(1, q - 1), q)
            T = rng.randint(1, 300)
            pts = fractional_orbit(gamma, T)
            for G in (1, 7):
                rep = erdos_turan_check(pts, G)
                assert rep.L_value - rep.L_radius <= rep.et_rhs.hi

    def test_irrational_orbit(self):
        gamma = Real.parse("sqrt2")
        rep = erdos_turan_check(fractional_orbit(gamma, 200), 5)
        assert rep.L_radius > 0
        assert rep.L_value - rep.L_radius <= rep.et_rhs.hi
        # the golden-standard equidistributed sequence keeps L small
        assert rep.L_value < 20

    # g * q = 2^62 - 1, 2^62, 2^62 + 1, and past 2^67
    @pytest.mark.parametrize("g, q", [(3, 1537228672809129301), (4, 1 << 60),
                                      (5, 922337203685477581), (50, (1 << 62) - 57)])
    def test_exp_sum_magnitude_at_the_product_limit(self, g, q):
        rng = random.Random(g)
        nums = [rng.randrange(q) for _ in range(300)] + [0, q - 1]
        mag = _exp_sum_magnitude(nums, q, g, Fraction(0))
        with mpmath.workprec(200):
            exact = abs(mpmath.fsum(mpmath.expjpi(2 * mpmath.mpf(g * n % q) / q) for n in nums))
        assert mpmath.mpf(mag.lo.numerator) / mag.lo.denominator <= exact
        assert exact <= mpmath.mpf(mag.hi.numerator) / mag.hi.denominator

    def test_bad_G(self):
        with pytest.raises(DomainError):
            erdos_turan_check([E(1, 2)], 0)
