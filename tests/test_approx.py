import random
from fractions import Fraction

import pytest

import radixapprox.digitsets as ds
from radixapprox._kernels import MOD_LIMIT
from radixapprox.approx import oracle_min, pigeonhole_witness, transfer_witness
from radixapprox.errors import DomainError, IndeterminateComparison
from radixapprox.exact import Real, dist_exact


class TestOracleMin:
    def test_gamma_zero(self):
        r = oracle_min(Real.exact(0), ds.SetSpec.zero_one(3), 100)
        assert (r.witness, r.distance.mid) == (1, 0)

    def test_first_seven_elements_base3(self):
        r = oracle_min(Real.exact(Fraction(1, 26)), ds.SetSpec.zero_one(3), ds.unrank(3, 7))
        assert (r.witness, r.distance.mid) == (1, Fraction(1, 26))

    def test_half_base2(self):
        r = oracle_min(Real.exact(Fraction(1, 2)), ds.SetSpec.zero_one(2), 7)
        assert (r.witness, r.distance.mid) == (2, 0)

    def test_base2_equals_unrestricted_minimum(self):
        rng = random.Random(2)
        for _ in range(20):
            q = rng.randint(2, 5000)
            gamma = Fraction(rng.randint(1, q - 1), q)
            N = rng.randint(1, 400)
            r = oracle_min(Real.exact(gamma), ds.SetSpec.zero_one(2), N)
            best = min(range(1, N + 1), key=lambda n: (dist_exact(gamma * n), n))
            assert r.witness == best
            assert r.distance.mid == dist_exact(gamma * best)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT, MOD_LIMIT + 1, (1 << 64) + 13])
    def test_moduli_around_the_int64_limit(self, q):
        rng = random.Random(q)
        for b in (2, 3, 10):
            gamma = Fraction(rng.randrange(1, q), q)
            N = rng.randint(1, 600)
            r = oracle_min(Real.exact(gamma), ds.SetSpec.zero_one(b), ds.unrank(b, N))
            best = min(range(1, N + 1), key=lambda i: (dist_exact(gamma * ds.unrank(b, i)), i))
            assert r.witness == ds.unrank(b, best)
            assert r.distance.mid == dist_exact(gamma * r.witness)

    def test_other_set_kinds(self):
        # only D_b is searched: a power-sum set with elements in [1, N] is
        # refused as well
        spec = ds.SetSpec.power_sums(3, 1, 3)
        assert list(ds.iter_spec_upto(spec, 50)) == [1, 3, 9, 27]
        for gamma in (Real.exact(Fraction(2, 7)), Real.approx(Fraction(2, 7), Fraction(1, 10**20))):
            with pytest.raises(DomainError, match="zero-one set only"):
                oracle_min(gamma, spec, 50)

    def test_empty_restriction(self):
        # power_sums(3, 2, 4) has no element in [1, 1], but any set other
        # than D_b is refused before that matters
        for gamma in (Real.exact(Fraction(1, 3)), Real.approx(Fraction(1, 3), Fraction(1, 10**20))):
            with pytest.raises(DomainError, match="zero-one set only"):
                oracle_min(gamma, ds.SetSpec.power_sums(3, 2, 4), 1)

    def test_smallest_witness_tie_break(self):
        # gamma = 1/2 in base 4: zero-one elements 4 and 16 both land on 0
        r = oracle_min(Real.exact(Fraction(1, 2)), ds.SetSpec.zero_one(4), 100)
        assert r.witness == 4 and r.distance.mid == 0

    def test_enclosure_gamma_certifiable(self):
        # distances over {1, 3, 4, 9} are 7/30, 9/30, 2/30, 3/30: well split
        gamma = Real.approx(Fraction(7, 30), Fraction(1, 10**30))
        r = oracle_min(gamma, ds.SetSpec.zero_one(3), 9)
        assert r.witness == 4 and r.mode == "approximate"
        assert abs(r.distance.mid - Fraction(2, 30)) < Fraction(1, 10**20)

    def test_enclosure_gamma_tied_argmin_raises(self):
        # distances at 1 and 3 tie exactly for gamma near 1/4 in base 2
        gamma = Real.approx(Fraction(1, 4), Fraction(1, 10**20))
        with pytest.raises(IndeterminateComparison):
            oracle_min(gamma, ds.SetSpec.zero_one(2), 3)


class TestPigeonhole:
    def test_direct_witness(self):
        r = pigeonhole_witness(Real.exact(Fraction(1, 5)), 2, 7)
        assert (r.witness, r.distance.mid, r.guarantee) == (1, Fraction(1, 5), Fraction(1, 3))

    def test_collision_difference(self):
        r = pigeonhole_witness(Real.exact(Fraction(1, 2)), 2, 7)
        assert (r.witness, r.distance.mid) == (2, Fraction(0))

    def test_gamma_zero(self):
        r = pigeonhole_witness(Real.exact(0), 7, 1000)
        assert (r.witness, r.distance.mid) == (1, 0)

    def test_guarantee_randomized(self):
        rng = random.Random(3)
        for _ in range(300):
            b = rng.choice([2, 3, 5, 10])
            N = rng.randint(1, 10**6)
            q = rng.randint(2, 10**6)
            gamma = Fraction(rng.randint(1, 3 * q), q)
            r = pigeonhole_witness(Real.exact(gamma), b, N)
            t = ds.repunit_cap(b, N)
            assert 1 <= r.witness <= N and ds.contains(b, r.witness)
            assert dist_exact(gamma * r.witness) == r.distance.mid <= Fraction(1, t + 1)

    def test_oracle_at_least_as_good(self):
        rng = random.Random(4)
        for _ in range(40):
            b = rng.choice([2, 3, 5])
            N = rng.randint(1, 3000)
            q = rng.randint(2, 10**4)
            gamma = Real.exact(Fraction(rng.randint(1, q - 1), q))
            assert (
                oracle_min(gamma, ds.SetSpec.zero_one(b), N).distance.mid
                <= pigeonhole_witness(gamma, b, N).distance.mid
            )

    def test_enclosure_gamma(self):
        gamma = Real.approx(Fraction(1, 5), Fraction(1, 10**25))
        r = pigeonhole_witness(gamma, 2, 7)
        assert r.witness == 1 and r.mode == "approximate"


class TestTransfer:
    def test_member_branch(self):
        n, d = transfer_witness(3, 4, Real.exact(Fraction(1, 10)))
        assert n == 4 and d.mid == (3 - 1) * Fraction(1, 10)

    def test_power_difference_branch(self):
        n, d = transfer_witness(3, 8, Real.exact(Fraction(1, 10)))
        assert n == 4 and d.mid == Fraction(1, 10)
        n, _ = transfer_witness(3, 24, Real.exact(Fraction(1, 10)))
        assert n == 12 and ds.contains(3, 12)

    def test_rejects_outsiders(self):
        with pytest.raises(DomainError):
            transfer_witness(3, 5, Real.exact(Fraction(1, 10)))
        with pytest.raises(DomainError):
            transfer_witness(10, 55, Real.exact(Fraction(1, 10)))

    def test_distance_bound_recomputed(self):
        # the transferred witness certifies (b-1) * the extended-set distance
        rng = random.Random(5)
        for _ in range(100):
            b = rng.choice([3, 4, 5])
            q = rng.randint(2, 10**5)
            gamma = Fraction(rng.randint(1, q - 1), q)
            gamma_star = gamma / (b - 1)
            d = rng.randint(1, 8)
            c = rng.randint(0, d - 1)
            y = b**d - b**c
            star_dist = dist_exact(gamma_star * y)
            n, bound = transfer_witness(b, y, Real.exact(star_dist))
            assert ds.contains(b, n) and 1 <= n <= y
            assert dist_exact(gamma * n) <= (b - 1) * star_dist
            assert bound.mid == star_dist
