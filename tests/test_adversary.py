import itertools
import random
from fractions import Fraction

import pytest

import radixapprox.digitsets as ds
from radixapprox.adversary import (
    adversarial_gamma,
    no_multiples_check,
    reduce_to_bounded,
    residue_reduce,
)
from radixapprox.approx import oracle_min
from radixapprox.errors import DomainError, ResourceLimit
from radixapprox.exact import Real, dist_exact


class TestCertificate:
    def test_base3_seven(self):
        c = adversarial_gamma(3, 7)
        assert (c.T, c.k, c.gamma_N) == (3, 3, Fraction(1, 26))
        assert c.min_distance == Fraction(1, 26) and c.min_witness_index == 1
        assert c.passed

    def test_base2_seven(self):
        c = adversarial_gamma(2, 7)
        assert (c.T, c.k, c.gamma_N) == (3, 4, Fraction(1, 15))
        assert c.min_distance == Fraction(1, 15)
        assert c.passed

    def test_single_element(self):
        c = adversarial_gamma(2, 1)
        assert (c.T, c.k, c.min_distance) == (1, 2, Fraction(1, 3))
        assert c.passed

    def test_grid_all_pass(self):
        for b in (2, 3, 5, 10):
            for N in (1, 2, 7, 100, 1024):
                c = adversarial_gamma(b, N)
                assert c.passed, (b, N)
                assert c.min_distance >= c.guaranteed_bound

    def test_min_matches_bruteforce_and_oracle(self):
        rng = random.Random(41)
        for _ in range(15):
            b = rng.choice([2, 3, 4, 5, 7])
            N = rng.randint(1, 400)
            c = adversarial_gamma(b, N)
            brute = min(
                (dist_exact(c.gamma_N * ds.unrank(b, i)), i) for i in range(1, N + 1)
            )
            assert (c.min_distance, c.min_witness_index) == brute
            o = oracle_min(Real.exact(c.gamma_N), ds.SetSpec.zero_one(b), ds.unrank(b, N))
            assert o.distance.mid == c.min_distance

    def test_big_base_modulus(self):
        # b**k - 1 is far past 2^57 here, so the scan runs on Python ints
        for b, N in ((10**6, 300), (10**9, 700)):
            c = adversarial_gamma(b, N)
            brute = min(
                (dist_exact(c.gamma_N * ds.unrank(b, i)), i) for i in range(1, N + 1)
            )
            assert (c.min_distance, c.min_witness_index) == brute

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            adversarial_gamma(2, 100, cap=50)

    def test_threads_do_not_change_results(self):
        a = adversarial_gamma(3, 1 << 17, threads=1)
        b = adversarial_gamma(3, 1 << 17, threads=4)
        assert (a.min_distance, a.min_witness_index) == (b.min_distance, b.min_witness_index)


class TestResidueReduce:
    def test_examples(self):
        assert residue_reduce(3, 2, (3, 0)) == (0, 1)
        assert residue_reduce(2, 2, (2, 1)) == (1, 0)
        assert residue_reduce(3, 2, (1, 1)) == (1, 1)

    def test_exhaustive_small(self):
        # conclusions are asserted inside; this drives every vector
        for b in (2, 3):
            for k in (1, 2, 3):
                for u in itertools.product(range(2 * b), repeat=k):
                    if sum(u):
                        v = residue_reduce(b, k, u)
                        assert all(0 <= x < b for x in v)

    def test_randomized_large(self):
        rng = random.Random(42)
        for _ in range(200):
            b = rng.randint(2, 9)
            k = rng.randint(1, 6)
            u = [rng.randint(0, 50) for _ in range(k)]
            if sum(u) == 0:
                u[0] = 1
            v = residue_reduce(b, k, u)
            assert 0 < sum(v) <= sum(u)

    def test_domain(self):
        with pytest.raises(DomainError):
            residue_reduce(3, 2, (0, 0))
        with pytest.raises(DomainError):
            residue_reduce(3, 2, (1,))


class TestReduceToBounded:
    def test_examples(self):
        r = reduce_to_bounded(3, 2, [0, 2])
        assert (r.source, r.residue_value, r.congruent_zero) == (10, 2, False)
        r = reduce_to_bounded(2, 3, [0, 1, 2])
        assert (r.source, r.residue_value, r.congruent_zero) == (7, 7, True)
        r = reduce_to_bounded(3, 2, [5])
        assert (r.source, r.residue_value) == (243, 3)

    def test_membership_randomized(self):
        rng = random.Random(43)
        for _ in range(200):
            b = rng.choice([2, 3, 5])
            k = rng.randint(1, 5)
            t = rng.randint(1, 4)
            exps = [rng.randint(0, 10) for _ in range(t)]
            rep = reduce_to_bounded(b, k, exps)
            values, _ = ds.digit_sum_bounded(b, k, t)
            assert rep.residue_value in values
            assert (rep.source - rep.residue_value) % (b**k - 1) == 0


class TestNoMultiples:
    def test_examples(self):
        assert no_multiples_check(3, 2, 2, 4).ok
        rep = no_multiples_check(2, 3, 3, 3)
        assert (rep.ok, rep.counterexample, rep.applicable) == (False, 7, False)
        assert no_multiples_check(2, 2, 1, 5).ok

    def test_applicable_regime_always_clean(self):
        for b in (2, 3, 5):
            for t in range(1, 5):
                for k in range(1, 7):
                    if k * (b - 1) > t:
                        assert no_multiples_check(b, k, t, 6).ok
