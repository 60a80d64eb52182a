import inspect
import itertools
import random
import sys
from fractions import Fraction

import mpmath
import pytest

import radixapprox.digitsets as ds
from radixapprox import _kernels, approx
from radixapprox.adversary import (
    _power_decay_bound,
    adversarial_gamma,
    no_multiples_check,
    reduce_to_bounded,
    residue_reduce,
)
from radixapprox.approx import oracle_min
from radixapprox.errors import DomainError
from radixapprox.exact import Real, dist_exact
from iv_reference import mpf_to_fraction


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
        # the certificate against the reference scan, and against brute
        # force where N <= 2^12
        grid = [(b, N) for b in range(2, 11)
                for N in (1, 2, 3, 7, 100, 2**10, 2**14, 2**20)]
        for b, N in grid:
            c = adversarial_gamma(b, N)
            o = oracle_min(Real.exact(c.gamma_N), b, ds.unrank(b, N))
            assert o.distance.rad == 0
            assert (o.distance.mid, ds.rank(b, o.witness)) == (
                c.min_distance, c.min_witness_index), (b, N)
            if N <= 2**12:
                brute = min(
                    (dist_exact(c.gamma_N * ds.unrank(b, i)), i) for i in range(1, N + 1)
                )
                assert (c.min_distance, c.min_witness_index) == brute, (b, N)

    def test_big_base_modulus(self):
        # b**k - 1 is far past 2^57 here
        for b, N in ((10**6, 300), (10**6, 700), (10**9, 300), (10**9, 700)):
            c = adversarial_gamma(b, N)
            brute = min(
                (dist_exact(c.gamma_N * ds.unrank(b, i)), i) for i in range(1, N + 1)
            )
            assert (c.min_distance, c.min_witness_index) == brute, (b, N)
            o = oracle_min(Real.exact(c.gamma_N), b, ds.unrank(b, N))
            assert o.distance.rad == 0
            assert (o.distance.mid, ds.rank(b, o.witness)) == (
                c.min_distance, c.min_witness_index), (b, N)

    def test_calls_no_scan(self, monkeypatch):
        banned = {id(approx.oracle_min): "approx.oracle_min"}
        banned.update({id(f): f"_kernels.{name}" for name, f in vars(_kernels).items()
                       if inspect.isfunction(f) and f.__module__ == _kernels.__name__})

        def refuse(label):
            def call(*args, **kwargs):
                raise AssertionError(f"adversarial_gamma called {label}")
            return call

        for name, module in list(sys.modules.items()):
            if name == "radixapprox" or name.startswith("radixapprox."):
                for attr, value in list(vars(module).items()):
                    if id(value) in banned:
                        monkeypatch.setattr(module, attr, refuse(banned[id(value)]))
        for b in (2, 3, 10, 10**9):
            for N in (1, 7, 2**14, 2**24, 10**100):
                c = adversarial_gamma(b, N)
                assert (c.min_distance, c.min_witness_index) == (Fraction(1, b**c.k - 1), 1)

    def test_residue_is_the_digit_count_number(self):
        # the proof's key step: the residue of a zero-one n <= b_N mod
        # b**k - 1 is the base-b number of its one-counts per position mod k
        rng = random.Random(44)
        for _ in range(2000):
            b = rng.choice([2, 3, 4, 5, 7, 10, 10**6])
            N = rng.randint(1, 2 ** rng.randint(1, 80))
            T = N.bit_length()
            k = -(-T // (b - 1)) + 1
            i = rng.randint(1, N)
            counts = [0] * k
            for d in range(T):
                counts[d % k] += i >> d & 1
            residue = sum(c * b**j for j, c in enumerate(counts))
            assert ds.unrank(b, i) % (b**k - 1) == residue
            assert max(counts) <= b - 1 and 1 <= residue <= b**k - 2

    def test_takes_no_cap_and_answers_any_N(self):
        assert list(inspect.signature(adversarial_gamma).parameters) == ["b", "N"]
        for b in (2, 3, 10):
            for N in (2**40, 10**100):
                c = adversarial_gamma(b, N)
                assert c.k == -(-N.bit_length() // (b - 1)) + 1
                assert (c.min_distance, c.min_witness_index) == (Fraction(1, b**c.k - 1), 1)
                assert c.passed

    @pytest.mark.parametrize("b", range(2, 11))
    def test_power_decay_bound_contains_the_300_bit_value(self, b):
        for N in (1, 2, 3, 7, 100, 2**10, 10**6, 2**24, 2**25):
            with mpmath.workprec(300):
                value = mpf_to_fraction(
                    mpmath.mpf(b) ** -4 * mpmath.mpf(N) ** (-mpmath.log(b, 2) / (b - 1)))
            bound = _power_decay_bound(b, N)
            assert bound.lo <= value <= bound.hi
            assert bound.rad <= value / 10**20


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
