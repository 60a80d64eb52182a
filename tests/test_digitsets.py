import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radixapprox.digitsets as ds
from radixapprox.errors import DomainError, ResourceLimit

bases = st.integers(2, 16)


def brute_members(b, upto):
    out = []
    for n in range(1, upto + 1):
        m, ok = n, True
        while m:
            if m % b > 1:
                ok = False
                break
            m //= b
        if ok:
            out.append(n)
    return out


class TestMembership:
    def test_examples(self):
        assert ds.contains(3, 10)
        assert not ds.contains(3, 5)
        assert ds.contains(2, 1000003)

    def test_domain(self):
        with pytest.raises(DomainError):
            ds.contains(3, 0)
        with pytest.raises(DomainError):
            ds.contains(1, 5)


class TestRanking:
    def test_examples(self):
        assert ds.unrank(3, 5) == 10
        assert ds.unrank(7, 1) == 1
        assert ds.unrank(2, 5) == 5
        assert ds.rank(3, 10) == 5
        assert ds.rank(5, 1) == 1
        assert ds.rank(2, 7) == 7

    @given(bases, st.integers(1, 10**12))
    def test_roundtrip(self, b, i):
        assert ds.rank(b, ds.unrank(b, i)) == i

    @given(bases, st.integers(1, 10**9))
    def test_strictly_increasing(self, b, i):
        assert ds.unrank(b, i) < ds.unrank(b, i + 1)

    def test_matches_brute_force(self):
        for b in (3, 4, 10):
            members = brute_members(b, 2000)
            assert [ds.unrank(b, i + 1) for i in range(len(members))] == members
            assert ds.count_upto(b, 2000) == len(members)


class TestRepunits:
    @pytest.mark.parametrize("b, N, t", [(2, 7, 2), (3, 4, 1), (5, 1, 0), (2, 8, 2), (3, 13, 2)])
    def test_cap_examples(self, b, N, t):
        assert ds.repunit_cap(b, N) == t

    @given(bases, st.integers(1, 10**9))
    def test_cap_characterization(self, b, N):
        t = ds.repunit_cap(b, N)
        assert sum(b**j for j in range(t + 1)) <= N
        assert sum(b**j for j in range(t + 2)) > N

    @given(bases, st.integers(1, 10**9))
    def test_repunits_inside_set(self, b, N):
        reps = ds.repunits(b, N)
        assert len(reps) == ds.repunit_cap(b, N) + 1
        assert all(1 <= u <= N and ds.contains(b, u) for u in reps)
        assert reps == sorted(reps)


def gap_by_digits(b, y):
    """y's base-b digits are a run of b-1s above trailing zeros."""
    while y % b == 0:
        y //= b
    while y % b == b - 1:
        y //= b
    return y == 0


class TestEnumeration:
    def test_trunc_examples(self):
        assert ds.power_gaps(3, 1) == [2]
        assert ds.power_gaps(3, 2) == [2, 6, 8]
        assert ds.power_gaps(3, 0) == []
        assert ds.power_sums(3, 1, 2) == [1, 3, 9]

    @given(st.integers(2, 6), st.integers(0, 5))
    def test_power_gaps_match_digit_description(self, b, r):
        assert ds.power_gaps(b, r) == [y for y in range(1, b**r) if gap_by_digits(b, y)]

    @given(bases, st.integers(0, 10))
    def test_trunc_cardinality(self, b, r):
        # the nonzero zero-one integers with at most r+1 digits: those up to
        # the repunit (b**(r+1) - 1) / (b - 1)
        top = (b ** (r + 1) - 1) // (b - 1)
        vals = list(ds.iter_spec_upto(ds.SetSpec(b), top))
        assert len(vals) == 2 ** (r + 1) - 1 == ds.count_upto(b, top)
        assert vals == sorted(set(vals))

    @given(bases, st.integers(0, 10))
    def test_power_gaps_cardinality(self, b, r):
        gaps = ds.power_gaps(b, r)
        assert len(gaps) == r * (r + 1) // 2
        assert gaps == sorted(set(gaps))

    @given(bases, st.integers(0, 9))
    def test_trunc_is_prefix_of_the_set(self, b, r):
        # the first n elements are exactly those <= unrank(b, n)
        n = 2 ** (r + 1) - 1
        vals = list(ds.iter_spec_upto(ds.SetSpec(b), ds.unrank(b, n)))
        assert vals == [ds.unrank(b, i) for i in range(1, n + 1)]

    def test_ext_stream_matches_brute(self):
        # the extended truncated set of the separation check, D_b and the
        # power gaps merged, against a digit-by-digit scan up to 3^6
        b = 3
        upto = 3**6
        expect = sorted(set(brute_members(b, upto)) | {y for y in range(1, upto + 1) if gap_by_digits(b, y)})
        trunc = ds.iter_spec_upto(ds.SetSpec(b), upto)
        got = [v for v in heapq.merge(trunc, ds.power_gaps(b, 6)) if v <= upto]
        assert got == expect

    def test_zero_one_tag(self):
        assert ds.SetSpec(3).to_dict() == {"kind": "zero_one", "base": 3}
        with pytest.raises(DomainError):
            ds.SetSpec(1)

    def test_power_sum_truncation(self):
        vals = ds.power_sums(2, 3, 3)
        brute = sorted(
            {
                sum(c)
                for c in itertools.combinations_with_replacement([1, 2, 4, 8], 3)
            }
        )
        assert vals == brute

    def test_subset_relation_via_power_sums(self):
        # the first 2^T - 1 elements decompose into sums of at most T powers
        for b, T in ((3, 3), (5, 3), (2, 4)):
            top = ds.unrank(b, 2**T - 1)
            e_max = T * (ds.ilog(b, top) + (0 if b ** ds.ilog(b, top) == top else 1))
            union = set()
            for t in range(1, T + 1):
                union.update(ds.power_sums(b, t, e_max))
            for i in range(1, 2**T):
                assert ds.unrank(b, i) in union

    def test_cap_enforced(self):
        # 377,348,994 multisets: refused before any of them is visited
        with pytest.raises(ResourceLimit, match="would visit 377348994 multisets"):
            ds.power_sums(2, 8, 40, cap=10)

    def test_power_sums_domain(self):
        with pytest.raises(DomainError, match="t >= 1"):
            ds.power_sums(2, 0, 3)
        with pytest.raises(DomainError, match="e_max >= 0"):
            ds.power_sums(2, 1, -1)
        with pytest.raises(DomainError, match="base"):
            ds.power_sums(1, 1, 3)

    def test_iter_upto_examples(self):
        assert list(ds.iter_spec_upto(ds.SetSpec(2), 5)) == [1, 2, 3, 4, 5]
        assert list(ds.iter_spec_upto(ds.SetSpec(3), 9)) == [1, 3, 4, 9]

    def test_iter_upto_excludes_zero(self):
        spec = ds.SetSpec(2)
        assert list(ds.iter_spec_upto(spec, 0)) == []
        assert min(ds.iter_spec_upto(spec, 5)) == 1

    def test_upto_cap_counts_the_restricted_elements(self):
        # D_3 restricted to [1, 9] has 4 elements; the 5th, 10, is past N
        spec = ds.SetSpec(3)
        assert list(ds.iter_spec_upto(spec, 9, cap=4)) == [1, 3, 4, 9]
        with pytest.raises(ResourceLimit):
            list(ds.iter_spec_upto(spec, 9, cap=3))


class TestDigitSumBounded:
    def test_examples(self):
        assert ds.digit_sum_bounded(3, 2, 2) == ({1, 2, 3, 4, 6}, 6)
        assert ds.digit_sum_bounded(2, 1, 1) == ({1}, 1)
        values, h = ds.digit_sum_bounded(3, 2, 1)
        assert values == {1, 3} and h == 3  # the small-t case: t * b^(k-1)

    @given(st.integers(2, 6), st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=60)
    def test_formula_matches_enumeration(self, b, k, t):
        values, h = ds.digit_sum_bounded(b, k, t)
        assert h == max(values) == ds.digit_sum_max_formula(b, k, t)

    @given(st.integers(2, 6), st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=60)
    def test_stays_below_modulus_when_applicable(self, b, k, t):
        values, h = ds.digit_sum_bounded(b, k, t)
        if k * (b - 1) > t:
            assert h <= b**k - 2
        assert min(values) >= 1
