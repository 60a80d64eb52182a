import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radixapprox.digitsets as ds
from radixapprox.diffsets import (
    anchored_cap,
    assert_zero_sum_guarantee,
    max_difference_set,
    positive_differences,
    zero_sum_subset,
)
from radixapprox.errors import DomainError, ResourceLimit

small_sets = st.sets(st.integers(1, 24), min_size=1, max_size=7)


class TestPositiveDifferences:
    def test_examples(self):
        assert positive_differences([1, 3, 4]) == {1, 2, 3}
        assert positive_differences([5]) == set()
        assert positive_differences([0, 1, 4, 13]) == {1, 3, 4, 9, 12, 13}

    @given(small_sets, st.integers(-50, 50))
    def test_translation_invariance(self, A, c):
        assert positive_differences([a + c for a in A]) == positive_differences(A)


def brute_value(S, variant):
    # difference-cliques are hereditary, so grow r until none exists
    S = set(S)

    def any_clique(cands, r, forced):
        for combo in itertools.combinations(cands, r):
            full = forced + combo
            if all(y - x in S for i, x in enumerate(full) for y in full[i + 1 :]):
                return True
        return False

    if variant == "anchored":
        cands, forced = tuple(range(1, max(S) + 1)), (0,)
    else:
        cands, forced = tuple(sorted(S)), ()
    best = len(forced)
    while best - len(forced) < len(cands) and any_clique(cands, best - len(forced) + 1, forced):
        best += 1
    return best


class TestMaxDifferenceSet:
    def test_digit_set_instance(self):
        S = list(ds.iter_spec_upto(ds.SetSpec(3), 13))
        rep = max_difference_set(S, "anchored")
        assert rep.value == 4
        assert rep.witness == (0, 1, 4, 13)
        assert positive_differences(rep.witness) <= set(S)
        assert rep.value <= anchored_cap(3, 13) == 4

    def test_singleton(self):
        rep = max_difference_set([1], "anchored")
        assert rep.value == 2 and rep.witness == (0, 1)

    def test_within_variant(self):
        S = list(ds.iter_spec_upto(ds.SetSpec(3), 13))
        rep = max_difference_set(S, "within")
        assert rep.value == 3
        assert set(rep.witness) <= set(S)
        assert positive_differences(rep.witness) <= set(S)

    @given(small_sets)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, S):
        for variant in ("anchored", "within"):
            rep = max_difference_set(sorted(S), variant)
            assert rep.value == brute_value(S, variant)
            wit = rep.witness
            assert positive_differences(wit) <= set(S)
            if variant == "within":
                assert set(wit) <= set(S)

    @given(small_sets)
    @settings(max_examples=40, deadline=None)
    def test_within_at_most_anchored(self, S):
        S = sorted(S)
        assert (
            max_difference_set(S, "within").value
            <= max_difference_set(S, "anchored").value
        )

    def test_base_two_clique_deeper_than_the_recursion_limit(self):
        # every positive integer has zero-one digits in base 2, so the whole
        # of [0, N] is the clique and the search goes N levels deep
        N = sys.getrecursionlimit() + 200
        S = list(ds.iter_spec_upto(ds.SetSpec(2), N))
        rep = max_difference_set(S, "anchored")
        assert rep.value == N + 1 and rep.witness == tuple(range(N + 1))

    def test_base_two_clique_of_2100_is_found_in_a_node_per_element(self):
        # the first clique the search meets is the witness: no rebuild, so
        # the search stays far inside the default node budget
        S = list(ds.iter_spec_upto(ds.SetSpec(2), 2100))
        rep = max_difference_set(S, "anchored")
        assert rep.value == 2101 and rep.witness == tuple(range(2101))
        assert rep.nodes == 2101

    def test_node_budget(self):
        S = list(range(1, 60))
        with pytest.raises(ResourceLimit):
            max_difference_set(S, "anchored", node_budget=5)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            max_difference_set([], "anchored")
        with pytest.raises(DomainError):
            max_difference_set([0, 3], "anchored")
        with pytest.raises(DomainError):
            max_difference_set([1, 2], "M3")
        with pytest.raises(DomainError):
            max_difference_set([1, 2], "M1")

    def test_cap_excludes_base_two(self):
        with pytest.raises(DomainError):
            anchored_cap(2, 100)


def brute_zero_sum(k, residues):
    best = None
    elems = sorted(residues)
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if sum(combo) % k == 0:
                cand = (r, combo)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            break
    return None if best is None else best[1]


class TestZeroSum:
    def test_examples(self):
        assert zero_sum_subset(6, [1, 2, 3]) == (1, 2, 3)
        assert zero_sum_subset(7, [1, 2, 3]) is None
        assert zero_sum_subset(4, [1, 3]) == (1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            zero_sum_subset(5, [1, 6])

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(120):
            k = rng.randint(1, 30)
            n = rng.randint(1, min(k, 9))
            residues = rng.sample(range(k), n)
            residues = [x + k * rng.randint(0, 3) for x in residues]
            assert zero_sum_subset(k, residues) == brute_zero_sum(k, residues)

    def test_guarantee_threshold(self):
        rng = random.Random(12)
        for _ in range(60):
            k = rng.randint(1, 400)
            need = 1
            while need * need < 9 * k:
                need += 1
            if need > k:
                continue
            residues = rng.sample(range(k), need)
            out = assert_zero_sum_guarantee(k, residues)
            assert out is not None and sum(out) % k == 0
