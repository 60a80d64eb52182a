import random
from collections import Counter
from fractions import Fraction

import pytest

import radixapprox.digitsets as ds
from radixapprox import exact
from radixapprox._kernels import MOD_LIMIT
from radixapprox._kernels import digit_scan_min
from radixapprox.approx import (
    ApproxResult,
    _first_collision,
    oracle_min,
    pigeonhole_witness,
    transfer_witness,
)
from radixapprox.errors import DomainError, IndeterminateComparison, InvariantViolation
from radixapprox.exact import Real, dist_exact, dist_to_nearest_int, frac
from test_exact import gamma_near
from test_expsum import count_builds


def oracle_two_branch(gamma, b, N, cap=ds.CAP_DEFAULT):
    """oracle_min as written before both kinds of gamma shared one certify
    step: the kernel's minimum for an exact gamma, products of Reals for an
    enclosure."""
    spec = ds.SetSpec(b)
    if gamma.is_exact:
        q = gamma.mid.denominator
        p = gamma.mid.numerator % q
        count = ds.capped_count(b, N, cap)
        pow_mod = [(p * pow(b, d, q)) % q for d in range(count.bit_length())]
        num, hits = digit_scan_min(pow_mod, count, q)
        idx = next(hits)
        return ApproxResult(ds.unrank(b, idx), Real(Fraction(num, q)), spec, None, "exact")
    elems = list(ds.iter_spec_upto(b, N, cap=cap))
    dists = [dist_to_nearest_int(gamma * s) for s in elems]
    w_i = min(range(len(elems)), key=lambda i: (dists[i].hi, elems[i]))
    for i, d in enumerate(dists):
        if i != w_i and d.lo < dists[w_i].hi:
            raise IndeterminateComparison(
                f"cannot certify the minimizer: candidates {elems[w_i]} and "
                f"{elems[i]} have overlapping distance enclosures"
            )
    return ApproxResult(elems[w_i], dists[w_i], spec, None, "approximate")


def first_collision_pairwise(reps, bins, b, N):
    """The pair search as an O(t^2) scan of every pair i < j in order."""
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if bins[i] == bins[j]:
                w = reps[j] - reps[i]
                if not (1 <= w <= N and ds.contains(b, w)):
                    raise InvariantViolation(f"pigeonhole difference {w} left the zero-one set")
                return w
    raise InvariantViolation(f"no pigeonhole collision found at b={b}, N={N}")


def pigeonhole_two_branch(gamma, b, N):
    """pigeonhole_witness as written before both kinds of gamma shared one
    path: Fraction residues for an exact gamma; for an enclosure, frac of
    every repunit product before the direct-witness scan."""
    t = ds.repunit_cap(b, N)
    guarantee = Fraction(1, t + 1)
    reps = ds.repunits(b, N)
    tag = ds.SetSpec(b)
    if gamma.is_exact:
        q = gamma.mid.denominator
        p = gamma.mid.numerator % q
        fracs = [Fraction((p * u) % q, q) for u in reps]
        for u, f in zip(reps, fracs):
            if min(f, 1 - f) <= guarantee:
                return ApproxResult(u, Real(min(f, 1 - f)), tag, guarantee, "exact")
        bins = [(f.numerator * (t + 1)) // f.denominator for f in fracs]
        w = first_collision_pairwise(reps, bins, b, N)
        return ApproxResult(w, Real(dist_exact(gamma.mid * w)), tag, guarantee, "exact")
    fres = [frac(gamma * u) for u in reps]
    for u in reps:
        d = dist_to_nearest_int(gamma * u)
        if d <= Real(guarantee):
            return ApproxResult(u, d, tag, guarantee, "approximate")
    bins = []
    for f in fres:
        lo_bin = (f.lo.numerator * (t + 1)) // f.lo.denominator
        hi_bin = (f.hi.numerator * (t + 1)) // f.hi.denominator
        if lo_bin != hi_bin:
            raise IndeterminateComparison(f"bin membership of {f!r} straddles a bin boundary")
        bins.append(lo_bin)
    w = first_collision_pairwise(reps, bins, b, N)
    return ApproxResult(w, dist_to_nearest_int(gamma * w), tag, guarantee, "approximate")


def _outcome(fn, *args):
    """(witness, (mid, rad), guarantee, mode), or the type and message of
    the raise."""
    try:
        r = fn(*args)
    except (IndeterminateComparison, InvariantViolation) as exc:
        return type(exc), str(exc)
    return r.witness, (r.distance.mid, r.distance.rad), r.guarantee, r.mode


def _pigeonhole_against_two_branch(gamma, b, N) -> tuple[str, tuple]:
    """Check pigeonhole_witness against pigeonhole_two_branch; return its
    outcome and the name of the case: "same", "raised" (the same raise), or,
    where the reference's frac of some repunit product raised before its
    direct scan, "direct" (a repunit within the guarantee) or "undecided"
    (the direct scan cannot decide the comparison with the guarantee)."""
    want = _outcome(pigeonhole_two_branch, gamma, b, N)
    got = _outcome(pigeonhole_witness, gamma, b, N)
    if want[0] is IndeterminateComparison and "integer boundary" in want[1]:
        guarantee = Fraction(1, ds.repunit_cap(b, N) + 1)
        if got[0] is IndeterminateComparison:
            assert got[1].endswith(f"<= {Real(guarantee)!r} straddles the error radius")
            return "undecided", got
        witness, (mid, rad), _, _ = got
        assert witness in ds.repunits(b, N) and mid + rad <= guarantee
        return "direct", got
    assert got == want
    return "raised" if isinstance(want[0], type) else "same", got


def _random_gamma(rng, kind):
    q = rng.choice([rng.randint(2, 10**4), 1 << rng.randint(1, 64), rng.randint(2, 10**20)])
    mid = Fraction(rng.randint(-3 * q, 3 * q), q)
    if kind == "exact":
        return Real(mid)
    return Real(mid, Fraction(1, 1 << rng.randint(8, 100)))


class TestOracleMin:
    def test_gamma_zero(self):
        r = oracle_min(Real.exact(0), 3, 100)
        assert (r.witness, r.distance.mid) == (1, 0)

    def test_first_seven_elements_base3(self):
        r = oracle_min(Real.exact(Fraction(1, 26)), 3, ds.unrank(3, 7))
        assert (r.witness, r.distance.mid) == (1, Fraction(1, 26))

    def test_half_base2(self):
        r = oracle_min(Real.exact(Fraction(1, 2)), 2, 7)
        assert (r.witness, r.distance.mid) == (2, 0)

    def test_base2_equals_unrestricted_minimum(self):
        rng = random.Random(2)
        for _ in range(20):
            q = rng.randint(2, 5000)
            gamma = Fraction(rng.randint(1, q - 1), q)
            N = rng.randint(1, 400)
            r = oracle_min(Real.exact(gamma), 2, N)
            best = min(range(1, N + 1), key=lambda n: (dist_exact(gamma * n), n))
            assert r.witness == best
            assert r.distance.mid == dist_exact(gamma * best)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT, MOD_LIMIT + 1, (1 << 64) + 13])
    def test_moduli_around_the_int64_limit(self, q):
        rng = random.Random(q)
        for b in (2, 3, 10):
            gamma = Fraction(rng.randrange(1, q), q)
            N = rng.randint(1, 600)
            r = oracle_min(Real.exact(gamma), b, ds.unrank(b, N))
            best = min(range(1, N + 1), key=lambda i: (dist_exact(gamma * ds.unrank(b, i)), i))
            assert r.witness == ds.unrank(b, best)
            assert r.distance.mid == dist_exact(gamma * r.witness)

    def test_smallest_witness_tie_break(self):
        # gamma = 1/2 in base 4: zero-one elements 4 and 16 both land on 0
        r = oracle_min(Real.exact(Fraction(1, 2)), 4, 100)
        assert r.witness == 4 and r.distance.mid == 0

    def test_enclosure_gamma_certifiable(self):
        # distances over {1, 3, 4, 9} are 7/30, 9/30, 2/30, 3/30: well split
        gamma = Real.approx(Fraction(7, 30), Fraction(1, 10**30))
        r = oracle_min(gamma, 3, 9)
        assert r.witness == 4 and r.mode == "approximate"
        assert abs(r.distance.mid - Fraction(2, 30)) < Fraction(1, 10**20)

    def test_enclosure_gamma_tied_argmin_raises(self):
        # distances at 1 and 3 tie exactly for gamma near 1/4 in base 2
        gamma = Real.approx(Fraction(1, 4), Fraction(1, 10**20))
        with pytest.raises(IndeterminateComparison):
            oracle_min(gamma, 2, 3)

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_oracle(self, kind):
        rng = random.Random(11)
        raised = 0
        for _ in range(200):
            b = rng.choice([2, 3, 5, 10])
            gamma = _random_gamma(rng, kind)
            N = ds.unrank(b, rng.randint(1, 200))
            want = _outcome(oracle_two_branch, gamma, b, N)
            assert _outcome(oracle_min, gamma, b, N) == want
            raised += isinstance(want[0], type)
        assert raised == 0 if kind == "exact" else 10 < raised < 190

    def test_matches_the_two_branch_oracle_on_a_tie(self):
        gamma = Real.approx(Fraction(1, 4), Fraction(1, 10**20))
        want = _outcome(oracle_two_branch, gamma, 2, 3)
        assert want[0] is IndeterminateComparison
        assert _outcome(oracle_min, gamma, 2, 3) == want

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_oracle_on_ties_and_the_clamp(self, kind):
        # ||gamma s|| = ||gamma s'|| for gamma = j/(s + s'), and ||gamma s|| at 1/2
        rng = random.Random(13)
        outcomes = Counter()
        for _ in range(300):
            b = rng.choice([2, 3, 5, 10])
            count = rng.randint(2, 200)
            s, s2 = sorted(ds.unrank(b, i) for i in rng.sample(range(1, count + 1), 2))
            n, target = rng.choice([(s + s2, Fraction(0)), (s, Fraction(1, 2))])
            gamma = gamma_near(rng, n, target, kind)
            want = _outcome(oracle_two_branch, gamma, b, ds.unrank(b, count))
            assert _outcome(oracle_min, gamma, b, ds.unrank(b, count)) == want
            outcomes["raised" if isinstance(want[0], type) else "answered"] += 1
        assert outcomes["answered"] > 50, outcomes
        assert (outcomes["raised"] > 50) == (kind == "enclosure"), outcomes

    def test_enclosure_certifies_only_its_window(self, monkeypatch):
        import radixapprox.approx as approx

        calls = []
        read = approx.dist_ends_of_multiple
        monkeypatch.setattr(approx, "dist_ends_of_multiple", lambda g, n: calls.append(n) or read(g, n))
        r = oracle_min(Real.parse("sqrt2", 128), 2, 2**14 - 1)
        assert (r.witness, r.mode, calls) == (13860, "approximate", [13860])

    @pytest.mark.parametrize("gamma", [Real(Fraction(355, 113)), Real.parse("sqrt2", 128)],
                             ids=["exact", "sqrt2@128"])
    def test_one_table_build_per_query(self, gamma, monkeypatch):
        from radixapprox import _kernels

        built, tables = [], _kernels._half_tables
        monkeypatch.setattr(_kernels, "_half_tables", lambda *a: built.append(a) or tables(*a))
        oracle_min(gamma, 2, 2**14 - 1)
        assert len(built) == 1

    def test_window_edge_keeps_an_overlapping_candidate(self):
        # Q = 666 and 2 V rad Q = 2 * 10 * 97/1000 = 1.94: the window reads one
        # residue past the minimum, where 10 overlaps the winner 3; a window
        # one residue narrower would certify 3 alone
        gamma = Real(Fraction(461, 666), Fraction(97, 666000))
        with pytest.raises(IndeterminateComparison, match="^cannot certify the minimizer: "
                           "candidates 3 and 10 have overlapping distance enclosures$"):
            oracle_min(gamma, 2, 10)
        assert _outcome(oracle_two_branch, gamma, 2, 10)[0] is IndeterminateComparison

    def test_certify_builds_one_real_for_any_number_of_candidates(self, monkeypatch):
        import radixapprox.approx as approx

        # sqrt2@64 over D_10: 1 candidate up to 10^12, 23 up to 10^15, one winner
        gamma = Real.parse("sqrt2", 64)
        calls = []
        read = approx.dist_ends_of_multiple
        monkeypatch.setattr(approx, "dist_ends_of_multiple", lambda g, n: calls.append(n) or read(g, n))
        reads, builds = [], []
        for N in (10**12, 10**15):
            calls.clear()
            assert oracle_min(gamma, 10, N).witness == 111100011000
            reads.append(len(calls))
            builds.append(count_builds(monkeypatch, oracle_min, gamma, 10, N))
        assert reads == [1, 23] and builds[0] == builds[1] and builds[0][1] == 1


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
                oracle_min(gamma, b, N).distance.mid
                <= pigeonhole_witness(gamma, b, N).distance.mid
            )

    def test_enclosure_gamma(self):
        gamma = Real.approx(Fraction(1, 5), Fraction(1, 10**25))
        r = pigeonhole_witness(gamma, 2, 7)
        assert r.witness == 1 and r.mode == "approximate"

    def test_direct_witness_whose_enclosure_reaches_an_integer(self):
        # 15 * 2/5 = 6: the enclosure of 15 gamma holds an integer, so its
        # fractional part is undecidable, yet 15 is a direct witness
        gamma = Real.approx(Fraction(2, 5), Fraction(1, 10**30))
        r = pigeonhole_witness(gamma, 2, 100)
        assert (r.witness, r.guarantee, r.mode) == (15, Fraction(1, 6), "approximate")
        assert (r.distance.lo, r.distance.hi) == (0, Fraction(15, 10**30))
        assert pigeonhole_witness(Real.exact(Fraction(2, 5)), 2, 100).witness == 15

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_pigeonhole(self, kind):
        rng = random.Random(12)
        cases = Counter()
        for _ in range(1500):
            b = rng.choice([2, 3, 5, 10])
            gamma = _random_gamma(rng, kind)
            N = rng.choice([rng.randint(1, 10**6), rng.randint(1, 10**30)])
            cases[_pigeonhole_against_two_branch(gamma, b, N)[0]] += 1
        if kind == "exact":
            assert set(cases) == {"same"}
        else:
            assert cases["raised"] > 0 and cases["direct"] > 100 and cases["undecided"] > 100

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_pigeonhole_at_the_bounds(self, kind):
        # {gamma u} for a repunit u at the guarantee 1/(t+1), at a bin
        # boundary h/(t+1) or at 1/2
        rng = random.Random(14)
        cases, messages = Counter(), Counter()
        for _ in range(1500):
            b = rng.choice([2, 3, 5, 10])
            N = rng.choice([rng.randint(1, 10**6), rng.randint(1, 10**30)])
            t = ds.repunit_cap(b, N)
            target = rng.choice([Fraction(1, t + 1), Fraction(rng.randint(1, t), t + 1), Fraction(1, 2)])
            gamma = gamma_near(rng, rng.choice(ds.repunits(b, N)), target, kind)
            case, got = _pigeonhole_against_two_branch(gamma, b, N)
            cases[case] += 1
            if got[0] is IndeterminateComparison:
                messages["bin" if got[1].startswith("bin membership") else "guarantee"] += 1
        assert cases["same"] > 500, cases
        if kind == "exact":
            assert set(cases) == {"same"}
        else:
            assert min(messages["bin"], messages["guarantee"]) > 20, messages

    # sqrt2@128 collides after reading all 3 and all 25 repunits in base 3,
    # and meets the guarantee at the 6th and the 20th repunit in base 2
    @pytest.mark.parametrize("b, Ns, reads", [(3, (13, (3**25 - 1) // 2), (3, 25)),
                                              (2, (2**10, 2**40), (6, 20))])
    def test_builds_one_real_for_any_number_of_repunits(self, b, Ns, reads, monkeypatch):
        gamma = Real.parse("sqrt2", 128)
        builds = []
        for N, read in zip(Ns, reads):
            reps = ds.repunits(b, N)
            w = pigeonhole_witness(gamma, b, N).witness
            assert (len(reps) if w not in reps else reps.index(w) + 1) == read
            builds.append(count_builds(monkeypatch, pigeonhole_witness, gamma, b, N))
        assert builds[0] == builds[1] and builds[0][1] == 1

    def test_reads_each_repunit_residue_once(self, monkeypatch):
        # sqrt2@128 collides after all 25 repunits of base 3: the distance
        # test and the bin of a repunit read one residue, passed to both
        gamma, b, N = Real.parse("sqrt2", 128), 3, (3**25 - 1) // 2
        reads = []
        for name in ("dist_ends_of_multiple", "residue_of_multiple"):
            read = getattr(exact, name)
            monkeypatch.setattr(exact, name, lambda g, n, v=None, read=read:
                                reads.append((n, v)) or read(g, n, v))
        w = pigeonhole_witness(gamma, b, N).witness
        M, Q = gamma.mid.numerator, gamma.mid.denominator
        reps = ds.repunits(b, N)
        assert [n for n, v in reads if v is None] == [w] and w not in reps
        assert sorted((n, v) for n, v in reads if v is not None) == sorted(
            (u, u * M % Q) for u in reps for _ in range(2))

    # (gamma, b, N, witness, distance): a repunit within the guarantee, and
    # first collisions at the repunit pairs (1, 7) in base 2 and (4, 13) in base 3
    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    @pytest.mark.parametrize("gamma, b, N, witness, dist", [
        (Fraction(3, 11), 2, 100, 7, Fraction(1, 11)),
        (Fraction(2, 11), 2, 100, 6, Fraction(1, 11)),
        (Fraction(4, 9), 3, 1000, 9, Fraction(0)),
    ])
    def test_both_kinds_share_the_pair_search(self, kind, gamma, b, N, witness, dist):
        g = Real.exact(gamma) if kind == "exact" else Real.approx(gamma, Fraction(1, 10**30))
        r = pigeonhole_witness(g, b, N)
        assert r.witness == witness
        assert r.distance.lo <= dist <= r.distance.hi
        assert r.mode == ("exact" if kind == "exact" else "approximate")

    def test_first_collision_takes_the_lexicographically_first_pair(self):
        # bins 2, 0, 1, 0, 1: the pair (1, 3) comes before (2, 4)
        assert _first_collision([1, 4, 13, 40, 121], [2, 0, 1, 0, 1], 3, 1000) == 36
        # bins 0, 1, 1, 0: the pair (0, 3) comes before (1, 2), though (1, 2) closes first
        assert _first_collision([1, 4, 13, 40], [0, 1, 1, 0], 3, 1000) == 39

    def test_first_collision_refusals(self):
        with pytest.raises(InvariantViolation, match="no pigeonhole collision found"):
            _first_collision([1, 3, 7], [0, 1, 2], 2, 100)
        with pytest.raises(InvariantViolation, match="left the zero-one set"):
            _first_collision([1, 4, 13], [1, 0, 0], 3, 8)


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
