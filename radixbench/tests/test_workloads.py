from radixbench.workloads import CYCLES, make_deck, zero_one_value


def test_same_seed_same_deck():
    for w in CYCLES:
        assert [q.argv for q in make_deck(w, 7, 60)] == [q.argv for q in make_deck(w, 7, 60)]


def test_other_seed_other_deck():
    for w in CYCLES:
        a = [q.argv for q in make_deck(w, 1, 60)]
        b = [q.argv for q in make_deck(w, 2, 60)]
        assert a != b
        # same query types in the same order; only the numbers move
        assert [x[0] for x in a] == [x[0] for x in b]


def test_deck_prefix_is_stable():
    long = make_deck("spectral", 3, 80)
    assert [q.argv for q in make_deck("spectral", 3, 30)] == [q.argv for q in long[:30]]


def test_exact_scan_gammas_distinct():
    gammas = [q.params["gamma"] for q in make_deck("exact-scan", 5, 2000) if "gamma" in q.params]
    assert len(gammas) == len(set(gammas))


def test_oracle_limit_matches_element_count():
    for q in make_deck("exact-scan", 4, 48):
        if q.kind == "oracle":
            b, count, N = q.params["b"], q.params["count"], q.params["N"]
            assert zero_one_value(b, count) == N < zero_one_value(b, count + 1)


def test_size_streams_are_stratified_for_every_seed():
    import random

    from radixbench.workloads import _Stream

    for seed in (1, 2, 3):
        stream = _Stream(random.Random(seed))
        points = [stream.next() for _ in range(64)]
        for d in range(3):
            assert sorted(int(p[d] * 64) for p in points) == list(range(64))
        # and every pair of coordinates fills an 8 x 8 grid
        for d, e in ((0, 1), (0, 2), (1, 2)):
            assert len({(int(p[d] * 8), int(p[e] * 8)) for p in points}) == 64
