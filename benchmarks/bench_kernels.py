#!/usr/bin/env python3
"""Benchmark the hot kernels: best wall time of each over a few repeats.

Run:  python benchmarks/bench_kernels.py [--repeat 5]

The last case uses a modulus above MOD_LIMIT, so it times the Python-int
(object array) path of the residue scan.
"""
import argparse
import time

import numpy as np

import radixapprox._kernels as K
from radixapprox.discrepancy import _candidate_tables


def bench(fn, *args, warmup=1, repeat=5):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def cases():
    rng = np.random.default_rng(0)

    modulus = (1 << 22) - 1
    pow_mod = [pow(2, d, modulus) for d in range(21)]
    yield "digit_scan_min (N=2^20, b=2)", K.digit_scan_min, (pow_mod, 1 << 20, modulus)

    q = 999983
    adds = [(37 * pow(3, d, q)) % q for d in range(21)]
    yield "subset_residues (2^21 entries)", K.subset_residues, (adds, q)

    res = rng.integers(0, q, size=1 << 21).astype(np.int64)
    yield "cos_sin_sum (2^21 terms)", K.cos_sin_sum, (res, q)

    nums = rng.integers(0, 1 << 40, size=2000).tolist()
    w, lt, eq = _candidate_tables(nums, 1 << 40)
    yield "interval_deviation_max (T=2000)", K.interval_deviation_max, (w, lt, eq, 2000, 1 << 40)

    xs = np.linspace(-2.0, 2.0, 400_000)
    yield "cos_margin_values (4e5 points)", K.cos_margin_values, (xs,)

    big = (1 << 61) - 1
    pow_mod = [(12345 * pow(3, d, big)) % big for d in range(17)]
    yield "digit_scan_min (N=2^16, q=2^61-1)", K.digit_scan_min, (pow_mod, 1 << 16, big)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'kernel':38s} {'best':>10s}")
    for name, fn, fargs in cases():
        print(f"{name:38s} {bench(fn, *fargs, repeat=args.repeat) * 1e3:8.2f}ms")


if __name__ == "__main__":
    main()
