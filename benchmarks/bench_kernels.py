#!/usr/bin/env python3
"""Benchmark the hot kernels: best, median and max wall time of each case.

Run:  python benchmarks/bench_kernels.py [--repeat 5]

After one warmup call each, the cases run round-robin for --repeat rounds
(every case once per round), so a drift in machine speed reaches all cases
alike, and the median and max beside the best show a run's own spread.

The residue scans meet in the middle: digit_scan_min and digit_scan_close
build two subset-residue tables of about 2^(k/2) entries for k-bit counts,
so the 2^24 and 2^25 cases cost little more than the 2^20 one.  The
digit_scan_min cases at q=2^61-1 and q~2^144 use moduli above MOD_LIMIT,
so they time the Python-int (object array) path of the residue scans; the
q~2^144 case is the enclosure oracle's one scan, its minimum and every hit
of its window; the direct sum has no Python-int path.  The eval_expsum
cases time it: it turns the same two half tables into unit vectors once
(one cos and one sin per table entry), for every modulus, and multiplies
the sums of the two tables' runs once, so a sum of 2^(r+1) terms costs
2^s + 2^(r+1-s) unit vectors, s = (r+1) // 2, whatever the modulus: the
cases at 5/313, 457/499 and 5/262147 time small moduli, and r=26 (q=3) the
largest sum the term cap admits.
Each half table's run goes through cos_sin_sum, whose case times the
largest run a sum passes, 2^14 unit vectors at r=26.  The
eval_expsum case at r=2 sums 8 terms, so it times the scalar side: the
float pass of the cosine product and its bound, the checks on their
integer ends and the report's five Reals.  The dense
first hit is the first pull of a separation check as the decay queries
send it (beta = 1/(4 b^2)), which looks the rows up in chunks of 1, 1, 2,
4, ... and stops at the first that holds a hit.
The discrepancy scan runs on
int64 arrays for every T and q: its second case has T*q far above 2^62, and
reads each endpoint through the int64 key floor(w 2^K / q), K = 62 -
bit_length(T), evaluating in Python ints only the few ends within 2T of an
extreme.  The fractional_orbit cases read the discrepancy orbit as the
residues n M mod Q of gamma.mid = M/Q while T Q < 2^62 (5/313), and beyond
as 62-bit fixed-point keys built from int64 limbs, with no Python int per
point; pi at 128 bits (the enclosure workload's orbit), e at 256 and 1024
bits and pi at 4096 bits with 10^6 points, with discrepancy_L on the same
orbits, time how the orbit and the scan grow with Q and T.  The
near-rational enclosure within 2^-200 of 3/7 puts its points in 7 runs of
keys within one unit of each other, whose points are read exactly and
ordered by one sort of their residues.
The erdos_turan_check cases time the whole check, which builds its own
orbit: fractional_orbit, the O(T) discrepancy scan and the closed-form
right side, one float pass over g: two residues stepped in Python ints,
two correctly rounded divisions and the sines, two per g for an exact
gamma and four for an enclosure.  The Weyl-sum-ends cases time that pass
alone at G = 1, 5 and 50, for 5/313 and pi at 128 bits, and the eval_expsum
case at b=5, r=14 times the cosine-product side beside the sum: one float
pass over the r+1 digits, two correctly rounded divisions and two sines a
digit, as in the Erdos-Turan pass.
The pigeonhole_witness and separation_check cases time the scans that
compare ||gamma n|| with a bound on integer ends: the pigeonhole visits all
25 repunits of base 3 twice (direct scan, then bins, on one residue read
each) and collides, and the
separation check passes, so its merge reads every window hit and all 105
power gaps at r=14; each at sqrt2@128 and at the exact
1254027132096/886731088897, within 10^-24 of sqrt2.
The report writer case times the JSON text cli.main writes, report and
meta, of the nine commands under README's "## CLI" and one enclosure
expsum report (pi at 256 bits: six Reals), from the library's objects.
The compute_constants cases time the certified scan of the depth
coefficient H on libmp's interval primitives at the CLI's default 128 bits:
b=2 stops at scale 6, b=3 at 4 and b=10 at 2.  The _power_decay_bound and
_decay_bound cases time the other two closed forms on the same primitives,
at 80 bits: the adversary's b^-4 N^(-log2 b/(b-1)) (two logs and an exp)
and the decay bound 2^(r+3) (1 - pi/(4b^2))^((r+1-3 sqrt(k))/m) (a sqrt, a
log and an exp), each built into a Real once.  The power-decay bound is
most of an adversarial_gamma call: the certificate itself is two integer
comparisons on T, k and b (the digit counts of the no-multiples lemma)
and one power b^k, with no scan of the zero-one set at any N.
"""
import argparse
import pathlib
import shlex
import statistics
import time
from fractions import Fraction

import numpy as np

import radixapprox._kernels as K
import radixapprox.cli as cli
from radixapprox import __version__
from radixapprox.exact import Real
from radixapprox.discrepancy import (
    _candidate_tables,
    _weyl_sum_ends,
    discrepancy_L,
    erdos_turan_check,
    fractional_orbit,
)
from radixapprox.adversary import _power_decay_bound, adversarial_gamma
from radixapprox.approx import pigeonhole_witness
from radixapprox.constants import compute_constants
from radixapprox.expsum import _decay_bound, eval_expsum, separation_check


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def envelope_parts():
    """(report, meta) of the JSON envelope of each command under README's
    "## CLI", and of an enclosure expsum report: what cli.main writes."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("radix-approx ")]
    argvs.append(["expsum", "--base", "3", "--r", "14", "--k", "1", "--gamma", "pi",
                  "--precision-bits", "256"])
    parts = []
    for argv in argvs:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2:]
        args = cli._parser().parse_args([*argv, "--format", "json"])
        cfg = cli._config_from(args)
        meta = {"tool": "radixapprox", "version": __version__, "subcommand": args.subcommand,
                "config": cfg, "wall_time_ms": cli._Number(1.0)}
        parts.append((args.handler(args, cfg), meta))
    return parts


def write_envelopes(parts):
    for report, meta in parts:
        cli._write(report, "\n  ")
        cli._write(meta, "\n  ")


def cases():
    rng = np.random.default_rng(0)

    # the layer above the kernels: the JSON text of ten reports and their meta
    yield "report writer (9 README envelopes + expsum pi@256)", write_envelopes, (envelope_parts(),)

    modulus = (1 << 22) - 1
    pow_mod = [pow(2, d, modulus) for d in range(21)]
    yield "digit_scan_min (N=2^20, b=2)", K.digit_scan_min, (pow_mod, 1 << 20, modulus)

    # the exact-scan sizes: the meet-in-the-middle scan reads two half
    # tables of 2^12 and 2^13 entries where a linear scan reads 2^25
    q = (1 << 40) - 87
    pow_mod = [(314159265358 * pow(2, d, q)) % q for d in range(26)]
    for e in (24, 25):
        yield f"digit_scan_min (N=2^{e}, b=2, q=2^40-87)", K.digit_scan_min, (pow_mod, 1 << e, q)

    q = 999983
    adds = [(37 * pow(3, d, q)) % q for d in range(21)]
    yield "subset_residues (2^21 entries)", K.subset_residues, (adds, q)
    # a half table of criterion 10's oracle scans (N <= 10^4)
    yield "subset_residues (2^6 entries)", K.subset_residues, (adds[:6], q)

    # the high half table's run of unit vectors at r = 26
    z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=1 << 14))
    yield "cos_sin_sum (2^14 terms)", K.cos_sin_sum, (z,)

    # int64 half tables at r = 21 and 22, Python-int ones at q = 2^64+13 and
    # for sqrt2 and pi at 128 and 256 bits
    yield "eval_expsum (r=21, q=2^30+3)", eval_expsum, (2, 21, 3, Real.parse("314159265/1073741827"))
    yield "eval_expsum (r=22, q=2^40-87)", eval_expsum, (2, 22, 3, Real.parse("314159265358/1099511627689"))
    yield "eval_expsum (r=18, q=2^64+13)", eval_expsum, (2, 18, 3, Real.parse(f"314159265358/{(1 << 64) + 13}"))
    yield "eval_expsum (r=14, gamma=sqrt2@128)", eval_expsum, (3, 14, 1, Real.parse("sqrt2", 128))
    yield "eval_expsum (r=14, gamma=pi@256)", eval_expsum, (3, 14, 1, Real.parse("pi", 256))
    # 8 terms: the scalar side, from the certified ends to the five Reals
    yield "eval_expsum (r=2, gamma=pi@256)", eval_expsum, (3, 2, 1, Real.parse("pi", 256))
    # small moduli, summed as every other modulus
    yield "eval_expsum (r=24, q=313)", eval_expsum, (2, 24, 1, Real.parse("5/313"))
    yield "eval_expsum (b=3, r=18, q=499)", eval_expsum, (3, 18, 1, Real.parse("457/499"))
    yield "eval_expsum (r=22, q=262147)", eval_expsum, (2, 22, 1, Real.parse("5/262147"))
    # the term cap: two half sums of 2^13 and 2^14 unit vectors
    yield "eval_expsum (r=26, q=3)", eval_expsum, (2, 26, 1, Real.parse("1/3"))

    # T=4000 is the longest orbit the spectral benchmark workload sends
    for label, q in (("2^40", 1 << 40), ("2^64+13", (1 << 64) + 13)):
        nums = [int(v) * q >> 40 for v in rng.integers(0, 1 << 40, size=4000)]
        w, lt, eq = _candidate_tables(nums, q)
        yield f"interval_deviation_max (T=4000, q={label})", K.interval_deviation_max, (
            w, lt, eq, 4000, q)

    for text, bits, T in (("5/313", 128, 4000), ("pi", 128, 4000), ("e", 256, 4000),
                          ("e", 1024, 4000), ("pi", 4096, 10**6)):
        gamma = Real.parse(text, bits)
        yield f"fractional_orbit (T={T}, gamma={text}@{bits})", fractional_orbit, (gamma, T)
        if text != "5/313":
            yield f"discrepancy_L (T={T}, gamma={text}@{bits})", discrepancy_L, (
                fractional_orbit(gamma, T),)
    gamma = Real(Fraction(3 * 2**200 + 1, 7 * 2**200), Fraction(1, 2**400))
    yield "discrepancy_L (T=4000, gamma=3/7+2^-200/7, key ties)", discrepancy_L, (
        fractional_orbit(gamma, 4000),)

    for text, T, G in (("355/113", 10**5, 50), ("1/3", 50, 10**4), ("pi", 4000, 50),
                       ("pi", 2000, 50)):
        gamma = Real.parse(text, 128)
        yield f"erdos_turan_check with orbit (gamma={text}, T={T}, G={G})", erdos_turan_check, (
            gamma, T, G)
    # the Erdos-Turan right side without the scan: one pass over G terms
    for text in ("5/313", "pi"):
        for G in (1, 5, 50):
            yield f"Weyl sum ends (gamma={text}@128, T=2000, G={G})", _weyl_sum_ends, (
                Real.parse(text, 128), 2000, G)
    yield "eval_expsum (b=5, r=14, gamma=pi@256)", eval_expsum, (5, 14, 1, Real.parse("pi", 256))

    # 1254027132096/886731088897 lies within 10^-24 of sqrt2 and collides at
    # the same repunit pair
    for text in ("sqrt2", "1254027132096/886731088897"):
        gamma = Real.parse(text, 128)
        label = "sqrt2@128" if text == "sqrt2" else "exact"
        yield f"pigeonhole_witness (b=3, N=(3^25-1)/2, gamma={label})", pigeonhole_witness, (
            gamma, 3, (3**25 - 1) // 2)
        # the check without its kept last verdict, which would time a lookup
        yield f"separation_check (b=2, r=14, beta=1e-6, gamma={label})", separation_check, (
            2, 14, Fraction(1, 10**6), gamma)

    for b in (2, 3, 10):
        yield f"compute_constants (b={b}, 128 bits)", compute_constants, (b, 128)
    yield "_power_decay_bound (b=3, N=2^24)", _power_decay_bound, (3, 1 << 24)
    yield "adversarial_gamma (b=2, N=2^24)", adversarial_gamma, (2, 1 << 24)
    yield "_decay_bound (b=5, r=6, k=3, m=2)", _decay_bound, (5, 6, 3, 2)

    xs = np.linspace(-2.0, 2.0, 400_000)
    yield "cos_margin_values (4e5 points)", K.cos_margin_values, (xs,)

    big = (1 << 61) - 1
    pow_mod = [(12345 * pow(3, d, big)) % big for d in range(17)]
    yield "digit_scan_min (N=2^16, q=2^61-1)", K.digit_scan_min, (pow_mod, 1 << 16, big)
    pow_mod = [(12345 * pow(3, d, big)) % big for d in range(21)]
    yield "digit_scan_min (N=2^20, q=2^61-1)", K.digit_scan_min, (pow_mod, 1 << 20, big)

    # the enclosure oracle's one scan, the minimum and every hit of its
    # window: sqrt2 at 128 bits, Q ~ 2^144, slack 2 V rad
    gamma = Real.parse("sqrt2", 128)
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    count = (1 << 14) - 1
    pow_mod = [(M * pow(2, d, Q)) % Q for d in range(14)]
    slack = 2 * count * gamma.rad
    yield "digit_scan_min (N=2^14, q~2^144, oracle window)", \
        lambda p, c, q, num, den: list(K.digit_scan_min(p, c, q, num=num, den=den)[1]), (
            pow_mod, count, Q, slack.numerator, slack.denominator)

    # a first-hit pull on int64 residues, as in an exact separation check;
    # the first n within 2^-20 of an integer is n = 1,067,019
    q = (1 << 40) - 87
    pow_mod = [(314159265358 * pow(3, d, q)) % q for d in range(25)]
    yield "digit_scan_close (N=2^24, q=2^40-87, first hit)", lambda *a: next(K.digit_scan_close(*a)), (
        pow_mod, 1 << 24, q, 1, 1 << 20)
    # the first-hit caller, a separation check at beta = 1/(4 b^2), b = 3, r = 20
    yield "digit_scan_close (r=20, q=2^40-87, dense first hit)", lambda *a: next(K.digit_scan_close(*a)), (
        pow_mod[:21], (1 << 21) - 1, q, 1, 36)
    # every hit of a separation check at r = 24: the n < 2^25 within 2^-20
    yield "digit_scan_close (r=24, q=2^40-87, all hits)", lambda *a: list(K.digit_scan_close(*a)), (
        pow_mod, (1 << 25) - 1, q, 1, 1 << 20)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    table = list(cases())
    for _, fn, fargs in table:
        fn(*fargs)
    runs = [[] for _ in table]
    for _ in range(args.repeat):
        for (_, fn, fargs), times in zip(table, runs):
            t0 = time.perf_counter()
            fn(*fargs)
            times.append(time.perf_counter() - t0)

    print(f"{'kernel':60s} {'best':>11s} {'median':>11s} {'max':>11s}")
    for (name, _, _), times in zip(table, runs):
        cols = " ".join(f"{t * 1e3:9.3f}ms" for t in (min(times), statistics.median(times), max(times)))
        print(f"{name:60s} {cols}")


if __name__ == "__main__":
    main()
