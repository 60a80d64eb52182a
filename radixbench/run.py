#!/usr/bin/env python3
"""The radixapprox benchmark: seeded closed-loop CLI workloads.

    python3 radixbench/run.py --workload exact-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/radixapprox`` must exist; the
package is imported from there, nothing is installed).  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment, the exact-field digest of the
first DIGEST_QUERIES answers and the failure/indeterminate shares.

``--trace 0`` reports the end-to-end metrics of a timed run (tracing off);
query times are scaled to the nominal machine speed (see ``harness``), and
the info line keeps the unscaled figures.
``--trace 1`` runs a fixed prefix of the deck once untraced and once traced,
then times each acceptance criterion, and reports the per-layer metrics;
its counts repeat exactly for a given seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECK_QUERIES = 12000  # generated up front; a timed run cycles the deck if it gets through


def _fail(message: str) -> int:
    print(f"radixbench: {message}", file=sys.stderr)
    return 2


def _share(n: int, total: int) -> float:
    return n / total if total else 0.0


def _timed_run(cli, harness, warmup, deck, seconds: int):
    setup: list[float] = []
    tally = harness.run_deck(cli, deck, seconds,
                             probe=lambda: setup.append(harness.measure_setup(ROOT, warmup)))
    return tally, harness.end_to_end_metrics(tally, setup), harness.unscaled_figures(tally)


def _traced_run(cli, harness, deck):
    from radixapprox import acceptance
    from radixbench.tracing import Tracer, layer_metrics

    untraced = harness.run_deck(cli, deck, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_deck(cli, deck, None, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer)
    layers["cli.output_bytes"] = (traced.output_bytes, "bytes")
    layers["trace.overhead"] = (sum(untraced.latencies) / sum(traced.latencies), "ratio")
    both = (untraced, traced)
    attempted = sum(t.attempted for t in both)
    layers["failed_share"] = (_share(sum(t.failed for t in both), attempted), "ratio")
    layers["indeterminate_share"] = (_share(sum(t.indeterminate for t in both), attempted), "ratio")
    problems = []
    for cid, name, _ in acceptance.CRITERIA:
        start = time.perf_counter()
        result = acceptance.run_criterion(cid)
        layers[f"acceptance.criterion_{cid}.s"] = (time.perf_counter() - start, "s")
        if not result.passed:
            problems.append(f"criterion {cid} ({name}): {result.detail}")
    if traced.digest() != untraced.digest():
        problems.append("traced and untraced answers differ")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    return untraced, traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "radixapprox", "cli.py")):
        return _fail(f"no radixapprox source under {ROOT}/src; run from a source checkout")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from radixbench import harness
    from radixbench.workloads import CYCLES, WARMUP, make_deck

    if args.workload not in CYCLES:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(CYCLES)}")
    if args.seconds < 1:
        return _fail("--seconds must be positive")

    # the traced run covers exactly the digest prefix, so its counts repeat
    deck = make_deck(args.workload, args.seed,
                     harness.DIGEST_QUERIES if args.trace else DECK_QUERIES)
    import radixapprox.cli as cli

    harness.call_cli(cli, WARMUP[args.workload])
    problems: list[str] = []
    unscaled = None
    if args.trace:
        untraced, traced, metrics, problems = _traced_run(cli, harness, deck)
        tallies = (untraced, traced)
    else:
        tally, metrics, unscaled = _timed_run(cli, harness, WARMUP[args.workload], deck,
                                              args.seconds)
        tallies = (tally,)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        problems += t.reasons
    for line in problems:
        print(f"radixbench: {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": harness.environment(),
        "digest": tallies[0].digest(),
        "queries": attempted,
        "failed_share": _share(failed, attempted),
        "indeterminate_share": _share(sum(t.indeterminate for t in tallies), attempted),
    }
    if unscaled is not None:
        info["unscaled"] = unscaled
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
