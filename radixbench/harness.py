"""Closed-loop query driver, set-up timing, environment record and metrics.

One client in one process sends the next query when the previous one has
returned.  Each query is ``radixapprox.cli.main(argv)`` called in-process
with ``--format json``; only that call is timed.  Answers are checked by
``validate`` between calls, outside the timed region.

The machine is shared, and its speed drifts by a fifth or more over seconds.
So before each query the driver also times a fixed reference work (pure
Python, Fraction and numpy), and the query times are scaled to a machine on
which that work takes REFERENCE_SECONDS: a query's time is divided by the
median reference time of the queries around it.  The raw wall times stay
in the tally.  Set-up time follows the reference work only weakly (it
moves by about a third as much), so it is reported unscaled, as the median
of probes spread evenly over the run.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy

from .validate import Outcome, classify, digest, exact_fields
from .workloads import Query

DIGEST_QUERIES = 100  # the exact-field digest covers this prefix of the deck
MIN_QUERIES = 100  # a timed run holds at least this many, so p90 has 10 beyond it
SETUP_REPEATS = 9
REFERENCE_SECONDS = 1e-3  # the reference work's wall time on the nominal machine
REFERENCE_WINDOW = 4  # reference samples on each side that set a query's speed
MAX_REPORTED_FAILURES = 20

END_TO_END = (
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SETUP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import radixapprox.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
print("ready", code, flush=True)
"""


_REFERENCE_ARRAY = numpy.arange(1, 16385, dtype=numpy.int64)


def reference_seconds() -> float:
    """Wall seconds of a fixed piece of work of the kinds the program does:
    an integer loop, Fraction sums and numpy arithmetic."""
    start = time.perf_counter()
    s = 0
    for i in range(1, 6000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)
    r = (_REFERENCE_ARRAY * 48271) % 2147483647
    numpy.cos(r * 1e-9).sum()
    return time.perf_counter() - start


def scale_to_reference(seconds: list[float], reference: list[float],
                       window: int = REFERENCE_WINDOW) -> list[float]:
    """Each time divided by the median of the reference times at most
    ``window`` places away from it, in units of REFERENCE_SECONDS."""
    return [t * REFERENCE_SECONDS / statistics.median(reference[max(0, i - window):i + window + 1])
            for i, t in enumerate(seconds)]


def call_cli(cli, argv) -> tuple[Outcome, float, int]:
    """Run cli.main(argv) with stdout/stderr captured.

    Returns the outcome, the wall seconds of the call and the bytes of
    stdout before the run-metadata object, whose wall time would keep the
    count from repeating.  cli.main turns a DomainError into SystemExit(1)
    through parser.exit, and argparse usage errors into SystemExit(2).
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # the run must go on; the query counts as failed
            code, error = -1, f"unexpected {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    text = out.getvalue()
    report = None
    if code == 0 and error is None:
        try:
            report = json.loads(text)["report"]
        except (ValueError, KeyError, TypeError):
            error = "exit 0 without a JSON report"
    meta_at = text.find('"meta":')
    nbytes = len(text[:meta_at if meta_at >= 0 else len(text)].encode())
    return Outcome(code, report, err.getvalue(), error), seconds, nbytes


@dataclass
class Tally:
    """Per-query results of one pass over a deck."""

    latencies: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # reference_seconds() before each query
    failed: int = 0
    indeterminate: int = 0
    output_bytes: int = 0
    rows: list = field(default_factory=list)  # exact fields of the digest prefix
    reasons: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, index: int, q: Query, outcome: Outcome, seconds: float, nbytes: int):
        self.latencies.append(seconds)
        self.output_bytes += nbytes
        status, reason = classify(q, outcome)
        if status == "failed":
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(f"query {index} ({' '.join(q.argv)}): {reason}")
        elif status == "indeterminate":
            self.indeterminate += 1
        if index < DIGEST_QUERIES:
            # a failed answer may be malformed; its digest row is its exit code
            self.rows.append([q.kind, outcome.code] if status == "failed"
                             else exact_fields(q, outcome))

    def digest(self) -> str:
        return digest(self.rows)


def run_deck(cli, deck: list[Query], seconds: Optional[float], tracer=None,
             probe: Optional[Callable[[], None]] = None) -> Tally:
    """Closed loop over the deck, cycling it if needed.

    With ``seconds`` set, runs until that much wall time has passed and at
    least MIN_QUERIES queries are done, calling ``probe`` (if given)
    between queries SETUP_REPEATS times at even steps of the run;
    otherwise runs the deck once.
    """
    tally = Tally()
    start = time.perf_counter()
    probes = 0
    i = 0
    while (i < len(deck)) if seconds is None else (
            i < MIN_QUERIES or time.perf_counter() - start < seconds):
        while probe is not None and probes < SETUP_REPEATS and (
                time.perf_counter() - start >= probes * seconds / SETUP_REPEATS):
            probe()
            probes += 1
        q = deck[i % len(deck)]
        tally.reference.append(reference_seconds())
        outcome, secs, nbytes = call_cli(cli, q.argv)
        if tracer is not None:
            tracer.end_query(outcome.code)
        tally.record(i, q, outcome, secs, nbytes)
        i += 1
    for _ in range(probes, SETUP_REPEATS if probe is not None else 0):
        probe()
    return tally


def measure_setup(root: str, argv) -> float:
    """Seconds from process start until a fresh interpreter has imported
    radixapprox.cli and answered its first query."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, os.path.join(root, "src"), json.dumps(list(argv))],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.split() != ["ready", "0"]:
        raise RuntimeError(f"set-up probe failed: {line!r} {err[-500:]!r}")
    return elapsed


def _latency_figures(lat: list[float]) -> dict:
    return {
        "throughput_qps": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000,
    }


def unscaled_figures(tally: Tally) -> dict:
    """The raw wall-time figures and the median reference time, for the record."""
    return {**_latency_figures(tally.latencies),
            "reference_ms": statistics.median(tally.reference) * 1000}


def end_to_end_metrics(tally: Tally, setup_times: list[float]) -> dict:
    values = {
        **_latency_figures(scale_to_reference(tally.latencies, tally.reference)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def environment() -> dict:
    """Machine and kernel-path facts every result is tied to."""
    import mpmath
    import numpy

    from radixapprox import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "numba_imports": numba_imports,
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "RADIXAPPROX_NO_NUMBA": os.environ.get("RADIXAPPROX_NO_NUMBA"),
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
    }
