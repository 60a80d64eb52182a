"""The radix-approx command line front end.

Subcommands: search, diffset, expsum, discrepancy, adversary, constants,
verify-all.  Output is human text, JSON with a stable field order, or an
RFC-4180 CSV row; rationals serialize as "p/q" strings, so exact-mode
output is byte-identical across runs for identical inputs and config
(wall time and other run metadata live in a separate "meta" object).

Each subcommand takes only the flags its handler reads, plus --format and
--out; --count is another spelling of --limit.

Exit codes: 0 success, 1 usage or domain error (a bad or unknown flag, a
missing required flag, an unparsable value, a config file that is missing
or out of range, or an --out path that cannot be written; diagnostic on
stderr), 2 invariant violation (a verified inequality
failed; reported with its witness), 3 resource limit, 4 indeterminate
comparison.

The environment variable RADIX_APPROX_CONFIG may point to a key=value file
mirroring the run configuration (precision_bits, enumeration_cap,
node_budget, output_format, threads).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from . import digitsets as ds
from .adversary import adversarial_gamma, no_multiples_check
from .approx import oracle_min, pigeonhole_witness
from .acceptance import run_all
from .constants import approximation_bound, compute_constants
from .diffsets import NODE_BUDGET_DEFAULT, anchored_cap, max_difference_set, positive_differences
from .discrepancy import discrepancy_L, erdos_turan_check, fractional_orbit
from .errors import (
    DomainError,
    IndeterminateComparison,
    InvariantViolation,
    RadixApproxError,
    ResourceLimit,
)
from .exact import DEFAULT_PRECISION, Real
from .expsum import decay_bound_check, eval_expsum, separation_check, small_shift_count

CONFIG_ENV = "RADIX_APPROX_CONFIG"

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3
EXIT_INDETERMINATE = 4

FORMATS = ("json", "csv", "human")

#: Largest accepted precision_bits: 16x the 256 bits the benchmark sends.
#: A 4096-bit value prints in about 1,240 digits, under CPython's
#: 4300-digit int-to-str limit.
MAX_PRECISION_BITS = 4096

CSV_COLUMNS = (
    "subcommand",
    "b",
    "N",
    "witness",
    "distance_num",
    "distance_den",
    "bound",
    "passed",
)


@dataclass
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION
    enumeration_cap: int = ds.CAP_DEFAULT
    node_budget: int = NODE_BUDGET_DEFAULT
    output_format: str = "human"
    threads: int = 1  # recorded in meta.config only: every scan runs on one thread

    def __post_init__(self):
        if not 64 <= self.precision_bits <= MAX_PRECISION_BITS:
            raise DomainError(f"precision_bits must be between 64 and {MAX_PRECISION_BITS}")
        if self.enumeration_cap < 1 or self.node_budget < 1 or self.threads < 1:
            raise DomainError("caps, budgets and threads must be positive")
        if self.output_format not in FORMATS:
            raise DomainError(f"output_format must be one of {', '.join(FORMATS)}")


def load_config_file(path: str) -> dict:
    values: dict[str, Any] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in {f.name for f in dataclasses.fields(RunConfig)}:
                raise DomainError(f"unknown config key {key!r}")
            values[key] = raw if key == "output_format" else int(raw)
    return values


def _ser(value: Any) -> Any:
    """JSON-ready form: Fractions as p/q strings, Reals as mid/rad pairs."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Real):
        if value.is_exact:
            return {"exact": _ser(value.mid)}
        return {"mid": _ser(value.mid), "rad": _ser(value.rad)}
    if isinstance(value, ds.SetSpec):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _ser(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ser(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _human(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_human_scalar(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(f"{pad}- {_human_scalar(v)}" for v in value)
    return f"{pad}{_human_scalar(value)}"


def _approx(frac_str: str) -> str:
    return f"{float(Fraction(frac_str)):.12g}"


def _human_scalar(v: Any) -> str:
    if isinstance(v, dict) and set(v) == {"exact"}:
        s = v["exact"]
        return s if len(s) <= 32 else f"{s[:18]}... (~{_approx(s)})"
    if isinstance(v, dict) and set(v) == {"mid", "rad"}:
        return f"~{_approx(v['mid'])} (+/- {_approx(v['rad'])})"
    if isinstance(v, str) and "/" in v and len(v) > 32:
        return f"{v[:18]}... (~{_approx(v)})"
    if isinstance(v, list):
        return "[" + ", ".join(_human_scalar(x) for x in v) + "]"
    return str(v)


def _frac_of(report: dict, key: str) -> Optional[Fraction]:
    cur = report.get(key)
    if isinstance(cur, dict):
        cur = cur.get("exact") or cur.get("mid")
    if isinstance(cur, str) and "/" in cur:
        return Fraction(cur)
    return None


def _csv_row(subcommand: str, args, report: dict) -> dict:
    dist = _frac_of(report, "distance") or _frac_of(report, "min_distance")
    bound = (
        report.get("guarantee")
        or report.get("power_decay_bound")
        or report.get("decay_bound")
        or report.get("product_bound")
        or report.get("et_rhs")
    )
    if isinstance(bound, dict):
        bound = bound.get("exact") or bound.get("mid")
    if isinstance(bound, str) and "/" in bound:
        bound = repr(float(Fraction(bound)))
    return {
        "subcommand": subcommand,
        "b": getattr(args, "base", "") or report.get("b", ""),
        "N": report.get("N", getattr(args, "limit", None) or ""),
        "witness": report.get("witness", report.get("min_witness_index", "")),
        "distance_num": dist.numerator if dist is not None else "",
        "distance_den": dist.denominator if dist is not None else "",
        "bound": bound if bound is not None else "",
        "passed": report.get("passed", ""),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a plain report dict (already serialized)
# ---------------------------------------------------------------------------


def _cmd_search(args, cfg: RunConfig) -> dict:
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    N = args.limit
    if args.method == "pigeonhole":
        res = pigeonhole_witness(gamma, args.base, N)
    else:
        res = oracle_min(gamma, args.base, N, cap=cfg.enumeration_cap)
    out = _ser(res)
    out["N"] = N
    return out


def _cmd_diffset(args, cfg: RunConfig) -> dict:
    N = args.limit
    S = list(ds.iter_spec_upto(ds.SetSpec(args.base), N, cap=cfg.enumeration_cap))
    if args.method == "differences":
        return {"b": args.base, "N": N, "set_size": len(S),
                "differences": sorted(positive_differences(S))}
    cap = anchored_cap(args.base, N) if args.base >= 3 else None
    rep = max_difference_set(S, args.method, node_budget=cfg.node_budget, bound=cap)
    out = _ser(rep)
    out.update({"b": args.base, "N": N})
    return out


def _cmd_expsum(args, cfg: RunConfig) -> dict:
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    if args.method == "shifts":
        if args.beta is None:
            raise DomainError("the shifts method needs --beta")
        beta = Fraction(args.beta)
        sep = separation_check(args.base, args.r, beta, gamma)
        shifts = small_shift_count(
            args.base, args.r, args.k, gamma, beta, separation_ok=sep.ok
        )
        return {"separation": _ser(sep), "shifts": _ser(shifts)}
    if args.method == "decay":
        if args.m is None:
            raise DomainError("the decay check needs --m")
        rep = decay_bound_check(args.base, args.r, args.k, args.m, gamma)
    else:
        rep = eval_expsum(args.base, args.r, args.k, gamma)
    return _ser(rep)


def _cmd_discrepancy(args, cfg: RunConfig) -> dict:
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    points = fractional_orbit(gamma, args.limit, cap=cfg.enumeration_cap)
    rep = discrepancy_L(points) if args.G is None else erdos_turan_check(gamma, points, args.G)
    return _ser(rep)


def _cmd_adversary(args, cfg: RunConfig) -> dict:
    if args.method == "no-multiples":
        if args.k is None or args.t is None:
            raise DomainError("the no-multiples check needs --k and --t")
        rep = no_multiples_check(args.base, args.k, args.t, args.e_max, cap=cfg.enumeration_cap)
        return _ser(rep)
    if args.limit is None:
        raise DomainError("adversary needs --count")
    cert = adversarial_gamma(args.base, args.limit, cap=cfg.enumeration_cap)
    return _ser(cert)


def _cmd_constants(args, cfg: RunConfig) -> dict:
    cs = compute_constants(args.base, precision_bits=cfg.precision_bits)
    out = _ser(cs)
    if args.limit is not None:
        bound = approximation_bound(args.base, args.limit, cs, cfg.precision_bits)
        out["bound_at_N"] = _ser(bound)
    return out


def _cmd_verify_all(args, cfg: RunConfig) -> dict:
    results = run_all(echo=lambda line: print(line, file=sys.stderr))
    report = {
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not report["passed"]:
        raise InvariantViolation("acceptance criteria failed: " + json.dumps(report))
    return report


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1: exit 2 means an invariant failed.
    Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--base": dict(type=int, default=2),
    "--limit": dict(type=int),
    "--gamma": dict(help="p/q, a decimal literal, or sqrt2|pi|e"),
    "--r": dict(type=int),
    "--k": dict(type=int),
    "--m": dict(type=int),
    "--beta": dict(),
    "--t": dict(type=int),
    "--e-max": dict(type=int, default=6),
    "--G": dict(type=int),
    "--threads": dict(type=int, help="recorded in meta.config; every scan runs on one thread"),
    "--precision-bits": dict(type=int),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radix-approx",
        description="rational approximation with base-b denominators made of digits 0 and 1",
    )
    parser.add_argument("--version", action="version", version=f"radix-approx {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, summary, methods=(), flags=(), required=()):
        """A subcommand taking --method (the first choice is the default),
        the flags its handler reads, --format and --out."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if methods:
            p.add_argument("--method", choices=methods, default=methods[0])
        for flag in flags:
            spellings = (flag, "--count") if flag == "--limit" else (flag,)
            p.add_argument(*spellings, required=flag in required, **_FLAGS[flag])
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", metavar="FILE")

    add("search", _cmd_search, "witness search: pigeonhole or exhaustive oracle",
        ("pigeonhole", "oracle"), ("--base", "--limit", "--gamma", "--threads", "--precision-bits"),
        required=("--limit", "--gamma"))
    add("diffset", _cmd_diffset, "difference-set maxima and positive differences",
        ("anchored", "within", "differences"), ("--base", "--limit"), required=("--limit",))
    add("expsum", _cmd_expsum, "digit-restricted exponential sums and bounds",
        ("sum", "decay", "shifts"),
        ("--base", "--gamma", "--r", "--k", "--m", "--beta", "--precision-bits"),
        required=("--gamma", "--r", "--k"))
    add("discrepancy", _cmd_discrepancy, "interval discrepancy of {n*gamma}",
        flags=("--gamma", "--limit", "--G", "--precision-bits"), required=("--gamma", "--limit"))
    add("adversary", _cmd_adversary, "lower-bound certificate / no-multiples scan",
        ("certificate", "no-multiples"), ("--base", "--limit", "--k", "--t", "--e-max", "--threads"))
    add("constants", _cmd_constants, "the explicit constant chain",
        flags=("--base", "--limit", "--precision-bits"))
    add("verify-all", _cmd_verify_all, "run the acceptance suite")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _config_from(args) -> RunConfig:
    values: dict[str, Any] = {}
    path = os.environ.get(CONFIG_ENV)
    if path:
        values.update(load_config_file(path))
    for key in ("precision_bits", "threads"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if args.format:
        values["output_format"] = args.format
    return RunConfig(**values)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        started = time.perf_counter()
        report = args.handler(args, cfg)
        wall_ms = (time.perf_counter() - started) * 1000.0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IndeterminateComparison as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (RadixApproxError, ValueError, OSError) as exc:
        parser.exit(1, f"error: {exc}\n")

    if cfg.output_format == "json":
        envelope = {
            "report": report,
            "meta": {
                "tool": "radixapprox",
                "version": __version__,
                "subcommand": args.subcommand,
                "config": _ser(cfg),
                "wall_time_ms": round(wall_ms, 3),
            },
        }
        text = json.dumps(envelope, indent=2) + "\n"
    elif cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(_csv_row(args.subcommand, args, report))
        text = buf.getvalue()
    else:
        text = _human(report) + "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        parser.exit(1, f"error: {exc}\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
