"""The radix-approx command line front end.

Subcommands: search, diffset, expsum, discrepancy, adversary, constants,
verify-all.  Output is human text, JSON with a stable field order, or an
RFC-4180 CSV row; rationals serialize as "p/q" strings, so exact-mode
output is byte-identical across runs for identical inputs and config
(wall time and other run metadata live in a separate "meta" object).

Each subcommand takes only the flags its handler reads, plus --format and
--out; --count is another spelling of --limit.  argparse is the one
grammar: main reads the usual argv, a subcommand followed by distinct
"--flag value" pairs, off a table taken once from the parser's own actions
(flag -> action, the defaults, the required flags), and hands any other
argv to parse_args, so every usage message is argparse's.  The report is
written to JSON text in one walk over the library's objects (_write: one
writer per exact type, a dataclass's built once from its fields), byte for
byte what json.dumps(envelope, indent=2) writes of its tree, with no tree
built; the csv and human forms read that same text back with json.loads.

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
import decimal
import functools
import io
import json
import math
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
from .exact import DEFAULT_PRECISION, Real, parse_rational
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


_quote = json.encoder.encode_basestring_ascii


def _write_real(value: Real, pad: str) -> str:
    inner = pad + "  "
    mid = _WRITERS[type(value.mid)](value.mid, inner)
    if value.is_exact:
        return f'{{{inner}"exact": {mid}{pad}}}'
    return f'{{{inner}"mid": {mid},{inner}"rad": {_WRITERS[type(value.rad)](value.rad, inner)}{pad}}}'


def _write_dict(value: dict, pad: str) -> str:
    if not value:
        return "{}"
    inner = pad + "  "
    return "{" + ",".join([f"{inner}{_quote(key)}: {_WRITERS[type(item)](item, inner)}"
                           for key, item in value.items()]) + pad + "}"


def _write_list(value, pad: str) -> str:
    if not value:
        return "[]"
    inner = pad + "  "
    return "[" + ",".join([inner + _WRITERS[type(item)](item, inner) for item in value]) + pad + "]"


def _dataclass_writer(cls):
    """The writer of cls's instances: a dict of its fields, in order."""
    fields = [(f.name, _quote(f.name)) for f in dataclasses.fields(cls)]
    if not fields:
        return lambda value, pad: "{}"

    def write(value, pad: str) -> str:
        inner = pad + "  "
        items = [(key, getattr(value, name)) for name, key in fields]
        return "{" + ",".join([f"{inner}{key}: {_WRITERS[type(item)](item, inner)}"
                               for key, item in items]) + pad + "}"
    return write


def _writer_for(cls):
    """The writer of a type outside the table, by the first rule that fits:
    a Fraction or Real subclass as its base; a SetSpec as its to_dict();
    any other dataclass as a dict of its fields; a dict, list, tuple, str or
    int subclass as its base; anything else as the string str(value) (a
    float or a numpy int, say)."""
    for base in (Fraction, Real):
        if issubclass(cls, base):
            return _WRITERS[base]
    if issubclass(cls, ds.SetSpec):
        return lambda value, pad: _write_dict(value.to_dict(), pad)
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_writer(cls)
    for base in (dict, list, tuple, str, int):
        if issubclass(cls, base):
            return _WRITERS[base]
    return lambda value, pad: _quote(str(value))


class _Writers(dict):
    """type -> writer(value, pad), pad the newline and indent of the value's
    line; a type missing from the table is resolved once by _writer_for
    and kept, so a dataclass's fields are read once per class."""

    def __missing__(self, cls):
        self[cls] = writer = _writer_for(cls)
        return writer


class _Number(float):
    """A float written as a JSON number; any other float is written as a string."""


_WRITERS = _Writers({
    Fraction: lambda value, pad: f'"{value.numerator}/{value.denominator}"',
    Real: _write_real,  # {"exact": p/q} or {"mid": p/q, "rad": p/q}
    dict: _write_dict,
    list: _write_list,
    tuple: _write_list,
    str: lambda value, pad: _quote(value),
    int: lambda value, pad: int.__repr__(value),
    bool: lambda value, pad: "true" if value else "false",
    type(None): lambda value, pad: "null",
    _Number: lambda value, pad: float.__repr__(value),
})


def _write(value: Any, pad: str = "\n") -> str:
    """The JSON text of a report value, in one walk: json.dumps(value,
    indent=2) of its tree of Fractions as "p/q" strings, Reals as
    {"exact": ...} or {"mid": ..., "rad": ...}, dataclasses as dicts of
    their fields and tuples as lists, indented one level per two spaces
    in pad.  An int or Fraction too long to print raises ResourceLimit."""
    try:
        return _WRITERS[type(value)](value, pad)
    except ValueError:  # CPython's int-to-text digit limit, the one ValueError a writer raises
        raise ResourceLimit(f"a report value exceeds the {sys.get_int_max_str_digits()}"
                            "-digit limit for printing an int") from None


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
    """The rational frac_str to 12 significant digits, as "%.12g" writes
    it: through a float where the value is 0 or a normal double, by exact
    decimal rounding (half to even) where a float would overflow, underflow
    or keep fewer than 53 bits; there the exponent form is the one "%.12g"
    uses."""
    x = Fraction(frac_str)
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not x or sys.float_info.min <= abs(f) < math.inf:
        return f"{f:.12g}"
    ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(x.numerator, x.denominator).normalize(ctx):g}"


def _human_scalar(v: Any) -> str:
    if isinstance(v, dict) and set(v) == {"exact"}:
        return _human_scalar(v["exact"])
    if isinstance(v, dict) and set(v) == {"mid", "rad"}:
        return f"~{_approx(v['mid'])} (+/- {_approx(v['rad'])})"
    if isinstance(v, str) and "/" in v and len(v) > 32:
        return f"{v[:18]}... (~{_approx(v)})"
    if isinstance(v, list):
        return "[" + ", ".join(_human_scalar(x) for x in v) + "]"
    return str(v)


def _rational(report: dict, *keys: str) -> Optional[Fraction]:
    """The first of keys set in a serialized report, as a Fraction (the
    value of an exact Real, the mid of an enclosure), or None."""
    for key in keys:
        value = report.get(key)
        if isinstance(value, dict):
            value = value.get("exact", value.get("mid"))
        if value is not None:
            return Fraction(value)
    return None


def _csv_row(args, report: dict) -> dict:
    """The CSV row of a serialized report; its keys are the header."""
    dist = _rational(report, "distance", "min_distance")
    bound = _rational(report, "guarantee", "power_decay_bound", "decay_bound", "product_bound",
                      "et_rhs")
    witness = report.get("witness", report.get("min_witness_index", ""))
    return {
        "subcommand": args.subcommand,
        "b": getattr(args, "base", "") or report.get("b", ""),
        "N": report.get("N", getattr(args, "limit", None) or ""),
        "witness": json.dumps(witness) if isinstance(witness, list) else witness,
        "distance_num": dist.numerator if dist is not None else "",
        "distance_den": dist.denominator if dist is not None else "",
        "bound": repr(float(bound)) if bound is not None else "",
        "passed": report.get("passed", ""),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the library's report, serialized in main
# ---------------------------------------------------------------------------


def _cmd_search(args, cfg: RunConfig):
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    if args.method == "pigeonhole":
        res = pigeonhole_witness(gamma, args.base, args.limit)
    else:
        res = oracle_min(gamma, args.base, args.limit, cap=cfg.enumeration_cap)
    return {**vars(res), "N": args.limit}


def _cmd_diffset(args, cfg: RunConfig):
    N = args.limit
    S = list(ds.iter_spec_upto(args.base, N, cap=cfg.enumeration_cap))
    if args.method == "differences":
        return {"b": args.base, "N": N, "set_size": len(S),
                "differences": sorted(positive_differences(S))}
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    cap = anchored_cap(args.base, N) if args.base >= 3 else None
    rep = max_difference_set(S, args.method, node_budget=cfg.node_budget, bound=cap)
    return {**vars(rep), "b": args.base, "N": N}


def _cmd_expsum(args, cfg: RunConfig):
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    if args.method == "shifts":
        if args.beta is None:
            raise DomainError("the shifts method needs --beta")
        beta = parse_rational(args.beta)
        sep = separation_check(args.base, args.r, beta, gamma)
        shifts = small_shift_count(args.base, args.r, args.k, gamma, beta)
        return {"separation": sep, "shifts": shifts}
    if args.method == "decay":
        if args.m is None:
            raise DomainError("the decay check needs --m")
        return decay_bound_check(args.base, args.r, args.k, args.m, gamma)
    return eval_expsum(args.base, args.r, args.k, gamma)


def _cmd_discrepancy(args, cfg: RunConfig):
    gamma = Real.parse(args.gamma, cfg.precision_bits)
    if args.G is not None:
        return erdos_turan_check(gamma, args.limit, args.G, cap=cfg.enumeration_cap)
    return discrepancy_L(fractional_orbit(gamma, args.limit, cap=cfg.enumeration_cap))


def _cmd_adversary(args, cfg: RunConfig):
    if args.method == "no-multiples":
        if args.k is None or args.t is None:
            raise DomainError("the no-multiples check needs --k and --t")
        return no_multiples_check(args.base, args.k, args.t, args.e_max, cap=cfg.enumeration_cap)
    if args.limit is None:
        raise DomainError("adversary needs --count")
    return adversarial_gamma(args.base, args.limit)


def _cmd_constants(args, cfg: RunConfig):
    cs = compute_constants(args.base, precision_bits=cfg.precision_bits)
    if args.limit is None:
        return cs
    bound = approximation_bound(cs, args.limit, cfg.precision_bits)
    return {**vars(cs), "bound_at_N": bound}


def _cmd_verify_all(args, cfg: RunConfig):
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
        ("certificate", "no-multiples"), ("--base", "--limit", "--k", "--t", "--e-max"))
    add("constants", _cmd_constants, "the explicit constant chain",
        flags=("--base", "--limit", "--precision-bits"))
    add("verify-all", _cmd_verify_all, "run the acceptance suite")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _argv_table() -> dict:
    """Per subcommand of _parser(): its flags (each spelling -> the argparse
    action that stores its one value), its defaults (the handler and the
    subcommand's name included) and its required dests."""
    parser = _parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, p in sub.choices.items():
        flags = {flag: a for a in p._actions if type(a) is argparse._StoreAction
                 for flag in a.option_strings}
        defaults = {**p._defaults, sub.dest: name}
        defaults.update((a.dest, a.default) for a in p._actions
                        if a.dest != argparse.SUPPRESS and a.default is not argparse.SUPPRESS)
        required = {a.dest for a in flags.values() if a.required}
        table[name] = (flags, defaults, required)
    return table


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace parse_args gives a well-formed argv: a subcommand, then
    "--flag value" pairs, each flag spelled in full and naming its dest
    once, each value not starting with "-" and passing the flag's type and
    choices, every required flag given.  None for any other argv."""
    entry = _argv_table().get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    flags, defaults, required = entry
    values = {}
    for flag, raw in zip(argv[1::2], argv[2::2]):
        action = flags.get(flag)
        if action is None or action.dest in values or raw.startswith("-"):
            return None
        try:
            value = raw if action.type is None else action.type(raw)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


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
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        started = time.perf_counter()
        report = _write(args.handler(args, cfg), "\n  ")
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
        meta = {
            "tool": "radixapprox",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": cfg,
            "wall_time_ms": _Number(round(wall_ms, 3)),
        }
        text = '{\n  "report": ' + report + ',\n  "meta": ' + _write(meta, "\n  ") + "\n}\n"
    elif cfg.output_format == "csv":
        row = _csv_row(args, json.loads(report))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        text = buf.getvalue()
    else:
        text = _human(json.loads(report)) + "\n"
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
