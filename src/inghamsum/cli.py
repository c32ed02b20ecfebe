"""Command-line front end.

Subcommands: sieve, mean, ingham, verify {theorem1,theorem2,theorem3,
wintner,axer}, lemma, identity {sdiff,sdecomp,smult,difference}, report.
Outputs are deterministic: the same configuration and build produce
byte-identical CSV/JSON artifacts.

Exit statuses: 0 success (all checks passed where applicable), 2 parse
or validation error, 3 capacity error, 4 numerical failure (quadrature
non-convergence or a singular Euler factor), 5 I/O error.

Every long option can also be supplied through an environment variable
prefixed INGHAMSUM_ (e.g. INGHAMSUM_QUAD_TOL); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .dirichlet import EvalParams, euler_product
from .errors import CapacityError, QuadratureError, SingularFactorError, SpecFormatError
from .report import (
    CSV_COLUMNS,
    ReportRow,
    VerificationReport,
    canonical_json_bytes,
    csv_bytes,
    jsonable,
)
from .sequences import (
    BUILTIN_SEQUENCES,
    CoefficientSequence,
    MultiplicativeSpec,
    a_from_f,
    extend_completely_multiplicative,
    named_sequence,
)
from .sieve import SieveTable, build_sieve
from .summation import batch_sums, ingham_A
from .verify import (
    LEMMA_ENVELOPE,
    TrendPolicy,
    check_axer,
    check_wintner,
    difference_identity_check,
    lemma_ratio_suite,
    s_decomposition_identity,
    s_difference_identity,
    s_multiplicative_identity,
    theorem1_residual,
    theorem2_conditions,
    theorem3_check,
)

_ENV_PREFIX = "INGHAMSUM_"

# Two tables are plenty for one process; repeated CLI calls in a test
# session reuse them (tables are immutable).
_TABLE_CACHE: dict[int, SieveTable] = {}


def _get_table(limit: int) -> SieveTable:
    limit = max(limit, 2)
    if limit not in _TABLE_CACHE:
        if len(_TABLE_CACHE) >= 2:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[limit] = build_sieve(limit)
    return _TABLE_CACHE[limit]


def _env(name: str):
    return os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"))


def _opt(value, name: str, default, cast=float):
    if value is not None:
        return value
    raw = _env(name)
    if raw is not None:
        return cast(raw)
    return default


def parse_grid(text: str) -> list[int]:
    """Grid syntax: explicit '10,100,1000' or geometric 'a:b:xF'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise SpecFormatError(f"grid {text!r}: expected START:END:xFACTOR")
        start, end = float(parts[0]), float(parts[1])
        factor = float(parts[2][1:])
        if start < 1 or end < start or factor <= 1:
            raise SpecFormatError(f"grid {text!r}: need 1 <= start <= end, factor > 1")
        out = []
        value = start
        while value <= end * (1 + 1e-9):
            out.append(round(value))
            value *= factor
        # Small factors round several steps to one integer; keep each once.
        return list(dict.fromkeys(out))
    try:
        out = [round(float(x)) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise SpecFormatError(f"grid {text!r}: {exc}") from None
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise SpecFormatError(f"grid {text!r}: must be strictly ascending")
    return out


def _parse_pair(obj, where: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise SpecFormatError(f"{where}: expected [re, im] pair, got {obj!r}")


def load_spec_file(path: str) -> MultiplicativeSpec | list[complex]:
    """Parse a JSON function spec or coefficient file.

    Multiplicative spec: {"type": "completely_multiplicative",
    "cutoff": N, "default": [re, im], "primes": {"2": [re, im], ...},
    "bound_check": true}. Coefficients: {"type": "coefficients",
    "values": [[re, im], ...]}.
    """
    if not os.path.exists(path):
        raise SpecFormatError(f"{path}: no such spec file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None
    kind = data.get("type")
    if kind == "completely_multiplicative":
        cutoff = data.get("cutoff")
        if not isinstance(cutoff, int) or cutoff < 1:
            raise SpecFormatError(f"{path}: cutoff: expected a positive integer")
        default = _parse_pair(data.get("default", 1.0), f"{path}: default")
        primes = {}
        for key, val in data.get("primes", {}).items():
            try:
                p = int(key)
            except ValueError:
                raise SpecFormatError(f"{path}: primes[{key!r}]: key is not an integer") from None
            primes[p] = _parse_pair(val, f"{path}: primes[{key}]")
        bound_check = bool(data.get("bound_check", True))
        try:
            return MultiplicativeSpec(primes, cutoff, default, bound_check)
        except SpecFormatError as exc:
            raise SpecFormatError(f"{path}: {exc}") from None
    if kind == "coefficients":
        values = data.get("values")
        if not isinstance(values, list) or not values:
            raise SpecFormatError(f"{path}: values: expected a non-empty list")
        return [_parse_pair(v, f"{path}: values[{i}]") for i, v in enumerate(values)]
    raise SpecFormatError(
        f"{path}: type: expected 'completely_multiplicative' or 'coefficients', got {kind!r}"
    )


def resolve_coeffs(name_or_path: str, n: int, table: SieveTable) -> CoefficientSequence:
    """A coefficient sequence from a builtin name or a JSON file."""
    if name_or_path is None:
        raise SpecFormatError("a coefficient sequence is required (--coeffs)")
    if name_or_path in BUILTIN_SEQUENCES:
        return named_sequence(name_or_path, n, table)
    if not os.path.exists(name_or_path):
        raise SpecFormatError(
            f"{name_or_path!r} is neither a builtin sequence "
            f"({', '.join(BUILTIN_SEQUENCES)}) nor an existing file"
        )
    loaded = load_spec_file(name_or_path)
    if isinstance(loaded, MultiplicativeSpec):
        f = extend_completely_multiplicative(loaded, table, n)
        return a_from_f(table, f)
    if len(loaded) < n:
        raise SpecFormatError(
            f"{name_or_path}: provides {len(loaded)} coefficients, need {n}"
        )
    return CoefficientSequence.from_values(loaded[:n])


def _load_multiplicative(path: str) -> MultiplicativeSpec:
    loaded = load_spec_file(path)
    if not isinstance(loaded, MultiplicativeSpec):
        raise SpecFormatError(f"{path}: expected a completely_multiplicative spec")
    return loaded


def _write(out: str, payload: bytes) -> None:
    if out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def _emit(args, experiment_id: str, columns, rows, summary) -> None:
    if args.format == "csv":
        _write(args.out, csv_bytes(columns, rows))
    else:
        payload = {
            "experiment_id": experiment_id,
            "rows": [jsonable(r) for r in rows],
            "summary": jsonable(summary),
        }
        _write(args.out, canonical_json_bytes(payload))


def _emit_report(args, report: VerificationReport) -> None:
    payload = report.to_csv_bytes() if args.format == "csv" else report.to_json_bytes()
    _write(args.out, payload)


# -- subcommand implementations ----------------------------------------


def _cmd_sieve(args) -> int:
    n = parse_grid(args.n)[-1]
    table = build_sieve(n)
    mu = table.mobius_array
    lam = table.mangoldt_array
    psi = table.psi_prefix
    rows = [
        {
            "m": m,
            "spf": int(table.spf[m]),
            "mu": int(mu[m]),
            "mangoldt": float(lam[m]),
            "psi": float(psi[m]),
        }
        for m in range(2, n + 1)
    ]
    _emit(args, "sieve", ("m", "spf", "mu", "mangoldt", "psi"), rows, {"limit": n})
    return 0


def _cmd_mean(args) -> int:
    grid = parse_grid(args.n)
    alpha = _opt(args.alpha, "alpha", 2.0)
    table = _get_table(grid[-1])
    spec = _load_multiplicative(args.spec)
    f = extend_completely_multiplicative(spec, table, grid[-1])
    rows = []
    ratios = []
    t0 = time.perf_counter()
    for n in grid:
        chk = theorem3_check(spec, table, n, alpha, f_values=f)
        sigma = 1.0 + 1.0 / math.log(n)
        rows.append(
            ReportRow(
                n=n,
                mean=chk.mean,
                g=euler_product(spec, table, sigma, min(spec.cutoff, table.limit)),
                euler_product_at_1=chk.product,
                residual_t3=chk.residual,
                mu_alpha=chk.mu,
                ratio=chk.ratio,
                ratio_infinite=chk.ratio_infinite,
                passed=not chk.ratio_infinite,
            )
        )
        if chk.ratio is not None:
            ratios.append(chk.ratio)
    report = VerificationReport(
        "mean",
        rows,
        {
            "pass": all(r.passed for r in rows),
            "max_residual": max((r.residual_t3 for r in rows), default=0.0),
            "ratio_estimate": max(ratios, default=0.0),
            "alpha": alpha,
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    _emit_report(args, report)
    return 0


_INGHAM_COLUMNS = (
    "n",
    "re_A",
    "im_A",
    "re_S",
    "im_S",
    "re_norm_a",
    "im_norm_a",
    "re_norm_s",
    "im_norm_s",
)


def _cmd_ingham(args) -> int:
    grid = parse_grid(args.n)
    table = _get_table(grid[-1])
    seq = resolve_coeffs(args.coeffs, grid[-1], table)
    rows = []
    for v in batch_sums(seq, grid):
        rows.append(
            {
                "n": v.n,
                "re_A": v.A.real,
                "im_A": v.A.imag,
                "re_S": v.S.real,
                "im_S": v.S.imag,
                "re_norm_a": v.normalized_A.real,
                "im_norm_a": v.normalized_A.imag,
                "re_norm_s": None if v.normalized_S is None else v.normalized_S.real,
                "im_norm_s": None if v.normalized_S is None else v.normalized_S.imag,
            }
        )
    _emit(args, "ingham", _INGHAM_COLUMNS, rows, {"coeffs": args.coeffs})
    return 0


def _cmd_verify(args) -> int:
    grid = parse_grid(args.n)
    table = _get_table(grid[-1])
    policy = TrendPolicy()
    alpha = _opt(args.alpha, "alpha", 2.0)
    t0 = time.perf_counter()

    if args.check == "theorem1":
        envelope = _opt(args.envelope, "envelope", policy.t1_envelope)
        if not args.spec and not args.coeffs:
            raise SpecFormatError("verify theorem1 needs --spec or --coeffs")
        spec = _load_multiplicative(args.spec) if args.spec else None
        if spec is not None:
            f = extend_completely_multiplicative(spec, table, grid[-1])
            seq = a_from_f(table, f)
        else:
            seq = resolve_coeffs(args.coeffs, grid[-1], table)
        rows = []
        for n in grid:
            residual = theorem1_residual(seq, n, spec=spec, table=table)
            sigma = 1.0 + 1.0 / math.log(n)
            g = (
                euler_product(spec, table, sigma, min(spec.cutoff, table.limit))
                if spec is not None
                else None
            )
            rows.append(
                ReportRow(
                    n=n,
                    mean=ingham_A(seq, n) / n,
                    g=g,
                    residual_t1=residual,
                    passed=residual <= envelope / math.log(n),
                )
            )
        report = VerificationReport(
            "verify-theorem1",
            rows,
            {
                "pass": all(r.passed for r in rows),
                "max_residual": max(r.residual_t1 for r in rows),
                "thresholds": {"envelope_over_log_n": envelope},
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        _emit_report(args, report)
        return 0

    if args.check == "theorem2":
        sigma_grid = (
            [float(s) for s in args.sigma.split(",")]
            if args.sigma
            else [2.0, 1.5, 1.25, 1.125, 1.0625]
        )
        seq = resolve_coeffs(args.coeffs, grid[-1], table)
        report = theorem2_conditions(seq, grid, sigma_grid, policy=policy)
        _emit_report(args, report)
        return 0

    if args.check == "theorem3":
        envelope = _opt(args.envelope, "envelope", policy.t3_ratio_envelope)
        spec = _load_multiplicative(args.spec)
        f = extend_completely_multiplicative(spec, table, grid[-1])
        rows = []
        ratios = []
        for n in grid:
            chk = theorem3_check(spec, table, n, alpha, f_values=f)
            ok = not chk.ratio_infinite and (chk.ratio or 0.0) <= envelope
            rows.append(
                ReportRow(
                    n=n,
                    mean=chk.mean,
                    euler_product_at_1=chk.product,
                    residual_t3=chk.residual,
                    mu_alpha=chk.mu,
                    ratio=chk.ratio,
                    ratio_infinite=chk.ratio_infinite,
                    passed=ok,
                )
            )
            if chk.ratio is not None:
                ratios.append(chk.ratio)
        report = VerificationReport(
            "verify-theorem3",
            rows,
            {
                "pass": all(r.passed for r in rows),
                "ratio_estimate": max(ratios, default=0.0),
                "thresholds": {"ratio_envelope": envelope, "alpha": alpha},
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        _emit_report(args, report)
        return 0

    if args.check == "wintner":
        seq = resolve_coeffs(args.coeffs, grid[-1], table)
        rows = []
        for n in grid:
            res = check_wintner(seq, n)
            rows.append(
                ReportRow(n=n, mean=res.mean, g=res.target, residual_t1=res.residual)
            )
        report = VerificationReport(
            "verify-wintner",
            rows,
            {
                "max_residual": max(r.residual_t1 for r in rows),
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        _emit_report(args, report)
        return 0

    if args.check == "axer":
        envelope = _opt(args.envelope, "envelope", policy.axer_bound)
        seq = resolve_coeffs(args.coeffs, grid[-1], table)
        ratios = check_axer(seq, grid)
        rows = [
            ReportRow(n=n, s_ratio=float(r), passed=float(r) <= envelope)
            for n, r in zip(grid, ratios)
        ]
        report = VerificationReport(
            "verify-axer",
            rows,
            {
                "pass": all(r.passed for r in rows),
                "max_residual": float(np.max(ratios)),
                "thresholds": {"bound": envelope},
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        _emit_report(args, report)
        return 0

    raise SpecFormatError(f"unknown verify check {args.check!r}")


_LEMMA_COLUMNS = ("family", "t", "x", "k", "value", "bound", "ratio", "pass")


def _cmd_lemma(args) -> int:
    envelope = _opt(args.envelope, "envelope", LEMMA_ENVELOPE)
    quad_tol = _opt(args.quad_tol, "quad-tol", 1e-8)
    tail_tol = _opt(args.tail_tol, "tail-tol", 1e-10)
    table = _get_table(1_000_000)
    rows = lemma_ratio_suite(
        table, envelope=envelope, quad_tol=quad_tol, tail_tol=tail_tol
    )
    summary = {
        "pass": all(r["pass"] for r in rows),
        "envelope": envelope,
        "suprema": {
            fam: max(r["ratio"] for r in rows if r["family"] == fam)
            for fam in dict.fromkeys(r["family"] for r in rows)
        },
    }
    _emit(args, "lemma", _LEMMA_COLUMNS, rows, summary)
    return 0


_IDENTITY_COLUMNS = ("check", "n", "truncation", "error", "scale", "pass")


def _cmd_identity(args) -> int:
    n = parse_grid(args.n)[-1]
    quad_tol = _opt(args.quad_tol, "quad-tol", 1e-8)
    tail_tol = _opt(args.tail_tol, "tail-tol", 1e-10)
    envelope = _opt(args.envelope, "envelope", 1e-8)

    if args.check == "smult":
        table = _get_table(n)
        spec = _load_multiplicative(args.spec)
        err = s_multiplicative_identity(spec, table, n)
        scale = max(1.0, n * math.log(n))
    elif args.check == "difference":
        truncation = int(_opt(args.truncation, "truncation", 10**6, int))
        table = _get_table(max(n, truncation))
        seq = resolve_coeffs(args.coeffs, truncation, table)
        params = EvalParams(
            sigma=1.5, truncation=truncation, quad_tol=quad_tol, tail_tol=tail_tol
        )
        res = difference_identity_check(seq, table, n, params)
        rows = [
            {
                "check": "difference",
                "n": n,
                "truncation": truncation,
                "error": res.error,
                "scale": 1.0,
                "pass": res.error <= _opt(args.envelope, "envelope", 1e-5),
            }
        ]
        summary = {
            "lhs": res.lhs,
            "rhs": res.rhs,
            "tail_correction": res.tail_correction,
            "tail_slack": res.tail_slack,
            "quad_error": res.quad_error,
            "pass": rows[0]["pass"],
        }
        _emit(args, "identity-difference", _IDENTITY_COLUMNS, rows, summary)
        return 0
    else:
        table = _get_table(n)
        seq = resolve_coeffs(args.coeffs, n, table)
        if args.check == "sdiff":
            err = s_difference_identity(seq, table, n)
            scale = max(1.0, float(np.max(np.abs(seq.prefix_alog[: n + 1]))))
        elif args.check == "sdecomp":
            err = s_decomposition_identity(seq, table, n)
            scale = max(1.0, n * math.log(n))
        else:
            raise SpecFormatError(f"unknown identity check {args.check!r}")

    rel = err / scale
    rows = [
        {
            "check": args.check,
            "n": n,
            "truncation": None,
            "error": err,
            "scale": scale,
            "pass": rel <= envelope,
        }
    ]
    _emit(
        args,
        f"identity-{args.check}",
        _IDENTITY_COLUMNS,
        rows,
        {"relative_error": rel, "envelope": envelope, "pass": rows[0]["pass"]},
    )
    return 0


def _cmd_report(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{args.infile}: invalid JSON ({exc})") from None
    for key in ("experiment_id", "rows", "summary"):
        if key not in data:
            raise SpecFormatError(f"{args.infile}: missing key {key!r}")
    if args.format == "json":
        _write(args.out, canonical_json_bytes(data))
        return 0
    rows = data["rows"]
    if rows and set(rows[0]) == set(ReportRow(n=1).to_json_obj()):
        flat = []
        for r in rows:
            flat.append(
                {
                    "n": r["n"],
                    "re_mean": None if r["mean"] is None else r["mean"][0],
                    "im_mean": None if r["mean"] is None else r["mean"][1],
                    "re_g": None if r["g"] is None else r["g"][0],
                    "im_g": None if r["g"] is None else r["g"][1],
                    "residual_t1": r["residual_t1"],
                    "residual_t3": r["residual_t3"],
                    "mu_alpha": r["mu_alpha"],
                    "s_ratio": r["s_ratio"],
                    "pass": r["pass"],
                }
            )
        _write(args.out, csv_bytes(CSV_COLUMNS, flat))
        return 0
    columns = []
    for key, value in rows[0].items():
        if isinstance(value, list) and len(value) == 2:
            columns.extend([f"re_{key}", f"im_{key}"])
        else:
            columns.append(key)
    flat = []
    for r in rows:
        row = {}
        for key, value in r.items():
            if isinstance(value, list) and len(value) == 2:
                row[f"re_{key}"], row[f"im_{key}"] = value
            else:
                row[key] = value
        flat.append(row)
    _write(args.out, csv_bytes(tuple(columns), flat))
    return 0


# -- argument wiring ----------------------------------------------------


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_tols(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quad-tol", type=float, default=None, help="quadrature tolerance")
    parser.add_argument("--tail-tol", type=float, default=None, help="tail cut tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inghamsum",
        description="Ingham sums, Dirichlet series and Euler products, with verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="emit sieve-derived arithmetic tables")
    p.add_argument("--n", required=True, help="table limit (grid notation; max is used)")
    _add_io(p)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("mean", help="mean values of a multiplicative function")
    p.add_argument("--spec", required=True, help="multiplicative spec JSON")
    p.add_argument("--n", required=True, help="n grid")
    p.add_argument("--alpha", type=float, default=None)
    _add_io(p)
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("ingham", help="Ingham sums A(n), S(n) along a grid")
    p.add_argument("--coeffs", required=True, help=f"builtin ({', '.join(BUILTIN_SEQUENCES)}) or JSON path")
    p.add_argument("--n", required=True, help="n grid")
    _add_io(p)
    p.set_defaults(func=_cmd_ingham)

    p = sub.add_parser("verify", help="theorem condition reports")
    p.add_argument("check", choices=("theorem1", "theorem2", "theorem3", "wintner", "axer"))
    p.add_argument("--spec", default=None, help="multiplicative spec JSON")
    p.add_argument("--coeffs", default=None, help="coefficient sequence name or path")
    p.add_argument("--n", "--grid", dest="n", required=True, help="n grid")
    p.add_argument("--sigma", default=None, help="descending sigma list, comma separated")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--envelope", type=float, default=None, help="frozen-constant override")
    _add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma", help="f_t estimate-family ratio suite")
    p.add_argument("--envelope", type=float, default=None)
    _add_tols(p)
    _add_io(p)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("identity", help="exact identity checks")
    p.add_argument("check", choices=("sdiff", "sdecomp", "smult", "difference"))
    p.add_argument("--spec", default=None)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--n", required=True)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--envelope", type=float, default=None)
    _add_tols(p)
    _add_io(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("report", help="re-render a JSON report")
    p.add_argument("--in", dest="infile", required=True, help="JSON report path")
    _add_io(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, SingularFactorError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (SpecFormatError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
