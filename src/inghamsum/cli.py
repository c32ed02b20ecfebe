"""Command-line front end.

Commands: sieve, mean, ingham, verify {theorem1,theorem2,theorem3,
wintner,axer}, lemma, identity {sdiff,sdecomp,smult,difference}, report.
Outputs are deterministic: the same configuration and build produce
byte-identical CSV/JSON artifacts. The library makes no BLAS call, and
the difference identity's reductions are numpy pairwise sums in a fixed
order, so an artifact does not depend on the BLAS thread count. The CLI
sets ``OPENBLAS_NUM_THREADS=1`` unless it is already set, so no idle
OpenBLAS worker spins at start-up; the library sets nothing.

Every command returns one VerificationReport, fully computed before
``main`` opens the output, except for the rows of ``sieve``, and
``main`` is its only writer. ``ingham`` holds its columns as arrays;
``sieve`` builds its rows one segment of integers at a time
(:meth:`SieveTable.segments`) as ``main`` writes them, so its memory
does not grow with N beyond the primes. ``main`` streams every report
in chunks of ``report.CHUNK_ROWS`` (4096) rows, so the memory a report
adds beyond its arrays is bounded by the chunk size, about 5 MB for
``sieve --n 300000``; the bytes are the same as one whole-document
write. ``report
--in`` reads its JSON into such arrays, in runs of rows, as a coefficient
file's values are read in runs (:func:`load_spec_file`). ``mean`` and
``verify theorem1 --spec`` size the sieve to cover the spec's Euler
product (see README), and a --coeffs file builds no sieve outside the
identity checks.

Exit statuses: 0 the report was written (a failed verdict shows as
"pass": false in its summary, not in the status), 2 parse or validation
error (a number that is nan or infinite included), 3 capacity error
(e.g. a spec cutoff above the sieve cap), 4 numerical failure
(quadrature non-convergence, a singular Euler factor, or a sum of
finite terms that overflows), 5 I/O error.

Each command reads the options of its row in ``_COMMANDS``, with --out
and --format; its --help lists exactly these, and any other option
exits 2 with an "error:" line naming it. Five options also read
INGHAMSUM_<OPTION> when the flag is not given: --alpha, --envelope,
--quad-tol, --tail-tol and --truncation (e.g. INGHAMSUM_QUAD_TOL);
explicit flags win, and a variable is read only by the commands that
read its option. Every float flag, --sigma value and INGHAMSUM_* value
read must parse and be finite, an envelope must be above 0, an alpha
and each sigma above 1 (the --sigma list descending), and --quad-tol
and --tail-tol must lie in (0, 1), or it exits 2 with an "error:" line
naming it, before any sieve is built; so does a bad --coeffs or --spec,
and a --n grid with a value below 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Before numpy loads: the package makes no BLAS call (test_the_package_makes_no_blas_call).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import CapacityError, QuadratureError, SingularFactorError, SpecFormatError
from .quadrature import QUAD_TOL, TAIL_TOL
from .report import Columns, VerificationReport, read_json_object, read_json_report
from .sequences import (
    BUILTIN_SEQUENCES,
    CoefficientSequence,
    MultiplicativeSpec,
    a_from_f,
    extend_completely_multiplicative,
    log_index,
    named_sequence,
    times_log,
)
from .sieve import SieveTable, build_sieve
from .summation import batch_sums
from .verify import (
    AXER_BOUND,
    LEMMA_ENVELOPE,
    THEOREM1_ENVELOPE,
    THEOREM3_RATIO_ENVELOPE,
    axer_report,
    difference_identity_check,
    lemma_ratio_suite,
    mean_report,
    s_decomposition_identity,
    s_difference_identity,
    s_multiplicative_identity,
    theorem1_report,
    theorem1_spec_report,
    theorem2_conditions,
    theorem3_report,
    wintner_report,
)

_ENV_PREFIX = "INGHAMSUM_"
# The Hoelder exponent of `mean` and `verify theorem3` unless --alpha is given.
_ALPHA = 2.0
# The relative-error envelope of the S identities unless --envelope is given.
_IDENTITY_ENVELOPE = 1e-8
# The open range (low, high) of each bounded option, high None for no
# upper bound; a value outside fails fast. An envelope <= 0 would fail
# every row, the mean-value bound needs alpha > 1, and a tolerance is a
# fraction in (0, 1), as the quadrature and the identity checks take it.
_RANGES = {"envelope": (0, None), "alpha": (1, None), "quad-tol": (0, 1), "tail-tol": (0, 1)}


def _get_table(limit: int) -> SieveTable:
    return build_sieve(max(limit, 2))


def _number(raw, source: str, cast=float):
    """cast(raw), or SpecFormatError (exit 2) naming source when raw does
    not parse or gives a nan or infinite float. Ints pass whole: they are
    finite, and math.isfinite would overflow on one above the float range."""
    try:
        value = cast(raw)
    except ValueError as exc:
        raise SpecFormatError(f"{source}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise SpecFormatError(f"{source}: expected a finite number, got {value}")
    return value


def _opt(value, name: str, default, cast=float, above=None):
    """The flag's value, else INGHAMSUM_<NAME>'s, else default, through
    :func:`_number`; it must also exceed ``above`` (by default lie in the
    name's range in _RANGES), or SpecFormatError."""
    source = f"--{name}"
    if value is None:
        source = _ENV_PREFIX + name.upper().replace("-", "_")
        raw = os.environ.get(source)
        value = default if raw is None else raw
    value = _number(value, source, cast)
    low, high = _RANGES.get(name, (None, None)) if above is None else (above, None)
    if (low is not None and not value > low) or (high is not None and not value < high):
        expected = f"> {low}" if high is None else f"in ({low}, {high})"
        raise SpecFormatError(f"{source}: expected a number {expected}, got {value}")
    return value


def parse_grid(text: str) -> list[int]:
    """Grid syntax: explicit '10,100,1000' or geometric 'a:b:xF', all
    finite and at least 1."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise SpecFormatError(f"grid {text!r}: expected START:END:xFACTOR")
        start, end = float(parts[0]), float(parts[1])
        factor = float(parts[2][1:])
        top = end * (1 + 1e-9)
        if not all(map(math.isfinite, (start, top, factor))):
            raise SpecFormatError(f"grid {text!r}: values must be finite")
        if start < 1 or end < start or factor <= 1:
            raise SpecFormatError(f"grid {text!r}: need 1 <= start <= end, factor > 1")
        return _geometric_grid(start, top, factor)
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
        out = [round(x) for x in values]
    except (ValueError, OverflowError) as exc:
        raise SpecFormatError(f"grid {text!r}: {exc}") from None
    if any(not x >= 1 for x in values):
        raise SpecFormatError(f"grid {text!r}: values must be >= 1")
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise SpecFormatError(f"grid {text!r}: must be strictly ascending")
    return out


def _geometric_grid(start: float, top: float, factor: float) -> list[int]:
    """Each integer round(start * factor**k) with start * factor**k <= top
    once, ascending. After keeping m, k jumps to the first value of at
    least m + 0.5, and steps back where rounding in the logarithms overshot."""
    out = []
    log_factor = math.log(factor)
    k = 0
    while True:
        try:
            value = start * factor**k
        except OverflowError:  # beyond every finite top
            break
        if not value <= top:
            break
        m = round(value)
        if not out or m > out[-1]:
            out.append(m)
        nxt = max(k + 1, math.ceil(math.log((m + 0.5) / start) / log_factor))
        while nxt - 1 > k and round(start * factor ** (nxt - 1)) > m:
            nxt -= 1
        k = nxt
    return out


def _pair(obj) -> complex:
    """A number or an [re, im] pair as a complex number; TypeError,
    ValueError or OverflowError when it is neither, and ValueError when a
    part is not finite."""
    if isinstance(obj, list) and len(obj) == 2:
        z = complex(float(obj[0]), float(obj[1]))
    elif isinstance(obj, (int, float)):
        z = complex(obj)
    else:
        raise TypeError(obj)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(obj)
    return z


def _bad_pair(obj, where: str) -> SpecFormatError:
    return SpecFormatError(f"{where}: expected a finite number or [re, im] pair, got {obj!r}")


def _parse_pair(obj, where: str) -> complex:
    try:
        return _pair(obj)
    except (TypeError, ValueError, OverflowError):
        raise _bad_pair(obj, where) from None


def _coefficients(values: list, path: str, start: int = 0) -> np.ndarray:
    """The items of a non-empty run of a ``values`` list, the first at
    index start, as a complex128 array.

    A run of finite numbers, or of finite [re, im] pairs, is one array
    conversion; numpy infers the dtype, so only numbers and bools take
    that route, as :func:`_pair` accepts them. Any other run is walked
    item by item, which gives the same values or names the first bad
    item by its index in the whole list.
    """
    try:
        parts = np.array(values)
    except (ValueError, OverflowError):  # ragged, or an int too large
        parts = None
    if parts is not None and parts.dtype.kind in "biuf" and parts.shape[1:] in ((), (2,)):
        parts = parts.astype(np.float64, copy=False)
        if np.isfinite(parts).all():
            z = np.zeros(len(values), dtype=np.complex128)
            if parts.ndim == 1:
                z.real = parts
            else:
                z.real, z.imag = parts[:, 0], parts[:, 1]
            return z
    out = []
    for i, v in enumerate(values, start):
        try:
            out.append(_pair(v))
        except (TypeError, ValueError, OverflowError):
            raise _bad_pair(v, f"{path}: values[{i}]") from None
    return np.array(out, dtype=np.complex128)


def _coefficient_runs(runs, path: str) -> np.ndarray | SpecFormatError | None:
    """A ``values`` list read in runs, each converted by
    :func:`_coefficients` and joined once, as a complex128 array (None
    for an empty list); or the error that names its first bad item,
    returned once the rest of the list is read, so that a JSON error
    later in the file, or a type other than coefficients, is reported
    first, as for a whole-document read."""
    parts, count, bad = [], 0, None
    for run in runs:
        if bad is None:
            try:
                parts.append(_coefficients(run, path, count))
            except SpecFormatError as exc:
                bad, parts = exc, []
        count += len(run)
    if bad is not None:
        return bad
    if len(parts) > 1:
        return np.concatenate(parts)
    return parts[0] if parts else None


def load_spec_file(path: str) -> MultiplicativeSpec | np.ndarray:
    """Parse a JSON function spec or coefficient file.

    Multiplicative spec: {"type": "completely_multiplicative",
    "cutoff": N, "default": [re, im], "primes": {"2": [re, im], ...},
    "bound_check": true}. Coefficients: {"type": "coefficients",
    "values": [[re, im], ...]}, returned as a complex128 array. Every
    number must be finite.

    The file is read by :func:`report.read_json_object`, never whole:
    keys in any order, and a ``values`` list in runs of about 64 KiB of
    text, so a coefficient file's peak is about 32 bytes per value (the
    runs' arrays and the array they join to) beyond one run's objects.
    The whole file is read and checked, however many values a command
    uses.
    """
    if not os.path.exists(path):
        raise SpecFormatError(f"{path}: no such spec file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = read_json_object(fh, {"values": lambda runs: _coefficient_runs(runs, path)})
        except ValueError as exc:  # invalid JSON (a too-long integer too), or not an object
            raise SpecFormatError(f"{path}: {exc}") from None
    kind = data.get("type")
    if kind == "completely_multiplicative":
        cutoff = data.get("cutoff")
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 1:
            raise SpecFormatError(f"{path}: cutoff: expected a positive integer")
        default = _parse_pair(data.get("default", 1.0), f"{path}: default")
        listed = data.get("primes", {})
        if not isinstance(listed, dict):
            raise SpecFormatError(f"{path}: primes: expected an object")
        primes = {}
        for key, val in listed.items():
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
        if isinstance(values, SpecFormatError):
            raise values
        if not isinstance(values, np.ndarray):
            raise SpecFormatError(f"{path}: values: expected a non-empty list")
        return values
    raise SpecFormatError(
        f"{path}: type: expected 'completely_multiplicative' or 'coefficients', got {kind!r}"
    )


def _coeffs_builder(name_or_path: str, n: int):
    """The coefficient sequence of a builtin name or a JSON file, as a
    function of a function that gives the table, called only for a
    builtin or a spec: a coefficient file reads no table. A missing name
    or a bad or short file fails here, before any table is built."""
    if name_or_path is None:
        raise SpecFormatError("a coefficient sequence is required (--coeffs)")
    if name_or_path in BUILTIN_SEQUENCES:
        return lambda table_of: named_sequence(name_or_path, n, table_of())
    if not os.path.exists(name_or_path):
        raise SpecFormatError(
            f"{name_or_path!r} is neither a builtin sequence "
            f"({', '.join(BUILTIN_SEQUENCES)}) nor an existing file"
        )
    loaded = load_spec_file(name_or_path)
    if isinstance(loaded, MultiplicativeSpec):

        def from_spec(table_of):
            table = table_of()
            return a_from_f(table, extend_completely_multiplicative(loaded, table, n))

        return from_spec
    if len(loaded) < n:
        raise SpecFormatError(
            f"{name_or_path}: provides {len(loaded)} coefficients, need {n}"
        )
    return lambda table_of: CoefficientSequence.from_values(loaded[:n])


def _load_multiplicative(path: str | None) -> MultiplicativeSpec:
    if path is None:
        raise SpecFormatError("a multiplicative spec is required (--spec)")
    loaded = load_spec_file(path)
    if not isinstance(loaded, MultiplicativeSpec):
        raise SpecFormatError(f"{path}: expected a completely_multiplicative spec")
    return loaded


def _spec_table(spec: MultiplicativeSpec, top: int) -> SieveTable:
    """A table up to top that also covers the spec's Euler product, so a
    row's g does not depend on the other grid points."""
    return _get_table(max(top, spec.euler_limit))


# -- commands: each turns its arguments into one report -------------------
# Each reads the grid, then every float flag, INGHAMSUM_* variable and
# truncation bound, and only then builds the sieve.


def _sequence(args, n: int) -> CoefficientSequence:
    """The --coeffs sequence of length n, checked first; a builtin or a
    spec then reads a table up to n."""
    return _coeffs_builder(args.coeffs, n)(lambda: _get_table(n))


def _sequence_and_table(args, n: int) -> tuple[CoefficientSequence, SieveTable]:
    """:func:`_sequence` and a table up to n, which the identity checks
    read whatever the source."""
    build = _coeffs_builder(args.coeffs, n)
    table = _get_table(n)
    return build(lambda: table), table


def _cmd_sieve(args) -> VerificationReport:
    n = parse_grid(args.n)[-1]
    table = build_sieve(n)
    names = ("m", "spf", "mu", "mangoldt", "psi")
    rows = Columns.from_blocks(n - 1, lambda: (Columns(dict(zip(names, s))) for s in table.segments()))
    return VerificationReport("sieve", rows, {"limit": n})


def _cmd_mean(args) -> VerificationReport:
    grid = parse_grid(args.n)
    spec = _load_multiplicative(args.spec)
    alpha = _opt(args.alpha, "alpha", _ALPHA)
    return mean_report(spec, _spec_table(spec, grid[-1]), grid, alpha)


def _cmd_ingham(args) -> VerificationReport:
    grid = parse_grid(args.n)
    values = batch_sums(_sequence(args, grid[-1]), grid)
    columns = {"n": np.array([v.n for v in values])}
    for name, key in (("A", "A"), ("S", "S"), ("norm_a", "normalized_A")):
        z = np.array([getattr(v, key) for v in values], dtype=np.complex128)
        columns[f"re_{name}"], columns[f"im_{name}"] = z.real, z.imag
    # S/(n log n) is undefined at n = 1.
    norm_s = [v.normalized_S for v in values]
    columns["re_norm_s"] = [None if z is None else z.real for z in norm_s]
    columns["im_norm_s"] = [None if z is None else z.imag for z in norm_s]
    return VerificationReport("ingham", Columns(columns), {"coeffs": args.coeffs})


def _cmd_theorem1(args) -> VerificationReport:
    # It reads --spec or --coeffs, not both, which argparse cannot declare.
    if args.spec and args.coeffs is not None:
        raise SpecFormatError("verify theorem1 --spec does not read --coeffs")
    grid = parse_grid(args.n)
    envelope = _opt(args.envelope, "envelope", THEOREM1_ENVELOPE)
    if args.spec:
        spec = _load_multiplicative(args.spec)
        return theorem1_spec_report(spec, _spec_table(spec, grid[-1]), grid, envelope)
    return theorem1_report(_sequence(args, grid[-1]), grid, envelope)


def _cmd_theorem2(args) -> VerificationReport:
    grid = parse_grid(args.n)
    sigma_grid = [2.0, 1.5, 1.25, 1.125, 1.0625]
    if args.sigma is not None:
        sigma_grid = [_opt(s, "sigma", None, above=1) for s in args.sigma.split(",")]
        if any(b >= a for a, b in zip(sigma_grid, sigma_grid[1:])):
            raise SpecFormatError(f"--sigma: expected a descending list, got {args.sigma}")
    return theorem2_conditions(_sequence(args, grid[-1]), grid, sigma_grid)


def _cmd_theorem3(args) -> VerificationReport:
    grid = parse_grid(args.n)
    spec = _load_multiplicative(args.spec)
    alpha = _opt(args.alpha, "alpha", _ALPHA)
    envelope = _opt(args.envelope, "envelope", THEOREM3_RATIO_ENVELOPE)
    return theorem3_report(spec, _get_table(grid[-1]), grid, alpha, envelope)


def _cmd_wintner(args) -> VerificationReport:
    grid = parse_grid(args.n)
    return wintner_report(_sequence(args, grid[-1]), grid)


def _cmd_axer(args) -> VerificationReport:
    grid = parse_grid(args.n)
    envelope = _opt(args.envelope, "envelope", AXER_BOUND)
    return axer_report(_sequence(args, grid[-1]), grid, envelope)


def _cmd_lemma(args) -> VerificationReport:
    envelope = _opt(args.envelope, "envelope", LEMMA_ENVELOPE)
    quad_tol = _opt(args.quad_tol, "quad-tol", QUAD_TOL)
    tail_tol = _opt(args.tail_tol, "tail-tol", TAIL_TOL)
    rows = lemma_ratio_suite(
        _get_table(1_000_000), envelope=envelope, quad_tol=quad_tol, tail_tol=tail_tol
    )
    summary = {
        "pass": all(r["pass"] for r in rows),
        "envelope": envelope,
        "suprema": {
            fam: max(r["ratio"] for r in rows if r["family"] == fam)
            for fam in dict.fromkeys(r["family"] for r in rows)
        },
    }
    return VerificationReport("lemma", rows, summary)


def _identity_report(check, n, error, scale, envelope, truncation=None, summary=None):
    """The one-row report of an identity check: it passes when error /
    scale is at most envelope. The summary defaults to that relative
    error and the envelope. OverflowError when error or scale is not
    finite."""
    if not (math.isfinite(error) and math.isfinite(scale)):
        raise OverflowError(f"identity {check}: error {error} and scale {scale} must be finite")
    relative = error / scale
    passed = relative <= envelope
    row = {"check": check, "n": n, "truncation": truncation, "error": error, "scale": scale}
    row["pass"] = passed
    if summary is None:
        summary = {"relative_error": relative, "envelope": envelope}
    return VerificationReport(f"identity-{check}", [row], {**summary, "pass": passed})


def _cmd_sdiff(args) -> VerificationReport:
    n = parse_grid(args.n)[-1]
    envelope = _opt(args.envelope, "envelope", _IDENTITY_ENVELOPE)
    seq, table = _sequence_and_table(args, n)
    error = s_difference_identity(seq, table, n)
    prefix = np.cumsum(times_log(seq.a[: n + 1], log_index(n)))
    return _identity_report("sdiff", n, error, max(1.0, float(np.max(np.abs(prefix)))), envelope)


def _cmd_sdecomp(args) -> VerificationReport:
    n = parse_grid(args.n)[-1]
    envelope = _opt(args.envelope, "envelope", _IDENTITY_ENVELOPE)
    seq, table = _sequence_and_table(args, n)
    error = s_decomposition_identity(seq, table, n)
    return _identity_report("sdecomp", n, error, max(1.0, n * math.log(n)), envelope)


def _cmd_smult(args) -> VerificationReport:
    n = parse_grid(args.n)[-1]
    envelope = _opt(args.envelope, "envelope", _IDENTITY_ENVELOPE)
    spec = _load_multiplicative(args.spec)
    error = s_multiplicative_identity(spec, _get_table(n), n)
    return _identity_report("smult", n, error, max(1.0, n * math.log(n)), envelope)


def _cmd_difference(args) -> VerificationReport:
    n = parse_grid(args.n)[-1]
    quad_tol = _opt(args.quad_tol, "quad-tol", QUAD_TOL)
    tail_tol = _opt(args.tail_tol, "tail-tol", TAIL_TOL)
    envelope = _opt(args.envelope, "envelope", 1e-5)
    # The truncation must cover n; checked before the table is built.
    truncation = _opt(args.truncation, "truncation", 10**6, int, above=n - 1)
    seq, table = _sequence_and_table(args, truncation)
    res = difference_identity_check(seq, table, n, truncation, quad_tol, tail_tol)
    summary = {
        "lhs": res.lhs,
        "rhs": res.rhs,
        "tail_correction": res.tail_correction,
        "tail_slack": res.tail_slack,
        "quad_error": res.quad_error,
    }
    return _identity_report("difference", n, res.error, 1.0, envelope, truncation, summary)


def _cmd_report(args) -> VerificationReport:
    with open(args.infile, "r", encoding="utf-8") as fh:
        try:
            return read_json_report(fh)
        except ValueError as exc:
            raise SpecFormatError(f"{args.infile}: {exc}") from None


# -- argument wiring ----------------------------------------------------

# The argparse keyword arguments of every option, by name.
_OPTIONS = {
    "spec": {"help": "multiplicative spec JSON"},
    "coeffs": {"help": f"builtin ({', '.join(BUILTIN_SEQUENCES)}) or JSON path"},
    "n": {"required": True, "help": "n grid: LIST or START:END:xFACTOR"},
    "sigma": {"help": "descending sigma list, comma separated"},
    "alpha": {"type": float, "help": "Hoelder exponent"},
    "envelope": {"type": float, "help": "frozen-constant override"},
    "quad-tol": {"type": float, "help": "quadrature tolerance"},
    "tail-tol": {"type": float, "help": "tail cut tolerance"},
    "truncation": {"type": int, "help": "Dirichlet series truncation"},
    "in": {"dest": "infile", "required": True, "help": "JSON report path"},
    "out": {"default": "-", "help": "output path, '-' for stdout"},
    "format": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
}

_GROUPS = {"verify": "theorem condition reports", "identity": "exact identity checks"}

# Every command: its name, function, the options it reads besides --out
# and --format, and its help. Each row is one argparse leaf, so its
# --help lists exactly these options, and main rejects any other.
_COMMANDS = (
    ("sieve", _cmd_sieve, "n", "emit sieve-derived arithmetic tables"),
    ("mean", _cmd_mean, "spec n alpha", "mean values of a multiplicative function"),
    ("ingham", _cmd_ingham, "coeffs n", "Ingham sums A(n), S(n) along a grid"),
    ("verify theorem1", _cmd_theorem1, "spec coeffs n envelope", "A(n)/n against g(1 + 1/log n)"),
    ("verify theorem2", _cmd_theorem2, "coeffs n sigma", "the two limit-existence conditions"),
    ("verify theorem3", _cmd_theorem3, "spec n alpha envelope", "the mean-value bound"),
    ("verify wintner", _cmd_wintner, "coeffs n", "Wintner's mean-value check"),
    ("verify axer", _cmd_axer, "coeffs n envelope", "Axer's boundedness check"),
    ("lemma", _cmd_lemma, "envelope quad-tol tail-tol", "f_t estimate-family ratio suite"),
    ("identity sdiff", _cmd_sdiff, "coeffs n envelope", "the S difference identity"),
    ("identity sdecomp", _cmd_sdecomp, "coeffs n envelope", "the S decomposition identity"),
    ("identity smult", _cmd_smult, "spec n envelope", "the S identity of a multiplicative f"),
    ("identity difference", _cmd_difference, "coeffs n truncation envelope quad-tol tail-tol",
     "the difference identity"),
    ("report", _cmd_report, "in", "re-render a JSON report"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inghamsum",
        description="Ingham sums, Dirichlet series and Euler products, with verification reports.",
    )
    parents = {"": parser.add_subparsers(dest="command", required=True)}
    for command, func, reads, help_ in _COMMANDS:
        group, _, name = command.rpartition(" ")
        if group not in parents:
            grouped = parents[""].add_parser(group, help=_GROUPS[group])
            parents[group] = grouped.add_subparsers(dest="check", required=True)
        p = parents[group].add_parser(name, help=help_)
        for option in (*reads.split(), "out", "format"):
            flags = ["--" + option] + (["--grid"] if option == "n" and group == "verify" else [])
            p.add_argument(*flags, **_OPTIONS[option])
        p.set_defaults(func=func, name=command)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    try:
        if unread:
            raise SpecFormatError(f"{args.name} does not read {unread[0].split('=')[0]}")
        report = args.func(args)
        chunks = report.chunks(args.format)
        if args.out == "-":
            sys.stdout.buffer.writelines(chunks)
            sys.stdout.buffer.flush()
        else:
            with open(args.out, "wb") as fh:
                fh.writelines(chunks)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, SingularFactorError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (SpecFormatError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
