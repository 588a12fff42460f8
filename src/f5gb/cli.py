"""Input-file parsing, the command-line driver, and stats JSON export.

System file format (line oriented, '#' starts a comment):

    ring: x,y,z,t
    char: 32003
    order: grevlex
    polys:
    y*z^3 - x^2*t^2
    x*z^2 - y^2*t
    x^2*y - z^2*t

'*' is required between factors and '^' introduces integer exponents, so
multi-character variable names stay unambiguous.  Integers are decimal
digits.

Exit codes: 0 success, 1 usage, 2 parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from .algebra import (
    ExponentOverflowError,
    PolynomialRing,
    PrimeField,
    TermOrder,
    check_names,
    homogenize,
    interreduce,
)
from .bench import compare_variants, cyclic, katsura
from .drivers import VariantConfig, buchberger_reduced, run_variant
from .engine import RunStats
from .sigcore import StoreCapExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3

ALGORITHMS = ("buchberger", "f5", "f5r", "f5c")

# a computation that fails on parsed input exits EXIT_COMPUTE; this covers
# NonHomogeneousError and ZeroPolynomialError, which are ValueErrors
_COMPUTE_ERRORS = (ValueError, StoreCapExceeded, ExponentOverflowError)


class ParseError(ValueError):
    """Syntax or semantic error in a system file, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# one token per match: blanks (no group), INT (the decimal digits int()
# reads), NAME (letters, digits and '_', the characters PolynomialRing
# allows in a name), an operator, or one character that starts no token
_TOKEN = re.compile(r"[ \t]+|(?P<INT>\d+)|(?P<NAME>\w+)|(?P<op>[-+*^])|(?P<bad>.)", re.S)


def parse_polynomial(ring: PolynomialRing, text: str, line_no: int = 1):
    """Parse one polynomial line over the given ring.

    The grammar is [sign] term {sign term}, a term is factor {'*' factor}
    and a factor is an integer or a variable with an optional '^' and
    integer exponent.  The loop reads each token in the light of the one
    before it: a factor is due at the start and after a sign or '*', an
    exponent after '^', and a '*', '^', sign or the end after a factor.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        # a name starts with a letter, as PolynomialRing requires
        if kind == "bad" or kind == "NAME" and not value[0].isalpha():
            raise ParseError(f"unexpected character {value[0]!r}", line_no, m.start() + 1)
        if kind is not None:
            tokens.append((value if kind == "op" else kind, value, m.start() + 1))
    if not tokens:
        raise ParseError("empty polynomial", line_no, 1)
    tokens.append(("end", "", len(text) + 1))
    var_index = {name: i for i, name in enumerate(ring.names)}
    terms = []
    coeff, exps, var = 1, [0] * ring.n, 0
    prev = None  # the start of the line
    for kind, value, col in tokens:
        if prev in (None, "+", "-", "*"):  # a factor is due
            if kind == "INT":
                coeff *= int(value)
            elif kind == "NAME":
                if value not in var_index:
                    raise ParseError(f"unknown variable {value!r}", line_no, col)
                var = var_index[value]
                exps[var] += 1
            elif prev is None and kind in ("+", "-"):
                coeff = -1 if kind == "-" else 1
            else:
                raise ParseError("expected a coefficient or variable", line_no, col)
        elif prev == "^":
            if kind != "INT":
                raise ParseError("expected integer exponent after '^'", line_no, col)
            exps[var] += int(value) - 1  # the variable already counted once
        elif kind in ("+", "-", "end"):
            terms.append((tuple(exps), coeff))
            coeff, exps = -1 if kind == "-" else 1, [0] * ring.n
        elif kind != "*" and not (kind == "^" and prev == "NAME"):
            raise ParseError("expected '+' or '-' between terms", line_no, col)
        prev = kind
    try:
        return ring.from_terms(terms)
    except (ValueError, ExponentOverflowError) as exc:
        raise ParseError(str(exc), line_no, 1) from exc


def parse_system(text: str, char_override: int | None = None):
    """Parse a full system file; returns (ring, polynomials).

    Each header line is checked where it is read (check_names, PrimeField,
    TermOrder), and a ValueError becomes a ParseError at that line.  A
    char_override replaces the file's unchecked 'char:' value, so the
    polynomial lines are read over that field; 'polys:' checks it.
    """

    def check(rule, value, line_no, col):
        try:
            return rule(value)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from exc

    names = None
    char = None
    order = "grevlex"
    ring = None
    polys = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            lowered = line.lower()
            if lowered.startswith("ring:"):
                names = tuple(s.strip() for s in line[5:].split(",") if s.strip())
                if not names:
                    raise ParseError("empty variable list", line_no, 6)
                check(check_names, names, line_no, 6)
                continue
            if lowered.startswith("char:"):
                value = line[5:].strip()
                if not value.isdecimal():
                    raise ParseError("characteristic must be a positive integer", line_no, 6)
                char = int(value)
                if char_override is None:
                    check(PrimeField, char, line_no, 6)
                continue
            if lowered.startswith("order:"):
                order = line[6:].strip()
                check(TermOrder, order, line_no, 7)
                continue
            if lowered.startswith("polys:"):
                if names is None:
                    raise ParseError("missing 'ring:' declaration", line_no, 1)
                char = char if char_override is None else char_override
                if char is None:
                    raise ParseError("missing 'char:' declaration", line_no, 1)
                ring = check(lambda c: PolynomialRing(c, names, order), char, line_no, 1)
                continue
            raise ParseError(f"unexpected header line {line!r}", line_no, 1)
        polys.append(parse_polynomial(ring, raw.split("#", 1)[0], line_no))
    if ring is None:
        raise ParseError("missing 'polys:' section", 1, 1)
    if not polys:
        raise ParseError("no polynomials given", 1, 1)
    return ring, polys


def render_polynomial(poly) -> str:
    return poly.ring.render(poly)


# ---------------------------------------------------------------------------
# commands


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _build_parser():
    parser = _Parser(prog="f5gb", description="Signature-based Groebner bases")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--skip-rule-rebuild", action="store_true")
    common.add_argument("--certified", action="store_true")
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--stats-json", metavar="FILE")
    common.add_argument("--store-cap", type=_positive_int, default=1_000_000)

    run = sub.add_parser("run", parents=[common], help="compute a basis for a system file")
    run.add_argument("--input", required=True, help="system file path")
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--homogenize", action="store_true")
    run.add_argument("--char", type=int, default=None,
                     help="override the file's characteristic")

    bench = sub.add_parser("bench", parents=[common], help="run generated benchmark systems")
    bench.add_argument("--system", required=True, choices=("katsura", "cyclic"))
    bench.add_argument("--n", required=True, type=int)
    bench.add_argument("--char", type=int, default=32003)
    bench.add_argument("--algorithm", required=True,
                       choices=ALGORITHMS + ("all",))
    return parser


def _write_stats(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_single(args, F, stdout, stderr):
    trace = (lambda line: print(line, file=stderr)) if args.verbose else None
    if args.algorithm == "buchberger":
        basis = buchberger_reduced(F)
        for g in basis:
            print(render_polynomial(g), file=stdout)
        if args.stats_json:  # the oracle's record: no iterations, empty totals
            ring = F[0].ring
            stats = RunStats("buchberger", ring.p, ring.order.kind, basis_size_final=len(basis),
                             reduced_basis_agrees_with_oracle=True)
            _write_stats(args.stats_json, {**stats.to_dict(), "totals": {}})
        return EXIT_OK
    cfg = VariantConfig(
        variant=args.algorithm,
        skip_rule_rebuild=args.skip_rule_rebuild,
        certified=args.certified,
        store_cap=args.store_cap,
    )
    result = run_variant(F, cfg, trace=trace)
    for g in result.basis:
        print(render_polynomial(g), file=stdout)
    if args.stats_json:
        reduced = result.basis if result.reduced else interreduce(result.basis)
        oracle = buchberger_reduced(F)
        result.stats.reduced_basis_agrees_with_oracle = reduced == oracle
        _write_stats(args.stats_json, result.stats.to_dict())
    return EXIT_OK


def _cmd_run(args, stdout, stderr):
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=stderr)
        return EXIT_PARSE
    try:
        _, F = parse_system(text, args.char)
    except ParseError as exc:
        print(f"{args.input}: {exc}", file=stderr)
        return EXIT_PARSE
    if args.homogenize and any(not f.is_homogeneous() for f in F):
        _, F = homogenize(F)
    return _run_single(args, F, stdout, stderr)


def _cmd_bench(args, stdout, stderr):
    try:
        F = katsura(args.n, args.char) if args.system == "katsura" else cyclic(args.n, args.char)
    except ValueError as exc:
        print(str(exc), file=stderr)
        return EXIT_USAGE
    if args.algorithm != "all":
        return _run_single(args, F, stdout, stderr)
    records = compare_variants(F, certified=args.certified, store_cap=args.store_cap)
    for stats in records:
        agree = stats.reduced_basis_agrees_with_oracle
        print(
            f"{stats.algorithm}: reduction_steps={stats.reduction_steps} "
            f"zero_reductions={stats.zero_reductions} "
            f"basis_size_final={stats.basis_size_final} agreement={agree}",
            file=stdout,
        )
    if args.stats_json:
        _write_stats(args.stats_json, [s.to_dict() for s in records])
    return EXIT_OK


def run_command(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints usage errors and --help on sys.stderr and sys.stdout
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.skip_rule_rebuild and args.algorithm != "f5c":
        print("f5gb: error: --skip-rule-rebuild applies to --algorithm f5c only", file=stderr)
        return EXIT_USAGE
    if args.certified and args.algorithm == "buchberger":
        print("f5gb: error: --certified applies to the signature-based algorithms only",
              file=stderr)
        return EXIT_USAGE
    command = _cmd_run if args.command == "run" else _cmd_bench
    try:
        return command(args, stdout, stderr)
    except _COMPUTE_ERRORS as exc:
        print(f"computation failed: {exc}", file=stderr)
        return EXIT_COMPUTE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
