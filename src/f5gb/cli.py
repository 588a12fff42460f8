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
multi-character variable names stay unambiguous.

Exit codes: 0 success, 1 usage, 2 parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from .algebra import (
    ExponentOverflowError,
    PolynomialRing,
    homogenize,
    interreduce,
    is_prime,
)
from .bench import compare_variants, cyclic, katsura
from .drivers import VariantConfig, buchberger_reduced, run_variant
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


class SystemFile:
    """Parsed header of a system file."""

    def __init__(self, names, char, order):
        self.names = names
        self.char = char
        self.order = order


def _tokenize_poly(text: str, line_no: int):
    """Yield (kind, value, col) tokens: INT, NAME, '^', '*', '+', '-'."""
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        col = i + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("INT", int(text[i:j]), col)
            i = j
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("NAME", text[i:j], col)
            i = j
        elif c in "^*+-":
            yield (c, c, col)
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line_no, col)


def parse_polynomial(ring: PolynomialRing, text: str, line_no: int = 1):
    """Parse one polynomial line over the given ring."""
    tokens = list(_tokenize_poly(text, line_no))
    if not tokens:
        raise ParseError("empty polynomial", line_no, 1)
    var_index = {name: i for i, name in enumerate(ring.names)}
    terms = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text) + 1)

    while pos < len(tokens):
        sign = 1
        kind, _, col = peek()
        if kind in ("+", "-"):
            if kind == "-":
                sign = -1
            pos += 1
        elif terms:
            raise ParseError("expected '+' or '-' between terms", line_no, col)
        coeff = sign
        exps = [0] * ring.n
        expect_factor = True
        saw_factor = False
        while True:
            kind, value, col = peek()
            if expect_factor:
                if kind == "INT":
                    coeff *= value
                    pos += 1
                elif kind == "NAME":
                    if value not in var_index:
                        raise ParseError(f"unknown variable {value!r}", line_no, col)
                    pos += 1
                    e = 1
                    k2, v2, c2 = peek()
                    if k2 == "^":
                        pos += 1
                        k3, v3, c3 = peek()
                        if k3 != "INT":
                            raise ParseError("expected integer exponent after '^'", line_no, c3)
                        e = v3
                        pos += 1
                    exps[var_index[value]] += e
                else:
                    raise ParseError("expected a coefficient or variable", line_no, col)
                saw_factor = True
                expect_factor = False
            else:
                if kind == "*":
                    pos += 1
                    expect_factor = True
                else:
                    break
        if not saw_factor:
            raise ParseError("empty term", line_no, peek()[2])
        terms.append((tuple(exps), coeff))
    try:
        return ring.from_terms(terms)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, 1) from exc


def parse_system(text: str):
    """Parse a full system file; returns (SystemFile, ring, polynomials)."""
    names = None
    char = None
    order = "grevlex"
    polys_started = False
    ring = None
    polys = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not polys_started:
            lowered = line.lower()
            if lowered.startswith("ring:"):
                names = tuple(s.strip() for s in line[5:].split(",") if s.strip())
                if not names:
                    raise ParseError("empty variable list", line_no, 6)
                continue
            if lowered.startswith("char:"):
                value = line[5:].strip()
                if not value.isdigit():
                    raise ParseError("characteristic must be a positive integer", line_no, 6)
                char = int(value)
                continue
            if lowered.startswith("order:"):
                order = line[6:].strip()
                continue
            if lowered.startswith("polys:"):
                if names is None:
                    raise ParseError("missing 'ring:' declaration", line_no, 1)
                if char is None:
                    raise ParseError("missing 'char:' declaration", line_no, 1)
                if not is_prime(char) or not (2 <= char < 2 ** 31):
                    raise ParseError(f"characteristic {char} is not a valid prime", line_no, 1)
                try:
                    ring = PolynomialRing(char, names, order)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no, 1) from exc
                polys_started = True
                continue
            raise ParseError(f"unexpected header line {line!r}", line_no, 1)
        polys.append(parse_polynomial(ring, raw.split("#", 1)[0], line_no))
    if not polys_started:
        raise ParseError("missing 'polys:' section", 1, 1)
    if not polys:
        raise ParseError("no polynomials given", 1, 1)
    return SystemFile(names, char, order), ring, polys


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
        if args.stats_json:
            ring = F[0].ring
            _write_stats(args.stats_json, {
                "algorithm": "buchberger",
                "char": ring.p,
                "order": ring.order.kind,
                "iterations": [],
                "totals": {},
                "basis_size_final": len(basis),
                "reduced_basis_agrees_with_oracle": True,
            })
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
        _, ring, F = parse_system(text)
    except ParseError as exc:
        print(f"{args.input}: {exc}", file=stderr)
        return EXIT_PARSE
    if args.char is not None and args.char != ring.p:
        try:
            ring = PolynomialRing(args.char, ring.names, ring.order.kind)
        except ValueError as exc:
            print(str(exc), file=stderr)
            return EXIT_PARSE
        F = [ring.from_terms(f.dict().items()) for f in F]
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
