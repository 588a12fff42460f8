"""Parser, renderer, and command-line behavior tests."""

import io
import json
import os
import random
import subprocess
import sys

import pytest

import f5gb
from f5gb.algebra import PolynomialRing
from f5gb.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ParseError,
    parse_polynomial,
    parse_system,
    render_polynomial,
    run_command,
)
from f5gb.engine import RunStats
from tests.conftest import APPENDIX_REDUCED_BASIS, poly

APPENDIX_FILE = """\
# the worked three-generator ideal
ring: x,y,z,t
char: 32003
order: grevlex
polys:
y*z^3 - x^2*t^2
x*z^2 - y^2*t   # comments reach end of line
x^2*y - z^2*t
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# polynomial parsing


def test_parse_simple_terms(xyzt):
    f = parse_polynomial(xyzt, "x^2*y - z^2*t")
    assert f.dict() == {(2, 1, 0, 0): 1, (0, 0, 2, 1): 32002}


def test_parse_negative_coefficients_mod_p():
    ring = PolynomialRing(7, ("x", "y"))
    f = parse_polynomial(ring, "-3*x + 2*y")
    assert f.dict() == {(1, 0): 4, (0, 1): 2}


def test_parse_errors_carry_position(xyzt):
    with pytest.raises(ParseError) as info:
        parse_polynomial(xyzt, "x^")
    assert info.value.col == 3
    with pytest.raises(ParseError):
        parse_polynomial(xyzt, "x + w")
    with pytest.raises(ParseError):
        parse_polynomial(xyzt, "2x")  # '*' is required between factors
    with pytest.raises(ParseError):
        parse_polynomial(xyzt, "")


def test_parse_repeated_variables_and_constants(xyzt):
    f = parse_polynomial(xyzt, "2*x*x*y^2 + 5")
    assert f.dict() == {(2, 2, 0, 0): 2, (0, 0, 0, 0): 5}


def test_parse_rejects_oversized_exponent(xyzt):
    with pytest.raises(ParseError):
        parse_polynomial(xyzt, "x^99999")


def test_parse_system_full_file():
    ring, F = parse_system(APPENDIX_FILE)
    assert ring.names == ("x", "y", "z", "t")
    assert ring.p == 32003
    assert ring.order.kind == "grevlex"
    assert len(F) == 3
    assert F[2] == poly(ring, "x^2*y - z^2*t")


def test_parse_system_errors():
    with pytest.raises(ParseError):
        parse_system("char: 7\npolys:\nx\n")  # no ring
    with pytest.raises(ParseError):
        parse_system("ring: x\nchar: 6\npolys:\nx\n")  # composite char
    with pytest.raises(ParseError):
        parse_system("ring: x\nchar: 7\norder: weird\npolys:\nx\n")
    with pytest.raises(ParseError):
        parse_system("ring: x\nchar: 7\npolys:\n")  # no polynomials


POLYS_HEADER = "ring: x,y,z,t\nchar: 32003\npolys:\n"


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        (POLYS_HEADER + "x + (y)\n", 4, 5, "unexpected character '('"),
        (POLYS_HEADER + "x\t+\t(y)\n", 4, 5, "unexpected character '('"),
        (POLYS_HEADER + "x + _y\n", 4, 5, "unexpected character '_'"),
        (POLYS_HEADER + "x*y + # z\n", 4, 7, "expected a coefficient or variable"),
        (POLYS_HEADER + "x + * y\n", 4, 5, "expected a coefficient or variable"),
        (POLYS_HEADER + "x^\n", 4, 3, "expected integer exponent after '^'"),
        (POLYS_HEADER + "2x\n", 4, 2, "expected '+' or '-' between terms"),
        (POLYS_HEADER + "x + w\n", 4, 5, "unknown variable 'w'"),
        (POLYS_HEADER + "x^²\n", 4, 3, "unexpected character '²'"),
        (POLYS_HEADER + "x^16000*y^16000*z^1000\n", 4, 1, "total degree 33000 exceeds"),
        ("ring: ,\nchar: 7\npolys:\nx\n", 1, 6, "empty variable list"),
        ("ring: x,x\nchar: 7\npolys:\nx\n", 1, 6, "duplicate variable name: 'x'"),
        ("ring: x,2y\nchar: 7\npolys:\nx\n", 1, 6, "bad variable name: '2y'"),
        ("ring: x\nchar: seven\npolys:\nx\n", 2, 6, "positive integer"),
        ("ring: x\nchar: ²\npolys:\nx\n", 2, 6, "positive integer"),
        # even, so no primality test reaches trial division
        ("ring: x\nchar: 1" + "0" * 30 + "\npolys:\nx\n", 2, 6, "out of range"),
        ("ring: x\nchar: 6\npolys:\nx\n", 2, 6, "not prime"),
        ("ring: x\nchar: 7\norder: weird\npolys:\nx\n", 3, 7, "unknown order 'weird'"),
        ("ring: x\n\npolys:\nx\n", 3, 1, "missing 'char:' declaration"),
        ("ring: x\nchar: 7\nvars: x\npolys:\nx\n", 3, 1, "unexpected header line"),
        ("ring: x\nchar: 7\n", 1, 1, "missing 'polys:' section"),
    ],
    ids=[
        "unexpected-character", "tabs-are-blanks", "leading-underscore",
        "comment-after-plus", "factor-expected", "bare-caret", "juxtaposed-factors",
        "unknown-variable", "superscript-exponent", "degree-past-packed-limit",
        "empty-ring", "duplicate-name", "name-starts-with-digit", "word-char",
        "superscript-char", "31-digit-char", "composite-char", "unknown-order",
        "missing-char", "unexpected-header", "missing-polys",
    ],
)
def test_malformed_lines_raise_at_their_position(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert message in str(info.value)


def test_char_override_is_checked_at_the_polys_line():
    # the file's own characteristic is not read, so it is not checked
    text = "ring: x\nchar: 6\npolys:\nx\n"
    ring, _ = parse_system(text, char_override=7)
    assert ring.p == 7
    with pytest.raises(ParseError) as info:
        parse_system("ring: x\nchar: 7\npolys:\nx\n", char_override=6)
    assert (info.value.line, info.value.col) == (3, 1)
    assert "not prime" in str(info.value)


def test_lex_output_past_degree_16383_parses_back():
    # the library's own arithmetic packs exponents up to 32767
    from f5gb.algebra import normal_form

    ring = PolynomialRing(32003, ("x", "y"), "lex")
    f = normal_form(poly(ring, "x^2*y"), [poly(ring, "x - y^16383")])
    text = render_polynomial(f)
    assert text == "y^32767"
    assert parse_polynomial(ring, text) == f


def test_render_parse_round_trip_randomized(xyzt):
    rng = random.Random(41)
    for _ in range(1000):
        f = xyzt.from_terms(
            (
                tuple(rng.randrange(5) for _ in range(4)),
                rng.randrange(32003),
            )
            for _ in range(rng.randrange(7))
        )
        assert parse_polynomial(xyzt, render_polynomial(f)) == f


# ---------------------------------------------------------------------------
# commands


def test_run_f5c_prints_published_reduced_basis(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    code, out, err = run(
        ["run", "--input", str(path), "--algorithm", "f5c", "--char", "32003"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == APPENDIX_REDUCED_BASIS


def test_run_verbose_trace_on_stderr(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    code, out, err = run(
        ["run", "--input", str(path), "--algorithm", "f5", "--verbose"]
    )
    assert code == EXIT_OK
    lines = err.splitlines()
    assert "Iteration 2" in lines
    assert "Processing 1 critical pairs of degree 5" in lines
    assert "number of zero reductions: 0" in lines
    assert len(out.splitlines()) == 10


def test_run_buchberger(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    code, out, _ = run(["run", "--input", str(path), "--algorithm", "buchberger"])
    assert code == EXIT_OK
    assert out.splitlines() == APPENDIX_REDUCED_BASIS


def test_run_stats_json(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    stats_path = tmp_path / "stats.json"
    code, out, _ = run(
        [
            "run",
            "--input",
            str(path),
            "--algorithm",
            "f5",
            "--stats-json",
            str(stats_path),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(stats_path.read_text())
    assert payload["algorithm"] == "f5"
    assert payload["char"] == 32003
    assert payload["basis_size_final"] == 10
    assert payload["reduced_basis_agrees_with_oracle"] is True
    assert [it["i"] for it in payload["iterations"]] == [2, 3]
    assert payload["iterations"][1]["pairs_by_degree"] == {
        "5": 1,
        "6": 1,
        "7": 4,
        "8": 1,
    }


def test_run_buchberger_stats_json(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    stats_path = tmp_path / "stats.json"
    code, _, _ = run(
        ["run", "--input", str(path), "--algorithm", "buchberger", "--stats-json", str(stats_path)]
    )
    assert code == EXIT_OK
    payload = json.loads(stats_path.read_text())
    assert payload.keys() == RunStats("f5", 32003, "grevlex").to_dict().keys()
    assert payload["algorithm"] == "buchberger"
    assert payload["iterations"] == [] and payload["totals"] == {}
    assert payload["reduced_basis_agrees_with_oracle"] is True
    assert payload["basis_size_final"] == 8


def test_run_missing_file():
    code, _, err = run(["run", "--input", "/nonexistent.ideal", "--algorithm", "f5"])
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_run_parse_failure(tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("ring: x,y\nchar: 7\npolys:\nx^\n")
    code, _, err = run(["run", "--input", str(path), "--algorithm", "f5"])
    assert code == EXIT_PARSE
    assert "column" in err


@pytest.mark.parametrize(
    "char, line",
    [("32003", "x^²"), ("²", "x"), ("1" + "0" * 28 + "57", "x")],
    ids=["superscript-exponent", "superscript-char", "31-digit-char"],
)
def test_unreadable_integers_exit_two_at_once(tmp_path, char, line):
    # a separate process, so a slow primality test fails the timeout
    # instead of stalling the suite
    path = tmp_path / "bad.ideal"
    path.write_text(f"ring: x\nchar: {char}\npolys:\n{line}\n")
    src = os.path.dirname(os.path.dirname(f5gb.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "f5gb.cli", "run", "--input", str(path), "--algorithm", "f5"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == EXIT_PARSE
    assert "column" in done.stderr


@pytest.mark.parametrize("algorithm", ["buchberger", "f5c"])
def test_run_char_override_reads_the_file_integers(tmp_path, algorithm):
    # -7 and 205 must be read mod 101, not first mod 32003 (which turns -7
    # into 31996 = 80 mod 101)
    system = "ring: x,y\nchar: {}\npolys:\nx^2 + 205*x*y - 7*y^2\nx*y^2 - 3*y^3\n"
    override = tmp_path / "override.ideal"
    override.write_text(system.format(32003))
    rewritten = tmp_path / "rewritten.ideal"
    rewritten.write_text(system.format(101))
    code, out, _ = run(
        ["run", "--input", str(override), "--algorithm", algorithm, "--char", "101"]
    )
    assert code == EXIT_OK
    code, expected, _ = run(["run", "--input", str(rewritten), "--algorithm", algorithm])
    assert code == EXIT_OK
    assert out == expected
    assert "x^2 + 3*x*y - 7*y^2" in expected.splitlines()
    code, _, err = run(
        ["run", "--input", str(override), "--algorithm", algorithm, "--char", "100"]
    )
    assert code == EXIT_PARSE
    assert "100" in err


def test_run_non_homogeneous_is_compute_error(tmp_path):
    path = tmp_path / "affine.ideal"
    path.write_text("ring: x,y\nchar: 7\npolys:\nx^2 - y\n")
    code, _, err = run(["run", "--input", str(path), "--algorithm", "f5"])
    assert code == EXIT_COMPUTE


def test_run_homogenize_option(tmp_path):
    path = tmp_path / "affine.ideal"
    path.write_text("ring: x,y\nchar: 32003\npolys:\ny^2 - 1\nx*y + x\n")
    code, out, _ = run(
        ["run", "--input", str(path), "--algorithm", "f5c", "--homogenize"]
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) >= 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--input", "APP", "--algorithm", "f5"],
        ["bench", "--system", "katsura", "--n", "3", "--algorithm", "all"],
    ],
    ids=["run", "bench"],
)
def test_run_store_cap_is_compute_error(tmp_path, argv):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    argv = [str(path) if a == "APP" else a for a in argv]
    code, _, err = run(argv + ["--store-cap", "4"])
    assert code == EXIT_COMPUTE
    assert err.startswith("computation failed") and "cap" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--input", "unread.ideal", "--algorithm", "f5"],
        ["bench", "--system", "katsura", "--n", "2", "--algorithm", "f5"],
        ["bench", "--system", "katsura", "--n", "2", "--algorithm", "buchberger"],
    ],
    ids=["run", "bench-f5", "bench-buchberger"],
)
def test_non_positive_store_cap_is_usage_error(argv, cap, capsys):
    code, out, err = run(argv + ["--store-cap", cap])
    assert code == EXIT_USAGE
    assert out == ""
    assert "--store-cap" in err and "positive" in err
    # the usage error goes to the stream run_command was given
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("algorithm", ["f5", "f5c"])
def test_run_packed_key_overflow_is_compute_error(tmp_path, algorithm):
    # the pair's lcm x^16383*y^16383*z^2 has total degree 32768
    path = tmp_path / "big.ideal"
    path.write_text(
        "ring: x,y,z\nchar: 32003\npolys:\n"
        "x^16383*y^16383 - x^16383*y^16382*z\nz^2\n"
    )
    code, _, err = run(["run", "--input", str(path), "--algorithm", algorithm])
    assert code == EXIT_COMPUTE
    assert err.startswith("computation failed") and "32767" in err


def test_usage_errors_exit_one():
    code, _, _ = run(["run", "--algorithm", "f5"])  # missing --input
    assert code == EXIT_USAGE
    code, _, _ = run(["frobnicate"])
    assert code == EXIT_USAGE
    code, _, _ = run(["run", "--input", "x", "--algorithm", "nope"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--system", "katsura", "--n", "2", "--algorithm", "f5"],
        ["bench", "--system", "katsura", "--n", "2", "--algorithm", "all"],
        ["run", "--input", "unread.ideal", "--algorithm", "f5r"],
        ["run", "--input", "unread.ideal", "--algorithm", "buchberger"],
    ],
)
def test_skip_rule_rebuild_without_f5c_is_usage_error(argv):
    code, out, err = run(argv + ["--skip-rule-rebuild"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "--skip-rule-rebuild" in err and "f5c" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--system", "katsura", "--n", "2", "--algorithm", "buchberger"],
        ["run", "--input", "unread.ideal", "--algorithm", "buchberger"],
    ],
)
def test_certified_buchberger_is_usage_error(argv):
    # the oracle carries no cofactors, so nothing could certify its basis
    code, out, err = run(argv + ["--certified"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "--certified" in err


def test_bench_all_writes_three_records(tmp_path):
    stats_path = tmp_path / "out.json"
    code, out, _ = run(
        [
            "bench",
            "--system",
            "katsura",
            "--n",
            "3",
            "--algorithm",
            "all",
            "--stats-json",
            str(stats_path),
        ]
    )
    assert code == EXIT_OK
    records = json.loads(stats_path.read_text())
    assert [r["algorithm"] for r in records] == ["f5", "f5r", "f5c"]
    assert all(r["reduced_basis_agrees_with_oracle"] is True for r in records)
    assert "agreement=True" in out


def test_bench_single_algorithm():
    code, out, _ = run(["bench", "--system", "cyclic", "--n", "3", "--algorithm", "f5c"])
    assert code == EXIT_OK
    assert out.splitlines()  # prints the basis


def test_bench_rejects_bad_size():
    code, _, err = run(["bench", "--system", "katsura", "--n", "0", "--algorithm", "f5"])
    assert code == EXIT_USAGE
    assert "katsura" in err


def test_run_certified_flag(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    code, out, _ = run(
        ["run", "--input", str(path), "--algorithm", "f5c", "--certified",
         "--skip-rule-rebuild"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == APPENDIX_REDUCED_BASIS


def test_output_determinism(tmp_path):
    path = tmp_path / "app.ideal"
    path.write_text(APPENDIX_FILE)
    runs = [run(["run", "--input", str(path), "--algorithm", "f5"]) for _ in range(2)]
    assert runs[0] == runs[1]
