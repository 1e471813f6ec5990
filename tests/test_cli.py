import ast
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ccrflow
import ccrflow.cli as cli
from ccrflow import csvtext
from ccrflow.cli import (
    ExpressionError,
    _write_blocks,
    format_float,
    kernel_csv_lines,
    main,
    parse_expression,
    wavefunction_csv_lines,
)
from ccrflow.heisenberg import NonAffineFlow, force_for_model
from ccrflow.opalg import DomainError, OpExpr, P, Polynomial, ScalarCoeff, X
from ccrflow.propagator import (
    AffineFlowExact,
    CausticSingularity,
    GridTooCoarse,
    UniformGrid,
    WaveFunction,
    gaussian_kernel,
)


# ---- expression parsing ----

def test_parse_word_product():
    # the product is ordered as it is parsed: P X = X P - i
    e = parse_expression("P*X")
    assert e.terms == {(1, 1): ScalarCoeff.rational(1), (0, 0): -ScalarCoeff.imag_unit()}


def test_parse_complex_coefficient():
    e = parse_expression("X^2*P - (0,1)*1")
    assert e == X * X * P - OpExpr.scalar(ScalarCoeff.imag_unit())


def test_parse_rejects_negative_word_power():
    with pytest.raises(ExpressionError) as err:
        parse_expression("X^-1")
    assert err.value.offset == 1
    with pytest.raises(ExpressionError):
        parse_expression("(X + P)^-2")


def test_parse_negative_parameter_power():
    e = parse_expression("m^-1*P")
    assert e == P * ScalarCoeff.param("m", -1)
    e = parse_expression("2^-2")
    assert e == OpExpr.scalar(ScalarCoeff.rational(Fraction(1, 4)))


def test_parse_rationals_and_params():
    e = parse_expression("3/2*m*X + (1/2,-2/3)*P")
    want = (X * (ScalarCoeff.rational(Fraction(3, 2)) * ScalarCoeff.param("m"))
            + P * ScalarCoeff.rational(Fraction(1, 2), Fraction(-2, 3)))
    assert e == want


@pytest.mark.parametrize("text, printed", [
    ("6/4*X", "(3/2)*X"),
    ("(6/4,-9/6)", "(3/2,-3/2)*1"),
    ("-3/9*P^2", "-(1/3)*P^2"),
    ("(0,-2/4)*X*P + 10/5", "-(0,1/2)*X*P + 2*1"),
    ("(-7/3, 0)*m^-1*P*X", "-(7/3)*m^-1*X*P + (0,7/3)*m^-1*1"),
    ("4/2 - 1/2*P*X + (0,3/9)", "-(1/2)*X*P + (2,5/6)*1"),
    ("-0/3", "0"),
])
def test_parser_literals_print_in_lowest_terms(text, printed, capsys):
    # a/b and (a/b,c/d) are read as reduced int triples, with no Fraction: the
    # bytes are those the Fraction-built literals printed
    assert main(["normord", text]) == 0
    assert capsys.readouterr() == (printed + "\n", "")
    assert parse_expression("(6/4,-9/6)*X").terms[(1, 0)].terms == {(): (3, -3, 2)}


def test_parse_parenthesized_sum_coefficient():
    e = parse_expression("(m + 2*omega)*X")
    want = X * (ScalarCoeff.param("m") + ScalarCoeff.param("omega") * 2)
    assert e == want


def test_parse_preserves_noncommutative_order():
    i = OpExpr.scalar(ScalarCoeff.imag_unit())
    assert parse_expression("P*X*P") == X * P * P - i * P
    assert parse_expression("X*P*X") == X * X * P - i * X
    assert parse_expression("P*X*P") != parse_expression("X*P*P")


def test_parse_unary_minus():
    assert parse_expression("-X + 2") == OpExpr.scalar(2) - X


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ExpressionError) as err:
        parse_expression("X + ")
    assert err.value.offset == 4
    with pytest.raises(ExpressionError) as err:
        parse_expression("X ? P")
    assert err.value.offset == 2
    with pytest.raises(ExpressionError) as err:
        parse_expression("X P")
    assert err.value.offset == 2
    with pytest.raises(ExpressionError):
        parse_expression("1/0")


@pytest.mark.parametrize("text, offset", [("X/2", 1), ("P^2/2", 3), ("(1 + X/2)", 6),
                                          ("2^2/3", 3)])
def test_division_is_of_integer_literals_only(text, offset):
    # these ended in "trailing input" or "expected ')'", which named no rule
    with pytest.raises(ExpressionError, match=f"^'/' divides integer literals only "
                                              rf"\(byte {offset}\)$"):
        parse_expression(text)


def test_parser_caps_nesting_and_power_length(capsys):
    # 400 levels used to end in a RecursionError traceback; X^1000000000
    # would build a 1 GB word before any check ran
    for text, offset in (("(" * 400 + "X" + ")" * 400, 100), ("X^1000000000", 1),
                         ("(X*P)^2049", 5)):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.offset == offset
        assert main(["normord", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("ccrflow: error:")
        assert f"(byte {offset})" in captured.err
    assert parse_expression("(" * 100 + "X" + ")" * 100) == X
    assert max(a + b for a, b in parse_expression("(X*P)^185").terms) == 370


# 80 pairs of terms with overlap up to 512: 41k term products, but CCR
# weights of ~5000 bits, so its ordered terms would print some 100 MB
_LONG_WEIGHTS = "(" + " + ".join(f"{j + 1}*P^{512 - j}" for j in range(40)) + ")*(X^512 + 3*X^511)"


def _names(op: str, count: int) -> str:
    return op.join(f"a{k}" for k in range(count))


# a product of distinct parameters spends one more term product per 8 names
# of its running monomial; 6000 names took 7 s and exited 0
_NAMES_6000 = _names("*", 6000)


# The largest admitted power of each family, and the first one past its cap.
# (X*P)^2048 used to run 9 s and end in Python's int-digits message, and
# P^2000*X^2000 reached the same message as a product of two capped powers.
@pytest.mark.parametrize("text, cap, offset", [
    pytest.param(_LONG_WEIGHTS, "term products", _LONG_WEIGHTS.index(")*(") + 1,
                 id="long-ccr-weights"),
    ("(X*P)^185", None, None), ("(X*P)^186", "term products", 5),
    ("(X+P)^56", None, None), ("(X+P)^57", "term products", 5),
    ("P^1024*X^1024", None, None), ("P^1025*X^1025", "degree 2050", 6),
    ("(X*P)^2048", "term products", 5), ("P^2000*X^2000", "degree 4000", 6),
    ("0^1000000000", "term products", 1), ("(X-X)^1000000000", "term products", 5),
    ("m^1000000000", "term products", 1),
    pytest.param(_names("*", 1020), None, None, id="product-of-1020-names"),
    pytest.param(_NAMES_6000, "term products", _NAMES_6000.index("*a1020"),
                 id="product-of-6000-names"),
    # each '+' copied the running sum: 11 s
    pytest.param(_names("+", 12000), None, None, id="sum-of-12000-names"),
])
def test_parser_caps_bound_the_ordered_result(text, cap, offset, capsys):
    start = time.perf_counter()
    code = main(["normord", text])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < 2.0
    if cap is None:
        assert code == 0
        assert captured.err == ""
        assert captured.out.count("\n") == 1
    else:
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("ccrflow: error:")
        assert cap in captured.err
        assert f"(byte {offset})" in captured.err


def test_tokenizer_is_linear_in_input_length():
    # every token's byte offset re-encoded the whole prefix: 4 s at 320K characters
    count = 80_000
    start = time.perf_counter()
    with pytest.raises(ExpressionError) as err:
        parse_expression("X*\u03c9+" * count + "?")  # omega is two bytes in UTF-8
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == f"unexpected character '?' (byte {5 * count})"


def test_comm_products_are_capped(capsys):
    # each side is admitted; their two products together are not
    assert main(["comm", "(X+P)^40", "(X+P)^40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ccrflow: error: more than 65536 term products\n"


@pytest.mark.parametrize("text", ["123456789^4096", "((12345/6789)^4096)^4096"])
def test_scalar_too_long_to_print_is_domain_error(text, capsys):
    # the first used to end in Python's "Exceeds the limit (4300 digits)" message
    # with exit 2; the second ran for minutes
    start = time.perf_counter()
    assert main(["normord", text]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ccrflow: domain error: a coefficient has more than 4300 "
                            "digits, too many to print\n")


def test_round_trip_random_expressions():
    rng = random.Random(41)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = "".join(rng.choice("XP") for _ in range(rng.randint(0, 5)))
            c = ScalarCoeff.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                                     Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
            if rng.random() < 0.4:
                c = c * ScalarCoeff.param(rng.choice(["m", "omega", "F0"]),
                                          rng.choice([-2, -1, 1, 2]))
            terms[w] = terms.get(w, ScalarCoeff.zero()) + c
        e = sum((OpExpr.word(w, c) for w, c in terms.items()), OpExpr.zero())
        assert parse_expression(e.canonical_text()) == e


# ---- float formatting ----

def test_format_float_has_17_significant_digits():
    assert format_float(0.28209479177387814) == "2.8209479177387814e-01"
    assert format_float(-1.0) == "-1.0000000000000000e+00"
    assert float(format_float(math.pi)) == math.pi


def _reference_lines(rows) -> list[str]:
    return [",".join(f"{v:.16e}" for v in row) for row in rows]


@pytest.mark.parametrize("flow", [AffineFlowExact.free(1.0),
                                  AffineFlowExact.harmonic(1.5, 0.8),
                                  AffineFlowExact.linear(2.0, 3.0)])
@pytest.mark.parametrize("n", [2, 3, 384])
def test_kernel_csv_lines_match_per_row_formatting(flow, n):
    # the CSV prints the values of the kernel's ChirpStep, which agree with
    # the pointwise kernel
    kernel = gaussian_kernel(flow, 0.9)
    grid = UniformGrid.from_bounds(-4.0, 3.0, n)
    x = grid.points()
    values = kernel.step(grid).rows()
    rows = [(xb, xa, val.real, val.imag)
            for xb, row in zip(x, values) for xa, val in zip(x, row)]
    lines = kernel_csv_lines(kernel, grid)
    assert lines[0] == "x_b,x_a,re,im"
    assert len(lines) - 1 == n * n
    assert lines[1:] == _reference_lines(rows)
    pointwise = kernel(x[:, None], x)
    assert np.linalg.norm(values - pointwise) <= 1e-12 * np.linalg.norm(pointwise)
    # U(x_b, x_a) = U(x_a, x_b) to the last digit; the row-by-row evaluation
    # printed 61k-71k of the 147,456 values at n = 384 unlike their transposes
    printed = np.array([line.split(",", 2)[2] for line in lines[1:]]).reshape(n, n)
    assert np.array_equal(printed, printed.T)


@pytest.mark.parametrize("floats", [2, 5, 13, 14, 28, 2048])
def test_kernel_csv_is_the_same_in_blocks_of_any_size(floats, monkeypatch):
    # a block holds at most _FORMAT_BLOCK floats: a row of n = 7 (14 floats)
    # splits into column ranges below 14, the last one short where 7 is no
    # multiple of the range, and whole rows share a block from 14 on
    kernel = gaussian_kernel(AffineFlowExact.harmonic(1.5, 0.8), 0.9)
    grid = UniformGrid.from_bounds(-4.0, 3.0, 7)
    x = grid.points()
    values = kernel.step(grid).rows()
    want = _reference_lines((xb, xa, val.real, val.imag)
                            for xb, row in zip(x, values) for xa, val in zip(x, row))
    monkeypatch.setattr(csvtext, "_FORMAT_BLOCK", floats)
    header, *blocks = csvtext.kernel_csv_blocks(csvtext.kernel_step(kernel, grid))
    assert header == b"x_b,x_a,re,im\n"
    assert b"".join(blocks).decode().splitlines() == want
    assert max(2 * block.count(b"\n") for block in blocks) <= floats


def test_wavefunction_csv_lines_match_per_row_formatting():
    rng = np.random.default_rng(7)
    extremes = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308]
    n = 500
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    re, im = signs * 10.0 ** rng.uniform(-300, 300, size=(2, n))
    re[:len(extremes)] = extremes
    im[-len(extremes):] = extremes
    samples = np.empty(n, dtype=complex)
    samples.real, samples.imag = re, im
    psi = WaveFunction(UniformGrid(-3.0, 0.0123, n), samples)
    lines = wavefunction_csv_lines(psi)
    assert lines[0] == "x,re,im"
    assert len(lines) - 1 == n
    assert lines[1:] == _reference_lines(zip(psi.points(), re, im))
    assert lines[1].split(",")[1] == "-0.0000000000000000e+00"


@pytest.mark.parametrize("n, floats", [(682, 2048), (683, 2048), (2047, 2048), (10, 7),
                                      (11, 3)])
def test_wavefunction_csv_is_the_same_across_blocks(n, floats, monkeypatch):
    # each block of _FORMAT_BLOCK // 3 rows is stacked alone: 682 rows fill
    # one block of 2,048 floats, 683 spill one row into a second, and no
    # block reaches 100 KiB
    rng = np.random.default_rng(n)
    re = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
    samples = re + 1j * rng.normal(size=n)
    psi = WaveFunction(UniformGrid(-3.0, 0.0123, n), samples)
    monkeypatch.setattr(csvtext, "_FORMAT_BLOCK", floats)
    header, *blocks = csvtext.wavefunction_csv_blocks(psi)
    rows = floats // 3
    assert header == b"x,re,im\n"
    assert [block.count(b"\n") for block in blocks] == [min(rows, n - start)
                                                        for start in range(0, n, rows)]
    assert b"".join(blocks).decode().splitlines() == _reference_lines(
        zip(psi.points(), re, samples.imag))
    assert max(map(len, blocks)) <= 100 * 1024


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097])
def test_write_blocks_bytes_across_blocks(count, tmp_path, capsys):
    # blocks of 4096 bytes end inside lines; no lines is one LF
    lines = [f"{k},{k * k}" for k in range(count)]
    expected = "\n".join(lines) + "\n"
    data = ccrflow._block(lines)
    blocks = [data[start:start + 4096] for start in range(0, len(data), 4096)]
    _write_blocks(blocks, None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.csv"
    _write_blocks(blocks, str(path))
    assert path.read_bytes() == expected.encode()


# ---- the kernel CSV writer: one process, a block of rows at a time ----

_NEEDS_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_KERNEL_FLAGS = {"free": ["--model", "free", "--m", "1.3"],
                 "harmonic": ["--model", "harmonic", "--m", "1.5", "--omega", "0.8"],
                 "linear": ["--model", "linear", "--m", "2", "--F0", "-3"]}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch, fail_on: int = 0) -> list:
    """Count the calls of os.fork; the fail_on-th raises BlockingIOError
    (EAGAIN, as at a process limit) instead of forking."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        if len(forks) == fail_on:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def _kernel_csv(model: str, n: int) -> tuple[list[str], str]:
    """The kernel argv for model on an n-point grid, and its CSV text."""
    flow = getattr(AffineFlowExact, model)(*(float(v) for v in _KERNEL_FLAGS[model][3::2]))
    expected = "\n".join(kernel_csv_lines(gaussian_kernel(flow, 0.9),
                                          UniformGrid.from_bounds(-4.0, 3.0, n))) + "\n"
    argv = ["kernel", *_KERNEL_FLAGS[model], "--t", "0.9", "--x-min", "-4", "--x-max", "3",
            "--n", str(n)]
    return argv, expected


@pytest.mark.parametrize("model", sorted(_KERNEL_FLAGS))
@pytest.mark.parametrize("n", [180, 223])
def test_kernel_writer_bytes_do_not_depend_on_cpus(model, n, tmp_path, capsys):
    argv, expected = _kernel_csv(model, n)
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    path = tmp_path / "k.csv"
    assert main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == expected.encode()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("n", [886, 887])
def test_kernel_never_forks(n, tmp_path, capsys, monkeypatch):
    # one process writes every row: from --n 887 on the rows were split
    # across forked workers, each holding its whole share
    argv, expected = _kernel_csv("harmonic", n)
    forks = _count_forks(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    path = tmp_path / "k.csv"
    assert main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == expected.encode()
    assert forks == []
    _assert_no_child_left()


def test_kernel_csv_holds_no_n_by_n_array(tmp_path):
    # each block of rows is built as it is formatted: the whole n x n array
    # at n = 1024 took 16 MiB before the first line was written
    path = tmp_path / "k.csv"
    tracemalloc.start()
    try:
        assert main(["kernel", *_KERNEL_FLAGS["harmonic"], "--t", "0.9", "--x-min", "-4",
                     "--x-max", "3", "--n", "1024", "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1024 * 1024 * 80
    assert peak < 2 ** 22


def test_kernel_csv_blocks_in_process_hold_no_n_by_n_array():
    # a library caller streams the n = 1024 kernel as the CLI writes it
    kernel = gaussian_kernel(AffineFlowExact.harmonic(1.5, 0.8), 0.9)
    step = csvtext.kernel_step(kernel, UniformGrid.from_bounds(-4.0, 3.0, 1024))
    tracemalloc.start()
    try:
        size = sum(len(block) for block in csvtext.kernel_csv_blocks(step))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 1024 * 1024 * 80
    assert peak < 2 ** 22


@pytest.mark.parametrize("n", [384, 1024, 2048])
def test_kernel_csv_blocks_stay_under_100_kib(n):
    # a block of at most 2,048 floats keeps the table, its byte copy and each
    # array of csvtext.fields under malloc's 128 KiB mmap and trim threshold;
    # 4,096-float blocks were 177-189 KiB; a long row splits into column ranges
    kernel = gaussian_kernel(AffineFlowExact.harmonic(1.5, 0.8), 0.9)
    step = csvtext.kernel_step(kernel, UniformGrid.from_bounds(-4.0, 3.0, n))
    blocks = list(itertools.islice(csvtext.kernel_csv_blocks(step), 1, 8))  # after the header
    assert sum(block.count(b"\n") for block in blocks) >= 3 * n  # three rows at least
    assert max(map(len, blocks)) <= 100 * 1024


def test_verify_determinism_check_holds_no_list_of_lines():
    # check 8 compares the two runs' byte blocks in lockstep and keeps
    # neither run: 740 KiB traced, against 1.78 MiB when it joined one str
    # per line from the adapters, 1.22 MiB when it joined both runs' blocks
    # and 825 KiB when it kept the first run's
    import ccrflow.verify as verify_mod

    verify_mod._check_report_determinism()  # imports and caches outside the count
    tracemalloc.start()
    try:
        ok, detail = verify_mod._check_report_determinism()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ok, detail) == (True, "byte-identical output on repeated runs (402247 bytes)")
    assert peak < 768 * 1024


def test_library_never_calls_the_line_adapters():
    # kernel_csv_lines and wavefunction_csv_lines stay for perfbench/traced.py;
    # every output in the library, verify's check 8 too, is built from blocks
    called = set()
    for path in sorted(pathlib.Path(ccrflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("kernel_csv_lines", "wavefunction_csv_lines"):
                    called.add((path.name, name))
    assert called == set()
    assert callable(cli.kernel_csv_lines) and callable(cli.wavefunction_csv_lines)


def test_kernel_phase_overflow_is_one_line_before_any_fork(tmp_path, capsys, monkeypatch):
    # finite coefficients, but b x^2 overflows: this printed nan with exit 0
    # after numpy's warnings
    forks = _count_forks(monkeypatch)
    argv = ["kernel", "--model", "free", "--m", "1e290", "--t", "1e-10", "--x-min", "-1e10",
            "--x-max", "1e10", "--n", "200"]
    path = tmp_path / "k.csv"
    for output in ([], ["--output", str(path)]):
        assert main(argv + output) == 3
        out, err = capsys.readouterr()
        assert out == "" and forks == [] and not path.exists()
        assert err.count("\n") == 1 and err.startswith("ccrflow: domain error: ")


def _cli_env(unbuffered: str | None) -> dict:
    """os.environ for ``python -m ccrflow.cli`` with PYTHONUNBUFFERED as given.
    Set, stdout writes through and a dead pipe fails a write in main; unset,
    stdout buffers and the pipe may fail first in run's flush."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(ccrflow.__file__).parents[1])
    return env if unbuffered is None else env | {"PYTHONUNBUFFERED": unbuffered}


_UNBUFFERED = pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])


@_UNBUFFERED
def test_kernel_to_closed_pipe_is_one_line(unbuffered):
    # kernel ... | head -1: the writer stops at the broken pipe
    proc = subprocess.Popen([sys.executable, "-m", "ccrflow.cli", "kernel",
                             *_KERNEL_FLAGS["free"], "--t", "1", "--x-min", "-4", "--x-max", "4",
                             "--n", "887"], env=_cli_env(unbuffered), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"x_b,x_a,re,im\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err.count(b"\n") == 1 and err.startswith(b"ccrflow: error: ")


@_UNBUFFERED
@pytest.mark.parametrize("argv", [
    pytest.param(["normord", "(X+P)^3"], id="normord"),
    # buffered, the report still waits in stdout when --output fails: main's
    # line is the one line
    pytest.param(["pathint", "--force=0", "--m", "1", "--t-total", "1", "--x-min", "-6",
                  "--x-max", "6", "--n", "512", "--convergence", "2,4",
                  "--output", "missing/out.csv"], id="report-then-bad-output"),
])
def test_dead_pipe_at_exit_is_one_line(argv, unbuffered, tmp_path):
    # output into a pipe whose reader has gone: buffered, the output waited
    # for the interpreter's teardown, which printed two lines of its own and
    # exited 120
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        done = subprocess.run([sys.executable, "-m", "ccrflow.cli", *argv], cwd=tmp_path,
                              env=_cli_env(unbuffered), stdout=write_fd, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_fd)
    assert done.returncode == 2
    err = done.stderr.decode()
    assert err.count("\n") == 1 and err.startswith("ccrflow: error: [Errno ")


def test_closed_stdout_is_one_line():
    # normord "P*X" >&- ended in an AttributeError traceback, exit 1
    done = subprocess.run(["sh", "-c", 'exec "$0" -m ccrflow.cli normord "P*X" >&-',
                           sys.executable], env=_cli_env(None), capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (2, b"ccrflow: error: stdout is closed\n")


@_UNBUFFERED
def test_evolve_with_stdout_closed_is_one_line(unbuffered):
    # the numeric commands end the same way as normord "P*X" >&-
    done = subprocess.run(["sh", "-c", 'exec "$0" -m ccrflow.cli "$@" >&-', sys.executable,
                           *_README["evolve"]], env=_cli_env(unbuffered), capture_output=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (2, b"ccrflow: error: stdout is closed\n")


@_UNBUFFERED
def test_kernel_into_head_c_is_one_line(unbuffered):
    # kernel ... --n 384 | head -c 100: the writer stops at the broken pipe
    proc = subprocess.Popen([sys.executable, "-m", "ccrflow.cli", "kernel",
                             *_KERNEL_FLAGS["harmonic"], "--t", "0.9", "--x-min", "-4",
                             "--x-max", "3", "--n", "384"], env=_cli_env(unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(100).startswith(b"x_b,x_a,re,im\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err.count(b"\n") == 1 and err.startswith(b"ccrflow: error: [Errno ")


_README = {
    "kernel": ["kernel", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-5", "--x-max",
               "5", "--n", "64"],
    "evolve": ["evolve", "--model", "harmonic", "--m", "1", "--omega", "1", "--t", "1.5707963",
               "--x-min", "-6", "--x-max", "6", "--n", "512", "--x0", "1", "--p0", "0.5",
               "--sigma", "1"],
    "pathint": ["pathint", "--force=-4*X", "--m", "4", "--t-total", "3", "--x-min", "-2.55",
                "--x-max", "2.55", "--n", "896", "--x0", "0.3", "--sigma", "0.5",
                "--convergence", "5,10,20,40"],
}


@_UNBUFFERED
@pytest.mark.parametrize("command", sorted(_README))
def test_stdout_bytes_are_the_output_file_bytes(command, unbuffered, tmp_path):
    # the same blocks go to stdout's bytes, to --output and, in process, as
    # text to a stdout that has no bytes (io.StringIO)
    report = tmp_path / "report.csv"
    argv = _README[command] + (["--report-output", str(report)] if command == "pathint" else [])
    shown = subprocess.run([sys.executable, "-m", "ccrflow.cli", *argv], env=_cli_env(unbuffered),
                           capture_output=True, timeout=60, check=True)
    reports = [report.read_bytes()] if command == "pathint" else []
    path = tmp_path / "out.csv"
    subprocess.run([sys.executable, "-m", "ccrflow.cli", *argv, "--output", str(path)],
                   env=_cli_env(unbuffered), capture_output=True, timeout=60, check=True)
    assert shown.stdout == path.read_bytes() and shown.stderr == b""
    assert reports == ([report.read_bytes()] if command == "pathint" else [])
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue() == shown.stdout.decode()


class _Trickle(io.RawIOBase):
    """A raw stream that takes at most 7 bytes a write, as a raw stdout may."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += bytes(b[:7])
        return min(7, len(b))


def test_raw_stdout_gets_every_byte(tmp_path, monkeypatch):
    # the text layer over a raw stdout drops what a short write leaves
    path = tmp_path / "k.csv"
    assert main(_README["kernel"] + ["--output", str(path)]) == 0
    raw = _Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    print("before", end="")
    assert main(_README["kernel"]) == 0
    assert raw.data == b"before" + path.read_bytes()
    assert raw.writes > len(raw.data) // 7


@pytest.mark.parametrize("fd2", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code", [
    pytest.param(["normord", "X ?"], 2, id="usage-error"),
    pytest.param(["normord", "123456789^4096"], 3, id="domain-error"),
])
def test_unwritable_stderr_keeps_the_exit_status(argv, code, fd2):
    # fd 2 closed: the error line went to stdout (print(file=None)); fd 2
    # read-only: main's print raised OSError from its own except clause, exit 1
    done = subprocess.run(["sh", "-c", f'exec "$0" -m ccrflow.cli "$@" {fd2}',
                           sys.executable, *argv], env=_cli_env(None),
                          stdout=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stdout) == (code, b"")


_AT_EXIT = """
import atexit, sys
from ccrflow.cli import run

atexit.register(print, "teardown ran", file=sys.stderr)
sys.argv[1:] = {argv!r}
run()
"""


@pytest.mark.parametrize("argv, code, out", [
    pytest.param(["normord", "P*X"], 0, "X*P - (0,1)*1\n", id="result"),
    pytest.param(["--help"], 0, "usage: ccrflow", id="help"),
    pytest.param(["normord", "X ? P"], 2, "", id="usage-error"),
    pytest.param(["normord", "123456789^4096"], 3, "", id="domain-error"),
])
def test_run_exits_with_mains_status_before_teardown(argv, code, out):
    done = subprocess.run([sys.executable, "-c", _AT_EXIT.format(argv=argv)],
                          env=_cli_env(None), capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert done.stdout.startswith(out) and (out or done.stdout == "")
    assert done.stderr.count("\n") == (code > 0) and "teardown ran" not in done.stderr


def test_run_under_a_profiler_keeps_its_report():
    # os._exit would end the process before cProfile prints its table
    done = subprocess.run([sys.executable, "-m", "cProfile", "-m", "ccrflow.cli", "normord",
                           "P*X"], env=_cli_env(None), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    first, table = done.stdout.split("\n", 1)
    assert first == "X*P - (0,1)*1" and "function calls" in table


def test_hooked_sees_trace_profile_and_monitoring_tools(monkeypatch):
    class Monitoring:  # sys.monitoring (Python >= 3.12) with one tool in use
        def __init__(self, used):
            self.used = used

        def get_tool(self, tool):
            return "coverage" if tool == self.used else None

    monkeypatch.setattr(sys, "monitoring", Monitoring(None), raising=False)
    hooked = sys.gettrace() is not None or sys.getprofile() is not None
    assert cli._hooked() is hooked
    monkeypatch.setattr(sys, "monitoring", Monitoring(5))
    assert cli._hooked()
    monkeypatch.delattr(sys, "monitoring")
    assert cli._hooked() is hooked


# ---- subcommands ----

def test_normord_command(capsys):
    assert main(["normord", "P*X"]) == 0
    assert capsys.readouterr().out == "X*P - (0,1)*1\n"


def test_normord_long_word(capsys):
    # the recursive normal ordering ended in a RecursionError here
    assert main(["normord", "P^40*X^40"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("X^40*P^40 - (0,1600)*X^39*P^39 - 1216800*X^38*P^38 + ")


def test_symbolic_outputs_match_golden_bytes(capsys):
    # stdout captured before the algebra was keyed by exponent pairs: the
    # README normord/comm/series examples, verify, and a set of benchmark
    # symbolic jobs ((aX+bP)^k, comm of powers, c*P^k*X^k, long series); the
    # README linear kernel --coefficients, whose bytes come from Python float
    # arithmetic and cmath.sqrt alone (no numpy loop, no libm cos/sin); and the
    # harmonic kernel --coefficients past one and two caustics (omega t = 4, 7),
    # which pins the continued amplitude, from Python floats and cmath only
    golden = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())
    for case in golden:
        assert main(case["argv"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == case["stdout"], case["argv"]


def test_comm_command(capsys):
    assert main(["comm", "X^3", "P"]) == 0
    assert capsys.readouterr().out == "(0,3)*X^2\n"


def test_series_command(capsys):
    assert main(["series", "--model", "harmonic", "--order", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X(t) model=harmonic order=3"
    assert out[1] == "0: X"
    assert out[2] == "1: m^-1*P"
    assert out[3] == "2: -omega^2*X"
    assert out[4] == "3: -m^-1*omega^2*P"
    assert out[5] == "P(t) model=harmonic order=3"


def test_kernel_command_value(capsys):
    assert main(["kernel", "--model", "free", "--m", "1", "--t", "1",
                 "--x-min", "0", "--x-max", "1", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_b,x_a,re,im"
    first = lines[1].split(",")
    assert first[2] == "2.8209479177387814e-01"
    assert first[3] == "-2.8209479177387814e-01"


def test_kernel_coefficient_serialization(capsys):
    assert main(["kernel", "--model", "linear", "--m", "2", "--F0", "3",
                 "--t", "0.5", "--x-min", "-1", "--x-max", "1", "--n", "4",
                 "--coefficients"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("a_re,a_im,b_re")
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == 2.0  # a = m/(2t)
    assert vals[2] == -4.0  # b = -1/beta
    assert vals[6] == 0.75  # d = F0 t / 2


def test_evolve_command(tmp_path):
    out = tmp_path / "psi.csv"
    code = main(["evolve", "--model", "harmonic", "--m", "1", "--omega", "1",
                 "--t", str(math.pi / 2), "--x-min", "-6", "--x-max", "6",
                 "--n", "256", "--x0", "1", "--p0", "0.5", "--sigma", "1",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 257


def _sinc_dvr_state(x, psi0, m, omega, t):
    """exp(-i H t) psi0 for H = P^2/(2m) + m omega^2 X^2/2 in the sinc DVR of the
    grid x (Colbert and Miller, J. Chem. Phys. 96, 1982 (1992)), by eigh."""
    dx = x[1] - x[0]
    lag = np.subtract.outer(np.arange(len(x)), np.arange(len(x)))
    off = np.where(lag == 0, 1, lag)
    kinetic = np.where(lag == 0, math.pi ** 2 / 3, 2.0 * (-1.0) ** off / off ** 2)
    energy, modes = np.linalg.eigh(kinetic / (2 * m * dx * dx)
                                   + np.diag(m * omega ** 2 * x * x / 2))
    return modes @ (np.exp(-1j * energy * t) * (modes.T @ psi0))


def test_evolve_past_a_caustic_matches_the_sinc_dvr_state(tmp_path):
    # the principal-branch amplitude, without the Maslov sign, gave -psi: a
    # state 2.0 from this reference, with exit 0
    out = tmp_path / "psi.csv"
    assert main(["evolve", "--model", "harmonic", "--m", "1", "--omega", "1", "--t", "4.0",
                 "--x-min", "-6", "--x-max", "6", "--n", "512", "--x0", "1", "--sigma", "1",
                 "--output", str(out)]) == 0
    x, re, im = np.loadtxt(out, delimiter=",", skiprows=1).T
    want = _sinc_dvr_state(x, math.pi ** -0.25 * np.exp(-(x - 1) ** 2 / 2), 1.0, 1.0, 4.0)
    assert np.linalg.norm(re + 1j * im - want) < 2e-6 * np.linalg.norm(want)


def test_pathint_command_with_convergence(tmp_path):
    psi_csv = tmp_path / "psi.csv"
    report_csv = tmp_path / "report.csv"
    code = main(["pathint", "--force=-4*X", "--m", "4",
                 "--t-total", "3", "--x-min", "-2.55", "--x-max", "2.55",
                 "--n", "896", "--x0", "0.3", "--sigma", "0.5",
                 "--convergence", "5,10,20",
                 "--output", str(psi_csv), "--report-output", str(report_csv)])
    assert code == 0
    rows = report_csv.read_text().splitlines()
    assert rows[0] == "steps,dt,l2_error,ratio"
    assert len(rows) == 4
    last = rows[-1].split(",")
    assert float(last[3]) == pytest.approx(4.0, abs=0.5)
    assert len(psi_csv.read_text().splitlines()) == 897


def test_pathint_convergence_writes_finest_state(tmp_path):
    common = ["pathint", "--force=-4*X-X^3", "--m", "4", "--t-total", "3",
              "--x-min", "-2.55", "--x-max", "2.55", "--n", "256",
              "--x0", "0.3", "--sigma", "0.5"]
    study, single = tmp_path / "study.csv", tmp_path / "single.csv"
    assert main(common + ["--convergence", "5,10", "--output", str(study),
                          "--report-output", str(tmp_path / "report.csv")]) == 0
    assert main(common + ["--steps", "10", "--output", str(single)]) == 0
    assert study.read_bytes() == single.read_bytes()


def test_unbound_force_parameter_is_usage_error(capsys):
    assert main(["pathint", "--force=-k*X", "--m", "1", "--t-total", "1",
                 "--steps", "2", "--x-min", "-6", "--x-max", "6",
                 "--n", "256"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'k'" in err


@pytest.mark.parametrize("force, hint", [("omega*X", "give --omega"), ("F0^2*X", "give --F0"),
                                         ("k*X", "only m, omega, F0 bind")])
def test_unbound_force_parameter_names_its_flag(force, hint, capsys):
    # omega and F0 bind from their flags: the line said only m, omega, F0 bind
    # to a force that named omega without --omega
    name = force.split("*")[0].split("^")[0]
    assert main(["pathint", f"--force={force}", "--m", "1", "--t-total", "1", "--steps", "2",
                 "--x-min", "-6", "--x-max", "6", "--n", "256"]) == 2
    assert capsys.readouterr() == (
        "", f"ccrflow: error: force has unbound parameter {name!r}; {hint}\n")


@pytest.mark.parametrize("flags, config", [
    (["--steps", "3", "--convergence", "5,10"], ""),
    (["--convergence", "5,10"], "steps = 3\n"),
    (["--steps", "3"], "convergence = 5,10\n"),
], ids=["flags", "steps-from-config", "convergence-from-config"])
def test_pathint_steps_with_convergence_is_usage_error(flags, config, tmp_path, capsys,
                                                       monkeypatch):
    # --steps was dropped without a word when --convergence was given too
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    monkeypatch.setattr(cli, "_packet", _reached)
    assert main([*_PATHINT, *flags, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "ccrflow: error: give --steps or --convergence, "
                                       "not both\n")


def test_caustic_test_is_scale_free(capsys):
    # beta = 1e-13 for a heavy free particle, but beta m / t = 1
    assert main(["kernel", "--model", "free", "--m", "1e13", "--t", "1",
                 "--x-min", "-1", "--x-max", "1", "--n", "4", "--coefficients"]) == 0
    # a light oscillator at omega t = pi has |beta| = 1.2e-10, still a caustic
    assert main(["kernel", "--model", "harmonic", "--m", "1e-6", "--omega", "1",
                 "--t", str(math.pi), "--x-min", "-1", "--x-max", "1",
                 "--n", "4", "--coefficients"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--t", "inf"), ("--x-max", "inf"),
                                         ("--m", "nan"), ("--t", "Infinity")])
def test_non_finite_flag_is_usage_error(flag, value, capsys):
    args = {"--model": "free", "--m": "1", "--t": "1", "--x-min": "-1",
            "--x-max": "1", "--n": "4"}
    args[flag] = value
    assert main(["kernel"] + [part for item in args.items() for part in item]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert flag in captured.err and value in captured.err


def test_non_finite_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = free\nm = 1\nt = inf\nx_min = -1\nx_max = 1\nn = 4\n")
    assert main(["kernel", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "run.cfg:3: t:" in captured.err and "'inf'" in captured.err


@pytest.mark.filterwarnings("ignore::ccrflow.propagator.BoundaryLeak")
def test_flow_beyond_float_range_is_domain_error(capsys):
    # an inverted oscillator with sqrt(kappa) t = 1000: cosh overflows
    assert main(["pathint", "--force=1000000*X", "--m", "1", "--t-total", "1",
                 "--x-min", "-0.001", "--x-max", "0.001", "--n", "64",
                 "--convergence", "1,2", "--output", "/dev/null"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cosh(1000)" in err


def test_negative_exponent_form_is_a_value(capsys):
    args = ["evolve", "--model", "free", "--m", "1", "--t", "1",
            "--x-max", "10", "--n", "512"]
    for value in ("-1e1", "-1.0E+1", "-.1e2"):
        assert main(args + [f"--x-min={value}"]) == 0
        expected = capsys.readouterr().out
        assert main(args + ["--x-min", value]) == 0
        assert capsys.readouterr().out == expected
    assert main(["kernel", "--model", "linear", "--m", "1", "--F0", "-2.5E-1",
                 "--t", "1", "--x-min", "-1", "--x-max", "1", "--n", "2",
                 "--coefficients"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[6] == "-1.2500000000000000e-01"


def test_cli_warning_is_one_line(capsys):
    # the packet runs into the box edge, so propagate warns BoundaryLeak
    args = ["pathint", "--force=0", "--m", "1", "--t-total", "2", "--x-min", "-6",
            "--x-max", "6", "--n", "256", "--x0", "2", "--p0", "2", "--steps", "2"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("ccrflow: warning: edge mass fraction")
    assert ".py:" not in captured.err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert quiet.out == captured.out


def test_evolve_warning_is_one_line(capsys):
    # the README evolve grid at t = 5 put 1.4e-2 of the mass on the edge
    # samples and exited 0 with nothing on stderr
    assert main(["evolve", "--model", "free", "--m", "1", "--t", "5", "--x-min", "-6",
                 "--x-max", "6", "--n", "512", "--x0", "1", "--p0", "0.5", "--sigma", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("ccrflow: warning: edge mass fraction 1.42e-02 exceeds 1e-06; "
                            "results near the boundary are unreliable\n")
    assert captured.out.count("\n") == 513


def test_config_file_merge_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = harmonic\norder = 2  # truncation\n")
    assert main(["series", "--config", str(cfg), "--order", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X(t) model=harmonic order=1"
    assert main(["series", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X(t) model=harmonic order=2"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phi = 1\n")
    assert main(["series", "--config", str(cfg), "--model", "free"]) == 2
    capsys.readouterr()


# one valid value for each of the 17 config keys
_CONFIG_VALUES = {"model": "harmonic", "m": "2", "omega": "3", "F0": "0.5", "x_min": "-1",
                  "x_max": "1", "n": "8", "t": "1", "t_total": "1", "steps": "2", "order": "1",
                  "x0": "0", "p0": "0", "sigma": "1", "force": "-X", "convergence": "1,2"}


def test_config_keys_are_the_value_flags(tmp_path, capsys):
    # every value flag but --config and --report-output, spelled with '_'
    out = tmp_path / "series.txt"
    cfg = tmp_path / "run.cfg"
    values = dict(_CONFIG_VALUES, output=str(out))
    assert len(values) == 17
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    assert main(["series", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text().splitlines()[:2] == ["X(t) model=harmonic order=1", "0: X"]
    for body, message in [
        ("report_output = r.csv\n", "1: unknown key 'report_output'"),
        ("config = other.cfg\n", "1: unknown key 'config'"),
        ("model = free\nn = four\n", "2: n: invalid literal for int() with base 10: 'four'"),
        ("\nm = 1\nconvergence = 10,5\n",
         "3: convergence: expected increasing positive step counts, got '10,5'"),
        ("x0 = nan  # comment\n", "1: x0: expected a finite number, got 'nan'"),
        ("order\n", "1: expected 'key = value'"),
    ]:
        cfg.write_text(body)
        assert main(["series", "--config", str(cfg), "--model", "free"]) == 2
        assert capsys.readouterr() == ("", f"ccrflow: error: {cfg}:{message}\n")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently across Python versions; "
                           "recorded with 3.11")
def test_help_matches_golden_bytes(capsys, monkeypatch):
    # ccrflow --help and each subcommand's --help, recorded before the value
    # flags were built from one option table
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads((pathlib.Path(__file__).parent / "golden_help.json").read_text())
    assert len(golden) == 8
    for case in golden:
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (case["stdout"], ""), case["argv"]


def _traced_table(name: str) -> list[tuple]:
    """The string fields of each row of perfbench/traced.py's table name,
    read from its source without running it."""
    source = pathlib.Path(__file__).parents[1] / "perfbench" / "traced.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return [tuple(field.value for field in row.elts
                          if isinstance(field, ast.Constant) and isinstance(field.value, str))
                    for row in node.value.elts]
    raise AssertionError(f"no {name} table in {source}")


def test_traced_benchmark_names_exist():
    # the traced benchmark passes wrap these by name and fail on a missing one
    functions, methods = _traced_table("FUNCTIONS"), _traced_table("METHODS")
    assert len(functions) >= 10 and len(methods) >= 3
    for _span, home, attr in functions:
        assert callable(getattr(importlib.import_module(home), attr, None)), (home, attr)
    for _span, home, cls, attr in methods:
        owner = getattr(importlib.import_module(home), cls, None)
        assert callable(getattr(owner, attr, None)), (home, cls, attr)


_CHILD_CALLS = {"fork", "pipe", "waitpid", "kill"}


def test_only_run_split_starts_and_ends_a_child():
    # one function owns verify's child process from fork to reap
    owners = set()
    for path in sorted(pathlib.Path(ccrflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in _CHILD_CALLS
                        and getattr(node.value, "id", None) == "os"):
                    owners.add(owner)
                if (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and {alias.name for alias in node.names} & _CHILD_CALLS):
                    owners.add(owner)
    assert owners == {"verify._run_split"}
    assert not any(hasattr(cli, name) for name in ("_fork_worker", "_forked", "_usable_cpus"))


def test_outputs_are_byte_identical(tmp_path):
    args = ["kernel", "--model", "harmonic", "--m", "1.5", "--omega", "0.8",
            "--t", "1.1", "--x-min", "-2", "--x-max", "2", "--n", "32"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS (8/8 checks)" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    import ccrflow.verify as verify_mod

    def broken():
        return False, "synthetic failure"

    checks = verify_mod._CHECKS
    # check 2 runs in the exact half (a forked child), check 8 here
    for index in (1, 7):
        monkeypatch.setattr(verify_mod, "_CHECKS",
                            checks[:index] + [(f"{index + 1} broken", broken)]
                            + checks[index + 1:])
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert f"check {index + 1} broken: FAIL (synthetic failure)" in out
        assert "result: FAIL (7/8 checks)" in out
    _assert_no_child_left()


def _second_run_changed(monkeypatch, name: str, change) -> None:
    """Patch csvtext.name so that its second call returns change(its blocks)."""
    real = getattr(csvtext, name)
    calls = []

    def blocks(*args):
        calls.append(1)
        out = list(real(*args))
        return change(out) if len(calls) == 2 else out

    monkeypatch.setattr(csvtext, name, blocks)


@pytest.mark.parametrize("name, change", [
    ("wavefunction_csv_blocks",
     lambda out: [out[0], bytes([out[1][0] ^ 1]) + out[1][1:], *out[2:]]),
    ("kernel_csv_blocks", lambda out: out[:-1]),
    ("kernel_csv_blocks", lambda out: [*out, out[-1]]),
], ids=["one-flipped-byte", "one-block-short", "one-block-extra"])
def test_verify_catches_a_second_run_that_differs(name, change, capsys, monkeypatch):
    # planted faults in check 8's second run: a flipped byte, a missing block,
    # a block too many
    _second_run_changed(monkeypatch, name, change)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert ("check 8 report-determinism: FAIL (repeated pipelines produced different "
            "bytes)\n") in out
    assert out.endswith("result: FAIL (7/8 checks)\n")
    _assert_no_child_left()


def _verify_one_process_ways(monkeypatch):
    """Reach verify's one-process path through a fork that fails (EAGAIN),
    then through a platform without os.fork; yields the forks counted."""
    with monkeypatch.context() as patch:
        yield _count_forks(patch, fail_on=1)
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        yield None


@_NEEDS_FORK
def test_verify_report_is_the_same_in_one_and_two_processes(capsys, monkeypatch):
    # the fork and a platform without os.fork give the golden report, and
    # leave no descriptor open and no child behind (a failed fork: below)
    golden = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())
    want, = [case["stdout"] for case in golden if case["argv"] == ["verify"]]
    fds = _open_fds()
    forks = _count_forks(monkeypatch)
    assert main(["verify"]) == 0
    assert capsys.readouterr() == (want, "") and forks == [1]
    monkeypatch.delattr(os, "fork")
    assert main(["verify"]) == 0
    assert capsys.readouterr() == (want, "")
    assert _open_fds() == fds
    _assert_no_child_left()


@_NEEDS_FORK
@pytest.mark.parametrize("processes", [1, 2])
def test_verify_check_that_raises_fails_alone(capsys, monkeypatch, processes):
    import ccrflow.verify as verify_mod

    def raises(exc):
        def check():
            raise exc
        return check

    checks = list(verify_mod._CHECKS)
    checks[2] = ("3 raises", raises(ZeroDivisionError("in the exact half")))
    checks[5] = ("6 raises", raises(KeyError("numeric")))
    monkeypatch.setattr(verify_mod, "_CHECKS", checks)
    ways = [_count_forks(monkeypatch)] if processes == 2 else _verify_one_process_ways(
        monkeypatch)
    for forks in ways:
        assert main(["verify"]) == 1
        assert forks in ([1], None)
        out, err = capsys.readouterr()
        assert err == ""
        assert "check 3 raises: FAIL (raised ZeroDivisionError: in the exact half)\n" in out
        assert "check 6 raises: FAIL (raised KeyError: 'numeric')\n" in out
        assert out.count(": PASS (") == 6
        assert out.endswith("result: FAIL (6/8 checks)\n")
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_child_that_dies_fails_its_checks(capsys, monkeypatch):
    import ccrflow.verify as verify_mod

    checks = list(verify_mod._CHECKS)
    checks[1] = ("2 exits", lambda: os._exit(7))
    monkeypatch.setattr(verify_mod, "_CHECKS", checks)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    assert main(["verify"]) == 1
    assert forks == [1] and _open_fds() == fds
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("check ") and ": FAIL (" in line]
    assert [line.split(":")[0] for line in failed] == [
        "check 1 derivative-rules", "check 2 exits", "check 3 heisenberg-symmetrization",
        "check 4 flow-correctness"]
    assert all(line.endswith("(its process exited with status 7 before it reported)")
               for line in failed)
    assert lines[-1] == "result: FAIL (4/8 checks)"
    _assert_no_child_left()


def _top_ccr_terms(a: OpExpr, b: OpExpr) -> OpExpr:
    """The highest-r term C(q, r) c!/(c-r)! (-i)^r X^(p+c-r) P^(q+d-r),
    r = min(q, c) >= 1, of each product X^p P^q X^c P^d of a term of a and
    a term of b, summed without an operator product."""
    out = OpExpr.zero()
    for (p, q), c1 in a.terms.items():
        for (c, d), c2 in b.terms.items():
            r = min(q, c)
            if r:
                weight = c1 * c2 * ScalarCoeff.rational(0, -1) ** r * (
                    math.comb(q, r) * math.perm(c, r))
                out = out + OpExpr({(p + c - r, q + d - r): weight})
    return out


@_NEEDS_FORK
def test_verify_catches_a_product_that_drops_a_term(capsys, monkeypatch):
    # a planted fault in OpExpr.__mul__ fails check 2, which builds its
    # words through the product, in the forked child
    real_mul = OpExpr.__mul__

    def dropping_mul(self, other):
        out = real_mul(self, other)
        return out - _top_ccr_terms(self, other) if isinstance(other, OpExpr) else out

    monkeypatch.setattr(OpExpr, "__mul__", dropping_mul)
    forks = _count_forks(monkeypatch)
    assert main(["verify"]) == 1
    assert forks == [1]
    out = capsys.readouterr().out
    assert ("check 2 oracle-equivalence: FAIL (letter-by-letter and ordered actions "
            "differ)\n") in out
    assert "result: FAIL (" in out
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_catches_a_commutator_that_drops_a_term(capsys, monkeypatch):
    # the same fault planted in the one-pass commutator fails check 1
    import ccrflow.heisenberg as heisenberg_mod
    import ccrflow.opalg as opalg_mod
    import ccrflow.verify as verify_mod

    real_commutator = opalg_mod.commutator

    def dropping_commutator(a, b):
        return real_commutator(a, b) - _top_ccr_terms(a, b) + _top_ccr_terms(b, a)

    for mod in (opalg_mod, heisenberg_mod, verify_mod):
        monkeypatch.setattr(mod, "commutator", dropping_commutator)
    forks = _count_forks(monkeypatch)
    assert main(["verify"]) == 1
    assert forks == [1]
    out = capsys.readouterr().out
    assert "check 1 derivative-rules: FAIL (failed on a polynomial in X)\n" in out
    assert "result: FAIL (" in out
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_catches_a_scaled_polynomial_with_a_flipped_sign(capsys, monkeypatch):
    # Polynomial * constant and check 1's expected sides i q'(X) and
    # -i q'(P) share Polynomial._scaled; a flipped sign there fails check 1
    real_scaled = Polynomial._scaled

    def flipped(self, w, order=0):
        return real_scaled(self, (-w[0], -w[1], w[2]), order)

    monkeypatch.setattr(Polynomial, "_scaled", flipped)
    assert (Polynomial.monomial(2) * 3).coeffs[2] == ScalarCoeff.rational(-3)
    forks = _count_forks(monkeypatch)
    assert main(["verify"]) == 1
    assert forks == [1]
    out = capsys.readouterr().out
    assert "check 1 derivative-rules: FAIL (failed on a polynomial in X)\n" in out
    assert "result: FAIL (" in out
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_catches_an_action_weight_off_by_one(capsys, monkeypatch):
    # apply_to_polynomial folds a constant coefficient with (-i)^b k!/(k-b)!
    # into one weight; k!/(k-b)! + 1 there fails check 2, whose polynomials
    # have constant coefficients only, and leaves check 1 passing
    import ccrflow.opalg as opalg_mod

    off_by_one = types.SimpleNamespace(**vars(math))
    off_by_one.perm = lambda k, b: math.perm(k, b) + 1
    monkeypatch.setattr(opalg_mod, "math", off_by_one)
    assert opalg_mod.apply_to_polynomial(P, Polynomial.monomial(1)) == Polynomial.monomial(
        0, ScalarCoeff.rational(0, -2))
    forks = _count_forks(monkeypatch)
    assert main(["verify"]) == 1
    assert forks == [1]
    out = capsys.readouterr().out
    assert "check 1 derivative-rules: PASS (" in out
    assert ("check 2 oracle-equivalence: FAIL (letter-by-letter and ordered actions "
            "differ)\n") in out
    _assert_no_child_left()


def _fraction_rational(rng):
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _fraction_polynomial(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    coeffs = {}
    for k in range(degree + 1):
        if rng.random() < 0.3 and k != degree:
            continue
        coeffs[k] = ScalarCoeff.rational(_fraction_rational(rng), _fraction_rational(rng))
    return Polynomial(coeffs)


def _fraction_words(rng, max_words=4, max_len=6):
    return [("".join(rng.choice("XP") for _ in range(rng.randint(0, max_len))),
             ScalarCoeff.rational(_fraction_rational(rng), _fraction_rational(rng)))
            for _ in range(rng.randint(1, max_words))]


def test_verify_draws_match_the_fraction_built_draws():
    # checks 1 and 2 build each weight from its four integer draws; the
    # Fraction-built draws above, which they replace, give the same values,
    # words and term order, and leave each stream in the same state
    import ccrflow.verify as verify_mod

    def terms(q):
        return [(k, list(c.terms.items())) for k, c in q.coeffs.items()]

    ours, theirs = random.Random(1101), random.Random(1101)
    for _ in range(200):
        assert terms(verify_mod._random_polynomial(ours)) == terms(_fraction_polynomial(theirs))
    assert ours.getstate() == theirs.getstate()
    ours, theirs = random.Random(1102), random.Random(1102)
    for _ in range(500):
        got, want = verify_mod._random_words(ours), _fraction_words(theirs)
        assert [(w, list(c.terms.items())) for w, c in got] == [
            (w, list(c.terms.items())) for w, c in want]
        assert terms(verify_mod._random_polynomial(ours)) == terms(_fraction_polynomial(theirs))
    assert ours.getstate() == theirs.getstate()


@_NEEDS_FORK
def test_verify_failed_fork_runs_every_check_here(capsys, monkeypatch):
    # this exited 2 with "[Errno 11] Resource temporarily unavailable"
    golden = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())
    want, = [case["stdout"] for case in golden if case["argv"] == ["verify"]]
    forks = _count_forks(monkeypatch, fail_on=1)
    fds = _open_fds()
    assert main(["verify"]) == 0
    assert capsys.readouterr() == (want, "")
    assert forks == [1] and _open_fds() == fds
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_interrupted_kills_and_reaps_its_child(monkeypatch):
    import ccrflow.verify as verify_mod

    def interrupted():
        raise KeyboardInterrupt

    checks = list(verify_mod._CHECKS)
    checks[4] = ("5 interrupted", interrupted)  # in this process, while the child runs
    monkeypatch.setattr(verify_mod, "_CHECKS", checks)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        main(["verify"])
    assert forks == [1] and _open_fds() == fds
    _assert_no_child_left()


@_NEEDS_FORK
def test_verify_interrupted_wait_still_reaps_its_child(monkeypatch):
    # Ctrl-C while this process waits for a child that has sent its results
    real_waitpid = os.waitpid
    waited = []

    def waitpid(pid, options):
        waited.append(pid)
        if len(waited) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        main(["verify"])
    monkeypatch.undo()
    assert waited == [waited[0]] * 2 and _open_fds() == fds
    _assert_no_child_left()


# ---- exit codes, leading '-', and the import graph ----

_SMALL = ["--model", "free", "--m", "1", "--t", "1", "--x-min", "-1", "--x-max", "1"]
# kernel and pathint pass their caps; evolve failed at allocation, allocating
# nothing, and now passes the grid FFT length cap
_OVERSIZED = _SMALL + ["--n", "100000000000"]
# beta = t/m and gamma = F0 t^2/(2m) overflow: these printed nan and exited 0
_BEYOND_FLOAT = ["--model", "linear", "--m", "1e-300", "--F0", "1e300", "--t", "1e10",
                 "--x-min", "-1", "--x-max", "1", "--n", "4"]
_PATHINT = ["pathint", "--force=-X", "--m", "1", "--t-total", "1", "--x-min", "-1",
            "--x-max", "1", "--n", "8"]
_OVERFLOW = ["pathint", "--force=1000000*X", "--m", "1", "--t-total", "1", "--x-min",
             "-0.001", "--x-max", "0.001", "--n", "64", "--convergence", "1,2",
             "--output", os.devnull]
# int() rejects both digit runs: '²' is a digit but not a decimal, and the
# other is one digit longer than int() converts
_TOO_MANY_DIGITS = "X+" + "9" * (sys.get_int_max_str_digits() + 1)
# a name goes on with letters, decimals and '_' only: 'X²' and 'X½' printed 0
# as a commutator and 'X½*1' as a word
_BYTE_OFFSETS = {"X ? P": 2, "X^-1": 1, "X+²": 2, _TOO_MANY_DIGITS: 2,
                 "X²": 1, "X½": 1, "X/2": 1, "P^2/2": 3}  # in the error on the first expression
# x^700 - 3 x^699 is inf - inf = NaN at |x| = 3: the slices printed 64 rows
# of nan after five numpy warnings and exited 0
_NAN_FORCE = ["pathint", "--force=X^700-3*X^699", "--m", "4", "--t-total", "3",
              "--x-min", "-3", "--x-max", "3", "--n", "64"]
# a coefficient that cannot be bound ended in a ZeroDivisionError traceback,
# in "(34, 'Numerical result out of range')", or (an infinite product, under
# --convergence) in a usage error about m
_UNBINDABLE = {"--force=omega^-1*X": "omega^-1", "--force=F0^-2*X": "F0^-2",
               "--force=F0*omega*X": "F0*omega"}
_PATHINT_WIDE = ["pathint", "--m", "1", "--t-total", "1", "--x-min", "-3", "--x-max", "3",
                 "--n", "64"]
# (x_max - x_min)/3 is inf: the grid held nan points, and these printed up to
# two numpy warnings before their exit-3 line (--coefficients exited 0)
_HUGE_SPAN = ["--x-min", "-1e308", "--x-max", "1e308", "--n", "4"]
# m w = 5e-324 * 1e-9 underflows to 0: sin(wt)/(m w) ended in a ZeroDivisionError
# traceback, exit 1
_UNDERFLOW = ["--model", "harmonic", "--m", "5e-324", "--omega", "1e-9", "--t", "6",
              "--x-min", "-6", "--x-max", "6", "--n", "3"]
# p (x - c) or (x - c)^2/(2 width^2) left the float range: numpy warned, and then
# the packet's width was blamed for its NaN norm; the last was found by the seeded sweep
_PACKET_PHASE = ["--m", "1", "--x-min", "-6", "--x-max", "6", "--n", "64", "--p0", "1e308"]
_PACKET_EXPONENT = ["evolve", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-1e300",
                    "--x-max", "0", "--n", "200", "--sigma", "1e300"]
_SWEEP_FOUND = ["evolve", "--model", "free", "--m", "0.5", "--omega", "0.1", "--t", "3",
                "--x-min", "0", "--x-max", "12", "--n", "4", "--p0", "1e308"]
# a force whose X coefficient has imaginary part 3e-12 passed the slices' relative
# rule and failed the closed form's absolute one: exit 0, measured against the finest N
_IMAGINARY_FORCE = ["pathint", "--force=(-4,3/1000000000000)*X", "--m", "4", "--t-total", "3",
                    "--x-min", "-2.55", "--x-max", "2.55", "--n", "896", "--x0", "0.3",
                    "--sigma", "0.5", "--convergence", "5,10,20,40"]
# a spike on three points overflowed the sampled norm, with numpy's warning first
_NORM_OVERFLOW = ["evolve", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-1e300",
                  "--x-max", "1e300", "--n", "3", "--sigma", "1e-154"]
# an amplitude (pi width^2)^(-1/4) of 0: 512 rows of zeros and exit 0
_EVOLVE_WIDE = ["evolve", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-6",
                "--x-max", "6", "--n", "512"]
# past omega t = pi the closed-form reference lacked the caustic's Maslov sign:
# l2 errors of 2.0, ratios of 1.0 and exit 0, then a refusal (exit 3); at
# omega t = pi itself the reference is singular
_PATHINT_CAUSTIC = ["pathint", "--force=-1*X", "--m", "1", "--t-total", "4", "--x-min", "-6",
                    "--x-max", "6", "--n", "512", "--x0", "1", "--sigma", "1",
                    "--convergence", "5,10,20"]
_PATHINT_AT_CAUSTIC = [str(math.pi) if arg == "4" else arg for arg in _PATHINT_CAUSTIC]
# one step count for a force that is not affine: its finest run is its reference
# and left out of the report, which held only its header, and exit 0
_ONE_COUNT_CUBIC = ["pathint", "--force=-4*X-X^3", "--m", "4", "--t-total", "3", "--x-min",
                    "-2.55", "--x-max", "2.55", "--n", "896", "--x0", "0.3", "--sigma", "0.5",
                    "--convergence", "40"]
# a grid of n = {} points; n = 2^22 + 1 takes FFTs of 2^24 points, past the cap
_GRID_N = ["--m", "1", "--x-min", "-6", "--x-max", "6", "--n", "{}"]
_EVOLVE_N = ["evolve", "--model", "free", "--t", "1", *_GRID_N]
_PATHINT_N = ["pathint", "--force=-X", "--t-total", "1", *_GRID_N, "--steps", "1"]
_EVOLVE_PAST_CAP, _PATHINT_PAST_CAP = ([arg.format(2 ** 22 + 1) for arg in argv]
                                       for argv in (_EVOLVE_N, _PATHINT_N))
# a packet with no mass on the box passed its norm check as 0 = 0: l2 errors
# of 0 and a ratio of nan in the report, 512 rows of zeros, both with exit 0
_OFF_BOX_PATHINT = ["pathint", "--force=-X", "--m", "1", "--t-total", "3", "--x-min", "-2.55",
                    "--x-max", "2.55", "--n", "896", "--x0", "100", "--sigma", "0.5",
                    "--convergence", "5,10"]
_NAMED = {  # argv -> what its one line must name
    tuple(_PATHINT_AT_CAUSTIC): "beta(3.141592653589793) = 1.225e-16; the kernel is singular",
    tuple(_OFF_BOX_PATHINT): (
        "the packet at --x0 100 of width 0.5 has a norm of 0 on the box [-2.55, 2.55]"),
    (*_EVOLVE_WIDE, "--x0", "100"): (
        "the packet at --x0 100 of width 1 has a norm of 0 on the box [-6, 6]"),
    tuple(_NORM_OVERFLOW): "sampled norm of inf",
    (*_EVOLVE_WIDE, "--sigma", "1e200"): "width 1e+200 is too large: pi width^2 overflows",
    (*_EVOLVE_WIDE, "--sigma", "1e154"): "width 1e+154 is too large: pi width^2 overflows",
    ("kernel", *_UNDERFLOW, "--coefficients"): "m w^2 at m = 4.941e-324, w = 1e-09 underflows",
    ("evolve", *_UNDERFLOW): "m w^2 at m = 4.941e-324, w = 1e-09 underflows",
    ("evolve", "--model", "free", "--t", "1", *_PACKET_PHASE): "the packet's phase p (x - c)",
    ("pathint", "--force=0", "--t-total", "1", *_PACKET_PHASE, "--steps", "2"):
        "the packet's phase p (x - c)",
    tuple(_PACKET_EXPONENT): "the packet's exponent (x - c)^2/(2 width^2)",
    tuple(_SWEEP_FOUND): "the packet's phase p (x - c)",
    tuple(_IMAGINARY_FORCE): "the force has a coefficient with an imaginary part",
    tuple(_ONE_COUNT_CUBIC): "a force that is not affine needs two or more step counts",
    **{tuple(argv): "grid FFT length 16777216 exceeds its cap of 8388608"
       for argv in (_EVOLVE_PAST_CAP, _PATHINT_PAST_CAP)},
    # these named the library's n_list, or int()
    **{(*_PATHINT, "--convergence", value):
       f"--convergence: expected increasing positive step counts, got {value!r}"
       for value in ("5,10,0", "10,5", "5,x")},
    (*_PATHINT, "--steps", "3", "--convergence", "5,10"):
        "give --steps or --convergence, not both",
}


@pytest.mark.parametrize("argv, code", [
    pytest.param([], 2, id="no-command"),
    pytest.param(["normord"], 2, id="missing-expr"),
    pytest.param(["kernel", "--bogus", "1"], 2, id="unknown-flag"),
    pytest.param(["kernel", "--n", "four"], 2, id="bad-int"),
    pytest.param(["kernel", "--model", "-x"], 2, id="bad-choice"),
    pytest.param(["normord", "X ? P"], 2, id="bad-expression"),
    pytest.param(["normord", "X^-1"], 2, id="negative-word-power"),
    pytest.param(["normord", "X+²"], 2, id="superscript-digit"),
    pytest.param(["normord", _TOO_MANY_DIGITS], 2, id="integer-beyond-int-digits"),
    pytest.param(["comm", "X²", "P"], 2, id="superscript-after-name"),
    pytest.param(["normord", "X½"], 2, id="vulgar-fraction-after-name"),
    pytest.param(["normord", "X/2"], 2, id="division-of-a-word"),
    pytest.param(["normord", "P^2/2"], 2, id="division-of-a-power"),
    pytest.param(["kernel", "--model", "free", "--t", "1", "--x-min", "-1", "--x-max", "1",
                  "--n", "4"], 2, id="missing-mass"),
    pytest.param(["series", "--model", "harmonic", "--order", "-2"], 2, id="negative-order"),
    pytest.param(["kernel", *_SMALL, "--n", "4", "--m", "nan"], 2, id="nan-flag"),
    pytest.param(["kernel", *_SMALL, "--n", "4", "--x-min", "-inf"], 2, id="minus-inf-flag"),
    pytest.param(["kernel", "--model", "harmonic", "--m", "1", "--omega", "1",  # omega t = pi
                  "--t", str(math.pi), "--x-min", "-1", "--x-max", "1", "--n", "8"],
                 3, id="caustic"),
    pytest.param(["evolve", "--model", "free", "--m", "1", "--t", "0.001",
                  "--x-min", "-4", "--x-max", "4", "--n", "64"], 3, id="coarse-grid"),
    pytest.param(_PATHINT_CAUSTIC, 0, id="pathint-past-a-caustic"),
    pytest.param(_PATHINT_AT_CAUSTIC, 3, id="pathint-at-a-caustic"),
    # the slice chains ran before the closed form overflowed, and printed a
    # BoundaryLeak warning first
    pytest.param(_OVERFLOW, 3, id="overflow"),
    pytest.param(["normord", "123456789^4096"], 3, id="too-long-to-print"),
    pytest.param(["kernel", *_OVERSIZED], 2, id="oversized-kernel"),
    # a width whose square underflows raised ZeroDivisionError (exit 1), and a
    # packet narrower than a cell sampled to zeros and exited 0
    pytest.param(["evolve", *_SMALL, "--n", "64", "--sigma", "1e-200"], 2,
                 id="evolve-width-squared-underflows"),
    pytest.param([*_PATHINT, "--steps", "2", "--sigma", "1e-170"], 2,
                 id="pathint-width-squared-underflows"),
    pytest.param(["evolve", *_SMALL, "--n", "64", "--sigma", "1e-150"], 3,
                 id="packet-between-the-points"),
    pytest.param(["evolve", *_SMALL, "--n", "64", "--sigma", "1e-160"], 3,
                 id="packet-exponent-overflows"),
    pytest.param([*_PATHINT, "--steps", "2", "--sigma", "0.1"], 3, id="packet-on-too-few-points"),
    pytest.param(["evolve", *_OVERSIZED], 2, id="oversized-evolve"),
    pytest.param(["pathint", "--force=-X", "--m", "1", "--t-total", "1", "--steps", "2",
                  "--x-min", "-1", "--x-max", "1", "--n", "100000000000"],
                 2, id="oversized-pathint"),
    pytest.param(["series", "--model", "free", "--order", "2049"], 2, id="series-order-past-cap"),
    pytest.param(["kernel", *_SMALL, "--n", "4097"], 2, id="kernel-rows-past-cap"),
    pytest.param([*_PATHINT, "--steps", str(2 ** 24 + 1)], 2, id="pathint-steps-past-cap"),
    pytest.param(_EVOLVE_PAST_CAP, 2, id="evolve-grid-past-cap"),
    pytest.param(_PATHINT_PAST_CAP, 2, id="pathint-grid-past-cap"),
    pytest.param(_ONE_COUNT_CUBIC, 2, id="convergence-one-count-not-affine"),
    pytest.param(["kernel", *_BEYOND_FLOAT, "--coefficients"], 3, id="nan-coefficients"),
    pytest.param(["kernel", *_BEYOND_FLOAT], 3, id="nan-kernel-csv"),
    pytest.param(["evolve", *_BEYOND_FLOAT], 3, id="nan-evolve"),
    pytest.param(["kernel", "--model", "free", "--m", "1e290", "--t", "1e-10", "--x-min",
                  "-1e10", "--x-max", "1e10", "--n", "4"], 3, id="phase-overflow-kernel-csv"),
    pytest.param(["kernel", "--model", "free", "--m", "1", "--t", "1", *_HUGE_SPAN], 3,
                 id="grid-spacing-overflows-kernel-csv"),
    pytest.param(["kernel", "--model", "free", "--m", "1", "--t", "1", *_HUGE_SPAN,
                  "--coefficients"], 3, id="grid-spacing-overflows-coefficients"),
    pytest.param(["evolve", "--model", "free", "--m", "1", "--t", "1", *_HUGE_SPAN], 3,
                 id="grid-spacing-overflows-evolve"),
    pytest.param(["pathint", "--force=-X", "--m", "1", "--t-total", "1", *_HUGE_SPAN,
                  "--steps", "2"], 3, id="grid-spacing-overflows-pathint"),
    pytest.param([*_NAN_FORCE, "--steps", "2"], 3, id="nan-force-steps"),
    pytest.param([*_NAN_FORCE, "--convergence", "1,2"], 3, id="nan-force-convergence"),
    pytest.param([*_PATHINT_WIDE, "--force=X^2000", "--steps", "2"], 3,
                 id="force-overflow-one-line"),  # it printed two numpy warnings first
    pytest.param([*_PATHINT_WIDE, "--force=omega^-1*X", "--omega", "0", "--steps", "2"], 3,
                 id="coefficient-divides-by-zero"),
    pytest.param([*_PATHINT_WIDE, "--force=F0^-2*X", "--F0", "1e-200", "--steps", "2"], 3,
                 id="coefficient-overflows"),
    pytest.param([*_PATHINT_WIDE, "--force=F0*omega*X", "--F0", "1e200", "--omega", "1e200",
                  "--convergence", "1,2"], 3, id="coefficient-product-overflows"),
    pytest.param(["kernel", *_UNDERFLOW, "--coefficients"], 3, id="m-omega-underflows-kernel"),
    pytest.param(["evolve", *_UNDERFLOW], 3, id="m-omega-underflows-evolve"),
    pytest.param(["evolve", "--model", "free", "--t", "1", *_PACKET_PHASE], 3,
                 id="packet-phase-overflows-evolve"),
    pytest.param(["pathint", "--force=0", "--t-total", "1", *_PACKET_PHASE, "--steps", "2"], 3,
                 id="packet-phase-overflows-pathint"),
    pytest.param(_PACKET_EXPONENT, 3, id="packet-exponent-is-nan"),
    pytest.param(_SWEEP_FOUND, 3, id="packet-phase-overflows-on-four-points"),
    pytest.param(_IMAGINARY_FORCE, 2, id="imaginary-force"),
    pytest.param(_NORM_OVERFLOW, 3, id="packet-norm-overflows"),
    pytest.param(_OFF_BOX_PATHINT, 3, id="packet-off-the-box-pathint"),
    pytest.param([*_EVOLVE_WIDE, "--x0", "100"], 3, id="packet-off-the-box-evolve"),
    pytest.param([*_EVOLVE_WIDE, "--sigma", "1e200"], 2, id="width-squared-overflows"),
    pytest.param([*_EVOLVE_WIDE, "--sigma", "1e154"], 2, id="pi-width-squared-overflows"),
    pytest.param([*_PATHINT, "--convergence", "5,10,0"], 2, id="convergence-zero"),
    pytest.param([*_PATHINT, "--convergence", "10,5"], 2, id="convergence-decreasing"),
    pytest.param([*_PATHINT, "--convergence", "5,x"], 2, id="convergence-not-int"),
    pytest.param([*_PATHINT, "--steps", "3", "--convergence", "5,10"], 2,
                 id="steps-and-convergence"),
    pytest.param(["normord", "-P"], 0, id="leading-minus-normord"),
    pytest.param(["comm", "-X", "-2*P"], 0, id="leading-minus-comm"),
    pytest.param(["normord", "a0*ω*X"], 0, id="decimal-and-letter-in-names"),
])
def test_exit_code_sweep(argv, code, capsys):
    # every bad input ends in one line and its exit code, never a traceback;
    # an oversized grid used to end in numpy's MemoryError traceback, exit 1
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("ccrflow: domain error: " if code == 3 else "ccrflow: error: ")
    assert _NAMED.get(tuple(argv), "") in err
    if argv == _PATHINT_CAUSTIC:  # the report's ratios, then the finest state
        assert [3.2 <= float(line.split(",")[3]) <= 4.8
                for line in out.splitlines()[2:4]] == [True, True]
    for force, coeff in _UNBINDABLE.items():
        if force in argv:
            assert f"force coefficient {coeff} is beyond the float range" in err
    if argv[:1] in (["normord"], ["comm"]) and len(argv) > 1 and argv[1] in _BYTE_OFFSETS:
        assert err.endswith(f" (byte {_BYTE_OFFSETS[argv[1]]})\n")


def test_packet_the_box_only_cuts_is_accepted(capsys):
    # --x0 9 on [-6, 6] leaves a norm of 3.3e-3 on the box, above the tolerance
    assert main([*_EVOLVE_WIDE, "--x0", "9"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 513
    assert err.startswith("ccrflow: warning: edge mass fraction ") and err.count("\n") == 1


# The seeded sweep's grammar.  Floats are extremes a third of the time and
# plain values otherwise, so that many draws pass validation and reach the
# numbers; the plain values of m and t often satisfy the slice rule.
_EXTREME_FLOATS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e-154", "-1e-154",
                   "1e154", "-1e154", "1e300", "-1e300", "1e308"]
_PLAIN_FLOATS = {"positive": ["0.1", "0.5", "1", "2", "3", "6", "10"],
                 "signed": ["-1", "0", "0.5", "1", "-3", "6"]}
_SWEEP_GRIDS = [("-6", "6"), ("-2.55", "2.55"), ("-1", "1"), ("0", "12")]
_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)  # 4,301 digits by default
_ATOMS = ["X", "P", "1", "2/3", "3/0", "(1,2)", "(-1/2,3)", "m", "omega", "F0", "hbar", "٣",
          "X²", "²", _DIGITS, "X/2", "P^2/2", "(" * 100 + "X" + ")" * 100,
          "(" * 101 + "X" + ")" * 101]
_FORCE_ATOMS = ["X", "X^3", "1", "4/5", "(-4,1)", "m", "omega^-1", "F0", "hbar", "٣",
                "(" * 100 + "X" + ")" * 100, "P"]


def _sweep_float(rng: random.Random, kind: str = "signed") -> str:
    return rng.choice(_EXTREME_FLOATS if rng.random() < 1 / 3 else _PLAIN_FLOATS[kind])


def _sweep_expression(rng: random.Random, atoms: list, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    a, b = (_sweep_expression(rng, atoms, depth - 1) for _ in range(2))
    return rng.choice([f"{a}+{b}", f"{a}*{b}", f"-{a}", f"({a}-{b})^{rng.randint(0, 4)}",
                       f"{a}^-1"])


def _sweep_argv(rng: random.Random, command: str) -> list[str]:
    """One argv of command; each flag is left out now and then."""
    if command == "normord":
        return [command, _sweep_expression(rng, _ATOMS)]
    if command == "comm":
        return [command, _sweep_expression(rng, _ATOMS), _sweep_expression(rng, _ATOMS)]
    if command == "verify":
        return [command]
    argv = [command]

    def flag(name, value, keep=0.95):
        if rng.random() < keep:
            argv.extend([name, value])

    if command == "series":
        flag("--model", rng.choice(["free", "harmonic", "linear", "quartic"]))
        flag("--order", str(rng.choice([-1, 0, 1, 3, 16, 64, 2049])))
        return argv
    if command == "pathint":
        flag("--force", _sweep_expression(rng, _FORCE_ATOMS))
    else:
        flag("--model", rng.choice(["free", "harmonic", "linear"]))
    flag("--m", _sweep_float(rng, "positive"))
    flag("--omega", _sweep_float(rng, "positive"), 0.7)
    flag("--F0", _sweep_float(rng), 0.7)
    flag("--t-total" if command == "pathint" else "--t", _sweep_float(rng, "positive"))
    x_min, x_max = (rng.choice(_SWEEP_GRIDS) if rng.random() < 2 / 3
                    else (_sweep_float(rng), _sweep_float(rng)))
    flag("--x-min", x_min)
    flag("--x-max", x_max)
    # past the caps: 4097^2 > 2^24 kernel rows, and FFTs of 2^24 > 2^23 points
    n = rng.choice([2, 3, 4, 64, 200] + [4097] * (command == "kernel")
                   + [2 ** 22 + 1] * (command in ("evolve", "pathint")))
    flag("--n", str(n))
    if command == "kernel":
        if rng.random() < 0.3:
            argv.append("--coefficients")
        return argv
    flag("--x0", _sweep_float(rng), 0.5)
    flag("--p0", _sweep_float(rng), 0.5)
    flag("--sigma", _sweep_float(rng, "positive"), 0.5)
    if command == "pathint":
        past_cap = cli._WORK_CAPS["pathint steps x FFT length"] // (1 << (2 * n - 2).bit_length())
        steps = sorted({rng.randint(1, 16) for _ in range(rng.randint(1, 4))})
        if rng.random() < 0.2:  # past the cap, or not a count
            steps = rng.choice([[past_cap + 1], [1, past_cap], [0], [4, 2]])
        flag("--steps" if len(steps) == 1 and rng.random() < 0.5 else "--convergence",
             ",".join(map(str, steps)))
    return argv


_NUMERIC = ("kernel", "evolve", "pathint")


def _sweep_error(argv: list[str], code: int, out: str, err: str) -> str | None:
    """What breaks the three-exit contract in one run of main, or None.  Every
    stderr line but the error line, the last on exit 2 or 3, must be a
    BoundaryLeak warning (one per slice chain), so a traceback fails too."""
    if code not in (0, 2, 3) and not (code == 1 and argv[0] == "verify"):
        return f"exit {code}"
    lines = err.splitlines()
    error = {2: "ccrflow: error: ", 3: "ccrflow: domain error: "}.get(code)
    if error and not (lines and lines[-1].startswith(error)):
        return f"exit {code} without its error line: {err!r}"
    if not all(line.startswith("ccrflow: warning: edge mass fraction ")
               for line in (lines[:-1] if error else lines)):
        return f"exit {code} with stderr {err!r}"
    if error and out:
        return f"exit {code} after writing {len(out)} characters"
    if code == 0 and argv[0] in _NUMERIC:
        rows = out.splitlines()
        for prev, row in zip([""] + rows, rows):
            fields = row.split(",")
            if prev == "steps,dt,l2_error,ratio":  # the first ratio is nan by design
                fields = fields[:-1]
            for field in fields:
                try:
                    value = float(field)
                except ValueError:
                    continue  # a header
                if not math.isfinite(value):
                    return f"exit 0 with {field} in {row!r}"
    return None


def test_seeded_sweep_ends_every_input_in_one_of_three_ways(capsys, monkeypatch):
    # every input ends in a result, a usage line (2) or a domain line (3);
    # the inputs this sweep found are rows of test_exit_code_sweep
    rng = random.Random(20261019)
    commands = [rng.choice(["normord", "comm", "series", "kernel", "evolve", "pathint"])
                for _ in range(318)]
    commands[100:100] = ["verify"]
    commands[200:200] = ["verify"]
    broken = []
    for command in commands:
        argv = _sweep_argv(rng, command)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            capsys.readouterr()
            broken.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        problem = _sweep_error(argv, code, *capsys.readouterr())
        if problem:
            broken.append((argv, problem))
    assert not broken, "\n".join(f"{argv}: {problem}" for argv, problem in broken)
    assert len(commands) == 320 and set(commands) == {*_NUMERIC, "normord", "comm",
                                                       "series", "verify"}


class _Reached(Exception):
    """Raised where a command that passed its work cap would start the work."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("argv, limit, module, work", [
    (["series", "--model", "harmonic", "--order", "{}"], 2048, "heisenberg", "taylor_flow"),
    (["kernel", *_SMALL, "--n", "{}"], 4096, "csvtext", "kernel_csv_blocks"),  # n^2 = 2^24
    # 1024 points: FFTs of 2048 = 2^11 points, so 2^17 steps in all
    ([*_PATHINT[:-1], "1024", "--steps", "{}"], 2 ** 17, "pathint", "short_time_matrix"),
    ([*_PATHINT[:-1], "1024", "--convergence", "1,{}"], 2 ** 17 - 1, "pathint",
     "convergence_study"),
], ids=["series-order", "kernel-rows", "pathint-steps", "pathint-convergence"])
def test_work_cap_admits_its_limit_and_rejects_one_past(argv, limit, module, work, capsys,
                                                        monkeypatch):
    # any --order, step count or n^2 ran to its end, for as long as it took
    monkeypatch.setattr(importlib.import_module(f"ccrflow.{module}"), work, _reached)
    with pytest.raises(_Reached):
        main([arg.format(limit) for arg in argv])
    assert capsys.readouterr() == ("", "")
    assert main([arg.format(limit + 1) for arg in argv]) == 2
    out, err = capsys.readouterr()
    name = next(name for name in cli._WORK_CAPS if name.startswith(argv[0]))
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"ccrflow: error: {name} ")
    assert err.endswith(f" exceeds its cap of {cli._WORK_CAPS[name]}\n")


@pytest.mark.parametrize("argv", [_EVOLVE_N, _PATHINT_N], ids=["evolve", "pathint"])
def test_grid_fft_length_cap_admits_its_limit_and_rejects_one_past(argv, capsys, monkeypatch):
    # n = 2^22 takes FFTs of 2^23 points, n + 1 of 2^24; pathint's --steps 1 kept
    # steps x FFT length under its own cap up to n = 2^27
    monkeypatch.setattr(cli, "_packet", _reached)
    with pytest.raises(_Reached):
        main([arg.format(2 ** 22) for arg in argv])
    assert capsys.readouterr() == ("", "")
    assert main([arg.format(2 ** 22 + 1) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == f"ccrflow: error: grid FFT length {2 ** 24} exceeds its cap of {2 ** 23}\n"


def test_series_order_cap_is_the_parser_degree_cap():
    # the cli holds the number itself, so that its commands load no parser
    assert cli._WORK_CAPS["series order"] == importlib.import_module("ccrflow.expr")._MAX_DEGREE


@pytest.mark.parametrize("argv, step", [
    (["pathint", "--force=-X", "--m", "1", "--t-total", "1e-300", "--x-min", "-1",
      "--x-max", "1", "--n", "16", "--steps", "1"], "2.667e+299"),
    (["evolve", "--model", "harmonic", "--m", "1", "--omega", "1", "--t", "3.14159265358",
      "--x-min", "-6", "--x-max", "6", "--n", "512"], "2.878e+10"),
    (["evolve", "--model", "harmonic", "--m", "1", "--omega", "1", "--t", "3.0",
      "--x-min", "-6", "--x-max", "6", "--n", "512"], "1.987"),
])
def test_phase_step_message_is_one_short_line(argv, step, capsys):
    # a fixed-point step printed all 300 digits of 2.667e+299: a 435-byte line
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"phase advances {step} rad per cell (limit pi/2 = 1.571)" in err
    assert err.count("\n") == 1 and len(err) < 160


def test_domain_errors_share_one_base():
    # main catches the base without importing the numeric modules; library
    # callers that catch ValueError or one class see no change
    for cls in (NonAffineFlow, CausticSingularity, GridTooCoarse):
        assert issubclass(cls, DomainError) and issubclass(cls, ValueError)


@pytest.mark.parametrize("argv, reference", [
    (["normord", "-P"], ["normord", "--", "-P"]),
    (["normord", "-2*X"], ["normord", "--", "-2*X"]),
    (["normord", "-X*P"], ["normord", "--", "-X*P"]),
    (["comm", "-X", "P"], ["comm", "--", "-X", "P"]),
    (["comm", "P", "-X^2"], ["comm", "--", "P", "-X^2"]),
    (["normord", "-hbar*X", "--output", os.devnull], ["normord", "--output", os.devnull,
                                                      "--", "-hbar*X"]),
    (["pathint", "--force", "-X", "--m", "0.1", "--t-total", "1", "--x-min", "-6",
      "--x-max", "6", "--n", "256", "--steps", "4"],
     ["pathint", "--force=-X", "--m", "0.1", "--t-total", "1", "--x-min", "-6",
      "--x-max", "6", "--n", "256", "--steps", "4"]),
])
def test_leading_minus_expression_is_a_value(argv, reference, capsys):
    # these were taken for options: exit 2, "the following arguments are required"
    assert main(reference) == 0
    expected = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def test_short_help_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normord", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ccrflow normord")


def _python(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """A new interpreter run with argv, so sys.modules starts clean; env adds
    to os.environ, less any inherited OPENBLAS_NUM_THREADS.  Raises if it
    exits nonzero."""
    inherited = {key: value for key, value in os.environ.items()
                 if key != "OPENBLAS_NUM_THREADS"}
    env = inherited | env | {"PYTHONPATH": str(pathlib.Path(ccrflow.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True)


def _fresh_python(script: str, *args: str, **env: str) -> str:
    """stdout of script in a new interpreter (see _python)."""
    return _python("-c", script, *args, **env).stdout


# The modules a command imports only when it needs them, as newly loaded by
# each step of commands run in turn in one interpreter (argv[1], as JSON: a
# step is a list of [argv, exit status] pairs; ["--help"] formats the help and
# ["import", name] imports a module), then numpy and the ccrflow modules in
# the order their imports started.  sys.modules keeps the order in which
# their bodies finished, so a finder first on sys.meta_path records the
# start, which comes before the module's source is compiled.  dataclasses
# alone costs about 10 ms of imports (inspect, ast, dis, tokenize), numpy
# about 60 ms.
_IMPORT_GRAPH = """
import importlib, json, os, sys
started = set(sys.modules)
order = []


class StartOrder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("ccrflow."):
            order.append(name)


sys.meta_path.insert(0, StartOrder)
from ccrflow.cli import build_parser, main

late = {"numpy", "fractions", "decimal", "_decimal", "dataclasses", "inspect", "ast", "dis", "tokenize", "signal",
        "ccrflow.opalg", "ccrflow.expr", "ccrflow.heisenberg", "ccrflow.propagator",
        "ccrflow.pathint", "ccrflow.verify", "ccrflow.csvtext"}
steps = []
for step in json.loads(sys.argv[1]):
    for argv, status in step:
        if argv == ["--help"]:
            build_parser().format_help()
        elif argv[0] == "import":
            importlib.import_module(argv[1])
        else:
            assert main(argv + ["--output", os.devnull]) == status, argv
    steps.append(sorted(late & set(sys.modules) - started - {m for s in steps for m in s}))
print(json.dumps([steps, os.environ.get("OPENBLAS_NUM_THREADS"), order]))
"""


def _import_steps(*steps) -> tuple[list[list[str]], str | None, list[str]]:
    """The modules each step newly loads, OPENBLAS_NUM_THREADS at the end, and
    the import order of numpy and the ccrflow modules."""
    return tuple(json.loads(_fresh_python(_IMPORT_GRAPH, json.dumps(steps))))


def test_symbolic_commands_do_not_import_numpy():
    # --help loads no layer; normord and comm load the parser and opalg alone
    # (no fractions, decimal or _decimal: the exact layer's rationals are int
    # triples), series adds heisenberg alone; verify's checks import the
    # numeric modules when they run
    steps, blas, _ = _import_steps([[["--help"], 0]],
                                   [[["normord", "P*X"], 0], [["comm", "X^3", "P"], 0]],
                                   [[["series", "--model", "harmonic", "--order", "3"], 0]],
                                   [[["import", "ccrflow.verify"], 0]])
    assert steps == [[], ["ccrflow.expr", "ccrflow.opalg"],
                     ["ccrflow.heisenberg"], ["ccrflow.verify"]]
    assert blas is None


_GRID = ["--x-min", "-1", "--x-max", "1", "--n"]


def test_numeric_commands_load_no_exact_layer():
    # kernel --coefficients is scalar math on every exit: no numpy, and no
    # dataclasses with its inspect, ast, dis and tokenize (AffineFlowExact was a
    # dataclass); no command here parses an expression, so none loads the
    # parser or opalg
    harmonic = ["kernel", "--model", "harmonic", "--m", "1", "--omega", "1", "--coefficients"]
    steps, blas, _ = _import_steps(
        [[["kernel", "--model", "linear", "--m", "2", "--F0", "3", "--t", "0.5", *_GRID, "4",
           "--coefficients"], 0],
         [[*harmonic, "--t", "3.141592653589793", *_GRID, "4"], 3],
         [[*harmonic, "--t", "1", *_GRID, "1"], 2]],
        [[["kernel", "--model", "free", "--m", "1", "--t", "1", *_GRID, "4"], 0]],
        [[["evolve", "--model", "free", "--m", "1", "--t", "1", *_GRID, "64"], 0]])
    assert steps[0] == ["ccrflow.propagator"] and steps[2] == []
    # numpy itself loads inspect and what it imports
    assert set(steps[1]) - {"inspect", "ast", "dis", "tokenize"} == {"ccrflow.csvtext", "numpy"}
    assert blas == "1"


_BOX = ["--x-min", "-6", "--x-max", "6", "--n", "256"]  # no packet here reaches the edge


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "free", "--m", "1", "--t", "1", *_GRID, "4"],
    ["evolve", "--model", "free", "--m", "1", "--t", "1", *_BOX],
    ["pathint", "--force=-X", "--m", "1", "--t-total", "1", *_BOX, "--steps", "2"],
    ["pathint", "--force=-X", "--m", "1", "--t-total", "1", *_BOX, "--convergence", "1,2",
     "--report-output", os.devnull],
    ["verify"],
], ids=["kernel-csv", "evolve", "pathint-steps", "pathint-convergence", "verify"])
def test_numeric_commands_compile_every_ccrflow_module_before_numpy(argv):
    # csvtext, the last ccrflow module, imports numpy; pathint imported numpy
    # before it compiled opalg and propagator, and verify's check 5 before
    # checks 7 and 8 compiled pathint and csvtext
    _steps, _blas, order = _import_steps([[argv, 0]])
    assert "ccrflow.csvtext" in order and order[-1] == "numpy"


@pytest.mark.parametrize("argv", [
    ["pathint", "--force=-X", "--m", "1", "--t-total", "1", *_BOX, "--convergence", "1,2",
     "--report-output", os.devnull],
    ["verify"],
], ids=["pathint", "verify"])
def test_numeric_commands_load_no_fractions_or_decimal(argv):
    # fractions loaded decimal and its 1.7 MB _decimal extension, to read a/b
    # and print p/d: about 3 ms and 0.3-0.7 MiB of peak RSS a launch.
    # -X importtime lists verify's forked child's imports too.
    stderr = _python("-X", "importtime", "-m", "ccrflow.cli", *argv, "--output",
                     os.devnull).stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
              if line.startswith("import time:")}
    assert {"ccrflow.opalg", "numpy"} <= loaded
    assert not loaded & {"fractions", "decimal", "_decimal"}


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "free", "--m", "1", "--t", "1", *_GRID, "4"],
    ["evolve", "--model", "free", "--m", "1", "--t", "1", *_BOX],
    ["pathint", "--force=-X", "--m", "1", "--t-total", "1", *_BOX, "--steps", "2"],
    ["verify"],
], ids=["kernel", "evolve", "pathint", "verify"])
def test_numeric_commands_never_import_the_cli_module(argv):
    # python -m ccrflow.cli runs the file as __main__; verify's import of
    # ccrflow.cli would compile and run it a second time, so cli registered
    # itself under that name until no library module imported it
    stderr = _python("-X", "importtime", "-m", "ccrflow.cli", *argv, "--output",
                     os.devnull).stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
              if line.startswith("import time:")}
    assert {"ccrflow.csvtext", "numpy"} <= loaded
    assert "ccrflow.cli" not in loaded


@pytest.mark.parametrize("argv, status", [
    (["pathint", "--force=-k*X", "--m", "1", "--t-total", "1", *_BOX, "--steps", "2"], 2),
    ([*_PATHINT_WIDE, "--force=omega^-1*X", "--omega", "0", "--steps", "2"], 3),
    (_IMAGINARY_FORCE, 2),
], ids=["unbound", "beyond-the-float-range", "imaginary"])
def test_a_force_error_ends_pathint_before_numpy_loads(argv, status):
    # Polynomial.bind decides all three before the packet; the imaginary force
    # passed until the closed form or the slices, after the packet loaded numpy
    _steps, _blas, order = _import_steps([[argv, status]])
    assert "ccrflow.pathint" in order and "numpy" not in order


def test_kernel_coefficients_load_neither_numpy_nor_csvtext():
    _steps, _blas, order = _import_steps([[["kernel", "--model", "free", "--m", "1", "--t", "1",
                                            *_GRID, "4", "--coefficients"], 0]])
    assert order == ["ccrflow.cli", "ccrflow.propagator"]


_EVOLVE = ["evolve", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-4", "--x-max", "4"]

_BLAS_THREADS = """
import json, os, sys
from ccrflow.cli import main

assert main(sys.argv[1:]) == 0
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two usable CPUs")
@pytest.mark.parametrize("given, threads", [(None, 1), ("2", 2)])
def test_numeric_commands_start_one_blas_thread_unless_told(given, threads):
    # OpenBLAS starts a pool thread per extra CPU, which spins and is never
    # used: ccrflow makes no BLAS call.  A value the caller gives wins.
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    argv = [*_EVOLVE, "--n", "64", "--output", os.devnull]
    assert json.loads(_fresh_python(_BLAS_THREADS, *argv, **env)) == [given or "1", threads]


def test_numeric_command_in_process_leaves_environment(monkeypatch):
    # numpy is loaded here already, so its BLAS pool is as the caller made it
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main([*_EVOLVE, "--n", "64", "--output", os.devnull]) == 0
    assert dict(os.environ) == before


_RUN_CLI = """
import sys
from ccrflow.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    [*_EVOLVE, "--n", "512", "--x0", "0.5", "--p0", "1"],
    ["pathint", "--force=-X", "--m", "0.1", "--t-total", "1", "--x-min", "-6", "--x-max", "6",
     "--n", "256", "--steps", "4"],
])
def test_outputs_do_not_depend_on_blas_threads(argv):
    one = _fresh_python(_RUN_CLI, *argv)
    assert one.startswith("x,re,im\n")
    assert _fresh_python(_RUN_CLI, *argv, OPENBLAS_NUM_THREADS="2") == one


def test_module_run_loads_cli_once():
    # verify imports ccrflow.cli by name; under -m that compiled and ran
    # cli.py a second time, as a module apart from __main__
    done = _python("-X", "importtime", "-m", "ccrflow.cli", "verify", "--output", os.devnull)
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ccrflow.verify" in imported
    assert "ccrflow.cli" not in imported


# Every name the package exported before its numeric names became lazy,
# by defining module.
_EXPORTS = {
    "opalg": ["ONE", "InversePower", "OpExpr", "P", "Polynomial", "ScalarCoeff", "X",
              "apply_to_polynomial", "commutator", "inverse_power_rule"],
    "heisenberg": ["NonAffineFlow", "commutator_series", "extract_affine", "force_for_model",
                   "generator", "newtonian_velocity", "taylor_flow", "time_derivative"],
    "pathint": ["ConvergenceReport", "ConvergenceRow", "convergence_study", "propagate",
                "short_time_matrix"],
    "propagator": ["AffineFlowExact", "BoundaryLeak", "CausticSingularity", "ChirpStep",
                   "GaussianKernel",
                   "GridTooCoarse", "UniformGrid", "WaveFunction", "evolve_exact",
                   "gaussian_kernel", "closed_form_kernel"],
}

_RESOLVE = """
import json, sys
import ccrflow

exports = json.loads(sys.argv[1])
got = {name: getattr(ccrflow, name) for names in exports.values() for name in names}
modules = {module: getattr(ccrflow, module) for module in exports}
wrong = [module for module in exports if modules[module] is not sys.modules["ccrflow." + module]]
for module, names in exports.items():
    for name in names:
        scope = {}
        exec(f"from ccrflow import {name}", scope)
        if not got[name] is scope[name] is getattr(modules[module], name):
            wrong.append(name)
print(json.dumps(wrong))
"""


def test_package_exports_resolve_to_their_modules():
    assert json.loads(_fresh_python(_RESOLVE, json.dumps(_EXPORTS))) == []
    with pytest.raises(AttributeError, match="no_such_name"):
        ccrflow.no_such_name


def test_exports_name_what_the_modules_define():
    # a removed name left in __all__ or in the package's lazy table fails here,
    # not at the first `from ccrflow.<module> import *`
    for name in ("opalg", "expr", "heisenberg", "propagator", "pathint", "verify", "cli"):
        module = importlib.import_module(f"ccrflow.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    for name, lazy in ccrflow._LAZY.items():
        module = importlib.import_module(f"ccrflow.{name}")
        assert sorted(set(lazy) - set(module.__all__)) == [], name


def test_bench_files_name_only_benchmark_workloads():
    # BENCH_*.json: the final JSON line of every perfbench/run.py run in a
    # before/after series, with the command and the env line of each run
    root = pathlib.Path(__file__).parents[1]
    listed = {workload["name"] for workload in
              json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert bench["revision"] and bench["series"], path.name
        for series in bench["series"]:
            assert f" --workload {series['workload']} " in series["command"], path.name
            names = {series["workload"]} | {run["env"]["workload"] for run in series["runs"]}
            assert names <= listed, path.name
            assert all("metrics" in run["result"] for run in series["runs"]), path.name


def test_readme_quick_example_runs_as_written():
    # the README's one python block, run as written, so the example and the API
    # cannot drift apart
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    assert readme.count("```python\n") == 1
    block = readme.split("Quick example:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["flow"] == AffineFlowExact.from_force(force_for_model("harmonic"), 2.0,
                                                       {"m": 2.0, "omega": 1.3})
    got = scope["flow"].at(0.5)
    want = AffineFlowExact.harmonic(2.0, 1.3).at(0.5)  # kappa may differ in its last bit
    assert got == pytest.approx(want, rel=0, abs=1e-15)
