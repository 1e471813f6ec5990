import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ccrflow
import ccrflow.cli as cli
from ccrflow.cli import (
    ExpressionError,
    _write_lines,
    format_float,
    kernel_csv_lines,
    main,
    parse_expression,
    wavefunction_csv_lines,
)
from ccrflow.heisenberg import NonAffineFlow
from ccrflow.opalg import DomainError, OpExpr, P, ScalarCoeff, X
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
    kernel = gaussian_kernel(flow, 0.9)
    grid = UniformGrid.from_bounds(-4.0, 3.0, n)
    x = grid.points()
    rows = [(xb, xa, val.real, val.imag)
            for xb in x for xa, val in zip(x, kernel(xb, x))]
    lines = kernel_csv_lines(kernel, grid)
    assert lines[0] == "x_b,x_a,re,im"
    assert len(lines) - 1 == n * n
    assert lines[1:] == _reference_lines(rows)


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
    psi = WaveFunction(samples, -3.0, 0.0123)
    lines = wavefunction_csv_lines(psi)
    assert lines[0] == "x,re,im"
    assert len(lines) - 1 == n
    assert lines[1:] == _reference_lines(zip(psi.points(), re, im))
    assert lines[1].split(",")[1] == "-0.0000000000000000e+00"


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_write_lines_bytes_across_blocks(count, tmp_path, capsys):
    lines = [f"{k},{k * k}" for k in range(count)]
    expected = "\n".join(lines) + "\n"
    _write_lines(lines, None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.csv"
    _write_lines(lines, str(path))
    assert path.read_bytes() == expected.encode()


# ---- the kernel CSV writer: rows split across forked workers ----

_KERNEL_FLAGS = {"free": ["--model", "free", "--m", "1.3"],
                 "harmonic": ["--model", "harmonic", "--m", "1.5", "--omega", "0.8"],
                 "linear": ["--model", "linear", "--m", "2", "--F0", "-3"]}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _kernel_csv(model: str, n: int) -> tuple[list[str], str]:
    """The kernel argv for model on an n-point grid, and its CSV text."""
    flow = getattr(AffineFlowExact, model)(*(float(v) for v in _KERNEL_FLAGS[model][3::2]))
    expected = "\n".join(kernel_csv_lines(gaussian_kernel(flow, 0.9),
                                          UniformGrid.from_bounds(-4.0, 3.0, n))) + "\n"
    argv = ["kernel", *_KERNEL_FLAGS[model], "--t", "0.9", "--x-min", "-4", "--x-max", "3",
            "--n", str(n)]
    return argv, expected


@pytest.mark.parametrize("model", sorted(_KERNEL_FLAGS))
@pytest.mark.parametrize("n, shares", [  # shares with 1, 2, 3 usable CPUs
    (180, (1, 1, 1)),  # 2n^2 + n floats: below 2 * 2^15
    (181, (1, 2, 2)),  # above it, but below 3 * 2^15
    (223, (1, 2, 3)),  # above 3 * 2^15; 223 rows split unevenly in two and three
])
def test_kernel_writer_bytes_do_not_depend_on_cpus(model, n, shares, tmp_path, capsys,
                                                   monkeypatch):
    argv, expected = _kernel_csv(model, n)
    forks = _count_forks(monkeypatch)
    for cpus, count in zip((1, 2, 3), shares):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        del forks[:]
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")
        path = tmp_path / f"k{cpus}.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_bytes() == expected.encode()
        assert capsys.readouterr() == ("", "")
        assert len(forks) == 2 * (count - 1)
        _assert_no_child_left()


@pytest.mark.parametrize("n, workers", [(181, 1), (300, 4)])
def test_kernel_workers_grow_with_the_work(n, workers, tmp_path, monkeypatch):
    # on a host with many CPUs every share still holds at least 2^15 floats
    argv, expected = _kernel_csv("harmonic", n)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    path = tmp_path / "k.csv"
    assert main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == expected.encode()
    assert len(forks) == workers
    _assert_no_child_left()


def test_kernel_phase_overflow_is_one_line_before_any_fork(tmp_path, capsys, monkeypatch):
    # finite coefficients, but b x^2 overflows: this printed nan with exit 0
    # after numpy's warnings, each worker repeating them
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["kernel", "--model", "free", "--m", "1e290", "--t", "1e-10", "--x-min", "-1e10",
            "--x-max", "1e10", "--n", "200"]
    path = tmp_path / "k.csv"
    for output in ([], ["--output", str(path)]):
        assert main(argv + output) == 3
        out, err = capsys.readouterr()
        assert out == "" and forks == [] and not path.exists()
        assert err.count("\n") == 1 and err.startswith("ccrflow: domain error: ")


def test_kernel_interrupted_wait_still_reaps_the_worker(tmp_path, monkeypatch):
    # Ctrl-C while the parent waits for a worker that has sent its rows
    real_waitpid = os.waitpid
    waited = []

    def waitpid(pid, options):
        waited.append(pid)
        if len(waited) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        main(["kernel", *_KERNEL_FLAGS["free"], "--t", "1", "--x-min", "-4", "--x-max", "4",
              "--n", "200", "--output", str(tmp_path / "k.csv")])
    monkeypatch.undo()
    assert waited == [waited[0]] * 2
    _assert_no_child_left()


@pytest.mark.parametrize("fault, status", [("raises", 1), ("short", 0), ("exits", 7)])
def test_kernel_worker_failure_is_one_line(fault, status, tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    rows_text = cli._kernel_rows_text
    real_exit = os._exit

    def faulty(*args):
        text = rows_text(*args)
        if os.getpid() == parent:
            return text
        if fault == "raises":
            raise RuntimeError("worker fault")
        return text[:-1] if fault == "short" else text  # "short": one line short

    monkeypatch.setattr(cli, "_kernel_rows_text", faulty)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    if fault == "exits":  # every line sent, then a nonzero exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(code or status))
    code = main(["kernel", *_KERNEL_FLAGS["free"], "--t", "1", "--x-min", "-4", "--x-max", "4",
                 "--n", "200", "--output", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert code not in (0, 1)
    assert err.count("\n") == 1 and err.startswith("ccrflow: error: ")
    assert f"status {status} after" in err
    _assert_no_child_left()


def test_kernel_to_closed_pipe_is_one_line():
    # kernel ... | head -1: the writer stops at the broken pipe and kills its workers
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ccrflow.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "ccrflow.cli", "kernel",
                             *_KERNEL_FLAGS["free"], "--t", "1", "--x-min", "-4", "--x-max", "4",
                             "--n", "400"], env=env, stdout=subprocess.PIPE,
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
    assert err.count(b"\n") <= 1 and b"Traceback" not in err


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
    # symbolic jobs ((aX+bP)^k, comm of powers, c*P^k*X^k, long series)
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

    monkeypatch.setattr(verify_mod, "_CHECKS",
                        verify_mod._CHECKS[:7] + [("8 broken", broken)])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "check 8 broken: FAIL" in out
    assert "result: FAIL (7/8 checks)" in out


# ---- exit codes, leading '-', and the import graph ----

_SMALL = ["--model", "free", "--m", "1", "--t", "1", "--x-min", "-1", "--x-max", "1"]
_OVERSIZED = _SMALL + ["--n", "100000000000"]  # fails at allocation, allocating nothing
# beta = t/m and gamma = F0 t^2/(2m) overflow: these printed nan and exited 0
_BEYOND_FLOAT = ["--model", "linear", "--m", "1e-300", "--F0", "1e300", "--t", "1e10",
                 "--x-min", "-1", "--x-max", "1", "--n", "4"]
_OVERFLOW = ["pathint", "--force=1000000*X", "--m", "1", "--t-total", "1", "--x-min",
             "-0.001", "--x-max", "0.001", "--n", "64", "--convergence", "1,2",
             "--output", os.devnull]


@pytest.mark.parametrize("argv, code", [
    pytest.param([], 2, id="no-command"),
    pytest.param(["normord"], 2, id="missing-expr"),
    pytest.param(["kernel", "--bogus", "1"], 2, id="unknown-flag"),
    pytest.param(["kernel", "--n", "four"], 2, id="bad-int"),
    pytest.param(["kernel", "--model", "-x"], 2, id="bad-choice"),
    pytest.param(["normord", "X ? P"], 2, id="bad-expression"),
    pytest.param(["normord", "X^-1"], 2, id="negative-word-power"),
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
    pytest.param(_OVERFLOW, 3, id="overflow", marks=pytest.mark.filterwarnings(
        "ignore::ccrflow.propagator.BoundaryLeak")),
    pytest.param(["normord", "123456789^4096"], 3, id="too-long-to-print"),
    pytest.param(["kernel", *_OVERSIZED], 3, id="oversized-kernel"),
    pytest.param(["evolve", *_OVERSIZED], 3, id="oversized-evolve"),
    pytest.param(["pathint", "--force=-X", "--m", "1", "--t-total", "1", "--steps", "2",
                  "--x-min", "-1", "--x-max", "1", "--n", "100000000000"],
                 3, id="oversized-pathint"),
    pytest.param(["kernel", *_BEYOND_FLOAT, "--coefficients"], 3, id="nan-coefficients"),
    pytest.param(["kernel", *_BEYOND_FLOAT], 3, id="nan-kernel-csv"),
    pytest.param(["evolve", *_BEYOND_FLOAT], 3, id="nan-evolve"),
    pytest.param(["kernel", "--model", "free", "--m", "1e290", "--t", "1e-10", "--x-min",
                  "-1e10", "--x-max", "1e10", "--n", "4"], 3, id="phase-overflow-kernel-csv"),
    pytest.param(["normord", "-P"], 0, id="leading-minus-normord"),
    pytest.param(["comm", "-X", "-2*P"], 0, id="leading-minus-comm"),
])
def test_exit_code_sweep(argv, code, capsys):
    # every bad input ends in one line and its exit code, never a traceback;
    # an oversized grid used to end in numpy's MemoryError traceback, exit 1
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1
        assert err.startswith("ccrflow: domain error: " if code == 3 else "ccrflow: error: ")


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


def _fresh_python(script: str, *args: str) -> str:
    """stdout of script in a new interpreter, so sys.modules starts clean."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ccrflow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


_IMPORT_GRAPH = """
import json, os, sys
from ccrflow.cli import build_parser, main

numeric = {"numpy", "ccrflow.propagator", "ccrflow.pathint", "ccrflow.verify"}
for argv in (["normord", "P*X"], ["comm", "X^3", "P"],
             ["series", "--model", "harmonic", "--order", "3"]):
    assert main(argv + ["--output", os.devnull]) == 0
build_parser().format_help()
symbolic = sorted(numeric & set(sys.modules))
assert main(["kernel", "--model", "free", "--m", "1", "--t", "1", "--x-min", "-1",
             "--x-max", "1", "--n", "4", "--coefficients", "--output", os.devnull]) == 0
print(json.dumps([symbolic, "numpy" in sys.modules]))
"""


def test_symbolic_commands_do_not_import_numpy():
    symbolic, kernel_numpy = json.loads(_fresh_python(_IMPORT_GRAPH))
    assert symbolic == []
    assert kernel_numpy


# Every name the package exported before its numeric names became lazy,
# by defining module.
_EXPORTS = {
    "opalg": ["ONE", "InversePower", "OpExpr", "P", "Polynomial", "ScalarCoeff", "X",
              "apply_to_polynomial", "commutator", "equals", "inverse_power_rule",
              "multiply", "normal_order"],
    "heisenberg": ["AffineFlow", "ForceLaw", "Generator", "NonAffineFlow",
                   "OperatorTimeSeries", "VelocityLaw", "constant_force", "extract_affine",
                   "force_for_model", "free_force", "generator", "harmonic_force",
                   "newtonian_velocity", "taylor_flow", "time_derivative"],
    "pathint": ["ConvergenceReport", "ConvergenceRow", "KernelMatrix", "convergence_study",
                "propagate", "short_time_matrix"],
    "propagator": ["AffineFlowExact", "BoundaryLeak", "CausticSingularity", "GaussianKernel",
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
