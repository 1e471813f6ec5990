import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ccrflow.cli import (
    ExpressionError,
    _write_lines,
    format_float,
    kernel_csv_lines,
    main,
    parse_expression,
    wavefunction_csv_lines,
)
from ccrflow.opalg import OpExpr, P, ScalarCoeff, X
from ccrflow.propagator import AffineFlowExact, UniformGrid, WaveFunction, gaussian_kernel


# ---- expression parsing ----

def test_parse_word_product():
    e = parse_expression("P*X")
    assert e.terms == {"PX": ScalarCoeff.rational(1)}


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
    assert "PXP" in parse_expression("P*X*P").terms
    assert "XPX" in parse_expression("X*P*X").terms


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
    assert parse_expression("(X*P)^2048").max_word_length() == 4096


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
        e = OpExpr(terms)
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


def test_exit_code_usage_errors(capsys):
    assert main(["normord", "X^-1"]) == 2
    assert main(["kernel", "--model", "free", "--t", "1",
                 "--x-min", "-1", "--x-max", "1", "--n", "4"]) == 2  # no mass
    assert main(["series", "--model", "harmonic", "--order", "-2"]) == 2
    capsys.readouterr()


def test_exit_code_domain_errors(capsys):
    # caustic: harmonic at omega t = pi
    assert main(["kernel", "--model", "harmonic", "--m", "1", "--omega", "1",
                 "--t", str(math.pi), "--x-min", "-1", "--x-max", "1",
                 "--n", "8"]) == 3
    # grid too coarse for evolve
    assert main(["evolve", "--model", "free", "--m", "1", "--t", "0.001",
                 "--x-min", "-4", "--x-max", "4", "--n", "64"]) == 3
    capsys.readouterr()


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


def test_invalid_ccr_threads_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CCR_THREADS", "-3")
    assert main(["pathint", "--force", "0", "--m", "1", "--t-total", "1",
                 "--steps", "2", "--x-min", "-6", "--x-max", "6",
                 "--n", "256"]) == 2
    capsys.readouterr()


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
