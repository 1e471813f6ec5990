"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ccrflow
from ccrflow.heisenberg import (
    commutator_series,
    force_for_model,
    generator,
    newtonian_velocity,
    taylor_flow,
    time_derivative,
)
from ccrflow.opalg import (
    OpExpr,
    P,
    Polynomial,
    ScalarCoeff,
    X,
    apply_to_polynomial,
    commutator,
)
from ccrflow.pathint import convergence_study
from ccrflow.propagator import (
    AffineFlowExact,
    UniformGrid,
    WaveFunction,
    evolve_exact,
    gaussian_kernel,
    closed_form_kernel,
)
from ccrflow.verify import run_verification

I = ScalarCoeff.imag_unit()
M_INV = ScalarCoeff.param("m", -1)


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_poly(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    return Polynomial({k: ScalarCoeff.rational(_random_rational(rng),
                                               _random_rational(rng))
                       for k in range(degree + 1)})


def _random_words(rng, max_words=4, max_len=6):
    return [("".join(rng.choice("XP") for _ in range(rng.randint(0, max_len))),
             ScalarCoeff.rational(_random_rational(rng), _random_rational(rng)))
            for _ in range(rng.randint(1, max_words))]


def _letter_action(words, q):
    """Each word acting on q letter by letter, rightmost first: X is x*, P is -i d/dx."""
    total = Polynomial.zero()
    for word, coeff in words:
        r = q
        for letter in reversed(word):
            r = r.shift_up() if letter == "X" else r.derivative() * (-I)
        total = total + r * coeff
    return total


def test_criterion_1_symbolic_derivative_rules():
    start = time.monotonic()
    rng = random.Random(9001)
    for _ in range(200):
        q = _random_poly(rng)
        assert commutator(q.as_opexpr("X"), P) == (q.derivative() * I).as_opexpr("X")
        assert commutator(q.as_opexpr("P"), X) == (q.derivative() * (-I)).as_opexpr("P")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 1 derivative-rules", f"200 pairs exact in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(9002)
    for _ in range(500):
        words = _random_words(rng)
        q = _random_poly(rng)
        e = sum((OpExpr.word(w, c) for w, c in words), OpExpr.zero())
        assert apply_to_polynomial(e, q) == _letter_action(words, q)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("criterion 2 oracle-equivalence", f"500 expressions in {elapsed:.2f}s")


def test_criterion_3_heisenberg_consistency():
    gen = generator(force_for_model("free"), newtonian_velocity())
    for n in range(1, 9):
        xn = X ** n
        cross = OpExpr.zero()
        for j in range(1, n):
            cross = cross + commutator(X ** j, P * X ** (n - 1 - j))
        left = ((-I) * (P * commutator(xn, P)) + cross) * M_INV
        right = ((-I) * (commutator(xn, P) * P) - cross) * M_INV
        avg = (left + right) * ScalarCoeff.rational(Fraction(1, 2))
        td = time_derivative(xn, gen)
        assert td == left == right == avg
    _report("criterion 3 heisenberg-consistency", "n = 1..8 all forms equal")


def test_criterion_4_flow_correctness(capsys):
    order = 12
    gen = generator(force_for_model("harmonic"), newtonian_velocity())
    flow = taylor_flow(X, gen, order)
    for k, coeff in enumerate(flow):
        if k % 2 == 0:
            sign = 1 if k % 4 == 0 else -1
            wk = ScalarCoeff.param("omega", k) if k else ScalarCoeff.rational(1)
            assert coeff == X * (wk * sign)
        else:
            sign = 1 if k % 4 == 1 else -1
            wk = ScalarCoeff.param("omega", k - 1) if k > 1 else ScalarCoeff.rational(1)
            assert coeff == P * (wk * M_INV * sign)
    for model in ("free", "harmonic", "linear"):
        g = generator(force_for_model(model), newtonian_velocity())
        xs = taylor_flow(X, g, order)
        ps = taylor_flow(P, g, order)
        comm = commutator_series(xs, ps)
        assert comm[0] == OpExpr.scalar(I)
        assert all(c.is_zero for c in comm[1:])
    # the denominator discrepancy must be documented in verify output
    lines, ok = run_verification()
    assert ok
    assert any("m omega^2" in line and "note:" in line for line in lines)
    _report("criterion 4 flow-correctness",
            "series exact; CCR preserved to order 12; verify documents the "
            "m omega^2 variant")


def test_criterion_5_propagator_anchors():
    rng = random.Random(9005)
    cases = {
        "free": (AffineFlowExact.free(1.3), {"m": 1.3}),
        "harmonic": (AffineFlowExact.harmonic(1.3, 0.9), {"m": 1.3, "omega": 0.9}),
        "linear": (AffineFlowExact.linear(1.3, 1.7), {"m": 1.3, "F0": 1.7}),
    }
    worst = 0.0
    for model, (flow, params) in cases.items():
        for _ in range(1000):
            if model == "harmonic":
                t = rng.uniform(0.1, 3.0) / params["omega"]
            else:
                t = rng.uniform(0.1, 5.0)
            xb, xa = rng.uniform(-3, 3), rng.uniform(-3, 3)
            built = gaussian_kernel(flow, t)(xb, xa)
            printed = closed_form_kernel(model, params, t, xb, xa)
            rel = abs(built - printed) / abs(printed)
            worst = max(worst, rel)
            assert rel <= 1e-12
    m, t = 1.3, 0.7
    omega = 1e-4 / t
    for xb, xa in ((0.3, -0.8), (1.5, 1.1), (-2.0, 0.4)):
        h = closed_form_kernel("harmonic", {"m": m, "omega": omega}, t, xb, xa)
        f = closed_form_kernel("free", {"m": m}, t, xb, xa)
        assert abs(h - f) / abs(f) < 1e-6
    _report("criterion 5 propagator-anchors",
            f"3000 points, max rel diff {worst:.1e}; omega->0 limit ok")


def test_criterion_6_wavepacket_physics():
    start = time.monotonic()
    # free spreading, n <= 2048
    grid = UniformGrid.from_bounds(-7, 7, 1024)
    psi = WaveFunction.gaussian_packet(grid, width=1.0)
    out = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 1.0), psi)
    width = math.sqrt(2 * out.var_x())
    assert abs(width / math.sqrt(2.0) - 1.0) < 1e-6
    # harmonic Ehrenfest at omega t = pi/2
    grid = UniformGrid.from_bounds(-5.8, 5.8, 1024)
    psi = WaveFunction.gaussian_packet(grid, center=1.0, width=1.0, momentum=0.5)
    out = evolve_exact(
        gaussian_kernel(AffineFlowExact.harmonic(1.0, 1.0), math.pi / 2), psi)
    assert abs(out.mean_x() - 0.5) < 1e-6
    assert abs(out.mean_p() + 1.0) < 1e-6
    # linear Ehrenfest trajectory at t = 1
    grid = UniformGrid.from_bounds(-7, 7, 1024)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=1.0, momentum=-0.4)
    out = evolve_exact(gaussian_kernel(AffineFlowExact.linear(1.0, 0.8), 1.0), psi)
    assert abs(out.mean_x() - (0.1 - 0.4 + 0.4)) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("criterion 6 wavepacket-physics",
            f"spreading and Ehrenfest within 1e-6 in {elapsed:.2f}s")


def test_criterion_7_pathint_convergence():
    start = time.monotonic()
    # harmonic: m=4, omega=1, t=3, coherent packet; n=896 <= 1024, N <= 40
    grid = UniformGrid.from_bounds(-2.55, 2.55, 896)
    psi = WaveFunction.gaussian_packet(grid, center=0.3, width=0.5)
    force = Polynomial.monomial(1, ScalarCoeff.rational(-4))
    harmonic = convergence_study(force, 4.0, psi, 3.0, [5, 10, 20, 40])
    # linear: m=1, F0=0.8, t=1, drift-free packet; n=768
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=1.0, momentum=-0.4)
    force = Polynomial.monomial(0, ScalarCoeff.rational(Fraction(4, 5)))
    linear = convergence_study(force, 1.0, psi, 1.0, [1, 2, 4, 8])
    details = []
    for report in (harmonic, linear):
        errors = [row.l2_error for row in report.rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        for row in report.rows[1:]:
            assert 3.2 <= row.ratio <= 4.8
        assert report.rows[-1].l2_error < 1e-3
        details.append(f"{report.flow} final {report.rows[-1].l2_error:.1e}")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("criterion 7 pathint-convergence",
            "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_8_verify_determinism():
    cmd = [sys.executable, "-m", "ccrflow.cli", "verify"]
    # the child imports the ccrflow this process imported, PYTHONPATH set or not
    src = os.path.dirname(os.path.dirname(ccrflow.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty report
    _report("criterion 8 verify-determinism",
            f"byte-identical {len(first.stdout)}-byte reports")
