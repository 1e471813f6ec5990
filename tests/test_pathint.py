import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ccrflow.heisenberg import (
    extract_affine,
    force_for_model,
    generator,
    newtonian_velocity,
    taylor_flow,
)
from ccrflow.opalg import Polynomial, ScalarCoeff, X
from ccrflow.pathint import (
    ConvergenceReport,
    convergence_study,
    propagate,
    short_time_matrix,
)
from ccrflow.propagator import (
    AffineFlowExact,
    BoundaryLeak,
    CausticSingularity,
    GridTooCoarse,
    UniformGrid,
    WaveFunction,
    evolve_exact,
    gaussian_kernel,
)
from helpers import from_list


def harmonic_force(m=4.0, omega=1.0):
    return Polynomial.monomial(1, ScalarCoeff.rational(Fraction(-m * omega * omega)))


def constant_force(F0):
    return Polynomial.monomial(0, ScalarCoeff.rational(Fraction(F0)))


# ---- antiderivative ----

def test_antiderivative_constant_force():
    w = Polynomial.monomial(0, ScalarCoeff.param("F0")).antiderivative()
    assert w == Polynomial.monomial(1, ScalarCoeff.param("F0"))


def test_antiderivative_harmonic_force():
    c = -(ScalarCoeff.param("m") * ScalarCoeff.param("omega", 2))
    w = Polynomial.monomial(1, c).antiderivative()
    assert w == Polynomial.monomial(2, c * Fraction(1, 2))


def test_antiderivative_zero():
    assert Polynomial.zero().antiderivative() == Polynomial.zero()
    # W' = F exactly, W(0) = 0
    f = from_list([1, Fraction(-2, 3), 0, 5])
    w = f.antiderivative()
    assert w.derivative() == f
    assert 0 not in w.coeffs


# ---- slice kernel entries ----

def test_diagonal_entry_value():
    m, dt = 1.0, 0.01
    grid = UniformGrid.from_bounds(-0.0625, 0.0625, 101)
    kernel = short_time_matrix(Polynomial.zero(), m, dt, grid)
    want = cmath.sqrt(m / (2j * math.pi * dt)) * grid.dx
    assert abs(kernel.rows()[0, 0] - want) < 1e-15 * abs(want)


def test_kinetic_phase_half_radian():
    # displacement 0.1 with m=1, dt=0.01 carries phase m dx^2/(2 dt) = 0.5 rad
    m, dt = 1.0, 0.01
    grid = UniformGrid.from_bounds(-0.0625, 0.0625, 101)
    kernel = short_time_matrix(Polynomial.zero(), m, dt, grid)
    i, j = 90, 10
    assert math.isclose((i - j) * grid.dx, 0.1, rel_tol=1e-12)
    dense = kernel.rows()
    phase = cmath.phase(dense[i, j] / dense[i, i])
    assert math.isclose(phase, 0.5, rel_tol=0, abs_tol=1e-9)


def test_constant_force_phase_shift():
    m, dt, F0 = 1.0, 0.01, 2.0
    grid = UniformGrid.from_bounds(-0.0625, 0.0625, 101)
    base = short_time_matrix(Polynomial.zero(), m, dt, grid)
    forced = short_time_matrix(constant_force(F0), m, dt, grid)
    x = grid.points()
    i, j = 80, 30
    got = cmath.phase(forced.rows(i, i + 1)[0, j] / base.rows(i, i + 1)[0, j])
    want = (dt / 2) * (F0 * x[i] + F0 * x[j])
    assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)


def test_matrix_is_bitwise_symmetric():
    grid = UniformGrid.from_bounds(-2.55, 2.55, 384)
    kernel = short_time_matrix(harmonic_force(), 4.0, 0.25, grid)
    dense = kernel.rows()
    assert np.array_equal(dense, dense.T)


def test_slice_grid_rule_enforced():
    grid = UniformGrid.from_bounds(-4, 4, 128)
    with pytest.raises(GridTooCoarse):
        short_time_matrix(Polynomial.zero(), 1.0, 1e-3, grid)


@pytest.mark.parametrize("force, what", [
    # x^700 overflows at |x| = 3, and inf - inf is NaN: 64 rows of nan, exit 0
    (Polynomial({700: ScalarCoeff.rational(1), 699: ScalarCoeff.rational(-3)}), "the force"),
    (Polynomial.monomial(2000), "the force"),
    (Polynomial.monomial(646), "the force's antiderivative"),  # 3^646 fits, 3^647 does not
])
def test_slice_force_beyond_the_float_range(force, what):
    grid = UniformGrid.from_bounds(-3, 3, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from numpy either
        with pytest.raises(OverflowError, match=f"^{what} on this grid is beyond"):
            short_time_matrix(force, 4.0, 1.5, grid)


def test_symbolic_force_needs_parameters():
    grid = UniformGrid.from_bounds(-1, 1, 64)
    force = Polynomial.monomial(0, ScalarCoeff.param("F0"))
    with pytest.raises(ValueError, match="^force has unbound parameter 'F0'$"):
        short_time_matrix(force, 1.0, 0.5, grid)
    kernel = short_time_matrix(force, 1.0, 0.5, grid, {"F0": 0.3})
    assert kernel.rows().shape == (64, 64)


@pytest.mark.parametrize("build", [
    lambda force: AffineFlowExact.from_force(force, 1.0, {"m": 1.0}),
    lambda force: convergence_study(force, 1.0, WaveFunction.gaussian_packet(
        UniformGrid.from_bounds(-6, 6, 256)), 1.0, [5, 10], {"m": 1.0}),
    lambda force: short_time_matrix(force, 1.0, 0.5, UniformGrid.from_bounds(-1, 1, 64),
                                    {"m": 1.0}),
    lambda force: extract_affine(taylor_flow(X, generator(force, newtonian_velocity()), 3), 1.0),
], ids=["from_force", "convergence_study", "short_time_matrix", "extract_affine"])
def test_library_names_an_unbound_force_parameter(build):
    # each raised a bare KeyError('unbound parameter ...') from ScalarCoeff.evaluate
    with pytest.raises(ValueError, match="^force has unbound parameter 'omega'$"):
        build(force_for_model("harmonic"))


@pytest.mark.parametrize("imag", [Fraction(3, 10 ** 12), Fraction(1, 10 ** 30), 1])
def test_slices_and_closed_form_share_one_realness_rule(imag):
    # an imaginary part of 3e-12 passed the slices' rule (below 1e-12 max|F|)
    # and failed the closed form's (above 1e-12), which returned None
    grid = UniformGrid.from_bounds(-2.55, 2.55, 64)
    force = Polynomial.monomial(1, ScalarCoeff.param("m") * ScalarCoeff.rational(-1, imag))
    for build in (lambda: AffineFlowExact.from_force(force, 4.0, {"m": 4.0}),
                  lambda: short_time_matrix(force, 4.0, 3.0, grid, {"m": 4.0})):
        with pytest.raises(ValueError, match="^the force has a coefficient with an imaginary"):
            build()
    real = Polynomial.monomial(1, ScalarCoeff.param("m") * ScalarCoeff.rational(-1))
    assert AffineFlowExact.from_force(real, 4.0, {"m": 4.0}) == AffineFlowExact(4.0, kappa=-1.0)


# ---- propagation ----

def test_zero_steps_is_identity():
    grid = UniformGrid.from_bounds(-6, 6, 256)
    psi = WaveFunction.gaussian_packet(grid)
    kernel = short_time_matrix(Polynomial.zero(), 1.0, 0.5, grid)
    out = propagate(kernel, psi, 0)
    assert np.array_equal(out.samples, psi.samples)
    assert not np.shares_memory(out.samples, psi.samples)


def test_free_chain_matches_closed_form():
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid)
    kernel = short_time_matrix(Polynomial.zero(), 1.0, 0.25, grid)
    chained = propagate(kernel, psi, 4)
    exact = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 1.0), psi)
    assert chained.l2_distance(exact) < 1e-3
    assert abs(chained.norm() - 1.0) < 1e-3


def test_constant_force_trajectory():
    m, F0, t, steps = 1.0, 0.8, 1.0, 8
    x0, p0 = 0.1, -0.4
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid, center=x0, width=1.0, momentum=p0)
    kernel = short_time_matrix(constant_force(F0), m, t / steps, grid)
    out = propagate(kernel, psi, steps)
    want = x0 + p0 * t / m + F0 * t * t / (2 * m)
    assert abs(out.mean_x() - want) < 1e-3
    assert abs(out.norm() - 1.0) < 1e-3


def test_grid_mismatch_rejected():
    grid = UniformGrid.from_bounds(-6, 6, 256)
    other = UniformGrid.from_bounds(-6, 6, 128)
    kernel = short_time_matrix(Polynomial.zero(), 1.0, 0.5, grid)
    psi = WaveFunction.gaussian_packet(other)
    with pytest.raises(ValueError):
        propagate(kernel, psi, 1)


def test_boundary_leak_warning():
    # fast packet in a tight box reaches the edge within a few steps
    grid = UniformGrid.from_bounds(-3, 3, 512)
    psi = WaveFunction.gaussian_packet(grid, center=0.0, width=0.6, momentum=6.0)
    kernel = short_time_matrix(Polynomial.zero(), 1.0, 0.05, grid)
    with pytest.warns(BoundaryLeak):
        propagate(kernel, psi, 10)


@pytest.mark.filterwarnings("ignore::ccrflow.propagator.BoundaryLeak")
@pytest.mark.parametrize("n", [2, 3, 97, 896])
def test_propagate_matches_dense_chain(n):
    # cubic force, so the diagonal factors are not a pure chirp; dt puts the
    # kinetic phase step at 1 rad per cell on every grid
    force = from_list([0, Fraction(-1, 16), 0, Fraction(-1, 32)])
    m, steps = 1.0, 5
    grid = UniformGrid.from_bounds(-1, 1, n)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=0.3, momentum=0.5)
    kernel = short_time_matrix(force, m, 2 * m * grid.abs_max * grid.dx, grid)
    dense = psi.samples
    for _ in range(steps):
        dense = kernel.rows() @ dense
    got = propagate(kernel, psi, steps).samples
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_large_grid_allocates_no_dense_matrix():
    # the dense slice matrix at n = 16384 would take 16 n^2 bytes = 4.3 GB
    grid = UniformGrid.from_bounds(-6, 6, 16384)
    psi = WaveFunction.gaussian_packet(grid, center=0.5)
    tracemalloc.start()
    try:
        kernel = short_time_matrix(harmonic_force(1.0, 1.0), 1.0, 0.05, grid)
        out = propagate(kernel, psi, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert abs(out.norm() - 1.0) < 1e-6


def test_propagate_holds_one_copy_of_each_array():
    # propagate copied psi0 before its first step and the step held amp diag
    # beside diag: 513 KiB traced at n = 4096 over 40 steps, 450 KiB without
    grid = UniformGrid.from_bounds(-6, 6, 4096)
    psi = WaveFunction.gaussian_packet(grid, center=0.5)
    samples = psi.samples.copy()
    kernel = short_time_matrix(harmonic_force(1.0, 1.0), 1.0, 0.05, grid)
    propagate(kernel, psi, 1)  # imports and caches outside the count
    tracemalloc.start()
    try:
        propagate(kernel, psi, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 480 * 1024
    assert psi.samples.tobytes() == samples.tobytes()


def test_discrete_ehrenfest_harmonic():
    # d<p>/dt tracks <F> to O(dt^2) + quadrature
    m, omega, t_total, steps = 4.0, 1.0, 3.0, 40
    grid = UniformGrid.from_bounds(-2.55, 2.55, 896)
    psi = WaveFunction.gaussian_packet(grid, center=0.3, width=0.5)
    dt = t_total / steps
    kernel = short_time_matrix(harmonic_force(m, omega), m, dt, grid)
    states = [psi]
    for _ in range(steps):
        states.append(propagate(kernel, states[-1], 1))
    x = grid.points()
    worst = 0.0
    for j in range(1, steps):
        dpdt = (states[j + 1].mean_p() - states[j - 1].mean_p()) / (2 * dt)
        w = states[j].weights()
        prob = np.abs(states[j].samples) ** 2 * w
        mean_force = float(np.sum(-m * omega * omega * x * prob) / np.sum(prob))
        worst = max(worst, abs(dpdt - mean_force))
    assert worst < 5e-3


def test_discrete_ehrenfest_linear():
    m, F0, t_total, steps = 1.0, 0.8, 1.0, 8
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=1.0, momentum=-0.4)
    dt = t_total / steps
    kernel = short_time_matrix(constant_force(F0), m, dt, grid)
    states = [psi]
    for _ in range(steps):
        states.append(propagate(kernel, states[-1], 1))
    worst = 0.0
    for j in range(1, steps):
        dpdt = (states[j + 1].mean_p() - states[j - 1].mean_p()) / (2 * dt)
        worst = max(worst, abs(dpdt - F0))
    assert worst < 5e-3


# ---- convergence studies ----

def test_harmonic_convergence():
    grid = UniformGrid.from_bounds(-2.55, 2.55, 896)
    psi = WaveFunction.gaussian_packet(grid, center=0.3, width=0.5)
    report = convergence_study(harmonic_force(), 4.0, psi, 3.0, [5, 10, 20, 40])
    assert report.flow == AffineFlowExact.harmonic(4.0, 1.0)
    errors = [row.l2_error for row in report.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for row in report.rows[1:]:
        assert 3.2 <= row.ratio <= 4.8
    assert report.rows[-1].l2_error < 1e-3


def test_linear_convergence():
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=1.0, momentum=-0.4)
    report = convergence_study(constant_force(0.8), 1.0, psi, 1.0, [1, 2, 4, 8])
    assert report.flow == AffineFlowExact.linear(1.0, 0.8)
    errors = [row.l2_error for row in report.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for row in report.rows[1:]:
        assert 3.2 <= row.ratio <= 4.8
    assert report.rows[-1].l2_error < 1e-3
    # second-order phase defect has a closed form here: F0^2 t^3/(24 m N^2)
    for row in report.rows:
        predicted = 0.8 ** 2 / (24 * row.steps ** 2)
        assert row.l2_error == pytest.approx(predicted, rel=1e-3)


def test_free_chain_error_is_quadrature_dominated():
    grid = UniformGrid.from_bounds(-6, 6, 768)
    psi = WaveFunction.gaussian_packet(grid)
    report = convergence_study(Polynomial.zero(), 1.0, psi, 1.0, [1, 2, 4, 8])
    assert report.flow == AffineFlowExact.free(1.0)
    for row in report.rows:
        assert row.l2_error < 1e-4


@pytest.mark.parametrize("coeffs, m, box, n, t_total, packet, n_list", [
    # shifted oscillator -4*X+1: centre 1/4, phase -3.2 rad at t = 3
    ([1, -4], 4.0, 2.55, 896, 3.0, (0.3, 0.5, 0.0), [5, 10, 20, 40]),
    # inverted oscillator X/2, and with a constant force added
    ([0, Fraction(1, 2)], 1.0, 6.0, 768, 1.0, (0.1, 1.0, -0.4), [1, 2, 4, 8]),
    ([Fraction(3, 10), Fraction(1, 2)], 1.0, 6.0, 768, 1.0, (0.1, 1.0, -0.4), [1, 2, 4, 8]),
], ids=["shifted", "inverted", "inverted-shifted"])
def test_affine_force_convergence_against_closed_form(coeffs, m, box, n, t_total,
                                                      packet, n_list):
    force = from_list(coeffs)
    grid = UniformGrid.from_bounds(-box, box, n)
    center, width, momentum = packet
    psi = WaveFunction.gaussian_packet(grid, center=center, width=width, momentum=momentum)
    report = convergence_study(force, m, psi, t_total, n_list)
    assert report.flow is not None
    assert [row.steps for row in report.rows] == n_list
    for row in report.rows[1:]:
        assert 3.2 <= row.ratio <= 4.8
    assert report.rows[-1].l2_error < 2e-3


def test_general_force_self_convergence():
    force = Polynomial.monomial(3, ScalarCoeff.rational(Fraction(-1, 2)))
    grid = UniformGrid.from_bounds(-4, 4, 640)
    psi = WaveFunction.gaussian_packet(grid, center=0.5, width=0.8)
    report = convergence_study(force, 1.0, psi, 0.6, [2, 4, 8])
    assert report.flow is None
    # the finest run is the reference, so it is not reported
    assert [row.steps for row in report.rows] == [2, 4]
    errors = [row.l2_error for row in report.rows]
    assert errors[1] < errors[0]


def test_convergence_study_validation():
    grid = UniformGrid.from_bounds(-6, 6, 256)
    psi = WaveFunction.gaussian_packet(grid)
    with pytest.raises(ValueError):
        convergence_study(Polynomial.zero(), 1.0, psi, 1.0, [4, 2])
    with pytest.raises(ValueError):
        convergence_study(Polynomial.zero(), 1.0, psi, 1.0, [0, 2])
    with pytest.raises(ValueError):
        convergence_study(Polynomial.zero(), 1.0, psi, -1.0, [2, 4])


def test_convergence_study_refuses_one_step_count_for_a_force_that_is_not_affine(monkeypatch):
    # the finest N is that force's reference and left out of the report: one
    # step count gave a report of no rows, and the command exited 0
    import ccrflow.pathint as pathint_mod

    grid = UniformGrid.from_bounds(-2.55, 2.55, 896)
    psi = WaveFunction.gaussian_packet(grid, center=0.3, width=0.5)
    affine = convergence_study(harmonic_force(), 4.0, psi, 3.0, [40])
    assert [row.steps for row in affine.rows] == [40]

    def no_chains(*args):
        raise AssertionError("a slice chain ran before the step counts were checked")

    monkeypatch.setattr(pathint_mod, "propagate", no_chains)
    cubic = harmonic_force() - Polynomial.monomial(3, ScalarCoeff.rational(1))
    with pytest.raises(ValueError, match="not affine needs two or more step counts"):
        convergence_study(cubic, 4.0, psi, 3.0, [40])


def test_convergence_study_builds_the_reference_before_the_slices(monkeypatch):
    # cosh(1000) overflows in the closed form; the slice chains ran first, and
    # printed a BoundaryLeak warning before the error
    import ccrflow.pathint as pathint_mod

    def no_slices(*args):
        raise AssertionError("a slice chain ran before the reference")

    monkeypatch.setattr(pathint_mod, "propagate", no_slices)
    force = Polynomial.monomial(1, ScalarCoeff.rational(1000000))
    psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-0.001, 0.001, 64),
                                       width=0.0002)
    with pytest.raises(OverflowError, match=r"cosh\(1000\)"):
        convergence_study(force, 1.0, psi, 1.0, [1, 2])


def test_convergence_study_at_a_caustic_raises_before_the_slices(monkeypatch):
    # at omega t = pi the closed-form reference is singular
    import ccrflow.pathint as pathint_mod

    def no_slices(*args):
        raise AssertionError("a slice chain ran")

    monkeypatch.setattr(pathint_mod, "propagate", no_slices)
    psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-6, 6, 512), center=1.0)
    with pytest.raises(CausticSingularity, match=r"beta\(3.14159\d*\) = "):
        convergence_study(harmonic_force(1.0, 1.0), 1.0, psi, math.pi, [5, 10, 20])


def test_convergence_study_past_a_caustic_converges_at_second_order():
    # past omega t = pi the closed-form reference lacked the Maslov sign: the
    # report read l2 errors of 2.0 and ratios of 1.0, then it was refused
    psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-6, 6, 512), center=1.0)
    report = convergence_study(harmonic_force(1.0, 1.0), 1.0, psi, 4.0, [5, 10, 20])
    assert report.rows[0].l2_error < 0.2
    assert [3.2 <= row.ratio <= 4.8 for row in report.rows[1:]] == [True, True]
