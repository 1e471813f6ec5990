import cmath
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ccrflow.heisenberg import extract_affine, generator, newtonian_velocity, taylor_flow
from ccrflow.opalg import Polynomial, ScalarCoeff, X
from ccrflow.propagator import (
    AffineFlowExact,
    BoundaryLeak,
    CausticSingularity,
    GaussianKernel,
    GridTooCoarse,
    UniformGrid,
    WaveFunction,
    check_phase_step,
    evolve_exact,
    gaussian_kernel,
    closed_form_kernel,
)


# ---- kernel construction ----

def test_free_kernel_coefficients():
    k = gaussian_kernel(AffineFlowExact.free(1.0), 1.0)
    assert k.a == 0.5
    assert k.b == -1.0
    assert k.d == 0.0
    expected_amp = (2 * math.pi) ** -0.5 * cmath.exp(-1j * math.pi / 4)
    assert abs(k.A - expected_amp) < 1e-15


def test_harmonic_kernel_at_quarter_period():
    k = gaussian_kernel(AffineFlowExact.harmonic(1.0, 1.0), math.pi / 2)
    assert abs(k.a) < 1e-15
    assert k.b == -1.0
    assert k.d == 0.0


def test_linear_kernel_coefficients():
    m, F0, t = 2.0, 3.0, 0.5
    k = gaussian_kernel(AffineFlowExact.linear(m, F0), t)
    assert math.isclose(k.a.real if isinstance(k.a, complex) else k.a, m / (2 * t))
    assert math.isclose(k.d, F0 * t / 2)


def test_amplitude_magnitude_invariant():
    # |A| = (2 pi |beta|)^(-1/2) for every model and time
    rng = random.Random(29)
    flows = [
        AffineFlowExact.free(1.7),
        AffineFlowExact.harmonic(2.2, 0.6),
        AffineFlowExact.linear(0.9, -1.3),
    ]
    for flow in flows:
        for _ in range(25):
            t = rng.uniform(0.05, 4.0)
            if flow.kappa < 0:
                t = rng.uniform(0.1, 3.0) / math.sqrt(-flow.kappa)
            k = gaussian_kernel(flow, t)
            want = (2 * math.pi * abs(flow.at(t)[1])) ** -0.5
            assert abs(abs(k.A) - want) < 1e-14 * want


def test_caustic_detection():
    flow = AffineFlowExact.harmonic(1.0, 1.0)
    with pytest.raises(CausticSingularity):
        gaussian_kernel(flow, math.pi)
    with pytest.raises(CausticSingularity):
        gaussian_kernel(AffineFlowExact.free(1.0), 0.0)


def test_scale_free_caustic_test():
    # beta = t/m is tiny for a heavy particle, but beta m / t = 1: no caustic
    k = gaussian_kernel(AffineFlowExact.free(1e13), 1.0)
    assert k.b == -1e13
    assert closed_form_kernel("free", {"m": 1e13}, 1.0, 0.0, 0.0) != 0
    assert closed_form_kernel("linear", {"m": 1e13, "F0": 1.0}, 1.0, 0.0, 0.0) != 0
    # a light oscillator at omega t = pi has |beta| = 1.2e-10, still a caustic
    with pytest.raises(CausticSingularity):
        gaussian_kernel(AffineFlowExact.harmonic(1e-6, 1.0), math.pi)
    with pytest.raises(CausticSingularity):
        closed_form_kernel("harmonic", {"m": 1e-6, "omega": 1.0}, math.pi, 0.0, 0.0)


@pytest.mark.parametrize("coeffs, m", [
    ([1, -4], 1.0),                         # shifted oscillator -4*X+1
    ([0, Fraction(1, 2)], 1.0),             # inverted oscillator X/2
    ([Fraction(3, 10), Fraction(1, 2)], 1.3),  # inverted, shifted
], ids=["shifted", "inverted", "inverted-shifted"])
def test_affine_flow_matches_taylor_route(coeffs, m):
    # the paper's route: X(t) as an operator Taylor series from dO/dt = i[G, O]
    force = Polynomial.from_list(coeffs)
    series = extract_affine(taylor_flow(X, generator(force, newtonian_velocity()), 24))
    flow = AffineFlowExact.from_force(force, m)
    for t in (0.05, 0.3, 0.7, 1.0):
        want = series.evaluate(t, {"m": m})
        got = flow.at(t)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_from_force_rejects_non_affine_forces():
    assert AffineFlowExact.from_force(Polynomial.from_list([0, 0, 1]), 1.0) is None
    with pytest.raises(ValueError, match="imaginary part"):  # this returned None
        AffineFlowExact.from_force(Polynomial.monomial(0, ScalarCoeff.imag_unit()), 1.0)
    assert AffineFlowExact.from_force(Polynomial.from_list([2, -3]), 1.5) == \
        AffineFlowExact(1.5, kappa=-2.0, F0=2.0)


def _with_phase(flow, t, xb, xa):
    return gaussian_kernel(flow, t)(xb, xa) * cmath.exp(1j * flow.phase(t))


def _composed(flow, t1, t2, xb, xa):
    """int U(t1)(x_b, y) U(t2)(y, x_a) dy by the Gaussian integral
    int exp{i (q y^2 + l y)} dy = (i pi/q)^(1/2) exp{-i l^2/(4 q)}, q real."""
    k1, k2 = gaussian_kernel(flow, t1), gaussian_kernel(flow, t2)
    q = k1.a + k2.a
    lin = k1.b * xb + k1.d + k2.b * xa + k2.d
    outer = k1.a * xb * xb + k1.d * xb + k2.a * xa * xa + k2.d * xa
    return (k1.A * k2.A * cmath.sqrt(1j * math.pi / q)
            * cmath.exp(1j * (flow.phase(t1) + flow.phase(t2) + outer - lin * lin / (4 * q))))


@pytest.mark.parametrize("kappa", [-1.3, 0.0, 0.7])
def test_group_law_with_phase(kappa):
    # U(t1) U(t2) = U(t1 + t2) exactly once the constant phase is carried
    flow = AffineFlowExact(1.7, kappa=kappa, F0=0.9)
    for t1, t2 in ((0.4, 0.7), (1.1, 0.3)):
        for xb, xa in ((0.3, -1.2), (-1.5, 0.8), (0.0, 2.0)):
            want = _with_phase(flow, t1 + t2, xb, xa)
            assert abs(_composed(flow, t1, t2, xb, xa) - want) < 1e-12 * abs(want)


def test_affine_flow_continuous_at_kappa_zero_and_phase_series_switch():
    m, F0, t = 1.3, 0.7, 1.0

    def values(kappa):
        flow = AffineFlowExact(m, kappa=kappa, F0=F0)
        return np.array([*flow.at(t), flow.phase(t)])

    at_zero = values(0.0)
    for kappa in (-1e-12, 1e-12):
        assert np.allclose(values(kappa), at_zero, rtol=1e-11, atol=0)
    # phase() switches from its closed forms to the series at |kappa t^2| = 1e-3
    for edge in (-1e-3, 1e-3):
        inside, outside = values(edge * (1 - 1e-9)), values(edge * (1 + 1e-9))
        assert np.allclose(inside, outside, rtol=1e-11, atol=0)


def test_flow_validation():
    with pytest.raises(ValueError):
        AffineFlowExact.free(-1.0)
    with pytest.raises(ValueError):
        AffineFlowExact.harmonic(1.0, 0.0)
    with pytest.raises(ValueError):
        AffineFlowExact(1.0, kappa=math.inf)
    with pytest.raises(ValueError):
        AffineFlowExact.linear(1.0, math.nan)


# ---- printed kernels ----

def test_closed_form_kernel_free_frozen_value():
    val = closed_form_kernel("free", {"m": 1.0}, 1.0, 0.3, 0.3)
    want = complex(0.28209479177387814, -0.28209479177387814)
    assert abs(val - want) < 1e-15


def test_closed_form_kernel_matches_gaussian_kernel():
    rng = random.Random(31)
    cases = {
        "free": (AffineFlowExact.free(1.3), {"m": 1.3}),
        "harmonic": (AffineFlowExact.harmonic(1.3, 0.9), {"m": 1.3, "omega": 0.9}),
        "linear": (AffineFlowExact.linear(1.3, 1.7), {"m": 1.3, "F0": 1.7}),
    }
    for model, (flow, params) in cases.items():
        for _ in range(100):
            t = rng.uniform(0.1, 3.0) / params.get("omega", 1.0)
            xb, xa = rng.uniform(-3, 3), rng.uniform(-3, 3)
            built = gaussian_kernel(flow, t)(xb, xa)
            printed = closed_form_kernel(model, params, t, xb, xa)
            assert abs(built - printed) <= 1e-12 * abs(printed)


def test_harmonic_kernel_free_limit():
    m, t = 1.0, 1.0
    omega = 1e-4 / t
    for xb, xa in ((0.2, -0.7), (1.4, 1.0), (-1.8, 0.3)):
        h = closed_form_kernel("harmonic", {"m": m, "omega": omega}, t, xb, xa)
        f = closed_form_kernel("free", {"m": m}, t, xb, xa)
        assert abs(h - f) / abs(f) < 1e-6


def test_defining_equation_residual_second_order():
    # i dU/dx_a - ((x_b - alpha x_a - gamma)/beta) U -> 0 at O(h^2)
    cases = [
        (AffineFlowExact.free(1.0), 0.9),
        (AffineFlowExact.harmonic(1.0, 1.2), 0.8),
        (AffineFlowExact.linear(1.0, 0.7), 1.1),
    ]
    for flow, t in cases:
        k = gaussian_kernel(flow, t)
        al, be, ga = flow.at(t)
        for xb, xa in ((0.4, -0.3), (1.1, 0.8)):
            def residual(h):
                deriv = (k(xb, xa + h) - k(xb, xa - h)) / (2 * h)
                return abs(1j * deriv - ((xb - al * xa - ga) / be) * k(xb, xa))

            r1, r2 = residual(1e-3), residual(5e-4)
            assert r1 / r2 == pytest.approx(4.0, rel=0.15)
            # conjugate relation in x_b
            def residual_b(h):
                deriv = (k(xb + h, xa) - k(xb - h, xa)) / (2 * h)
                return abs(1j * deriv - ((xa - al * xb - ga) / be) * k(xb, xa))

            r1, r2 = residual_b(1e-3), residual_b(5e-4)
            assert r1 / r2 == pytest.approx(4.0, rel=0.15)


# ---- wavefunctions ----

def test_gaussian_packet_is_normalized():
    grid = UniformGrid.from_bounds(-8, 8, 512)
    psi = WaveFunction.gaussian_packet(grid, center=0.5, width=1.2, momentum=0.7)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert abs(psi.mean_x() - 0.5) < 1e-12
    assert abs(psi.mean_p() - 0.7) < 1e-9


def test_boundary_flagging():
    grid = UniformGrid.from_bounds(-2, 2, 128)
    wide = WaveFunction.gaussian_packet(grid, width=2.0)
    assert wide.boundary_flagged
    grid = UniformGrid.from_bounds(-10, 10, 256)
    tight = WaveFunction.gaussian_packet(grid, width=1.0)
    assert not tight.boundary_flagged


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(UniformGrid(0.0, 0.1, 1), [1.0])
    with pytest.raises(ValueError):
        WaveFunction(UniformGrid(0.0, -0.1, 2), [1.0, 2.0])
    for grid, samples in [(UniformGrid(0.0, 0.1, 3), [1.0, 2.0]),  # one sample per point
                          (UniformGrid(0.0, 0.1, 2), [1.0, 2.0, 3.0]),
                          (UniformGrid(0.0, 0.1, 2), [[1.0, 2.0]]),
                          (UniformGrid(0.0, 0.1, 0), []),  # n >= 2
                          (UniformGrid(0.0, 0.0, 2), [1.0, 2.0]),  # dx > 0
                          (UniformGrid(0.0, math.nan, 2), [1.0, 2.0])]:
        with pytest.raises(ValueError):
            WaveFunction(grid, samples)
    with pytest.raises(ValueError):
        UniformGrid.from_bounds(0.0, 0.0, 16)
    with pytest.raises(ValueError):
        UniformGrid.from_bounds(0.0, 1.0, 1)


def test_wavefunction_holds_its_grid():
    grid = UniformGrid.from_bounds(-6, 6, 512)
    psi = WaveFunction.gaussian_packet(grid, width=0.7)
    assert psi.grid is grid and psi.n == 512
    assert np.array_equal(psi.points(), grid.points())
    out = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 1.0), psi)
    assert out.grid == grid


@pytest.mark.parametrize("step", [math.nan, math.inf, math.pi / 2 * (1 + 1e-15)])
def test_phase_step_rule_fails_nan_and_steps_past_pi_over_2(step):
    # a NaN step passed the old `step > pi/2` test of the slice kernels
    with pytest.raises(GridTooCoarse, match=r"^slice kernel phase advances .* or enlarge dt$"):
        check_phase_step(step, "slice kernel", "refine dx, shrink the domain, or enlarge dt")
    check_phase_step(math.pi / 2, "kernel", "refine dx or shrink the domain")


def test_l2_distance_requires_same_grid():
    a = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-5, 5, 64))
    b = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-5, 5, 128))
    with pytest.raises(ValueError):
        a.l2_distance(b)


# ---- evolution ----

def test_grid_too_coarse_rejected():
    grid = UniformGrid.from_bounds(-4, 4, 512)
    psi = WaveFunction.gaussian_packet(grid)
    kernel = gaussian_kernel(AffineFlowExact.free(1.0), 1e-3)
    with pytest.raises(GridTooCoarse):
        evolve_exact(kernel, psi)


def test_free_spreading():
    # width parameter grows as sigma sqrt(1 + t^2/(m sigma^2)^2)
    grid = UniformGrid.from_bounds(-7, 7, 1024)
    psi = WaveFunction.gaussian_packet(grid, width=1.0)
    out = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 1.0), psi)
    width = math.sqrt(2 * out.var_x())
    assert abs(width / math.sqrt(2.0) - 1.0) < 1e-6
    assert abs(out.norm() - 1.0) < 1e-6


def test_harmonic_coherent_rotation():
    # at omega t = pi/2 the phase-space point (x0, p0) maps to (p0/mw, -mw x0)
    for m, omega, x0, p0 in ((1.0, 1.0, 1.0, 0.5), (1.5, 0.8, 0.6, -0.4)):
        width = 1.0 / math.sqrt(m * omega)
        grid = UniformGrid.from_bounds(-6.5, 6.5, 1024)
        psi = WaveFunction.gaussian_packet(grid, center=x0, width=width,
                                           momentum=p0)
        out = evolve_exact(
            gaussian_kernel(AffineFlowExact.harmonic(m, omega),
                            math.pi / (2 * omega)), psi)
        assert abs(out.mean_x() - p0 / (m * omega)) < 1e-6
        assert abs(out.mean_p() + m * omega * x0) < 1e-6


def test_ehrenfest_all_models():
    # <x>(t) = alpha <x>0 + beta <p>0 + gamma
    x0, p0, t = 0.4, -0.3, 0.9
    cases = [
        AffineFlowExact.free(1.0),
        AffineFlowExact.harmonic(1.0, 1.1),
        AffineFlowExact.linear(1.0, 0.8),
    ]
    grid = UniformGrid.from_bounds(-8, 8, 1024)
    psi = WaveFunction.gaussian_packet(grid, center=x0, width=1.0, momentum=p0)
    for flow in cases:
        out = evolve_exact(gaussian_kernel(flow, t), psi)
        al, be, ga = flow.at(t)
        want = al * x0 + be * p0 + ga
        assert abs(out.mean_x() - want) < 1e-6
        assert abs(out.norm() - 1.0) < 1e-6


def test_composition_free_strict():
    grid = UniformGrid.from_bounds(-7, 7, 1024)
    psi = WaveFunction.gaussian_packet(grid)
    flow = AffineFlowExact.free(1.0)
    one = evolve_exact(gaussian_kernel(flow, 1.0), psi)
    two = evolve_exact(gaussian_kernel(flow, 0.6),
                       evolve_exact(gaussian_kernel(flow, 0.4), psi))
    assert one.l2_distance(two) < 1e-5


def test_composition_linear_up_to_constant_phase():
    # the amplitude convention fixes the kernel only up to a spatially
    # constant phase, which does not telescope under composition; compare
    # after aligning the global phase
    grid = UniformGrid.from_bounds(-7, 7, 1024)
    psi = WaveFunction.gaussian_packet(grid)
    flow = AffineFlowExact.linear(1.0, 0.8)
    one = evolve_exact(gaussian_kernel(flow, 1.0), psi)
    two = evolve_exact(gaussian_kernel(flow, 0.6),
                       evolve_exact(gaussian_kernel(flow, 0.4), psi))
    overlap = np.sum(np.conj(one.samples) * two.samples * one.weights())
    aligned = two.samples * (abs(overlap) / overlap)
    diff = math.sqrt(float(np.sum(np.abs(one.samples - aligned) ** 2
                                  * one.weights())))
    assert diff < 1e-5


def test_delta_limit_small_time():
    # as t -> 0+ the kernel acts as the identity; resolving its phase at
    # t = 1e-3 forces a fine grid, sized here by the oscillation rule
    m, t, width = 0.5, 1e-3, 1.0
    x_edge = 4.2
    n = 22528
    grid = UniformGrid.from_bounds(-x_edge, x_edge, n)
    rule_dx = math.pi * t / (4 * m * x_edge)
    assert grid.dx <= rule_dx
    psi = WaveFunction.gaussian_packet(grid, width=width)
    assert not psi.boundary_flagged
    out = evolve_exact(gaussian_kernel(AffineFlowExact.free(m), t), psi)
    assert out.l2_distance(psi) < 1e-3


@pytest.mark.filterwarnings("ignore::ccrflow.propagator.BoundaryLeak")  # free: 1.7e-6
@pytest.mark.parametrize("kernel", [
    gaussian_kernel(AffineFlowExact.free(1.0), 0.8),
    gaussian_kernel(AffineFlowExact.harmonic(1.3, 0.9), 1.1),
    gaussian_kernel(AffineFlowExact.linear(0.7, -1.2), 0.6),
], ids=["free", "harmonic", "linear"])
def test_evolve_matches_dense_quadrature(kernel):
    grid = UniformGrid.from_bounds(-5, 4, 900)
    psi = WaveFunction.gaussian_packet(grid, center=-0.4, width=0.9, momentum=0.6)
    x = psi.points()
    dense = kernel(x[:, None], x[None, :]) @ (psi.samples * psi.weights())
    got = evolve_exact(kernel, psi).samples
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_evolve_warns_where_the_packet_reaches_the_edge():
    # the README evolve grid at t = 5 put 1.4e-2 of the mass on the edge
    # samples, and exited 0 without a word; at t = 0.5 nothing leaks
    psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-6, 6, 512), center=1.0,
                                       momentum=0.5)
    with pytest.warns(BoundaryLeak, match="edge mass fraction 1.42e-02 exceeds 1e-06"):
        evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 5.0), psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryLeak)
        evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 0.5), psi)


def _step(n: int):
    """The README harmonic kernel at t = 0.7 on a grid of n points in [-6, 6]."""
    return gaussian_kernel(AffineFlowExact.harmonic(1.0, 1.0), 0.7).step(
        UniformGrid.from_bounds(-6, 6, n))


def test_chirp_step_application_allocates_only_its_result():
    # each application allocated three arrays of the FFT length L (16 L bytes
    # each); the operator now owns them, and only the n-sized result is new
    step = _step(8192)
    apply = step.operator()
    v = WaveFunction.gaussian_packet(step.grid, center=1.0).samples
    tracemalloc.start()
    try:
        apply(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert step.grid.fft_size == 16384 and peak < 16 * step.grid.fft_size


@pytest.mark.parametrize("n", [2, 3, 896, 4096, 8192])
def test_chirp_step_operator_repeats_the_fresh_array_expression(n):
    # the operator as it was before it owned its buffers; from 256 KiB on
    # (L = 16384) numpy ran spectrum * fft(...) in place on the temporary as
    # fft(...) * spectrum, which rounds differently where the product fuses
    # multiply and add, so there the bytes may change within 1e-15
    step = _step(n)
    size = step.grid.fft_size
    diag = np.exp(1j * step.phase)
    left = step.amp * diag
    lag = step.grid.dx * np.arange(n)
    col = np.exp(1j * step.kin * lag * lag)
    spectrum = np.fft.fft(np.concatenate([col, np.zeros(size - 2 * n + 1), col[:0:-1]]))
    apply = step.operator()
    old = new = WaveFunction.gaussian_packet(step.grid, center=1.0, momentum=0.5).samples
    for _ in range(8):
        old = left * np.fft.ifft(spectrum * np.fft.fft(diag * old, size))[:n]
        new = apply(new)
        if 16 * size < 1 << 18:
            assert new.tobytes() == old.tobytes()
        else:
            assert np.linalg.norm(new - old) <= 1e-15 * np.linalg.norm(old)


@pytest.mark.parametrize("n", [2, 3, 384])
def test_chirp_step_rows_are_one_symmetric_matrix_in_any_blocks(n):
    # the kernel CSV builds its rows a block at a time in each of its shares,
    # so every split must give the same bits; U is symmetric to the last bit
    kernel = GaussianKernel(a=0.3, b=-1.1, d=0.4, A=0.5 - 0.2j)
    step = kernel.step(UniformGrid.from_bounds(-4, 3, n))
    dense = step.rows()
    assert np.array_equal(dense, dense.T)
    for size in (1, 7, n // 2 + 1):
        blocks = [step.rows(start, min(start + size, n)) for start in range(0, n, size)]
        assert np.array_equal(np.concatenate(blocks), dense)


def test_evolution_is_deterministic():
    grid = UniformGrid.from_bounds(-6, 6, 512)
    psi = WaveFunction.gaussian_packet(grid, center=0.2, momentum=0.4)
    kernel = gaussian_kernel(AffineFlowExact.harmonic(1.0, 1.0), 1.0)
    a = evolve_exact(kernel, psi)
    b = evolve_exact(kernel, psi)
    assert np.array_equal(a.samples, b.samples)
