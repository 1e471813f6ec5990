"""Discrete real-time path integral: chained short-time kernels on a grid.

One slice of duration dt uses the kernel

    K(x_i, x_j) = (m/(2 pi i dt))^(1/2)
                  exp{ (i m/(2 dt)) ((x_i - x_j)^2 + (dt^2/m)(W(x_i) + W(x_j))) } dx

where W(x) = int F dx with zero constant term.  The symmetric endpoint
average of W makes each slice a second-order (Strang-type) step, so chaining
N slices converges to the exact evolution at O(dt^2) with Richardson ratio 4
under step doubling.  K is a ChirpStep, amp diag(e^{i dt W/2}) T diag(e^{i dt W/2})
with T Toeplitz, so a slice is one deterministic FFT convolution: O(n log n)
time, O(n) memory.  Like propagator, it imports numpy where it runs, so that
every ccrflow module compiles before numpy loads (cli._numpy).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .opalg import Polynomial
from .propagator import (
    EDGE_LEAK_WARN,
    AffineFlowExact,
    BoundaryLeak,
    CausticSingularity,
    ChirpStep,
    UniformGrid,
    WaveFunction,
    check_phase_step,
    check_real_force,
    evolve_exact,
    finite_on_grid,
    gaussian_kernel,
    warn_on_leak,
)

__all__ = [
    "ConvergenceRow",
    "ConvergenceReport",
    "short_time_matrix",
    "propagate",
    "convergence_study",
    "EDGE_LEAK_WARN",
]


def short_time_matrix(force: Polynomial, m: float, dt: float, grid: UniformGrid,
                      params: Mapping[str, float] | None = None) -> ChirpStep:
    """The slice kernel for force F on the given grid: amp = (m/(2 pi i dt))^(1/2) dx,
    kin = m/(2 dt) and phase = (dt/2) W(x).

    Raises ValueError for a force that is not real (check_real_force),
    OverflowError where F or W is not finite on the grid, and
    GridTooCoarse unless the per-cell phase bound holds:
    dx * (2 m X_max / dt + (dt/2) max|F|) <= pi/2, the oscillation rule with
    the kinetic quadratic coefficient a = m/(2 dt) plus the W-phase gradient.
    """
    import numpy as np

    if not dt > 0:
        raise ValueError("dt must be positive")
    if not m > 0:
        raise ValueError("mass must be positive")
    check_real_force(force)
    x = grid.points()
    with np.errstate(all="ignore"):  # finite_on_grid, not a warning, reports overflow
        # a constant polynomial evaluates to a scalar
        f_vals = finite_on_grid(np.broadcast_to(force.evaluate(x, params), x.shape),
                                "the force").real
        w_vals = finite_on_grid(np.broadcast_to(force.antiderivative().evaluate(x, params),
                                                x.shape), "the force's antiderivative").real
    check_phase_step(grid.dx * (2 * m * grid.abs_max / dt
                                + (dt / 2) * float(np.max(np.abs(f_vals)))),
                     "slice kernel", "refine dx, shrink the domain, or enlarge dt")
    amp = np.sqrt(m / (2j * math.pi * dt)) * grid.dx
    return ChirpStep(grid, amp, m / (2 * dt), (dt / 2) * w_vals)


def propagate(kernel: ChirpStep, psi0: WaveFunction, steps: int) -> WaveFunction:
    """psi_N = K^N psi_0 by N FFT applications of K; warns on edge leakage
    (warn_on_leak) once, at the first step that leaks."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if psi0.grid != kernel.grid:
        raise ValueError("wavefunction grid does not match the kernel grid")
    apply = kernel.operator()
    psi = WaveFunction(psi0.grid, psi0.samples.copy())
    warned = False
    for _ in range(steps):
        psi = WaveFunction(psi.grid, apply(psi.samples))
        warned = warned or warn_on_leak(psi)
    return psi


class ConvergenceRow(NamedTuple):
    steps: int
    dt: float
    l2_error: float
    ratio: float  # previous error / this error; nan on the first row


class ConvergenceReport(NamedTuple):
    """Per-N errors against a reference evolution, and the finest-N state;
    flow is the closed-form reference's, None when the finest N is the reference."""

    flow: AffineFlowExact | None
    rows: tuple
    finest: WaveFunction


def convergence_study(force: Polynomial, m: float, psi0: WaveFunction,
                      t_total: float, n_list: Sequence[int],
                      params: Mapping[str, float] | None = None) -> ConvergenceReport:
    """Chain K^N for each N and report L2 errors against a reference.

    For every force F0 + m kappa X the reference is the closed-form evolution
    of AffineFlowExact.from_force, times exp{i flow.phase(t)}: the chained
    slices carry that constant action phase, so the errors measure
    discretization alone.  For any other force it is the finest-N run itself
    (then omitted from the report).  Every N must satisfy the slice
    oscillation rule on psi0's grid.  Raises CausticSingularity where
    sqrt(-kappa) t_total >= pi: past the first caustic the closed form has
    no phase continuation, so it is no reference.
    """
    import numpy as np

    steps = sorted(set(int(n) for n in n_list))
    if not steps:
        raise ValueError("n_list must not be empty")
    if steps != [int(n) for n in n_list]:
        raise ValueError("n_list must be strictly increasing")
    if steps[0] < 1:
        raise ValueError("step counts must be positive")
    if not t_total > 0:
        raise ValueError("t_total must be positive")
    if not m > 0:
        raise ValueError("mass must be positive")

    # the closed form first: where it fails, no slice chain is wasted
    flow = AffineFlowExact.from_force(force, m, params)
    if flow is not None:
        if flow.kappa < 0 and (wt := math.sqrt(-flow.kappa) * t_total) >= math.pi:
            raise CausticSingularity(f"sqrt(-kappa) t = {wt:.4g} is past the first caustic at "
                                     "pi, where the closed-form reference has no phase "
                                     "continuation")
        exact = evolve_exact(gaussian_kernel(flow, t_total), psi0)
        reference = WaveFunction(exact.grid, exact.samples * np.exp(1j * flow.phase(t_total)))
    results = {}
    for n in steps:
        kernel = short_time_matrix(force, m, t_total / n, psi0.grid, params)
        results[n] = propagate(kernel, psi0, n)

    if flow is None:
        reference = results[steps[-1]]
        reported = steps[:-1]
    else:
        reported = steps

    rows = []
    prev = None
    for n in reported:
        err = results[n].l2_distance(reference)
        ratio = prev / err if (prev is not None and err > 0) else math.nan
        rows.append(ConvergenceRow(n, t_total / n, err, ratio))
        prev = err
    return ConvergenceReport(flow=flow, rows=tuple(rows), finest=results[steps[-1]])
