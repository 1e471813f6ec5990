"""Closed-form Gaussian propagators for affine flows, applied by quadrature.

For a flow X(t) = alpha X + beta P + gamma the position-space kernel is

    U(x_b, x_a) = A exp{ i (a (x_b^2 + x_a^2) + b x_b x_a + d (x_b + x_a)) }

with a = alpha/(2 beta), b = -1/beta, d = gamma/beta and
A = (2 pi i beta)^(-1/2) on the principal branch.  The kernel solves the
first-order relations

    i dU/dx_a = ((x_b - alpha x_a - gamma)/beta) U
    i dU/dx_b = ((x_a - alpha x_b - gamma)/beta) U

and reduces to delta(x_b - x_a) as t -> 0+.  Wavepackets evolve by trapezoid
quadrature on a uniform grid; a per-cell phase bound keeps the oscillatory
integrand resolved.  The closed form (flows, kernel coefficients, the
textbook kernels, the grid's bounds and the checks) is scalar math and
cmath; the array code imports numpy where it runs: a numeric entry imports
csvtext, which loads numpy, after every other module it compiles.
"""

from __future__ import annotations

import math
import cmath
import warnings
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import DomainError

if TYPE_CHECKING:
    import numpy as np

    from .opalg import Polynomial

__all__ = [
    "CausticSingularity",
    "GridTooCoarse",
    "BoundaryLeak",
    "UniformGrid",
    "AffineFlowExact",
    "ChirpStep",
    "GaussianKernel",
    "WaveFunction",
    "gaussian_kernel",
    "closed_form_kernel",
    "evolve_exact",
    "check_phase_step",
    "check_real_force",
    "finite_on_grid",
    "warn_on_leak",
    "CAUSTIC_EPS",
    "EDGE_SAMPLES",
    "EDGE_LEAK_WARN",
]

CAUSTIC_EPS = 1e-12
EDGE_SAMPLES = 5
EDGE_LEAK_WARN = 1e-6


class CausticSingularity(DomainError):
    """beta(t) vanished: the Gaussian kernel amplitude diverges here."""


class GridTooCoarse(DomainError):
    """Kernel phase would advance more than pi/2 between adjacent samples, or a
    packet is too narrow for its samples to hold its norm."""


class BoundaryLeak(UserWarning):
    """Probability mass reached the edge samples of the grid."""


class UniformGrid(NamedTuple):
    """Uniform 1-D spatial grid: n samples starting at x_min with spacing dx."""

    x_min: float
    dx: float
    n: int

    @classmethod
    def from_bounds(cls, x_min: float, x_max: float, n: int) -> "UniformGrid":
        if n < 2:
            raise ValueError("grid needs at least 2 samples")
        if not x_max > x_min:
            raise ValueError("x_max must exceed x_min")
        dx = (float(x_max) - float(x_min)) / (n - 1)
        if not math.isfinite(dx):
            raise OverflowError("the grid spacing (x_max - x_min)/(n - 1) is beyond the "
                                "float range")
        return cls(float(x_min), dx, int(n))

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.n - 1)

    @property
    def abs_max(self) -> float:
        return max(abs(self.x_min), abs(self.x_max))

    def points(self) -> np.ndarray:
        import numpy as np

        return self.x_min + self.dx * np.arange(self.n)

    @property
    def fft_size(self) -> int:
        """The power-of-two length L >= 2n - 1 of a ChirpStep's FFT on this grid."""
        return 1 << (2 * self.n - 2).bit_length()


class _AffineFlowFields(NamedTuple):
    m: float
    kappa: float = 0.0
    F0: float = 0.0


class AffineFlowExact(_AffineFlowFields):
    """Closed-form flow X(t) = alpha X + beta P + gamma of the force
    F = F0 + m kappa X, the forces whose propagator is Gaussian.

    kappa < 0, w = sqrt(-kappa): cos wt, sin wt/(m w), 2 F0 sin^2(wt/2)/(m w^2)
    kappa > 0, w = sqrt(kappa):  the same with cosh and sinh
    kappa = 0:                   1, t/m, F0 t^2/(2m)

    free, harmonic (kappa = -omega^2) and linear are the paper's three cases;
    shifted and inverted oscillators need no other code.
    """

    __slots__ = ()

    def __new__(cls, m: float, kappa: float = 0.0, F0: float = 0.0) -> "AffineFlowExact":
        if not (m > 0 and all(map(math.isfinite, (m, kappa, F0)))):
            raise ValueError("m must be positive, and m, kappa and F0 finite")
        return super().__new__(cls, m, kappa, F0)

    @classmethod
    def free(cls, m: float) -> "AffineFlowExact":
        return cls(m)

    @classmethod
    def harmonic(cls, m: float, omega: float) -> "AffineFlowExact":
        if not omega > 0:
            raise ValueError("harmonic flow needs omega > 0")
        return cls(m, kappa=-omega * omega)  # sqrt(omega^2) == omega exactly

    @classmethod
    def linear(cls, m: float, F0: float) -> "AffineFlowExact":
        return cls(m, F0=F0)

    @classmethod
    def from_force(cls, force: Polynomial, m: float,
                   params: Mapping[str, float] | None = None) -> "AffineFlowExact | None":
        """The flow of F = c0 + c1 X; None for a higher degree.  Raises
        ValueError for a force that is not real (check_real_force)."""
        check_real_force(force)
        if max(force.coeffs, default=0) > 1:
            return None
        numeric = {k: c.evaluate(params).real for k, c in force.coeffs.items()}
        return cls(m, kappa=numeric.get(1, 0.0) / m, F0=numeric.get(0, 0.0))

    def at(self, t: float) -> tuple[float, float, float]:
        """(alpha, beta, gamma) at time t.  Raises OverflowError where cosh
        leaves the float range or m w (or m w^2) underflows to 0."""
        if self.kappa == 0:
            return 1.0, t / self.m, self.F0 * t * t / (2 * self.m)
        w = math.sqrt(abs(self.kappa))
        if self.kappa > 0 and w * abs(t) > 710:
            raise OverflowError(f"cosh({w * abs(t):.4g}) is beyond the float range")
        cos, sin = (math.cos, math.sin) if self.kappa < 0 else (math.cosh, math.sinh)
        try:
            return (cos(w * t), sin(w * t) / (self.m * w),
                    2 * self.F0 * sin(w * t / 2) ** 2 / (self.m * w * w))
        except ZeroDivisionError:
            raise OverflowError(f"m w^2 at m = {self.m:.4g}, w = {w:.4g} underflows to 0; "
                                "the flow is beyond the float range") from None

    def phase(self, t: float) -> float:
        """The constant action phase the kernel omits (V(0) = 0):
        -F0^2 t^3/(24 m) g(s), s = kappa t^2, with g = 24 (tan(u/2) - u/2)/u^3
        for s = -u^2 and 24 (u/2 - tanh(u/2))/u^3 for s = u^2.  Both cancel
        catastrophically near s = 0, where g = 1 - s/10 + 17 s^2/1680 (relative
        error below 3e-12); g = 1 at kappa = 0, the constant-force phase."""
        s = self.kappa * t * t
        if abs(s) < 1e-3:
            g = 1 - s / 10 + 17 * s * s / 1680
        elif s < 0:
            u = math.sqrt(-s)
            g = 24 * (math.tan(u / 2) - u / 2) / u ** 3
        else:
            u = math.sqrt(s)
            g = 24 * (u / 2 - math.tanh(u / 2)) / u ** 3
        return -self.F0 * self.F0 * t ** 3 / (24 * self.m) * g


class ChirpStep(NamedTuple):
    """One grid kernel U_ij = amp exp{i (kin ((i - j) dx)^2 + phase_i + phase_j)},
    the form of every Gaussian kernel and path-integral slice on a grid."""

    grid: UniformGrid
    amp: complex
    kin: float
    phase: np.ndarray

    def operator(self):
        """v -> U v = amp diag(e^{i phase}) T diag(e^{i phase}) v.  The Toeplitz T,
        T_ij = exp{i kin ((i-j) dx)^2}, is embedded in a circulant of length
        grid.fft_size, where the lags -(n-1)..n-1 stay distinct, so U v is one
        zero-padded FFT convolution (Bluestein's chirp-z identity): O(n log n),
        deterministic.  Its FFT-length intermediates live in one buffer the
        operator owns (FFTs with out=, numpy >= 2.0): it keeps diag, the spectrum
        and that buffer; an application allocates only its result, amp diag times
        the FFT output in place, and two may not run at once (one per thread).
        apply(v, w) writes v * w into the buffer: the bits of apply(v * w)."""
        import numpy as np

        n, size, amp = self.grid.n, self.grid.fft_size, self.amp  # apply holds no phase
        diag = np.multiply(1j, self.phase)
        np.exp(diag, out=diag)
        spectrum = np.zeros(size, complex)
        lag = self.grid.dx * np.arange(n)
        column = np.multiply(1j * self.kin, lag, out=spectrum[:n])
        np.exp(np.multiply(column, lag, out=column), out=column)
        del lag  # before the buffer: the operator keeps diag, spectrum and work only
        spectrum[size - n + 1:] = spectrum[n - 1:0:-1]
        np.fft.fft(spectrum, out=spectrum)
        work = np.empty(size, complex)

        def apply(v, weights=None):
            work[n:] = 0
            if weights is None:
                np.multiply(diag, v, out=work[:n])
            else:
                np.multiply(diag, np.multiply(v, weights, out=work[:n]), out=work[:n])
            np.fft.fft(work, out=work)
            np.multiply(spectrum, work, out=work)
            out = amp * diag
            return np.multiply(out, np.fft.ifft(work, out=work)[:n], out=out)
        return apply

    def rows(self, start: int = 0, stop: int | None = None,
             columns: slice = slice(None)) -> np.ndarray:
        """Rows start..stop of the dense matrix U, in the given columns; bitwise
        symmetric, and the same bits whatever block is asked for: amp * <a large
        temporary> would run in place as temporary * amp, which numpy may round
        differently."""
        import numpy as np

        n = self.grid.n
        stop = n if stop is None else stop
        lag = self.grid.dx * (np.arange(start, stop)[:, None] - np.arange(n)[columns])
        phase = self.kin * lag * lag + (self.phase[start:stop, None] + self.phase[columns])
        return np.multiply(self.amp, np.exp(1j * phase))


class GaussianKernel(NamedTuple):
    """U(x_b, x_a) = A exp{i (a (x_b^2 + x_a^2) + b x_b x_a + d (x_b + x_a))}."""

    a: complex
    b: complex
    d: complex
    A: complex

    def __call__(self, x_b, x_a):
        import numpy as np

        phase = (self.a * x_b * x_b + self.b * x_b * x_a + self.a * x_a * x_a
                 + self.d * x_b + self.d * x_a)
        return self.A * np.exp(1j * phase)

    def step(self, grid: UniformGrid) -> ChirpStep:
        """This kernel on grid: b x_b x_a = (b/2)(x_b^2 + x_a^2 - (x_b - x_a)^2)
        gives kin = -b/2 and phase = (a + b/2) x^2 + d x."""
        import numpy as np

        x = grid.points()
        half_b = self.b / 2
        # (a + b/2) x x + d x, built in one array of the type of every coefficient
        phase = np.multiply(self.a + half_b, x, dtype=np.result_type(self.a, self.b, self.d, x))
        phase *= x
        phase += self.d * x
        return ChirpStep(grid, self.A, -half_b, phase)


def _at_caustic(beta: float, m: float, t: float) -> bool:
    return abs(beta) * m <= CAUSTIC_EPS * abs(t)


def gaussian_kernel(flow: AffineFlowExact, t: float) -> GaussianKernel:
    """Kernel coefficients from the affine flow at time t.

    Raises CausticSingularity where |beta| m <= CAUSTIC_EPS |t| (beta m/t is 1
    for the free flow): t = 0 and omega t = n pi; OverflowError where beta,
    gamma or a coefficient is not a finite float.  A is on the principal branch,
    with no phase continuation past a caustic; flow.phase(t) is not included.
    """
    alpha, beta, gamma = flow.at(t)
    if _at_caustic(beta, flow.m, t):
        raise CausticSingularity(
            f"beta({t}) = {beta:.3e}; the kernel is singular at this time"
        )
    a = alpha / (2 * beta)
    b = -1.0 / beta
    d = gamma / beta
    amp = 1.0 / cmath.sqrt(2j * math.pi * beta)
    if not all(map(cmath.isfinite, (beta, gamma, a, b, d, amp))):
        raise OverflowError(f"the kernel at t = {t} is beyond the float range")
    return GaussianKernel(a=a, b=b, d=d, A=amp)


def closed_form_kernel(model: str, params: Mapping[str, float], t: float,
                       x_b: float, x_a: float) -> complex:
    """Direct evaluation of the textbook closed-form propagators.

    free:     (m/(2 pi i t))^(1/2) exp{ i m (x_b - x_a)^2 / (2t) }
    harmonic: (m w/(2 pi i sin wt))^(1/2)
              exp{ i m w ((x_b^2 + x_a^2) cos wt - 2 x_b x_a) / (2 sin wt) }
    linear:   (m/(2 pi i t))^(1/2)
              exp{ (i m/(2t)) ((x_b - x_a)^2 + F0 t^2 (x_b + x_a)/m) }

    The harmonic form is the Mehler kernel; its exponent sign is pinned by
    the omega -> 0 free-particle limit.  These must agree with
    gaussian_kernel built from the matching affine flow; the cross-check is
    part of the verification suite.
    """
    m = params["m"]
    if model == "free":
        if _at_caustic(t / m, m, t):
            raise CausticSingularity("free kernel is singular at t = 0")
        amp = cmath.sqrt(m / (2j * math.pi * t))
        return amp * cmath.exp(1j * m * (x_b - x_a) ** 2 / (2 * t))
    if model == "harmonic":
        omega = params["omega"]
        s = math.sin(omega * t)
        if _at_caustic(s / (m * omega), m, t):
            raise CausticSingularity("harmonic kernel is singular at omega t = n pi")
        amp = cmath.sqrt(m * omega / (2j * math.pi * s))
        phase = m * omega * ((x_b * x_b + x_a * x_a) * math.cos(omega * t)
                             - 2 * x_b * x_a) / (2 * s)
        return amp * cmath.exp(1j * phase)
    if model == "linear":
        F0 = params["F0"]
        if _at_caustic(t / m, m, t):
            raise CausticSingularity("linear kernel is singular at t = 0")
        amp = cmath.sqrt(m / (2j * math.pi * t))
        phase = (m / (2 * t)) * ((x_b - x_a) ** 2 + F0 * t * t * (x_b + x_a) / m)
        return amp * cmath.exp(1j * phase)
    raise ValueError(f"unknown model {model!r}")


class WaveFunction:
    """Complex samples, one per point of a uniform grid with n >= 2 and dx > 0.

    Past EDGE_LEAK_WARN of its mass in the 5 outermost samples on either side
    (edge_mass_fraction), quadrature is unreliable and grid evolutions warn.
    """

    __slots__ = ("grid", "samples")

    def __init__(self, grid: UniformGrid, samples):
        import numpy as np

        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.n,) or grid.n < 2 or not grid.dx > 0:
            raise ValueError("a wavefunction needs one sample per point of a grid "
                             "with at least 2 points and dx > 0")
        self.grid = grid
        self.samples = samples

    @property
    def n(self) -> int:
        return self.grid.n

    def points(self) -> np.ndarray:
        return self.grid.points()

    def weights(self) -> np.ndarray:
        import numpy as np

        w = np.full(self.n, self.grid.dx)
        w[0] = w[-1] = self.grid.dx / 2
        return w

    @classmethod
    def gaussian_packet(cls, grid: UniformGrid, center: float = 0.0,
                        width: float = 1.0, momentum: float = 0.0) -> "WaveFunction":
        """Unit-norm packet exp{-(x-c)^2/(2 width^2) + i p (x-c)} / (pi width^2)^(1/4)."""
        import numpy as np

        if not width > 0:
            raise ValueError("width must be positive")
        if width * width == 0:
            raise ValueError(f"width {width:.4g} is too small: its square underflows to 0")
        amplitude = (math.pi * width * width) ** -0.25
        x = grid.points()
        with np.errstate(all="ignore"):  # finite_on_grid, not a warning, reports overflow
            finite_on_grid(momentum * (x - center), "the packet's phase p (x - c)")
            # far from a narrow packet the exponent overflows to -inf: exp gives the right
            # 0; only inf/inf, a NaN exponent, leaves a sample that is not finite
            psi = finite_on_grid(amplitude * np.exp(
                -((x - center) ** 2) / (2 * width * width) + 1j * momentum * (x - center)
            ), "the packet's exponent (x - c)^2/(2 width^2)")
        if amplitude == 0:  # after the grid's checks, which name a NaN exponent first
            raise ValueError(f"width {width:.4g} is too large: pi width^2 overflows")
        return cls(grid, psi)

    # -- integrals --
    def norm(self) -> float:
        import numpy as np

        return math.sqrt(float(np.sum(np.abs(self.samples) ** 2 * self.weights()).real))

    def mean_x(self) -> float:
        import numpy as np

        w = self.weights()
        prob = np.abs(self.samples) ** 2 * w
        return float(np.sum(self.points() * prob) / np.sum(prob))

    def var_x(self) -> float:
        import numpy as np

        w = self.weights()
        prob = np.abs(self.samples) ** 2 * w
        mass = np.sum(prob)
        mx = np.sum(self.points() * prob) / mass
        return float(np.sum((self.points() - mx) ** 2 * prob) / mass)

    def mean_p(self) -> float:
        """<p> by spectral differentiation; accurate for edge-decayed states."""
        import numpy as np

        k = 2 * math.pi * np.fft.fftfreq(self.n, self.grid.dx)
        dpsi = np.fft.ifft(1j * k * np.fft.fft(self.samples))
        w = self.weights()
        num = np.sum(np.conj(self.samples) * (-1j) * dpsi * w)
        den = np.sum(np.abs(self.samples) ** 2 * w)
        return float(num.real / den)

    def edge_mass_fraction(self, samples: int = EDGE_SAMPLES) -> float:
        import numpy as np

        prob = np.abs(self.samples)
        np.square(prob, out=prob)
        total = float(np.sum(prob))
        if total == 0.0:
            return 0.0
        if len(prob) <= 2 * samples:  # every sample is an edge sample, counted once
            return 1.0
        edge = float(np.sum(prob[:samples]) + np.sum(prob[-samples:]))
        return edge / total

    def l2_distance(self, other: "WaveFunction") -> float:
        if other.grid != self.grid:
            raise ValueError("wavefunctions live on different grids")
        import numpy as np

        diff = np.abs(self.samples - other.samples) ** 2 * self.weights()
        return math.sqrt(float(np.sum(diff).real))

    def __repr__(self) -> str:
        return f"WaveFunction({self.grid})"


def check_phase_step(step: float, kernel: str, remedy: str) -> None:
    """The oscillation rule of every grid kernel: its phase may advance at most
    pi/2 between adjacent samples.  Raises GridTooCoarse unless step <= pi/2,
    so a NaN step fails too."""
    if not step <= math.pi / 2:
        raise GridTooCoarse(f"{kernel} phase advances {step:.4g} rad per cell "
                            f"(limit pi/2 = {math.pi / 2:.3f}); {remedy}")


def check_real_force(force: Polynomial) -> None:
    """The one realness rule of a force: no weight of any coefficient may have
    an imaginary part.  Parameters bind to real floats, so such a force is
    real at every binding; any other raises ValueError."""
    if any(q for coeff in force.coeffs.values() for _p, q, _d in coeff.terms.values()):
        raise ValueError("the force has a coefficient with an imaginary part; "
                         "a force must be real")


def finite_on_grid(values: np.ndarray, what: str) -> np.ndarray:
    """values, if all are finite; else OverflowError, where numpy would only
    have warned that what left the float range."""
    import numpy as np

    if not np.isfinite(values).all():
        raise OverflowError(f"{what} on this grid is beyond the float range")
    return values


def warn_on_leak(psi: WaveFunction) -> bool:
    """The leak rule of every grid evolution: whether psi's edge mass fraction
    exceeds EDGE_LEAK_WARN, warned as BoundaryLeak (to the caller's caller)."""
    fraction = psi.edge_mass_fraction()
    if fraction > EDGE_LEAK_WARN:
        warnings.warn(f"edge mass fraction {fraction:.2e} exceeds {EDGE_LEAK_WARN:.0e}; "
                      "results near the boundary are unreliable", BoundaryLeak, stacklevel=3)
    return fraction > EDGE_LEAK_WARN


def evolve_exact(kernel: GaussianKernel, psi: WaveFunction) -> WaveFunction:
    """Apply the kernel by trapezoid quadrature: psi_out(x_b) = sum_a U psi dx,
    as its ChirpStep on psi's grid: by FFT, with no n x n array; deterministic.
    The step writes psi times the weights into its FFT buffer: no psi w array
    is built.  Warns on edge leakage of the result (warn_on_leak)."""
    grid = psi.grid
    # |d(phase)/dx| is at most (2|a| + |b|) |x| + |d| on the grid
    check_phase_step(grid.dx * ((2 * abs(kernel.a) + abs(kernel.b)) * grid.abs_max
                                + abs(kernel.d)),
                     "kernel", "refine dx or shrink the domain")
    out = WaveFunction(grid, kernel.step(grid).operator()(psi.samples, psi.weights()))
    warn_on_leak(out)
    return out
