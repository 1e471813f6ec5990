"""The vectorized CSV float kernel against its spec, format_float."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ccrflow.csvtext as csvtext
from ccrflow.cli import format_float, kernel_csv_lines
from ccrflow.csvtext import fields, lines
from ccrflow.propagator import AffineFlowExact, UniformGrid, gaussian_kernel

_RNG_SEED = 19


def _text(values: np.ndarray) -> str:
    return "".join(lines(fields(values[start:start + 65536])).decode("ascii")
                   for start in range(0, len(values), 65536))


def _spec(values: np.ndarray) -> str:
    return "".join(format_float(v) + "\n" for v in values.tolist())


def _powers_of_ten() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _samples(kind: str) -> np.ndarray:
    rng = np.random.default_rng([_RNG_SEED, len(kind)])
    if kind == "random-bits":  # every finite class, and NaN and inf patterns
        return rng.integers(0, 1 << 64, 600_000, dtype=np.uint64).view(np.float64)
    if kind == "subnormals":
        bits = rng.integers(1, 1 << 52, 50_000, dtype=np.uint64)
        return (bits | (rng.integers(0, 2, 50_000, dtype=np.uint64) << np.uint64(63))).view(
            np.float64)
    if kind == "zeros":
        return np.array([0.0, -0.0])
    if kind == "powers-of-ten":
        return _powers_of_ten()
    if kind == "dyadic":  # m 2^-k; 2^-25 = 2.98023223876953125e-08 is an exact tie
        odd = rng.integers(0, 1 << 52, 150_000) * 2 + 1
        shifts = rng.integers(0, 1075, 150_000)
        small = np.array([m * 2.0 ** -k for m in range(1, 100, 2) for k in range(0, 1075, 3)])
        return np.concatenate([np.ldexp(odd.astype(np.float64), -shifts), small, -small])
    if kind == "half-integers":  # exact below 2^53, rounded to even integers from 1e16
        return np.concatenate([np.arange(-50_000, 50_000) + 0.5,
                               2.0 ** 52 + np.arange(100_000) + 0.5,
                               1e16 + 2.0 * np.arange(100_000) + 0.5,
                               np.array([float(10 ** k + 1) + 0.5 for k in range(16, 40)])])
    if kind == "bounds":  # the edges of the proven range, both sides
        edges = np.array([1e-200, 1e200])
        swept = edges * (1 + np.linspace(-1e-12, 1e-12, 2001)[:, None])
        near = np.concatenate([swept.ravel(), np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                               np.nextafter(np.nextafter(edges, 0), 0)])
        return np.concatenate([near, -near])
    if kind == "carry":  # rounds up into the next power of ten
        return np.array([9.99999999999999999e16, 1e-14, 1e-79, 1e-176, -1e-305])
    if kind == "kernel-like":
        return rng.uniform(-1, 1, 200_000) * 10.0 ** rng.integers(-20, 21, 200_000)
    raise ValueError(kind)


_KINDS = ("random-bits", "subnormals", "zeros", "powers-of-ten", "dyadic", "half-integers",
          "bounds", "carry", "kernel-like")


def test_samples_cover_a_million_values_and_a_carry():
    assert sum(len(_samples(kind)) for kind in _KINDS) >= 1_000_000
    carried = [v for v in _samples("carry")
               if abs(Fraction(v)) < Fraction(10) ** int(format_float(v).split("e")[1])
               and format_float(abs(v)).startswith("1.0000000000000000e")]
    assert len(carried) >= 4  # 1e-14 is a double below 10^-14, printed as 10^-14


@pytest.mark.parametrize("kind", _KINDS)
def test_fields_are_the_bytes_of_format_float(kind):
    values = _samples(kind)
    assert _text(values) == _spec(values)


def test_every_value_through_the_fallback_gives_the_same_bytes(monkeypatch):
    values = np.concatenate([_samples(kind)[:3000] for kind in _KINDS])
    calls = []
    monkeypatch.setattr(csvtext, "format_float", lambda v: calls.append(v) or format_float(v))
    monkeypatch.setattr(csvtext, "_LOW", math.inf)
    assert _text(values) == _spec(values)
    assert len(calls) == len(values)


def test_values_near_a_rounding_boundary_go_to_format_float(monkeypatch):
    # with a margin of 1/4 unit, about half of all values are near a boundary
    values = _samples("kernel-like")[:20_000]
    calls = []
    monkeypatch.setattr(csvtext, "format_float", lambda v: calls.append(v) or format_float(v))
    monkeypatch.setattr(csvtext, "_MARGIN", 0.25)
    assert _text(values) == _spec(values)
    assert 0.45 < len(calls) / len(values) < 0.55


def test_readme_kernel_values_take_the_fast_path(monkeypatch):
    # ccrflow kernel --model free --m 1 --t 1 --x-min -5 --x-max 5 --n 1024
    def fallback(value):
        raise AssertionError(f"{value!r} left the fast path")

    monkeypatch.setattr(csvtext, "format_float", fallback)
    csv = kernel_csv_lines(gaussian_kernel(AffineFlowExact.free(1.0), 1.0),
                           UniformGrid.from_bounds(-5.0, 5.0, 1024))
    assert len(csv) == 1 + 1024 * 1024
    assert csv[1].startswith("-5.0000000000000000e+00,-5.0000000000000000e+00,")


def test_kernel_step_rejects_a_phase_beyond_the_float_range():
    # finite coefficients, but b x^2 overflows on the grid: every row would be nan
    kernel = gaussian_kernel(AffineFlowExact.free(1e290), 1e-10)
    grid = UniformGrid.from_bounds(-1e10, 1e10, 200)
    with pytest.raises(OverflowError, match="the kernel phase"):
        csvtext.kernel_step(kernel, grid)
    step = csvtext.kernel_step(gaussian_kernel(AffineFlowExact.free(1.0), 1.0),
                               UniformGrid.from_bounds(-1.0, 1.0, 4))
    assert step.grid.n == 4


def test_lines_join_fields_and_end_each_row_with_lf():
    values = np.array([[1.0, -2.5e-300], [np.nan, 1e100]])
    table = fields(values).reshape(2, -1)
    assert lines(table) == (b"1.0000000000000000e+00,-2.5000000000000000e-300\n"
                            b"nan,1.0000000000000000e+100\n")
    # one matrix, its last column made LFs in place; a second call is the same
    assert set(table[:, -1].tolist()) == {ord("\n")}
    assert lines(table) == lines(fields(values).reshape(2, -1))
