"""The exact bytes of ``format_float`` (``'%.16e' % v``) for float64 arrays,
formatted by numpy, and the kernel and wavefunction CSV blocks made of them.

Only the numeric commands import this module.  Importing it loads numpy, so
a numeric entry imports it after every other ccrflow module it compiles.  A
value v with |v| = d.ddddddddddddddddd x 10^e prints its 17 digits
N = round(|v| 10^(16-e)), 10^16 <= N < 10^17, rounded half to even from the
exact binary value.  The scaled value S = |v| 10^(16-e) is computed as P + L:
the power 10^(16-e) as a double-double hi + lo built from exact integers,
P = fl(|v| hi), and L = (|v| hi - P) + |v| lo, where |v| hi - P is exact by
Dekker's product (T. J. Dekker, Numer. Math. 18, 224 (1971)).  Since
10^16 > 2^53, P is an integer and N = P + rint(L).  Where the kernel cannot
prove N (|v| outside [_LOW, _HIGH], NaN, or L within _MARGIN of a rounding
boundary) the field comes from format_float itself, which stays the spec.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from . import format_float

# Where |v| lies in [_LOW, _HIGH], every power 10^(16-e) and every partial
# product of Dekker's product is a normal double, so the products are exact.
_LOW, _HIGH = 1e-200, 1e200
# The computed L is within about 5e-15 of S - P (|S| < 1.1e17, unit roundoff
# u = 2^-53: hi + lo is within u^2 hi of the power, a lo and the sum
# err + a lo round by at most u^2 S and u |L| <= 21 u), so below 1e-14 of a
# unit of N.  A value whose L lies within _MARGIN of a half-integer is left to
# format_float; any other value rounds the same way as its exact S.  An exact
# integer S (a short decimal such as a grid point -6.0) is no rounding
# decision, so it needs no margin.
_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves

# Floats per fields call and per kernel CSV block: at 2,048 the table (50
# bytes a float), its byte copy and each fields array stay under malloc's
# 128 KiB mmap and trim threshold, so kernel --n 1024 takes 4.5k minor faults
# a launch and --n 2048 4.6k, against 33.6k and 121k at 4,096 floats.
_FORMAT_BLOCK = 2048

FIELD = 25  # bytes per field: up to 24 of text, NUL-padded, then ','
# '-'|NUL, 'd.', 16 digits, 'e+dd', third exponent digit|NUL, ','
_LAYOUT = np.dtype({"names": ["sign", "lead", "digits", "exponent", "tail"],
                    "formats": ["u1", "<u2", ("<u4", 4), "<u4", "<u2"],
                    "offsets": [0, 1, 3, 19, 23], "itemsize": FIELD})
_LEADS = (np.arange(ord("0"), ord("9") + 1) | ord(".") << 8).astype("<u2")  # 'd.'
_QUADS = sum((np.arange(10000) // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
             for k in range(4)).astype("<u4")  # '0000' ... '9999'
_EXPONENTS = range(-201, 201)  # every final e of a value in [_LOW, _HIGH]
_HEADS = np.array([int.from_bytes(f"e{e:+03d}"[:4].encode(), "little") for e in _EXPONENTS],
                  "<u4")
_TAILS = np.array([(ord(",") << 8) | (ord(str(abs(e))[-1]) if abs(e) >= 100 else 0)
                   for e in _EXPONENTS], "<u2")


@lru_cache(maxsize=None)
def _power(p: int) -> tuple[float, float]:
    """10^p as hi + lo: hi = fl(10^p) and lo = fl(10^p - hi), from exact integers."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@lru_cache(maxsize=256)
def _powers(first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """_power(16 - e) for e = first..last as an array of his and one of los."""
    his, los = zip(*(_power(16 - k) for k in range(first, last + 1)))
    return np.array(his), np.array(los)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - e) as P + L, P = fl(a hi) (see the module docstring)."""
    first = int(e.min())
    his, los = _powers(first, int(e.max()))
    index = e - first
    hi = his[index]
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * hi
    h_hi = c - (c - hi)
    h_lo = hi - h_hi
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    return p, err + a * los[index]


def fields(values) -> np.ndarray:
    """The (len, FIELD) uint8 matrix whose row k is format_float(values[k])
    followed by ',' at byte FIELD - 1, NUL-padded in between."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    proven = (a >= _LOW) & (a <= _HIGH)
    a[~proven] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, rest = _scaled(a, e)
    # log10 may be one off next to a power of ten: move e by the unrounded S.
    # Where S lies within the error of 10^16 or 10^17 either e prints the
    # same bytes, since 10 S or S / 10 then rounds to the carry below.
    low = (p - 1e16) + rest < 0
    high = (p - 1e17) + rest >= 0
    moved = np.flatnonzero(low | high)
    if moved.size:
        e[moved] += high[moved].astype(np.int64) - low[moved]
        p[moved], rest[moved] = _scaled(a[moved], e[moved])
    step = np.rint(rest)
    proven &= np.abs(rest - step) < 0.5 - _MARGIN
    n = p.astype(np.int64) + step.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    del a, p, rest, step, low, high  # the digits need only v, e, n and proven: a lower peak

    out = np.empty(len(v), _LAYOUT)
    out["sign"] = np.signbit(v) * np.uint8(ord("-"))
    high9 = n // 10 ** 8  # a floor-divide and a product: np.divmod costs about three
    low8 = n - high9 * 10 ** 8
    lead = high9 // 10 ** 8
    high8 = high9 - lead * 10 ** 8
    del n, high9
    out["lead"] = np.take(_LEADS, lead)
    quads = np.empty((len(v), 4), np.int64)
    quads[:, 0] = high8 // 10 ** 4
    quads[:, 1] = high8 - quads[:, 0] * 10 ** 4
    quads[:, 2] = low8 // 10 ** 4
    quads[:, 3] = low8 - quads[:, 2] * 10 ** 4
    out["digits"] = np.take(_QUADS, quads)
    e -= _EXPONENTS.start
    # rows left to format_float may be anywhere (np.clip checks its bounds in Python)
    np.minimum(np.maximum(e, 0, out=e), len(_EXPONENTS) - 1, out=e)
    out["exponent"] = np.take(_HEADS, e)
    out["tail"] = np.take(_TAILS, e)

    text = out.view(np.uint8).reshape(len(v), FIELD)
    left = np.flatnonzero(~proven)
    if left.size:
        spec = [format_float(x).encode() for x in v[left].tolist()]
        text[left, :FIELD - 1] = np.array(spec, dtype=f"S{FIELD - 1}").view(np.uint8).reshape(
            left.size, FIELD - 1)
    return text


def lines(table: np.ndarray) -> bytes:
    """The CSV lines of a uint8 field matrix with one row per line: its NULs
    dropped and each row's last ',' made an LF, in place."""
    table[:, -1] = ord("\n")
    return table.tobytes().replace(b"\0", b"")


def kernel_step(kernel, grid):
    """kernel's ChirpStep on grid, or OverflowError where a value is not finite:
    float rounding is monotone, so |kin| ((n - 1) dx)^2 + 2 max|phase| bounds
    every phase sum that step.rows computes."""
    from .propagator import finite_on_grid

    with np.errstate(all="ignore"):
        step = kernel.step(grid)
        span = grid.dx * (grid.n - 1)
        finite_on_grid(abs(step.kin) * span * span + 2 * np.max(np.abs(step.phase)),
                       "the kernel phase")
    return step


def kernel_csv_blocks(step) -> Iterator[bytes]:
    """The CSV of the kernel step on its grid as byte blocks of at most
    _FORMAT_BLOCK floats, each built in one table: no n x n array is held.  A
    block holds whole rows where a row fits in it, else a range of one row."""
    x_fields = fields(step.grid.points())
    n = len(x_fields)
    width = min(n, _FORMAT_BLOCK // 2)  # entries of a row in a block
    height = min(n, max(1, _FORMAT_BLOCK // (2 * n)))  # rows in a block
    # x_b, x_a, re, im; x_a set once where a block holds whole rows
    table = np.tile(x_fields[:width, None], (height, 1, 4, 1))
    yield b"x_b,x_a,re,im\n"
    for start in range(0, n, height):
        for first in range(0, n, width):
            rows = table[:n - start, :n - first]  # contiguous: a split row is alone
            rows[:, :, 0] = x_fields[start:start + height, None]
            if width < n:
                rows[:, :, 1] = x_fields[first:first + width]
            values = step.rows(start, start + len(rows), slice(first, first + width))
            rows[:, :, 2:] = fields(values.view(np.float64)).reshape(*rows.shape[:2], 2, FIELD)
            # a block under 128 KiB refaults nothing, whether the consumer holds it
            # while the next is built or frees it (n = 384: 4.5k and 4.4k minor faults)
            yield lines(rows.reshape(-1, 4 * FIELD))


def wavefunction_csv_blocks(psi) -> Iterator[bytes]:
    """The CSV of psi as byte blocks of _FORMAT_BLOCK floats, each stacked alone."""
    x, rows = psi.points(), _FORMAT_BLOCK // 3
    yield b"x,re,im\n"
    for start in range(0, len(x), rows):
        z = psi.samples[start:start + rows]
        yield lines(fields(np.column_stack((x[start:start + rows], z.real, z.imag)))
                    .reshape(-1, 3 * FIELD))
