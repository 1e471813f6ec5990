"""Command-line front end: expression parsing, model runs, bit-stable output.

Grammar for operator expressions (whitespace-insensitive)::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' ['+'|'-'] integer]
    primary := rational | '(' rational ',' rational ')'   # (real, imag)
             | 'X' | 'P' | name | '(' expr ')'
    rational := integer ['/' integer]

Products are left-associative and preserve noncommutative order.  Negative
exponents are accepted only on scalar parameter factors (so ``m^-1`` is the
inverse mass); ``X^-1`` and ``P^-1`` are rejected.  Any identifier other than
X and P names a real parameter.  Parentheses nest at most 100 deep.  Every
product is normal-ordered as it is built, so before each '*' and each step of
a '^' the parser bounds the ordered result: its degree, and the term products
the whole expression has spent (see _Caps).

CSV convention: header row; complex values as two columns ``re``, ``im``;
17 significant digits in scientific notation; '.' decimal separator; LF line
endings.  Exit codes: 0 success, 1 verification failure, 2 usage or I/O
error (such as a broken output pipe or a failed kernel CSV worker), 3 domain
error (caustic, grid too coarse, float overflow, a coefficient too long to
print, out of memory).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import warnings
from contextlib import ExitStack, contextmanager, nullcontext
from fractions import Fraction
from typing import TYPE_CHECKING

from .opalg import (
    ONE,
    DomainError,
    OpExpr,
    P,
    Polynomial,
    ScalarCoeff,
    X,
    too_long_to_print,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator

    from .pathint import ConvergenceReport
    from .propagator import AffineFlowExact, UniformGrid, WaveFunction

# Each command imports the modules it needs when it runs: series imports
# heisenberg, and the numeric commands numpy and the numeric modules, so
# normord, comm and --help start with opalg alone.  The numeric commands
# make no BLAS call (FFTs, ufuncs and sums only), so main starts numpy with
# one OpenBLAS thread for them: the pool's idle threads would only spin.  A
# later BLAS or LAPACK user in the library (such as an eigh reference) would
# run on one thread from the CLI too, and must be timed that way.
_NUMERIC_COMMANDS = ("kernel", "evolve", "pathint", "verify")

__all__ = ["main", "parse_expression", "ExpressionError", "format_float"]


class ExpressionError(ValueError):
    """Syntax or semantic error in an operator expression, with byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*/^(),")
_MAX_DEPTH = 100  # nested parentheses; each level costs four Python frames
_MAX_DEGREE = 2048  # of any product: a + b of its X^a P^b
_MAX_PRODUCTS = 65_536  # term products per expression
_LIMB_BITS = 256  # a coefficient counts as one more term per this many bits
_LIMB_NAMES = 8  # and a parameter monomial per this many parameters
_PRINT_BITS = 14286  # 2^14285 > 10^4300: a longer number has too many digits to print
# The work of a command, as counted here, may not pass its cap: a usage
# error, checked before any allocation, fork or loop (times on a 2-vCPU VM).
_WORK_CAPS = {
    "series order": _MAX_DEGREE,  # order 2048 takes 0.35 s
    "pathint steps x FFT length": 1 << 28,  # 4-6e-8 s a point: about 10-17 s
    "kernel rows": 1 << 24,  # n^2: 1.7 s at n = 1024, 5 s at 2048, 1.6 GB of CSV at 4096
}


def _check_cap(name: str, work: int) -> None:
    if work > _WORK_CAPS[name]:
        raise ValueError(f"{name} {work} exceeds its cap of {_WORK_CAPS[name]}")


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value, offset: int):
        self.kind = kind  # "int" | "name" | one of _SYMBOLS | "end"
        self.value = value
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = offset = 0  # offset: the UTF-8 length of text[:i]
    while i < len(text):
        ch = text[i]
        start = i
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # what int() reads; a digit such as '²' is not
            while i < len(text) and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ExpressionError(f"integer of more than {sys.get_int_max_str_digits()} "
                                      "digits", offset) from None
            tokens.append(_Token("int", value, offset))
        elif ch.isalpha() or ch == "_":
            while i < len(text) and (text[i].isalpha() or text[i].isdecimal()
                                     or text[i] == "_"):  # not '²' or '½'
                i += 1
            tokens.append(_Token("name", text[start:i], offset))
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, offset))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", offset)
        offset += len(text[start:i].encode("utf-8"))
    tokens.append(_Token("end", None, offset))
    return tokens


def _shape(e: OpExpr) -> tuple[int, int, int, int]:
    """(degree, highest X power, highest P power, size) of e.  The size counts
    the scalar monomials of all coefficients, each once more for every
    _LIMB_BITS bits of its longest numerator or denominator and for every
    _LIMB_NAMES parameters it holds; it is at least 1, so that even a
    product with zero spends budget."""
    degree = x_max = p_max = size = 0
    for (a, b), coeff in e.terms.items():
        degree, x_max, p_max = max(degree, a + b), max(x_max, a), max(p_max, b)
        for names, bits in coeff.monomial_sizes():
            if bits >= _PRINT_BITS:
                raise too_long_to_print()
            size += 1 + bits // _LIMB_BITS + names // _LIMB_NAMES
    return degree, x_max, p_max, max(size, 1)


class _Caps:
    """Bounds the ordered result of each product before it is built.

    Its degree may not exceed _MAX_DEGREE, and all products together may not
    spend more than _MAX_PRODUCTS term products.  a * b spends
    size(a) * size(b) * (1 + overlap) * (1 + weight_bits // _LIMB_BITS):
    overlap = min(highest P power of a, highest X power of b) bounds the
    extra terms the CCR adds per pair, and weight_bits, overlap times the
    bit length of the larger of the two powers, scales with the longest CCR
    weight C(b, r) c!/(c-r)!.  A factor with a coefficient too long to print
    ends the parse as a domain error, the one its printing would raise.
    """

    def __init__(self):
        self.spent = 0

    def product(self, a: OpExpr, b: OpExpr, offset: int | None) -> OpExpr:
        deg_a, _, p_a, size_a = _shape(a)
        deg_b, x_b, _, size_b = _shape(b)
        overlap = min(p_a, x_b)
        weight_bits = overlap * max(p_a, x_b).bit_length()
        self.spent += size_a * size_b * (1 + overlap) * (1 + weight_bits // _LIMB_BITS)
        if deg_a + deg_b > _MAX_DEGREE:
            message = f"product of degree {deg_a + deg_b} exceeds {_MAX_DEGREE}"
        elif self.spent > _MAX_PRODUCTS:
            message = f"more than {_MAX_PRODUCTS} term products"
        else:
            return a * b
        raise ValueError(message) if offset is None else ExpressionError(message, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.caps = _Caps()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}", tok.offset)
        return self.advance()

    def parse(self) -> OpExpr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError("trailing input", tok.offset)
        return e

    def expr(self) -> OpExpr:
        parts = []
        while not parts or self.peek().kind in ("+", "-"):
            sign = 1
            if self.peek().kind in ("+", "-"):
                sign = -1 if self.advance().kind == "-" else 1
            parts.append((sign, self.term()))
        return OpExpr.signed_sum(parts)

    def term(self) -> OpExpr:
        total = self.factor()
        while self.peek().kind == "*":
            star = self.advance()
            total = self.caps.product(total, self.factor(), star.offset)
        if self.peek().kind == "/":  # rational() reads the '/' of a literal such as 3/2
            raise ExpressionError("'/' divides integer literals only", self.peek().offset)
        return total

    def factor(self) -> OpExpr:
        base = self.primary()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        exponent = sign * self.expect("int").value
        if exponent < 0:
            scalar = _as_scalar_monomial(base)
            if scalar is None:
                raise ExpressionError("negative powers unsupported in words", caret.offset)
            base = OpExpr.scalar(scalar.inverse())
        power = ONE
        for _ in range(abs(exponent)):
            power = self.caps.product(power, base, caret.offset)
        return power

    def primary(self) -> OpExpr:
        tok = self.peek()
        if tok.kind == "int":
            return OpExpr.scalar(self.rational())
        if tok.kind == "name":
            self.advance()
            if tok.value == "X":
                return X
            if tok.value == "P":
                return P
            return OpExpr.scalar(ScalarCoeff.param(tok.value))
        if tok.kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ExpressionError(
                    f"parentheses nested deeper than {_MAX_DEPTH}", tok.offset)
            self.advance()
            saved = self.pos
            try:
                re = self.signed_rational()
                if self.peek().kind == ",":
                    self.advance()
                    im = self.signed_rational()
                    self.expect(")")
                    return OpExpr.scalar(ScalarCoeff.rational(re, im))
            except ExpressionError:
                pass
            self.pos = saved
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ExpressionError("expected a coefficient, X, P, or '('", tok.offset)

    def rational(self) -> Fraction:
        num = self.expect("int").value
        if self.peek().kind == "/":
            self.advance()
            den = self.expect("int").value
            if den == 0:
                raise ExpressionError("zero denominator", self.tokens[self.pos - 1].offset)
            return Fraction(num, den)
        return Fraction(num)

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        return sign * self.rational()


def _as_scalar_monomial(e: OpExpr) -> ScalarCoeff | None:
    if set(e.terms) <= {(0, 0)}:
        coeff = e.terms.get((0, 0), ScalarCoeff.zero())
        if coeff.is_single_monomial():
            return coeff
    return None


def parse_expression(text: str) -> OpExpr:
    """Parse an operator expression; raises ExpressionError with byte offset."""
    return _Parser(text).parse()


def _force_polynomial(e: OpExpr) -> Polynomial:
    """Interpret a parsed expression as a polynomial in X alone."""
    coeffs = {}
    for (a, b), coeff in e.terms.items():
        if b:
            raise ExpressionError("force must be a polynomial in X only", 0)
        coeffs[a] = coeff
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_FLOAT_FORMAT = "%.16e"
_WRITE_BLOCK = 4096  # lines per write
# Formatted floats each share of the kernel CSV's rows must hold for the
# rows to be split across CPUs (2n^2 + n floats make two shares first at
# n = 181).  Measured on a 2-vCPU VM: a worker costs 2-3 ms (fork, pipe,
# reap), formatting 2^15 floats about 40 ms, and two shares break even
# with one at about 2^13 floats (n = 64), so each share pays for its fork
# several times over.
_SHARE_MIN_FLOATS = 1 << 15


def format_float(x: float) -> str:
    """17 significant digits, scientific notation."""
    return _FLOAT_FORMAT % x


def _format_text(*columns) -> str:
    """One LF-terminated CSV line per index: a list column holds text, written
    as it is, and any other column floats, through the format_float spec.

    A single ``%`` over the whole block keeps Python's per-value work to the
    float formatting itself; the bytes equal joining format_float per row.
    """
    width = len(columns)
    values = [None] * (width * len(columns[0]))
    for k, column in enumerate(columns):
        values[k::width] = column if isinstance(column, list) else column.tolist()
    template = ",".join("%s" if isinstance(column, list) else _FLOAT_FORMAT
                        for column in columns) + "\n"
    return template * len(columns[0]) % tuple(values)


def _open_output(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _write_lines(lines, path: str | None) -> None:
    """Write LF-terminated lines (no lines: one LF), a block at a time so
    the output's size does not set peak memory."""
    with _open_output(path) as fh:
        for start in range(0, len(lines) or 1, _WRITE_BLOCK):
            fh.write("\n".join(lines[start:start + _WRITE_BLOCK]) + "\n")


_KERNEL_HEADER = "x_b,x_a,re,im"


def _kernel_step(kernel, grid: UniformGrid):
    """kernel's ChirpStep on grid, or OverflowError where a value is not finite:
    float rounding is monotone, so |kin| ((n - 1) dx)^2 + 2 max|phase| bounds
    every phase sum that step.rows computes."""
    import numpy as np

    from .propagator import finite_on_grid

    with np.errstate(all="ignore"):
        step = kernel.step(grid)
        span = grid.dx * (grid.n - 1)
        finite_on_grid(abs(step.kin) * span * span + 2 * np.max(np.abs(step.phase)),
                       "the kernel phase")
    return step


def _kernel_rows_text(step, x_text: list[str], rows: range) -> str:
    """The CSV lines of kernel rows x_b = x[i], i in rows, as one text."""
    block = step.rows(rows.start, rows.stop)
    return _format_text([x_text[i] for i in rows for _ in x_text], x_text * len(rows),
                        block.real.ravel(), block.imag.ravel())


def _kernel_blocks(step, x_text: list[str], rows: range):
    """_kernel_rows_text over rows, about _WRITE_BLOCK lines at a time."""
    per_block = max(1, _WRITE_BLOCK // len(x_text))
    for start in range(0, len(rows), per_block):
        yield _kernel_rows_text(step, x_text, rows[start:start + per_block])


def kernel_csv_lines(kernel, grid: UniformGrid) -> list[str]:
    """The lines _write_kernel_csv writes for kernel on grid."""
    text = io.StringIO()
    _write_kernel_csv(_kernel_step(kernel, grid), text)
    return text.getvalue().splitlines()


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _forked(produce: Callable[[], Iterable[bytes]]) -> Iterator[Iterator[bytes]]:
    """Fork a child that calls produce() and sends the bytes objects it
    yields down a pipe; yields an iterator over the pipe, 64 KiB a read.

    The child keeps the bytes until produce has finished, so it never waits
    on a parent that is busy elsewhere.  It never touches the parent's file
    objects and always ends in os._exit, with status 0 only after the last
    byte is written, so it runs no exit handler and flushes nothing it
    inherited.  Once the iterator is used up it reaps the child, and a
    nonzero exit status raises ChildProcessError(status).  Leaving the block
    any other way closes the pipe, then kills and reaps the child.  Where
    os.fork fails (at a process limit) the block gets iter(produce()) from
    this process instead: the fork only buys speed.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a multi-threaded process.  From
            # the CLI numpy has one BLAS thread (or is not loaded yet), but an
            # in-process caller may have loaded numpy earlier with its pool;
            # no child calls BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException as exc:
        os.close(read_fd)
        os.close(write_fd)
        if not isinstance(exc, OSError):
            raise
        pid = None
    if pid is None:
        yield iter(produce())
        return
    if not pid:
        status = 1
        try:
            os.close(read_fd)
            blocks = list(produce())
            with open(write_fd, "wb") as pipe:
                pipe.writelines(blocks)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reaped = False

    def chunks():
        nonlocal reaped
        while chunk := os.read(read_fd, 1 << 16):
            yield chunk
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True  # only now: an interrupted waitpid leaves the child to the finally
        if status:
            raise ChildProcessError(status)

    try:
        yield chunks()
    finally:
        os.close(read_fd)
        if not reaped:
            import signal  # only here: a run that kills no child never loads it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_kernel_csv(step, fh) -> None:
    """Write the CSV of the kernel step on its grid to the text file fh a
    block at a time.

    The rows are split into one contiguous share per usable CPU, but never
    into shares of fewer than _SHARE_MIN_FLOATS floats.  Forked workers build
    and format every share but the first, a block of rows at a time; this
    process does the first, then copies their bytes in row order.  The bytes
    do not depend on the split.
    """
    x_text = _format_text(step.grid.points()).splitlines()
    n = len(x_text)
    shares = max(1, min(_usable_cpus(), (2 * n * n + n) // _SHARE_MIN_FLOATS))
    rows = [range(n * k // shares, n * (k + 1) // shares) for k in range(shares)]
    fh.write(_KERNEL_HEADER + "\n")
    fh.flush()
    with ExitStack() as stack:
        children = [stack.enter_context(_forked(
                        lambda rows=share: map(str.encode, _kernel_blocks(step, x_text, rows))))
                    for share in rows[1:]]
        for block in _kernel_blocks(step, x_text, rows[0]):
            fh.write(block)
        for share, chunks in zip(rows[1:], children):
            lines = status = 0
            try:
                for chunk in chunks:
                    lines += chunk.count(b"\n")
                    fh.write(chunk.decode("ascii"))
            except ChildProcessError as exc:
                status = exc.args[0]
            if status or lines != len(share) * n:
                raise ChildProcessError(
                    f"a kernel CSV worker exited with status {status} after "
                    f"{lines} of {len(share) * n} lines")


def kernel_coefficient_lines(kernel) -> list[str]:
    """The kernel's six complex coefficients a, b, c = a, d, e = d, A as one CSV row."""
    header = []
    values = []
    coefficients = kernel.a, kernel.b, kernel.a, kernel.d, kernel.d, kernel.A
    for name, z in zip("abcdeA", map(complex, coefficients)):
        header += [f"{name}_re", f"{name}_im"]
        values += [format_float(z.real), format_float(z.imag)]
    return [",".join(header), ",".join(values)]


def series_lines(series: Iterable[OpExpr]) -> list[str]:
    """One 'k: <c_k>' line per coefficient of an operator series."""
    return [f"{k}: {c.canonical_text()}" for k, c in enumerate(series)]


def wavefunction_csv_lines(psi: WaveFunction) -> list[str]:
    columns = psi.points(), psi.samples.real, psi.samples.imag
    return ["x,re,im"] + _format_text(*columns).splitlines()


def report_csv_lines(report: ConvergenceReport) -> list[str]:
    lines = ["steps,dt,l2_error,ratio"]
    for row in report.rows:
        lines.append(",".join((str(row.steps), format_float(row.dt),
                               format_float(row.l2_error), format_float(row.ratio))))
    return lines


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _step_counts(text: str) -> list[int]:
    """--convergence: comma-separated step counts, each at least 1, increasing."""
    try:
        steps = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        steps = []
    if not steps or steps[0] < 1 or steps != sorted(set(steps)):
        raise argparse.ArgumentTypeError(
            f"expected increasing positive step counts, got {text!r}")
    return steps


def _finite_float(text: str) -> float:
    """float(text) for flags and config values; NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# Every value option by its dest, the flag --dest with '_' spelled '-', and
# the type that reads the flag and its config key.  A config file names no
# other config file, and report_output is a flag only.
_OPTIONS = {
    "model": str, "m": _finite_float, "omega": _finite_float, "F0": _finite_float,
    "x_min": _finite_float, "x_max": _finite_float, "n": int,
    "t": _finite_float, "t_total": _finite_float, "steps": int, "order": int,
    "x0": _finite_float, "p0": _finite_float, "sigma": _finite_float,
    "force": str, "convergence": _step_counts, "output": str,
    "report_output": str, "config": str,
}
_FLAG_ONLY = ("report_output", "config")


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _OPTIONS or key in _FLAG_ONLY:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _OPTIONS[key](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _default(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config file, if one is given; flags win."""
    if getattr(args, "config", None) is not None:
        _default(args, **_read_config_file(args.config))


# --model alias (an AffineFlowExact constructor) -> flags it needs besides --m
_FLOWS = {"free": (), "harmonic": ("omega",), "linear": ("F0",)}


def _grid_and_flow(args: argparse.Namespace) -> tuple[UniformGrid, AffineFlowExact]:
    """The grid and flow of kernel and evolve, after the checks they share."""
    from .propagator import AffineFlowExact, UniformGrid

    _require(args, ["model", "m", "t", "x_min", "x_max", "n"])
    grid = UniformGrid.from_bounds(args.x_min, args.x_max, args.n)
    if not args.m > 0:
        raise ValueError("mass must be given and positive (--m)")
    if args.model not in _FLOWS:
        raise ValueError(f"unknown model {args.model!r}")
    flags = _FLOWS[args.model]
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"{args.model} model needs --{flag}")
    flow = getattr(AffineFlowExact, args.model)(args.m, *(getattr(args, flag) for flag in flags))
    if not args.t > 0:
        raise ValueError("t must be positive")
    return grid, flow


_NORM_TOLERANCE = 1e-3  # of a packet's sampled norm


def _packet(args: argparse.Namespace, grid: UniformGrid) -> WaveFunction:
    """The Gaussian packet of --x0, --p0 and --sigma on grid, if its samples
    hold its norm on [x_min, x_max]: a packet narrower than a cell falls
    between the points, or spikes on one.  That norm, not 1, is the reference,
    so a packet the grid's span cuts off is still accepted."""
    from .propagator import GridTooCoarse, WaveFunction

    psi = WaveFunction.gaussian_packet(grid, center=args.x0, width=args.sigma,
                                       momentum=args.p0)
    lo, hi = ((edge - args.x0) / args.sigma for edge in (grid.x_min, grid.x_max))
    expected, sampled = math.sqrt((math.erf(hi) - math.erf(lo)) / 2), psi.norm()
    if not abs(sampled - expected) <= _NORM_TOLERANCE:
        raise GridTooCoarse(f"the packet of width {args.sigma:.4g} has a sampled norm of "
                            f"{sampled:.4g}, not {expected:.4g}; refine dx or widen --sigma")
    return psi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_normord(args) -> int:
    expr = parse_expression(args.expr)
    _write_lines([expr.canonical_text()], args.output)
    return 0


def _cmd_comm(args) -> int:
    a = parse_expression(args.expr_a)
    b = parse_expression(args.expr_b)
    caps = _Caps()  # the commutator's two products, bounded like the parser's
    _write_lines([(caps.product(a, b, None) - caps.product(b, a, None)).canonical_text()],
                 args.output)
    return 0


def _cmd_series(args) -> int:
    from .heisenberg import (DEFAULT_ORDER, force_for_model, generator,
                             newtonian_velocity, taylor_flow)

    _require(args, ["model"])
    _default(args, order=DEFAULT_ORDER)
    _check_cap("series order", args.order)
    force = force_for_model(args.model)
    gen = generator(force, newtonian_velocity())
    lines = [f"X(t) model={args.model} order={args.order}"]
    lines += series_lines(taylor_flow(X, gen, args.order))
    lines.append(f"P(t) model={args.model} order={args.order}")
    lines += series_lines(taylor_flow(P, gen, args.order))
    _write_lines(lines, args.output)
    return 0


def _cmd_kernel(args) -> int:
    from .propagator import gaussian_kernel

    grid, flow = _grid_and_flow(args)
    kernel = gaussian_kernel(flow, args.t)
    if args.coefficients:
        _write_lines(kernel_coefficient_lines(kernel), args.output)
    else:
        _check_cap("kernel rows", grid.n * grid.n)
        step = _kernel_step(kernel, grid)  # raises before the output is opened
        with _open_output(args.output) as fh:
            _write_kernel_csv(step, fh)
    return 0


def _cmd_evolve(args) -> int:
    from .propagator import evolve_exact, gaussian_kernel

    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    grid, flow = _grid_and_flow(args)
    kernel = gaussian_kernel(flow, args.t)  # a caustic or overflow first, then the packet
    out = evolve_exact(kernel, _packet(args, grid))
    _write_lines(wavefunction_csv_lines(out), args.output)
    return 0


def _cmd_pathint(args) -> int:
    from .pathint import convergence_study, propagate, short_time_matrix
    from .propagator import UniformGrid

    _require(args, ["force", "m", "t_total", "x_min", "x_max", "n"])
    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    if not args.m > 0:
        raise ValueError("mass must be positive")
    if not args.t_total > 0:
        raise ValueError("t-total must be positive")
    grid = UniformGrid.from_bounds(args.x_min, args.x_max, args.n)
    if not args.convergence:
        if args.steps is None:
            raise ValueError("need --steps or --convergence")
        if args.steps < 1:
            raise ValueError("--steps must be at least 1")
    _check_cap("pathint steps x FFT length",
               sum(args.convergence or [args.steps]) * grid.fft_size)
    force = _force_polynomial(parse_expression(args.force))
    params = {}
    for name in ("m", "omega", "F0"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    for coeff in force.coeffs.values():
        try:
            finite = math.isfinite(abs(coeff.evaluate(params)))
        except KeyError as exc:
            raise ValueError(f"force has {exc.args[0]}; only m, omega, F0 bind") from None
        except (ZeroDivisionError, OverflowError):  # omega^-1 at --omega 0, F0^-2 at 1e-200
            finite = False
        if not finite:
            raise OverflowError(f"force coefficient {coeff.text()} is beyond the float "
                                "range at the given parameters")
    psi = _packet(args, grid)
    if args.convergence:
        report = convergence_study(force, args.m, psi, args.t_total, args.convergence, params)
        _write_lines(report_csv_lines(report), args.report_output)
        out = report.finest
    else:
        kernel = short_time_matrix(force, args.m, args.t_total / args.steps, grid, params)
        out = propagate(kernel, psi, args.steps)
    _write_lines(wavefunction_csv_lines(out), args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    lines, ok = verify.run_verification()
    _write_lines(lines, args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors end in main as one 'ccrflow: error:' line and exit 2.

    An argument with one leading '-' is an option only if it is one exactly
    (``-h``); otherwise it is a value, such as the expression ``-2*X`` or the
    number ``-1e1`` (argparse's own pattern admits only ``-1`` and ``-1.5``).
    Subparsers are built from this class, so every subcommand inherits both.
    """

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


_HELP = {"force": 'force polynomial in X, e.g. "-4*X"',
         "convergence": "comma-separated step counts"}


def _add_options(p: argparse.ArgumentParser, names: str) -> None:
    """Add the value flags of names, in order, typed by _OPTIONS."""
    for name in names.split():
        p.add_argument("--" + name.replace("_", "-"), type=_OPTIONS[name],
                       choices=tuple(_FLOWS) if name == "model" else None,
                       help=_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ccrflow",
        description="Operator algebra over [X,P]=i, operator flows, Gaussian "
                    "propagators, and a time-sliced grid path integral.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normord", help="print the canonical normal-ordered form")
    p.add_argument("expr")
    _add_options(p, "output")
    p.set_defaults(func=_cmd_normord)

    p = sub.add_parser("comm", help="print the normal-ordered commutator [A, B]")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    _add_options(p, "output")
    p.set_defaults(func=_cmd_comm)

    p = sub.add_parser("series", help="print operator Taylor series X(t), P(t)")
    _add_options(p, "model order config output")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("kernel", help="CSV of the propagator on a grid")
    _add_options(p, "model m omega F0 x_min x_max n t")
    p.add_argument("--coefficients", action="store_true",
                   help="emit the 6 complex kernel coefficients instead")
    _add_options(p, "config output")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("evolve", help="CSV of a packet evolved by the exact kernel")
    _add_options(p, "model m omega F0 x_min x_max n x0 p0 sigma t config output")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("pathint", help="CSV of a packet evolved by kernel chaining")
    _add_options(p, "force m omega F0 x_min x_max n x0 p0 sigma t_total steps convergence "
                    "report_output config output")
    p.set_defaults(func=_cmd_pathint)

    p = sub.add_parser("verify", help="run the invariant suite; exit 1 on failure")
    _add_options(p, "output")
    p.set_defaults(func=_cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"ccrflow: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # the library warns with the source line; the CLI prints one line each
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(argv)
            _merge_config(args)
            if args.command in _NUMERIC_COMMANDS and "numpy" not in sys.modules:
                os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # a user's value wins
            return args.func(args)
        except (DomainError, OverflowError, MemoryError) as exc:
            print(f"ccrflow: domain error: {exc}", file=sys.stderr)
            return 3
        except (ExpressionError, ValueError, OSError) as exc:
            print(f"ccrflow: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    # Under ``python -m ccrflow.cli``, verify's import of ccrflow.cli would
    # otherwise compile and run this file a second time.
    sys.modules.setdefault("ccrflow.cli", sys.modules[__name__])
    sys.exit(main())
