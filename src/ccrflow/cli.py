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
error (caustic, grid too coarse, non-affine flow, float overflow, a
coefficient too long to print, out of memory).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from contextlib import nullcontext
from fractions import Fraction
from typing import TYPE_CHECKING

from .heisenberg import (
    DEFAULT_ORDER,
    force_for_model,
    generator,
    newtonian_velocity,
    taylor_flow,
)
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
    from .pathint import ConvergenceReport
    from .propagator import AffineFlowExact, UniformGrid, WaveFunction

# The numeric commands import numpy and the numeric modules when they run,
# so normord, comm, series and --help start without them.

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
_PRINT_BITS = 14286  # 2^14285 > 10^4300: a longer number has too many digits to print


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value, offset: int):
        self.kind = kind  # "int" | "name" | one of _SYMBOLS | "end"
        self.value = value
        self.offset = offset


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdigit():
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("int", int(text[start:i]), _byte_offset(text, start)))
        elif ch.isalpha() or ch == "_":
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], _byte_offset(text, start)))
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, _byte_offset(text, start)))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(_Token("end", None, _byte_offset(text, len(text))))
    return tokens


def _shape(e: OpExpr) -> tuple[int, int, int, int]:
    """(degree, highest X power, highest P power, size) of e.  The size counts
    the scalar monomials of all coefficients, each once more for every
    _LIMB_BITS bits of its longest numerator or denominator; it is at least
    1, so that even a product with zero spends budget."""
    degree = x_max = p_max = size = 0
    for (a, b), coeff in e.terms.items():
        degree, x_max, p_max = max(degree, a + b), max(x_max, a), max(p_max, b)
        for bits in coeff.bit_lengths():
            if bits >= _PRINT_BITS:
                raise too_long_to_print()
            size += 1 + bits // _LIMB_BITS
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
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        total = self.term() * sign
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self) -> OpExpr:
        total = self.factor()
        while self.peek().kind == "*":
            star = self.advance()
            total = self.caps.product(total, self.factor(), star.offset)
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


def _format_columns(*columns) -> list[str]:
    """_format_text as a list of lines."""
    return _format_text(*columns).splitlines()


def _open_output(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _write_lines(lines, path: str | None) -> None:
    """Write LF-terminated lines (no lines: one LF), a block at a time so
    the output's size does not set peak memory."""
    with _open_output(path) as fh:
        for start in range(0, len(lines) or 1, _WRITE_BLOCK):
            fh.write("\n".join(lines[start:start + _WRITE_BLOCK]) + "\n")


_KERNEL_HEADER = "x_b,x_a,re,im"


def _kernel_values(kernel, x):
    """kernel(x_b, x_a) at x_b = x[i] (row i) and x_a = x as an n x n array.

    Raises OverflowError where a value is not finite: the phase left the float
    range, which numpy would only have warned of.
    """
    import numpy as np

    values = np.empty((len(x), len(x)), dtype=complex)
    with np.errstate(all="ignore"):
        # Row by row: a 2-D broadcast kernel(x[:, None], x) differs in the last bit.
        for i, x_b in enumerate(x):
            values[i] = kernel(x_b, x)
    if not np.isfinite(values).all():
        raise OverflowError("the kernel phase on this grid is beyond the float range")
    return values


def _kernel_rows_text(values, x_text: list[str], rows: range) -> str:
    """The CSV lines of kernel rows x_b = x[i], i in rows, as one text."""
    block = values[rows.start:rows.stop]
    return _format_text([x_text[i] for i in rows for _ in x_text], x_text * len(rows),
                        block.real.ravel(), block.imag.ravel())


def _kernel_blocks(values, x_text: list[str], rows: range):
    """_kernel_rows_text over rows, about _WRITE_BLOCK lines at a time."""
    step = max(1, _WRITE_BLOCK // len(x_text))
    for start in range(0, len(rows), step):
        yield _kernel_rows_text(values, x_text, rows[start:start + step])


def kernel_csv_lines(kernel, grid: UniformGrid) -> list[str]:
    x = grid.points()
    lines = [_KERNEL_HEADER]
    for block in _kernel_blocks(_kernel_values(kernel, x), _format_columns(x), range(grid.n)):
        lines += block.splitlines()
    return lines


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(values, x_text: list[str], rows: range) -> tuple[int, int]:
    """Fork a process that formats rows, keeps them as bytes and then sends
    them down a pipe; returns its pid and the pipe's read end.

    The child never touches the parent's file objects and always ends in
    os._exit, so it runs no exit handler and flushes nothing it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a multi-threaded process, and
            # numpy's BLAS pool is such a thread; the child only slices the
            # kernel values and formats them, never BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        blocks = [block.encode() for block in _kernel_blocks(values, x_text, rows)]
        with open(write_fd, "wb") as pipe:
            pipe.writelines(blocks)
        status = 0
    finally:
        os._exit(status)


def _write_kernel_csv(values, x, fh) -> None:
    """Write the CSV of the kernel values on grid points x to the text file
    fh a block at a time.

    The rows are split into one contiguous share per usable CPU, but never
    into shares of fewer than _SHARE_MIN_FLOATS floats: forked workers format
    every share but the first, which this process formats and writes before
    it copies the workers' bytes in row order.  The bytes do not depend on
    the split.
    """
    import signal

    x_text = _format_columns(x)
    n = len(x)
    shares = 1
    if hasattr(os, "fork"):
        shares = max(1, min(_usable_cpus(), (2 * n * n + n) // _SHARE_MIN_FLOATS))
    rows = [range(n * k // shares, n * (k + 1) // shares) for k in range(shares)]
    fh.write(_KERNEL_HEADER + "\n")
    fh.flush()
    workers = {}  # pid -> read fd (None once closed), until the worker is reaped
    try:
        for share in rows[1:]:
            pid, read_fd = _fork_worker(values, x_text, share)
            workers[pid] = read_fd
        for block in _kernel_blocks(values, x_text, rows[0]):
            fh.write(block)
        for (pid, read_fd), share in zip(list(workers.items()), rows[1:]):
            lines = 0
            while chunk := os.read(read_fd, 1 << 16):
                lines += chunk.count(b"\n")
                fh.write(chunk.decode("ascii"))
            os.close(read_fd)
            workers[pid] = None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if status or lines != len(share) * n:
                raise ChildProcessError(
                    f"a kernel CSV worker exited with status {status} after "
                    f"{lines} of {len(share) * n} lines")
    finally:
        for pid, read_fd in workers.items():
            if read_fd is not None:
                os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def kernel_coefficient_lines(kernel) -> list[str]:
    """The six complex kernel coefficients (a, b, c, d, e, A) as one CSV row."""
    header = []
    values = []
    for name in ("a", "b", "c", "d", "e", "A"):
        z = complex(getattr(kernel, name))
        header += [f"{name}_re", f"{name}_im"]
        values += [format_float(z.real), format_float(z.imag)]
    return [",".join(header), ",".join(values)]


def wavefunction_csv_lines(psi: WaveFunction) -> list[str]:
    return ["x,re,im"] + _format_columns(psi.points(), psi.samples.real, psi.samples.imag)


def report_csv_lines(report: ConvergenceReport) -> list[str]:
    lines = ["steps,dt,l2_error,ratio"]
    for row in report.rows:
        lines.append(",".join((str(row.steps), format_float(row.dt),
                               format_float(row.l2_error), format_float(row.ratio))))
    return lines


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """float(text) for flags and config values; NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_CONFIG_KEYS = {
    "model": str, "m": _finite_float, "omega": _finite_float, "F0": _finite_float,
    "x_min": _finite_float, "x_max": _finite_float, "n": int,
    "t": _finite_float, "t_total": _finite_float, "steps": int, "order": int,
    "x0": _finite_float, "p0": _finite_float, "sigma": _finite_float,
    "force": str, "convergence": str, "output": str,
}


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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file; flags win."""
    if getattr(args, "config", None) is None:
        return
    file_values = _read_config_file(args.config)
    for key, value in file_values.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _default(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _validated_grid(args: argparse.Namespace) -> UniformGrid:
    from .propagator import UniformGrid

    if args.n < 2:
        raise ValueError("grid needs n >= 2")
    return UniformGrid.from_bounds(args.x_min, args.x_max, args.n)


# --model alias (an AffineFlowExact constructor) -> flags it needs besides --m
_FLOWS = {"free": (), "harmonic": ("omega",), "linear": ("F0",)}


def _flow_from_args(args: argparse.Namespace) -> AffineFlowExact:
    from .propagator import AffineFlowExact

    if args.m is None or not args.m > 0:
        raise ValueError("mass must be given and positive (--m)")
    if args.model not in _FLOWS:
        raise ValueError(f"unknown model {args.model!r}")
    flags = _FLOWS[args.model]
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"{args.model} model needs --{flag}")
    return getattr(AffineFlowExact, args.model)(args.m, *(getattr(args, flag) for flag in flags))


def _packet(args: argparse.Namespace, grid: UniformGrid) -> WaveFunction:
    from .propagator import WaveFunction

    return WaveFunction.gaussian_packet(grid, center=args.x0, width=args.sigma,
                                        momentum=args.p0)


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
    _merge_config(args)
    _require(args, ["model"])
    _default(args, order=DEFAULT_ORDER)
    if args.order < 0:
        raise ValueError("order must be non-negative")
    force = force_for_model(args.model)
    gen = generator(force, newtonian_velocity())
    lines = [f"X(t) model={args.model} order={args.order}"]
    lines += taylor_flow(X, gen, args.order).text_lines()
    lines.append(f"P(t) model={args.model} order={args.order}")
    lines += taylor_flow(P, gen, args.order).text_lines()
    _write_lines(lines, args.output)
    return 0


def _cmd_kernel(args) -> int:
    from .propagator import gaussian_kernel

    _merge_config(args)
    _require(args, ["model", "m", "t", "x_min", "x_max", "n"])
    grid = _validated_grid(args)
    flow = _flow_from_args(args)
    if not args.t > 0:
        raise ValueError("t must be positive")
    kernel = gaussian_kernel(flow, args.t)
    if args.coefficients:
        _write_lines(kernel_coefficient_lines(kernel), args.output)
    else:
        x = grid.points()
        values = _kernel_values(kernel, x)  # raises before the output is opened
        with _open_output(args.output) as fh:
            _write_kernel_csv(values, x, fh)
    return 0


def _cmd_evolve(args) -> int:
    from .propagator import evolve_exact, gaussian_kernel

    _merge_config(args)
    _require(args, ["model", "m", "t", "x_min", "x_max", "n"])
    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    grid = _validated_grid(args)
    flow = _flow_from_args(args)
    if not args.t > 0:
        raise ValueError("t must be positive")
    psi = _packet(args, grid)
    out = evolve_exact(gaussian_kernel(flow, args.t), psi)
    _write_lines(wavefunction_csv_lines(out), args.output)
    return 0


def _cmd_pathint(args) -> int:
    from .pathint import convergence_study, propagate, short_time_matrix

    _merge_config(args)
    _require(args, ["force", "m", "t_total", "x_min", "x_max", "n"])
    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    if not args.m > 0:
        raise ValueError("mass must be positive")
    if not args.t_total > 0:
        raise ValueError("t-total must be positive")
    grid = _validated_grid(args)
    force = _force_polynomial(parse_expression(args.force))
    params = {}
    for name in ("m", "omega", "F0"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    for coeff in force.coeffs.values():
        try:
            coeff.evaluate(params)
        except KeyError as exc:
            raise ValueError(f"force has {exc.args[0]}; only m, omega, F0 bind") from None
    psi = _packet(args, grid)
    if args.convergence:
        n_list = [int(part) for part in args.convergence.split(",") if part.strip()]
        if not n_list:
            raise ValueError("--convergence needs at least one step count")
        report = convergence_study(force, args.m, psi, args.t_total, n_list, params)
        _write_lines(report_csv_lines(report), args.report_output)
        out = report.finest
    else:
        if args.steps is None:
            raise ValueError("need --steps or --convergence")
        if args.steps < 1:
            raise ValueError("--steps must be at least 1")
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


def _add_common_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=tuple(_FLOWS))
    p.add_argument("--m", type=_finite_float)
    p.add_argument("--omega", type=_finite_float)
    p.add_argument("--F0", type=_finite_float)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x-min", dest="x_min", type=_finite_float)
    p.add_argument("--x-max", dest="x_max", type=_finite_float)
    p.add_argument("--n", type=int)


def _add_packet_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=_finite_float)
    p.add_argument("--p0", type=_finite_float)
    p.add_argument("--sigma", type=_finite_float)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ccrflow",
        description="Operator algebra over [X,P]=i, operator flows, Gaussian "
                    "propagators, and a time-sliced grid path integral.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normord", help="print the canonical normal-ordered form")
    p.add_argument("expr")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_normord)

    p = sub.add_parser("comm", help="print the normal-ordered commutator [A, B]")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_comm)

    p = sub.add_parser("series", help="print operator Taylor series X(t), P(t)")
    p.add_argument("--model", choices=tuple(_FLOWS))
    p.add_argument("--order", type=int)
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("kernel", help="CSV of the propagator on a grid")
    _add_common_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--t", type=_finite_float)
    p.add_argument("--coefficients", action="store_true",
                   help="emit the 6 complex kernel coefficients instead")
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("evolve", help="CSV of a packet evolved by the exact kernel")
    _add_common_model_flags(p)
    _add_grid_flags(p)
    _add_packet_flags(p)
    p.add_argument("--t", type=_finite_float)
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("pathint", help="CSV of a packet evolved by kernel chaining")
    p.add_argument("--force", help="force polynomial in X, e.g. \"-4*X\"")
    p.add_argument("--m", type=_finite_float)
    p.add_argument("--omega", type=_finite_float)
    p.add_argument("--F0", type=_finite_float)
    _add_grid_flags(p)
    _add_packet_flags(p)
    p.add_argument("--t-total", dest="t_total", type=_finite_float)
    p.add_argument("--steps", type=int)
    p.add_argument("--convergence", help="comma-separated step counts")
    p.add_argument("--report-output", dest="report_output")
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_pathint)

    p = sub.add_parser("verify", help="run the invariant suite; exit 1 on failure")
    p.add_argument("--output")
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
            return args.func(args)
        except (DomainError, OverflowError, MemoryError) as exc:
            print(f"ccrflow: domain error: {exc}", file=sys.stderr)
            return 3
        except (ExpressionError, ValueError, OSError) as exc:
            print(f"ccrflow: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
