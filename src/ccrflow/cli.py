"""Command-line front end: subcommands, model runs, bit-stable output.

Operator expressions follow the grammar of ccrflow.expr, read by
parse_expression.  CSV convention: header row; complex values as two columns
``re``, ``im``; 17 significant digits in scientific notation; '.' decimal
separator; LF line endings.  Exit codes: 0 success, 1 verification failure,
2 usage or I/O error (such as a broken output pipe), 3 domain error (caustic,
grid too coarse, float overflow, a coefficient too long to print, out of
memory).  ``python -m ccrflow.cli`` and the ``ccrflow`` script enter through
run, which skips the interpreter's teardown; programs call main.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext, suppress
from typing import TYPE_CHECKING

from . import DomainError, ExpressionError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator

    from .opalg import OpExpr, Polynomial
    from .pathint import ConvergenceReport
    from .propagator import AffineFlowExact, UniformGrid, WaveFunction

# Each command imports the layers it runs when it runs, so --help loads
# none: normord and comm import the parser (expr) and opalg, series opalg
# and heisenberg, and kernel and evolve propagator, which loads numpy only
# where it builds an array (kernel --coefficients never does); kernel's
# CSV, evolve and pathint load it through _numpy.  The
# numeric commands make no BLAS call (FFTs, ufuncs and sums only), so main
# starts numpy with one OpenBLAS thread for them: the pool's idle threads
# would only spin.  A later BLAS or LAPACK user in the library (such as an
# eigh reference) would run on one thread from the CLI too, and must be
# timed that way.
_NUMERIC_COMMANDS = ("kernel", "evolve", "pathint", "verify")

__all__ = ["main", "run", "parse_expression", "ExpressionError", "format_float"]


# The work of a command, as counted here, may not pass its cap: a usage
# error, checked before any allocation or loop (times on a 2-vCPU VM).
_WORK_CAPS = {
    "series order": 2048,  # the parser's degree cap; order 2048 takes 0.35 s
    "pathint steps x FFT length": 1 << 28,  # 4-6e-8 s a point: about 10-17 s
    # n^2: 0.9 s at n = 1024 and 2.7 s at 2048 to a file; at 4096, 7 s and
    # 1.6 GB of CSV to /dev/null
    "kernel rows": 1 << 24,
}


def _check_cap(name: str, work: int) -> None:
    if work > _WORK_CAPS[name]:
        raise ValueError(f"{name} {work} exceeds its cap of {_WORK_CAPS[name]}")


def parse_expression(text: str) -> OpExpr:
    """Parse an operator expression (see ccrflow.expr); raises ExpressionError
    with byte offset."""
    from .expr import parse

    return parse(text)


def _force_polynomial(e: OpExpr) -> Polynomial:
    """Interpret a parsed expression as a polynomial in X alone."""
    from .opalg import Polynomial

    coeffs = {}
    for (a, b), coeff in e.terms.items():
        if b:
            raise ExpressionError("force must be a polynomial in X only", 0)
        coeffs[a] = coeff
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_FORMAT_BLOCK = 4096  # floats per csvtext.fields call, so that its temporaries stay small


def format_float(x: float) -> str:
    """17 significant digits, scientific notation: the spec of every CSV float."""
    return "%.16e" % x


def _block(lines: Iterable[str]) -> bytes:
    """LF-terminated lines as one block of bytes (no lines: one LF)."""
    return ("\n".join(lines) + "\n").encode()


def _write_blocks(blocks: Iterable[bytes], path: str | None) -> None:
    """Write the blocks in turn to a new file at path, or to stdout after the
    text it holds.  A raw stdout (PYTHONUNBUFFERED) may take part of a block
    a write; a stdout without bytes (io.StringIO) takes text."""
    if path is None and sys.stdout is None:  # started with stdout closed (>&-)
        raise OSError("stdout is closed")
    with open(path, "wb") if path is not None else nullcontext(sys.stdout) as out:
        out.flush()
        sink = getattr(out, "buffer", out)
        for block in blocks:  # bound while the next is built (kernel_csv_blocks)
            data = block.decode() if isinstance(sink, io.TextIOBase) else memoryview(block)
            while data:
                data = data[sink.write(data):]


def _text_lines(blocks: Iterable[bytes]) -> list[str]:
    return [line for block in blocks for line in block.decode().splitlines()]


def _numpy():
    """numpy, after csvtext, the last ccrflow module a numeric command compiles:
    called where the commands build their first array (_kernel_step, _packet),
    so numpy's import reuses the heap that compiling every ccrflow module freed."""
    from . import csvtext  # noqa: F401
    import numpy

    return numpy


def _kernel_step(kernel, grid: UniformGrid):
    """kernel's ChirpStep on grid, or OverflowError where a value is not finite:
    float rounding is monotone, so |kin| ((n - 1) dx)^2 + 2 max|phase| bounds
    every phase sum that step.rows computes."""
    from .propagator import finite_on_grid

    np = _numpy()
    with np.errstate(all="ignore"):
        step = kernel.step(grid)
        span = grid.dx * (grid.n - 1)
        finite_on_grid(abs(step.kin) * span * span + 2 * np.max(np.abs(step.phase)),
                       "the kernel phase")
    return step


def kernel_csv_blocks(step) -> Iterator[bytes]:
    """The CSV of the kernel step on its grid as byte blocks of about
    _FORMAT_BLOCK floats, each built in one table: no n x n array is held."""
    import numpy as np

    from .csvtext import FIELD, fields, lines

    x_fields = fields(step.grid.points())
    n = len(x_fields)
    per_block = min(n, max(1, _FORMAT_BLOCK // (2 * n)))
    table = np.tile(x_fields[:, None], (per_block, 1, 4, 1))  # x_b, x_a, re, im; x_a set once
    yield b"x_b,x_a,re,im\n"
    for start in range(0, n, per_block):
        rows = table[:n - start]
        rows[:, :, 0] = x_fields[start:start + per_block, None]
        values = step.rows(start, start + len(rows)).view(np.float64)
        rows[:, :, 2:] = fields(values).reshape(len(rows), n, 2, FIELD)
        # the consumer holds a block while the next is built, so malloc keeps
        # its pages (n = 384: 6k minor faults a launch, 17k if it is freed)
        yield lines(rows.reshape(-1, 4 * FIELD))


def kernel_csv_lines(kernel, grid: UniformGrid) -> list[str]:
    """The lines of kernel_csv_blocks, split a block at a time."""
    return _text_lines(kernel_csv_blocks(_kernel_step(kernel, grid)))


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
            # Python >= 3.12 warns on fork in a multi-threaded process, such
            # as a caller's with numpy's BLAS pool; no child calls BLAS.
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


def kernel_coefficient_lines(kernel) -> list[str]:
    """The kernel's six complex coefficients a, b, c = a, d, e = d, A as one CSV row."""
    coefficients = map(complex, (kernel.a, kernel.b, kernel.a, kernel.d, kernel.d, kernel.A))
    return [",".join(f"{name}_re,{name}_im" for name in "abcdeA"),
            ",".join(format_float(part) for z in coefficients for part in (z.real, z.imag))]


def series_lines(series: Iterable[OpExpr]) -> list[str]:
    """One 'k: <c_k>' line per coefficient of an operator series."""
    return [f"{k}: {c.canonical_text()}" for k, c in enumerate(series)]


def wavefunction_csv_blocks(psi: WaveFunction) -> Iterator[bytes]:
    """The CSV of psi as byte blocks of _FORMAT_BLOCK floats."""
    import numpy as np

    from .csvtext import FIELD, fields, lines

    table = np.column_stack((psi.points(), psi.samples.real, psi.samples.imag))
    rows = _FORMAT_BLOCK // 3
    yield b"x,re,im\n"
    for start in range(0, len(table), rows):
        yield lines(fields(table[start:start + rows]).reshape(-1, 3 * FIELD))


def wavefunction_csv_lines(psi: WaveFunction) -> list[str]:
    return _text_lines(wavefunction_csv_blocks(psi))


def report_csv_lines(report: ConvergenceReport) -> list[str]:
    return ["steps,dt,l2_error,ratio"] + [",".join((str(row.steps), *map(format_float, row[1:])))
                                          for row in report.rows]


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
            key, val = key.strip(), val.strip()
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

    np = _numpy()
    psi = WaveFunction.gaussian_packet(grid, center=args.x0, width=args.sigma,
                                       momentum=args.p0)
    lo, hi = ((edge - args.x0) / args.sigma for edge in (grid.x_min, grid.x_max))
    expected = math.sqrt((math.erf(hi) - math.erf(lo)) / 2)
    with np.errstate(over="ignore"):  # a spike on a coarse grid: a norm of inf, reported here
        sampled = psi.norm()
    if not abs(sampled - expected) <= _NORM_TOLERANCE:
        raise GridTooCoarse(f"the packet of width {args.sigma:.4g} has a sampled norm of "
                            f"{sampled:.4g}, not {expected:.4g}; refine dx or widen --sigma")
    return psi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_normord(args) -> int:
    expr = parse_expression(args.expr)
    _write_blocks([_block([expr.canonical_text()])], args.output)
    return 0


def _cmd_comm(args) -> int:
    from .expr import Caps
    from .opalg import commutator

    a = parse_expression(args.expr_a)
    b = parse_expression(args.expr_b)
    caps = Caps()  # the commutator's two products, bounded like the parser's
    caps.charge(a, b, None)
    caps.charge(b, a, None)
    _write_blocks([_block([commutator(a, b).canonical_text()])], args.output)
    return 0


def _cmd_series(args) -> int:
    from .heisenberg import (DEFAULT_ORDER, force_for_model, generator,
                             newtonian_velocity, taylor_flow)
    from .opalg import P, X

    _require(args, ["model"])
    _default(args, order=DEFAULT_ORDER)
    _check_cap("series order", args.order)
    gen = generator(force_for_model(args.model), newtonian_velocity())
    lines = []
    for name, op in (("X", X), ("P", P)):
        lines += [f"{name}(t) model={args.model} order={args.order}",
                  *series_lines(taylor_flow(op, gen, args.order))]
    _write_blocks([_block(lines)], args.output)
    return 0


def _cmd_kernel(args) -> int:
    from .propagator import gaussian_kernel

    grid, flow = _grid_and_flow(args)
    kernel = gaussian_kernel(flow, args.t)
    if args.coefficients:
        _write_blocks([_block(kernel_coefficient_lines(kernel))], args.output)
    else:
        _check_cap("kernel rows", grid.n * grid.n)
        step = _kernel_step(kernel, grid)  # raises before the output is opened
        _write_blocks(kernel_csv_blocks(step), args.output)
    return 0


def _cmd_evolve(args) -> int:
    from .propagator import evolve_exact, gaussian_kernel

    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    grid, flow = _grid_and_flow(args)
    kernel = gaussian_kernel(flow, args.t)  # a caustic or overflow first, then the packet
    out = evolve_exact(kernel, _packet(args, grid))
    _write_blocks(wavefunction_csv_blocks(out), args.output)
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
        _write_blocks([_block(report_csv_lines(report))], args.report_output)
        out = report.finest
    else:
        kernel = short_time_matrix(force, args.m, args.t_total / args.steps, grid, params)
        out = propagate(kernel, psi, args.steps)
    _write_blocks(wavefunction_csv_blocks(out), args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    lines, ok = verify.run_verification()
    _write_blocks([_block(lines)], args.output)
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


def _say(line: str) -> None:
    """Print one line on stderr.  Where stderr is closed (None) or cannot be
    written (fd 2 reused read-only), the exit status is the whole report."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        with suppress(OSError):
            print(line, file=sys.stderr, flush=True)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _say(f"ccrflow: warning: {message}")


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
            _say(f"ccrflow: domain error: {exc}")
            return 3
        except (ExpressionError, ValueError, OSError) as exc:
            _say(f"ccrflow: error: {exc}")
            return 2


def _hooked() -> bool:
    """Whether a trace or profile hook (python -m cProfile, a debugger,
    coverage) watches this process; it may write its report at the end."""
    monitoring = getattr(sys, "monitoring", None)  # Python >= 3.12, tool ids 0-5
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None
            and any(monitoring.get_tool(tool) is not None for tool in range(6)))


def run() -> None:
    """The process entry of ``python -m ccrflow.cli`` and the ccrflow script:
    main, a flush of stdout and stderr, then os._exit with main's status.

    When main returns, every output is written and every file it opened is
    closed, so the interpreter's teardown would only cost time (12-27 ms a
    launch on a 2-vCPU VM); no atexit handler runs.  A failed flush, such as
    EPIPE once the reader has gone, is one error line and exit 2; an exit 2
    or 3 has its line already.  Under a trace or profile hook a clean run
    ends in sys.exit instead, so that the hook can write its report.
    """
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help; any other exception propagates
        status = exc.code
    failed = False
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None where the process started with it closed
                stream.flush()
        except OSError as exc:
            failed = True  # teardown would flush the stream again and report that too
            if status in (0, 1):
                status = 2
                _say(f"ccrflow: error: {exc}")
    if _hooked() and not failed:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    # Under ``python -m ccrflow.cli``, verify's import of ccrflow.cli would
    # otherwise compile and run this file a second time.
    sys.modules.setdefault("ccrflow.cli", sys.modules[__name__])
    run()
