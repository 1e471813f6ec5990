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
from contextlib import nullcontext, suppress
from typing import TYPE_CHECKING

from . import DomainError, ExpressionError, _block, format_float

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .opalg import OpExpr, Polynomial
    from .pathint import ConvergenceReport
    from .propagator import AffineFlowExact, UniformGrid, WaveFunction

# Each command imports the layers it runs when it runs, so --help loads
# none: normord and comm import the parser (expr) and opalg, series opalg
# and heisenberg, and kernel and evolve propagator, which loads numpy only
# where it builds an array (kernel --coefficients never does).  Importing
# csvtext loads numpy, so kernel's CSV, evolve and pathint import it after
# every other ccrflow module they compile.  The numeric commands make no
# BLAS call (FFTs, ufuncs and sums only), so main starts numpy with one
# OpenBLAS thread for them: the pool's idle threads would only spin.  A
# later BLAS or LAPACK user in the library (such as an eigh reference) would
# run on one thread from the CLI too, and must be timed that way.
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
    # n <= 2^22: evolve at n = 2^22 to /dev/null takes 4.9 s and a peak RSS of
    # 770 MiB; at 2^23 (FFT length 2^24), 8.9 s and 1.5 GiB
    "grid FFT length": 1 << 23,
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

def _write_blocks(blocks: Iterable[bytes], path: str | None) -> None:
    """Write the blocks in turn to a new file at path, or to stdout after the
    text it holds.  A raw stdout (PYTHONUNBUFFERED) may take part of a block
    a write; a stdout without bytes (io.StringIO) takes text."""
    if path is None and sys.stdout is None:  # started with stdout closed (>&-)
        raise OSError("stdout is closed")
    with open(path, "wb") if path is not None else nullcontext(sys.stdout) as out:
        out.flush()
        sink = getattr(out, "buffer", out)
        for block in blocks:
            data = block.decode() if isinstance(sink, io.TextIOBase) else memoryview(block)
            while data:
                data = data[sink.write(data):]
            del block, data  # an empty view still holds the block: free it before the next


def _text_lines(blocks: Iterable[bytes]) -> list[str]:
    return [line for block in blocks for line in block.decode().splitlines()]


def kernel_csv_lines(kernel, grid: UniformGrid) -> list[str]:
    """The lines of csvtext.kernel_csv_blocks, split a block at a time."""
    from . import csvtext

    return _text_lines(csvtext.kernel_csv_blocks(csvtext.kernel_step(kernel, grid)))


def kernel_coefficient_lines(kernel) -> list[str]:
    """The kernel's six complex coefficients a, b, c = a, d, e = d, A as one CSV row."""
    coefficients = map(complex, (kernel.a, kernel.b, kernel.a, kernel.d, kernel.d, kernel.A))
    return [",".join(f"{name}_re,{name}_im" for name in "abcdeA"),
            ",".join(format_float(part) for z in coefficients for part in (z.real, z.imag))]


def wavefunction_csv_lines(psi: WaveFunction) -> list[str]:
    from .csvtext import wavefunction_csv_blocks

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
    so a packet the grid's span cuts off is still accepted, but not one that
    leaves no more than the tolerance of it on the grid."""
    from .propagator import GridTooCoarse, WaveFunction
    from . import csvtext  # noqa: F401  (loads numpy: the last import)
    import numpy as np

    psi = WaveFunction.gaussian_packet(grid, center=args.x0, width=args.sigma,
                                       momentum=args.p0)
    lo, hi = ((edge - args.x0) / args.sigma for edge in (grid.x_min, grid.x_max))
    expected = math.sqrt((math.erf(hi) - math.erf(lo)) / 2)
    if expected <= _NORM_TOLERANCE:
        raise DomainError(f"the packet at --x0 {args.x0:.4g} of width {args.sigma:.4g} has a "
                          f"norm of {expected:.2g} on the box [{grid.x_min:.4g}, "
                          f"{grid.x_max:.4g}]; move --x0 into the box or narrow --sigma")
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
                             newtonian_velocity, series_lines, taylor_flow)
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
        from . import csvtext

        step = csvtext.kernel_step(kernel, grid)  # raises before the output is opened
        _write_blocks(csvtext.kernel_csv_blocks(step), args.output)
    return 0


def _cmd_evolve(args) -> int:
    from .propagator import evolve_exact, gaussian_kernel

    _default(args, x0=0.0, p0=0.0, sigma=1.0)
    grid, flow = _grid_and_flow(args)
    kernel = gaussian_kernel(flow, args.t)  # a singular kernel or overflow, then the packet
    _check_cap("grid FFT length", grid.fft_size)
    out = evolve_exact(kernel, _packet(args, grid))
    from .csvtext import wavefunction_csv_blocks  # loaded by _packet

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
    if args.convergence and args.steps is not None:
        raise ValueError("give --steps or --convergence, not both")
    if not args.convergence:
        if args.steps is None:
            raise ValueError("need --steps or --convergence")
        if args.steps < 1:
            raise ValueError("--steps must be at least 1")
    _check_cap("grid FFT length", grid.fft_size)
    _check_cap("pathint steps x FFT length",
               sum(args.convergence or [args.steps]) * grid.fft_size)
    force = _force_polynomial(parse_expression(args.force))
    params = {k: v for k, v in vars(args).items() if k in ("m", "omega", "F0") and v is not None}
    try:  # every force error before the packet, which loads numpy
        force.bind(params)
    except ValueError as exc:  # "force has unbound parameter 'omega'": name the flag it needs
        name = str(exc).partition("unbound parameter ")[2].strip("'")
        if not name:
            raise
        bind = f"give --{name}" if name in ("omega", "F0") else "only m, omega, F0 bind"
        raise ValueError(f"{exc}; {bind}") from None
    psi = _packet(args, grid)
    if args.convergence:
        report = convergence_study(force, args.m, psi, args.t_total, args.convergence, params)
        _write_blocks([_block(report_csv_lines(report))], args.report_output)
        out = report.finest
    else:
        kernel = short_time_matrix(force, args.m, args.t_total / args.steps, grid, params)
        out = propagate(kernel, psi, args.steps)
    from .csvtext import wavefunction_csv_blocks  # loaded by _packet

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
         "convergence": "comma-separated step counts",
         "coefficients": "emit the 6 complex kernel coefficients instead"}


def _add_arguments(p: argparse.ArgumentParser, names: str) -> None:
    """Add the arguments of names, in order: the value flags typed by
    _OPTIONS, the switch --coefficients, and positionals."""
    for name in names.split():
        if name == "coefficients":
            p.add_argument("--coefficients", action="store_true", help=_HELP[name])
        elif name in _OPTIONS:
            p.add_argument("--" + name.replace("_", "-"), type=_OPTIONS[name],
                           choices=tuple(_FLOWS) if name == "model" else None,
                           help=_HELP.get(name))
        else:
            p.add_argument(name)


# subcommand -> (help, handler, its arguments in the order --help lists them)
_COMMANDS = {
    "normord": ("print the canonical normal-ordered form", _cmd_normord, "expr output"),
    "comm": ("print the normal-ordered commutator [A, B]", _cmd_comm,
             "expr_a expr_b output"),
    "series": ("print operator Taylor series X(t), P(t)", _cmd_series,
               "model order config output"),
    "kernel": ("CSV of the propagator on a grid", _cmd_kernel,
               "model m omega F0 x_min x_max n t coefficients config output"),
    "evolve": ("CSV of a packet evolved by the exact kernel", _cmd_evolve,
               "model m omega F0 x_min x_max n x0 p0 sigma t config output"),
    "pathint": ("CSV of a packet evolved by kernel chaining", _cmd_pathint,
                "force m omega F0 x_min x_max n x0 p0 sigma t_total steps convergence "
                "report_output config output"),
    "verify": ("run the invariant suite; exit 1 on failure", _cmd_verify, "output"),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given argv, only the subcommand it
    names first gets its arguments, which is all that parsing argv reads:
    building all seven subcommands' took 1.2 ms a launch, one's 0.6-0.8 ms."""
    parser = _ArgumentParser(
        prog="ccrflow",
        description="Operator algebra over [X,P]=i, operator flows, Gaussian "
                    "propagators, and a time-sliced grid path integral.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((a for a in argv if a in _COMMANDS), "")
    for name, (text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if named in (None, name):
            _add_arguments(p, arguments)
        p.set_defaults(func=handler)
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
            argv = sys.argv[1:] if argv is None else argv
            args = build_parser(argv).parse_args(argv)
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
    run()
