"""Self-contained invariant suite behind the ``verify`` subcommand.

Every check is deterministic (fixed seeds, fixed grids), so two consecutive
runs produce byte-identical reports.  Returns one pass/fail line per check
plus a final summary; any failure, or a check that raises, flips the exit
status.

Checks 1-4 are exact algebra and need no numpy; checks 5-8 import the
numeric modules when they run, so importing this module loads no numpy.
_run_split forks a child that runs checks 1-4 while this process imports
numpy and runs checks 5-8; where os.fork is missing or fails, every check
runs here, in order.  The child is reaped once its results are read, and
killed and reaped if this process stops first; a child that exits nonzero
fails each of its checks with its status.  The report is the same bytes
either way.

On a 2-vCPU VM checks 1-4 take 85-110 ms and the numpy import plus checks
5-8 113-128 ms (medians of 21 fresh processes, two series each), so the
numeric half is the critical path.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import warnings
from itertools import zip_longest

from . import _block
from .heisenberg import (
    commutator_series,
    force_for_model,
    generator,
    newtonian_velocity,
    series_lines,
    taylor_flow,
    time_derivative,
)
from .opalg import (
    OpExpr,
    P,
    Polynomial,
    ScalarCoeff,
    X,
    apply_to_polynomial,
    commutator,
)

__all__ = ["run_verification"]

_I = ScalarCoeff.imag_unit()

HARMONIC_TYPO_NOTE = (
    "note: harmonic X(t) carries P0 * sin(omega t)/(m omega); the variant "
    "denominator m omega^2 is dimensionally inconsistent and breaks "
    "order-by-order preservation of [X(t), P(t)] = i, so check 4 rejects it."
)


def _random_scalar(rng: random.Random) -> ScalarCoeff:
    """p/d + i q/e from four draws, with the canonical weight (p e, q d, d e)/gcd."""
    p, d, q, e = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
    g = math.gcd(p * e, q * d, d * e)
    return ScalarCoeff({(): (p * e // g, q * d // g, d * e // g)})


def _random_polynomial(rng: random.Random, max_degree: int = 8) -> Polynomial:
    """A draw per degree below the top one keeps that degree with chance 0.7."""
    degree = rng.randint(0, max_degree)
    return Polynomial({k: _random_scalar(rng) for k in range(degree + 1)
                       if rng.random() >= 0.3 or k == degree})


def _random_words(rng: random.Random, max_words: int = 4,
                  max_len: int = 6) -> list[tuple[str, ScalarCoeff]]:
    return [("".join(rng.choice("XP") for _ in range(rng.randint(0, max_len))),
             _random_scalar(rng))
            for _ in range(rng.randint(1, max_words))]


def _letter_action(words: list[tuple[str, ScalarCoeff]], q: Polynomial) -> Polynomial:
    """Act with each word on q one letter at a time, rightmost first:
    X multiplies by x, P applies -i d/dx in one pass."""
    total = Polynomial.zero()
    for word, coeff in words:
        r = q
        for letter in reversed(word):
            r = r.shift_up() if letter == "X" else r._scaled((0, -1, 1), 1)
        total = total + r * coeff
    return total


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_derivative_rules() -> tuple[bool, str]:
    """[O(X), P] = i O'(X) and [O(P), X] = -i O'(P), exactly."""
    rng = random.Random(1101)
    trials = 200
    for _ in range(trials):
        q = _random_polynomial(rng)  # _scaled((0, +-1, 1), 1) is +-i times the derivative
        if commutator(q.as_opexpr("X"), P) != q._scaled((0, 1, 1), 1).as_opexpr("X"):
            return False, "failed on a polynomial in X"
        if commutator(q.as_opexpr("P"), X) != q._scaled((0, -1, 1), 1).as_opexpr("P"):
            return False, "failed on a polynomial in P"
    return True, f"{trials} polynomial pairs, both rules exact"


def _check_oracle() -> tuple[bool, str]:
    """Words acting letter by letter and their ordered product act alike."""
    rng = random.Random(1102)
    trials = 500
    for _ in range(trials):
        words = _random_words(rng)
        q = _random_polynomial(rng)
        e = sum((OpExpr.word(word, coeff) for word, coeff in words), OpExpr.zero())
        if _letter_action(words, q) != apply_to_polynomial(e, q):
            return False, "letter-by-letter and ordered actions differ"
    return True, f"{trials} expressions, action equality exact"


def _symmetrized_forms(n: int) -> tuple[OpExpr, OpExpr, OpExpr]:
    """dX^n/dt from the left-commuted, right-commuted and generator forms.

    Writing dX^n/dt = (1/m) sum_j X^j P X^(n-1-j) and moving every P to the
    left (right) gives the two one-sided forms below; the cross terms are
    [X^j, P X^(n-1-j)] = [X^j, P] X^(n-1-j), and their average cancels them.
    """
    inv_m = ScalarCoeff.param("m", -1)
    xn = X ** n
    cross = OpExpr.zero()
    for j in range(1, n):
        cross = cross + commutator(X ** j, P * X ** (n - 1 - j))
    left = (((-_I) * (P * commutator(xn, P))) + cross) * inv_m
    right = (((-_I) * (commutator(xn, P) * P)) - cross) * inv_m
    gen = generator(force_for_model("free"), newtonian_velocity())
    via_generator = time_derivative(xn, gen)
    return left, right, via_generator


def _check_symmetrization() -> tuple[bool, str]:
    for n in range(1, 9):
        left, right, via_gen = _symmetrized_forms(n)
        if not (left == right == via_gen):
            return False, f"forms disagree at n={n}"
    return True, "n = 1..8, left/right/generator forms all equal"


def _harmonic_closed_series(order: int) -> list[OpExpr]:
    """Taylor coefficients of X cos(wt) + P sin(wt)/(m w) in the t^k/k! basis."""
    # (-1)^(k//2) X omega^k for even k, (-1)^(k//2) P omega^(k-1)/m for odd k
    return [(P * ScalarCoeff.param("m", -1) if k % 2 else X)
            * (ScalarCoeff.param("omega", k - k % 2) * (-1) ** (k // 2))
            for k in range(order + 1)]


def _ccr_series_ok(model: str, order: int) -> bool:
    gen = generator(force_for_model(model), newtonian_velocity())
    xs = taylor_flow(X, gen, order)
    ps = taylor_flow(P, gen, order)
    comm = commutator_series(xs, ps)
    if comm[0] != OpExpr.scalar(_I):
        return False
    return all(c.is_zero for c in comm[1:])


def _check_flow_correctness() -> tuple[bool, str]:
    order = 12
    gen = generator(force_for_model("harmonic"), newtonian_velocity())
    flow = taylor_flow(X, gen, order)
    closed = _harmonic_closed_series(order)
    for got, want in zip(flow, closed):
        if got != want:
            return False, "harmonic series does not match the closed form"
    for model in ("free", "harmonic", "linear"):
        if not _ccr_series_ok(model, order):
            return False, f"[X(t), P(t)] != i for the {model} flow"
    # the mistyped variant with sin(wt)/(m omega^2) must fail CCR preservation
    x0, p1, x2 = closed[:3]
    variant = [x0, p1 * ScalarCoeff.param("omega", -1), x2]
    bad = commutator_series(variant, taylor_flow(P, gen, 2))
    if all(c.is_zero for c in bad[1:]):
        return False, "the m omega^2 variant unexpectedly preserved the CCR"
    return True, ("harmonic series exact to order 12; CCR preserved for free, "
                  "harmonic, linear; m omega^2 variant rejected")


def _check_propagator_anchors() -> tuple[bool, str]:
    from .propagator import AffineFlowExact, closed_form_kernel, gaussian_kernel

    rng = random.Random(1105)
    worst = 0.0
    cases = {
        "free": (AffineFlowExact.free(1.3), {"m": 1.3}),
        "harmonic": (AffineFlowExact.harmonic(1.3, 0.9), {"m": 1.3, "omega": 0.9}),
        "linear": (AffineFlowExact.linear(1.3, 1.7), {"m": 1.3, "F0": 1.7}),
    }
    for model, (flow, params) in cases.items():
        for _ in range(1000):
            if model == "harmonic":
                t = rng.uniform(0.1, 3.0) / params["omega"]
            else:
                t = rng.uniform(0.1, 5.0)
            xb = rng.uniform(-3.0, 3.0)
            xa = rng.uniform(-3.0, 3.0)
            built = gaussian_kernel(flow, t)(xb, xa)
            printed = closed_form_kernel(model, params, t, xb, xa)
            rel = abs(built - printed) / abs(printed)
            worst = max(worst, rel)
            if rel > 1e-12:
                return False, f"{model} kernels disagree (rel {rel:.1e})"
    # harmonic -> free limit at omega t = 1e-4
    m, t = 1.3, 0.7
    omega = 1e-4 / t
    limit_worst = 0.0
    for xb, xa in ((0.3, -0.8), (1.5, 1.1), (-2.0, 0.4)):
        h = closed_form_kernel("harmonic", {"m": m, "omega": omega}, t, xb, xa)
        f = closed_form_kernel("free", {"m": m}, t, xb, xa)
        limit_worst = max(limit_worst, abs(h - f) / abs(f))
    if limit_worst > 1e-6:
        return False, f"harmonic->free limit off (rel {limit_worst:.1e})"
    return True, (f"3000 random points, max rel diff {worst:.1e}; "
                  f"omega->0 limit rel diff {limit_worst:.1e}")


def _check_wavepackets() -> tuple[bool, str]:
    from .propagator import (AffineFlowExact, UniformGrid, WaveFunction, evolve_exact,
                             gaussian_kernel)

    # free-particle spreading
    grid = UniformGrid.from_bounds(-7.0, 7.0, 1024)
    psi = WaveFunction.gaussian_packet(grid, width=1.0)
    out = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 1.0), psi)
    width = math.sqrt(2 * out.var_x())
    spread_err = abs(width / math.sqrt(2.0) - 1.0)
    norm_err = abs(out.norm() - 1.0)
    # harmonic Ehrenfest at omega t = pi/2
    grid = UniformGrid.from_bounds(-5.8, 5.8, 1024)
    psi = WaveFunction.gaussian_packet(grid, center=1.0, width=1.0, momentum=0.5)
    out = evolve_exact(
        gaussian_kernel(AffineFlowExact.harmonic(1.0, 1.0), math.pi / 2), psi)
    harm_err = max(abs(out.mean_x() - 0.5), abs(out.mean_p() + 1.0))
    # linear Ehrenfest
    grid = UniformGrid.from_bounds(-7.0, 7.0, 1024)
    psi = WaveFunction.gaussian_packet(grid, center=0.1, width=1.0, momentum=-0.4)
    out = evolve_exact(gaussian_kernel(AffineFlowExact.linear(1.0, 0.8), 1.0), psi)
    lin_err = abs(out.mean_x() - (0.1 - 0.4 + 0.4))
    ok = (spread_err <= 1e-6 and harm_err <= 1e-6 and lin_err <= 1e-6
          and norm_err <= 1e-6)
    return ok, (f"spreading rel err {spread_err:.1e}; harmonic ehrenfest err "
                f"{harm_err:.1e}; linear ehrenfest err {lin_err:.1e}; "
                f"norm err {norm_err:.1e}")


def _check_pathint_convergence() -> tuple[bool, str]:
    from .pathint import convergence_study
    from .propagator import UniformGrid, WaveFunction

    cases = [  # name, grid, packet, force, m, t, step counts
        # harmonic: coherent packet, m=4, omega=1, t=3
        ("harmonic", (-2.55, 2.55, 896), {"center": 0.3, "width": 0.5},
         Polynomial.monomial(1, ScalarCoeff.rational(-4)), 4.0, 3.0, [5, 10, 20, 40]),
        # linear: m=1, F0=0.8, t=1, drift-free packet
        ("linear", (-6.0, 6.0, 768), {"center": 0.1, "width": 1.0, "momentum": -0.4},
         Polynomial.monomial(0, ScalarCoeff.rational(4) / 5), 1.0, 1.0, [1, 2, 4, 8]),
    ]
    summaries = []
    ok = True
    for name, bounds, packet, force, m, t, steps in cases:
        psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(*bounds), **packet)
        report = convergence_study(force, m, psi, t, steps)
        ratios = [row.ratio for row in report.rows[1:]]
        errors = [row.l2_error for row in report.rows]
        ok &= all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        ok &= all(3.2 <= r <= 4.8 for r in ratios)
        ok &= errors[-1] < 1e-3
        summaries.append(f"{name} final {errors[-1]:.1e} ratios ["
                         + ",".join(f"{r:.2f}" for r in ratios) + "]")
    return bool(ok), "; ".join(summaries)


def _check_report_determinism() -> tuple[bool, str]:
    from .csvtext import kernel_csv_blocks, kernel_step, wavefunction_csv_blocks
    from .propagator import (AffineFlowExact, UniformGrid, WaveFunction, evolve_exact,
                             gaussian_kernel)

    def pipeline():
        """The blocks the kernel, evolve and series commands write for a run."""
        grid = UniformGrid.from_bounds(-2.0, 2.0, 64)
        kernel = gaussian_kernel(AffineFlowExact.free(1.0), 1.0)
        yield from kernel_csv_blocks(kernel_step(kernel, grid))
        psi = WaveFunction.gaussian_packet(UniformGrid.from_bounds(-6.0, 6.0, 256))
        out = evolve_exact(gaussian_kernel(AffineFlowExact.free(1.0), 0.5), psi)
        yield from wavefunction_csv_blocks(out)
        gen = generator(force_for_model("harmonic"), newtonian_velocity())
        yield _block(series_lines(taylor_flow(X, gen, 6)))

    size = 0
    for a, b in zip_longest(pipeline(), pipeline()):  # in lockstep: neither run is held
        if a != b:
            return False, "repeated pipelines produced different bytes"
        size += len(a)
    return True, f"byte-identical output on repeated runs ({size} bytes)"


_CHECKS = [
    ("1 derivative-rules", _check_derivative_rules),
    ("2 oracle-equivalence", _check_oracle),
    ("3 heisenberg-symmetrization", _check_symmetrization),
    ("4 flow-correctness", _check_flow_correctness),
    ("5 propagator-anchors", _check_propagator_anchors),
    ("6 wavepacket-physics", _check_wavepackets),
    ("7 pathint-convergence", _check_pathint_convergence),
    ("8 report-determinism", _check_report_determinism),
]


# _CHECKS[:_EXACT_CHECKS] are exact algebra and never import numpy
_EXACT_CHECKS = 4


def _run_check(check) -> tuple[bool, str]:
    """check()'s (ok, detail); an exception fails the check and is named."""
    try:
        ok, detail = check()
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"
    return bool(ok), detail


def _run_checks(checks) -> list[tuple[bool, str]]:
    return [_run_check(check) for _name, check in checks]


def _run_numeric(numeric) -> list[tuple[bool, str]]:
    """_run_checks(numeric), with numpy loaded after every ccrflow module they
    compile: pathint loads opalg and propagator, and csvtext, last, numpy."""
    from . import pathint  # noqa: F401
    from . import csvtext  # noqa: F401

    return _run_checks(numeric)


def _run_split(exact, numeric) -> list[tuple[bool, str]]:
    """The results of the exact and the numeric checks, in order (see above).

    The child sends one marshal blob down a pipe and ends in os._exit, with
    status 0 only after its last byte is written, so it runs no exit handler
    and flushes nothing it inherited.  A fork that fails (at a process limit)
    only costs speed.
    """
    if not hasattr(os, "fork"):
        return _run_checks(exact) + _run_numeric(numeric)
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a multi-threaded process, such
            # as a caller's with numpy's BLAS pool; the child calls no BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException as exc:
        os.close(read_fd)
        os.close(write_fd)
        if isinstance(exc, OSError):
            return _run_checks(exact) + _run_numeric(numeric)
        raise
    if not pid:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_run_checks(exact)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        tail = _run_numeric(numeric)
        # opened only now: a file object held through checks 5-8 cost 0.1 MiB of peak RSS
        with open(read_fd, "rb", closefd=False) as pipe:
            blob = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        import signal  # only here: a run that kills no child never loads it

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(read_fd)
    if status:
        return [(False, f"its process exited with status {status} before it "
                        "reported")] * len(exact) + tail
    return marshal.loads(blob) + tail


def run_verification() -> tuple[list[str], bool]:
    """Run every check; returns (report lines, all passed).

    The checks run in two processes where this one can fork, else in this
    one; the report is the same either way.
    """
    checks = list(_CHECKS)
    results = _run_split(checks[:_EXACT_CHECKS], checks[_EXACT_CHECKS:])
    lines = ["ccrflow verification suite"]
    passed = 0
    for (name, _check), (ok, detail) in zip(checks, results):
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if name.startswith("4"):
            lines.append(HARMONIC_TYPO_NOTE)
        passed += ok
    total = len(checks)
    lines.append(f"result: {'PASS' if passed == total else 'FAIL'} "
                 f"({passed}/{total} checks)")
    return lines, passed == total
