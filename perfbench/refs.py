"""Reference checkers for ccrflow CLI output.

Nothing here imports ccrflow: every reference is derived again from the
physics or from the printed text.

* ``evolve`` and affine ``pathint`` output: closed-form Gaussian packets,
  moved by the classical linear map of the free, harmonic or constant-force
  flow; compared up to a global phase, which the kernel leaves open.
* non-affine ``pathint`` output: sinc-DVR grid Hamiltonian (Colbert and
  Miller 1992) propagated with ``numpy.linalg.eigh``.
* ``kernel`` CSV: the textbook closed-form propagators on every row.
* ``normord``, ``comm``, ``series``: the printed text is parsed here and
  must act like the input on polynomials, with X as multiplication by x and
  P as -i d/dx, in exact complex rationals.
* ``verify``: the report must end in ``result: PASS (8/8 checks)``.
"""

from __future__ import annotations

import cmath
import io
import math
import random
from fractions import Fraction

import numpy as np

EDGE_SAMPLES = 5

# Tolerances against the references (relative L2; largest relative row error
# for kernels), with the largest error seen over seeds 1-10 in brackets.  The
# time-sliced chain has an O(dt^2) error, so its bounds are loose; evolve's
# quadrature is exact to rounding for packets clear of the box edges.
TOL_EVOLVE = 1e-10  # [4e-14]
TOL_PATHINT_AFFINE = 2e-3  # [2.7e-4]
TOL_PATHINT_DVR = 5e-3  # [3.3e-4]
TOL_KERNEL = 1e-9  # [8.5e-14]


class CheckFailed(Exception):
    """The output is malformed or disagrees with its reference."""


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------

def affine_map(flow: dict, t: float) -> tuple[tuple, tuple]:
    """Classical linear map (x, p) -> (a x + b p + gx, c x + d p + gp)."""
    m = flow["m"]
    if flow["model"] == "harmonic":
        w = flow["omega"]
        c, s = math.cos(w * t), math.sin(w * t)
        return (c, s / (m * w), -m * w * s, c), (0.0, 0.0)
    if flow["model"] == "free":
        return (1.0, t / m, 0.0, 1.0), (0.0, 0.0)
    if flow["model"] == "linear":
        f0 = flow["F0"]
        return (1.0, t / m, 0.0, 1.0), (f0 * t * t / (2 * m), f0 * t)
    raise ValueError(f"no affine map for model {flow['model']!r}")


def initial_state(x: np.ndarray, packet: dict) -> np.ndarray:
    return gaussian_state(x, packet, ((1.0, 0.0, 0.0, 1.0), (0.0, 0.0)))


def gaussian_state(x: np.ndarray, packet: dict, amap: tuple) -> np.ndarray:
    """The packet exp(-(x-x0)^2/2s^2 + i p0 (x-x0)) moved by an affine map.

    The complex width z = i/s^2 transforms as z -> (c + d z)/(a + b z) and the
    centre follows the classical orbit; the result is exact up to a global
    phase.
    """
    (a, b, c, d), (gx, gp) = amap
    x0, p0, s = packet["x0"], packet["p0"], packet["sigma"]
    z0 = 1j / (s * s)
    den = a + b * z0
    z = (c + d * z0) / den
    xc = a * x0 + b * p0 + gx
    pc = c * x0 + d * p0 + gp
    amp = (math.pi * s * s) ** -0.25 / cmath.sqrt(den)
    u = x - xc
    return amp * np.exp(1j * (0.5 * z * u * u + pc * u))


def edge_mass_fraction(psi: np.ndarray) -> float:
    prob = np.abs(psi) ** 2
    return float((prob[:EDGE_SAMPLES].sum() + prob[-EDGE_SAMPLES:].sum()) / prob.sum())


def force_values(force: str, x: np.ndarray) -> np.ndarray:
    """A force polynomial in X, as the CLI accepts it, evaluated on x."""
    return sum(c * x ** k for k, c in _force_coefficients(force).items()) + 0 * x


def dvr_state(x: np.ndarray, m: float, force: str, packet: dict, t: float) -> np.ndarray:
    """exp(-iHt) psi0 for H = p^2/2m + V on the grid, V = -int F dx."""
    n = x.size
    dx = x[1] - x[0]
    k = np.arange(n)
    diff = k[:, None] - k[None, :]
    with np.errstate(divide="ignore"):
        kin = np.where(diff == 0, math.pi ** 2 / 3,
                       2.0 * (-1.0) ** diff / np.where(diff == 0, 1, diff) ** 2)
    v = -sum(c * x ** (k + 1) / (k + 1) for k, c in _force_coefficients(force).items())
    h = kin / (2 * m * dx * dx) + np.diag(v + 0 * x)
    energies, vectors = np.linalg.eigh(h)
    psi0 = initial_state(x, packet)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.T @ psi0))


def phase_free_error(out: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 distance after removing the best global phase."""
    overlap = np.vdot(ref, out)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(out - phase * ref) / np.linalg.norm(ref))


def _lines(data: bytes) -> list[str]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"output is not ASCII: {exc}") from None
    if not text.endswith("\n") or "\r" in text:
        raise CheckFailed("output must end in LF and use LF line endings")
    return text[:-1].split("\n")


def _table(rows: list[str], columns: int, finite: int | None = None) -> np.ndarray:
    """Parse CSV rows; the first ``finite`` columns (default all) must be finite."""
    try:
        table = np.loadtxt(io.StringIO("\n".join(rows)), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"unparseable CSV: {exc}") from None
    if table.shape[1] != columns or not np.all(np.isfinite(table[:, :finite])):
        raise CheckFailed("CSV rows have the wrong width or non-finite values")
    return table


def _check_grid(xs: np.ndarray, grid: list) -> np.ndarray:
    x_min, x_max, n = grid
    x = x_min + (x_max - x_min) / (n - 1) * np.arange(n)
    if xs.shape != x.shape or np.max(np.abs(xs - x)) > 1e-12 * max(1.0, abs(x_min), abs(x_max)):
        raise CheckFailed("x column does not match the grid")
    return x


def check_wavefunction(data: bytes, job: dict) -> float:
    """Check ``evolve`` or ``pathint`` stdout; returns the relative L2 error."""
    lines = _lines(data)
    try:
        start = lines.index("x,re,im")
    except ValueError:
        raise CheckFailed("no 'x,re,im' header") from None
    if job["kind"] != "evolve" and job["convergence"]:
        _check_report(lines[:start], job)
    elif start != 0:
        raise CheckFailed("unexpected text before the CSV header")
    table = _table(lines[start + 1:], 3)
    x = _check_grid(table[:, 0], job["grid"])
    out = table[:, 1] + 1j * table[:, 2]
    if job["kind"] == "pathint-dvr":
        ref = dvr_state(x, job["m"], job["force"], job["packet"], job["t"])
        tol = TOL_PATHINT_DVR
    else:
        ref = gaussian_state(x, job["packet"], affine_map(job["flow"], job["t"]))
        tol = TOL_EVOLVE if job["kind"] == "evolve" else TOL_PATHINT_AFFINE
    err = phase_free_error(out, ref)
    if not err <= tol:
        raise CheckFailed(f"relative L2 error {err:.3e} exceeds {tol:.0e}")
    return err


def _check_report(lines: list[str], job: dict) -> None:
    if not lines or lines[0] != "steps,dt,l2_error,ratio":
        raise CheckFailed("convergence report header missing")
    # the ratio column starts with nan
    table = _table(lines[1:], 4, finite=3) if len(lines) > 1 else np.empty((0, 4))
    steps = job["steps"] if job["kind"] == "pathint-affine" else job["steps"][:-1]
    if [int(s) for s in table[:, 0]] != steps:
        raise CheckFailed(f"report steps {table[:, 0].tolist()} != {steps}")
    if not np.allclose(table[:, 1], job["t"] / table[:, 0], rtol=1e-12, atol=0):
        raise CheckFailed("report dt column is not t/N")
    if not np.all(table[:, 2] > 0):
        raise CheckFailed("report errors must be positive")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def textbook_kernel(params: dict, t: float, xb, xa):
    """Free, Mehler (harmonic) and constant-force propagators."""
    m = params["m"]
    model = params["model"]
    if model == "harmonic":
        w = params["omega"]
        s, c = math.sin(w * t), math.cos(w * t)
        amp = cmath.sqrt(m * w / (2j * math.pi * s))
        phase = m * w * ((xb * xb + xa * xa) * c - 2 * xb * xa) / (2 * s)
    else:
        amp = cmath.sqrt(m / (2j * math.pi * t))
        f0 = params.get("F0", 0.0) if model == "linear" else 0.0
        phase = (m / (2 * t)) * ((xb - xa) ** 2 + f0 * t * t * (xb + xa) / m)
    return amp * np.exp(1j * phase)


def check_kernel_csv(data: bytes, job: dict) -> float:
    """Every row of a ``kernel --output`` CSV; returns the max relative error."""
    newline = data.find(b"\n")
    if data[:newline] != b"x_b,x_a,re,im" or not data.endswith(b"\n") or b"\r" in data:
        raise CheckFailed("kernel CSV header or line endings wrong")
    try:
        table = np.loadtxt(io.BytesIO(data[newline + 1:]), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"unparseable kernel CSV: {exc}") from None
    n = job["grid"][2]
    if table.shape != (n * n, 4) or not np.all(np.isfinite(table)):
        raise CheckFailed(f"kernel CSV has shape {table.shape}, expected {(n * n, 4)}")
    xb = table[:, 0].reshape(n, n)
    xa = table[:, 1].reshape(n, n)
    _check_grid(xb[:, 0], job["grid"])
    _check_grid(xa[0], job["grid"])
    if not (np.all(xb == xb[:, :1]) and np.all(xa == xa[:1])):
        raise CheckFailed("kernel rows are not the x_b-major grid product")
    ref = textbook_kernel(job["params"], job["t"], table[:, 0], table[:, 1])
    val = table[:, 2] + 1j * table[:, 3]
    err = float(np.max(np.abs(val - ref) / np.abs(ref)))
    if not err <= TOL_KERNEL:
        raise CheckFailed(f"kernel max relative error {err:.3e} exceeds {TOL_KERNEL:.0e}")
    return err


def check_kernel_coefficients(data: bytes, job: dict) -> float:
    """The six complex coefficients of the constant-force kernel."""
    lines = _lines(data)
    names = [f"{k}_{part}" for k in ("a", "b", "c", "d", "e", "A") for part in ("re", "im")]
    if len(lines) != 2 or lines[0] != ",".join(names):
        raise CheckFailed("coefficient CSV layout wrong")
    row = _table(lines[1:], 12)[0]
    got = row[0::2] + 1j * row[1::2]
    m, f0, t = job["params"]["m"], job["params"]["F0"], job["t"]
    want = np.array([m / (2 * t), -m / t, m / (2 * t), f0 * t / 2, f0 * t / 2,
                     cmath.sqrt(m / (2j * math.pi * t))])
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    if not err <= 1e-12:
        raise CheckFailed(f"kernel coefficients off by {err:.3e}")
    return err


# ---------------------------------------------------------------------------
# operator expressions, in exact complex rationals
# ---------------------------------------------------------------------------

class CQ:
    """Complex rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return CQ(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def __sub__(self, o):
        return CQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return CQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        den = self.re * self.re + self.im * self.im
        if den == 0:
            raise CheckFailed("division by zero in a scalar")
        return CQ(self.re / den, -self.im / den)

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = CQ(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, o) -> bool:
        return isinstance(o, CQ) and self.re == o.re and self.im == o.im

    __hash__ = None


_SYMBOLS = "+-*/^(),"


def _tokens(text: str) -> list[tuple[str, object]]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in _SYMBOLS:
            out.append((ch, ch))
            i += 1
        else:
            raise CheckFailed(f"unexpected character {ch!r} in {text!r}")
    out.append(("end", None))
    return out


class _Parser:
    """expr := [+-] term ([+-] term)*; term := factor (* factor)*;
    factor := primary [^ [+-] int]; primary := rational | (re,im) | X | P
    | name | ( expr )."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind: str | None = None):
        tok_kind, value = self.toks[self.pos]
        if kind is not None and tok_kind != kind:
            raise CheckFailed(f"expected {kind!r}, got {tok_kind!r}")
        self.pos += 1
        return value

    def expr(self):
        if self.peek() == "-":
            self.take()
            node = ("neg", self.term())
        else:
            if self.peek() == "+":
                self.take()
            node = self.term()
        while self.peek() in ("+", "-"):
            op = "add" if self.take() == "+" else "sub"
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        base = self.primary()
        if self.peek() != "^":
            return base
        self.take()
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        return ("pow", base, sign * self.take("int"))

    def rational(self) -> Fraction:
        num = self.take("int")
        if self.peek() == "/":
            self.take()
            den = self.take("int")
            if den == 0:
                raise CheckFailed("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        return sign * self.rational()

    def primary(self):
        kind = self.peek()
        if kind == "int":
            return ("num", CQ(self.rational()))
        if kind == "name":
            name = self.take()
            return (name,) if name in ("X", "P") else ("param", name)
        if kind == "(":
            self.take()
            saved = self.pos
            try:
                re = self.signed_rational()
                if self.peek() == ",":
                    self.take()
                    im = self.signed_rational()
                    self.take(")")
                    return ("num", CQ(re, im))
            except CheckFailed:
                pass
            self.pos = saved
            node = self.expr()
            self.take(")")
            return node
        raise CheckFailed(f"unexpected token {kind!r}")


def parse(text: str):
    p = _Parser(text)
    node = p.expr()
    if p.peek() != "end":
        raise CheckFailed(f"trailing input in {text!r}")
    return node


def _contains(node, tags: tuple) -> bool:
    if node[0] in tags:
        return True
    return any(_contains(c, tags) for c in node[1:] if isinstance(c, tuple))


def _has_generator(node) -> bool:
    return _contains(node, ("X", "P"))


def _scalar(node, params: dict) -> CQ:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "param":
        return CQ(params[node[1]])
    if tag == "neg":
        return -_scalar(node[1], params)
    if tag in ("add", "sub", "mul"):
        a, b = _scalar(node[1], params), _scalar(node[2], params)
        return a + b if tag == "add" else a - b if tag == "sub" else a * b
    if tag == "pow":
        return _scalar(node[1], params) ** node[2]
    raise CheckFailed("X or P inside a scalar")


def bind(node, params: dict):
    """Replace every subtree free of X and P by its value under params."""
    if not _has_generator(node):
        return ("num", _scalar(node, params))
    if node[0] in ("X", "P"):
        return node
    if node[0] == "pow":
        if node[2] < 0:
            raise CheckFailed("negative power of an operator")
        return ("pow", bind(node[1], params), node[2])
    return (node[0], *(bind(c, params) for c in node[1:]))


def p_order(node) -> int:
    """Upper bound on the number of P factors in any word of the operator."""
    tag = node[0]
    if tag in ("X", "num"):
        return 0
    if tag == "P":
        return 1
    if tag == "neg":
        return p_order(node[1])
    if tag in ("add", "sub"):
        return max(p_order(node[1]), p_order(node[2]))
    if tag == "mul":
        return p_order(node[1]) + p_order(node[2])
    return p_order(node[1]) * node[2]


def _scale(poly: dict, c: CQ) -> dict:
    if c.is_zero():
        return {}
    return {k: v * c for k, v in poly.items()}


def _add(p: dict, q: dict, sign: int) -> dict:
    out = dict(p)
    for k, v in q.items():
        s = (out[k] + v if sign > 0 else out[k] - v) if k in out else (v if sign > 0 else -v)
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def act(node, poly: dict) -> dict:
    """Apply a bound operator to a polynomial {degree: coefficient}."""
    tag = node[0]
    if tag == "X":
        return {k + 1: v for k, v in poly.items()}
    if tag == "P":
        return {k - 1: v * CQ(0, -k) for k, v in poly.items() if k}
    if tag == "num":
        return _scale(poly, node[1])
    if tag == "neg":
        return _scale(act(node[1], poly), CQ(-1))
    if tag in ("add", "sub"):
        return _add(act(node[1], poly), act(node[2], poly), 1 if tag == "add" else -1)
    if tag == "mul":
        return act(node[1], act(node[2], poly))
    for _ in range(node[2]):
        poly = act(node[1], poly)
    return poly


def _same_action(a, b) -> bool:
    """Operators with at most d P factors per word agree iff they agree on
    1, x, ..., x^d; a and b must be bound."""
    for d in range(max(p_order(a), p_order(b)) + 1):
        if act(a, {d: CQ(1)}) != act(b, {d: CQ(1)}):
            return False
    return True


def _terms(node) -> list:
    if node[0] in ("add", "sub"):
        right = node[2] if node[0] == "add" else ("neg", node[2])
        return _terms(node[1]) + [right]
    return [node]


def _factors(node) -> list:
    if node[0] == "neg":
        return _factors(node[1])
    if node[0] == "mul":
        return _factors(node[1]) + _factors(node[2])
    return [node]


def _check_normal_ordered(node) -> None:
    """Each printed term is scalar * X^i * P^j with every X before every P."""
    for term in _terms(node):
        letters = ""
        for f in _factors(term):
            base = f[1] if f[0] == "pow" else f
            if base[0] in ("X", "P"):
                letters += base[0]
            elif _has_generator(f):
                raise CheckFailed("a printed term is not a monomial")
        if "PX" in letters:
            raise CheckFailed(f"term with P before X: {letters}")


def _test_params(names: set, seed_text: str) -> dict:
    """Seeded nonzero rational values for the named parameters."""
    rng = random.Random(seed_text)
    values = {}
    for name in sorted(names):
        den = rng.randint(2, 9)
        values[name] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4 * den), den)
    return values


def _param_names(node, acc: set) -> set:
    if node[0] == "param":
        acc.add(node[1])
    for c in node[1:]:
        if isinstance(c, tuple):
            _param_names(c, acc)
    return acc


def _single_line(data: bytes) -> str:
    lines = _lines(data)
    if len(lines) != 1:
        raise CheckFailed(f"expected one line, got {len(lines)}")
    return lines[0]


def check_algebra(data: bytes, job: dict) -> None:
    """``normord`` and ``comm``: printed form acts like the input."""
    printed = parse(_single_line(data))
    _check_normal_ordered(printed)
    if job["kind"] == "normord":
        given = parse(job["argv"][1])
    else:
        a, b = parse(job["argv"][1]), parse(job["argv"][2])
        given = ("sub", ("mul", a, b), ("mul", b, a))
    params = _test_params(_param_names(given, set()) | _param_names(printed, set()),
                          repr(job["argv"]))
    if not _same_action(bind(given, params), bind(printed, params)):
        raise CheckFailed("printed form acts differently from the input")


_HAMILTONIANS = {
    "free": "(1/2)*m^-1*P^2",
    "harmonic": "(1/2)*m^-1*P^2 + (1/2)*m*omega^2*X^2",
    "linear": "(1/2)*m^-1*P^2 - F0*X",
}


def check_series(data: bytes, job: dict) -> None:
    """``series``: c_0 is X or P and c_{k+1} = i[H, c_k] for every k."""
    lines = _lines(data)
    n = job["order"]
    if len(lines) != 2 * (n + 2):
        raise CheckFailed(f"series has {len(lines)} lines, expected {2 * (n + 2)}")
    params = _test_params({"m", "omega", "F0"}, repr(job["argv"]))
    h = bind(parse(_HAMILTONIANS[job["model"]]), params)
    for block, start in (("X", 0), ("P", n + 2)):
        if lines[start] != f"{block}(t) model={job['model']} order={n}":
            raise CheckFailed(f"bad series header {lines[start]!r}")
        coeffs = []
        for k in range(n + 1):
            label, sep, text = lines[start + 1 + k].partition(": ")
            if label != str(k) or not sep:
                raise CheckFailed(f"bad series line {lines[start + 1 + k]!r}")
            coeffs.append(parse(text))
            _check_normal_ordered(coeffs[-1])
            coeffs[-1] = bind(coeffs[-1], params)
        if not _same_action(coeffs[0], (block,)):
            raise CheckFailed(f"series for {block} does not start at {block}")
        for prev, nxt in zip(coeffs, coeffs[1:]):
            # i[H, c] = i (H c - c H)
            want = ("mul", ("num", CQ(0, 1)), ("sub", ("mul", h, prev), ("mul", prev, h)))
            if not _same_action(want, nxt):
                raise CheckFailed(f"{block}(t) coefficient breaks c_(k+1) = i[H, c_k]")


def check_verify(data: bytes) -> None:
    lines = _lines(data)
    if lines[-1] != "result: PASS (8/8 checks)":
        raise CheckFailed(f"verify ended with {lines[-1]!r}")


def _force_coefficients(force: str) -> dict[int, float]:
    """Real coefficients {degree: c} of a force polynomial in X."""
    node = parse(force)
    if _contains(node, ("P", "param")):
        raise CheckFailed(f"force {force!r} must be a numeric polynomial in X")
    coeffs = act(bind(node, {}), {0: CQ(1)})
    if any(c.im for c in coeffs.values()):
        raise CheckFailed(f"force {force!r} has complex coefficients")
    return {k: float(c.re) for k, c in coeffs.items()}


def check(job: dict, stdout: bytes, output: bytes | None) -> float | None:
    """Raise CheckFailed unless the job's output is right; returns its error."""
    kind = job["kind"]
    if kind in ("evolve", "pathint-affine", "pathint-dvr"):
        return check_wavefunction(stdout, job)
    if kind == "kernel-csv":
        if stdout:
            raise CheckFailed("kernel --output wrote to stdout")
        return check_kernel_csv(output, job)
    if kind == "kernel-coefficients":
        return check_kernel_coefficients(stdout, job)
    if kind in ("normord", "comm"):
        check_algebra(stdout, job)
    elif kind == "series":
        check_series(stdout, job)
    elif kind == "verify":
        check_verify(stdout)
    else:
        raise ValueError(f"no checker for job kind {kind!r}")
    return None
