"""Seeded job lists for the four benchmark workloads.

A job is one ``python -m ccrflow.cli ...`` invocation plus what its checker
needs to know.  The seed varies only numbers (packet centre, momentum and
width, times, masses, boxes, coefficients and, within 56-64, the series
orders); job kinds, grid sizes, exponents and step counts stay fixed, so
every seed costs about the same.

Every drawn parameter set is validated against the limits the README states
(per-cell phase step at most pi/2, no caustic, edge mass below the 1e-10
flag, with the two exceptions noted at the jobs), using the independent
formulas in ``refs`` rather than ccrflow itself; a draw that breaks a limit
is redrawn from the same stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

import refs

WORKLOADS = ("propagate", "kernel-csv", "symbolic", "verify")

# c*P^k*X^k jobs: two below the recursion limit and two at or above it, so
# every seed carries the same number of jobs that hit the known
# RecursionError of the recursive normal ordering (k >= 32).  The exponents
# are fixed because cost and peak RSS grow with k; the seed draws c.
PKXK_EXPONENTS = (24, 30, 33, 38)
RECURSION_DEFECT_K = 32

VERIFY_RUNS = 3
EDGE_FLAG = 1e-10  # WaveFunction.boundary_flagged
EDGE_WARN = 1e-6  # BoundaryLeak warning in propagate
_MAX_DRAWS = 200
HALF_PI = math.pi / 2


def _num(v: float) -> str:
    return f"{v:.4f}"


def _grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    return x_min + (x_max - x_min) / (n - 1) * np.arange(n)


def _packet(rng: random.Random, x0: tuple, p0: tuple, sigma: tuple) -> dict:
    return {"x0": float(_num(rng.uniform(*x0))), "p0": float(_num(rng.uniform(*p0))),
            "sigma": float(_num(rng.uniform(*sigma)))}


def _edge_ok(flow: dict, packet: dict, x: np.ndarray, t: float, limit: float) -> bool:
    """Edge mass of the exact packet stays below limit at 17 times in [0, t]."""
    for s in np.linspace(0.0, t, 17):
        psi = refs.gaussian_state(x, packet, refs.affine_map(flow, float(s)))
        if refs.edge_mass_fraction(psi) >= limit:
            return False
    return True


def _slice_rule_ok(force_vals: np.ndarray, m: float, x: np.ndarray, t: float,
                   steps) -> bool:
    dx = x[1] - x[0]
    x_abs = max(abs(x[0]), abs(x[-1]))
    f_max = float(np.max(np.abs(force_vals)))
    return all(dx * (2 * m * x_abs / (t / n) + (t / n) / 2 * f_max) <= HALF_PI * 0.999
               for n in steps)


def _kernel_rule_ok(flow: dict, x: np.ndarray, t: float) -> bool:
    """Phase step of the closed-form kernel, as README states it, below pi/2."""
    (a, b, _c, _d), (gx, _gp) = refs.affine_map(flow, t)
    if abs(b) < 1e-3:  # well away from a caustic, not just past the 1e-12 guard
        return False
    qa, qb, qd = a / (2 * b), -1.0 / b, gx / b
    x_abs = max(abs(x[0]), abs(x[-1]))
    return (x[1] - x[0]) * ((2 * abs(qa) + abs(qb)) * x_abs + abs(qd)) <= HALF_PI * 0.999


def _pathint_job(rng, *, force, flow, m, box, n, t_range, steps, convergence,
                 affine=True, edge_limit=EDGE_FLAG, x0=(-0.25, 0.25), p0=(-0.4, 0.4),
                 sigma=(0.46, 0.54)) -> dict:
    """``flow`` is the force's affine model; for a non-affine force
    (``affine=False``) it is the harmonic part, used only to keep the packet
    inside the box."""
    x = _grid(-box, box, n)
    force_vals = refs.force_values(force, x)
    for _ in range(_MAX_DRAWS):
        t = float(_num(rng.uniform(*t_range)))
        packet = _packet(rng, x0, p0, sigma)
        if (_slice_rule_ok(force_vals, m, x, t, steps)
                and not (affine and convergence and not _kernel_rule_ok(flow, x, t))
                and _edge_ok(flow, packet, x, t, edge_limit)):
            break
    else:
        raise RuntimeError(f"no valid draw for pathint {force} at n={n}")
    argv = ["pathint", f"--force={force}", "--m", _num(m), "--t-total", _num(t),
            "--x-min", _num(-box), "--x-max", _num(box), "--n", str(n),
            "--x0", _num(packet["x0"]), "--p0", _num(packet["p0"]),
            "--sigma", _num(packet["sigma"])]
    if convergence:
        argv += ["--convergence", ",".join(str(s) for s in steps)]
    else:
        argv += ["--steps", str(steps[0])]
    return {"kind": "pathint-affine" if affine else "pathint-dvr", "argv": argv,
            "force": force, "flow": flow, "m": m, "t": t, "grid": [-box, box, n],
            "packet": packet, "steps": list(steps), "convergence": convergence}


def _evolve_job(rng, *, model, m, n, box, t_range, extra, x0=(-0.8, 0.8),
                p0=(-1.0, 1.0), sigma=(0.7, 1.0)) -> dict:
    """The quadrature is exact to rounding only if the initial packet has no
    mass at the box edges (below 1e-24 on the five outer samples each side);
    otherwise the truncated tail shows up at the 1e-9 level."""
    x = _grid(-box, box, n)
    flow = {"model": model, "m": m, **extra}
    for _ in range(_MAX_DRAWS):
        t = float(_num(rng.uniform(*t_range)))
        packet = _packet(rng, x0, p0, sigma)
        if (refs.edge_mass_fraction(refs.initial_state(x, packet)) < 1e-24
                and _kernel_rule_ok(flow, x, t) and _edge_ok(flow, packet, x, t, EDGE_FLAG)):
            break
    else:
        raise RuntimeError(f"no valid draw for evolve {model} at n={n}")
    argv = ["evolve", "--model", model, "--m", _num(m)]
    for key, value in extra.items():
        argv += [f"--{key}", _num(value)]
    argv += ["--t", _num(t), "--x-min", _num(-box), "--x-max", _num(box), "--n", str(n),
             "--x0", _num(packet["x0"]), "--p0", _num(packet["p0"]),
             "--sigma", _num(packet["sigma"])]
    return {"kind": "evolve", "argv": argv, "flow": flow, "t": t,
            "grid": [-box, box, n], "packet": packet}


def _propagate_jobs(rng: random.Random) -> list[dict]:
    harmonic = {"model": "harmonic", "m": 4.0, "omega": 1.0}
    return [
        # the README example, then the same study at twice the resolution
        _pathint_job(rng, force="-4*X", flow=harmonic, m=4.0, box=2.55, n=896,
                     t_range=(2.96, 3.06), steps=(5, 10, 20, 40), convergence=True),
        _pathint_job(rng, force="-4*X", flow=harmonic, m=4.0, box=2.55, n=2048,
                     t_range=(2.6, 3.06), steps=(10, 20, 40, 80), convergence=True),
        # non-affine: ccrflow references it against its own finest N
        _pathint_job(rng, force="-4*X-X^3", flow=harmonic, affine=False, m=4.0,
                     box=2.55, n=896, t_range=(2.96, 3.06), steps=(5, 10, 20, 40),
                     convergence=True),
        # With m = 1 in +-6 the phase rule at N = 8 needs t >= 0.96, where even
        # the narrowest packet puts ~2e-10 of its mass on the edge samples; this
        # job is held below the 1e-6 level at which propagate warns instead.
        _pathint_job(rng, force="4/5", flow={"model": "linear", "m": 1.0, "F0": 0.8},
                     m=1.0, box=6.0, n=768, t_range=(0.97, 1.15), steps=(1, 2, 4, 8),
                     convergence=True, edge_limit=EDGE_WARN, x0=(-0.5, 0.5),
                     p0=(-0.6, 0.3), sigma=(0.85, 1.15)),
        _pathint_job(rng, force="-4*X", flow=harmonic, m=4.0, box=2.55, n=4096,
                     t_range=(1.0, 2.8), steps=(40,), convergence=False),
        _evolve_job(rng, model="free", m=1.0, n=8192, box=10.0, t_range=(0.5, 2.0), extra={}),
        _evolve_job(rng, model="harmonic", m=1.0, n=4096, box=8.0, t_range=(0.4, 2.7),
                    extra={"omega": 1.0}),
        _evolve_job(rng, model="linear", m=1.0, n=2048, box=8.0, t_range=(0.5, 1.2),
                    extra={"F0": 1.0}),
    ]


def _kernel_jobs(rng: random.Random, workdir: str) -> list[dict]:
    jobs = []
    for model, n in (("free", 256), ("harmonic", 384), ("linear", 320)):
        m = float(_num(rng.uniform(0.5, 2.0)))
        params = {"model": model, "m": m}
        if model == "harmonic":
            params["omega"] = float(_num(rng.uniform(0.5, 1.5)))
            t = float(_num(rng.uniform(0.3, 2.6) / params["omega"]))
        else:
            t = float(_num(rng.uniform(0.5, 1.5)))
        if model == "linear":
            params["F0"] = float(_num(rng.uniform(-2.0, 2.0)))
        x_min = float(_num(-rng.uniform(3.0, 6.0)))
        x_max = float(_num(rng.uniform(3.0, 6.0)))
        out = f"{workdir}/kernel-{model}.csv"
        argv = ["kernel", "--model", model, "--m", _num(m)]
        for key in ("omega", "F0"):
            if key in params:
                argv += [f"--{key}", _num(params[key])]
        argv += ["--t", _num(t), "--x-min", _num(x_min), "--x-max", _num(x_max),
                 "--n", str(n), "--output", out]
        jobs.append({"kind": "kernel-csv", "argv": argv, "params": params, "t": t,
                     "grid": [x_min, x_max, n], "output": out})
    m = float(_num(rng.uniform(0.5, 3.0)))
    f0 = float(_num(rng.uniform(-3.0, 3.0)))
    t = float(_num(rng.uniform(0.2, 1.5)))
    argv = ["kernel", "--model", "linear", "--m", _num(m), "--F0", _num(f0), "--t", _num(t),
            "--x-min", "-1", "--x-max", "1", "--n", "4", "--coefficients"]
    jobs.append({"kind": "kernel-coefficients", "argv": argv,
                 "params": {"model": "linear", "m": m, "F0": f0}, "t": t})
    return jobs


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _linear_form(rng: random.Random) -> str:
    """(aX + bP) with seeded nonzero rationals a, b."""
    a, b = _rational(rng), _rational(rng)
    return f"({a}*X {'-' if b < 0 else '+'} {abs(b)}*P)"


def _symbolic_jobs(rng: random.Random) -> list[dict]:
    jobs = [{"kind": "normord", "argv": ["normord", f"{_linear_form(rng)}^{k}"]}
            for k in (9, 10, 11)]
    i = rng.randint(4, 7)
    jobs.append({"kind": "normord",
                 "argv": ["normord", f"(a*X+b*P)^{i}*(c*X+d*P)^{11 - i}"]})
    for k in (5, 6):
        jobs.append({"kind": "comm", "argv": ["comm", f"{_linear_form(rng)}^{k}",
                                              f"{_linear_form(rng)}^{k}"]})
    for k in PKXK_EXPONENTS:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        jobs.append({"kind": "normord", "argv": ["normord", f"{c}*P^{k}*X^{k}"],
                     "known_defect": k >= RECURSION_DEFECT_K})
    for model in ("harmonic", "linear"):
        order = rng.randint(56, 64)
        jobs.append({"kind": "series", "model": model, "order": order,
                     "argv": ["series", "--model", model, "--order", str(order)]})
    return jobs


def job_list(workload: str, seed: int, workdir: str = ".") -> list[dict]:
    """The workload's jobs for this seed; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "propagate":
        jobs = _propagate_jobs(rng)
    elif workload == "kernel-csv":
        jobs = _kernel_jobs(rng, workdir)
    elif workload == "symbolic":
        jobs = _symbolic_jobs(rng)
    else:
        jobs = [{"kind": "verify", "argv": ["verify"]} for _ in range(VERIFY_RUNS)]
    for index, job in enumerate(jobs):
        job["id"] = index
        job.setdefault("known_defect", False)
    return jobs
