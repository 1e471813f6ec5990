"""Run one ccrflow CLI job with spans around the layers' public functions.

    python perfbench/traced.py SPANS_JSON JOB_ID CCRFLOW_ARGS...

Behaves like ``python -m ccrflow.cli CCRFLOW_ARGS...`` (same stdout, files
and exit code) and, when the job ends, writes its spans to SPANS_JSON.  The
wrappers are installed from outside: each function is replaced in every
module namespace that imported it by name, and methods are replaced on
their class.  Spans stay in memory until the job ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module namespaces that import layer functions by name
_MODULES = ("ccrflow.cli", "ccrflow.pathint", "ccrflow.verify", "ccrflow.heisenberg")

# Each counter maps (args, kwargs, result) to the counts recorded on a span.


def _rows(args, kwargs, result):
    return {"rows": len(result) - 1}


def _evolve_counts(args, kwargs, result):
    return {"kernel_evals": result.n * result.n}


def _propagate_counts(args, kwargs, result):
    n = result.n
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    return {"matvecs": steps, "gflop": 8 * n * n * steps / 1e9}


def _verify_counts(args, kwargs, result):
    lines, _ok = result
    return {"checks_passed": sum(1 for line in lines
                                 if line.startswith("check ") and ": PASS (" in line)}


def _multiply_counts(args, kwargs, result):
    terms = getattr(result, "terms", None)
    return {"words_out": len(terms)} if terms is not None else {}


def _normal_order_counts(args, kwargs, result):
    return {"words_in": len(args[0].terms), "terms_out": len(result.terms)}


def _kernel_call_counts(args, kwargs, result):
    return {"evals": int(getattr(result, "size", 1))}


class _StmBuilds:
    """Counts slice-matrix builds that repeat an earlier one in this job."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, result):
        force, m, dt, grid = args[:4]
        params = args[4] if len(args) > 4 else kwargs.get("params")
        key = (force.text(), tuple(sorted((params or {}).items())), m, dt, tuple(grid))
        repeat = key in self.seen
        self.seen.add(key)
        n = grid.n
        return {"kernel_evals": n * n, "matrix_mb": 16 * n * n / 2 ** 20,
                "repeats": int(repeat)}


# (span name, defining module, attribute, counter); a counter that is a class
# is instantiated once per job
FUNCTIONS = [
    ("cli.parse_expression", "ccrflow.cli", "parse_expression", None),
    ("cli.kernel_csv_lines", "ccrflow.cli", "kernel_csv_lines", _rows),
    ("cli.wavefunction_csv_lines", "ccrflow.cli", "wavefunction_csv_lines", _rows),
    ("opalg.commutator", "ccrflow.opalg", "commutator", None),
    ("heisenberg.taylor_flow", "ccrflow.heisenberg", "taylor_flow", None),
    ("heisenberg.time_derivative", "ccrflow.heisenberg", "time_derivative", None),
    ("propagator.evolve_exact", "ccrflow.propagator", "evolve_exact", _evolve_counts),
    ("propagator.gaussian_kernel", "ccrflow.propagator", "gaussian_kernel", None),
    ("pathint.short_time_matrix", "ccrflow.pathint", "short_time_matrix", _StmBuilds),
    ("pathint.propagate", "ccrflow.pathint", "propagate", _propagate_counts),
    ("pathint.convergence_study", "ccrflow.pathint", "convergence_study", None),
    ("verify.run_verification", "ccrflow.verify", "run_verification", _verify_counts),
]

METHODS = [
    ("opalg.multiply", "ccrflow.opalg", "OpExpr", "__mul__", _multiply_counts),
    ("opalg.normal_order", "ccrflow.opalg", "OpExpr", "normal_order", _normal_order_counts),
    ("propagator.GaussianKernel.call", "ccrflow.propagator", "GaussianKernel", "__call__",
     _kernel_call_counts),
]


class Tracer:
    """Spans [name, start, end, parent, counts] of one job, kept in memory."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, clock(), None, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(name) for name in _MODULES]
        for name, home, attr, counter in FUNCTIONS:
            home_mod = importlib.import_module(home)
            original = getattr(home_mod, attr)
            if isinstance(counter, type):
                counter = counter()
            wrapped = self.wrap(name, original, counter)
            for mod in {home_mod, *modules}:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        for name, home, cls_name, attr, counter in METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), counter))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "spans": self.spans}, fh, separators=(",", ":"))


def main() -> int:
    spans_path, job_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    import ccrflow.cli

    cli_main = tracer.wrap("cli.main", ccrflow.cli.main)
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
