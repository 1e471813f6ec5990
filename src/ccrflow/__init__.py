"""ccrflow: exact X/P operator algebra, operator flows, and propagators.

The exact layer (opalg, heisenberg) works over complex rationals with named
parameters; the numeric layer (propagator, pathint) evolves wavepackets on
uniform grids; the cli module exposes everything as subcommands.  Only opalg
loads with the package.  The names of heisenberg and of the numeric modules
load on first use (PEP 562), so importing the package, or running normord or
comm, imports neither heisenberg nor numpy.
"""

from importlib import import_module

from .opalg import (
    ONE,
    DomainError,
    InversePower,
    OpExpr,
    P,
    Polynomial,
    ScalarCoeff,
    X,
    apply_to_polynomial,
    commutator,
    inverse_power_rule,
)

__version__ = "0.1.0"

_LAZY = {  # module loaded on first use -> the names the package exports from it
    "heisenberg": ("AffineFlow", "NonAffineFlow", "commutator_series", "extract_affine",
                   "force_for_model", "generator", "newtonian_velocity", "taylor_flow",
                   "time_derivative"),
    "pathint": ("ConvergenceReport", "ConvergenceRow", "convergence_study", "propagate",
                "short_time_matrix"),
    "propagator": ("AffineFlowExact", "BoundaryLeak", "CausticSingularity", "ChirpStep",
                   "GaussianKernel", "GridTooCoarse", "UniformGrid", "WaveFunction",
                   "evolve_exact", "gaussian_kernel", "closed_form_kernel"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name):
    """ccrflow.<name> of a module in _LAZY, and the module itself, on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    return module if name == _HOME[name] else getattr(module, name)
