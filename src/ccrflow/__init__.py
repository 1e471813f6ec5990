"""ccrflow: exact X/P operator algebra, operator flows, and propagators.

The exact layer (opalg, heisenberg) works over complex rationals with named
parameters; the numeric layer (propagator, pathint) evolves wavepackets on
uniform grids; the cli module exposes everything as subcommands.  The
numeric names load on first use (PEP 562), so importing the package, or
running a symbolic command, does not import numpy.
"""

from importlib import import_module

from .heisenberg import (
    AffineFlow,
    ForceLaw,
    Generator,
    NonAffineFlow,
    OperatorTimeSeries,
    VelocityLaw,
    constant_force,
    extract_affine,
    force_for_model,
    free_force,
    generator,
    harmonic_force,
    newtonian_velocity,
    taylor_flow,
    time_derivative,
)
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
    equals,
    inverse_power_rule,
    multiply,
    normal_order,
)

__version__ = "0.1.0"

_NUMERIC = {  # numeric module -> the names the package exports from it
    "pathint": ("ConvergenceReport", "ConvergenceRow", "KernelMatrix",
                "convergence_study", "propagate", "short_time_matrix"),
    "propagator": ("AffineFlowExact", "BoundaryLeak", "CausticSingularity",
                   "GaussianKernel", "GridTooCoarse", "UniformGrid", "WaveFunction",
                   "evolve_exact", "gaussian_kernel", "closed_form_kernel"),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in (module, *names)}


def __getattr__(name):
    """ccrflow.<numeric name>, and the numeric modules themselves, on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    return module if name == _HOME[name] else getattr(module, name)
