"""ccrflow: exact X/P operator algebra, operator flows, and propagators.

The exact layer (opalg, heisenberg) works over complex rationals with named
parameters; the numeric layer (propagator, pathint) evolves wavepackets on
uniform grids; the cli module exposes everything as subcommands.  The
package itself loads no module: each name below loads its module on first
use (PEP 562), so a command imports only the layers it runs.  Its error
bases and print helpers live here, so catching or printing loads no layer.
"""

from importlib import import_module

__version__ = "0.1.0"


class DomainError(ValueError):
    """Well-formed input outside the domain a result exists on (a caustic, a
    grid too coarse, a flow that is not affine).  The layers' domain errors
    subclass it, so catching it needs no import of a layer."""


class ExpressionError(ValueError):
    """Syntax or semantic error in an operator expression, with byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def format_float(x: float) -> str:
    """17 significant digits, scientific notation: the spec of every CSV float."""
    return "%.16e" % x


def _block(lines) -> bytes:
    """LF-terminated lines as one block of bytes (no lines: one LF)."""
    return ("\n".join(lines) + "\n").encode()


_LAZY = {  # module loaded on first use -> the names the package exports from it
    "opalg": ("ONE", "InversePower", "OpExpr", "P", "Polynomial", "ScalarCoeff", "X",
              "apply_to_polynomial", "commutator", "inverse_power_rule"),
    "heisenberg": ("NonAffineFlow", "commutator_series", "extract_affine", "force_for_model",
                   "generator", "newtonian_velocity", "taylor_flow", "time_derivative"),
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
