"""ccrflow: exact X/P operator algebra, operator flows, and propagators.

The exact layer (opalg, heisenberg) works over complex rationals with named
parameters; the numeric layer (propagator, pathint) evolves wavepackets on
uniform grids; the cli module exposes everything as subcommands.
"""

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
from .pathint import (
    ConvergenceReport,
    ConvergenceRow,
    KernelMatrix,
    convergence_study,
    propagate,
    short_time_matrix,
)
from .propagator import (
    AffineFlowExact,
    BoundaryLeak,
    CausticSingularity,
    GaussianKernel,
    GridTooCoarse,
    UniformGrid,
    WaveFunction,
    evolve_exact,
    gaussian_kernel,
    closed_form_kernel,
)

__version__ = "0.1.0"
