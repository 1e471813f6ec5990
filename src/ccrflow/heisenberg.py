"""Operator time evolution built from force and velocity laws.

A force F(X) is a Polynomial in X and a velocity V(P) a Polynomial in P.
The evolution generator is the OpExpr G = int V dP - int F dX, and operators
move by dO/dt = i[G, O].  Iterating that derivative yields truncated operator Taylor
series X(t), P(t); when the force is at most linear the flow stays affine in
(X, P, 1), and extract_affine names its closed form, AffineFlowExact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .opalg import (
    DomainError,
    OpExpr,
    Polynomial,
    ScalarCoeff,
    X,
    commutator,
    word_sort_key,
)

if TYPE_CHECKING:
    from .propagator import AffineFlowExact

__all__ = [
    "NonAffineFlow",
    "generator",
    "time_derivative",
    "taylor_flow",
    "commutator_series",
    "extract_affine",
    "newtonian_velocity",
    "force_for_model",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 16

_I = ScalarCoeff.imag_unit()


class NonAffineFlow(DomainError):
    """Raised when a series coefficient leaves the span of {1, X, P}."""


def newtonian_velocity() -> Polynomial:
    """V = P/m, as a polynomial in P (length per time)."""
    return Polynomial.monomial(1, ScalarCoeff.param("m", -1))


# model -> force F(X), a polynomial in X (momentum per time)
_MODELS = {
    "free": Polynomial.zero(),
    "harmonic": Polynomial.monomial(  # F = -m omega^2 X
        1, -(ScalarCoeff.param("m") * ScalarCoeff.param("omega", 2))),
    "linear": Polynomial.monomial(0, ScalarCoeff.param("F0")),  # F = F0, a linear potential
}


def force_for_model(model: str) -> Polynomial:
    try:
        return _MODELS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_MODELS)}")


def generator(force: Polynomial, velocity: Polynomial) -> OpExpr:
    """G = int V dP - int F dX (energy units).

    Both antiderivatives carry zero constant term; constants commute with
    everything and cannot affect any derivative.
    """
    return velocity.antiderivative().as_opexpr("P") - force.antiderivative().as_opexpr("X")


def time_derivative(op: OpExpr, G: OpExpr) -> OpExpr:
    """dO/dt = i[G, O].

    With G = P^2/2m - int F dX this reproduces dX/dt = P/m and dP/dt = F(X).
    """
    return _I * commutator(G, op)


def taylor_flow(op0: OpExpr, G: OpExpr, order: int) -> tuple[OpExpr, ...]:
    """The coefficients (c_0, ..., c_order) of the operator Taylor series
    sum_k c_k t^k/k!, from c_0 = op0 and c_{k+1} = i[G, c_k]."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [op0]
    for _ in range(order):
        coeffs.append(time_derivative(coeffs[-1], G))
    return tuple(coeffs)


def commutator_series(a: Sequence[OpExpr], b: Sequence[OpExpr]) -> tuple[OpExpr, ...]:
    """[A(t), B(t)] of two series in the t^k/k! convention, truncated at the
    lower order: c_n = sum_k C(n, k) [a_k, b_{n-k}]."""
    return tuple(sum((math.comb(n, k) * commutator(a[k], b[n - k]) for k in range(n + 1)),
                     OpExpr.zero())
                 for n in range(min(len(a), len(b))))


def series_lines(series: Sequence[OpExpr]) -> list[str]:
    """One 'k: <c_k>' line per coefficient of an operator series."""
    return [f"{k}: {c.canonical_text()}" for k, c in enumerate(series)]


_AFFINE_WORDS = ((1, 0), (0, 1), (0, 0))  # X, P, 1


def extract_affine(series: Sequence[OpExpr], m: float,
                   params: Mapping[str, float] | None = None) -> AffineFlowExact:
    """The closed-form flow of the series of X under V = P/m, if every
    coefficient lies in the span of {X, P, 1} (else NonAffineFlow): the
    paper's Newtonian route reads F = m c_2 off X''(0) = F(X)/m, with the
    parameter m bound to the given mass.  Raises ValueError for a series that
    is not of X under V = P/m, or of order below 2."""
    for k, c in enumerate(series):
        bad = [w for w in c.terms if w not in _AFFINE_WORDS]
        if bad:
            a, b = min(bad, key=word_sort_key)
            raise NonAffineFlow(
                f"order-{k} coefficient contains the word {'X' * a + 'P' * b!r}; "
                "the flow is not affine in (X, P, 1)"
            )
    if (len(series) < 3 or tuple(series[:2]) != (X, newtonian_velocity().as_opexpr("P"))
            or (0, 1) in series[2].terms):
        raise ValueError("extract_affine needs X's series under V = P/m, to order 2 or more")
    from .propagator import AffineFlowExact

    mass = ScalarCoeff.param("m")
    force = Polynomial({a: c * mass for (a, _b), c in series[2].terms.items()})
    return AffineFlowExact.from_force(force, m, {**(params or {}), "m": m})
