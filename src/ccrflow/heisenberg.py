"""Operator time evolution built from force and velocity laws.

A force F(X) is a Polynomial in X and a velocity V(P) a Polynomial in P.
The evolution generator is the OpExpr G = int V dP - int F dX, and operators
move by dO/dt = i[G, O].  Iterating that derivative yields truncated operator Taylor
series X(t), P(t); when the force is at most linear the flow stays affine in
(X, P, 1) and can be split into three scalar series alpha, beta, gamma with
X(t) = alpha(t) X + beta(t) P + gamma(t).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .opalg import (
    DomainError,
    OpExpr,
    Polynomial,
    ScalarCoeff,
    commutator,
    word_sort_key,
)

__all__ = [
    "AffineFlow",
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


_AFFINE_WORDS = ((1, 0), (0, 1), (0, 0))  # X, P, 1


class AffineFlow(NamedTuple):
    """Scalar series (alpha, beta, gamma) with X(t) = alpha X + beta P + gamma.

    Each component is a tuple of ScalarCoeffs in the same t^k/k! convention
    as taylor_flow.
    """

    alpha: tuple
    beta: tuple
    gamma: tuple

    @property
    def order(self) -> int:
        return len(self.alpha) - 1

    def evaluate(self, t: float, params: Mapping[str, float] | None = None
                 ) -> tuple[float, float, float]:
        out = []
        for comp in (self.alpha, self.beta, self.gamma):
            total = 0j
            weight = 1.0
            for k, c in enumerate(comp):
                if k:
                    weight *= t / k
                total += c.evaluate(params) * weight
            if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
                raise ValueError("affine flow evaluated to a non-real value")
            out.append(total.real)
        return tuple(out)


def extract_affine(series: Sequence[OpExpr]) -> AffineFlow:
    """Split the coefficients of an affine series into (alpha, beta, gamma);
    reject anything else."""
    alpha, beta, gamma = [], [], []
    for k, c in enumerate(series):
        bad = [w for w in c.terms if w not in _AFFINE_WORDS]
        if bad:
            a, b = min(bad, key=word_sort_key)
            raise NonAffineFlow(
                f"order-{k} coefficient contains the word {'X' * a + 'P' * b!r}; "
                "the flow is not affine in (X, P, 1)"
            )
        alpha.append(c.terms.get((1, 0), ScalarCoeff.zero()))
        beta.append(c.terms.get((0, 1), ScalarCoeff.zero()))
        gamma.append(c.terms.get((0, 0), ScalarCoeff.zero()))
    return AffineFlow(tuple(alpha), tuple(beta), tuple(gamma))
