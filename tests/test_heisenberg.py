import math
import random
from fractions import Fraction

import pytest

from ccrflow.heisenberg import (
    AffineFlow,
    NonAffineFlow,
    OperatorTimeSeries,
    extract_affine,
    force_for_model,
    generator,
    newtonian_velocity,
    taylor_flow,
    time_derivative,
)
from ccrflow.opalg import OpExpr, P, Polynomial, ScalarCoeff, X

I = ScalarCoeff.imag_unit()
M_INV = ScalarCoeff.param("m", -1)
HALF = ScalarCoeff.rational(Fraction(1, 2))


def free_gen():
    return generator(force_for_model("free"), newtonian_velocity())


def harmonic_gen():
    return generator(force_for_model("harmonic"), newtonian_velocity())


def linear_gen():
    return generator(force_for_model("linear"), newtonian_velocity())


# ---- generator construction ----

def test_generator_free():
    expected = P * P * (HALF * M_INV)
    assert free_gen() == expected


def test_generator_linear():
    expected = P * P * (HALF * M_INV) - X * ScalarCoeff.param("F0")
    assert linear_gen() == expected


def test_generator_harmonic():
    spring = HALF * ScalarCoeff.param("m") * ScalarCoeff.param("omega", 2)
    expected = P * P * (HALF * M_INV) + X * X * spring
    assert harmonic_gen() == expected


def test_generator_general_velocity():
    # V = P^3 (a non-Newtonian velocity law) integrates to P^4/4
    gen = generator(force_for_model("free"), Polynomial.monomial(3))
    assert gen == P ** 4 * ScalarCoeff.rational(Fraction(1, 4))


# ---- time derivative ----

def test_time_derivative_x_free():
    assert time_derivative(X, free_gen()) == P * M_INV


def test_time_derivative_p_harmonic():
    expected = X * -(ScalarCoeff.param("m") * ScalarCoeff.param("omega", 2))
    assert time_derivative(P, harmonic_gen()) == expected


def test_time_derivative_x_squared_free():
    expected = (X * P + P * X) * M_INV
    assert time_derivative(X * X, free_gen()) == expected


def test_derivation_property():
    rng = random.Random(21)
    gen = harmonic_gen()
    for _ in range(15):
        words = ["".join(rng.choice("XP") for _ in range(rng.randint(0, 3)))
                 for _ in range(2)]
        a = OpExpr.word(words[0], ScalarCoeff.rational(rng.randint(-3, 3) or 1))
        b = OpExpr.word(words[1], ScalarCoeff.rational(rng.randint(-3, 3) or 1))
        lhs = time_derivative(a * b, gen)
        rhs = time_derivative(a, gen) * b + a * time_derivative(b, gen)
        assert lhs == rhs


def test_symmetrized_forms_agree():
    gen = free_gen()
    for n in range(1, 5):
        xn = X ** n
        cross = OpExpr.zero()
        for j in range(1, n):
            from ccrflow.opalg import commutator
            cross = cross + commutator(X ** j, P * X ** (n - 1 - j))
        from ccrflow.opalg import commutator
        left = ((-I) * (P * commutator(xn, P)) + cross) * M_INV
        right = ((-I) * (commutator(xn, P) * P) - cross) * M_INV
        avg = (left + right) * HALF
        td = time_derivative(xn, gen)
        assert td == left
        assert td == right
        assert td == avg


# ---- taylor flows ----

def test_taylor_flow_free():
    series = taylor_flow(X, free_gen(), 5)
    assert series.coeffs[0] == X
    assert series.coeffs[1] == P * M_INV
    assert all(c.is_zero for c in series.coeffs[2:])


def test_taylor_flow_harmonic_first_terms():
    series = taylor_flow(X, harmonic_gen(), 3)
    w2 = ScalarCoeff.param("omega", 2)
    assert series.coeffs[0] == X
    assert series.coeffs[1] == P * M_INV
    assert series.coeffs[2] == X * -w2
    assert series.coeffs[3] == P * -(w2 * M_INV)


def test_taylor_flow_constant_force():
    series = taylor_flow(X, linear_gen(), 4)
    assert series.coeffs[0] == X
    assert series.coeffs[1] == P * M_INV
    assert series.coeffs[2] == OpExpr.scalar(ScalarCoeff.param("F0") * M_INV)
    assert all(c.is_zero for c in series.coeffs[3:])


def test_taylor_flow_momentum_constant_force():
    series = taylor_flow(P, linear_gen(), 3)
    assert series.coeffs[0] == P
    assert series.coeffs[1] == OpExpr.scalar(ScalarCoeff.param("F0"))
    assert all(c.is_zero for c in series.coeffs[2:])


def test_harmonic_flow_matches_closed_form_series():
    order = 12
    series = taylor_flow(X, harmonic_gen(), order)
    for k, coeff in enumerate(series.coeffs):
        if k % 2 == 0:
            sign = 1 if k % 4 == 0 else -1
            wk = ScalarCoeff.param("omega", k) if k else ScalarCoeff.rational(1)
            assert coeff == X * (wk * sign)
        else:
            sign = 1 if k % 4 == 1 else -1
            wk = ScalarCoeff.param("omega", k - 1) if k > 1 else ScalarCoeff.rational(1)
            assert coeff == P * (wk * M_INV * sign)


def test_ccr_preserved_along_flows():
    for model in ("free", "harmonic", "linear"):
        gen = generator(force_for_model(model), newtonian_velocity())
        xs = taylor_flow(X, gen, 8)
        ps = taylor_flow(P, gen, 8)
        comm = xs.commutator_series(ps)
        assert comm.coeffs[0] == OpExpr.scalar(I)
        assert all(c.is_zero for c in comm.coeffs[1:])


def test_series_multiply_binomial_convention():
    # (X + P t)(X + P t) in the t^k/k! basis: c0=X^2, c1=XP+PX, c2=2P^2
    s = taylor_flow(X, free_gen(), 2)  # coeffs X, P/m, 0
    prod = s.multiply(s)
    m2 = ScalarCoeff.param("m", -2)
    assert prod.coeffs[0] == X * X
    assert prod.coeffs[1] == (X * P + P * X) * M_INV
    assert prod.coeffs[2] == P * P * (m2 * 2)


def test_series_requires_coefficients():
    with pytest.raises(ValueError):
        OperatorTimeSeries([])
    with pytest.raises(ValueError):
        taylor_flow(X, free_gen(), -1)


# ---- affine extraction ----

def test_extract_affine_free():
    flow = extract_affine(taylor_flow(X, free_gen(), 5))
    assert flow.alpha[0] == ScalarCoeff.rational(1)
    assert all(c.is_zero for c in flow.alpha[1:])
    assert flow.beta[0].is_zero
    assert flow.beta[1] == M_INV
    assert all(c.is_zero for c in flow.beta[2:])
    assert all(c.is_zero for c in flow.gamma)


def test_extract_affine_constant_force():
    flow = extract_affine(taylor_flow(X, linear_gen(), 4))
    assert flow.gamma[2] == ScalarCoeff.param("F0") * M_INV
    assert flow.gamma[0].is_zero and flow.gamma[1].is_zero


def test_extract_affine_reassembles_exactly():
    for gen in (free_gen(), harmonic_gen(), linear_gen()):
        series = taylor_flow(X, gen, 6)
        flow = extract_affine(series)
        for k, coeff in enumerate(series.coeffs):
            rebuilt = (X * flow.alpha[k] + P * flow.beta[k]
                       + OpExpr.scalar(flow.gamma[k]))
            assert rebuilt == coeff


def test_extract_affine_rejects_cubic_force():
    cubic = Polynomial.monomial(3, ScalarCoeff.rational(-1))
    gen = generator(cubic, newtonian_velocity())
    series = taylor_flow(X, gen, 2)
    with pytest.raises(NonAffineFlow):
        extract_affine(series)


def test_affine_flow_evaluates_to_closed_forms():
    params = {"m": 2.0, "omega": 1.3, "F0": 0.7}
    order = 16
    flow = extract_affine(taylor_flow(X, harmonic_gen(), order))
    for t in (0.1, 0.5, 1.0):
        alpha, beta, gamma = flow.evaluate(t, params)
        assert math.isclose(alpha, math.cos(1.3 * t), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(beta, math.sin(1.3 * t) / (2.0 * 1.3), rel_tol=0,
                            abs_tol=1e-12)
        assert gamma == 0.0
    flow = extract_affine(taylor_flow(X, linear_gen(), 6))
    alpha, beta, gamma = flow.evaluate(0.8, params)
    assert math.isclose(gamma, 0.7 * 0.8 ** 2 / (2 * 2.0), rel_tol=0, abs_tol=1e-15)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        force_for_model("quartic")
