import math
import random
from fractions import Fraction

import pytest

from ccrflow.opalg import (
    ONE,
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

I = ScalarCoeff.imag_unit()


def rnd_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rnd_scalar(rng):
    return ScalarCoeff.rational(rnd_rational(rng), rnd_rational(rng))


def rnd_opexpr(rng, max_words=3, max_len=4, min_len=0):
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        w = "".join(rng.choice("XP") for _ in range(rng.randint(min_len, max_len)))
        c = rnd_scalar(rng)
        terms[w] = terms[w] + c if w in terms else c
    return OpExpr(terms)


def rnd_poly(rng, max_degree=8):
    return Polynomial({k: rnd_scalar(rng) for k in range(rng.randint(0, max_degree) + 1)})


# ---- multiply ----

def test_multiply_concatenates_words():
    prod = multiply(X, P)
    assert prod.terms == {"XP": ScalarCoeff.rational(1)}


def test_multiply_distributes():
    prod = multiply(X + P, X)
    assert set(prod.terms) == {"XX", "PX"}
    assert prod.terms["XX"] == ScalarCoeff.rational(1)
    assert prod.terms["PX"] == ScalarCoeff.rational(1)


def test_multiply_scalars():
    prod = multiply(X * 2, P * 3)
    assert prod.terms == {"XP": ScalarCoeff.rational(6)}


def test_multiply_is_not_normal_ordered():
    prod = multiply(P, X)
    assert "PX" in prod.terms


# ---- normal ordering ----

def test_normal_order_px():
    assert normal_order(P * X).canonical_text() == "X*P - (0,1)*1"


def test_normal_order_already_ordered():
    e = X * P
    assert normal_order(e).terms == e.terms


def test_normal_order_ppx():
    # two swaps by hand: P(PX) = P(XP - i) = (XP - i)P - iP = XPP - 2iP
    expected = X * P * P - P * I * 2
    assert normal_order(P * P * X) == expected
    got = normal_order(P * P * X)
    assert set(got.terms) == {"XPP", "P"}


def test_normal_order_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        e = rnd_opexpr(rng, max_len=6)
        once = normal_order(e)
        assert normal_order(once).terms == once.terms
        assert once.is_normal_ordered()


def test_normal_order_preserves_element():
    rng = random.Random(6)
    for min_len, max_len, count in ((0, 4, 30), (10, 14, 20)):
        for _ in range(count):
            e = rnd_opexpr(rng, min_len=min_len, max_len=max_len)
            q = rnd_poly(rng, max_len + 2)
            assert apply_to_polynomial(e, q) == apply_to_polynomial(normal_order(e), q)


@pytest.mark.parametrize("k", [32, 40, 400])
def test_normal_order_pk_xk_closed_form(k):
    # P^k X^k = sum_r C(k,r)^2 r! (-i)^r X^(k-r) P^(k-r)
    # (Blasiak, Penson and Solomon, Phys. Lett. A 309, 198 (2003))
    minus_i_pow = ((1, 0), (0, -1), (-1, 0), (0, 1))
    expected = {}
    for r in range(k + 1):
        weight = math.comb(k, r) ** 2 * math.factorial(r)
        re, im = minus_i_pow[r % 4]
        expected["X" * (k - r) + "P" * (k - r)] = ScalarCoeff.rational(re * weight, im * weight)
    assert normal_order(P ** k * X ** k).terms == expected


# ---- commutator ----

def test_commutator_ccr():
    assert commutator(X, P) == OpExpr.scalar(I)


def test_commutator_x_cubed():
    assert commutator(X ** 3, P) == X * X * (I * 3)


def test_commutator_p_squared_x():
    assert commutator(P ** 2, X) == P * (I * -2)


def test_commutator_antisymmetric_bilinear():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rnd_opexpr(rng) for _ in range(3))
        s = rnd_scalar(rng)
        assert commutator(a, b) == -commutator(b, a)
        assert commutator(a * s + b, c) == commutator(a, c) * s + commutator(b, c)


def test_jacobi_identity():
    rng = random.Random(8)
    for _ in range(15):
        a, b, c = (rnd_opexpr(rng, max_words=2, max_len=3) for _ in range(3))
        total = (commutator(commutator(a, b), c)
                 + commutator(commutator(b, c), a)
                 + commutator(commutator(c, a), b))
        assert total.is_zero


def test_derivative_rules():
    rng = random.Random(9)
    for _ in range(30):
        q = rnd_poly(rng)
        assert commutator(q.as_opexpr("X"), P) == (q.derivative() * I).as_opexpr("X")
        assert commutator(q.as_opexpr("P"), X) == (q.derivative() * (-I)).as_opexpr("P")


# ---- inverse power rule ----

def test_inverse_power_rule_values():
    rule = inverse_power_rule(1)
    assert rule.exponent == -2
    assert rule.coeff == ScalarCoeff.rational(0, -1)
    rule = inverse_power_rule(2)
    assert rule.exponent == -3
    assert rule.coeff == ScalarCoeff.rational(0, -2)


def test_inverse_power_rule_rejects_zero():
    with pytest.raises(ValueError):
        inverse_power_rule(0)
    with pytest.raises(ValueError):
        inverse_power_rule(-3)


# ---- oracle ----

def test_apply_p_differentiates():
    q = Polynomial.monomial(2)  # x^2
    got = apply_to_polynomial(P, q)
    assert got == Polynomial.monomial(1, ScalarCoeff.rational(0, -2))


def test_apply_ccr_as_operator_identity():
    rng = random.Random(10)
    for _ in range(10):
        q = rnd_poly(rng)
        got = apply_to_polynomial(P * X - X * P, q)
        assert got == q * (-I)


def test_apply_xp_on_x():
    # (-i d/dx) x = -i, then multiply by x: -i x
    got = apply_to_polynomial(X * P, Polynomial.monomial(1))
    assert got == Polynomial.monomial(1, -I)


def test_apply_is_homomorphism():
    rng = random.Random(11)
    for _ in range(20):
        a = rnd_opexpr(rng, max_words=2, max_len=3)
        b = rnd_opexpr(rng, max_words=2, max_len=3)
        q = rnd_poly(rng, 5)
        assert apply_to_polynomial(a * b, q) == apply_to_polynomial(
            a, apply_to_polynomial(b, q))


# ---- equality ----

def test_equals_examples():
    assert equals(P * X, X * P - OpExpr.scalar(I))
    assert not equals(X, P)
    assert equals(P * P * X, X * P * P - P * (I * 2))


# ---- scalars ----

def test_scalar_ring_closure():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c = (rnd_scalar(rng) * ScalarCoeff.param(rng.choice("mw"), rng.randint(-2, 2))
                   for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_scalar_zero_is_canonical():
    z = ScalarCoeff.rational(1) - ScalarCoeff.rational(1)
    assert z.is_zero
    assert z.terms == {}
    assert (ScalarCoeff.param("m") - ScalarCoeff.param("m")).terms == {}


def test_scalar_division_and_inverse():
    half = ScalarCoeff.rational(1) / 2
    assert half == ScalarCoeff.rational(Fraction(1, 2))
    m_inv = ScalarCoeff.param("m").inverse()
    assert m_inv == ScalarCoeff.param("m", -1)
    assert (ScalarCoeff.param("m") * m_inv) == ScalarCoeff.rational(1)
    with pytest.raises(ValueError):
        (ScalarCoeff.param("m") + ScalarCoeff.rational(1)).inverse()


def test_scalar_evaluate():
    c = ScalarCoeff.rational(Fraction(1, 2), Fraction(-1, 4)) * ScalarCoeff.param("m", -2)
    assert c.evaluate({"m": 2.0}) == complex(0.125, -0.0625)
    with pytest.raises(KeyError):
        c.evaluate({})


# ---- polynomials ----

def test_polynomial_calculus_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        q = rnd_poly(rng)
        assert q.antiderivative().derivative() == q
        assert q.antiderivative().coeffs.get(0) is None  # zero constant term


def test_polynomial_rejects_negative_degree():
    with pytest.raises(ValueError):
        Polynomial({-1: ScalarCoeff.rational(1)})


def test_polynomial_as_opexpr():
    q = Polynomial.from_list([1, 0, 3])
    assert q.as_opexpr("X") == ONE + X * X * 3
    assert q.as_opexpr("P") == ONE + P * P * 3


# ---- serialization ----

def test_canonical_text_matches_examples():
    e = X * X * P * ScalarCoeff.rational(Fraction(3, 2)) - OpExpr.scalar(I)
    assert e.canonical_text() == "(3/2)*X^2*P - (0,1)*1"
    assert OpExpr.zero().canonical_text() == "0"
    assert (X * ScalarCoeff.param("m", -1)).canonical_text() == "m^-1*X"


def test_canonical_text_is_deterministic():
    rng = random.Random(14)
    for _ in range(20):
        e = rnd_opexpr(rng)
        rebuilt = OpExpr(dict(reversed(list(e.terms.items()))))
        assert e.canonical_text() == rebuilt.canonical_text()


def test_word_validation():
    with pytest.raises(ValueError):
        OpExpr.word("XQ")
