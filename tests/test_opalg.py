import itertools
import math
import random
from fractions import Fraction

import pytest

import ccrflow.opalg as opalg
from ccrflow.opalg import (
    ONE,
    OpExpr,
    P,
    Polynomial,
    ScalarCoeff,
    X,
    apply_to_polynomial,
    commutator,
    inverse_power_rule,
)
from helpers import from_list

I = ScalarCoeff.imag_unit()


def rnd_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rnd_scalar(rng):
    return ScalarCoeff.rational(rnd_rational(rng), rnd_rational(rng))


def rnd_words(rng, max_words=3, max_len=4, min_len=0):
    return [("".join(rng.choice("XP") for _ in range(rng.randint(min_len, max_len))),
             rnd_scalar(rng)) for _ in range(rng.randint(1, max_words))]


def product_of_letters(words):
    return sum((OpExpr.word(w, c) for w, c in words), OpExpr.zero())


def rnd_opexpr(rng, max_words=3, max_len=4, min_len=0):
    return product_of_letters(rnd_words(rng, max_words, max_len, min_len))


def letter_action(words, q):
    """Each word acting on q letter by letter, rightmost first: X is x*, P is -i d/dx."""
    total = Polynomial.zero()
    for word, coeff in words:
        r = q
        for letter in reversed(word):
            r = r.shift_up() if letter == "X" else r.derivative() * (-I)
        total = total + r * coeff
    return total


def rnd_poly(rng, max_degree=8):
    return Polynomial({k: rnd_scalar(rng) for k in range(rng.randint(0, max_degree) + 1)})


# ---- multiply ----

def test_multiply_concatenates_words():
    # X times P is already ordered: the exponent pairs add
    prod = X * P
    assert prod.terms == {(1, 1): ScalarCoeff.rational(1)}
    assert (X * X * P * P).terms == {(2, 2): ScalarCoeff.rational(1)}


def test_multiply_distributes():
    # (X + P) X = X^2 + P X = X^2 + X P - i
    prod = (X + P) * X
    assert prod.terms == {(2, 0): ScalarCoeff.rational(1), (1, 1): ScalarCoeff.rational(1),
                          (0, 0): -I}


def test_multiply_scalars():
    prod = (X * 2) * (P * 3)
    assert prod.terms == {(1, 1): ScalarCoeff.rational(6)}


def test_multiply_normal_orders_px():
    prod = P * X
    assert prod == X * P - OpExpr.scalar(I)
    assert prod.terms == {(1, 1): ScalarCoeff.rational(1), (0, 0): -I}
    assert P * X * P != X * P * P


def letter_fold(word, coeff=1):
    """coeff times the letters of word, multiplied in one at a time."""
    out = OpExpr.scalar(coeff)
    for g in word:
        out = out * (X if g == "X" else P)
    return out


def test_multiply_closed_form_against_letter_fold():
    # X^a P^b X^c P^d built by the closed form equals the letters folded one by one
    for a, b, c, d in ((0, 3, 2, 0), (1, 2, 3, 1), (2, 4, 4, 2), (0, 5, 1, 3)):
        left = OpExpr({(a, b): ScalarCoeff.rational(1)})
        right = OpExpr({(c, d): ScalarCoeff.rational(1)})
        assert left * right == letter_fold("X" * a + "P" * b + "X" * c + "P" * d)


def _term_order(e):
    return [(word, list(coeff.terms.items())) for word, coeff in e.terms.items()]


def test_word_multiplies_runs_like_the_letter_fold():
    # OpExpr.word multiplies whole X^a P^b runs; every word of length <= 10
    # gives the letter fold's terms in the fold's order of words and monomials
    coeff = ScalarCoeff.rational(Fraction(2, 3), -1) + ScalarCoeff.param("m", -1) * 5
    count = 0
    for length in range(11):
        for letters in itertools.product("XP", repeat=length):
            word = "".join(letters)
            assert _term_order(OpExpr.word(word, coeff)) == _term_order(
                letter_fold(word, coeff)), word
            count += 1
    assert count == 2047
    assert OpExpr.word("PXP", 0).is_zero


def test_signed_sum_keeps_the_left_fold_order():
    # ScalarCoeff.evaluate adds floats in dict order, so the one-pass sum
    # must keep the fold's order of words and monomials, cancellations included
    rng = random.Random(11)
    words, names = [(0, 0), (1, 0), (0, 2), (2, 1)], ["m", "omega", "F0"]
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 12)):
            coeff = ScalarCoeff.rational(rng.choice([-2, -1, 1, 2]), rng.choice([0, 0, 1]))
            if rng.random() < 0.6:
                coeff = coeff * ScalarCoeff.param(rng.choice(names), rng.choice([-1, 1, 2]))
            parts.append((rng.choice([1, -1]), OpExpr({rng.choice(words): coeff})))
        fold = parts[0][1] * parts[0][0]
        for sign, part in parts[1:]:
            fold = fold + part if sign > 0 else fold - part
        assert _term_order(OpExpr.signed_sum(parts)) == _term_order(fold)


# ---- normal ordering ----

def test_normal_order_px():
    assert (P * X).normal_order().canonical_text() == "X*P - (0,1)*1"


def test_normal_order_already_ordered():
    e = X * P
    assert e.normal_order().terms == e.terms


def test_normal_order_ppx():
    # two swaps by hand: P(PX) = P(XP - i) = (XP - i)P - iP = XPP - 2iP
    expected = X * P * P - P * I * 2
    assert (P * P * X).normal_order() == expected
    got = (P * P * X).normal_order()
    assert set(got.terms) == {(1, 2), (0, 1)}


def test_normal_order_idempotent():
    # every product is ordered when built; normal_order returns it unchanged
    rng = random.Random(5)
    for _ in range(50):
        e = rnd_opexpr(rng, max_len=6)
        assert e.normal_order() is e
        assert all(a >= 0 and b >= 0 for a, b in e.terms)


def test_normal_order_preserves_element():
    # the ordered product acts on polynomials like its words acting letter by letter
    rng = random.Random(6)
    for min_len, max_len, count in ((0, 4, 30), (10, 14, 20)):
        for _ in range(count):
            words = rnd_words(rng, min_len=min_len, max_len=max_len)
            q = rnd_poly(rng, max_len + 2)
            assert apply_to_polynomial(product_of_letters(words), q) == letter_action(words, q)


@pytest.mark.parametrize("k", [32, 40, 400])
def test_normal_order_pk_xk_closed_form(k):
    # P^k X^k = sum_r C(k,r)^2 r! (-i)^r X^(k-r) P^(k-r)
    # (Blasiak, Penson and Solomon, Phys. Lett. A 309, 198 (2003))
    minus_i_pow = ((1, 0), (0, -1), (-1, 0), (0, 1))
    expected = {}
    for r in range(k + 1):
        weight = math.comb(k, r) ** 2 * math.factorial(r)
        re, im = minus_i_pow[r % 4]
        expected[k - r, k - r] = ScalarCoeff.rational(re * weight, im * weight)
    assert (P ** k * X ** k).normal_order().terms == expected


# ---- commutator ----

def test_commutator_ccr():
    assert commutator(X, P) == OpExpr.scalar(I)


def test_commutator_x_cubed():
    assert commutator(X ** 3, P) == X * X * (I * 3)


def test_commutator_p_squared_x():
    assert commutator(P ** 2, X) == P * (I * -2)


def test_commutator_is_the_difference_of_products():
    # the one-pass commutator against ab - ba, over parameter monomials and
    # over zero and scalar-only operands
    rng = random.Random(16)
    names = ["m", "omega", "F0"]

    def operand():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            coeff = rnd_scalar(rng)
            for _ in range(rng.randint(0, 2)):
                coeff = coeff * ScalarCoeff.param(rng.choice(names), rng.choice([-2, -1, 1, 3]))
            terms[rng.randint(0, 5), rng.randint(0, 5)] = coeff
        return rng.choice([OpExpr(terms), OpExpr(terms), OpExpr.scalar(rnd_scalar(rng))])

    for _ in range(400):
        a, b = operand(), operand()
        assert commutator(a, b) == a * b - b * a
        assert commutator(a, OpExpr.zero()).is_zero and commutator(OpExpr.zero(), b).is_zero
        assert commutator(a, a).is_zero


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


def _poly_order(q):
    return [(k, list(c.terms.items())) for k, c in q.coeffs.items()]


def _apply_by_products(e, q):
    """apply_to_polynomial with a scalar product and then a weight per term,
    no constant folded into the weight."""
    out = {}
    for (a, b), coeff in e.terms.items():
        for k, c in q.coeffs.items():
            if k >= b:
                term = coeff * c * (ScalarCoeff.rational(0, -1) ** b * math.perm(k, b))
                out[k - b + a] = out[k - b + a] + term if k - b + a in out else term
    return Polynomial(out)


def test_apply_folds_constants_like_the_letter_fold():
    # each coefficient of q folds with (-i)^b k!/(k-b)! into one scalar
    # before its one product with the operator coefficient; constant and
    # parametric coefficients act like the letters folded one by one and
    # keep the terms in the order of the unfolded products
    rng = random.Random(12)
    m = ScalarCoeff.param("m")
    for _ in range(150):
        word = "".join(rng.choice("XP") for _ in range(rng.randint(0, 6)))
        coeff = rnd_scalar(rng) * rng.choice([1, m, ScalarCoeff.param("omega", -1)])
        q = Polynomial({k: rnd_scalar(rng) * rng.choice([1, 1, m ** 2])
                        + rng.choice([0, 0, m * rnd_scalar(rng)]) for k in range(rng.randint(0, 7))})
        e = letter_fold(word, coeff)
        got = apply_to_polynomial(e, q)
        assert got == letter_action([(word, coeff)], q), word
        assert _poly_order(got) == _poly_order(_apply_by_products(e, q)), word


# ---- equality ----

def test_equals_examples():
    assert P * X == X * P - OpExpr.scalar(I)
    assert X != P
    assert P * P * X == X * P * P - P * (I * 2)


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


def test_scalar_arithmetic_matches_fraction_pairs():
    # the (p, q, d) weights against complex arithmetic on Fraction pairs,
    # for the general product and each constant fast path
    rng = random.Random(15)

    def value(c):
        (p, q, d), = c.terms.values() or [(0, 0, 1)]
        return Fraction(p, d), Fraction(q, d)

    for _ in range(200):
        (a, b), (c, d) = (rnd_rational(rng), rnd_rational(rng)), (rnd_rational(rng),
                                                                  rnd_rational(rng))
        x, y = ScalarCoeff.rational(a, b), ScalarCoeff.rational(c, d)
        k, f = rng.randint(-30, 30), rnd_rational(rng) or Fraction(1, 7)
        assert value(x * y) == (a * c - b * d, a * d + b * c)
        assert value(x + y) == (a + c, b + d)
        assert value(x * k) == (a * k, b * k)
        assert value(x * f) == (a * f, b * f)
        assert value(x / k if k else x) == ((a / k, b / k) if k else (a, b))
        if a or b:
            assert value(x.inverse()) == (a / (a * a + b * b), -b / (a * a + b * b))
        for g, h in ((k, 0), (0, -k), (-k, 0), (0, k)):  # k (-i)^r, r = 0..3
            assert value(x._scaled((g, h, 1))) == (a * g - b * h, a * h + b * g)
    assert ScalarCoeff.rational(Fraction(6, 4), Fraction(-9, 6)).terms == {(): (3, -3, 2)}


def _weights(c):
    """The terms of c as (monomial, (re, im)) over Fractions, in dict order."""
    return [(m, (Fraction(p, d), Fraction(q, d))) for m, (p, q, d) in c.terms.items()]


def _reference_product(a, b):
    """a * b over Fraction pairs: term pairs in a-major order, each monomial
    kept where a pair first reaches it, zero sums dropped at the end."""
    out = {}
    for m1, (x, y) in _weights(a):
        for m2, (u, v) in _weights(b):
            powers = dict(m1)
            for name, k in m2:
                powers[name] = powers.get(name, 0) + k
            mono = tuple(sorted((name, k) for name, k in powers.items() if k))
            re, im = out.get(mono, (0, 0))
            out[mono] = (re + x * u - y * v, im + x * v + y * u)
    return [(m, w) for m, w in out.items() if w != (0, 0)]


def _wide_scalar(rng):
    """0 to 3 terms over m and omega, mixed signs, weights of 3 to 200 bits."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = tuple((name, k) for name, k in (("m", rng.randint(-2, 2)),
                                                ("omega", rng.randint(-1, 2))) if k)
        top = 2 ** rng.choice([3, 64, 200])
        re = Fraction(rng.randint(-top, top), rng.randint(1, top))
        im = rng.choice([0, Fraction(rng.randint(-top, top), rng.randint(1, top))])
        terms[mono] = next(iter(ScalarCoeff.rational(re, im).terms.values()), (0, 0, 1))
    return ScalarCoeff(terms)


def _canonical(c):
    return all(d > 0 and math.gcd(p, q, d) == 1 for p, q, d in c.terms.values())


def test_scalar_products_match_the_fraction_reference():
    # products with a one-term scalar (through _scaled), the general product
    # and _scaled itself against Fraction arithmetic, term order included,
    # for constants, parameter monomials, zero and 200-bit weights; _scaled
    # takes unreduced weights
    rng = random.Random(16)
    for _ in range(400):
        a, b = _wide_scalar(rng), _wide_scalar(rng)
        for got, want in ((a * b, _reference_product(a, b)),
                          (b * a, _reference_product(b, a))):
            assert _weights(got) == want and _canonical(got)
        w = next(iter(_wide_scalar(rng).terms.values()), (0, 0, 1))
        k = rng.choice([1, 2, 6])
        for scaled in (a._scaled(w), a._scaled((k * w[0], k * w[1], k * w[2]))):
            assert _weights(scaled) == _reference_product(a, ScalarCoeff({(): w}))
            assert _canonical(scaled)
        n = rng.randint(-2 ** 70, 2 ** 70)
        assert _weights(a * n) == _weights(n * a) == _reference_product(a, ScalarCoeff.rational(n))
    assert (ScalarCoeff.param("m") * 0).is_zero and ScalarCoeff.param("m")._scaled((0, 0, 3)).is_zero


def test_polynomial_times_scalar_keeps_the_coefficient_products():
    # q * s goes through _scaled when s is a constant and through the scalar
    # product otherwise; both give each coefficient's product, in degree
    # order; _scaled(w, 1) is w times the derivative
    rng = random.Random(17)
    for _ in range(200):
        q = Polynomial({k: _wide_scalar(rng) for k in range(rng.randint(0, 6))})
        s = _wide_scalar(rng)
        if rng.random() < 0.4:
            s = ScalarCoeff({(): next(iter(s.terms.values()), (0, 0, 1))})  # constant
        want = [(k, _reference_product(c, s)) for k, c in q.coeffs.items()]
        assert [(k, _weights(c)) for k, c in (q * s).coeffs.items()] == [
            (k, w) for k, w in want if w]
        if len(s.terms) == 1 and () in s.terms:
            p, r, d = s.terms[()]
            assert [(k, _weights(c)) for k, c in q._scaled((p, r, d), 1).coeffs.items()] == [
                (k - 1, _reference_product(c, ScalarCoeff({(): (k * p, k * r, d)})))
                for k, c in q.coeffs.items() if k]


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


def test_the_api_takes_a_callers_fraction():
    # no ccrflow module imports fractions, yet a Fraction operand acts as the
    # int triple of its value; int division and division by zero are as they
    # were, and a float is still refused
    assert ScalarCoeff.rational(Fraction(6, 4), Fraction(-2, 6)).terms == {(): (9, -2, 6)}
    third = ScalarCoeff({(): (-1, 0, 3)})
    assert X * Fraction(-2, 6) == X * third == Fraction(-2, 6) * X
    q = from_list([1, 0, ScalarCoeff.param("m")])
    assert Fraction(1, 2) * q == q * Fraction(1, 2) == q * ScalarCoeff({(): (1, 0, 2)})
    c = ScalarCoeff.rational(3, 1) * ScalarCoeff.param("m")
    assert (c / Fraction(-3, 4)).terms == {(("m", 1),): (-12, -4, 3)}
    assert (c / -6).terms == {(("m", 1),): (-3, -1, 6)}
    rng = random.Random(19)
    for _ in range(200):
        s, k = rnd_scalar(rng), rng.choice([-1, 1]) * rng.randint(1, 2 ** 70)
        assert s / k == s * ScalarCoeff.rational(Fraction(1, k))
        assert s / Fraction(k, 7) == s * ScalarCoeff.rational(Fraction(7, k))
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            c / zero
    with pytest.raises(TypeError, match="expected int or Fraction, got float"):
        ScalarCoeff.rational(1.5)
    for refused in (lambda: c / 1.5, lambda: c * 1.5, lambda: X * 0.5, lambda: 0.5 * q):
        with pytest.raises(TypeError):
            refused()


def _fraction_text(re, im):
    """The text the exact layer printed for re + i im through str(Fraction)."""
    if im == 0:
        return str(re) if re.denominator == 1 else f"({re})"
    return f"({re},{im})"


def test_rational_text_prints_what_fraction_printed():
    # p/d with math.gcd gives str(Fraction)'s bytes: signs, a zero imaginary
    # part, integers, and weights past 10^100
    rng = random.Random(20)
    for _ in range(3000):
        top = 10 ** rng.choice([1, 2, 30, 120])
        p, d = rng.randint(-top, top), rng.randint(1, top)
        q = rng.choice([0, rng.randint(-top, top)])
        assert opalg._rational_text(p, q, d) == _fraction_text(Fraction(p, d), Fraction(q, d))
    # 4,300 digits print; one more is Python's cap on an int printed in decimal
    assert opalg._rational_text(-10 ** 4299, 0, 3) == _fraction_text(Fraction(-10 ** 4299, 3), 0)
    for p, q, d in ((10 ** 4300, 0, 1), (1, 0, 10 ** 4300), (1, -10 ** 4300, 3)):
        with pytest.raises(ValueError):
            _fraction_text(Fraction(p, d), Fraction(q, d))
        with pytest.raises(OverflowError, match="more than 4300 digits, too many to print"):
            opalg._rational_text(p, q, d)


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
    q = from_list([1, 0, 3])
    assert q.as_opexpr("X") == ONE + X * X * 3
    assert q.as_opexpr("P") == ONE + P * P * 3


# ---- serialization ----

def test_canonical_text_matches_examples():
    e = X * X * P * ScalarCoeff.rational(Fraction(3, 2)) - OpExpr.scalar(I)
    assert e.canonical_text() == "(3/2)*X^2*P - (0,1)*1"
    assert OpExpr.zero().canonical_text() == "0"
    assert (X * ScalarCoeff.param("m", -1)).canonical_text() == "m^-1*X"


def test_canonical_text_prints_long_words():
    assert (P ** 40 * X ** 40).canonical_text().startswith(
        "X^40*P^40 - (0,1600)*X^39*P^39 - 1216800*X^38*P^38 + ")
    assert (X * P ** 3 + P * 2).canonical_text() == "X*P^3 + 2*P"


def test_scalar_too_long_to_print_is_overflow():
    big = OpExpr.scalar(ScalarCoeff.rational(123456789) ** 4096)
    with pytest.raises(OverflowError, match="more than 4300 digits"):
        big.canonical_text()


def test_canonical_text_is_deterministic():
    rng = random.Random(14)
    for _ in range(20):
        e = rnd_opexpr(rng)
        rebuilt = OpExpr(dict(reversed(list(e.terms.items()))))
        assert e.canonical_text() == rebuilt.canonical_text()


def test_word_validation():
    with pytest.raises(ValueError):
        OpExpr.word("XQ")
