"""Exact algebra of the Weyl pair X, P with [X, P] = i.

Elements are finite sums of normal-ordered monomials X^a P^b (all X before
all P), keyed by the exponent pair (a, b).  Scalars are exact: complex
rationals times integer-power monomials in named real parameters (m, omega,
F0, ...), so every identity in this module closes without floating point.
Every product is normal-ordered as it is built, by the closed form that the
CCR gives for two ordered monomials,

    X^a P^b X^c P^d = sum_r C(b, r) c!/(c-r)! (-i)^r X^(a+c-r) P^(b+d-r),

(Blasiak, Penson and Solomon, Phys. Lett. A 309, 198 (2003), read with
a+ = X and a = iP), so there is no second representation to reduce.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "ScalarCoeff",
    "OpExpr",
    "Polynomial",
    "InversePower",
    "X",
    "P",
    "ONE",
    "commutator",
    "inverse_power_rule",
    "apply_to_polynomial",
    "word_sort_key",
    "DomainError",
]


class DomainError(ValueError):
    """Well-formed input outside the domain a result exists on (a caustic, a
    grid too coarse, a flow that is not affine).  The numeric modules'
    errors subclass it, so catching it needs no numeric import."""


def word_sort_key(word: tuple[int, int]) -> tuple[int, int]:
    """Serialization order of X^a P^b: higher degree first, then more X first."""
    a, b = word
    return (-a - b, -a)


# A complex rational is a tuple (p, q, d) of ints with the value (p + i q)/d,
# d > 0 and gcd(p, q, d) = 1, so equal values are equal tuples.  Int
# arithmetic with one gcd per operation is several times faster than
# Fraction pairs.

def _reduced(p: int, q: int, d: int) -> tuple[int, int, int]:
    g = math.gcd(p, q, d)
    return (p // g, q // g, d // g) if g > 1 else (p, q, d)


def _c_add(x: tuple, y: tuple) -> tuple[int, int, int]:
    (p, q, d), (r, s, e) = x, y
    if d == e:
        return _reduced(p + r, q + s, d)
    return _reduced(p * e + r * d, q * e + s * d, d * e)


def _c_mul(x: tuple, y: tuple) -> tuple[int, int, int]:
    (p, q, d), (r, s, e) = x, y
    return _reduced(p * r - q * s, p * s + q * r, d * e)


def _complex_rational(re, im=0) -> tuple[int, int, int]:
    """re + i im, each an int or a Fraction, as a complex rational."""
    if type(re) is int and type(im) is int:
        return (re, im, 1)
    for v in (re, im):
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, got {type(v).__name__}")
    return _reduced(re.numerator * im.denominator, im.numerator * re.denominator,
                    re.denominator * im.denominator)


def _minus_i_power(n: int, r: int) -> tuple[int, int, int]:
    """n (-i)^r as a complex rational."""
    return ((n, 0, 1), (0, -n, 1), (-n, 0, 1), (0, n, 1))[r % 4]


class ScalarCoeff:
    """Exact scalar: a sum of parameter monomials with complex-rational weights.

    ``terms`` maps a monomial key -- a sorted tuple of (name, exponent) pairs
    with nonzero integer exponents -- to a complex rational (p, q, d), the
    weight (p + i q)/d in lowest terms.  The empty tuple is the constant
    monomial.  Sums and products of scalars stay in this ring, so the
    representation is closed under all operations used by the operator layer.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, tuple[int, int, int]] | None = None):
        self.terms = {mono: w for mono, w in terms.items() if w[0] or w[1]} if terms else {}

    @classmethod
    def _nonzero(cls, terms: dict) -> "ScalarCoeff":
        """A scalar over weights that are all nonzero, kept without the
        filter: a product of nonzero complex rationals is never zero."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- constructors --
    @classmethod
    def rational(cls, re, im=0) -> "ScalarCoeff":
        return cls({(): _complex_rational(re, im)})

    @classmethod
    def param(cls, name: str, power: int = 1) -> "ScalarCoeff":
        if power == 0:
            return cls.rational(1)
        return cls({((name, power),): (1, 0, 1)})

    @classmethod
    def zero(cls) -> "ScalarCoeff":
        return cls()

    @classmethod
    def imag_unit(cls) -> "ScalarCoeff":
        return cls.rational(0, 1)

    # -- predicates --
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_single_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_sizes(self) -> list[tuple[int, int]]:
        """(parameters, bits of the longest integer in its weight) of each
        monomial."""
        return [(len(mono), max(p.bit_length(), q.bit_length(), d.bit_length()))
                for mono, (p, q, d) in self.terms.items()]

    # -- ring operations --
    def __add__(self, other) -> "ScalarCoeff":
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, w in other.terms.items():
            out[mono] = _c_add(out[mono], w) if mono in out else w
        return ScalarCoeff(out)

    __radd__ = __add__

    def __neg__(self) -> "ScalarCoeff":
        return ScalarCoeff._nonzero({m: (-p, -q, d) for m, (p, q, d) in self.terms.items()})

    def __sub__(self, other) -> "ScalarCoeff":
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ScalarCoeff":
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other) -> "ScalarCoeff":
        # own class first: Fraction is an ABC, and its isinstance test is slow
        if not isinstance(other, ScalarCoeff):
            if isinstance(other, (int, Fraction)):
                return self._scaled(_complex_rational(other))
            return NotImplemented
        if len(self.terms) == 1 == len(other.terms):
            (m1, w1), = self.terms.items()
            (m2, w2), = other.terms.items()
            return ScalarCoeff._nonzero(
                {_merge_monomials(m1, m2) if m1 and m2 else m1 or m2: _c_mul(w1, w2)})
        out: dict[tuple, tuple[int, int, int]] = {}
        for m1, w1 in self.terms.items():
            for m2, w2 in other.terms.items():
                mono = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
                w = _c_mul(w1, w2)
                out[mono] = _c_add(out[mono], w) if mono in out else w
        return ScalarCoeff(out)

    __rmul__ = __mul__

    def _scaled(self, w: tuple[int, int, int]) -> "ScalarCoeff":
        """Product with the constant complex rational w, such as an int or
        a Gaussian integer: one product per monomial."""
        if not (w[0] or w[1]):
            return ScalarCoeff()
        return ScalarCoeff._nonzero({m: _c_mul(v, w) for m, v in self.terms.items()})

    def __truediv__(self, other) -> "ScalarCoeff":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self._scaled(_complex_rational(1 / Fraction(other)))
        return NotImplemented

    def __pow__(self, n: int) -> "ScalarCoeff":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ScalarCoeff.rational(1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "ScalarCoeff":
        """Invert a single-monomial scalar; anything else has no inverse here."""
        if len(self.terms) != 1:
            raise ValueError("only single-monomial scalars are invertible")
        (mono, (p, q, d)), = self.terms.items()
        inv_mono = tuple((name, -k) for name, k in mono)
        return ScalarCoeff({inv_mono: _reduced(d * p, -d * q, p * p + q * q)})

    def __eq__(self, other) -> bool:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; never used as a key

    # -- evaluation and display --
    def evaluate(self, params: Mapping[str, float] | None = None) -> complex:
        """Numeric value with parameters bound to floats."""
        params = params or {}
        total = 0j
        for mono, (p, q, d) in self.terms.items():
            factor = 1.0
            for name, k in mono:
                if name not in params:
                    raise KeyError(f"unbound parameter {name!r}")
                factor *= params[name] ** k
            total += complex(p / d, q / d) * factor
        return total

    def text(self) -> str:
        body, negative = scalar_sign_split(self)
        return "-" + body if negative else body

    def __repr__(self) -> str:
        return f"ScalarCoeff({self.text()})"


def _coerce_scalar(v):
    if isinstance(v, ScalarCoeff):
        return v
    if isinstance(v, (int, Fraction)):
        return ScalarCoeff.rational(v)
    return NotImplemented


def _merge_monomials(m1: tuple, m2: tuple) -> tuple:
    powers: dict[str, int] = {}
    for name, k in m1:
        powers[name] = powers.get(name, 0) + k
    for name, k in m2:
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted((n, k) for n, k in powers.items() if k))


def _rational_text(re: Fraction, im: Fraction) -> str:
    try:
        if im == 0:
            return str(re) if re.denominator == 1 else f"({re})"
        return f"({re},{im})"
    except ValueError:  # Python's cap on the digits of an int printed in decimal
        raise too_long_to_print() from None


def too_long_to_print() -> OverflowError:
    return OverflowError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                         "digits, too many to print")


def _signed_sum(parts: list[tuple[bool, str]]) -> str:
    """Join (negative, text) terms as ``a - b + c``; a leading '+' is dropped."""
    return " ".join(("- " if negative else "+ ") + text if i else
                    ("-" if negative else "") + text
                    for i, (negative, text) in enumerate(parts))


def _term_text(coeff: "ScalarCoeff", unit: str) -> tuple[bool, str]:
    """(negative, text) of coeff times a unit such as ``X^2*P`` or ``1``."""
    body, negative = scalar_sign_split(coeff)
    return negative, unit if body == "1" else body + "*" + unit


def scalar_sign_split(c: ScalarCoeff) -> tuple[str, bool]:
    """Canonical text of a scalar, with a leading sign factored out when the
    scalar is a single monomial.  Multi-term scalars render parenthesized."""
    if c.is_zero:
        return "0", False
    parts = []
    for mono, (p, q, d) in sorted(c.terms.items(), key=lambda kv: kv[0]):
        negative = p < 0 or (p == 0 and q < 0)
        if negative:
            p, q = -p, -q
        factors = [name if k == 1 else f"{name}^{k}" for name, k in mono]
        if not (p == d and q == 0 and factors):
            factors.insert(0, _rational_text(Fraction(p, d), Fraction(q, d)))
        parts.append((negative, "*".join(factors)))
    if len(parts) == 1:
        negative, body = parts[0]
        return body, negative
    return "(" + _signed_sum(parts) + ")", False


class OpExpr:
    """Finite sum of normal-ordered monomials X^a P^b with scalar coefficients.

    ``terms`` maps an exponent pair (a, b) to the ScalarCoeff of X^a P^b;
    (0, 0) is the identity.  Every element is built normal-ordered, so the
    representation is unique and equality compares terms.  Values are
    immutable by convention: no method mutates an existing instance.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], ScalarCoeff] | None = None):
        self.terms = {w: c for w, c in terms.items() if not c.is_zero} if terms else {}

    # -- constructors --
    @classmethod
    def word(cls, word: str, coeff=1) -> "OpExpr":
        """coeff times the product of the letters of word, e.g. "PXP"."""
        if any(g not in "XP" for g in word):
            raise ValueError(f"word may contain only X and P, got {word!r}")
        out = cls.scalar(coeff)
        for g in word:
            out = out * cls({(1, 0) if g == "X" else (0, 1): ScalarCoeff.rational(1)})
        return out

    @classmethod
    def scalar(cls, value) -> "OpExpr":
        return cls({(0, 0): _coerce_scalar(value)})

    @classmethod
    def zero(cls) -> "OpExpr":
        return cls()

    # -- linear structure --
    def __add__(self, other) -> "OpExpr":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out[word] + coeff if word in out else coeff
        return OpExpr(out)

    __radd__ = __add__

    @classmethod
    def signed_sum(cls, parts: Iterable[tuple[int, "OpExpr"]]) -> "OpExpr":
        """The sum of sign * part over (sign, part) pairs, sign 1 or -1, in one
        pass: the left fold copies the running sum at every term.  The terms
        come in the fold's order (a word or parameter monomial that cancels
        leaves at once, and one that comes back is appended), so
        ScalarCoeff.evaluate sums their values in the same order."""
        out: dict[tuple[int, int], dict] = {}
        for sign, part in parts:
            for word, coeff in part.terms.items():
                weights = out.setdefault(word, {})
                for mono, (p, q, d) in coeff.terms.items():
                    w = (sign * p, sign * q, d)
                    if mono in weights:
                        w = _c_add(weights[mono], w)
                        if not (w[0] or w[1]):
                            del weights[mono]
                            continue
                    weights[mono] = w
                if not weights:
                    del out[word]
        return cls({word: ScalarCoeff(weights) for word, weights in out.items()})

    def __neg__(self) -> "OpExpr":
        return OpExpr({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "OpExpr":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OpExpr":
        return _coerce_op(other) + (-self)

    def __mul__(self, other) -> "OpExpr":
        """Operator product, normal-ordered term by term with
        X^a P^b X^c P^d = sum_r C(b, r) c!/(c-r)! (-i)^r X^(a+c-r) P^(b+d-r).
        Scalars multiply coefficients in place."""
        if not isinstance(other, OpExpr):
            if isinstance(other, (ScalarCoeff, int, Fraction)):
                c = _coerce_scalar(other)
                return OpExpr({w: cf * c for w, cf in self.terms.items()})
            return NotImplemented
        out: dict[tuple[int, int], ScalarCoeff] = {}
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                coeff = c1 * c2
                weight = 1  # C(b, r) c!/(c-r)!
                for r in range(min(b, c) + 1):
                    word = (a + c - r, b + d - r)
                    term = coeff._scaled(_minus_i_power(weight, r)) if r else coeff
                    out[word] = out[word] + term if word in out else term
                    weight = weight * (b - r) * (c - r) // (r + 1)
        return OpExpr(out)

    def __rmul__(self, other) -> "OpExpr":
        if isinstance(other, (ScalarCoeff, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "OpExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be non-negative integers")
        out = OpExpr.scalar(1)
        for _ in range(n):
            out = out * self
        return out

    # -- canonical form --
    def normal_order(self) -> "OpExpr":
        """The element itself: every OpExpr is normal-ordered when built."""
        return self

    def __eq__(self, other) -> bool:
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- display --
    def canonical_text(self) -> str:
        """Deterministic serialization, e.g. ``(3/2)*X^2*P - (0,1)*1``."""
        if not self.terms:
            return "0"
        return _signed_sum([
            _term_text(self.terms[word], "*".join(
                f"{g}^{k}" if k > 1 else g for g, k in zip("XP", word) if k) or "1")
            for word in sorted(self.terms, key=word_sort_key)])

    def __repr__(self) -> str:
        return f"OpExpr({self.canonical_text()})"


def _coerce_op(v):
    if isinstance(v, OpExpr):
        return v
    if isinstance(v, (ScalarCoeff, int, Fraction)):
        return OpExpr.scalar(v)
    return NotImplemented


X = OpExpr.word("X")
P = OpExpr.word("P")
ONE = OpExpr.scalar(1)


def commutator(a: OpExpr, b: OpExpr) -> OpExpr:
    """[a, b] = ab - ba; bilinear and antisymmetric."""
    return a * b - b * a


class InversePower(NamedTuple):
    """[X^-n, P] as coeff * X^exponent; inverse powers never enter words."""
    exponent: int
    coeff: ScalarCoeff


def inverse_power_rule(n: int) -> InversePower:
    """[X^-n, P] = -i n X^(-n-1) for n >= 1, as an (exponent, coefficient) pair."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("inverse_power_rule requires n >= 1; [1, P] = 0 for n = 0")
    return InversePower(-n - 1, ScalarCoeff.rational(0, -n))


class Polynomial:
    """Polynomial in one commuting variable with exact scalar coefficients.

    Doubles as the test-function space for the differential-operator oracle
    and as the container for force and velocity laws.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, ScalarCoeff] | None = None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if k < 0:
                    raise ValueError("polynomial degrees must be non-negative")
                if not c.is_zero:
                    clean[k] = c
        self.coeffs = clean

    @classmethod
    def _nonzero(cls, coeffs: dict) -> "Polynomial":
        """A polynomial over nonzero coefficients at degrees >= 0, kept
        without the checks."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls({degree: _coerce_scalar(coeff)})

    @classmethod
    def from_list(cls, ascending: Iterable) -> "Polynomial":
        return cls({k: _coerce_scalar(c) for k, c in enumerate(ascending)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return Polynomial(out)

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._nonzero({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if isinstance(other, (ScalarCoeff, int, Fraction)):
                c = _coerce_scalar(other)
                return Polynomial({k: cf * c for k, cf in self.coeffs.items()})
            return NotImplemented
        out: dict[int, ScalarCoeff] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    __hash__ = None

    def derivative(self) -> "Polynomial":
        return Polynomial._nonzero({k - 1: c * k for k, c in self.coeffs.items() if k > 0})

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant term."""
        return Polynomial({k + 1: c / (k + 1) for k, c in self.coeffs.items()})

    def shift_up(self) -> "Polynomial":
        """Multiply by the variable (the X action in the oracle)."""
        return Polynomial._nonzero({k + 1: c for k, c in self.coeffs.items()})

    def as_opexpr(self, generator: str) -> OpExpr:
        """Substitute X or P for the commuting variable."""
        if generator not in ("X", "P"):
            raise ValueError("generator must be 'X' or 'P'")
        return OpExpr({(k, 0) if generator == "X" else (0, k): c
                       for k, c in self.coeffs.items()})

    def evaluate(self, x, params: Mapping[str, float] | None = None) -> complex:
        total = 0j
        for k, c in self.coeffs.items():
            total += c.evaluate(params) * x ** k
        return total

    def text(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        return _signed_sum([
            _term_text(self.coeffs[k], "1" if k == 0 else (var if k == 1 else f"{var}^{k}"))
            for k in sorted(self.coeffs)])

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


def apply_to_polynomial(e: OpExpr, q: Polynomial) -> Polynomial:
    """Realize e on polynomials: X multiplies by x, P applies -i d/dx.

    X^a P^b sends c x^k to (-i)^b k!/(k-b)! c x^(k-b+a).  Exact on this
    space, and an algebra homomorphism, so acting letter by letter on a word
    is an independent oracle for the ordered product.
    """
    out: dict[int, ScalarCoeff] = {}
    for (a, b), coeff in e.terms.items():
        for k, c in q.coeffs.items():
            if k >= b:
                term = (coeff * c)._scaled(_minus_i_power(math.perm(k, b), b))
                deg = k - b + a
                out[deg] = out[deg] + term if deg in out else term
    return Polynomial(out)
