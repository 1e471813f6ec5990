"""Exact algebra of the Weyl pair X, P with [X, P] = i.

Elements are finite sums of scalar-coefficient words over the noncommuting
generators X and P.  Scalars are exact: complex rationals times integer-power
monomials in named real parameters (m, omega, F0, ...), so every identity in
this module closes without floating point.  Normal ordering rewrites every
word so that all X precede all P: one left fold over its letters, where
appending X to X^a P^b gives X^(a+1) P^b - i b X^a P^(b-1), the CCR applied
once.
"""

from __future__ import annotations

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
    "normal_order",
    "multiply",
    "commutator",
    "inverse_power_rule",
    "apply_to_polynomial",
    "equals",
    "word_sort_key",
]

_Q0 = Fraction(0)
_Q1 = Fraction(1)

# deterministic word order for serialization: longer words first, then
# lexicographic with X < P
_WORD_ORD = str.maketrans("XP", "01")


def word_sort_key(word: str) -> tuple[int, str]:
    return (-len(word), word.translate(_WORD_ORD))


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ScalarCoeff:
    """Exact scalar: a sum of parameter monomials with complex-rational weights.

    ``terms`` maps a monomial key -- a sorted tuple of (name, exponent) pairs
    with nonzero integer exponents -- to a (real, imag) pair of Fractions.
    The empty tuple is the constant monomial.  Sums and products of scalars
    stay in this ring, so the representation is closed under all operations
    used by the operator layer.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, tuple[Fraction, Fraction]] | None = None):
        clean = {}
        if terms:
            for mono, (re, im) in terms.items():
                if re or im:
                    clean[mono] = (re, im)
        self.terms = clean

    # -- constructors --
    @classmethod
    def rational(cls, re, im=0) -> "ScalarCoeff":
        re = _as_fraction(re)
        im = _as_fraction(im)
        return cls({(): (re, im)})

    @classmethod
    def param(cls, name: str, power: int = 1) -> "ScalarCoeff":
        if power == 0:
            return cls.rational(1)
        return cls({((name, power),): (_Q1, _Q0)})

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

    # -- ring operations --
    def __add__(self, other) -> "ScalarCoeff":
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, (re, im) in other.terms.items():
            ore, oim = out.get(mono, (_Q0, _Q0))
            out[mono] = (ore + re, oim + im)
        return ScalarCoeff(out)

    __radd__ = __add__

    def __neg__(self) -> "ScalarCoeff":
        return ScalarCoeff({m: (-re, -im) for m, (re, im) in self.terms.items()})

    def __sub__(self, other) -> "ScalarCoeff":
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ScalarCoeff":
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other) -> "ScalarCoeff":
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, tuple[Fraction, Fraction]] = {}
        for m1, (a, b) in self.terms.items():
            for m2, (c, d) in other.terms.items():
                mono = _merge_monomials(m1, m2)
                re = a * c - b * d
                im = a * d + b * c
                ore, oim = out.get(mono, (_Q0, _Q0))
                out[mono] = (ore + re, oim + im)
        return ScalarCoeff(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScalarCoeff":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * ScalarCoeff.rational(Fraction(1, 1) / Fraction(other))
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
        (mono, (re, im)), = self.terms.items()
        norm = re * re + im * im
        inv_mono = tuple((name, -k) for name, k in mono)
        return ScalarCoeff({inv_mono: (re / norm, -im / norm)})

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
        for mono, (re, im) in self.terms.items():
            factor = 1.0
            for name, k in mono:
                if name not in params:
                    raise KeyError(f"unbound parameter {name!r}")
                factor *= params[name] ** k
            total += complex(float(re), float(im)) * factor
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
    if im == 0:
        return str(re) if re.denominator == 1 else f"({re})"
    return f"({re},{im})"


def _monomial_factors(mono: tuple) -> list[str]:
    return [name if k == 1 else f"{name}^{k}" for name, k in mono]


def scalar_sign_split(c: ScalarCoeff) -> tuple[str, bool]:
    """Canonical text of a scalar, with a leading sign factored out when the
    scalar is a single monomial.  Multi-term scalars render parenthesized."""
    if c.is_zero:
        return "0", False
    items = sorted(c.terms.items(), key=lambda kv: kv[0])
    if len(items) == 1:
        mono, (re, im) = items[0]
        negative = re < 0 or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        factors = _monomial_factors(mono)
        if not (re == 1 and im == 0 and factors):
            factors.insert(0, _rational_text(re, im))
        return "*".join(factors), negative
    parts = []
    for mono, (re, im) in items:
        negative = re < 0 or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        factors = _monomial_factors(mono)
        if not (re == 1 and im == 0 and factors):
            factors.insert(0, _rational_text(re, im))
        body = "*".join(factors)
        parts.append(("- " if negative else "+ ") + body if parts else
                     ("-" + body if negative else body))
    return "(" + " ".join(parts) + ")", False


# ---------------------------------------------------------------------------
# normal ordering of bare words, with Gaussian-integer bookkeeping
# ---------------------------------------------------------------------------

def _normal_order_word(word: str) -> dict[str, tuple[int, int]]:
    """Expand a word into normal-ordered words with Gaussian-integer weights.

    A left fold over the letters keeps the weight of each X^a P^b.  Appending
    P raises b; appending X applies [X, P] = i once:
    X^a P^b X = X^(a+1) P^b - i b X^a P^(b-1).
    """
    terms = {(0, 0): (1, 0)}
    for letter in word:
        if letter == "P":
            terms = {(a, b + 1): w for (a, b), w in terms.items()}
            continue
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (a, b), (re, im) in terms.items():
            ore, oim = out.get((a + 1, b), (0, 0))
            out[a + 1, b] = (ore + re, oim + im)
            if b:
                # times -i b: (re + i*im)(-i b) = b*im - i*b*re
                ore, oim = out.get((a, b - 1), (0, 0))
                out[a, b - 1] = (ore + b * im, oim - b * re)
        terms = out
    return {"X" * a + "P" * b: w for (a, b), w in terms.items()}


class OpExpr:
    """Finite sum of scalar-coefficient words over {X, P}.

    ``terms`` maps a word (a string over "X" and "P"; "" is the identity) to a
    ScalarCoeff.  Values are immutable by convention: no method mutates an
    existing instance, so sharing across threads is safe.  Equality compares
    normal-ordered forms, which are unique.
    """

    __slots__ = ("terms", "_nf")

    def __init__(self, terms: Mapping[str, ScalarCoeff] | None = None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if not coeff.is_zero:
                    clean[word] = coeff
        self.terms = clean
        self._nf = None

    # -- constructors --
    @classmethod
    def word(cls, word: str, coeff=1) -> "OpExpr":
        if any(g not in "XP" for g in word):
            raise ValueError(f"word may contain only X and P, got {word!r}")
        c = _coerce_scalar(coeff)
        return cls({word: c})

    @classmethod
    def scalar(cls, value) -> "OpExpr":
        return cls({"": _coerce_scalar(value)})

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
            if word in out:
                out[word] = out[word] + coeff
            else:
                out[word] = coeff
        return OpExpr(out)

    __radd__ = __add__

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
        """Operator product by word concatenation; the result is NOT
        normal-ordered.  Scalars multiply coefficients in place."""
        if isinstance(other, (int, Fraction, ScalarCoeff)):
            c = _coerce_scalar(other)
            return OpExpr({w: cf * c for w, cf in self.terms.items()})
        if not isinstance(other, OpExpr):
            return NotImplemented
        out: dict[str, ScalarCoeff] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                c = c1 * c2
                if word in out:
                    out[word] = out[word] + c
                else:
                    out[word] = c
        return OpExpr(out)

    def __rmul__(self, other) -> "OpExpr":
        if isinstance(other, (int, Fraction, ScalarCoeff)):
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
        """Rewrite every word with all X before all P via PX -> XP - i.

        Idempotent; the result represents the same algebra element.
        """
        if self._nf is not None:
            return self._nf
        out: dict[str, ScalarCoeff] = {}
        for word, coeff in self.terms.items():
            for nw, (gre, gim) in _normal_order_word(word).items():
                c = coeff * ScalarCoeff.rational(gre, gim)
                if nw in out:
                    out[nw] = out[nw] + c
                else:
                    out[nw] = c
        nf = OpExpr(out)
        nf._nf = nf
        self._nf = nf
        return nf

    def is_normal_ordered(self) -> bool:
        return all("PX" not in w for w in self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        a = self.normal_order().terms
        b = other.normal_order().terms
        if a.keys() != b.keys():
            return False
        return all(a[w] == b[w] for w in a)

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.normal_order().terms

    def max_word_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    # -- display --
    def canonical_text(self) -> str:
        """Deterministic serialization, e.g. ``(3/2)*X^2*P - (0,1)*1``."""
        nf = self.normal_order()
        if not nf.terms:
            return "0"
        parts = []
        for word in sorted(nf.terms, key=word_sort_key):
            body, negative = scalar_sign_split(nf.terms[word])
            wtext = _word_text(word)
            if body == "1":
                text = wtext
            elif wtext == "1":
                text = body + "*1"
            else:
                text = body + "*" + wtext
            if not parts:
                parts.append("-" + text if negative else text)
            else:
                parts.append(("- " if negative else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"OpExpr({self.canonical_text()})"

    def evaluate(self, params: Mapping[str, float] | None = None) -> dict[str, complex]:
        """Numeric coefficient of each word, parameters bound to floats."""
        return {w: c.evaluate(params) for w, c in self.terms.items()}


def _word_text(word: str) -> str:
    if not word:
        return "1"
    factors = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        factors.append(word[i] if run == 1 else f"{word[i]}^{run}")
        i = j
    return "*".join(factors)


def _coerce_op(v):
    if isinstance(v, OpExpr):
        return v
    if isinstance(v, (int, Fraction, ScalarCoeff)):
        return OpExpr.scalar(v)
    return NotImplemented


X = OpExpr.word("X")
P = OpExpr.word("P")
ONE = OpExpr.scalar(1)


def normal_order(e: OpExpr) -> OpExpr:
    return e.normal_order()


def multiply(a: OpExpr, b: OpExpr) -> OpExpr:
    """Free (concatenation) product, distributed over terms; not normal-ordered."""
    return a * b


def commutator(a: OpExpr, b: OpExpr) -> OpExpr:
    """Normal-ordered [a, b] = ab - ba; bilinear and antisymmetric."""
    return (a * b - b * a).normal_order()


def equals(a: OpExpr, b: OpExpr) -> bool:
    return a == b


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
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls({degree: _coerce_scalar(coeff)})

    @classmethod
    def from_list(cls, ascending: Iterable) -> "Polynomial":
        return cls({k: _coerce_scalar(c) for k, c in enumerate(ascending)})

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

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
        return Polynomial({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, ScalarCoeff)):
            c = _coerce_scalar(other)
            return Polynomial({k: cf * c for k, cf in self.coeffs.items()})
        if not isinstance(other, Polynomial):
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
        return Polynomial({k - 1: c * k for k, c in self.coeffs.items() if k > 0})

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant term."""
        return Polynomial({k + 1: c / (k + 1) for k, c in self.coeffs.items()})

    def shift_up(self) -> "Polynomial":
        """Multiply by the variable (the X action in the oracle)."""
        return Polynomial({k + 1: c for k, c in self.coeffs.items()})

    def as_opexpr(self, generator: str) -> OpExpr:
        """Substitute X or P for the commuting variable."""
        if generator not in ("X", "P"):
            raise ValueError("generator must be 'X' or 'P'")
        return OpExpr({generator * k: c for k, c in self.coeffs.items()})

    def evaluate(self, x, params: Mapping[str, float] | None = None) -> complex:
        total = 0j
        for k, c in self.coeffs.items():
            total += c.evaluate(params) * x ** k
        return total

    def text(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            body, negative = scalar_sign_split(self.coeffs[k])
            vtext = "1" if k == 0 else (var if k == 1 else f"{var}^{k}")
            if body == "1":
                text = vtext
            elif vtext == "1":
                text = body + "*1"
            else:
                text = body + "*" + vtext
            if not parts:
                parts.append("-" + text if negative else text)
            else:
                parts.append(("- " if negative else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


_MINUS_I = ScalarCoeff.rational(0, -1)


def apply_to_polynomial(e: OpExpr, q: Polynomial) -> Polynomial:
    """Realize e on polynomials: X multiplies by x, P applies -i d/dx.

    Exact on this space, and an algebra homomorphism, so it serves as an
    independent oracle for normal ordering: equivalent expressions act
    identically on every polynomial.
    """
    total = Polynomial.zero()
    for word, coeff in e.terms.items():
        r = q
        for gen in reversed(word):
            r = r.shift_up() if gen == "X" else r.derivative() * _MINUS_I
        total = total + r * coeff
    return total
