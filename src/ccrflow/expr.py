"""Operator expressions: the text grammar and its parser.

Grammar for operator expressions (whitespace-insensitive)::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' ['+'|'-'] integer]
    primary := rational | '(' rational ',' rational ')'   # (real, imag)
             | 'X' | 'P' | name | '(' expr ')'
    rational := integer ['/' integer]

Products are left-associative and preserve noncommutative order.  Negative
exponents are accepted only on scalar parameter factors (so ``m^-1`` is the
inverse mass); ``X^-1`` and ``P^-1`` are rejected.  Any identifier other than
X and P names a real parameter.  Parentheses nest at most 100 deep.  Every
product is normal-ordered as it is built, so before each '*' and each step of
a '^' the parser bounds the ordered result: its degree, and the term products
the whole expression has spent (see Caps).

parse(text) reads one expression, and Caps bounds products built outside it
too (the two of a commutator).
"""

from __future__ import annotations

import sys

from . import ExpressionError
from .opalg import ONE, OpExpr, P, ScalarCoeff, X, _reduced, too_long_to_print

__all__ = ["parse", "Caps"]

_SYMBOLS = set("+-*/^(),")
_MAX_DEPTH = 100  # nested parentheses; each level costs four Python frames
_MAX_DEGREE = 2048  # of any product: a + b of its X^a P^b
_MAX_PRODUCTS = 65_536  # term products per expression
_LIMB_BITS = 256  # a coefficient counts as one more term per this many bits
_LIMB_NAMES = 8  # and a parameter monomial per this many parameters
_PRINT_BITS = 14286  # 2^14285 > 10^4300: a longer number has too many digits to print


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value, offset: int):
        self.kind = kind  # "int" | "name" | one of _SYMBOLS | "end"
        self.value = value
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = offset = 0  # offset: the UTF-8 length of text[:i]
    while i < len(text):
        ch = text[i]
        start = i
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # what int() reads; a digit such as '²' is not
            while i < len(text) and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ExpressionError(f"integer of more than {sys.get_int_max_str_digits()} "
                                      "digits", offset) from None
            tokens.append(_Token("int", value, offset))
        elif ch.isalpha() or ch == "_":
            while i < len(text) and (text[i].isalpha() or text[i].isdecimal()
                                     or text[i] == "_"):  # not '²' or '½'
                i += 1
            tokens.append(_Token("name", text[start:i], offset))
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, offset))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", offset)
        offset += len(text[start:i].encode("utf-8"))
    tokens.append(_Token("end", None, offset))
    return tokens


def _shape(e: OpExpr) -> tuple[int, int, int, int]:
    """(degree, highest X power, highest P power, size) of e.  The size counts
    the scalar monomials of all coefficients, each once more for every
    _LIMB_BITS bits of its longest numerator or denominator and for every
    _LIMB_NAMES parameters it holds; it is at least 1, so that even a
    product with zero spends budget."""
    degree = x_max = p_max = size = 0
    for (a, b), coeff in e.terms.items():
        degree, x_max, p_max = max(degree, a + b), max(x_max, a), max(p_max, b)
        for names, bits in coeff.monomial_sizes():
            if bits >= _PRINT_BITS:
                raise too_long_to_print()
            size += 1 + bits // _LIMB_BITS + names // _LIMB_NAMES
    return degree, x_max, p_max, max(size, 1)


class Caps:
    """Bounds the ordered result of each product before it is built.

    Its degree may not exceed _MAX_DEGREE, and all products together may not
    spend more than _MAX_PRODUCTS term products.  a * b spends
    size(a) * size(b) * (1 + overlap) * (1 + weight_bits // _LIMB_BITS):
    overlap = min(highest P power of a, highest X power of b) bounds the
    extra terms the CCR adds per pair, and weight_bits, overlap times the
    bit length of the larger of the two powers, scales with the longest CCR
    weight C(b, r) c!/(c-r)!.  A factor with a coefficient too long to print
    ends the parse as a domain error, the one its printing would raise.
    """

    def __init__(self):
        self.spent = 0

    def product(self, a: OpExpr, b: OpExpr, offset: int | None) -> OpExpr:
        self.charge(a, b, offset)
        return a * b

    def charge(self, a: OpExpr, b: OpExpr, offset: int | None) -> None:
        """Spend a * b's term products without building it; raise where the
        product would pass a cap."""
        deg_a, _, p_a, size_a = _shape(a)
        deg_b, x_b, _, size_b = _shape(b)
        overlap = min(p_a, x_b)
        weight_bits = overlap * max(p_a, x_b).bit_length()
        self.spent += size_a * size_b * (1 + overlap) * (1 + weight_bits // _LIMB_BITS)
        if deg_a + deg_b > _MAX_DEGREE:
            message = f"product of degree {deg_a + deg_b} exceeds {_MAX_DEGREE}"
        elif self.spent > _MAX_PRODUCTS:
            message = f"more than {_MAX_PRODUCTS} term products"
        else:
            return
        raise ValueError(message) if offset is None else ExpressionError(message, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.caps = Caps()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}", tok.offset)
        return self.advance()

    def parse(self) -> OpExpr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError("trailing input", tok.offset)
        return e

    def expr(self) -> OpExpr:
        parts = []
        while not parts or self.peek().kind in ("+", "-"):
            sign = 1
            if self.peek().kind in ("+", "-"):
                sign = -1 if self.advance().kind == "-" else 1
            parts.append((sign, self.term()))
        return OpExpr.signed_sum(parts)

    def term(self) -> OpExpr:
        total = self.factor()
        while self.peek().kind == "*":
            star = self.advance()
            total = self.caps.product(total, self.factor(), star.offset)
        if self.peek().kind == "/":  # rational() reads the '/' of a literal such as 3/2
            raise ExpressionError("'/' divides integer literals only", self.peek().offset)
        return total

    def factor(self) -> OpExpr:
        base = self.primary()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        exponent = sign * self.expect("int").value
        if exponent < 0:
            scalar = _as_scalar_monomial(base)
            if scalar is None:
                raise ExpressionError("negative powers unsupported in words", caret.offset)
            base = OpExpr.scalar(scalar.inverse())
        power = ONE
        for _ in range(abs(exponent)):
            power = self.caps.product(power, base, caret.offset)
        return power

    def primary(self) -> OpExpr:
        tok = self.peek()
        if tok.kind == "int":
            return _constant(self.rational())
        if tok.kind == "name":
            self.advance()
            if tok.value == "X":
                return X
            if tok.value == "P":
                return P
            return OpExpr.scalar(ScalarCoeff.param(tok.value))
        if tok.kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ExpressionError(
                    f"parentheses nested deeper than {_MAX_DEPTH}", tok.offset)
            self.advance()
            saved = self.pos
            try:
                re = self.signed_rational()
                if self.peek().kind == ",":
                    self.advance()
                    im = self.signed_rational()
                    self.expect(")")
                    return _constant(re, im)
            except ExpressionError:
                pass
            self.pos = saved
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ExpressionError("expected a coefficient, X, P, or '('", tok.offset)

    def rational(self) -> tuple[int, int]:
        """(numerator, denominator > 0) of an integer or an a/b literal."""
        num = self.expect("int").value
        if self.peek().kind == "/":
            self.advance()
            den = self.expect("int").value
            if den == 0:
                raise ExpressionError("zero denominator", self.tokens[self.pos - 1].offset)
            return num, den
        return num, 1

    def signed_rational(self) -> tuple[int, int]:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        num, den = self.rational()
        return sign * num, den


def _constant(re: tuple[int, int], im: tuple[int, int] = (0, 1)) -> OpExpr:
    """The scalar re + i im, each a (numerator, denominator > 0) pair, as
    one reduced complex rational."""
    (p, d), (q, e) = re, im
    return OpExpr.scalar(ScalarCoeff({(): _reduced(p * e, q * d, d * e)}))


def _as_scalar_monomial(e: OpExpr) -> ScalarCoeff | None:
    if set(e.terms) <= {(0, 0)}:
        coeff = e.terms.get((0, 0), ScalarCoeff.zero())
        if coeff.is_single_monomial():
            return coeff
    return None


def parse(text: str) -> OpExpr:
    """Parse an operator expression; raises ExpressionError with byte offset."""
    return _Parser(text).parse()
