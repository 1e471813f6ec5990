"""Polynomials and series sums that several test modules share."""

from ccrflow.opalg import Polynomial, ScalarCoeff


def from_list(ascending) -> Polynomial:
    """The polynomial with coefficient ascending[k] at degree k; each is a
    ScalarCoeff, an int or a Fraction."""
    return Polynomial({k: c if isinstance(c, ScalarCoeff) else ScalarCoeff.rational(c)
                       for k, c in enumerate(ascending)})


def affine_series_at(series, t: float, params) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of X(t) = alpha X + beta P + gamma, summed in
    floats from an affine series sum_k c_k t^k/k! with its parameters bound."""
    out = []
    for word in ((1, 0), (0, 1), (0, 0)):  # X, P, 1
        total, weight = 0j, 1.0
        for k, c in enumerate(series):
            if k:
                weight *= t / k
            total += c.terms.get(word, ScalarCoeff.zero()).evaluate(params) * weight
        assert abs(total.imag) <= 1e-12 * max(1.0, abs(total.real))
        out.append(total.real)
    return tuple(out)
