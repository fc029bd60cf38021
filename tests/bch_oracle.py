"""Reference routes to the regrouping series a = x/(1 - exp(-x)).

``firstorder.bch_coefficients`` builds a from the tangent numbers. These
routes share nothing with it: ``series_inversion`` inverts
theta = (1 - exp(-x))/x term by term in Fraction arithmetic, and
``bch_coefficient_nested_sum`` sums one coefficient over compositions.
"""

from fractions import Fraction
from math import factorial

from treelie.firstorder import BchCoefficients


def series_inversion(order: int) -> BchCoefficients:
    """a from a_0 = 1 and a_k = -(theta_1 a_(k-1) + ... + theta_k a_0)."""
    theta = tuple(Fraction((-1) ** i, factorial(i + 1)) for i in range(order + 1))
    a = [Fraction(1)]
    for k in range(1, order + 1):
        a.append(-sum(theta[j] * a[k - j] for j in range(1, k + 1)))
    return BchCoefficients(a=tuple(a), theta=theta)


def bch_coefficient_nested_sum(k: int) -> Fraction:
    """The k-th regrouping coefficient as the double sum over compositions
    p_1 + ... + p_m = k + 1 - m with factorial weights."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for m in range(1, k + 2):
        s = k + 1 - m
        for combo in _compositions(s, m):
            denom = 1
            for p in combo[:-1]:
                denom *= factorial(p + 1)
            denom *= factorial(combo[-1])
            total += Fraction((-1) ** (m - 1), m * denom)
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
