"""Reference bracket over the rationals.

``liealg.structure_table`` brackets basis monomials by adding their
integer roots. This oracle brackets the operators themselves: a
``LieElement`` is an exact rational combination of monomials
x^a d/dx_j, and ``bracket`` extends the commutator rule for two
monomials bilinearly. The closure, RREF and pairwise-table oracles and
the bracket tests all build on it.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple


def _monomial_str(coeff, exps, dvar) -> str:
    """coeff * x^exps * d/dx_dvar, the coefficient left out when it is 1."""
    body = "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(exps)
        if e
    )
    c = "" if coeff == 1 else f"{coeff}*"
    return f"{c}{body + '*' if body else ''}d{dvar}"


def _bracket_monomials(a_exps, a_d, b_exps, b_d):
    """[x^a d_i, x^b d_j] as a list of ((exps, dvar), integer coefficient)."""
    out = []
    bi = b_exps[a_d - 1]
    if bi:
        e = list(a_exps)
        for k, v in enumerate(b_exps):
            e[k] += v
        e[a_d - 1] -= 1
        out.append(((tuple(e), b_d), bi))
    aj = a_exps[b_d - 1]
    if aj:
        e = list(a_exps)
        for k, v in enumerate(b_exps):
            e[k] += v
        e[b_d - 1] -= 1
        out.append(((tuple(e), a_d), -aj))
    return out


class LieElement:
    """Exact rational combination of operator monomials x^a d/dx_j."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Tuple[Tuple[int, ...], int], Fraction] = None):
        self.n = n
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def monomial(cls, n: int, coeff, exps: Sequence[int], dvar: int) -> "LieElement":
        return cls(n, {(tuple(exps), dvar): Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LieElement(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LieElement":
        c = Fraction(c)
        return LieElement(self.n, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(_monomial_str(c, exps, d) for (exps, d), c in sorted(self.terms.items()))

    __repr__ = __str__


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Commutator, extended bilinearly from the monomial rule."""
    if a.n != b.n:
        raise ValueError("mismatched variable counts")
    out: Dict[Tuple[Tuple[int, ...], int], Fraction] = {}
    for (ae, ad), ac in a.terms.items():
        for (be, bd), bc in b.terms.items():
            for key, mult in _bracket_monomials(ae, ad, be, bd):
                out[key] = out.get(key, Fraction(0)) + ac * bc * mult
    return LieElement(a.n, out)
