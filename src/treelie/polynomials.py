"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values. A polynomial stores integer numerators
``num`` (a map from exponent tuples to nonzero ints) over one positive
common denominator ``den``, with no common factor between ``den`` and the
numerators: the content and primitive part of von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 6. Variables that occur in no term are
pruned, so two polynomials are equal exactly when they have the same
``(variables, den, num)``. The variable order is fixed by name class
(x symbols, then y integration temporaries, then z derivative symbols,
then k frequency symbols, then t) and numeric suffix, which makes
serialization deterministic.

Arithmetic works on the integers and builds each result once, through
one normaliser. ``terms`` is the public view of the same polynomial with
``fractions.Fraction`` coefficients. Nothing here evaluates in floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Mapping, Union

__all__ = ["MultiPoly", "series_coeff"]

_CLASS_RANK = {"x": 0, "y": 1, "z": 2, "k": 3, "t": 4}


@lru_cache(maxsize=None)
def _var_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (_CLASS_RANK.get(head, 5), head, int(tail) if tail else 0)


Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff):
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class MultiPoly:
    """Sparse exact polynomial in named variables.

    Supports ring arithmetic through operators, simultaneous substitution,
    variable renaming, formal differentiation and definite integration
    from zero; a caller that needs a float rounds ``num`` / ``den``.
    """

    __slots__ = ("variables", "num", "den")

    def __new__(cls, variables=(), terms=None):
        variables = tuple(variables)
        clean = {}
        for exps, c in dict(terms or {}).items():
            c = _norm_coeff(c)
            if not c:
                continue
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            clean[tuple(exps)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        return _make(variables, num, den)

    def __setattr__(self, *a):  # immutable value semantics
        raise AttributeError("MultiPoly is immutable")

    # ---------------------------------------------------------------- build
    @classmethod
    def zero(cls) -> "MultiPoly":
        return _new((), {}, 1)

    @classmethod
    def const(cls, c: Coeff) -> "MultiPoly":
        c = _norm_coeff(c)
        return _new((), {(): c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return _new((name,), {(1,): 1}, 1)

    @classmethod
    def term(cls, coeff: Coeff = 1, **powers: int) -> "MultiPoly":
        """One monomial, e.g. ``MultiPoly.term(Fraction(1, 2), x1=1, t=2)``."""
        vs = tuple(sorted(powers, key=_var_key))
        exps = tuple(powers[v] for v in vs)
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        return cls(vs, {exps: _norm_coeff(coeff)})

    # ------------------------------------------------------------ structure
    @property
    def terms(self):
        """Exponent tuple -> nonzero Fraction coefficient."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def canonical_terms(self):
        """Terms ordered by total degree, then descending exponent order."""
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def coeff_of(self, var: str, power: int) -> "MultiPoly":
        """Polynomial coefficient of var**power in the remaining variables."""
        if var not in self.variables:
            return MultiPoly.zero() if power else self
        i = self.variables.index(var)
        vs = self.variables[:i] + self.variables[i + 1:]
        out = {e[:i] + e[i + 1:]: c for e, c in self.num.items() if e[i] == power}
        return _make(vs, out, self.den)

    def variables_used(self):
        return set(self.variables)

    # ----------------------------------------------------------- arithmetic
    def _promote(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        vs, ta, tb = _align(self, o)
        den = lcm(self.den, o.den)
        sa, sb = den // self.den, den // o.den
        out = {e: c * sa for e, c in ta.items()}
        get = out.get
        for e, c in tb.items():
            out[e] = get(e, 0) + c * sb
        return _make(vs, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.variables, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        vs, ta, tb = _align(self, o)
        return _make(vs, _mul_terms(ta, tb), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -------------------------------------------------------------- calculus
    def substitute(self, mapping: Mapping[str, Union["MultiPoly", Coeff]]) -> "MultiPoly":
        """Simultaneous substitution of variables by polynomials.

        All replacements happen against the original polynomial, so
        substituting ``{x1: x1 + t}`` does not feed the new ``x1`` back in.
        Each power ``base ** e`` is built once, and every term is summed
        into one integer map over one denominator: a power of a
        replacement with denominator d has denominator d**e (Gauss's
        lemma), so the sum is taken over den * prod of d**(top degree).
        """
        bases = [mapping.get(v, MultiPoly.var(v)) for v in self.variables]
        bases = [p if isinstance(p, MultiPoly) else MultiPoly.const(p) for p in bases]
        vs = tuple(sorted(set().union(*(p.variables for p in bases)), key=_var_key))
        tops = [max(e[i] for e in self.num) for i in range(len(bases))]
        den = self.den * prod(p.den ** top for p, top in zip(bases, tops))
        needed = {(i, e) for exps in self.num for i, e in enumerate(exps) if e}
        powers = {(i, e): _remap(bases[i] ** e, vs) for i, e in needed}
        out = {}
        get = out.get
        for exps, c in self.num.items():
            c *= prod(p.den ** (top - e) for p, top, e in zip(bases, tops, exps))
            piece = {(0,) * len(vs): c}
            for i, e in enumerate(exps):
                if e:
                    piece = _mul_terms(piece, powers[i, e])
            for m, c in piece.items():
                out[m] = get(m, 0) + c
        return _make(vs, out, den)

    def rename(self, names: Mapping[str, str]) -> "MultiPoly":
        """The same polynomial with variables renamed, e.g. ``{"t": "y1"}``.

        A new name must not be a variable the polynomial keeps."""
        vs = tuple(names.get(v, v) for v in self.variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"renaming {dict(names)} merges variables of {self.variables}")
        return _make(vs, self.num, self.den)

    def differentiate(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        out = {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.num.items() if e[i]
        }
        return _make(self.variables, out, self.den)

    def integrate_from_zero(self, var: str, upper: str) -> "MultiPoly":
        """Definite integral in ``var`` from 0 to the symbol ``upper``.

        Each term c*var**k maps to c*upper**(k+1)/(k+1); other variables are
        untouched and ``var`` does not occur in the result. The result is
        built once, over den times the lcm of the k+1.
        """
        if var == upper:
            if var in self.variables:
                raise ValueError(
                    f"integration variable {var!r} equals the upper bound and occurs in the integrand"
                )
        elif upper in self.variables:
            raise ValueError(f"upper bound {upper!r} already occurs in the integrand")
        # an absent var sits past the last slot, where e[i:i + 1] is empty
        i = self.variables.index(var) if var in self.variables else len(self.variables)
        vs = self.variables[:i] + self.variables[i + 1:] + (upper,)
        split = [(e[:i] + e[i + 1:], sum(e[i:i + 1]) + 1, c) for e, c in self.num.items()]
        scale = lcm(*(k for _, k, _ in split))
        out = {rest + (k,): c * (scale // k) for rest, k, c in split}
        return _make(vs, out, self.den * scale)

    # --------------------------------------------------------------- output
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.num.items())))

    def __str__(self):
        if not self.num:
            return "0"
        pieces = []
        for exps, c in self.canonical_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            head = "-" if c < 0 else "+"
            a = abs(c)
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}*{mono}"
            pieces.append((head, body))
        head, body = pieces[0]
        text = ("-" if head == "-" else "") + body
        for head, body in pieces[1:]:
            text += f" {head} {body}"
        return text

    __repr__ = __str__


def _new(variables, num, den) -> MultiPoly:
    """A MultiPoly from parts already in normal form."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _normal(variables, num, den):
    """The normal form of num/den, den > 0: zero terms and unused variables
    dropped, variables in name order, and the content gcd(den, *num)
    divided out."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return (), {}, 1
    keep = [i for i in range(len(variables)) if any(e[i] for e in num)]
    order = sorted(keep, key=lambda i: _var_key(variables[i]))
    if order != list(range(len(variables))):
        variables = tuple(variables[i] for i in order)
        num = {tuple(e[i] for i in order): c for e, c in num.items()}
    g = gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return variables, num, den


def _make(variables, num, den) -> MultiPoly:
    return _new(*_normal(variables, num, den))


def _mul_terms(ta, tb):
    """Product of two numerator maps over the same variables."""
    out = {}
    get = out.get
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return out


def _align(a: MultiPoly, b: MultiPoly):
    vs = a.variables
    if vs != b.variables:
        vs = tuple(sorted(set(vs) | set(b.variables), key=_var_key))
    return vs, _remap(a, vs), _remap(b, vs)


def _remap(p: MultiPoly, vs):
    """p's numerators with exponent tuples over the variable list vs, which
    contains p's variables in the same order."""
    if p.variables == vs:
        return p.num
    pos = {v: i for i, v in enumerate(p.variables)}
    src = [pos.get(v, -1) for v in vs]  # -1 reads the 0 appended below
    return {tuple(map((e + (0,)).__getitem__, src)): c for e, c in p.num.items()}


def series_coeff(factor_orders: Iterable[int], k: int) -> int:
    """Coefficient of t**k in the product of 1/(1 - t**m) over the factors.

    Computed by bounded convolution up to degree k with exact integers.
    A factor list may repeat orders; each occurrence contributes a factor.
    """
    if k < 0:
        raise ValueError("series degree must be nonnegative")
    c = [0] * (k + 1)
    c[0] = 1
    for m in factor_orders:
        if m < 1:
            raise ValueError("factor orders must be positive")
        for j in range(m, k + 1):
            c[j] += c[j - m]
    return c[k]
