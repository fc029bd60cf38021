"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values. Terms are a map from exponent tuples to
nonzero coefficients; variables that occur in no term are pruned, so two
polynomials are equal exactly when they have the same canonical form. The
variable order is fixed by name class (x symbols, then y integration
temporaries, then z derivative symbols, then k frequency symbols, then t)
and numeric suffix, which makes serialization deterministic.

Coefficients are ``fractions.Fraction``; an int coefficient is stored as
a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = ["MultiPoly", "series_coeff"]

_CLASS_RANK = {"x": 0, "y": 1, "z": 2, "k": 3, "t": 4}


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
    formal differentiation, definite integration from zero, and evaluation
    over complex floats.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        canon = _canonicalize(tuple(variables), dict(terms or {}))
        object.__setattr__(self, "variables", canon[0])
        object.__setattr__(self, "terms", canon[1])

    def __setattr__(self, *a):  # immutable value semantics
        raise AttributeError("MultiPoly is immutable")

    # ---------------------------------------------------------------- build
    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def const(cls, c: Coeff) -> "MultiPoly":
        c = _norm_coeff(c)
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

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
    def is_zero(self) -> bool:
        return not self.terms

    def canonical_terms(self):
        """Terms ordered by total degree, then descending exponent order."""
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def coeff_of(self, var: str, power: int) -> "MultiPoly":
        """Polynomial coefficient of var**power in the remaining variables."""
        if var not in self.variables:
            return MultiPoly.const(0) if power else self
        i = self.variables.index(var)
        vs = self.variables[:i] + self.variables[i + 1:]
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                out[exps[:i] + exps[i + 1:]] = c
        return MultiPoly(vs, out)

    def constant_term(self):
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, Fraction(0))

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
        out = dict(ta)
        for exps, c in tb.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

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
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiPoly(vs, out)

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
        """
        reps = {}
        for v, p in mapping.items():
            reps[v] = p if isinstance(p, MultiPoly) else MultiPoly.const(p)
        out = MultiPoly.zero()
        for exps, c in self.terms.items():
            piece = MultiPoly.const(c)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                base = reps.get(v)
                if base is None:
                    piece = piece * MultiPoly((v,), {(e,): Fraction(1)})
                else:
                    piece = piece * base ** e
            out = out + piece
        return out

    def differentiate(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = exps[:i] + (e - 1,) + exps[i + 1:]
            out[ne] = out.get(ne, Fraction(0)) + c * e
        return MultiPoly(self.variables, out)

    def integrate_from_zero(self, var: str, upper: str) -> "MultiPoly":
        """Definite integral in ``var`` from 0 to the symbol ``upper``.

        Each term c*var**k maps to c*upper**(k+1)/(k+1); other variables are
        untouched and ``var`` does not occur in the result.
        """
        used = self.variables_used()
        if var == upper:
            if var in used:
                raise ValueError(
                    f"integration variable {var!r} equals the upper bound and occurs in the integrand"
                )
        elif upper in used:
            raise ValueError(f"upper bound {upper!r} already occurs in the integrand")
        vi = self.variables.index(var) if var in self.variables else None
        out = MultiPoly.zero()
        for exps, c in self.terms.items():
            k = exps[vi] if vi is not None else 0
            rest = {
                v: e
                for v, e in zip(self.variables, exps)
                if e and v != var
            }
            rest[upper] = rest.get(upper, 0) + k + 1
            out = out + MultiPoly.term(c / (k + 1), **rest)
        return out

    # ------------------------------------------------------------ evaluation
    def variables_used(self):
        used = set()
        for exps in self.terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return used

    def eval_complex(self, assignment: Mapping[str, complex]) -> complex:
        missing = self.variables_used() - set(assignment)
        if missing:
            raise ValueError(f"missing assignment for variables {sorted(missing)}")
        total = 0j
        for exps, c in self.terms.items():
            val = complex(c)
            for v, e in zip(self.variables, exps):
                if e:
                    val *= complex(assignment[v]) ** e
            total += val
        return total

    def eval_float(self, assignment: Mapping[str, float]) -> float:
        z = self.eval_complex(assignment)
        return z.real

    # --------------------------------------------------------------- output
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
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


def _canonicalize(variables, terms):
    clean = {}
    for exps, c in terms.items():
        c = _norm_coeff(c)
        if not c:
            continue
        if len(exps) != len(variables):
            raise ValueError("exponent tuple length does not match variables")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        clean[tuple(exps)] = c
    keep = [
        i for i, _ in enumerate(variables) if any(e[i] for e in clean)
    ]
    if len(keep) != len(variables):
        variables = tuple(variables[i] for i in keep)
        clean = {tuple(e[i] for i in keep): c for e, c in clean.items()}
    order = sorted(range(len(variables)), key=lambda i: _var_key(variables[i]))
    if order != list(range(len(variables))):
        variables = tuple(variables[i] for i in order)
        clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
    return variables, clean


def _align(a: MultiPoly, b: MultiPoly):
    if a.variables == b.variables:
        return a.variables, a.terms, b.terms
    vs = tuple(sorted(set(a.variables) | set(b.variables), key=_var_key))
    return vs, _remap(a, vs), _remap(b, vs)


def _remap(p: MultiPoly, vs):
    pos = {v: i for i, v in enumerate(vs)}
    idx = [pos[v] for v in p.variables]
    out = {}
    for exps, c in p.terms.items():
        e = [0] * len(vs)
        for j, ev in zip(idx, exps):
            e[j] = ev
        out[tuple(e)] = c
    return out


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
