"""Reference polynomial routes over plain Fraction coefficients.

The routes ``MultiPoly`` replaced, kept independent of its integer
numerators: a polynomial here is a dict from a monomial (a sorted tuple
of (variable, exponent) pairs, exponents positive) to a nonzero Fraction.
``substitute`` expands one term at a time and adds each piece to the
sum, ``integrate_from_zero`` adds one term at a time, and the eta and
xi~ families are built with ``substitute`` where the library renames
variables.
"""

from collections import Counter
from fractions import Fraction
from typing import Dict, Sequence

from treelie.polynomials import MultiPoly


def from_poly(p: MultiPoly) -> dict:
    """The Fraction view of a MultiPoly, read from its public ``terms``."""
    return {
        tuple(sorted((v, e) for v, e in zip(p.variables, exps) if e)): c
        for exps, c in p.terms.items()
    }


def to_poly(d: dict) -> MultiPoly:
    """The same polynomial through the public constructor."""
    variables = sorted({v for mono in d for v, _ in mono})
    return MultiPoly(
        variables, {tuple(dict(mono).get(v, 0) for v in variables): c for mono, c in d.items()}
    )


def var(name: str) -> dict:
    return {((name, 1),): Fraction(1)}


def const(c) -> dict:
    return {(): Fraction(c)} if c else {}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in out.items() if c}


def neg(a: dict) -> dict:
    return {mono: -c for mono, c in a.items()}


def mul(a: dict, b: dict) -> dict:
    out: Dict[tuple, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = Counter(dict(ma))
            merged.update(dict(mb))
            mono = tuple(sorted(merged.items()))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def power(a: dict, k: int) -> dict:
    out = const(1)
    for _ in range(k):
        out = mul(out, a)
    return out


def substitute(d: dict, mapping: dict) -> dict:
    """Simultaneous substitution, one term at a time."""
    out: dict = {}
    for mono, c in d.items():
        piece = const(c)
        for v, e in mono:
            piece = mul(piece, power(mapping.get(v, var(v)), e))
        out = add(out, piece)
    return out


def integrate_from_zero(d: dict, variable: str, upper: str) -> dict:
    """c*var^k*rest -> c/(k+1)*upper^(k+1)*rest, one term at a time."""
    out: dict = {}
    for mono, c in d.items():
        powers = dict(mono)
        k = powers.pop(variable, 0)
        powers[upper] = powers.get(upper, 0) + k + 1
        out = add(out, {tuple(sorted(powers.items())): c / (k + 1)})
    return out


def eta_family(tree) -> Dict[int, MultiPoly]:
    """eta of ``firstorder.eta_family`` by substitution of t -> y1 in the
    integrand."""
    eta = {1: var("t")}
    for i in range(2, tree.n + 1):
        p = tree.parent(i)
        shifted = substitute(eta[p], {"t": var("y1")})
        integrand = power(add(var(f"x{p}"), shifted), tree.weight(i))
        eta[i] = integrate_from_zero(integrand, "y1", "t")
    return {i: to_poly(e) for i, e in eta.items()}


def xi_family(tree, orders: Sequence[int]) -> Dict[int, MultiPoly]:
    """xi~ of ``heat.xi_family`` by substitution of t -> y1 in each child."""
    xi: dict = {}
    for i in range(tree.n, 0, -1):
        kids = tree.children(i)
        if not kids:
            xi[i] = {tuple(sorted([("t", 1), (f"z{i}", orders[i - 1])])): Fraction(1)}
        else:
            inner = var(f"z{i}")
            for s in kids:
                inner = add(inner, substitute(xi[s], {"t": var("y1")}))
            xi[i] = integrate_from_zero(power(inner, orders[i - 1]), "y1", "t")
    return {i: to_poly(p) for i, p in xi.items()}
