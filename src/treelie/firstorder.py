"""Exact solution of the first-order tree evolution equation
u_t = (d/dx_1 + sum over edges (i,j) of x_i^w d/dx_j) u.

The solution is a shift of the initial data along polynomial
characteristics: u(t, x) = f(x + eta(t, x)), where eta_1 = t and each
eta_j integrates the parent shift, eta_j(t) being the integral from 0 to
t of (x_p + eta_p(y))^w dy for the incoming edge (p, j) of weight w.
x + eta is evaluated exactly and rounded once per coordinate; only f
runs in floats.

Exact verification needs no f. Write D for the vector field d/dx_1 +
sum x_p^w d/dx_c and Phi = x + eta. By the chain rule
u_t - D u = grad f(Phi) . (Phi_t - D Phi), so u solves the equation for
every f exactly when the n coordinate residuals Phi_t - D Phi vanish.

The numeric check integrates the same flow without eta. The field is
triangular, x_1' = 1 and x_j' = x_p^w, so each coordinate x_j(s) of the
characteristic is a polynomial in s of degree h(j), the upward height
h(1) = 1, h(j) = 1 + w h(p), and the largest h is the upward
nilpotence. Its spectral flow interpolates on N = nilpotence + 1
Chebyshev-Lobatto points of [0, t] and integrates each node's field with
one N x N matrix, parents first, which is exact up to rounding.

One walk over the nodes, _spectral_flow, integrates both this field and
eta_general_numeric's g_p(x_p) for float functions g. Those coordinates
are not polynomials, so that route doubles the points until eta
settles, geometrically for analytic g (Clenshaw and Curtis 1960).

numpy is imported inside the numeric functions, so loading this module
(and computing eta exactly or the bch series) does not load numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Sequence, Tuple

from . import expressions
from .polynomials import MultiPoly
from .trees import TreeDiagram

__all__ = [
    "BchCoefficients",
    "EtaFamily",
    "bch_coefficients",
    "eta_family",
    "FirstOrderSolution",
    "solve_first_order",
    "verify_first_order",
    "eta_general_numeric",
    "FLOW_TOLERANCE",
]

FLOW_TOLERANCE = 1e-6
# the general flow's largest integration matrix, 8 MB
MAX_GENERAL_POINTS = 1025
# the numeric check: random starts and times in [-1, 1], from a fixed seed
NUMERIC_SAMPLES = 100
NUMERIC_SEED = 20240817


@dataclass(frozen=True)
class BchCoefficients:
    """Series data of the single-step regrouping of exponentials.

    a: coefficients of x/(1 - exp(-x)).
    theta: coefficients of (1 - exp(-x))/x, the reciprocal series.
    Their product telescopes to 1 through the truncation order.
    """

    a: Tuple[Fraction, ...]
    theta: Tuple[Fraction, ...]


def bch_coefficients(order: int) -> BchCoefficients:
    """The series a and theta up to the given order, in integer arithmetic.

    a_0 = 1, a_1 = 1/2, every odd a past a_1 is 0 and a_2m = B_2m/(2m)!,
    with B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent
    numbers T_m of Brent and Harvey's in-place recurrence (Fast computation
    of Bernoulli, Tangent and Secant numbers, 2011). Each coefficient is one
    Fraction over a running factorial, so it costs one gcd.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    half = order // 2
    tangent = [0, 1] + [0] * (half - 1)
    for j in range(2, half + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    a = [Fraction(1), Fraction(1, 2)]
    theta = [Fraction(1), Fraction(-1, 2)]
    fact = 2  # i! at step i
    for i in range(2, order + 1):
        if i % 2:
            a.append(Fraction(0))
        else:
            m = i // 2
            four = 4 ** m
            a.append(Fraction((-1) ** (m - 1) * i * tangent[m], four * (four - 1) * fact))
        fact *= i + 1
        theta.append(Fraction((-1) ** i, fact))
    return BchCoefficients(a=tuple(a[:order + 1]), theta=tuple(theta[:order + 1]))


@dataclass(frozen=True)
class EtaFamily:
    """Characteristic shifts: eta maps each node to a polynomial in t and
    the strictly-smaller clan variables."""

    tree: TreeDiagram
    eta: Dict[int, MultiPoly]


def eta_family(tree: TreeDiagram) -> EtaFamily:
    eta: Dict[int, MultiPoly] = {1: MultiPoly.var("t")}
    for i in range(2, tree.n + 1):
        p = tree.parent(i)
        integrand = (MultiPoly.var(f"x{p}") + eta[p].rename({"t": "y1"})) ** tree.weight(i)
        eta[i] = integrand.integrate_from_zero("y1", "t")
    return EtaFamily(tree=tree, eta=eta)


def _shifted_point(family: EtaFamily, t: float, x: Sequence[float]) -> np.ndarray:
    """x + eta(t, x) at one point, rounded once: t and the x_i are integers
    over one 2^S, so x_j + eta_j is an integer over den 2^(S top), top the
    degree of eta_j, and CPython's int / int rounds it correctly (or to +-inf)."""
    import numpy as np

    ratios = {f"x{i}" if i else "t": float(v).as_integer_ratio() for i, v in enumerate((t, *x))}
    shift = max(d.bit_length() for _, d in ratios.values()) - 1
    ints = {v: m << shift - d.bit_length() + 1 for v, (m, d) in ratios.items()}
    power = functools.cache(lambda v, e: ints[v] ** e)
    out = []
    for j in range(1, family.tree.n + 1):
        poly = family.eta[j]
        top = max(map(sum, poly.num))
        total = ints[f"x{j}"] * poly.den << shift * (top - 1)
        for exps, c in poly.num.items():
            for v, e in zip(poly.variables, exps):
                if e:
                    c *= power(v, e)
            total += c << shift * (top - sum(exps))
        try:
            out.append(total / (poly.den << shift * top))
        except OverflowError:
            out.append(math.inf if total > 0 else -math.inf)
    return np.array(out)


@dataclass(frozen=True)
class FirstOrderSolution:
    tree: TreeDiagram
    family: EtaFamily
    f_ast: expressions.ExprNode

    def __call__(self, t: float, x: Sequence[float]) -> float:
        if len(x) != self.tree.n:
            raise ValueError(f"expected {self.tree.n} coordinates, got {len(x)}")
        return float(expressions.evaluate(self.f_ast, _shifted_point(self.family, t, x)))


def solve_first_order(tree: TreeDiagram, f) -> FirstOrderSolution:
    """Evaluator for u(t, x) = f(x + eta(t, x)); exact initial data at t=0."""
    ast = expressions.parse_expression(f, tree.n) if isinstance(f, str) else f
    return FirstOrderSolution(tree=tree, family=eta_family(tree), f_ast=ast)


def _shifted_points(family: EtaFamily, starts, times) -> np.ndarray:
    """x + eta at many (t, x) at once: starts (samples, n), times
    (samples,). Per node, each variable's column of powers scales only
    the terms that hold it, and one product with the coefficients sums
    the terms."""
    import numpy as np

    columns = {"t": times}
    columns.update((f"x{i}", starts[:, i - 1]) for i in range(1, family.tree.n + 1))
    out = np.array(starts, dtype=float)
    for j in range(1, family.tree.n + 1):
        poly = family.eta[j]
        terms = poly.terms
        exps = np.array(list(terms), dtype=np.intp).reshape(len(terms), len(poly.variables))
        monomials = np.ones((len(times), len(terms)))
        for v, e in zip(poly.variables, exps.T):
            held = np.flatnonzero(e)
            # powers 0..max(e) of the column, by running products
            powers = np.ones((len(times), e.max() + 1))
            factors = np.broadcast_to(columns[v][:, None], (len(times), e.max()))
            np.cumprod(factors, axis=1, out=powers[:, 1:])
            monomials[:, held] *= powers[:, e[held]]
        out[:, j - 1] += monomials @ np.array([float(c) for c in terms.values()])
    return out


def _flow_points(tree: TreeDiagram) -> int:
    """N = (the largest upward height) + 1 interpolation points, one more
    than the largest degree in s of a coordinate of the flow."""
    height = [0, 1] + [0] * (tree.n - 1)
    for j in range(2, tree.n + 1):
        height[j] = 1 + tree.weight(j) * height[tree.parent(j)]
    return max(height) + 1


@functools.lru_cache(maxsize=8)
def _integration_matrix(points: int) -> np.ndarray:
    """S with (S g)_i the integral from 0 to tau_i of the polynomial that
    interpolates g at the Chebyshev-Lobatto points tau_i of [0, 1],
    ascending from tau_0 = 0 to tau_{N-1} = 1; exact for g of degree < N.

    With x = 2 tau - 1 = cos(theta_i), T_k(x_i) = cos(k theta_i), and
    the discrete cosine sum inverts the interpolation; the antiderivative
    of T_k from -1 is x + 1, (x^2 - 1)/2, and for k >= 2
    T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) less its value at -1."""
    import numpy as np

    last = points - 1
    theta = np.pi * np.arange(last, -1, -1) / last
    cheb = np.cos(np.outer(theta, np.arange(points + 1)))  # T_k(x_i), k <= N
    x = cheb[:, 1]
    anti = np.empty((points, points))
    anti[:, 0] = x + 1.0
    anti[:, 1] = (x * x - 1.0) / 2.0
    k = np.arange(2, points)
    sign = np.where(k % 2 == 0, -1.0, 1.0)  # T_{k+1}(-1) = T_{k-1}(-1) = -(-1)^k
    anti[:, 2:] = (cheb[:, 3:] - sign) / (2 * (k + 1)) - (cheb[:, 1:-2] - sign) / (2 * (k - 1))
    halve = np.ones(points)
    halve[[0, -1]] = 0.5
    inverse = (2.0 / last) * (halve[:, None] * cheb[:, :points].T * halve[None, :])
    matrix = 0.5 * anti @ inverse  # d tau = dx / 2
    matrix.setflags(write=False)
    return matrix


def _spectral_flow(tree: TreeDiagram, starts, times, field, points: int) -> np.ndarray:
    """The shift eta at tau = 1 of the flow x_1' = 1, x_j' = field(j, x_p)
    from each start (samples, n) for its own time (samples,), as a
    (samples, n) array: field maps a child node and its parent's grid to
    the edge field on that grid.

    On tau = s / t in [0, 1] each node is X_j = x0_j + t field(j, X_p) S^T,
    parents first, with S the integration matrix on the given number of
    points; the last grid column, tau = 1, is the flow at time t. A tip
    needs only that column. Nodes are visited depth first, so the grids
    held at once are those of one path from the root."""
    import numpy as np

    starts = np.asarray(starts, dtype=float)
    times = np.asarray(times, dtype=float)[:, None]
    integrate = _integration_matrix(points).T
    children = [[] for _ in range(tree.n + 1)]
    for p, c, _ in tree.edges():
        children[p].append(c)
    out = np.empty_like(starts)
    stack = [(1, None)]
    while stack:
        j, parent = stack.pop()
        values = np.ones((len(starts), points)) if parent is None else field(j, parent)
        if children[j]:
            shift = times * (values @ integrate)
            out[:, j - 1] = shift[:, -1]
            grid = starts[:, j - 1 : j] + shift
            stack.extend((c, grid) for c in children[j])
        else:
            out[:, j - 1] = times[:, 0] * (values @ integrate[:, -1])
    return out


def _numeric_samples(n: int):
    """The numeric check's starts (NUMERIC_SAMPLES, n) and times: each
    row of draws is one start followed by its time."""
    import numpy as np

    draws = np.random.default_rng(NUMERIC_SEED).uniform(-1.0, 1.0, (NUMERIC_SAMPLES, n + 1))
    return draws[:, :n], draws[:, n]


@dataclass(frozen=True)
class FirstOrderReport:
    ok: bool
    mode: str
    max_error: float = 0.0
    residual: Tuple[MultiPoly, ...] = ()


def verify_first_order(family: EtaFamily, f, mode: str = "exact") -> FirstOrderReport:
    """Two independent checks of the shifted-argument solution built from
    the family, on the family's tree. f is parsed in both modes, so a
    malformed f is an error, but neither check depends on it.

    exact: the n coordinate residuals
    R_j = d eta_j/dt - D(x_j) - sum over c of D(x_c) d eta_j/dx_c, with
    D(x_1) = 1 and D(x_c) = x_p^w for the edge (p, c, w), must be the zero
    polynomial; ``residual`` holds them in node order. As
    u_t - D u = grad f(x + eta) . R, this proves u = f(x + eta) for every
    f, polynomial or not.
    numeric: the spectral flow, which integrates the field without eta,
    from NUMERIC_SAMPLES random starts must match x + eta to within the
    flow tolerance relative to max(1, |flow|), the ``max_error``. Its float
    x + eta cancels on heavy edges: one of weight 50 (3e-6) or 60 (8e-3) fails.
    """
    tree = family.tree
    if isinstance(f, str):
        expressions.parse_expression(f, tree.n)
    if mode == "exact":
        field = {"x1": MultiPoly.const(1)}
        field.update((f"x{c}", MultiPoly.var(f"x{p}") ** w) for p, c, w in tree.edges())
        residual = []
        for j in range(1, tree.n + 1):
            eta = family.eta[j]
            r = eta.differentiate("t") - field[f"x{j}"]
            for v in eta.variables_used() & field.keys():
                r = r - field[v] * eta.differentiate(v)
            residual.append(r)
        return FirstOrderReport(
            ok=all(r.is_zero for r in residual), mode="exact", residual=tuple(residual)
        )
    if mode == "numeric":
        import numpy as np

        starts, times = _numeric_samples(tree.n)
        power = lambda c, grid: grid ** tree.weight(c)
        flowed = starts + _spectral_flow(tree, starts, times, power, _flow_points(tree))
        error = np.abs(flowed - _shifted_points(family, starts, times))
        worst = float(np.max(error / np.maximum(1.0, np.abs(flowed))))
        return FirstOrderReport(ok=worst <= FLOW_TOLERANCE, mode="numeric", max_error=worst)
    raise ValueError(f"mode must be 'exact' or 'numeric', got {mode!r}")


def eta_general_numeric(tree: TreeDiagram, g: Mapping[int, Callable[[float], float]]):
    """Numeric characteristic shifts when the edge coefficient of parent i
    is a float function g_i rather than a power: an evaluator
    (t, x) -> array of eta values per node.

    The spectral flow runs with g_p applied to the parent grid value by
    value, on 9, 17, 33, ... points, until two successive values of every
    eta_j agree within 1e-13 max(1, |eta_j|). That needs g smooth on the
    range the flow visits: a kink there, such as abs crossing 0, raises
    RuntimeError past MAX_GENERAL_POINTS. A non-finite t, x or g value
    raises ValueError. With g_i(v) = v**w it agrees with the exact
    polynomials.
    """
    import numpy as np

    non_tips = {i for i in range(1, tree.n + 1) if tree.children(i)}
    missing = non_tips - set(g)
    if missing:
        raise ValueError(f"missing coefficient functions for nodes {sorted(missing)}")

    def field(c: int, grid: np.ndarray) -> np.ndarray:
        p = tree.parent(c)
        values = np.array([[g[p](v) for v in grid[0].tolist()]], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"node {p}'s coefficient g[{p}] is not finite on the flow")
        return values

    def evaluate(t: float, x: Sequence[float]) -> np.ndarray:
        if len(x) != tree.n:
            raise ValueError(f"expected {tree.n} coordinates, got {len(x)}")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"x must be finite, got {list(x)!r}")
        starts, times = np.array([x], dtype=float), np.array([t], dtype=float)
        points = 9
        last = _spectral_flow(tree, starts, times, field, points)[0]
        while 2 * points - 1 <= MAX_GENERAL_POINTS:
            points = 2 * points - 1
            eta = _spectral_flow(tree, starts, times, field, points)[0]
            change = np.abs(eta - last) / np.maximum(1.0, np.abs(eta))
            if np.all(change <= 1e-13):
                return eta
            last = eta
        raise RuntimeError(
            f"eta did not converge within the cap of {MAX_GENERAL_POINTS} points: "
            f"it still moves by {np.max(change):.1e} relative at {points} points"
        )

    return evaluate
