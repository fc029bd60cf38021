"""Exact solution of the first-order tree evolution equation
u_t = (d/dx_1 + sum over edges (i,j) of x_i^w d/dx_j) u.

The solution is a shift of the initial data along polynomial
characteristics: u(t, x) = f(x + eta(t, x)), where eta_1 = t and each
eta_j integrates the parent shift, eta_j(t) being the integral from 0 to
t of (x_p + eta_p(y))^w dy for the incoming edge (p, j) of weight w.

Exact verification needs no f. Write D for the vector field d/dx_1 +
sum x_p^w d/dx_c and Phi = x + eta. By the chain rule
u_t - D u = grad f(Phi) . (Phi_t - D Phi), so u solves the equation for
every f exactly when the n coordinate residuals Phi_t - D Phi vanish.

numpy is imported inside the numeric functions, so loading this module
(and computing eta exactly or the bch series) does not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import expressions
from .polynomials import MultiPoly
from .trees import TreeDiagram

__all__ = [
    "BchCoefficients",
    "EtaFamily",
    "bch_coefficients",
    "bch_coefficient_nested_sum",
    "eta_family",
    "FirstOrderSolution",
    "solve_first_order",
    "verify_first_order",
    "flow_rk4",
    "eta_general_numeric",
    "FLOW_TOLERANCE",
    "QUADRATURE_TOLERANCE",
    "RK4_STEPS",
]

FLOW_TOLERANCE = 1e-6
QUADRATURE_TOLERANCE = 1e-9
RK4_STEPS = 1000
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
    """Exact series inversion of (1 - exp(-x))/x up to the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    theta = tuple(
        Fraction((-1) ** i, factorial(i + 1)) for i in range(order + 1)
    )
    a: List[Fraction] = [Fraction(1)]
    for k in range(1, order + 1):
        a.append(-sum(theta[j] * a[k - j] for j in range(1, k + 1)))
    return BchCoefficients(a=tuple(a), theta=theta)


def bch_coefficient_nested_sum(k: int) -> Fraction:
    """Independent route to the k-th regrouping coefficient: the double sum
    over compositions p_1 + ... + p_m = k + 1 - m with factorial weights."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for m in range(1, k + 2):
        s = k + 1 - m
        if s < 0:
            continue
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
    """x + eta(t, x) at one time and one point."""
    import numpy as np

    env = {"t": float(t)}
    env.update({f"x{i + 1}": float(v) for i, v in enumerate(x)})
    return np.array(
        [x[i - 1] + family.eta[i].eval_float(env) for i in range(1, family.tree.n + 1)]
    )


@dataclass(frozen=True)
class FirstOrderSolution:
    tree: TreeDiagram
    family: EtaFamily
    f_ast: expressions.ExprNode

    def shifted_point(self, t: float, x: Sequence[float]) -> np.ndarray:
        return _shifted_point(self.family, t, x)

    def __call__(self, t: float, x: Sequence[float]) -> float:
        if len(x) != self.tree.n:
            raise ValueError(f"expected {self.tree.n} coordinates, got {len(x)}")
        return float(expressions.evaluate(self.f_ast, self.shifted_point(t, x)))


def solve_first_order(tree: TreeDiagram, f) -> FirstOrderSolution:
    """Evaluator for u(t, x) = f(x + eta(t, x)); exact initial data at t=0."""
    ast = expressions.parse_expression(f, tree.n) if isinstance(f, str) else f
    return FirstOrderSolution(tree=tree, family=eta_family(tree), f_ast=ast)


def _vector_field(tree: TreeDiagram):
    # field runs once per RK4 stage, so it uses this import, not its own
    import numpy as np

    pw = [(tree.parent(j), tree.weight(j)) for j in range(2, tree.n + 1)]

    def field(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[..., 0] = 1.0
        for k, (p, w) in enumerate(pw):
            out[..., k + 1] = x[..., p - 1] ** w
        return out

    return field


def flow_rk4(tree: TreeDiagram, x0, t, steps: int = RK4_STEPS) -> np.ndarray:
    """Characteristic flow by fixed-step RK4, the numeric oracle.

    x0 is one start of shape (n,) with a scalar time t, or a batch of
    starts of shape (samples, n) with one time per start, t of shape
    (samples,); each start takes steps steps of size t/steps, and the
    result has the shape of x0. The batch integrates every start in the
    same array operations, with the arithmetic of one start at a time.
    """
    import numpy as np

    field = _vector_field(tree)
    x = np.array(x0, dtype=float)
    h = np.asarray(t, dtype=float) / steps
    if x.ndim == 2:
        h = h.reshape(-1, 1)
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


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
    numeric: RK4 characteristics from NUMERIC_SAMPLES random starts must
    match x + eta to within the flow tolerance.
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

        rng = np.random.default_rng(NUMERIC_SEED)
        starts = np.empty((NUMERIC_SAMPLES, tree.n))
        times = np.empty(NUMERIC_SAMPLES)
        for s in range(NUMERIC_SAMPLES):
            starts[s] = rng.uniform(-1.0, 1.0, tree.n)
            times[s] = rng.uniform(-1.0, 1.0)
        numeric = flow_rk4(tree, starts, times)
        worst = 0.0
        for x0, t, flowed in zip(starts, times, numeric):
            exact = _shifted_point(family, t, x0)
            worst = max(worst, float(np.max(np.abs(flowed - exact))))
        return FirstOrderReport(ok=worst <= FLOW_TOLERANCE, mode="numeric", max_error=worst)
    raise ValueError(f"mode must be 'exact' or 'numeric', got {mode!r}")


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float, depth: int = 0, max_depth: int = 24):
    if depth > max_depth:
        raise RuntimeError(
            f"quadrature failed to converge at nesting depth {depth}"
        )
    m = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(m), fn(b)
    whole = (b - a) / 6.0 * (fa + 4 * fm + fb)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4 * frm + fb)
    if abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(fn, a, m, tol / 2, depth + 1, max_depth) + _adaptive_simpson(
        fn, m, b, tol / 2, depth + 1, max_depth
    )


def eta_general_numeric(tree: TreeDiagram, g: Mapping[int, Callable[[float], float]]):
    """Numeric characteristic shifts when the edge coefficient of parent i
    is an arbitrary continuous g_i rather than a power.

    Returns an evaluator (t, x) -> array of eta values per node, computed
    by nested adaptive Simpson quadrature with absolute tolerance 1e-9 per
    level. With g_i(v) = v**w it agrees with the exact polynomials.
    """
    import numpy as np

    non_tips = {i for i in range(1, tree.n + 1) if tree.children(i)}
    missing = non_tips - set(g)
    if missing:
        raise ValueError(f"missing coefficient functions for nodes {sorted(missing)}")

    def evaluate(t: float, x: Sequence[float]) -> np.ndarray:
        if len(x) != tree.n:
            raise ValueError(f"expected {tree.n} coordinates, got {len(x)}")
        cache: Dict[Tuple[int, float], float] = {}

        def eta_at(i: int, s: float) -> float:
            if i == 1:
                return s
            key = (i, s)
            if key not in cache:
                p = tree.parent(i)
                gp = g[p]
                cache[key] = _adaptive_simpson(
                    lambda y: gp(x[p - 1] + eta_at(p, y)),
                    0.0,
                    s,
                    QUADRATURE_TOLERANCE,
                )
            return cache[key]

        return np.array([eta_at(i, float(t)) for i in range(1, tree.n + 1)])

    return evaluate
