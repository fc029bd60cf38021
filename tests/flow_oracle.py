"""Reference characteristic flows by generic quadrature.

``firstorder.verify_first_order(mode="numeric")`` integrates the field
x_1' = 1, x_j' = x_parent^w by spectral integration on Chebyshev-Lobatto
points, exact up to rounding because each coordinate is a polynomial in
time, and ``firstorder.eta_general_numeric`` runs the same walk for a
field g_parent(x_parent), doubling the points until eta settles. These
oracles take generic routes that know nothing of that structure:
classical fourth-order Runge-Kutta with a fixed step for the power
field, and nested adaptive Simpson quadrature, one level per node, for
a general g.
"""

import numpy as np

RK4_STEPS = 1000


def _vector_field(tree):
    pw = [(tree.parent(j), tree.weight(j)) for j in range(2, tree.n + 1)]

    def field(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[..., 0] = 1.0
        for k, (p, w) in enumerate(pw):
            out[..., k + 1] = x[..., p - 1] ** w
        return out

    return field


def flow_rk4(tree, x0, t, steps: int = RK4_STEPS) -> np.ndarray:
    """Characteristic flow by fixed-step RK4.

    x0 is one start of shape (n,) with a scalar time t, or a batch of
    starts of shape (samples, n) with one time per start, t of shape
    (samples,); each start takes steps steps of size t/steps, and the
    result has the shape of x0. The batch integrates every start in the
    same array operations, with the arithmetic of one start at a time.
    """
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


SIMPSON_TOLERANCE = 1e-9


def _adaptive_simpson(fn, a, b, tol, depth=0, max_depth=24):
    if depth > max_depth:
        raise RuntimeError(f"quadrature failed to converge at nesting depth {depth}")
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


def eta_simpson(tree, g, t, x) -> np.ndarray:
    """eta(t, x) per node for the edge coefficients g (parent -> function
    of one float): eta_1 = t and eta_j(s) is the integral from 0 to s of
    g_p(x_p + eta_p(y)) dy, by adaptive Simpson with absolute tolerance
    SIMPSON_TOLERANCE per level. Each level nests the quadrature of its
    parent, so the cost grows about tenfold per level: keep chains short."""
    cache = {}

    def eta_at(i, s):
        if i == 1:
            return s
        if (i, s) not in cache:
            p = tree.parent(i)
            cache[i, s] = _adaptive_simpson(
                lambda y: g[p](x[p - 1] + eta_at(p, y)), 0.0, s, SIMPSON_TOLERANCE
            )
        return cache[i, s]

    return np.array([eta_at(i, float(t)) for i in range(1, tree.n + 1)])
