"""Reference characteristic flow by fixed-step RK4.

``firstorder.verify_first_order(mode="numeric")`` integrates the field
x_1' = 1, x_j' = x_parent^w by spectral integration on Chebyshev-Lobatto
points, exact up to rounding because each coordinate is a polynomial in
time. This oracle takes the generic route: classical fourth-order
Runge-Kutta with a fixed step, which knows nothing of that structure.
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
