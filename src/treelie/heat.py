"""Spectral solution of the heat-conduction-type tree equation
u_t = (d^m1/dx_1^m1 + sum over edges (i,j) of x_i d^mj/dx_j^mj) u
on a box [-a_1, a_1] x ... x [-a_n, a_n].

Derivative symbols commute, so the evolution of a plane wave is governed
by the polynomial family xi~: tips carry t*z_r^{m_r} and an interior node
integrates (z_i + sum of the children's xi~)^{m_i} from 0 to t. The full
exponent of a mode is E = xi~_1 + sum over i >= 2 of x_parent(i)*xi~_i
with z_r replaced by 2*pi*k_r*sqrt(-1)/a_r; its real part is the growth
exponent A and its imaginary part the phase shift B, both affine in x.
All exact work stays over the rationals in the z symbols: sqrt(-1)
enters only through the z-degree of a term when A and B are split.

Numerically every mode is handled at once: ``solve_heat`` builds one
complex table of t-polynomial coefficients (node x mode x power of t),
and ``HeatSolution`` evaluates it at t by one Horner pass, so a batch of
P points costs one (modes x n) @ (n x P) product and one exp/cos/sin
pass, done in chunks of at most EVAL_BLOCK mode-point entries.

The initial data enter through ``fourier_coefficients``, one FFT pass per
axis that keeps only the coefficients the mode sum reads, on a grid that
holds only the axes the data vary on until each axis's own pass.

numpy is imported inside the functions that compute with it, so loading
this module does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Dict, Sequence, Tuple, Union

from . import expressions
from .errors import SizeGuardError
from .polynomials import MultiPoly
from .trees import TreeDiagram

__all__ = [
    "XiFamily",
    "AffineForm",
    "FourierMode",
    "HeatSolution",
    "ModeCheck",
    "xi_family",
    "mode_exponent",
    "mode_exponent_symbolic",
    "mode_weight",
    "fourier_coefficients",
    "solve_heat",
    "verify_modes",
    "MAX_MODES",
    "MAX_QUADRATURE_POINTS",
]

# mode-point entries per evaluation chunk: HeatSolution works on a few
# float arrays of this size, whatever the number of points
EVAL_BLOCK = 1 << 16
# desk-scale size guards of solve_heat, checked from closed forms
MAX_MODES = 10_000
MAX_QUADRATURE_POINTS = 1 << 22


@dataclass(frozen=True)
class XiFamily:
    """Per-node polynomials in t and the commuting derivative symbols z_s
    of the node and its descendants; zero at t = 0 away from constants."""

    tree: TreeDiagram
    orders: Tuple[int, ...]
    xi_tilde: Dict[int, MultiPoly]


def xi_family(tree: TreeDiagram, orders: Sequence[int]) -> XiFamily:
    orders = tuple(int(m) for m in orders)
    if len(orders) != tree.n:
        raise ValueError(f"expected {tree.n} orders, got {len(orders)}")
    if any(m < 1 for m in orders):
        raise ValueError("orders must be positive integers")
    xi: Dict[int, MultiPoly] = {}
    for i in range(tree.n, 0, -1):
        kids = tree.children(i)
        if not kids:
            xi[i] = MultiPoly.term(1, t=1, **{f"z{i}": orders[i - 1]})
        else:
            inner = MultiPoly.var(f"z{i}")
            for s in kids:
                inner = inner + xi[s].rename({"t": "y1"})
            xi[i] = (inner ** orders[i - 1]).integrate_from_zero("y1", "t")
    return XiFamily(tree=tree, orders=orders, xi_tilde=xi)


@dataclass(frozen=True)
class AffineForm:
    """const + sum of coeffs[j] * x_{j+1}."""

    const: float
    coeffs: Tuple[float, ...]


def _mode_table(xi: XiFamily, waves: np.ndarray) -> np.ndarray:
    """Complex t-polynomial coefficients of every node and mode at once.

    waves holds one row 2*pi*k/box per mode. Entry [i - 1, m, p] is the
    coefficient of t^p in xi~_i with z_r -> sqrt(-1)*waves[m, r - 1], so
    node i's slice is its (modes x (deg + 1)) table, zero-padded up to the
    highest t-degree of the family (every xi~ term carries a power of t).
    """
    import numpy as np

    z = 1j * waves
    polys = [xi.xi_tilde[i] for i in range(1, xi.tree.n + 1)]
    deg = max(exps[p.variables.index("t")] for p in polys for exps in p.terms)
    table = np.zeros((len(polys), len(z), deg + 1), dtype=complex)
    for node, poly in enumerate(polys):
        for exps, c in poly.terms.items():
            column = np.full(len(z), complex(c))
            for v, e in zip(poly.variables, exps):
                if v == "t":
                    tpow = e
                elif e:
                    column *= z[:, int(v[1:]) - 1] ** e
            table[node, :, tpow] += column
    return table


def _exponent_parts(
    table: np.ndarray, tree: TreeDiagram, t: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The complex exponent E = const + coeffs @ x of every mode at time t:
    const has shape (modes,), coeffs (modes, n). One Horner pass over the
    table, then each node i >= 2 lands on the x variable of its parent."""
    import numpy as np

    values = table[:, :, -1]
    for p in range(table.shape[2] - 2, -1, -1):
        values = values * t + table[:, :, p]
    coeffs = np.zeros(values.shape[::-1], dtype=complex)
    for i in range(2, tree.n + 1):
        coeffs[:, tree.parent(i) - 1] += values[i - 1]
    return values[0], coeffs


def _waves(ks, box: Sequence[float]) -> np.ndarray:
    """2*pi*k_r/a_r, one row per frequency vector."""
    import numpy as np

    ks = np.asarray(ks, dtype=float).reshape(-1, len(box))
    return 2.0 * np.pi * ks / np.asarray(box, dtype=float)


def mode_exponent(
    xi: XiFamily, k: Sequence[int], box: Sequence[float], t: float
) -> Tuple[AffineForm, AffineForm]:
    """Growth exponent A and phase shift B of the plane-wave mode with
    frequency vector k at time t; both affine in x, both zero at t = 0."""
    n = xi.tree.n
    if len(k) != n or len(box) != n:
        raise ValueError(f"expected {n}-vectors for k and box")
    if not all(0 < a < math.inf for a in box):
        raise ValueError("box half-widths must be positive")
    table = _mode_table(xi, _waves(k, box))
    const, coeffs = _exponent_parts(table, xi.tree, t)
    A = AffineForm(float(const[0].real), tuple(float(c) for c in coeffs[0].real))
    B = AffineForm(float(const[0].imag), tuple(float(c) for c in coeffs[0].imag))
    return A, B


def mode_exponent_symbolic(xi: XiFamily) -> Tuple[MultiPoly, MultiPoly]:
    """A and B as exact polynomials in t, x, and the frequency symbols
    k1..kn.

    Substituting z_r = sqrt(-1)*k_r turns a term of z-degree d into the
    same term in k times sqrt(-1)^d, which is 1, sqrt(-1), -1 or
    -sqrt(-1) as d mod 4 is 0, 1, 2 or 3. So one pass over the terms of
    the rational exponent sends even d to A and odd d to B, negated when
    d mod 4 >= 2.
    """
    E = _symbolic_exponent(xi)
    names = tuple("k" + v[1:] if v[0] == "z" else v for v in E.variables)
    zs = [j for j, v in enumerate(E.variables) if v[0] == "z"]
    parts = ({}, {})
    for exps, c in E.terms.items():
        d = sum(exps[j] for j in zs)
        parts[d % 2][exps] = c if d % 4 < 2 else -c
    return MultiPoly(names, parts[0]), MultiPoly(names, parts[1])


def _symbolic_exponent(xi: XiFamily) -> MultiPoly:
    """E~ = xi~_1 + sum over i >= 2 of x_parent(i)*xi~_i, in the z symbols."""
    E = xi.xi_tilde[1]
    for i in range(2, xi.tree.n + 1):
        E = E + MultiPoly.var(f"x{xi.tree.parent(i)}") * xi.xi_tilde[i]
    return E


@dataclass(frozen=True)
class ModeCheck:
    ok: bool
    residual: MultiPoly


def verify_modes(xi: XiFamily) -> ModeCheck:
    """Exact symbolic check that every plane wave built from the family
    solves the equation on the family's tree with the family's orders.

    A mode is exp(i*kappa.x + E) with i = sqrt(-1) and E the exponent E~
    at z = i*kappa. E is affine in x, so d/dx_j multiplies the mode by
    c_j + i*kappa_j, c_j being the coefficient of x_j in E, and the mode
    solves the equation exactly when dE/dt = (c_1 + i*kappa_1)^{m_1} +
    sum over edges (p, j) of x_p (c_j + i*kappa_j)^{m_j}. Both sides are
    the sides of the identity below at z = i*kappa, an invertible change
    of variables, so the plane-wave identity holds for every kappa exactly
    when, over the rationals,
    dE~/dt = (c~_1 + z_1)^{m_1} + sum over edges (p, j) of
    x_p (c~_j + z_j)^{m_j}, with c~_j the coefficient of x_j in E~.
    """
    E = _symbolic_exponent(xi)
    lhs = E.differentiate("t")
    rhs = (E.coeff_of("x1", 1) + MultiPoly.var("z1")) ** xi.orders[0]
    for p, c, _ in xi.tree.edges():
        cj = E.coeff_of(f"x{c}", 1)
        rhs = rhs + MultiPoly.var(f"x{p}") * (cj + MultiPoly.var(f"z{c}")) ** xi.orders[c - 1]
    residual = lhs - rhs
    return ModeCheck(ok=residual.is_zero, residual=residual)


def mode_weight(k: Sequence[int]) -> float:
    """Half-weighting per zero frequency component, which removes the
    overcounting of the nonnegative-frequency mode sum."""
    return 2.0 ** (-sum(1 for v in k if v == 0))


GridFunction = Union[str, expressions.ExprNode, Callable, "np.ndarray"]


def _grid_values(f: GridFunction, box: Sequence[float], samples: int) -> np.ndarray:
    """f on the uniform samples^n grid of the box, kept sparse: the array
    has ndim n and size 1 on every axis f does not vary on, so broadcast
    to (samples,)*n it is the full grid. Gridded samples keep their shape.
    """
    import numpy as np

    n = len(box)
    shape = (samples,) * n
    if isinstance(f, np.ndarray):
        if f.shape != shape:
            raise ValueError(f"gridded samples must have shape {shape}")
        return np.asarray(f, dtype=float)
    axes = [(-a + 2.0 * a * np.arange(samples) / samples) for a in box]
    if isinstance(f, str):
        f = expressions.parse_expression(f, n)
    if isinstance(f, (expressions.Num, expressions.Pi, expressions.Var,
                      expressions.Neg, expressions.BinOp, expressions.Call)):
        # elementwise arithmetic broadcasts, so on the sparse mesh every
        # value keeps only the axes it uses and gives the full mesh's values
        values = expressions.evaluate(f, np.meshgrid(*axes, indexing="ij", sparse=True))
    elif callable(f):
        # an arbitrary callable need not broadcast: it gets the full mesh
        values = f(*np.meshgrid(*axes, indexing="ij"))
    else:
        raise TypeError(f"unsupported initial data {type(f).__name__}")
    values = np.asarray(values, dtype=float)
    np.broadcast_to(values, shape)  # raises unless the values fit the grid
    return values.reshape((1,) * (n - values.ndim) + values.shape)


def fourier_coefficients(
    f: GridFunction, box: Sequence[float], cutoff: int, samples: int
) -> Dict[Tuple[int, ...], Tuple[float, float]]:
    """Weighted cosine and sine coefficients of f for all frequency vectors
    with entries up to the cutoff.

    The box quadrature is the periodic tensor trapezoid rule on a uniform
    grid, evaluated through the FFT (on this grid the two coincide), which
    is exact to rounding for band-limited trigonometric data. Each pair is
    then scaled by the zero-component half-weighting.

    Only the entries at even indices up to 2*cutoff are read, so the
    transform runs axis by axis, last axis first as ``np.fft.fftn`` does,
    and keeps just those indices after each pass, so each later pass has
    at most (cutoff + 1)/samples of the full transform's lines. The grid
    stays sparse as well: an axis f does not vary on keeps size 1 until
    its own pass broadcasts it to samples, so data on few axes never fill
    the samples^n grid. A 1-D pass transforms every line on its own, and
    identical input lines give identical output lines; a size-1 axis
    stands for lines that are identical along it, and it keeps size 1
    through every earlier pass. So each line that reaches a pass holds
    the bits it holds on the full grid, and the entries kept are fftn's,
    bit for bit, sign bits included.

    That matters: coefficients that are zero in exact arithmetic come out
    at rounding level, and the mode sum multiplies them by exp(A), which
    reaches 1e29 on a 4-node star at t = 0.04, so there u depends on the
    FFT's rounding: the real-input FFT, which holds every index read here,
    moves such a u by about 1 %. Another transform must give these
    coefficients bit for bit, not only to rounding.
    """
    import numpy as np

    n = len(box)
    if samples < 4 * max(cutoff, 1) or samples & (samples - 1):
        raise ValueError("samples must be a power of two with samples >= 4*cutoff")
    spectrum = _grid_values(f, box, samples)
    read = slice(0, 2 * cutoff + 1, 2)
    for axis in range(n - 1, -1, -1):  # fftn's order: last axis first
        # an axis f does not vary on is broadcast only for its own pass
        full = spectrum.shape[:axis] + (samples,) + spectrum.shape[axis + 1:]
        spectrum = np.fft.fft(np.broadcast_to(spectrum, full), axis=axis)
        spectrum = spectrum[(slice(None),) * axis + (read,)]
    scale = 2.0 ** n / samples ** n
    out: Dict[Tuple[int, ...], Tuple[float, float]] = {}
    for k in iproduct(range(cutoff + 1), repeat=n):
        z = spectrum[k] * scale
        w = mode_weight(k)
        out[k] = (w * z.real, -w * z.imag)
    return out


@dataclass(frozen=True)
class FourierMode:
    """One mode: frequency vector and cosine and sine coefficients b and c,
    already scaled by the zero-component weight."""

    k: Tuple[int, ...]
    b: float
    c: float


@dataclass(frozen=True, eq=False)
class HeatSolution:
    """The truncated mode sum u(t, x) = sum over modes of
    exp(A(t, x)) * (b*cos(theta(t, x)) + c*sin(theta(t, x))), where A and
    theta = 2*pi*k.x/box + B are affine in x.

    family is the xi~ family the solution is built from; table is the
    (n, modes, deg + 1) complex t-polynomial table of ``_mode_table``;
    waves (modes, n) holds 2*pi*k/box and amplitudes (2, modes) the b and
    c rows, in the order of ``modes``.
    """

    tree: TreeDiagram
    orders: Tuple[int, ...]
    family: XiFamily
    box: Tuple[float, ...]
    modes: Tuple[FourierMode, ...]
    table: np.ndarray
    waves: np.ndarray
    amplitudes: np.ndarray

    def __call__(self, t: float, x) -> Union[float, np.ndarray]:
        """u at one point x of shape (n,), returned as a float, or at a
        batch of shape (P, n), returned as an array of P values.

        The table is evaluated at t once per call; the points then go
        through (modes x n) @ (n x chunk) products and one exp/cos/sin
        pass, in chunks of at most EVAL_BLOCK mode-point entries, which
        bounds the working memory whatever P is.
        """
        import numpy as np

        n = self.tree.n
        points = np.asarray(x, dtype=float)
        if points.ndim not in (1, 2) or points.shape[-1] != n:
            raise ValueError(f"expected {n} coordinates, got shape {points.shape}")
        batch = np.atleast_2d(points)
        const, slopes = _exponent_parts(self.table, self.tree, t)
        growth = slopes.real
        phase = self.waves + slopes.imag
        b, c = self.amplitudes
        chunk = max(1, EVAL_BLOCK // max(1, len(self.modes)))
        out = np.empty(len(batch))
        for lo in range(0, len(batch), chunk):
            block = batch[lo:lo + chunk].T
            scale = np.exp(growth @ block + const.real[:, None])
            angle = phase @ block + const.imag[:, None]
            out[lo:lo + chunk] = b @ (scale * np.cos(angle)) + c @ (scale * np.sin(angle))
        return float(out[0]) if points.ndim == 1 else out

    @property
    def modes_used(self) -> int:
        return len(self.modes)


def solve_heat(
    tree: TreeDiagram,
    orders: Sequence[int],
    f: GridFunction,
    box: Sequence[float],
    cutoff: int,
    samples: int,
) -> HeatSolution:
    """Truncated mode-sum solution with initial data f on the box.

    At t = 0 the sum reproduces the weighted trigonometric interpolant of
    f through the cutoff; each mode then evolves by its exact exponent.
    Raises SizeGuardError when (cutoff+1)^n modes or samples^n quadrature
    points exceed MAX_MODES or MAX_QUADRATURE_POINTS.
    """
    import numpy as np

    box = tuple(float(a) for a in box)
    if len(box) != tree.n or not all(0 < a < math.inf for a in box):
        raise ValueError("box must list one positive half-width per node")
    # size guards from closed forms, before any polynomial or grid work
    if (cutoff + 1) ** tree.n > MAX_MODES:
        raise SizeGuardError(
            f"{(cutoff + 1) ** tree.n} modes ((modes+1)^n) exceeds the guard of {MAX_MODES}"
        )
    if samples ** tree.n > MAX_QUADRATURE_POINTS:
        raise SizeGuardError(
            f"{samples ** tree.n} quadrature points (samples^n) exceeds the guard"
            f" of {MAX_QUADRATURE_POINTS}"
        )
    xi = xi_family(tree, orders)
    coeffs = fourier_coefficients(f, box, cutoff, samples)
    ks = sorted(coeffs)
    modes = tuple(
        FourierMode(k=k, b=coeffs[k][0], c=coeffs[k][1]) for k in ks
    )
    waves = _waves(ks, box)
    return HeatSolution(
        tree=tree,
        orders=xi.orders,
        family=xi,
        box=box,
        modes=modes,
        table=_mode_table(xi, waves),
        waves=waves,
        amplitudes=np.array([[m.b for m in modes], [m.c for m in modes]]),
    )
