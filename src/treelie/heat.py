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
complex table of t-polynomial coefficients (node x mode x power of t)
from one exponent matrix of the family's terms, and ``HeatSolution``
evaluates it at t by one Horner pass, so a batch of P points costs one
(modes x n) @ (n x P) product and one exp/cos/sin pass, done in chunks
of at most EVAL_BLOCK mode-point entries. Frequency vectors and
amplitudes stay arrays; ``FourierMode`` objects are built only when
``HeatSolution.modes`` is read.

The initial data enter through ``fourier_coefficients``, one FFT pass per
axis that keeps only the coefficients the mode sum reads, on a grid that
holds only the axes the data vary on until each axis's own pass; a pass
along an axis the data do not vary on is a sum, formed without a
transform. The coefficients keep the bits of the full ``np.fft.fftn``.

Before any of this, ``solve_heat`` counts the terms of the family and
the term products that build it (``xi_family_size``, without building
it), since the symbolic powers behind the family grow combinatorially in
the orders.

numpy is imported inside the functions that compute with it, so loading
this module does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple, Union

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
    "fourier_coefficients",
    "solve_heat",
    "verify_modes",
    "xi_family_size",
    "MAX_MODES",
    "MAX_QUADRATURE_POINTS",
    "MAX_XI_TERMS",
    "MAX_XI_PRODUCTS",
]

# mode-point entries per evaluation chunk: HeatSolution works on a few
# float arrays of this size, whatever the number of points
EVAL_BLOCK = 1 << 16
# desk-scale size guards of solve_heat, checked from closed forms. The
# term products bound the time of the symbolic xi~ family: on a 2-vCPU
# Xeon the slowest request found inside the guard, star(3) with orders
# 33,1,1,1 (993 711 products), takes 2.5 s from the CLI, chain([1,1]) with
# orders 64,2,2 (1 280 957) took 2.8 s and with 99,2,2 (6 769 796) 10.2 s;
# the benchmark's largest family, chain([1,1,1]) with orders 3, takes
# 2 793. The terms bound the family's size and the mode table's.
MAX_MODES = 10_000
MAX_QUADRATURE_POINTS = 1 << 22
MAX_XI_TERMS = 10_000
MAX_XI_PRODUCTS = 1_000_000


@dataclass(frozen=True)
class XiFamily:
    """Per-node polynomials in t and the commuting derivative symbols z_s
    of the node and its descendants; zero at t = 0 away from constants."""

    tree: TreeDiagram
    orders: Tuple[int, ...]
    xi_tilde: Dict[int, MultiPoly]


def _checked_orders(tree: TreeDiagram, orders: Sequence[int]) -> Tuple[int, ...]:
    orders = tuple(int(m) for m in orders)
    if len(orders) != tree.n:
        raise ValueError(f"expected {tree.n} orders, got {len(orders)}")
    if any(m < 1 for m in orders):
        raise ValueError("orders must be positive integers")
    return orders


def xi_family(tree: TreeDiagram, orders: Sequence[int]) -> XiFamily:
    orders = _checked_orders(tree, orders)
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


def xi_family_size(tree: TreeDiagram, orders: Sequence[int]) -> Tuple[int, int]:
    """The number of terms of xi~_1, the largest of the family, and the
    number of term products the powers (z_i + the children's xi~)^{m_i}
    take, counted from the tree and the orders alone. Each count past its
    guard (MAX_XI_TERMS, MAX_XI_PRODUCTS) is returned as a number past it.

    The z exponents e of every term of xi~_s satisfy c_s(e) = 1 for a
    linear form c_s (e_s/m_s at a tip, (e_s + the children's c)/m_s
    above), and the term's power of t is linear in e too. So a term is
    fixed by its z exponents, and a sum of j terms of xi~_s tells j from
    its exponents. The terms of (z_i + the children's xi~)^k are the sums
    of k of its terms, whose coefficients are all positive, so no sum
    cancels. With D_i(k) the number of distinct such sums, D_tip(k) = 1
    and D_i(k) is the sum over J <= k of the coefficient of x^J in the
    product over children c of G_c(x) = sum over j of D_c(j*m_c) x^j;
    xi~_i has D_i(m_i) terms. ``MultiPoly.__pow__`` squares and multiplies,
    so its products are D_i(a)*D_i(b) term pairs summed over its steps.
    Counts saturate at MAX_XI_TERMS + 1, and D_i(k) >= k + 1 above a tip,
    so no series runs past that length, and a series product stops once
    its prefix sum saturates.
    """
    cap = MAX_XI_TERMS + 1
    orders = _checked_orders(tree, orders)
    powers: Dict[int, List[int]] = {}  # D_i(0..m_i) of every node above a tip

    def sums(i: int, top: int) -> List[int]:
        """D_i(k), saturated, for k = 0..top."""
        kids = tree.children(i)
        if not kids:
            return [1] * (top + 1)
        series: List[int] = []
        for c in kids:
            m = orders[c - 1]
            d = sums(c, min(top * m, cap))
            past = cap if tree.children(c) else 1  # D_c past the end of d
            g = [d[j * m] if j * m < len(d) else past for j in range(top + 1)]
            series = _saturated_product(series, g, cap) if series else g
        out, total = [], 0
        for k in range(top + 1):
            total = min(cap, total + (series[k] if k < len(series) else cap))
            out.append(total)
        powers.setdefault(i, out)
        return out

    root = sums(1, min(orders[0], cap))
    products = 0
    for i, d in powers.items():
        # the exponents of __pow__'s two factors; d ends saturated
        k, out, base = orders[i - 1], 0, 1
        while k:
            if k & 1:
                products += d[min(out, len(d) - 1)] * d[min(base, len(d) - 1)]
                out += base
            k >>= 1
            if k:
                products += d[min(base, len(d) - 1)] ** 2
                base *= 2
    return root[-1], products


def _saturated_product(a: List[int], b: List[int], cap: int) -> List[int]:
    """The coefficients of a*b, two series with constant term 1 and
    nonnegative coefficients, up to the first degree at which they add up
    to cap: the product is at least each factor, so every later prefix sum
    of it, or of a product with a further such factor, is past cap."""
    out, total = [], 0
    for degree in range(min(len(a), len(b))):
        c = min(cap, sum(a[i] * b[degree - i] for i in range(degree + 1)))
        out.append(c)
        total += c
        if total >= cap:
            break
    return out


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

    The terms of all nodes form one exponent matrix (columns t, z_1..z_n),
    taken in blocks of at most EVAL_BLOCK term-mode entries. A block starts
    from its float coefficients num/den, is multiplied by z_r**e on the
    terms with e > 0 one z variable after another, and is added onto its
    t powers by ``np.add.at``, which adds in term order. Each entry so
    takes the operations of a loop over the terms in the same order, and
    keeps its bits, overflow to inf and NaN included.
    """
    import numpy as np

    n = xi.tree.n
    z = 1j * waves
    nodes, exps, coeffs = [], [], []
    for i in range(1, n + 1):
        poly = xi.xi_tilde[i]
        columns = [0 if v == "t" else int(v[1:]) for v in poly.variables]
        block = np.zeros((len(poly.num), n + 1), dtype=np.int64)
        block[:, columns] = list(poly.num)
        exps.append(block)
        nodes.append(np.full(len(block), i - 1))
        coeffs.extend(c / poly.den for c in poly.num.values())
    exps, nodes, coeffs = np.concatenate(exps), np.concatenate(nodes), np.array(coeffs)
    # z_r**e once per distinct exponent e > 0 of each z variable, computed
    # as the loop over terms computes it; powers[r - 1][rows[r - 1]] then
    # holds z_r**e of every term (a row of ones where e = 0, never read)
    powers, rows = [], []
    for r in range(1, n + 1):
        distinct = sorted(set(exps[:, r].tolist()) | {0})
        powers.append(np.stack([np.ones(len(z), dtype=complex)]
                               + [z[:, r - 1] ** e for e in distinct[1:]]))
        rows.append(np.searchsorted(distinct, exps[:, r]))
    width = int(exps[:, 0].max()) + 1
    table = np.zeros((n, len(z), width), dtype=complex)
    # entry [node, m, t power] of the table is flat[start + m * width],
    # start = (node * modes) * width + t power
    starts = nodes * (len(z) * width) + exps[:, 0]
    offsets = np.arange(len(z)) * width
    step = max(1, EVAL_BLOCK // max(1, len(z)))
    for lo in range(0, len(exps), step):
        e = exps[lo:lo + step]
        column = np.empty((len(e), len(z)), dtype=complex)
        column[:] = coeffs[lo:lo + step, None]
        for r in range(1, n + 1):
            used = e[:, r, None] > 0
            if used.any():
                factor = powers[r - 1].take(rows[r - 1][lo:lo + step], axis=0)
                np.multiply(column, factor, out=column, where=used)
        slots = starts[lo:lo + step, None] + offsets
        np.add.at(table.reshape(-1), slots.reshape(-1), column.reshape(-1))
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


def _pruned_fft(values: np.ndarray, samples: int, cutoff: int) -> np.ndarray:
    """``np.fft.fftn`` of values broadcast to (samples,)*n, at the indices
    0, 2, ..., 2*cutoff of every axis, with fftn's bits, sign bits included
    (a NaN is NaN on both sides; its sign and payload follow how the FFT
    batches lines, as they did when every pass was transformed).

    The transform runs axis by axis, last axis first as fftn does, and
    keeps just the read indices after each pass, so each later pass has at
    most (cutoff + 1)/samples of the full transform's lines. The grid stays
    sparse as well: an axis of size 1 is broadcast to samples only for its
    own pass, so data on few axes never fill the samples^n grid. A 1-D pass
    transforms every line on its own, and identical input lines give
    identical output lines; a size-1 axis stands for lines that are
    identical along it, and it keeps size 1 through every earlier pass. So
    each line that reaches a pass holds the bits it holds on the full grid.

    A pass along a size-1 axis needs no transform while samples times every
    real and imaginary part stays finite: on a constant line the FFT adds
    the value samples times, a power of two, which is exact, and every
    other entry is +0, built from differences of equal values. The FFT of
    a line of +0 is +0 again, so such an axis keeps size 1, now holding
    index 0, through the later passes, and is padded with +0 at the end:
    data constant along the last axes do not fill the grid of the leading
    ones either. The tests hold all of this to fftn bit for bit; past the
    finite range the constant lines are transformed.
    """
    import numpy as np

    top = np.finfo(float).max / samples
    read = slice(0, 2 * cutoff + 1, 2)
    spectrum = values
    kept = []  # per axis, the indices the spectrum holds: all read ones, or 0
    for axis in range(values.ndim - 1, -1, -1):  # fftn's order: last axis first
        if spectrum.shape[axis] == 1 and np.all(abs(spectrum.real) <= top) and np.all(
            abs(spectrum.imag) <= top
        ):
            summed = np.zeros(spectrum.shape, dtype=complex)
            summed.real = spectrum.real * samples
            summed.imag = spectrum.imag * samples
            spectrum = summed
            kept.append(slice(0, 1))
        else:
            full = spectrum.shape[:axis] + (samples,) + spectrum.shape[axis + 1:]
            spectrum = np.fft.fft(np.broadcast_to(spectrum, full), axis=axis)
            spectrum = spectrum[(slice(None),) * axis + (read,)]
            kept.append(slice(None))
    out = np.zeros((cutoff + 1,) * values.ndim, dtype=complex)
    out[tuple(reversed(kept))] = spectrum
    return out


def fourier_coefficients(
    f: GridFunction, box: Sequence[float], cutoff: int, samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted cosine and sine coefficients b and c of f for all frequency
    vectors with entries up to the cutoff: two arrays of shape
    (cutoff + 1,)*n, so b[k] and c[k] belong to the frequency vector k.

    The box quadrature is the periodic tensor trapezoid rule on a uniform
    grid, evaluated through the FFT (on this grid the two coincide), which
    is exact to rounding for band-limited trigonometric data. Only the
    entries at even indices up to 2*cutoff are read, and ``_pruned_fft``
    gives just those, with the bits of the full ``np.fft.fftn``. Each pair
    is then scaled by the zero-component half-weighting,
    2^-(number of zero entries of k), which removes the overcounting of
    the nonnegative-frequency mode sum: one broadcast product of per-axis
    [0.5, 1, ..., 1] vectors, exact in floats.

    The bits matter: coefficients that are zero in exact arithmetic come
    out at rounding level, and the mode sum multiplies them by exp(A),
    which reaches 1e29 on a 4-node star at t = 0.04, so there u depends on
    the FFT's rounding: the real-input FFT, which holds every index read
    here, moves such a u by about 1 %. Another transform must give these
    coefficients bit for bit, not only to rounding.
    """
    import numpy as np

    n = len(box)
    if samples < 4 * max(cutoff, 1) or samples & (samples - 1):
        raise ValueError("samples must be a power of two with samples >= 4*cutoff")
    spectrum = _pruned_fft(_grid_values(f, box, samples), samples, cutoff)
    spectrum = spectrum * (2.0 ** n / samples ** n)
    half = np.ones(cutoff + 1)
    half[0] = 0.5
    weight = np.ones((1,) * n)
    for axis_weight in np.ix_(*[half] * n):
        weight = weight * axis_weight
    return weight * spectrum.real, -weight * spectrum.imag


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

    family is the xi~ family the solution is built from; ks (modes, n)
    holds the frequency vectors in lexicographic order; table is the
    (n, modes, deg + 1) complex t-polynomial table of ``_mode_table``;
    waves (modes, n) holds 2*pi*k/box and amplitudes (2, modes) the b and
    c rows, all in the order of ks.
    """

    tree: TreeDiagram
    orders: Tuple[int, ...]
    family: XiFamily
    box: Tuple[float, ...]
    ks: np.ndarray
    table: np.ndarray
    waves: np.ndarray
    amplitudes: np.ndarray

    @cached_property
    def modes(self) -> Tuple[FourierMode, ...]:
        """The modes as ``FourierMode`` values, built on the first read."""
        b, c = self.amplitudes.tolist()
        return tuple(FourierMode(tuple(k), bk, ck) for k, bk, ck in zip(self.ks.tolist(), b, c))

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
        chunk = max(1, EVAL_BLOCK // max(1, len(self.ks)))
        out = np.empty(len(batch))
        for lo in range(0, len(batch), chunk):
            block = batch[lo:lo + chunk].T
            scale = np.exp(growth @ block + const.real[:, None])
            angle = phase @ block + const.imag[:, None]
            out[lo:lo + chunk] = b @ (scale * np.cos(angle)) + c @ (scale * np.sin(angle))
        return float(out[0]) if points.ndim == 1 else out

    @property
    def modes_used(self) -> int:
        return len(self.ks)


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
    Raises SizeGuardError when (cutoff+1)^n modes, samples^n quadrature
    points, or the terms of xi~_1 or the term products that build the
    family exceed MAX_MODES, MAX_QUADRATURE_POINTS, MAX_XI_TERMS or
    MAX_XI_PRODUCTS.
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
    terms, products = xi_family_size(tree, orders)
    if terms > MAX_XI_TERMS:
        raise SizeGuardError(f"xi~_1 terms exceed the guard of {MAX_XI_TERMS}")
    if products > MAX_XI_PRODUCTS:
        raise SizeGuardError(
            f"{products} xi~ term products exceed the guard of {MAX_XI_PRODUCTS}"
        )
    xi = xi_family(tree, orders)
    b, c = fourier_coefficients(f, box, cutoff, samples)
    # C order of the (cutoff + 1)^n coefficient arrays is lexicographic in k
    ks = np.indices(b.shape).reshape(tree.n, -1).T.copy()
    waves = _waves(ks, box)
    return HeatSolution(
        tree=tree,
        orders=xi.orders,
        family=xi,
        box=box,
        ks=ks,
        table=_mode_table(xi, waves),
        waves=waves,
        amplitudes=np.stack([b.reshape(-1), c.reshape(-1)]),
    )
