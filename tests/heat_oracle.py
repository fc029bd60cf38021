"""Reference heat evaluation, one mode and one point at a time.

The same mode sum ``heat.HeatSolution`` evaluates from its coefficient
table, computed without the table: for every mode the exponent parts of
each node are rebuilt term by term from the xi~ polynomials, each
t-polynomial is evaluated with ``np.polyval``, and the growth and phase
of each mode are formed at one point before the weighted cosine and sine
values are added up in mode order.

``fourier_coefficients_fftn`` is the quadrature through the full
complex FFT of the whole samples^n grid with the whole spectrum scaled
and each frequency vector weighted on its own by ``mode_weight``, the
route ``heat.fourier_coefficients`` took before it transformed axis by
axis, broadcast an axis the data do not vary on only for its own pass,
kept, after each axis, only the indices it reads, and weighted all
coefficients by one broadcast product; the two must agree bit for bit.

``mode_table_per_term`` builds ``heat._mode_table``'s coefficient table
by a loop over the terms of each xi~ polynomial, one mode column per
term, and ``csv_writer_text`` writes the ``solve-heat --csv`` grid
through ``csv.writer``, one row per point; the library's array routes
must give the same bits and the same bytes.

``split_exponent_sympy`` is the independent route to the symbolic growth
and phase split: sympy expands the exponent with z_r = I*k_r and takes
its real and imaginary parts.
"""

import csv
import io
from itertools import product
from typing import Dict, Sequence

import numpy as np

from treelie.heat import HeatSolution, XiFamily, _grid_values, xi_family


def mode_weight(k: Sequence[int]) -> float:
    """Half-weighting per zero frequency component, which removes the
    overcounting of the nonnegative-frequency mode sum."""
    return 2.0 ** (-sum(1 for v in k if v == 0))


def mode_table_per_term(xi: XiFamily, waves: np.ndarray) -> np.ndarray:
    """The (n, modes, deg + 1) table of ``heat._mode_table``, one term at a
    time: each term's mode column starts from its Fraction coefficient, is
    multiplied by z_r**e for each of its z variables in order, and is added
    onto the column of its t power."""
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


def csv_writer_text(solution: HeatSolution, t: float, grid: int) -> str:
    """The grid^n rows of ``solve-heat --csv`` through ``csv.writer``, from
    a meshgrid of the closed box, last coordinate fastest."""
    n = solution.tree.n
    axes = [np.linspace(-a, a, grid) for a in solution.box]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    values = solution(t, points)
    cell = repr(float(t))
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["t"] + [f"x{i}" for i in range(1, n + 1)] + ["u"])
    writer.writerows(
        [cell] + [repr(float(v)) for v in x] + [repr(float(u))]
        for x, u in zip(points, values)
    )
    return out.getvalue()


def complex_exponent_parts(xi: XiFamily, kappa: Sequence[float]) -> Dict[int, np.ndarray]:
    """Per-node values xi~_i(z_r -> i*kappa_r) as t-polynomial coefficient
    arrays (index = power of t)."""
    out = {}
    for i in range(1, xi.tree.n + 1):
        poly = xi.xi_tilde[i]
        deg = 0
        for exps in poly.terms:
            ti = poly.variables.index("t") if "t" in poly.variables else None
            deg = max(deg, exps[ti] if ti is not None else 0)
        coeffs = np.zeros(deg + 1, dtype=complex)
        for exps, c in poly.terms.items():
            val = complex(c)
            tpow = 0
            for v, e in zip(poly.variables, exps):
                if v == "t":
                    tpow = e
                elif e:
                    val *= (1j * kappa[int(v[1:]) - 1]) ** e
            coeffs[tpow] += val
        out[i] = coeffs
    return out


def eval_tpoly(coeffs: np.ndarray, t: float) -> complex:
    return complex(np.polyval(coeffs[::-1], t))


def mode_exponents(solution: HeatSolution, t: float):
    """Per mode, the complex exponent E = const + coeffs @ x at time t as
    (const, coeffs), rebuilt from the xi~ polynomials."""
    tree, box = solution.tree, solution.box
    xi = xi_family(tree, solution.orders)
    out = []
    for mode in solution.modes:
        kappa = [2.0 * np.pi * kv / a for kv, a in zip(mode.k, box)]
        parts = complex_exponent_parts(xi, kappa)
        const = eval_tpoly(parts[1], t)
        coeffs = np.zeros(tree.n, dtype=complex)
        for i in range(2, tree.n + 1):
            coeffs[tree.parent(i) - 1] += eval_tpoly(parts[i], t)
        out.append((const, coeffs))
    return out


def mode_sum(solution: HeatSolution, t: float, points) -> np.ndarray:
    """u(t, x) at each of the points, by the loop over modes and points
    the batched evaluator replaces."""
    box = solution.box
    exponents = mode_exponents(solution, t)
    out = []
    for x in np.asarray(points, dtype=float):
        total = 0.0
        for mode, (const, coeffs) in zip(solution.modes, exponents):
            growth = np.exp(const.real + float(np.dot(coeffs.real, x)))
            base = 2.0 * np.pi * sum(kv * xv / a for kv, xv, a in zip(mode.k, x, box))
            angle = base + const.imag + float(np.dot(coeffs.imag, x))
            total += mode.b * (growth * np.cos(angle)) + mode.c * (growth * np.sin(angle))
        out.append(float(total))
    return np.array(out)


def fourier_coefficients_fftn(f, box, cutoff: int, samples: int):
    """Weighted cosine and sine coefficient arrays b and c, indexed by the
    frequency vector, from np.fft.fftn of the grid."""
    n = len(box)
    grid = np.broadcast_to(_grid_values(f, box, samples), (samples,) * n)
    spectrum = np.fft.fftn(grid) * (2.0 ** n / samples ** n)
    b = np.empty((cutoff + 1,) * n)
    c = np.empty((cutoff + 1,) * n)
    for k in product(range(cutoff + 1), repeat=n):
        z = spectrum[tuple(2 * kv for kv in k)]
        w = mode_weight(k)
        b[k], c[k] = w * z.real, -w * z.imag
    return b, c


def poly_to_sympy(poly):
    """The polynomial as a sympy expression in real symbols of the same names."""
    import sympy

    syms = [sympy.Symbol(v, real=True) for v in poly.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
        for exps, c in poly.terms.items()
    ))


def split_exponent_sympy(xi: XiFamily):
    """(re, im) of xi~_1 + sum over i >= 2 of x_parent(i)*xi~_i with
    z_r = I*k_r, as expanded sympy expressions in real symbols x, k, t."""
    import sympy

    n = xi.tree.n
    E = poly_to_sympy(xi.xi_tilde[1])
    for i in range(2, n + 1):
        E += sympy.Symbol(f"x{xi.tree.parent(i)}", real=True) * poly_to_sympy(xi.xi_tilde[i])
    z_to_ik = {
        sympy.Symbol(f"z{r}", real=True): sympy.I * sympy.Symbol(f"k{r}", real=True)
        for r in range(1, n + 1)
    }
    E = sympy.expand(E.subs(z_to_ik, simultaneous=True))
    return sympy.expand(sympy.re(E)), sympy.expand(sympy.im(E))
