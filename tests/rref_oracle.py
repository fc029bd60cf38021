"""Reference structure checks by dense exact linear algebra.

The same questions ``liealg.verify_structure`` answers from the
root-graded structure table, answered without using the grading: every
bracket of two basis monomials is expanded into coefficient vectors, the
lower central series is spanned and reduced by Gaussian elimination over
the rationals, and the center is the null space of all ad maps stacked,
reported as basis keys like ``verify_structure`` reports it.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from treelie.liealg import StructureReport, enumerate_basis

from .lie_oracle import LieElement, _bracket_monomials


def rref_structure(tree, direction) -> StructureReport:
    basis = enumerate_basis(tree, direction)
    keys = [(m.exps, m.dvar) for m in basis]
    index = {k: i for i, k in enumerate(keys)}
    nb = len(keys)

    closure = True
    table: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    for p in range(nb):
        for q in range(nb):
            if p == q:
                continue
            vec = []
            ok = True
            for key, mult in _bracket_monomials(*keys[p], *keys[q]):
                if key not in index:
                    ok = False
                    closure = False
                else:
                    vec.append((index[key], Fraction(mult)))
            if ok and vec:
                table[(p, q)] = vec

    def bracket_rows(rows):
        out = []
        for g in range(nb):
            for row in rows:
                acc = [Fraction(0)] * nb
                hit = False
                for j, cj in enumerate(row):
                    if not cj:
                        continue
                    for idx, mult in table.get((g, j), ()):
                        acc[idx] += cj * mult
                        hit = True
                if hit and any(acc):
                    out.append(acc)
        return rref(out)

    dims = []
    current = [[Fraction(1 if i == j else 0) for j in range(nb)] for i in range(nb)]
    while current:
        dims.append(len(current))
        current = bracket_rows(current)

    # kernel of all ad maps: stack, per generator g, the rows of the matrix
    # sending coefficient vectors to bracket images
    stacked = []
    for g in range(nb):
        rows: Dict[int, List[Fraction]] = {}
        for j in range(nb):
            for idx, mult in table.get((g, j), ()):
                rows.setdefault(idx, [Fraction(0)] * nb)[j] += mult
        stacked.extend(rows.values())
    kernel = nullspace(rref(stacked), nb)
    center = tuple(_as_key(tree.n, keys, vec) for vec in rref(kernel))
    return StructureReport(
        closure=closure,
        central_series_dims=tuple(dims),
        center_basis=center,
    )


def _as_key(n, keys, vec):
    """The basis key of a unit kernel vector; any other vector stays a
    LieElement, which equals no key, so a center that is not spanned by
    basis elements fails the comparison."""
    support = [j for j, c in enumerate(vec) if c]
    if len(support) == 1 and vec[support[0]] == 1:
        return keys[support[0]]
    return LieElement(n, {keys[j]: vec[j] for j in support})


def rref(rows):
    """Reduced row echelon form over Fraction; returns the pivot rows."""
    out: List[Tuple[List[Fraction], int]] = []
    for row in rows:
        row = list(row)
        for prow, pcol in out:
            f = row[pcol]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        pc = next((c for c, a in enumerate(row) if a), None)
        if pc is None:
            continue
        inv = row[pc]
        row = [a / inv for a in row]
        for k, (prow, pcol) in enumerate(out):
            f = prow[pc]
            if f:
                out[k] = ([a - f * b for a, b in zip(prow, row)], pcol)
        out.append((row, pc))
    out.sort(key=lambda t: t[1])
    return [r for r, _ in out]


def nullspace(reduced_rows, ncols):
    """Kernel basis of a matrix already in reduced row echelon form."""
    pivots = {}
    for r in reduced_rows:
        pc = next(c for c, a in enumerate(r) if a)
        pivots[pc] = r
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, r in pivots.items():
            v[pc] = -r[fc]
        basis.append(v)
    return basis
