"""Reference structure table by testing every pair of basis elements.

``liealg.structure_table`` finds the non-commuting partners of each basis
element from per-node bitmasks. This oracle finds them the direct way:
for every ordered pair (p, q) it tests whether the bracket is nonzero
(about dim² tests) and expands the nonzero ones, then derives the
central series and the bracket closures from the images it collected.
"""

from treelie.liealg import StructureTable, enumerate_basis, root_of_monomial

from .lie_oracle import _bracket_monomials


def pairwise_structure_table(tree, direction) -> StructureTable:
    basis = enumerate_basis(tree, direction)
    keys = tuple((m.exps, m.dvar) for m in basis)
    roots = tuple(root_of_monomial(m) for m in basis)
    index = {r: k for k, r in enumerate(roots)}
    key_index = {key: k for k, key in enumerate(keys)}
    nb = len(keys)
    full = (1 << nb) - 1

    closed = True
    commute = []
    ad_images = [0] * nb
    for exps, dvar in keys:
        partners = 0
        for q, (exps_q, dvar_q) in enumerate(keys):
            # [x^a d_i, x^b d_j] is nonzero exactly when b_i > 0 or a_j > 0
            if not (exps_q[dvar - 1] or exps[dvar_q - 1]):
                continue
            partners |= 1 << q
            terms = [key_index.get(key) for key, _ in _bracket_monomials(exps, dvar, exps_q, dvar_q)]
            if None in terms:
                closed = False
                continue
            (s,) = terms
            ad_images[q] |= 1 << s
        commute.append(full & ~partners)

    series = []
    current = full
    while current:
        series.append(current)
        current = _union(ad_images[q] for q in range(nb) if current >> q & 1)

    # grow each closure by the images of its members until nothing is added
    closures = []
    for q in range(nb):
        mask, grown = 0, 1 << q
        while grown != mask:
            mask = grown
            grown = mask | _union(ad_images[s] for s in range(nb) if mask >> s & 1)
        closures.append(mask)

    return StructureTable(
        keys=keys,
        roots=roots,
        index=index,
        closed=closed,
        commute=tuple(commute),
        ad_images=tuple(ad_images),
        central_series=tuple(series),
        closures=tuple(closures),
    )


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out
