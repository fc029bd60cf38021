"""Reference exact check of the first-order solution through f itself.

``firstorder.verify_first_order`` checks the n coordinate residuals of
x + eta, which by the chain rule settles the equation for every f at
once. This oracle takes the long way for one polynomial f: it expands
u = f(x + eta) and returns the residual u_t - (d/dx_1 + sum over edges
(p, c, w) of x_p^w d/dx_c) u, the zero polynomial when u solves the
equation.
"""

from treelie.expressions import parse_expression
from treelie.polynomials import MultiPoly

from .poly_oracle import to_multipoly


def f_residual(family, f: str) -> MultiPoly:
    tree = family.tree
    fpoly = to_multipoly(parse_expression(f, tree.n))
    shift = {
        f"x{i}": MultiPoly.var(f"x{i}") + family.eta[i] for i in range(1, tree.n + 1)
    }
    u = fpoly.substitute(shift)
    rhs = u.differentiate("x1")
    for p, c, w in tree.edges():
        rhs = rhs + MultiPoly.var(f"x{p}") ** w * u.differentiate(f"x{c}")
    return u.differentiate("t") - rhs
