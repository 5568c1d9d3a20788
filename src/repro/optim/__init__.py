"""Numerical optimisation substrate: the bound QP and the simplex LP,
the two solvers the paper's tight bound and dominance test rely on
("off-the-shelf solvers" in the paper; implemented here).

One bound-QP solver (:func:`solve_bound_qp_masked`) stacks many tiny
problems into one vectorised call, with every entry bit-identical to the
per-pattern active-set enumeration (:func:`solve_bound_qp_batch`) on the
same row (see :mod:`repro.optim.qp` for the row-stability contract).
The dominance LPs are few enough to solve one at a time."""

from repro.optim.qp import (
    QPResult,
    solve_bound_qp_batch,
    solve_bound_qp_masked,
    solve_qp,
    spread_matrix,
)
from repro.optim.simplex import (
    LPStatus,
    chebyshev_center,
    polyhedron_feasible_point,
    polyhedron_is_empty,
)

__all__ = [
    "QPResult",
    "solve_bound_qp_batch",
    "solve_bound_qp_masked",
    "solve_qp",
    "spread_matrix",
    "LPStatus",
    "chebyshev_center",
    "polyhedron_feasible_point",
    "polyhedron_is_empty",
]
