"""uel: unfitted elliptic solvers on level-set domains.

Two discretizations of the Poisson problem -lap(u) = f with mixed
Dirichlet/Neumann data on domains described by a level-set function inside
R = [-1, 1]^2:

* a ghost-point finite-difference scheme (5-point interior stencil plus
  interpolation rows enforcing the boundary condition at projected boundary
  points), and
* a penalized nodal finite element method on cut cells with a symmetric
  Nitsche formulation and small-cut snapping.

A solver layer (direct, preconditioned CG, nonsymmetric Krylov, condition
estimation), manufactured-solution error analysis, and a CLI experiment
harness complete the package.  The package root exports the names of the
README library sketch; everything else is imported from its submodule
(uel.geometry, uel.fd_scheme, uel.fem_scheme, uel.sparse_linalg,
uel.analysis, uel.errors, uel.cli).
"""

from .analysis import make_case, relative_error
from .fd_scheme import assemble_fd
from .fem_scheme import assemble_fem
from .geometry import Grid, make_bc_spec, make_domain
from .sparse_linalg import solve_cg, solve_direct

__version__ = "0.1.0"
