"""Shared helpers for the uel test suite."""

import numpy as np

from uel import (Grid, assemble_fd, assemble_fem, make_bc_spec, make_case,
                 make_domain, relative_error, solve_direct)
from uel.fd_scheme import fd_gradient
from uel.fem_scheme import fem_gradient, nodal_interior_values, solution_samples
from uel.geometry import NODE_INTERIOR, LevelSetDomain


def full_square_domain():
    """Omega = all of R (phi == 1)."""
    return LevelSetDomain(
        "full", lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2)


def run_fd(domain_name, case_name, bc_kind, n, p=2, tol_factor=1e-4):
    """Assemble + direct-solve one FD configuration."""
    domain = make_domain(domain_name)
    case = make_case(case_name)
    bc = make_bc_spec(domain_name, bc_kind)
    grid = Grid(n)
    system = assemble_fd(grid, domain, case, bc, p=p, tol_factor=tol_factor)
    u, report = solve_direct(system.matrix, system.rhs)
    return grid, system, u, report, case


def fd_errors(grid, system, u, case):
    """(err_u_l1, l2, linf), (err_g_l1, l2, linf) over interior nodes."""
    ii, jj = np.nonzero(system.classification.node_role == NODE_INTERIOR)
    w = np.full(len(ii), grid.h ** 2)
    u_h = u[system.index[ii, jj]]
    u_ex = case.u(grid.xs[ii], grid.xs[jj])
    eu = tuple(relative_error(u_h, u_ex, b, w) for b in (1, 2, "inf"))
    nodes, grads = fd_gradient(system, u)
    g_ex = np.column_stack(case.grad_u(grid.xs[nodes[:, 0]], grid.xs[nodes[:, 1]]))
    wg = np.full(len(nodes), grid.h ** 2)
    eg = tuple(relative_error(grads, g_ex, b, wg) for b in (1, 2, "inf"))
    return eu, eg


def run_fem(domain_name, case_name, bc_kind, n, alpha=2.0):
    """Assemble + direct-solve one FEM configuration."""
    domain = make_domain(domain_name)
    case = make_case(case_name)
    bc = make_bc_spec(domain_name, bc_kind)
    grid = Grid(n)
    system = assemble_fem(grid, domain, case, bc, alpha=alpha)
    u, report = solve_direct(system.matrix, system.rhs)
    return grid, system, u, report, case


def fem_errors(grid, system, u, case):
    """Quadrature-weighted u errors, gradient errors, and the nodal Linf."""
    pts, w, u_h = solution_samples(system, u)
    u_ex = case.u(pts[:, 0], pts[:, 1])
    eu = tuple(relative_error(u_h, u_ex, b, w) for b in (1, 2, "inf"))
    gp, gw, gh = fem_gradient(system, u)
    g_ex = np.column_stack(case.grad_u(gp[:, 0], gp[:, 1]))
    eg = tuple(relative_error(gh, g_ex, b, gw) for b in (1, 2, "inf"))
    nodes, vals = nodal_interior_values(system, u)
    nodal = relative_error(vals, case.u(grid.xs[nodes[:, 0]], grid.xs[nodes[:, 1]]), "inf")
    return eu, eg, nodal


def jacobi_eigenvalues(a, tol=1e-12, max_sweeps=60):
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Independent oracle used to cross-check the sparse condition estimator;
    for SPD input the singular values equal the eigenvalues.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * np.linalg.norm(np.diag(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))
