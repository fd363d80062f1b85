"""Shared helpers for the uel test suite."""

import importlib.util
import pathlib
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from uel import (Grid, assemble_fd, assemble_fem, make_bc_spec, make_case,
                 make_domain, solve_direct)
from uel.geometry import CELL_INSIDE, LevelSetDomain


def full_square_domain():
    """Omega = all of R (phi == 1)."""
    return LevelSetDomain(
        "full", lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2)


# centre and semi-axes of the off-grid ellipses drawn by the property tests
ELLIPSES = dict(cx=st.floats(-0.2, 0.2), cy=st.floats(-0.2, 0.2),
                a=st.floats(0.3, 0.7), b=st.floats(0.3, 0.7))


def load_census():
    """tools/census.py as a module (tools/ is not a package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


# the census draws its ellipses from the same builder
ellipse_domain = load_census().ellipse


# seeded offsets of the shifted built-in domains, U(-0.05, 0.05)^2
SHIFTS = [tuple(s) for s in np.random.default_rng(5).uniform(-0.05, 0.05, (12, 2)).tolist()]


def omega_h_area(classification, band):
    """area(Omega_h) from a BoundaryBand: the band areas plus a full h^2
    for every inside cell the band leaves out."""
    role = classification.cell_role
    n_full = (np.count_nonzero(role == CELL_INSIDE)
              - np.count_nonzero(role[band.cells[:, 0], band.cells[:, 1]] == CELL_INSIDE))
    return sum(band.area.tolist()) + n_full * classification.grid.h ** 2


def segment_lengths(band):
    """Lengths |p1 - p0| of a BoundaryBand's boundary segments."""
    return np.hypot(*(band.p1 - band.p0).T)


def traced_peak(call):
    """(call(), peak): peak is the most memory tracemalloc traced during
    call, above what it traced at the start.  call runs once untraced
    first, so lazy imports and caches do not count."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def counted_splu(monkeypatch):
    """Wrap SuperLU's splu; returns the list of (dtype, ordering) it is
    called with ("COLAMD" when the caller leaves SuperLU's default)."""
    import uel.sparse_linalg as sl
    calls = []
    real = sl.spla.splu

    def splu(A, **kwargs):
        calls.append((A.dtype, kwargs.get("permc_spec", "COLAMD")))
        return real(A, **kwargs)

    monkeypatch.setattr(sl.spla, "splu", splu)
    return calls


def csr_bytes(A):
    """Bytes of a CSR matrix's data, indices and indptr arrays."""
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def run_fd(domain_name, case_name, bc_kind, n, p=2, tol_factor=1e-4):
    """Assemble + direct-solve one FD configuration."""
    domain = make_domain(domain_name)
    case = make_case(case_name)
    bc = make_bc_spec(domain_name, bc_kind)
    grid = Grid(n)
    system = assemble_fd(grid, domain, case, bc, p=p, tol_factor=tol_factor)
    u, report = solve_direct(system.matrix, system.rhs)
    return grid, system, u, report, case


def run_fem(domain_name, case_name, bc_kind, n, alpha=2.0):
    """Assemble + direct-solve one FEM configuration."""
    domain = make_domain(domain_name)
    case = make_case(case_name)
    bc = make_bc_spec(domain_name, bc_kind)
    grid = Grid(n)
    system = assemble_fem(grid, domain, case, bc, alpha=alpha)
    u, report = solve_direct(system.matrix, system.rhs)
    return grid, system, u, report, case


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
