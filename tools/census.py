"""Byte-identity census of the assembled FD and FEM systems.

    PYTHONPATH=src python3 tools/census.py > census.txt

Assembles a fixed set of systems with the `uel` found on PYTHONPATH and
prints one JSON line per system with SHA-256 hashes, or the text of the
error the assembly raised:

* `system`: the matrix (data, indices, indptr) and the right-hand side;
* `parts`: a `{field: hash}` map over the fields of the FD ghost record
  (`FdSystem.ghosts`) or the FEM boundary band (`FemSystem.band`), dtypes
  and shapes included.

A refactor that must not change any number is gated by `diff` between the
outputs of the two source trees.  Keeping the hashes apart shows whether a
round-off move in a geometric field (say a cut-cell area) reached A and F,
and a change to the record's fields shows as keys added or dropped while
the kept fields' hashes still match.

FD: the four built-in domains, 40 seeded random ellipses, the centred
ellipse 1 - (x/0.5)^2 - (y/0.3)^2 and the slab x < -0.95 at N=20 (whose
p=2 stencils leave the grid, so the ghost layer's error text is pinned
too), each with both boundary-condition splits and p in {1, 2}.  FEM: the
built-in domains and the same 40 ellipses, with both splits and alpha in
{1.5, 2}.  Both schemes also assemble the built-in domains moved off the
grid by three seeded shifts in U(-0.05, 0.05)^2 (the first three of the
test suite's SHIFTS, applied by `LevelSetDomain.shifted`) at N in
{40, 80, 160}: the centred circle has no extended ghost at any N, the
circle moved by the second shift has two at N=40 with p=2.  The whole
census takes about ten seconds on one core; `tests/test_census.py` checks
its shifts and the lines `record` prints, and the test suite builds its
random ellipses with `ellipse`.
"""

import dataclasses
import hashlib
import json

import numpy as np

from uel import Grid, assemble_fd, assemble_fem, make_bc_spec, make_case, make_domain
from uel.errors import UelError
from uel.geometry import DOMAIN_NAMES, LevelSetDomain

GRIDS = (8, 12, 16, 24, 32, 40, 64, 80, 160, 320)
ELLIPSE_GRIDS = (16, 24, 40, 64)
SHIFTED_GRIDS = (40, 80, 160)
SHIFTS = [tuple(s) for s in np.random.default_rng(5).uniform(-0.05, 0.05, (3, 2)).tolist()]
BCS = ("dirichlet", "mixed")
SEED = 2024


def ellipse(cx, cy, a, b):
    """Off-grid ellipse with centre (cx, cy) and semi-axes a, b."""
    def phi(x, y):
        return 1.0 - ((x - cx) / a) ** 2 - ((y - cy) / b) ** 2

    def grad(x, y):
        return -2.0 * (x - cx) / a ** 2, -2.0 * (y - cy) / b ** 2

    return LevelSetDomain("ellipse", phi, grad)


def slab(c):
    """Omega = {x < c}."""
    def phi(x, y):
        return c - x + 0.0 * y

    def grad(x, y):
        return -np.ones_like(x), np.zeros_like(y)

    return LevelSetDomain("slab", phi, grad)


def sha256(*arrays):
    """Hash arrays with their dtypes and shapes."""
    digest = hashlib.sha256()
    for value in arrays:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"cannot hash a {type(value).__name__}")
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def field_hashes(value):
    """{field: hash} over the fields of a record of arrays."""
    return {field.name: sha256(getattr(value, field.name))
            for field in dataclasses.fields(value)}


def record(label, build, parts):
    try:
        system = build()
    except UelError as exc:
        line = {**label, "error": f"{type(exc).__name__}: {exc}"}
    else:
        matrix = system.matrix
        line = {**label,
                "system": sha256(matrix.data, matrix.indices, matrix.indptr, system.rhs),
                "parts": field_hashes(parts(system))}
    print(json.dumps(line), flush=True)


def setups():
    """(name, domain, grids) of the built-in domains and the seeded ellipses."""
    rng = np.random.default_rng(SEED)
    draws = [tuple(rng.uniform((-0.2, -0.2, 0.3, 0.3), (0.2, 0.2, 0.7, 0.7)).tolist())
             for _ in range(40)]
    return ([(name, make_domain(name), GRIDS) for name in DOMAIN_NAMES]
            + [(f"ellipse{d!r}", ellipse(*d), ELLIPSE_GRIDS) for d in draws])


def shifted_setups():
    """(name, domain, grids) of the shifted built-in domains."""
    return [(f"shifted{(name, *s)!r}", make_domain(name).shifted(*s), SHIFTED_GRIDS)
            for name in DOMAIN_NAMES for s in SHIFTS]


def fd_systems():
    case = make_case("paper_sin")
    centred = ("ellipse(0.0, 0.0, 0.5, 0.3)", ellipse(0.0, 0.0, 0.5, 0.3), (20, 40, 80))
    edge = ("slab(-0.95)", slab(-0.95), (20,))
    for name, domain, grids in setups() + [centred, edge] + shifted_setups():
        for kind in BCS:
            bc = make_bc_spec(domain.name, kind)
            for p in (1, 2):
                for n in grids:
                    record({"scheme": "fd", "domain": name, "bc": kind, "p": p, "n": n},
                           lambda: assemble_fd(Grid(n), domain, case, bc, p=p),
                           lambda system: system.ghosts)


def fem_systems():
    case = make_case("paper_sin")
    for name, domain, grids in setups() + shifted_setups():
        for kind in BCS:
            bc = make_bc_spec(domain.name, kind)
            for alpha in (1.5, 2.0):
                for n in grids:
                    record({"scheme": "fem", "domain": name, "bc": kind, "alpha": alpha,
                            "n": n},
                           lambda: assemble_fem(Grid(n), domain, case, bc, alpha=alpha),
                           lambda system: system.band)


if __name__ == "__main__":
    fd_systems()
    fem_systems()
