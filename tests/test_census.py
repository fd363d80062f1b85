import json
import re
from dataclasses import fields

from conftest import SHIFTS, load_census
from uel import Grid, assemble_fd, assemble_fem, make_bc_spec, make_case, make_domain
from uel.geometry import BoundaryBand, GhostProjections


def test_census_records_systems_and_errors(capsys):
    # the census's shifts are the test suite's first three, and record
    # prints one JSON line per system: its hashes, or the assembly's error
    census = load_census()
    assert census.SHIFTS == SHIFTS[:3]
    case, grid = make_case("paper_sin"), Grid(40)
    circle = make_domain("circle").shifted(*census.SHIFTS[1])
    bc = make_bc_spec(circle.name, "mixed")
    slab = census.slab(-0.95)
    census.record({"scheme": "fd"}, lambda: assemble_fd(grid, circle, case, bc, p=2),
                  lambda system: system.ghosts)
    census.record({"scheme": "fem"}, lambda: assemble_fem(grid, circle, case, bc, alpha=2.0),
                  lambda system: system.band)
    census.record({"scheme": "fd"},
                  lambda: assemble_fd(Grid(20), slab, case, make_bc_spec(slab.name, "mixed"), p=2),
                  lambda system: system.ghosts)
    fd, fem, error = map(json.loads, capsys.readouterr().out.splitlines())
    for line, record in ((fd, GhostProjections), (fem, BoundaryBand)):
        assert set(line) == {"scheme", "system", "parts"}
        assert set(line["parts"]) == {field.name for field in fields(record)}
        assert all(re.fullmatch("[0-9a-f]{64}", digest)
                   for digest in [line["system"], *line["parts"].values()])
    assert error == {"scheme": "fd", "error": "GeometryError: ghost stencil leaves the grid "
                     "at node (1, 0); the grid is too coarse for this geometry"}
