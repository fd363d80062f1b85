"""Self-tests of the benchmark: python3 -m pytest benchmark/test_benchmark.py"""

import copy
import json
import os
import re
import sys

import pytest

from refcheck import ERR_COLUMNS, check_rows, read_rows
from workloads import BENCH_DIR, WORKLOADS, reference_path

ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _references():
    return [(w, k, read_rows(reference_path(w, k)))
            for w, stages in WORKLOADS.items() for k in range(len(stages))]


def test_reference_rows_pass_their_own_check():
    for workload, k, ref in _references():
        assert check_rows(ref, ref) == (len(ref), {}), (workload, k)


@pytest.mark.parametrize("factor, fails", [(1 + 1e-3, True), (1 - 1e-3, True),
                                           (1 + 1e-6, False)])
def test_check_rejects_perturbed_reference_norm(factor, fails):
    for _, _, ref in _references():
        for col in ERR_COLUMNS:
            rows = copy.deepcopy(ref)
            rows[-1][col] = repr(float(rows[-1][col]) * factor)
            _, failures = check_rows(ref, rows)
            assert bool(failures) == fails
            if fails:
                assert list(failures) == [int(ref[-1]["N"])]


def test_check_rejects_residual_above_tolerance():
    injected = {"cg": "2e-12", "direct": "2e-10"}
    for _, _, ref in _references():
        rows = copy.deepcopy(ref)
        rows[0]["residual"] = injected[rows[0]["solver"]]
        _, failures = check_rows(ref, rows)
        assert list(failures) == [int(ref[0]["N"])]
        assert "residual" in failures[int(ref[0]["N"])][0]


def test_check_counts_missing_rows_as_failed():
    for _, _, ref in _references():
        attempted, failures = check_rows(ref, ref[:1])
        assert attempted == len(ref)
        assert sorted(failures) == sorted(int(r["N"]) for r in ref[1:])


def test_benchmark_json_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_run_matches_untraced_run(tmp_path):
    from uel import cli

    import tracing

    argvs = [stage[:stage.index("--grids")] + ["--grids", "40,80"]
             for stage in WORKLOADS["flower-cond"]]
    configs = [cli.parse_config(a + ["--output", str(tmp_path / f"s{k}")])
               for k, a in enumerate(argvs)]
    untraced = [cli.run(c) for c in configs]
    tr, counts, traced = tracing.traced_sweep(configs)
    for a, b in zip(untraced, traced):
        assert [(r.n, r.err_u, r.err_g, r.cond2) for r in a.rows] == \
               [(r.n, r.err_u, r.err_g, r.cond2) for r in b.rows]

    metrics = tracing.layer_metrics(tr.spans, counts)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | {"cli.trace_overhead_s"} == per_layer
    assert all(NAME.fullmatch(n) for n in metrics)
    top = [s for s in tr.spans if s["parent"] is None and not s.get("probe")]
    assert [s["name"] for s in top] == ["cli.run_single"] * 4
    assert metrics["cli.traced_run_s"] == pytest.approx(
        sum(s["end"] - s["start"] for s in top))
