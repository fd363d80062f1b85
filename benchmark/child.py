"""One sample of the benchmark in a fresh interpreter.

    python3 benchmark/child.py machine
    python3 benchmark/child.py sweep|trace WORKLOAD OUTDIR

`machine` checks that `uel` is imported from the checkout's `src` and prints
the machine record.  `sweep` and `trace` import `uel.cli`, parse the
workload's stages and build their domain, case and boundary split, then print
a ready line and wait on stdin.  On "go", `sweep` runs `uel.cli.run` for each
stage (each writes its CSV into OUTDIR) and `trace` runs the traced replica;
either prints one result line.  The parent times setup and sweep from
outside, between the lines.  Protocol lines are JSON on stdout; anything
else the program prints goes to stderr.
"""

import json
import os
import platform
import resource
import sys
import traceback

import numpy
import scipy

import uel
from uel import cli
from uel.analysis import make_case
from uel.geometry import make_bc_spec, make_domain
from workloads import BENCH_DIR, WORKLOADS

SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def machine_record():
    if not os.path.abspath(uel.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"uel imported from {uel.__file__}, not from {SRC_DIR}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "UEL_THREADS")},
    }


def _stage_configs(workload, outdir):
    configs = []
    for k, argv in enumerate(WORKLOADS[workload]):
        config = cli.parse_config(
            argv + ["--output", os.path.join(outdir, f"{workload}.{k}")])
        make_domain(config.domain)
        make_case(config.case)
        make_bc_spec(config.domain, config.bc)
        configs.append(config)
    return configs


def _sweep(configs):
    errors = []
    for config in configs:
        try:
            cli.run(config)
            errors.append(None)
        except Exception as exc:  # a raising sweep is a counted failure
            traceback.print_exc()
            errors.append(f"{type(exc).__name__}: {exc}")
    return {"errors": errors}


def _trace(configs, outdir):
    import tracing

    tr, counts, reports = tracing.traced_sweep(configs)
    paths = []
    for k, report in enumerate(reports):
        paths.append(os.path.join(outdir, f"trace.{k}.csv"))
        cli.write_csv(report, paths[-1])
    return {"spans": tr.spans, "metrics": tracing.layer_metrics(tr.spans, counts),
            "self_s": tracing.self_times(tr.spans),
            "shares": tracing.shares(tr.spans), "derived": tracing.DERIVED,
            "csv": paths}


def main(argv):
    proto = sys.stdout
    sys.stdout = sys.stderr

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    mode = argv[0]
    if mode == "machine":
        send(machine_record())
        return 0
    workload, outdir = argv[1], argv[2]
    configs = _stage_configs(workload, outdir)
    send({"ready": True})
    if sys.stdin.readline().strip() != "go":
        return 0
    result = _sweep(configs) if mode == "sweep" else _trace(configs, outdir)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
