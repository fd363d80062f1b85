"""Regenerate the reference rows the benchmark checks against.

    python3 benchmark/make_reference.py

Runs every stage of every workload through `uel.cli.run` with
`--no-timings` and writes benchmark/reference/<workload>.<stage>.csv.
"""

import os
import sys

from workloads import BENCH_DIR, WORKLOADS, reference_path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
os.environ.pop("UEL_THREADS", None)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from uel import cli  # noqa: E402  (needs the path and thread settings above)


def main():
    os.makedirs(os.path.dirname(reference_path("", 0)), exist_ok=True)
    for workload, stages in WORKLOADS.items():
        for k, argv in enumerate(stages):
            stem = reference_path(workload, k)[:-len(".csv")]
            cli.run(cli.parse_config(argv + ["--no-timings", "--output", stem]))
            print(f"wrote {stem}.csv")


if __name__ == "__main__":
    main()
