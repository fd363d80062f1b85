"""Benchmark of the `uel` grid sweep.

    python3 benchmark/run.py --workload fem-circle --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
(benchmark/child.py) with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and
UEL_THREADS unset, running the workload through `uel.cli.run`; setup and
sweep are timed here, from outside the program.  Untraced samples repeat
until --seconds is spent and give the end-to-end metrics as medians; with
--trace 1 each pass runs one untraced and one traced sample and gives the
per-layer metrics.  Every reported row is checked against the committed
reference rows (see refcheck.py).  The seed only orders the samples.

The last line of stdout is the result JSON; the line before it is the run
record (machine, samples, failures, stage shares).  The run record and the
traced spans are also written under .benchmark_out/.  Exit status: 0 when
every output is correct, 1 when one is wrong (the result is still printed),
2 when the program cannot be run at all (no result).
"""

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

from refcheck import ERR_COLUMNS, check_rows, read_rows
from workloads import BENCH_DIR, WORKLOADS, reference_path

ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_ROOT = os.path.join(ROOT, ".benchmark_out")
# Setup-only interpreters per untraced run, on top of one per sweep sample.
SETUP_ONLY = 8
# Samples are killed past this point so that a run ends within 180 s.
RUN_LIMIT_S = 170.0


class SampleError(Exception):
    """A worker interpreter ended without the expected protocol line."""


def worker_env():
    env = dict(os.environ)
    env.pop("UEL_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC_DIR)
    return env


def _receive(proc):
    line = proc.stdout.readline()
    if not line:
        raise SampleError("worker ended without a protocol line (see stderr)")
    return json.loads(line)


def run_sample(mode, workload, outdir, env, limit, go=True):
    """Start one worker interpreter and return its result, with setup_s
    (spawn to ready) and, when go, sweep_s (go to result)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, mode, workload, outdir],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, env=env, cwd=ROOT) as proc:
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            _receive(proc)
            setup_s = time.perf_counter() - t0
            proc.stdin.write("go\n" if go else "quit\n")
            proc.stdin.flush()
            t1 = time.perf_counter()
            result = _receive(proc) if go else {}
            sweep_s = time.perf_counter() - t1
            proc.stdin.close()
            if proc.wait() != 0:
                raise SampleError(f"{mode} worker exited with {proc.returncode}")
        except OSError as exc:
            raise SampleError(f"{mode} worker pipe failed: {exc}") from exc
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    result["setup_s"] = setup_s
    if go:
        result["sweep_s"] = sweep_s
    return result


class Tally:
    """Grid solves attempted and failed, with the reasons of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, workload, paths, errors=None, twins=None):
        """Check the CSV of each stage; a stage whose sweep raised or whose
        file is missing fails every grid.  twins are CSVs whose error norms
        must be identical (traced against untraced)."""
        for k in range(len(WORKLOADS[workload])):
            path = paths[k] if paths else None
            raised = errors[k] if errors else None
            rows = read_rows(path) if path and os.path.exists(path) and not raised else []
            attempted, failures = check_rows(read_rows(reference_path(workload, k)), rows)
            if twins and rows:
                twin = {r["N"]: r for r in read_rows(twins[k])}
                for row in rows:
                    other = twin.get(row["N"], {})
                    if any(row[c] != other.get(c) for c in ERR_COLUMNS):
                        failures.setdefault(int(row["N"]), []).append(
                            "error norms differ from the untraced run")
            self.attempted += attempted
            for n, reasons in sorted(failures.items()):
                self.failures.append({"sample": label, "stage": k, "N": n,
                                      "raised": raised, "reasons": reasons})

    @property
    def failed(self):
        return len(self.failures)


def _stage_paths(outdir, workload, prefix):
    return [os.path.join(outdir, f"{prefix}.{k}.csv")
            for k in range(len(WORKLOADS[workload]))]


def _clear(paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def untraced(workload, seconds, rng, env, outdir, t_start):
    """Sweep samples until the time is spent; end-to-end metrics."""
    paths = _stage_paths(outdir, workload, workload)
    tally = Tally()
    setups, samples, durations = [], [], []
    setup_only = SETUP_ONLY
    while True:
        now = time.perf_counter()
        if durations and now + statistics.median(durations) > t_start + seconds:
            break
        limit = t_start + RUN_LIMIT_S - now
        if setup_only and rng.random() < 0.5:
            setups.append(run_sample("sweep", workload, outdir, env, limit,
                                     go=False)["setup_s"])
            setup_only -= 1
            continue
        _clear(paths)
        label = f"sweep{len(durations)}"
        try:
            res = run_sample("sweep", workload, outdir, env, limit)
            tally.check(label, workload, paths, res["errors"])
            setups.append(res["setup_s"])
            samples.append({k: res[k] for k in ("setup_s", "sweep_s", "maxrss_kb")})
        except SampleError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            tally.check(label, workload, None)
        durations.append(time.perf_counter() - now)
    for _ in range(setup_only):
        setups.append(run_sample("sweep", workload, outdir, env,
                                 t_start + RUN_LIMIT_S - time.perf_counter(),
                                 go=False)["setup_s"])
    _clear(paths)
    if not samples:
        raise SampleError("no sweep sample completed")
    metrics = {
        "sweep_s": statistics.median(s["sweep_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["maxrss_kb"] for s in samples) / 1024.0,
        "solved_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    record = {"samples": samples, "setup_samples": setups}
    return metrics, tally, record, []


def traced(workload, seconds, rng, env, outdir, t_start):
    """Pairs of one untraced and one traced sample; per-layer metrics."""
    paths = _stage_paths(outdir, workload, workload)
    trace_paths = _stage_paths(outdir, workload, "trace")
    order = ["sweep", "trace"]
    rng.shuffle(order)
    tally = Tally()
    passes, spans, durations = [], [], []
    while True:
        now = time.perf_counter()
        if durations and now + statistics.median(durations) > t_start + seconds:
            break
        _clear(paths + trace_paths)
        label = f"pass{len(durations)}"
        try:
            res = {mode: run_sample(mode, workload, outdir, env,
                                    t_start + RUN_LIMIT_S - time.perf_counter())
                   for mode in order}
        except SampleError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            tally.check(label + ".sweep", workload, None)
            tally.check(label + ".trace", workload, None)
            durations.append(time.perf_counter() - now)
            continue
        tally.check(label + ".sweep", workload, paths, res["sweep"]["errors"])
        tally.check(label + ".trace", workload, trace_paths, twins=paths)
        trace = res["trace"]
        metrics = dict(trace["metrics"])
        metrics["cli.trace_overhead_s"] = (metrics["cli.traced_run_s"]
                                           - res["sweep"]["sweep_s"])
        passes.append({"order": order, "untraced_sweep_s": res["sweep"]["sweep_s"],
                       "metrics": metrics, "self_s": trace["self_s"],
                       "shares": trace["shares"]})
        spans.append(trace["spans"])
        durations.append(time.perf_counter() - now)
    _clear(paths + trace_paths)
    if not passes:
        raise SampleError("no traced pass completed")
    metrics = {name: statistics.median(p["metrics"][name] for p in passes)
               for name in passes[0]["metrics"]}
    return metrics, tally, {"passes": passes, "derived": trace["derived"]}, spans


def preflight(env):
    """Machine record from a worker that imports uel from this checkout;
    None when the program cannot be imported."""
    try:
        proc = subprocess.run([sys.executable, CHILD, "machine"], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = worker_env()
    machine = preflight(env)
    if machine is None:
        print(f"error: cannot import uel from {SRC_DIR}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC_DIR, quiet=1)

    outdir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    rng = random.Random(args.seed)
    mode = traced if args.trace else untraced
    try:
        metrics, tally, record, spans = mode(args.workload, args.seconds, rng,
                                             env, outdir, t_start)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=machine,
                  attempted=tally.attempted, failures=tally.failures,
                  wall_s=time.perf_counter() - t_start)
    with open(os.path.join(outdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(os.path.join(outdir, "spans.json"), "w") as fh:
            json.dump(spans, fh)

    derived = record.get("derived", {})
    for m in declared:
        print(f"{m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}"
              f"{'  (derived)' if m['name'] in derived else ''}", file=sys.stderr)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
