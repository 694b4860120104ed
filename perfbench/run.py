#!/usr/bin/env python3
"""triframe benchmark: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

One single-threaded client runs ops in a closed loop (the next op starts
after the previous one finished and was gated) until the timed ops add up to
`--seconds`.  Inputs come from `--seed`; every op's output passes the gates
in gates.py or counts as failed.  `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates untraced and traced ops and reports per-layer self
time and counters of the traced ones, the span coverage of op wall time and
the tracing overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the percentile op_tail_s reports
TAIL_PERCENTILE = 90


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Keep BLAS threads at or below the cores this process may use."""
    cores = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the environment's limit."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ["OPENBLAS_NUM_THREADS"]


def host_facts(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    from triframe import basis, quadrature

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "seed": seed,
        # computed, not run: the level-8 dense synthesis table in doubles
        "j8_dense_table_bytes_estimate": quadrature.lattice_size(8)
        * basis.tri_dim(basis.degree_cutoff(8)) * 8,
    }


def tail(durations: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile, interpolated between samples."""
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1]


def measure(workload, seconds: float, tracer=None, after_op=None) -> dict:
    """Closed loop of ops until the timed ops add up to `seconds`.

    Op 0 only warms the process up: a first op in a process is slower, and
    with it the medians and the tail would depend on how many ops a run
    holds.  It is gated but not reported.  With a tracer, odd-numbered ops
    then run traced and even ones untraced; the loop runs at least two
    reported untraced ops and, with a tracer, one traced op.
    `after_op(workload, inp, out)` runs between an op and its gate.
    """
    plain, traced, failures = [], [], []
    traced_walls = {}
    artifact = 0
    passed = 0
    plain_passed = 0  # passing ops among the reported untraced ones
    total = 0.0
    i = 0
    while total < seconds or len(plain) < 2 or (tracer is not None and not traced):
        inp = workload.make_input(i)
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.op = i
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.op(inp)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if i > 0:
            total += elapsed
        if on:
            tracer.uninstall()
            traced_walls[i] = elapsed
            traced.append(elapsed)
        elif i > 0:
            plain.append(elapsed)
        if error is None:
            if after_op is not None:
                after_op(workload, inp, out)
            try:
                workload.check(inp, out)
                passed += 1
                plain_passed += not on and i > 0
            except Exception as exc:  # any gate error counts the op as failed
                error = exc
            artifact += workload.artifact_bytes(out)
        if error is not None:
            failures.append(f"op {i}: {type(error).__name__}: {error}")
        i += 1
    return {
        "plain": plain, "traced": traced, "traced_walls": traced_walls,
        "attempted": i, "passed": passed, "plain_passed": plain_passed,
        "failures": failures,
        "artifact_bytes": artifact,
    }


def end_to_end(setups: list[float], run: dict) -> tuple[dict, dict]:
    durations = run["plain"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail(durations), "s"),
        "ops_per_s": (run["plain_passed"] / sum(durations), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_seconds": setups,
        "op_seconds": durations,
        "ops": len(durations),
        "artifact_mb": run["artifact_bytes"] / run["attempted"] / 1e6,
        "error_rate": (run["attempted"] - run["passed"]) / run["attempted"],
    }
    return metrics, detail


def per_layer(tracer, run: dict) -> tuple[dict, dict]:
    from tracing import LAYERS

    self_s, covered = tracer.self_times()
    ops = len(run["traced"])
    counts = tracer.counts
    metrics = {f"{layer}.s": (self_s.get(layer, 0.0) / ops, "s") for layer in LAYERS}
    for name, unit in (
        ("basis.basis_matrix.calls", "count"),
        ("basis.basis_matrix.cells", "count"),
        ("quadrature.weighted_basis.hits", "count"),
        ("quadrature.weighted_basis.misses", "count"),
        ("quadrature.weighted_basis.bytes_built", "B"),
        ("quadrature.kronecker_lattice.calls", "count"),
        ("quadrature.gram_matrix.calls", "count"),
        ("quadrature.gram_matrix.flops", "flop"),
        ("transform.synthesis.calls", "count"),
        ("transform.synthesis.flops", "flop"),
        ("transform.synthesis.bytes", "B"),
        ("cli.main.calls", "count"),
        ("cli.json_bytes", "B"),
        ("filters.symbol_eval.calls", "count"),
    ):
        metrics[name] = (counts.get(name, 0.0) / ops, unit)
    matrix_s = self_s.get("basis.basis_matrix", 0.0)
    metrics["basis.basis_matrix.cells_per_s"] = (
        counts.get("basis.basis_matrix.cells", 0.0) / matrix_s if matrix_s else 0.0,
        "cells/s",
    )
    coverage = min(covered.get(op, 0.0) / wall for op, wall in run["traced_walls"].items())
    traced_p50 = statistics.median(run["traced"])
    plain_p50 = statistics.median(run["plain"])
    metrics["trace.span_coverage_min"] = (100.0 * coverage, "%")
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    detail = {"traced_ops": len(run["traced"]), "untraced_ops": len(run["plain"]),
              "untraced_op_p50_s": plain_p50}
    return metrics, detail


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        setups = [workload.setup() for _ in range(workload.setup_repeats)]
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics, detail = per_layer(tracer, run)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(tracer.dump()))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, detail = end_to_end(setups, run)
    detail["host"] = host_facts(args.seed)
    detail["failures"] = run["failures"][:5]

    print(f"workload {args.workload}: J={workload.level}, seed {args.seed}, closed loop, "
          f"1 client, {args.seconds:g} s of timed ops, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'artifact_mb':44s} {detail['artifact_mb']:.6g} MB per op")
        print(f"  {'error_rate':44s} {detail['error_rate']:.6g} "
              f"({run['attempted'] - run['passed']} of {run['attempted']} ops)")
        print(f"  op_tail_s is p{TAIL_PERCENTILE} of {detail['ops']} ops after 1 warm-up op")
    if args.trace and metrics["trace.span_coverage_min"][0] < 90.0:
        print("  WARNING spans cover less than 90% of an op's wall time")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print("BENCH_DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["attempted"] - run["passed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    rows = []
    for entry in spec["workloads"]:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = done.stdout.splitlines()
            detail = json.loads(lines[-2].removeprefix("BENCH_DETAIL "))
            results.append((json.loads(lines[-1]), detail))
        rows.append((entry["name"], results))

    for name, ((plain, detail), (traced, _)) in rows:
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{name}  (seed {args.seed}, {seconds} s, correct={plain['correct'] and traced['correct']})")
        print(f"  setup_s      {m['setup_s']:.4f} s")
        print(f"  op_p50_s     {m['op_p50_s']:.4f} s")
        print(f"  op_tail_s    {m['op_tail_s']:.4f} s  (p{TAIL_PERCENTILE} of {detail['ops']} ops)")
        print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
        print(f"  artifact_mb  {detail['artifact_mb']:.3f} MB per op")
        print(f"  error_rate   {detail['error_rate']:.4f}")
        print(f"  tracing overhead {t['trace.overhead_s']:+.4f} s on op_p50_s, "
              f"span coverage >= {t['trace.span_coverage_min']:.1f}% of op wall time")
        layers = sorted(((v, k) for k, v in t.items() if k.endswith(".s")
                         and not k.startswith("trace.")), reverse=True)
        for value, key in layers[:6]:
            print(f"    {key:44s} {value:.4f} s/op")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json and print a table")
    args = parser.parse_args(argv)
    if not (SRC / "triframe" / "__init__.py").is_file():
        print(f"triframe sources not found under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
