#!/usr/bin/env python3
"""Self-test of the benchmark's gates: tampered outputs must count as failed.

    python3 perfbench/selftest.py

Runs every workload and each CLI command of `cli-session` at J=3 through
the benchmark's own closed loop, once clean and once per tamper, where the
tamper alters the op's output between the op and its gate.  Exits 0 only when each clean run has error_rate 0,
each tampered run has error_rate > 0, and a traced run reports exactly the
metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

LEVEL = 3
SECONDS = 0.3


def _rewrite_json(path, change) -> None:
    with open(path) as handle:
        doc = json.load(handle)
    change(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)  # allow_nan: a NaN is written as a bare token


def perturb_tree_values(workload, inp, out):
    def change(doc):
        for entry in doc["levels"]:
            entry["v"] = [[re * (1 + 1e-6), im] for re, im in entry["v"]]
    _rewrite_json(workload.path("tree.json"), change)


def nan_tree_coefficient(workload, inp, out):
    def change(doc):
        doc["levels"][-1]["spectral"]["coeffs"][0][0] = float("nan")
    _rewrite_json(workload.path("tree.json"), change)


def perturb_warm_values(workload, inp, out):
    tree, _, _ = out
    tree.base.values[:] *= 1 + 1e-6


def lower_reference_exactness(workload, inp, out):
    def change(doc):
        doc["levels"][0]["exactness_degree"] -= 1
    _rewrite_json(workload.path("reference.json"), change)


def perturb_csv_values(workload, inp, out):
    path = workload.path("framelet.csv")
    with open(path) as handle:
        header, *rows = handle.read().splitlines()
    scaled = []
    for row in rows:
        x1, x2, value = row.split(",")
        scaled.append(f"{x1},{x2},{float(value) * (1 + 1e-6)!r}")
    with open(path, "w") as handle:
        handle.write("\n".join([header, *scaled]) + "\n")


CASES = [
    ("cli-session", None),
    ("cli-transform", None),
    ("cli-transform", perturb_tree_values),
    ("cli-transform", nan_tree_coefficient),
    ("warm-batch", None),
    ("warm-batch", perturb_warm_values),
    ("diagnostics", None),
    ("diagnostics", lower_reference_exactness),
    ("cli-sample", None),
    ("cli-sample", perturb_csv_values),
]


def metric_names_match(workload) -> bool:
    """The harness reports exactly the metrics BENCHMARK.json declares."""
    from tracing import Tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    result = run.measure(workload, SECONDS, tracer)
    layer_names = set(run.per_layer(tracer, result)[0])
    e2e_names = set(run.end_to_end([1.0], result)[0])
    good = (layer_names == {m["name"] for m in spec["per_layer"]}
            and e2e_names == {m["name"] for m in spec["end_to_end"]})
    print(f"{'ok  ' if good else 'FAIL'} metric names match BENCHMARK.json")
    return good


def main() -> int:
    run.limit_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import COMMANDS, WORKLOADS

    classes = {**WORKLOADS, **COMMANDS}

    ok = True
    workdir = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    try:
        workload = WORKLOADS["cli-session"](0, workdir, LEVEL)
        workload.prepare()
        ok &= metric_names_match(workload)
        for name, tamper in CASES:
            workload = classes[name](0, workdir, LEVEL)
            workload.prepare()
            workload.setup()
            result = run.measure(workload, SECONDS, after_op=tamper)
            rate = (result["attempted"] - result["passed"]) / result["attempted"]
            expect_failures = tamper is not None
            good = (rate > 0) if expect_failures else (rate == 0)
            ok &= good
            label = tamper.__name__ if tamper else "clean"
            print(f"{'ok  ' if good else 'FAIL'} {name:14s} {label:28s} "
                  f"error_rate {rate:.3f} of {result['attempted']} ops")
            if result["failures"]:
                print(f"     first failure: {result['failures'][0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
