"""The benchmark workloads and the CLI commands the cold one is made of.

Each workload turns the seed into inputs (`make_input`, untimed), runs one
op on them (`op`, timed), and gates the op's output (`check`, untimed).
`setup` returns the seconds of one set-up; the harness repeats it.  The
reasons each workload exists are recorded in BENCHMARK.json.

`cli-session` runs the three cold commands below once each per op;
`selftest.py` also runs each command on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import triframe
from triframe import basis, cli, filters, quadrature, transform

from gates import (
    ANALYSIS_TOL,
    POINT_TOL,
    REFERENCE_TOL,
    ROUNDTRIP_TOL,
    LatticeReference,
    ScalarBasis,
    check_tree,
    expected_tree,
    load_strict_json,
    pairs_to_complex,
    relative_error,
    require,
    require_finite,
    tree_entries_from_doc,
    tree_entries_from_object,
)

GRID = 256
# sample nodes per lattice level whose scalar basis rows are built up front
NODES_PER_LEVEL = 2
GRID_SAMPLES = 4

_IMPORT_CLI = (
    "import time; t = time.perf_counter(); import triframe.cli; "
    "print(time.perf_counter() - t)"
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`triframe <argv>` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def import_cli_seconds() -> float:
    """Seconds a fresh interpreter spends importing `triframe.cli`."""
    src = str(Path(triframe.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def random_spectrum(rng: np.random.Generator, level: int) -> basis.SpectralVector:
    cutoff = basis.degree_cutoff(level)
    dim = basis.tri_dim(cutoff)
    return basis.SpectralVector(
        cutoff, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    )


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Workload:
    """Common state: seed, top level J and a scratch directory for artifacts."""

    name = ""
    # top level J; the cold CLI commands run at 6, so a run holds many ops
    level = 6
    setup_repeats = 7

    def __init__(self, seed: int, workdir: str, level: int | None = None):
        self.seed = seed
        self.workdir = workdir
        if level is not None:
            self.level = level

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{name}")

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def prepare(self) -> None:
        """Untimed preparation of gate references."""

    def setup(self) -> float:
        """CLI users pay the import of `triframe.cli` on every call."""
        return import_cli_seconds()

    def artifact_bytes(self, out) -> int:
        return 0


class CliTransform(Workload):
    name = "cli-transform"

    def prepare(self):
        self.ref_sys = transform.kronecker_system(filters.default_bank(), self.level)
        self.reference = LatticeReference(self.ref_sys, self.rng(0), NODES_PER_LEVEL)

    def make_input(self, i: int):
        rng = self.rng(1, i)
        f = random_spectrum(rng, self.level)
        doc = {"cutoff": f.cutoff, "coeffs": [[z.real, z.imag] for z in f.coeffs.tolist()]}
        with open(self.path("input.json"), "w") as handle:
            json.dump(doc, handle)
        return f, rng

    def op(self, inp):
        j = str(self.level)
        tree, coeffs = self.path("tree.json"), self.path("coeffs.json")
        roundtrip = run_cli(["transform", "--roundtrip", "-j", j,
                             "--input", self.path("input.json"), "--out", tree])
        recon = run_cli(["transform", "--reconstruct", "-j", j,
                         "--input", tree, "--out", coeffs])
        return roundtrip, recon

    def check(self, inp, out):
        f, rng = inp
        (code_rt, text_rt), (code_rc, _) = out
        require(code_rt == 0 and code_rc == 0, f"exit codes {code_rt}, {code_rc}")
        found = re.search(r"round-trip residual: (\S+)", text_rt)
        require(found is not None, "no round-trip residual printed")
        residual = float(found.group(1))
        require(residual <= ROUNDTRIP_TOL, f"round-trip residual {residual:.3e}")

        top = transform.analyze_lowpass(self.ref_sys, f, self.level)
        expected = expected_tree(transform.multilevel_decompose(self.ref_sys, top))
        tree_doc = load_strict_json(self.path("tree.json"))
        check_tree(tree_entries_from_doc(tree_doc), expected, self.reference, rng)

        doc = load_strict_json(self.path("coeffs.json"))
        require(doc["spectral"]["cutoff"] == top.spectral.cutoff, "reconstruction cutoff")
        err = relative_error(pairs_to_complex(doc["spectral"]["coeffs"]), top.spectral.coeffs)
        require(err <= ANALYSIS_TOL, f"reconstruction off the analysis by {err:.3e}")
        self.reference.check_values("reconstruction", self.level,
                                    pairs_to_complex(doc["v"]), top.spectral, rng)

    def artifact_bytes(self, out) -> int:
        return _file_bytes(self.path("tree.json"), self.path("coeffs.json"))


class WarmBatch(Workload):
    name = "warm-batch"
    level = 7
    setup_repeats = 3

    def prepare(self):
        self.ref_sys = transform.kronecker_system(filters.default_bank(), self.level)
        self.reference = LatticeReference(self.ref_sys, self.rng(0), NODES_PER_LEVEL)
        self.sys = None

    def setup(self) -> float:
        """Build the system and fill its table cache with one transform."""
        self.sys = None  # release the previous set-up's tables first
        warm_input = random_spectrum(self.rng(2), self.level), None
        start = time.perf_counter()
        sys_ = transform.kronecker_system(filters.default_bank(), self.level)
        self.sys = sys_
        self.op(warm_input)
        return time.perf_counter() - start

    def make_input(self, i: int):
        rng = self.rng(1, i)
        return random_spectrum(rng, self.level), rng

    def op(self, inp):
        f, _ = inp
        top = transform.analyze_lowpass(self.sys, f, self.level)
        tree = transform.multilevel_decompose(self.sys, top)
        for seq in [tree.base, *(seq for highs in tree.details for seq in highs)]:
            seq.values  # reading the values synthesizes them
        recon = transform.multilevel_reconstruct(self.sys, tree)
        return tree, recon, transform.relative_difference(top, recon)

    def check(self, inp, out):
        f, rng = inp
        tree, recon, residual = out
        require(residual <= ROUNDTRIP_TOL, f"round-trip residual {residual:.3e}")
        top = transform.analyze_lowpass(self.ref_sys, f, self.level)
        expected = expected_tree(transform.multilevel_decompose(self.ref_sys, top))
        check_tree(tree_entries_from_object(tree), expected, self.reference, rng)
        err = relative_error(recon.spectral.coeffs, top.spectral.coeffs)
        require(err <= ANALYSIS_TOL, f"reconstruction off the analysis by {err:.3e}")
        self.reference.check_values("reconstruction", self.level, recon.values,
                                    top.spectral, rng)


class Diagnostics(Workload):
    name = "diagnostics"

    def make_input(self, i: int):
        return self.rng(1, i).uniform(0.0, 1.0, 2)

    def op(self, shift):
        lattice = run_cli(["diagnostics", "-j", str(self.level),
                           "--shift", repr(float(shift[0])), repr(float(shift[1])),
                           "--out", self.path("lattice.json")])
        reference = run_cli(["diagnostics", "-j", str(self.level - 1),
                             "--rules", "reference", "--out", self.path("reference.json")])
        return lattice, reference

    def check(self, shift, out):
        (code_lat, _), (code_ref, _) = out
        require(code_lat == 0 and code_ref == 0, f"exit codes {code_lat}, {code_ref}")
        lattice = load_strict_json(self.path("lattice.json"))
        self._check_report(lattice, self.level)
        for row in lattice["levels"]:
            require(row["nodes"] == quadrature.lattice_size(row["j"]),
                    f"level {row['j']}: {row['nodes']} nodes")

        reference = load_strict_json(self.path("reference.json"))
        top = self.level - 1
        self._check_report(reference, top)
        # a Gauss rule with n points per direction is exact to degree 2n - 1
        degree = 2 * basis.degree_cutoff(top) + 1
        for row in reference["levels"]:
            require(row["exactness_degree"] == degree,
                    f"reference level {row['j']}: exactness {row['exactness_degree']}")
            require(row["gram_deviation"] <= REFERENCE_TOL,
                    f"reference level {row['j']}: gram deviation {row['gram_deviation']:.3e}")
        residuals = [row["residual"] for row in reference["generalized_tightness"]]
        residuals += [row["residual"] for row in reference["parseval"]["levels"]]
        residuals.append(reference["parseval"]["top_residual"])
        require(max(residuals) <= REFERENCE_TOL,
                f"reference tightness/Parseval residual {max(residuals):.3e}")

    @staticmethod
    def _check_report(report: dict, top: int) -> None:
        require([row["j"] for row in report["levels"]] == list(range(top + 1)),
                "report levels")
        require([row["j"] for row in report["generalized_tightness"]]
                == list(range(1, top + 1)), "report tightness levels")
        for key in ("partition_residual", "refinement_residual"):
            require_finite(report[key], key)
            require(report[key] <= report["tolerance"], f"{key} {report[key]:.3e}")
        for row in report["levels"]:
            require_finite(row["gram_deviation"], f"level {row['j']} gram deviation")
            require(isinstance(row["exactness_degree"], int), "exactness degree")
        for row in report["generalized_tightness"] + report["parseval"]["levels"]:
            require_finite(row["residual"], f"level {row['j']} residual")
        require_finite(report["parseval"]["top_residual"], "Parseval top residual")

    def artifact_bytes(self, out) -> int:
        return _file_bytes(self.path("lattice.json"), self.path("reference.json"))


class CliSample(Workload):
    name = "cli-sample"

    def prepare(self):
        self.j = self.level - 1
        symbol = filters.default_bank().scaling_highs[0]
        self.cutoff = basis.max_degree_within(2.0**self.j * symbol.support[1])
        self.gains = symbol(basis.lambda_vector(self.cutoff) / 2.0**self.j)
        self.grid = transform.triangle_grid(GRID)
        picks = self.rng(0).choice(len(self.grid), GRID_SAMPLES, replace=False)
        self.samples = np.sort(picks)
        self.scalar = ScalarBasis()
        for idx in self.samples:
            self.scalar.row(self.grid[idx], self.cutoff)

    def make_input(self, i: int):
        rng = self.rng(1, i)
        node = int(rng.integers(quadrature.lattice_size(self.level)))
        return node, rng.uniform(0.0, 1.0, 2)

    def op(self, inp):
        node, shift = inp
        return run_cli(["sample", "--kind", "high1", "-j", str(self.j), "-k", str(node),
                        "--grid", str(GRID),
                        "--shift", repr(float(shift[0])), repr(float(shift[1])),
                        "--out", self.path("framelet.csv")])

    def check(self, inp, out):
        node, shift = inp
        code, _ = out
        require(code == 0, f"exit code {code}")
        with open(self.path("framelet.csv")) as handle:
            require(handle.readline().strip() == "x1,x2,value", "CSV header")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        require(data.shape == (len(self.grid), 3), f"CSV shape {data.shape}")
        require(bool(np.isfinite(data).all()), "non-finite CSV value")
        require(bool((data[:, :2] == self.grid).all()), "CSV grid points")

        # the framelet's spectrum: symbol gains times sqrt(w_k) phi(x_k)
        rule = quadrature.kronecker_lattice(self.level, shift=tuple(shift))
        node_row = self.scalar.row(rule.nodes[node], self.cutoff)
        coeffs = self.gains * np.sqrt(rule.weights[node]) * node_row
        scale = max(np.abs(data[:, 2]).max(), np.finfo(float).tiny)
        for idx in self.samples:
            expected = self.scalar.row(self.grid[idx], self.cutoff) @ coeffs
            err = abs(data[idx, 2] - expected) / scale
            require(err <= POINT_TOL, f"CSV value at grid point {idx} off by {err:.3e}")

    def artifact_bytes(self, out) -> int:
        return _file_bytes(self.path("framelet.csv"))


class CliSession(Workload):
    """One op is a CLI user's session: each cold command once, in turn."""

    name = "cli-session"
    commands = (CliTransform, Diagnostics, CliSample)

    def __init__(self, seed: int, workdir: str, level: int | None = None):
        super().__init__(seed, workdir, level)
        self.parts = [command(seed, workdir, self.level) for command in self.commands]

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def make_input(self, i: int):
        return [part.make_input(i) for part in self.parts]

    def op(self, inputs):
        return [part.op(inp) for part, inp in zip(self.parts, inputs)]

    def check(self, inputs, outputs):
        for part, inp, out in zip(self.parts, inputs, outputs):
            part.check(inp, out)

    def artifact_bytes(self, outputs) -> int:
        return sum(part.artifact_bytes(out) for part, out in zip(self.parts, outputs))


COMMANDS = {w.name: w for w in CliSession.commands}
WORKLOADS = {w.name: w for w in (CliSession, WarmBatch)}
