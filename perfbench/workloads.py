"""The benchmark's workloads, each op's outputs and their correctness checks.

An op is one unit of work. For the sweep workloads it is one
``bench.run_experiment`` call on the workload's config with
``repetitions = 1`` and a ``base_seed`` derived from the workload seed and
the op index. For ``sweep_cli`` it is one ``generate -> fit -> eval``
pipeline through ``gbnlearn.cli.cli(argv)`` in a fresh directory.

The sweep configs are copies kept under ``perfbench/configs`` so that an
edit to the repository's presets cannot move the benchmark. Why each
workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from gbnlearn import bench, cli, estimators, gbn

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Sweep workloads: config file and how many result cells per run are
# rebuilt and checked against the oracle (one n = 2000 cell costs about
# half an op, so large_agnostic_er checks one).
SWEEPS = {
    "sweep_clean_er": ("clean_er.json", 6),
    "sweep_contaminated_tree": ("contaminated_tree.json", 6),
    "large_agnostic_er": ("large_agnostic_er.json", 1),
}
NAMES = tuple(SWEEPS) + ("sweep_cli",)

# A reported KL must be finite and at least this (the package's own
# rounding floor), unless its row is marked degenerate.
KL_FLOOR = -1e-12
# Oracle agreement on the relative gap |kl - oracle| / max(|oracle|, ORACLE_SCALE).
# The per-node decomposition and the joint closed form differ only by
# rounding, but the closed form goes through a Cholesky factor of the true
# covariance, so its error grows with that matrix's condition number kappa
# (measured: a gap of ~2e-6 at kappa ~1e10 on the clean ER preset). The
# allowed gap is ORACLE_RTOL, or ORACLE_KAPPA_FACTOR * eps * kappa when that
# is larger; kappa is only computed when the gap exceeds ORACLE_RTOL.
# ORACLE_SCALE keeps the test meaningful for KL values near 0.
ORACLE_RTOL = 1e-9
ORACLE_KAPPA_FACTOR = 10.0
ORACLE_SCALE = 1e-3


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _agrees(value: float, oracle: float, sigma_true: np.ndarray) -> tuple[bool, str]:
    gap = abs(value - oracle) / max(abs(oracle), ORACLE_SCALE)
    if gap <= ORACLE_RTOL:
        return True, f"gap {gap:.3g} <= {ORACLE_RTOL:g}"
    eig = np.linalg.eigvalsh(sigma_true)
    tol = ORACLE_KAPPA_FACTOR * np.finfo(float).eps * eig[-1] / eig[0]
    return gap <= tol, f"gap {gap:.3g} vs {tol:.3g} (kappa {eig[-1] / eig[0]:.3g})"


@dataclasses.dataclass
class OpResult:
    seed: int
    fits: int
    failed: int
    outputs: object  # sweep: result rows; cli: CliOutputs
    digest: str = ""


@dataclasses.dataclass
class CliOutputs:
    directory: Path
    codes: list
    eval_stdout: str


class SweepWorkload:
    """One ``bench.run_experiment`` per op on a fixed config."""

    def __init__(self, config_name: str, tiny: bool, checks_per_run: int):
        obj = json.loads((CONFIG_DIR / config_name).read_text())
        if tiny:
            obj = _tiny_sweep(obj)
        self.config = bench.parse_config(obj)
        self.checks_per_run = checks_per_run
        self.fits_per_op = len(self.config.methods) * len(self.config.sample_sizes)

    def op_config(self, seed: int):
        config = dataclasses.replace(self.config, repetitions=1, base_seed=seed)
        bench.validate_config(config)
        return config

    def run_op(self, seed: int, workdir: Path) -> OpResult:
        # Looked up through the module so a traced op sees the wrapper.
        rows = bench.run_experiment(self.op_config(seed))
        return OpResult(seed=seed, fits=len(rows), failed=sum(r.degenerate for r in rows), outputs=rows)

    def digest(self, result: OpResult) -> str:
        return hashlib.sha256(bench.render_results(result.outputs).encode()).hexdigest()

    def check_op(self, result: OpResult) -> list[str]:
        errors = []
        if len(result.outputs) != self.fits_per_op:
            errors.append(f"seed {result.seed}: {len(result.outputs)} rows, expected {self.fits_per_op}")
        for r in result.outputs:
            if r.degenerate:
                if r.kl_total is not None:
                    errors.append(f"seed {result.seed} {r.method} m={r.m}: degenerate row carries a KL")
            elif r.kl_total is None or not math.isfinite(r.kl_total) or r.kl_total < KL_FLOOR:
                errors.append(f"seed {result.seed} {r.method} m={r.m}: bad KL {r.kl_total!r}")
        return errors

    def cleanup_op(self, result: OpResult) -> None:
        pass

    def live_rows(self, result: OpResult) -> list:
        return [r for r in result.outputs if not r.degenerate]

    def check_oracle(self, result: OpResult, row) -> tuple[bool, str]:
        """Rebuild one result row's fit and score it with the joint closed form."""
        config = self.op_config(result.seed)
        mspec = next(ms for ms in config.methods if ms.label == row.method)
        rd = bench.generate_rep_data(config, row.rep)
        outcome = estimators.fit_detailed(rd.fit_dag, rd.data[: row.m], mspec.config)
        sigma_true = gbn.covariance(rd.truth)
        oracle = gbn.gaussian_kl(sigma_true, gbn.covariance(outcome.model))
        ok, gap = _agrees(row.kl_total, oracle, sigma_true)
        line = f"seed {result.seed} {row.method} m={row.m}: kl {row.kl_total!r} oracle {oracle!r} {gap}"
        return ok and not outcome.degenerate_nodes, line


class CliWorkload:
    """generate -> fit -> eval through ``gbnlearn.cli.cli`` per op."""

    FILES = ("dag.txt", "model.txt", "samples.csv", "estimate.txt")
    checks_per_run = 0  # check_op already compares every op's eval with the oracle
    fits_per_op = 1

    def __init__(self, tiny: bool):
        self.nodes, self.samples = (30, 300) if tiny else (500, 5000)

    def run_op(self, seed: int, workdir: Path) -> OpResult:
        d = Path(tempfile.mkdtemp(prefix=f"op-{seed}-", dir=workdir))
        argvs = (
            ["generate", "--graph", "er", "--nodes", str(self.nodes), "--degree", "5",
             "--samples", str(self.samples), "--seed", str(seed), "--out", str(d)],
            ["fit", "--dag", str(d / "dag.txt"), "--samples", str(d / "samples.csv"),
             "--method", "cauchy_est", "--variance-method", "mad", "--out", str(d / "estimate.txt")],
            ["eval", str(d / "model.txt"), str(d / "estimate.txt"), "--per-node"],
        )
        codes = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.cli(argv))
            if codes[-1] != 0:
                break
        failed = int(len(codes) != len(argvs) or any(codes))
        return OpResult(seed=seed, fits=1, failed=failed, outputs=CliOutputs(d, codes, out.getvalue()))

    def digest(self, result: OpResult) -> str:
        h = hashlib.sha256()
        for name in self.FILES:
            path = result.outputs.directory / name
            h.update(name.encode())
            h.update(_file_sha256(path).encode() if path.exists() else b"missing")
        h.update(result.outputs.eval_stdout.encode())
        return h.hexdigest()

    def check_op(self, result: OpResult) -> list[str]:
        seed, out = result.seed, result.outputs
        if result.failed:
            return [f"seed {seed}: cli exit codes {out.codes}"]
        lines = out.eval_stdout.splitlines()
        kl = float(lines[0].split()[1]) if lines and lines[0].startswith("kl_total ") else None
        errors = []
        dcp_lines = [ln for ln in lines if ln.startswith("dcp ")]
        if len(dcp_lines) != self.nodes:
            errors.append(f"seed {seed}: {len(dcp_lines)} per-node lines, expected {self.nodes}")
        if kl is None or not math.isfinite(kl) or kl < KL_FLOOR:
            return errors + [f"seed {seed}: bad eval output {lines[:2]!r}"]
        truth = gbn.load_model(out.directory / "model.txt")
        estimate = gbn.load_model(out.directory / "estimate.txt")
        sigma_true = gbn.covariance(truth)
        oracle = gbn.gaussian_kl(sigma_true, gbn.covariance(estimate))
        ok, gap = _agrees(kl, oracle, sigma_true)
        if not ok:
            errors.append(f"seed {seed}: eval kl_total {kl!r} vs oracle {oracle!r} {gap}")
        return errors

    def cleanup_op(self, result: OpResult) -> None:
        shutil.rmtree(result.outputs.directory, ignore_errors=True)


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _tiny_sweep(obj: dict) -> dict:
    """Smoke-test size: same scenario and methods on a small graph."""
    obj = json.loads(json.dumps(obj))
    obj["graph"]["n"] = 20
    if obj["graph"]["kind"] == "er":
        obj["graph"]["degree"] = 3.0
    scenario = obj.get("scenario", {})
    if scenario.get("kind") == "agnostic":
        scenario["remove_edges"] = 3
    obj["sample_sizes"] = [400, 800] if len(obj["sample_sizes"]) > 1 else [800]
    return obj


def make(name: str, tiny: bool):
    """The workload called ``name``, at full size or at smoke-test size."""
    if name in SWEEPS:
        config_name, checks = SWEEPS[name]
        return SweepWorkload(config_name, tiny, checks)
    return CliWorkload(tiny)
