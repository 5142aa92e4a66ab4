"""gbnlearn benchmark: end-to-end metrics per workload, layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout the script sits in.
Load is a closed loop: one op at a time, from this single process.

``--trace 0`` runs the untraced ops for ``--seconds`` (at least
``MIN_OPS`` of them) and reports the end-to-end metrics of BENCHMARK.json.
``setup_s`` is the time from the script's first line through imports and
config parse/validate, as the median over ``SETUP_RUNS`` fresh processes
(this one included), plus this process's one untimed warm-up op. Work
moved into import, parse or the first op therefore shows in it.

``--trace 1`` alternates an untraced and a traced op on the same op seed,
requires their result digests to match, and reports the per-op medians
of the layer metrics listed in ``layers.LAYER_METRICS``. Spans are written
to ``.perfbench_work/`` when the run ends.

``--smoke`` runs every workload once at a tiny size, traced and untraced,
and checks that every metric named in BENCHMARK.json is printed.

Every run prints its environment, one line per op with the sha256 digest
of the op's outputs, its check results, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed output check exits with code 1.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_RUNS = 3
MIN_OPS = 2
PROBE_TIMEOUT_S = 60
SMOKE_TIMEOUT_S = 170


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import gbnlearn from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gbnlearn" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'gbnlearn'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gbnlearn

    if Path(gbnlearn.__file__).resolve().parent != (SRC / "gbnlearn").resolve():
        _fail(f"imported gbnlearn from {gbnlearn.__file__}, not from {SRC}")
    return gbnlearn


def _blas_info(np):
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")) + glob.glob(str(libdir / "libopenblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _environment(args, np, scipy):
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }
    env.update(_blas_info(np))
    return env


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark process: set-up, the op loop, checks and the result."""

    def __init__(self, args, workload, op_seed):
        self.args = args
        self.wl = workload
        self.op_seed = op_seed
        self.workdir = WORK_DIR / f"ops-{os.getpid()}"
        self.errors = []
        self.kept = []  # results kept for the oracle checks after the loop
        self.attempted = 0
        self.failed = 0

    def op(self, index: int, label: str, tracer=None):
        """Run and time op ``index``, then digest and check its outputs; returns (wall, result)."""
        seed = self.op_seed(self.args.seed, index)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.wl.run_op(seed, self.workdir)
                wall = time.perf_counter() - t0
            else:
                with tracer.op(f"{label}-{index}"):
                    t0 = time.perf_counter()
                    result = self.wl.run_op(seed, self.workdir)
                    wall = time.perf_counter() - t0
                tracer.end_op(wall)
        except Exception:
            # An op that raises is a failed op, not a crash of the benchmark.
            traceback.print_exc()
            self.attempted += self.wl.fits_per_op
            self.failed += self.wl.fits_per_op
            print(f"op {label} {index} seed {seed} raised")
            return None, None
        result.digest = self.wl.digest(result)
        self.errors += self.wl.check_op(result)
        print(f"op {label} {index} seed {seed} wall_s {wall:.6f} fits {result.fits} "
              f"failed {result.failed} sha256 {result.digest}", flush=True)
        return wall, result

    def settle(self, result) -> None:
        """Count a timed op, release its files and keep it if oracle checks need it."""
        self.attempted += result.fits
        self.failed += result.failed
        self.wl.cleanup_op(result)
        if self.wl.checks_per_run:
            self.kept.append(result)

    def oracle_checks(self) -> None:
        """Rebuild a seeded sample of distinct result cells and compare with the oracle."""
        cells = [(result, row) for result in self.kept for row in self.wl.live_rows(result)]
        rng = random.Random(self.args.seed)
        for result, row in rng.sample(cells, min(self.wl.checks_per_run, len(cells))):
            ok, line = self.wl.check_oracle(result, row)
            if not ok:
                self.errors.append(line)
            print(f"check oracle {'ok' if ok else 'FAIL'} {line}")

    def untraced(self):
        walls = []
        loop_start = time.perf_counter()
        index = 1
        while index <= MIN_OPS or time.perf_counter() - loop_start < self.args.seconds:
            wall, result = self.op(index, "timed")
            index += 1
            if result is not None:
                walls.append(wall)
                self.settle(result)
        return walls

    def traced(self, tracer):
        walls, traced_walls = [], []
        loop_start = time.perf_counter()
        index = 1
        while index == 1 or time.perf_counter() - loop_start < self.args.seconds:
            wall, plain = self.op(index, "untraced")
            twall, traced = self.op(index, "traced", tracer)
            index += 1
            if plain is None or traced is None:
                for r in (plain, traced):
                    if r is not None:
                        self.settle(r)
                continue
            if plain.digest != traced.digest:
                self.errors.append(f"op {index - 1}: traced digest {traced.digest} != untraced {plain.digest}")
            walls.append(wall)
            traced_walls.append(twall)
            self.settle(plain)
            self.settle(traced)
        return walls, traced_walls


def _load_probe_times(args) -> list:
    """Import and config parse/validate time of fresh processes."""
    times = []
    for _ in range(SETUP_RUNS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"set-up probe exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["load_s"])
    return times


def _write_spans(args, tracer) -> None:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps(tracer.span_records(), separators=(",", ":")))
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def _benchmark(args) -> int:
    gbnlearn = _import_package()
    import numpy as np
    import scipy

    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    run = Run(args, workloads.make(args.workload, args.tiny), workloads.op_seed)
    load_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"load_s": load_s}))
        return 0
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_s, warm = run.op(0, "warmup")
        if warm is None:
            _fail("the warm-up op raised")
        run.wl.cleanup_op(warm)
        print("env " + json.dumps(_environment(args, np, scipy), sort_keys=True), flush=True)
        if args.trace:
            tracer = layers.Tracer(gbnlearn)
            walls, traced_walls = run.traced(tracer)
            if not walls:
                _fail("every traced op pair raised")
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            metrics = tracer.layer_metrics(overhead)
            _write_spans(args, tracer)
        else:
            loads = [load_s] + _load_probe_times(args)
            walls = run.untraced()
            if not walls:
                _fail("every op raised")
            print(f"setup load_s {' '.join(f'{t:.6f}' for t in loads)} warmup_s {warm_s:.6f}")
            metrics = {
                "setup_s": {"value": statistics.median(loads) + warm_s, "unit": "s"},
                "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
                "fits_per_s": {"value": (run.attempted - run.failed) / sum(walls), "unit": "1/s"},
                "ok_frac": {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
        run.oracle_checks()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for e in run.errors:
        print(f"check FAIL {e}")
    print(f"ops {len(walls)} op_s_p50 {statistics.median(walls):.6f} attempted {run.attempted} "
          f"failed {run.failed} failed_frac {run.failed / max(run.attempted, 1):.6f} "
          f"checks {'FAIL' if run.errors else 'ok'}")
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 1 if run.errors else 0


def _smoke() -> int:
    """Every workload once, tiny, traced and untraced; every named metric printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            where = f"{workload} trace={trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: exit {proc.returncode}, no result line\n{proc.stderr}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: exit {proc.returncode}, result {lines[-1]}")
            if units != expected[trace]:
                wrong = sorted(set(units.items()) ^ set(expected[trace].items()))
                problems.append(f"{where}: printed and BENCHMARK.json metrics differ in {wrong}")
            print(f"smoke {where}: exit {proc.returncode}, {len(units)} metrics", flush=True)
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return _smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return _benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
