"""End-to-end CLI behavior: subcommands, file outputs, exit codes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbnlearn
from gbnlearn import bench, estimators, gbn
from gbnlearn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli
from gbnlearn.dag import build_dag, read_dag_file, write_dag_file

TINY_BENCH = {
    "graph": {"kind": "tree", "n": 5},
    "methods": [{"method": "least_squares"}, {"method": "batch_med", "batch_extra": 3}],
    "sample_sizes": [40, 80],
    "repetitions": 2,
    "base_seed": 3,
}


def _generate(tmp_path, extra=()):
    args = [
        "generate",
        "--graph",
        "tree",
        "--nodes",
        "6",
        "--samples",
        "2000",
        "--seed",
        "1",
        "--out",
        str(tmp_path),
        *extra,
    ]
    assert cli(args) == EXIT_OK
    return tmp_path / "dag.txt", tmp_path / "model.txt", tmp_path / "samples.csv"


class TestGenerate:
    def test_writes_all_three_files(self, tmp_path, capsys):
        dag_path, model_path, samples_path = _generate(tmp_path)
        assert dag_path.exists() and model_path.exists() and samples_path.exists()
        assert "wrote" in capsys.readouterr().out
        dag = read_dag_file(dag_path)
        model = gbn.load_model(model_path)
        data = gbn.load_samples(samples_path)
        assert dag.n == 6
        assert model.dag.n == 6
        assert data.shape == (2000, 6)

    def test_er_requires_degree(self, tmp_path):
        code = cli(["generate", "--graph", "er", "--nodes", "6", "--samples", "10", "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_tree_rejects_degree(self, tmp_path):
        code = cli(
            ["generate", "--graph", "tree", "--nodes", "6", "--degree", "2", "--samples", "10", "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA

    def test_uniform_variances(self, tmp_path):
        _, model_path, _ = _generate(tmp_path, extra=("--variances", "uniform:3.0,4.0"))
        model = gbn.load_model(model_path)
        assert np.all((model.variances >= 3.0) & (model.variances <= 4.0))

    def test_ill_variances(self, tmp_path):
        _, model_path, _ = _generate(tmp_path, extra=("--variances", "ill:1,3:1e-12"))
        model = gbn.load_model(model_path)
        assert model.variances[1] == 1e-12 and model.variances[3] == 1e-12
        assert model.variances[0] == 1.0

    def test_bad_variances_spec(self, tmp_path):
        code = cli(
            ["generate", "--graph", "tree", "--nodes", "4", "--samples", "10", "--variances", "chaos", "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("spec", ["uniform:a,b", "ill:x:1e-20", "ill:1,2:abc"])
    def test_variances_spec_with_bad_number(self, tmp_path, spec, capsys):
        code = cli(
            ["generate", "--graph", "tree", "--nodes", "4", "--samples", "10", "--variances", spec, "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA
        assert "bad variances spec" in capsys.readouterr().err

    def test_deterministic_for_fixed_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        _generate(a)
        _generate(b)
        assert (a / "samples.csv").read_text() == (b / "samples.csv").read_text()
        assert (a / "model.txt").read_text() == (b / "model.txt").read_text()


class TestFitAndEval:
    def test_generate_fit_eval_pipeline(self, tmp_path, capsys):
        dag_path, model_path, samples_path = _generate(tmp_path)
        est_path = tmp_path / "est.txt"
        assert (
            cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "least_squares", "--out", str(est_path)])
            == EXIT_OK
        )
        capsys.readouterr()
        assert cli(["eval", str(model_path), str(est_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("kl_total ")
        assert out[1].startswith("tv_upper ")
        kl = float(out[0].split()[1])
        tv = float(out[1].split()[1])
        assert 0.0 < kl < 0.1  # m=2000 on six nodes fits well
        assert tv == pytest.approx(min(1.0, (kl / 2.0) ** 0.5))

    def test_eval_per_node(self, tmp_path, capsys):
        dag_path, model_path, samples_path = _generate(tmp_path)
        est_path = tmp_path / "est.txt"
        cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "batch_med", "--out", str(est_path)])
        capsys.readouterr()
        assert cli(["eval", str(model_path), str(est_path), "--per-node"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        dcp_lines = [line for line in out if line.startswith("dcp ")]
        assert len(dcp_lines) == 6
        assert [int(line.split()[1]) for line in dcp_lines] == list(range(6))

    def test_eval_estimate_on_sub_dag(self, tmp_path, capsys):
        dag_path, model_path, samples_path = _generate(tmp_path)
        dag = read_dag_file(dag_path)
        edges = dag.edges()
        sub_path = tmp_path / "sub_dag.txt"
        write_dag_file(build_dag(dag.n, edges[1:]), sub_path)
        # Node 0 is the root, so an edge from it to a non-child keeps the DAG acyclic.
        extra = next((0, i) for i in range(1, dag.n) if 0 not in dag.parents[i])
        super_path = tmp_path / "super_dag.txt"
        write_dag_file(build_dag(dag.n, edges + [extra]), super_path)
        for path, name in ((sub_path, "sub.txt"), (super_path, "super.txt")):
            fit_args = ["fit", "--dag", str(path), "--samples", str(samples_path), "--method", "least_squares"]
            assert cli([*fit_args, "--out", str(tmp_path / name)]) == EXIT_OK
        capsys.readouterr()
        assert cli(["eval", str(model_path), str(tmp_path / "sub.txt"), "--per-node"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        dcp_lines = [line for line in out if line.startswith("dcp ")]
        assert [int(line.split()[1]) for line in dcp_lines] == list(range(dag.n))
        assert float(out[0].split()[1]) > 0.1  # the dropped edge's coefficient has magnitude >= 1
        assert cli(["eval", str(model_path), str(tmp_path / "super.txt")]) == EXIT_DATA

    def test_eval_model_against_itself_is_zero(self, tmp_path, capsys):
        _, model_path, _ = _generate(tmp_path)
        capsys.readouterr()
        assert cli(["eval", str(model_path), str(model_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kl_total 0"
        assert out[1] == "tv_upper 0"

    def test_fit_all_methods_run(self, tmp_path):
        dag_path, _, samples_path = _generate(tmp_path)
        for method in ("least_squares", "batch_avg", "batch_med", "cauchy_est", "cauchy_est_tree"):
            est_path = tmp_path / f"est_{method}.txt"
            code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", method, "--out", str(est_path)])
            assert code == EXIT_OK, method
            assert est_path.exists()

    def test_fit_flag_defaults_are_fit_config_defaults(self, tmp_path, monkeypatch):
        dag_path, _, samples_path = _generate(tmp_path)
        seen = []
        real_fit = estimators.fit_detailed

        def recording_fit(dag, data, config):
            seen.append(config)
            return real_fit(dag, data, config)

        monkeypatch.setattr(estimators, "fit_detailed", recording_fit)
        argv = ["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "batch_med"]
        assert cli(argv + ["--out", str(tmp_path / "est.txt")]) == EXIT_OK
        assert seen == [estimators.FitConfig(method="batch_med")]

    def test_fit_mad_variances(self, tmp_path):
        dag_path, _, samples_path = _generate(tmp_path)
        est_path = tmp_path / "est.txt"
        code = cli(
            [
                "fit",
                "--dag",
                str(dag_path),
                "--samples",
                str(samples_path),
                "--method",
                "least_squares",
                "--variance-method",
                "mad",
                "--out",
                str(est_path),
            ]
        )
        assert code == EXIT_OK

    def test_numerical_failure_exit_code(self, tmp_path):
        # A zero column makes the parent second-moment matrix singular.
        dag_path = tmp_path / "dag.txt"
        dag_path.write_text("2\n0 1\n")
        samples_path = tmp_path / "samples.csv"
        rng = np.random.default_rng(0)
        data = np.column_stack([np.zeros(10), rng.normal(size=10)])
        gbn.save_samples(data, samples_path)
        code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "cauchy_est", "--out", str(tmp_path / "est.txt")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "method, damage, line",
        [
            pytest.param(
                "least_squares",
                "collinear",
                re.escape(
                    "numerical failure: node 3: method least_squares: "
                    f"design matrix has relative singular value <= {estimators._LSTSQ_RCOND}"
                ),
                id="least_squares",
            ),
            pytest.param(
                "cauchy_est",
                "collinear",
                re.escape("numerical failure: node 3: method cauchy_est: empirical parent covariance is not positive definite")
                + ".*",
                id="cauchy_est",
            ),
            pytest.param(
                "cauchy_est",
                "overflow",
                re.escape("numerical failure: node 3: method cauchy_est: coefficient estimate is not finite"),
                id="cauchy_est_overflowing_coefficient",
            ),
        ],
    )
    def test_numerical_failure_names_node_and_method(self, tmp_path, capsys, method, damage, line):
        dag_path = tmp_path / "dag.txt"
        dag_path.write_text("4\n0 3\n1 3\n2 3\n")
        samples_path = tmp_path / "samples.csv"
        data = np.random.default_rng(0).normal(size=(200, 4))
        if damage == "collinear":  # node 3's parents 0 and 1: column 1 = 2 x column 0
            data[:, 1] = 2.0 * data[:, 0]
        else:  # parents near 1e-200 and node 3 near 1e200: its coefficients overflow
            data[:, :3] *= 1e-200
            data[:, 3] *= 1e200
        gbn.save_samples(data, samples_path)
        est_path = tmp_path / "est.txt"
        code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", method, "--out", str(est_path)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.fullmatch(line, err.removesuffix("\n")), err
        assert not est_path.exists()

    def test_fit_with_degenerate_variance_exits_3_without_a_model(self, tmp_path, capsys):
        # Node 1 is all zeros, so its variance estimate is floored; the CLI
        # refuses to write that floor as if it were an estimate.
        dag_path = tmp_path / "dag.txt"
        dag_path.write_text("3\n0 2\n")
        samples_path = tmp_path / "samples.csv"
        data = np.random.default_rng(0).normal(size=(100, 3))
        data[:, 1] = 0.0
        gbn.save_samples(data, samples_path)
        est_path = tmp_path / "est.txt"
        code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "least_squares", "--out", str(est_path)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numerical failure: degenerate variance estimate at nodes [1]; no model written\n"
        assert not est_path.exists()

    def test_fit_at_1e160_exits_3_with_one_line(self, tmp_path, capsys):
        # cauchy_est's parent Gram matrix would overflow at this scale; the
        # fit goes through, and every residual's square overflows instead.
        dag_path = tmp_path / "dag.txt"
        dag_path.write_text("3\n0 2\n1 2\n")
        samples_path = tmp_path / "samples.csv"
        gbn.save_samples(1e160 * np.random.default_rng(43).normal(size=(40, 3)), samples_path)
        est_path = tmp_path / "est.txt"
        code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "cauchy_est", "--out", str(est_path)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numerical failure: degenerate variance estimate at nodes [0, 1, 2]; no model written\n"
        assert not est_path.exists()

    def test_fit_rejects_infinite_samples(self, tmp_path, capsys):
        dag_path, _, samples_path = _generate(tmp_path)
        lines = samples_path.read_text().splitlines()
        lines[3] = ",".join(["inf"] + lines[3].split(",")[1:])
        samples_path.write_text("\n".join(lines) + "\n")
        code = cli(["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "least_squares", "--out", str(tmp_path / "est.txt")])
        assert code == EXIT_DATA
        assert "infinite" in capsys.readouterr().err
        assert not (tmp_path / "est.txt").exists()

    def test_eval_missing_file(self, tmp_path):
        assert cli(["eval", str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt")]) == EXIT_DATA


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert cli(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert cli([]) == EXIT_USAGE

    def test_bad_method_choice(self, tmp_path):
        code = cli(["fit", "--dag", "x", "--samples", "y", "--method", "ridge", "--out", "z"])
        assert code == EXIT_USAGE

    def test_fit_has_no_split_option(self):
        code = cli(["fit", "--dag", "x", "--samples", "y", "--method", "least_squares", "--split", "0.3", "--out", "z"])
        assert code == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert cli(["--help"]) == EXIT_OK
        assert "generate" in capsys.readouterr().out


class TestBench:
    def _write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY_BENCH))
        return path

    def test_writes_outputs(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        outdir = tmp_path / "out"
        assert cli(["bench", "--config", str(cfg), "--out", str(outdir)]) == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == ["results.csv", "summary.csv"]  # no curve_*.csv
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"wrote 8 rows to {outdir / 'results.csv'}"  # 2 methods x 2 sizes x 2 reps
        assert out[1] == f"wrote 4 rows to {outdir / 'summary.csv'}"  # 2 methods x 2 sizes

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli(["bench", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert cli(["bench", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli(["bench", "--config", str(cfg), "--out", str(out1), "--seed", "99"]) == EXIT_OK
        assert cli(["bench", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()

    @pytest.mark.parametrize("under_file", ["", "sub/dir"])
    def test_out_under_a_file_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, under_file):
        def no_sweep(config):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(bench, "run_experiment", no_sweep)
        cfg = self._write_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        out = blocker / under_file
        assert cli(["bench", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "keep"

    def test_missing_config_file(self, tmp_path):
        assert cli(["bench", "--config", str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_invalid_config_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli(["bench", "--config", str(path)]) == EXIT_DATA


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT_TIMEOUT_S = 60


def _declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _package_env():
    # A child interpreter's environment that imports the gbnlearn package
    # this test imported, wherever pytest was started.
    package_root = str(Path(gbnlearn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_installed():
    # The declared entry point, run in a fresh interpreter as an installed
    # console-script wrapper would run it.
    spec = _declared_scripts().get("gbnlearn")
    assert spec is not None
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'gbnlearn'\n"
        f"sys.exit(EntryPoint('gbnlearn', {spec!r}, 'console_scripts').load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: gbnlearn" in proc.stdout
    assert "generate" in proc.stdout

    # Where the package is installed, the script on PATH must work too.
    exe = shutil.which("gbnlearn")
    if exe is not None:
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=SCRIPT_TIMEOUT_S
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "gbnlearn", "--help"],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: gbnlearn" in proc.stdout
    assert "generate" in proc.stdout


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import gbnlearn
from gbnlearn.cli import EXIT_OK, cli
from gbnlearn.gbn import gaussian_kl

out, config = sys.argv[1], json.loads(sys.argv[2])
assert cli(["generate", "--graph", "er", "--nodes", "6", "--degree", "2", "--samples", "400",
            "--seed", "5", "--out", out]) == EXIT_OK
assert cli(["fit", "--dag", out + "/dag.txt", "--samples", out + "/samples.csv", "--method", "cauchy_est",
            "--variance-method", "mad", "--out", out + "/est.txt"]) == EXIT_OK
assert cli(["eval", out + "/model.txt", out + "/est.txt", "--per-node"]) == EXIT_OK
with open(out + "/config.json", "w") as fh:
    json.dump(config, fh)
assert cli(["bench", "--config", out + "/config.json", "--out", out + "/bench"]) == EXIT_OK
print("kl", gaussian_kl(np.eye(2), 2.0 * np.eye(2)))
"""


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the CLI pipeline, a bench sweep over
    # every method and the Gaussian KL oracle run with every scipy import
    # failing.
    config = dict(TINY_BENCH, methods=[{"method": m, "batch_extra": 3} for m in estimators.METHODS])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path), json.dumps(config)],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1].split()[1]) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)


def test_malformed_config_exits_2_without_traceback(tmp_path):
    # A malformed value is reported as a config error, never as a crash.
    preset = json.loads((PYPROJECT.parent / "configs" / "clean_er.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**preset, "scenario": {"kind": "contaminated", "law": 5}}))
    proc = subprocess.run(
        [sys.executable, "-m", "gbnlearn", "bench", "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == EXIT_DATA
    assert "scenario.law" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param(
            {"graph": {"kind": "er", "n": 5, "degree": 1.0}, "scenario": {"kind": "agnostic", "remove_edges": 9}},
            r"error: graph has \d+ edges, cannot remove 9",
            id="remove_edges_beyond_drawn_graph",
        ),
        pytest.param(
            {
                "graph": {"kind": "er", "n": 30, "degree": 5.0},
                "methods": [{"method": "batch_med", "batch_extra": 20}],
                "sample_sizes": [20],
            },
            r"error: node \d+: method batch_med: needs at least \d+ rows, got 10",
            id="batch_rows_beyond_coefficient_rows",
        ),
    ],
)
def test_data_error_mid_sweep_exits_2_without_results(tmp_path, overrides, message):
    # The edge and parent counts of an ER graph are drawn per repetition,
    # so validate_config cannot bound these; the sweep stops with a
    # one-line message and writes no results.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_BENCH, **overrides}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "gbnlearn", "bench", "--config", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=SCRIPT_TIMEOUT_S,
    )
    assert proc.returncode == EXIT_DATA
    assert re.fullmatch(message, proc.stderr.strip()), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _fit_argv(tmp_path, dag_text, samples):
    dag_path = tmp_path / "dag.txt"
    dag_path.write_text(dag_text)
    samples_path = tmp_path / "samples.csv"
    gbn.save_samples(samples, samples_path)
    argv = ["fit", "--dag", str(dag_path), "--samples", str(samples_path), "--method", "least_squares"]
    return argv + ["--out", str(tmp_path / "est.txt")]


def _fit_empty_samples_argv(tmp_path):
    argv = _fit_argv(tmp_path, "2\n0 1\n", _SAMPLES_200x6[:, :2])
    (tmp_path / "samples.csv").write_text("")
    return argv


def _eval_argv(tmp_path):
    truth, estimate = tmp_path / "truth.txt", tmp_path / "estimate.txt"
    truth.write_text("node 0 sigma2 1\nnode 1 sigma2 1\n")
    estimate.write_text("node 0 sigma2 1\nnode 1 sigma2 1\ncoef 1 0 0.5\n")
    return ["eval", str(truth), str(estimate)]


def _eval_self_argv(model_text):
    def make_argv(tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(model_text)
        return ["eval", str(path), str(path)]

    return make_argv


_GENERATE = ["generate", "--samples", "10", "--out"]
_SAMPLES_200x6 = np.random.default_rng(0).normal(size=(200, 6))


@pytest.mark.parametrize(
    "make_argv, line",
    [
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "1"],
            "error: a tree needs at least 2 nodes, got 1",
            id="tree_too_small",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "er", "--nodes", "5", "--degree", "9"],
            "error: degree parameter must satisfy 0 < d <= n, got 9.0",
            id="er_degree_above_n",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--variances", "uniform:2,1"],
            "error: variance range must satisfy 0 < low <= high < inf, got UniformVariances(low=2.0, high=1.0)",
            id="uniform_variances_reversed",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--variances", "uniform:0.5,inf"],
            "error: variance range must satisfy 0 < low <= high < inf, got UniformVariances(low=0.5, high=inf)",
            id="uniform_variances_infinite",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--weight-range", "1", "inf"],
            "error: weight magnitude range must satisfy 0 < lo < hi < inf, got (1.0, inf)",
            id="weight_range_infinite",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--variances", "ill:7:1e-9"],
            "error: ill-conditioned node 7 outside [0, 5)",
            id="ill_node_out_of_range",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--variances", "ill:1:0"],
            "error: ill-conditioned variance must be > 0",
            id="ill_variance_zero",
        ),
        pytest.param(
            lambda tmp: _GENERATE + [str(tmp), "--graph", "tree", "--nodes", "5", "--seed", "-1"],
            "error: --seed must be >= 0, got -1",
            id="negative_seed",
        ),
        pytest.param(
            lambda tmp: _fit_argv(tmp, "3\n0 1\n1 1\n", _SAMPLES_200x6[:, :3]),
            "error: {tmp}/dag.txt: self loop at node 1",
            id="dag_file_self_loop",
        ),
        pytest.param(
            lambda tmp: _fit_argv(tmp, "4\n0 1\n", _SAMPLES_200x6),
            "error: expected (m, 4) samples, got shape (200, 6)",
            id="samples_wider_than_dag",
        ),
        pytest.param(_fit_empty_samples_argv, "error: {tmp}/samples.csv: no samples", id="empty_samples_file"),
        pytest.param(_eval_argv, "error: estimate edges [(0, 1)] are not in the true DAG", id="estimate_edge_not_in_truth"),
        pytest.param(
            _eval_self_argv("node 0 sigma2 1\nnode 0 sigma2 2\n"),
            "error: {tmp}/model.txt: repeated node line 'node 0 sigma2 2'",
            id="model_file_repeated_node",
        ),
        pytest.param(
            _eval_self_argv("node 0 sigma2 1\nnode 1 sigma2 1\ncoef 1 0 0.5\ncoef 1 0 3.0\n"),
            "error: {tmp}/model.txt: repeated coef line 'coef 1 0 3.0'",
            id="model_file_repeated_coef",
        ),
    ],
)
def test_data_error_line_and_exit_code(tmp_path, capsys, make_argv, line):
    # Each input error is one stderr line under exit 2, whatever the
    # exception class behind it.
    code = cli(make_argv(tmp_path))
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.err == line.format(tmp=tmp_path) + "\n"
