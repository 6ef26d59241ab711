import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chargeplan.cli import main
from chargeplan.evcec import load_solution, objective_value
from chargeplan.heuristic import best_greedy, local_search
from chargeplan.instance import PRESETS, generate, load, save, with_queue
from chargeplan.report import parse_csv

from test_bp import linking_infeasible_chain

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, **kw):
    """Run the CLI in-process, capturing stdout; returns (exit_code, stdout)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, buf.getvalue()


class TestGenerate:
    def test_preset_small_model_size(self, tmp_path):
        out = tmp_path / "inst.json"
        code, _ = run_cli(["generate", "--preset", "small", "--mj", "10",
                           "--seed", "7", "--out", str(out)])
        assert code == 0
        inst = load(out)
        from chargeplan.evcec import build_evcec

        assert build_evcec(inst).model.num_binaries == 1320

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--preset", "tiny", "--seed", "3"]
        assert run_cli(argv + ["--out", str(a)])[0] == 0
        assert run_cli(argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_zones_usage_error(self, tmp_path):
        code, _ = run_cli(["generate", "--zones", "0", "--locations", "3",
                           "--out", str(tmp_path / "x.json")])
        assert code not in (0, None)

    def test_preset_conflicts_with_sizes(self, tmp_path):
        code, _ = run_cli(["generate", "--preset", "tiny", "--zones", "4",
                           "--out", str(tmp_path / "x.json")])
        assert code not in (0, None)

    def test_explicit_sizes(self, tmp_path):
        out = tmp_path / "inst.json"
        code, _ = run_cli(["generate", "--zones", "3", "--locations", "3",
                           "--nodes", "3", "--mj", "2", "--seed", "1",
                           "--out", str(out)])
        assert code == 0
        inst = load(out)
        assert inst.n_zones == 3 and len(inst.tree) == 3


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("insts") / "tiny.json"
    code, _ = run_cli(["generate", "--preset", "tiny", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


class TestSolve:
    def test_heuristic_feasible_exit_zero(self, tiny_file, tmp_path):
        out = tmp_path / "sol.json"
        code, stdout = run_cli(["solve", "--algo", "heuristic",
                                "--instance", str(tiny_file), "--out", str(out)])
        assert code == 0
        dep, meta = load_solution(out)
        assert meta["algorithm"] == "heuristic"
        rows = parse_csv(stdout)
        assert len(rows) == 1 and rows[0]["algo"] == "heuristic"
        assert rows[0]["service_ok"] == "yes"

    def test_heuristic_closes_with_local_search(self, tmp_path):
        path = tmp_path / "medium.json"
        assert run_cli(["generate", "--preset", "medium", "--seed", "0",
                        "--out", str(path)])[0] == 0
        code, stdout = run_cli(["solve", "--algo", "heuristic", "--instance", str(path),
                                "--b", "1"])
        assert code == 0
        inst = with_queue(load(path), b=1)
        start = best_greedy(inst)
        z = float(parse_csv(stdout)[0]["z"])  # printed to 6 significant digits
        assert z == pytest.approx(objective_value(inst, local_search(inst, start)), rel=1e-5)
        assert z <= objective_value(inst, start)

    def test_approx_row_has_bound_and_gap(self, tiny_file):
        code, stdout = run_cli(["solve", "--algo", "approx",
                                "--instance", str(tiny_file)])
        assert code == 0
        row = parse_csv(stdout)[0]
        assert row["lb"] != "" and row["gap"] != ""
        assert float(row["z"]) >= float(row["lb"]) - 1e-6

    def test_bp_matches_mip(self, tiny_file):
        code_m, out_m = run_cli(["solve", "--algo", "mip", "--instance", str(tiny_file)])
        code_b, out_b = run_cli(["solve", "--algo", "bp", "--instance", str(tiny_file)])
        assert code_m == 0 and code_b == 0
        zm = float(parse_csv(out_m)[0]["z"])
        zb = float(parse_csv(out_b)[0]["z"])
        assert abs(zm - zb) / zm <= 1e-6

    def test_b_override_changes_threshold(self, tiny_file):
        code, stdout = run_cli(["solve", "--algo", "heuristic",
                                "--instance", str(tiny_file), "--b", "2"])
        assert code == 0
        assert parse_csv(stdout)[0]["b"] == "2"

    def test_root_only_flag_accepted(self, tiny_file):
        code, stdout = run_cli(["solve", "--algo", "bp", "--root-only",
                                "--instance", str(tiny_file)])
        assert code == 0
        assert parse_csv(stdout)[0]["z"] != ""

    def test_exhausted_budget_without_incumbent_exits_3(self, tiny_file):
        code, _ = run_cli(["solve", "--algo", "mip", "--instance", str(tiny_file),
                           "--time-limit", "0.000001"])
        assert code == 3

    @pytest.mark.parametrize("algo", ["mip", "approx", "heuristic", "bp"])
    def test_proven_infeasible_exits_4(self, algo, tmp_path, capsys):
        # fifty times the tiny seed 1 demand saturates every station the
        # instance can build; exit 4 keeps that apart from a usage error (2)
        inst = generate(PRESETS["tiny"], 1)
        tree = tuple(dataclasses.replace(n, w=tuple(50 * v for v in n.w)) for n in inst.tree)
        path = tmp_path / "saturated.json"
        save(dataclasses.replace(inst, tree=tree), path)
        code, stdout = run_cli(["solve", "--algo", algo, "--instance", str(path)])
        assert code == 4 and stdout == ""
        assert "proven infeasible" in capsys.readouterr().err

    def test_linking_infeasible_bp_exits_4(self, tmp_path, capsys):
        # Farkas rounds prove the chain infeasible at the root
        path = tmp_path / "chain.json"
        save(linking_infeasible_chain(), path)
        code, stdout = run_cli(["solve", "--algo", "bp", "--instance", str(path)])
        assert code == 4 and stdout == ""
        assert "proven infeasible" in capsys.readouterr().err


USAGE_ERRORS = {
    "generate --b": ["generate", "--preset", "tiny", "--b", "-1"],
    "generate --alpha": ["generate", "--preset", "tiny", "--alpha", "1.5"],
    "generate --mu": ["generate", "--preset", "tiny", "--mu", "0"],
    "solve --b": ["solve", "--algo", "heuristic", "--b", "-1"],
    "solve --alpha": ["solve", "--algo", "heuristic", "--alpha", "0"],
    "solve --mu": ["solve", "--algo", "heuristic", "--mu", "-2"],
    "solve --time-limit": ["solve", "--algo", "bp", "--time-limit", "-5"],
    "solve --gap-tol": ["solve", "--algo", "bp", "--gap-tol", "-0.1"],
    "benchmark --b-values": ["benchmark", "--b-values", "1,x", "--algos", "heuristic"],
    "benchmark --b-values negative": ["benchmark", "--b-values", "0,-1", "--algos", "heuristic"],
    "benchmark --time-limit": ["benchmark", "--b-values", "0", "--time-limit", "0"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_flag_is_a_usage_error(case, tiny_file, tmp_path, capsys):
    argv = list(USAGE_ERRORS[case])
    out = tmp_path / "out"
    argv += {"generate": ["--out", str(out)], "solve": ["--instance", str(tiny_file),
                                                     "--out", str(out)],
             "benchmark": ["--out-dir", str(out)]}[argv[0]]
    code, stdout = run_cli(argv)
    assert code == 2 and stdout == "", case
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class TestBenchmark:
    def test_tiny_matrix_writes_reports(self, tmp_path):
        out_dir = tmp_path / "bench"
        code, stdout = run_cli([
            "benchmark", "--suite", "tiny", "--seeds", "1", "--b-values", "0",
            "--algos", "heuristic,approx", "--out-dir", str(out_dir),
            "--time-limit", "60",
        ])
        assert code == 0
        csv_text = (out_dir / "report.csv").read_text()
        rows = parse_csv(csv_text)
        assert {r["algo"] for r in rows} == {"heuristic", "approx"}
        assert (out_dir / "report.txt").exists()

    def test_b_sweep_monotone_for_exact_solver(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _ = run_cli([
            "benchmark", "--suite", "tiny", "--seeds", "1",
            "--b-values", "0,2", "--algos", "mip",
            "--out-dir", str(out_dir), "--time-limit", "120",
        ])
        assert code == 0
        rows = parse_csv((out_dir / "report.csv").read_text())
        z = {r["b"]: float(r["z"]) for r in rows}
        assert z["2"] <= z["0"] + 1e-6


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "chargeplan.cli", "generate", "--preset", "tiny",
             "--seed", "2", "--out", str(out)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_pins_blas_threads_unless_set(self):
        code = ("import os, chargeplan; print(*(os.environ[v] for v in "
                "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        for preset, expect in (({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env={**env, **preset})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expect


TIMING_COLUMNS = ("t_s", "ts_pct")


def strip_timing(rows):
    return [{k: v for k, v in r.items() if k not in TIMING_COLUMNS} for r in rows]


class TestDeterminism:
    def test_single_worker_reports_identical_modulo_walltime(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out_dir = tmp_path / tag
            code, _ = run_cli([
                "benchmark", "--suite", "tiny", "--seeds", "1", "--b-values", "0,1",
                "--algos", "heuristic,approx", "--out-dir", str(out_dir),
                "--time-limit", "60",
            ])
            assert code == 0
            outs.append(parse_csv((out_dir / "report.csv").read_text()))
        assert strip_timing(outs[0]) == strip_timing(outs[1])

    def test_worker_pool_matches_sequential(self, tmp_path):
        import os

        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        argv = ["benchmark", "--suite", "tiny", "--seeds", "2", "--b-values", "0",
                "--algos", "heuristic", "--time-limit", "60"]
        code, _ = run_cli(argv + ["--out-dir", str(seq_dir)])
        assert code == 0
        old = os.environ.get("EVCEC_THREADS")
        os.environ["EVCEC_THREADS"] = "2"
        try:
            code, _ = run_cli(argv + ["--out-dir", str(par_dir)])
        finally:
            if old is None:
                os.environ.pop("EVCEC_THREADS", None)
            else:
                os.environ["EVCEC_THREADS"] = old
        assert code == 0
        seq = parse_csv((seq_dir / "report.csv").read_text())
        par = parse_csv((par_dir / "report.csv").read_text())
        assert strip_timing(seq) == strip_timing(par)


class TestCgLog:
    def test_bp_run_log_written(self, tiny_file, tmp_path):
        log = tmp_path / "run.cg.txt"
        code, _ = run_cli(["solve", "--algo", "bp", "--instance", str(tiny_file),
                           "--cg-log", str(log)])
        assert code == 0
        text = log.read_text()
        assert "branch node depth=0" in text
        assert "rmp=" in text and "piv=" in text and "rc[" in text
