"""Tests for the command-line interface: exit codes, JSON contract, files."""

import json

import pytest

from trfam import cli
from trfam.cli import main
from trfam.driver import SolveError, TrParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_json_solve(self, capsys):
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", "rosenbrock", "--alpha", "0", "--beta", "0",
            "--hessian", "exact", "--eps", "1e-6", "--json",
        )
        assert code == 0
        payload = json.loads(out)  # strict parser
        assert payload["status"] == "first_order"
        assert payload["problem"] == "rosenbrock"
        assert isinstance(payload["iterations"], int)
        assert all("_" in k or k.islower() for k in payload)

    def test_flag_ordering_violation_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--problem", "rosenbrock", "--eta1", "0.9", "--eta2", "0.5"
        )
        assert code == 2

    def test_radius_mode_flag_matches_the_driver(self):
        parse = cli.build_parser().parse_args
        assert parse(["solve", "--problem", "sphere"]).radius_mode == TrParams.radius_mode
        for mode in ("current", "history"):
            assert TrParams(radius_mode=mode).radius_mode == mode
            assert parse(["solve", "--problem", "sphere", "--radius-mode", mode]).radius_mode == mode
        with pytest.raises(ValueError, match="unknown radius_mode"):
            TrParams(radius_mode="past")
        with pytest.raises(SystemExit) as exit_info:
            parse(["solve", "--problem", "sphere", "--radius-mode", "past"])
        assert exit_info.value.code == 2

    def test_unknown_problem_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem", "nessie")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("exc", [
        SolveError("rosenbrock: non-finite f or gradient at k=3"),
        FloatingPointError("non-finite model decrease: ill-posed model"),
    ])
    def test_solver_breakdown_is_domain_error(self, capsys, monkeypatch, exc):
        def breaks(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve", breaks)
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock")
        assert code == 1
        assert out == ""
        assert err == f"error: {exc}\n"

    def test_log_csv(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "sphere", "--log-csv", str(path), "--json"
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"


class TestAdversarial:
    def test_verify_p0(self, capsys):
        code, out, _ = run_cli(
            capsys, "adversarial", "--p", "0", "--eps", "0.5", "--verify", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == 4
        assert payload["passed"] is True

    def test_generate_only(self, capsys):
        code, out, _ = run_cli(capsys, "adversarial", "--p", "0.5", "--eps", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["k_eps"] == 16

    def test_emit_function(self, capsys, tmp_path):
        path = tmp_path / "fn.csv"
        code, _, _ = run_cli(
            capsys,
            "adversarial", "--p", "0", "--eps", "0.5", "--emit-function", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,f,fprime"
        assert len(lines) == 2002

    def test_cap_exceeded_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "adversarial", "--p", "1", "--eps", "0.05")
        assert code == 1
        assert err.startswith("error:")


class TestBounds:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--p", "1", "--mu", "0", "--eps", "1", "--alpha", "1", "--beta", "1",
        )
        assert code == 0
        for label in (
            "kappa1", "kappa2", "kappa3", "tau", "xi_beta",
            "bound successful", "bound unsuccessful", "bound total",
            "ref bounded-case",
        ):
            assert label in out

    @pytest.mark.parametrize("flag,code,message", [
        ("--beta=nan", 2, "usage error: need alpha <= 1 and beta <= 1"),
        ("--alpha=nan", 2, "usage error: need alpha <= 1 and beta <= 1"),
        ("--beta=-1e6", 1, "error: float division by zero"),
        ("--mu=nan", 1, "error: mu must be nonnegative"),
        ("--mu=-1", 1, "error: mu must be nonnegative"),
    ])
    def test_bad_value_is_one_line_and_exit_code(self, capsys, flag, code, message):
        # a later --mu overrides the first one
        got, out, err = run_cli(capsys, "bounds", "--p", "0.5", "--mu", "1", "--eps", "0.1", flag)
        assert got == code
        assert out == ""
        assert err == message + "\n"

    def test_domain_error_bubbles(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--p", "2", "--mu", "1", "--eps", "0.1"
        )
        assert code in (1, 2)


class TestBenchProfile:
    def test_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys,
            "bench", "--variants", "0,0;1,1", "--hessian", "exact",
            "--problems", "sphere,rosenbrock,beale", "--eps", "1e-6",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "matrix.csv").exists()
        assert (out_dir / "profile_fevals.svg").exists()
        code, out, _ = run_cli(capsys, "profile", "--in", str(out_dir), "--metric", "gevals")
        assert code == 0
        assert (out_dir / "profile_gevals.csv").exists()

    def test_missing_matrix_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "profile", "--in", str(tmp_path), "--metric", "fevals")
        assert code == 1
        assert err.startswith("error:")

    def test_bad_variant_string(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--variants", "0;1", "--out", str(tmp_path)
        )
        assert code == 1
