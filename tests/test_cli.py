"""Tests for the command-line interface: exit codes, JSON contract, files."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from trfam import adversarial, cli, hessians
from trfam.cli import main
from trfam.driver import SolveError, TrParams

from test_driver import BUDGET_RULES
from test_properties import quadratic


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process run. Under pytest a
    warning does not reach stderr, so each one is added to it as a line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


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

    @pytest.mark.parametrize("flag,name", [("--max-iter", "max_iter"),
                                           ("--eval-budget", "eval_budget")])
    def test_negative_budget_is_usage_error(self, capsys, flag, name):
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock", flag, "-1", "--json")
        assert (code, out, err) == (2, "", f"usage error: {BUDGET_RULES[name]}\n")

    @pytest.mark.parametrize("flags,name", [
        (("--gamma3=inf", "--gamma4=inf"), "gamma3"),
        (("--delta0=inf",), "delta0"),
        (("--alpha=-inf",), "alpha"),
        (("--beta=-inf",), "beta"),
    ])
    def test_non_finite_constant_is_usage_error(self, capsys, flags, name):
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock", *flags, "--json")
        assert (code, out, err) == (2, "", f"usage error: {name} must be finite\n")

    # build_model rejects a memory below 1 whatever the model, not only
    # the limited-memory ones that keep a window
    @pytest.mark.parametrize("flags", [("--mem=0",), ("--hessian", "zero", "--mem=-5")])
    def test_memory_below_one_is_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "solve", "--problem", "sphere", *flags)
        assert (code, out, err) == (2, "", "usage error: memory must be positive\n")

    def test_unknown_problem_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem", "nessie")
        assert (code, out, err) == (1, "", "error: unknown problem name: 'nessie'\n")

    def test_infinite_eps_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock", "--eps=inf", "--json")
        assert (code, out, err) == (2, "", "usage error: eps must be finite\n")

    def test_unbounded_objective_is_one_error_line(self, capsys, monkeypatch):
        problem, _ = quadratic(0, 2, True)  # indefinite: unbounded below
        monkeypatch.setattr(cli, "get_problem", lambda name: problem)
        code, out, err = run_cli(capsys, "solve", "--problem", "quadratic", "--hessian", "exact",
                                 "--eps", "1e-6", "--max-iter", "3000")
        assert (code, out) == (1, "")
        assert err == ("error: non-finite model decrease: it overflows at radius 1e+150; "
                       "the objective may be unbounded below\n")

    def test_overflowing_trial_step_leaves_stderr_empty(self, capsys):
        # the driver rejects the overflowing trial f; numpy warned of it
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock", "--delta0=1e300",
                                 "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "first_order"

    def test_delta0_near_the_float_maximum_starts_at_the_clip(self, capsys, tmp_path):
        # Delta0 is clipped at Delta_max = 1e150 like every later Delta;
        # a_k used to leave the float range at k = 0 here
        path = tmp_path / "log.csv"
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock", "--delta0", "1e308",
                                 "--max-iter", "5", "--log-csv", str(path))
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in path.read_text().splitlines()]
        assert float(rows[1][rows[0].index("delta")]) == 1e150

    @pytest.mark.parametrize("exc", [SolveError("rosenbrock: non-finite f or gradient at k=3")])
    def test_solver_breakdown_is_domain_error(self, capsys, monkeypatch, exc):
        def breaks(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve", breaks)
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock")
        assert code == 1
        assert out == ""
        assert err == f"error: {exc}\n"

    def test_failed_exact_norm_is_domain_error(self, capsys, monkeypatch):
        # a failed eigvalsh fills its output with NaN
        monkeypatch.setattr(hessians, "_eigvalsh", lambda A: np.full(len(A), np.nan))
        code, out, err = run_cli(capsys, "solve", "--problem", "rosenbrock")
        assert (code, out) == (1, "")
        assert err == "error: the exact Hessian's eigenvalues are not finite\n"

    # f overflowed Python's ** in the first three; in the last two the
    # boundary step's discriminant overflowed, and the walk stopped the run
    @pytest.mark.parametrize("problem,delta0", [
        ("penalty1", "1e100"), ("zakharov", "1e80"), ("variably_dimensioned", "1e100"),
        ("cliff", "1e300"), ("wood", "1e150"),
    ])
    def test_huge_radius_rejects_the_steps(self, capsys, problem, delta0):
        code, out, err = run_cli(capsys, "solve", "--problem", problem, "--hessian", "zero",
                                 "--delta0", delta0, "--max-iter", "5", "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["status"], report["n_unsucc"]) == ("max_iter", 5)

    def test_log_csv(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "sphere", "--log-csv", str(path), "--json"
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "k,f,gnorm,delta,eff_radius,rho,status,bnorm,n_succ,a_k,cg_iters"

    def test_unwritable_log_csv_is_domain_error(self, capsys, tmp_path):
        missing = tmp_path / "no_such_dir" / "log.csv"
        for path, reason in ((missing, "[Errno 2] No such file or directory"),
                             (tmp_path, "[Errno 21] Is a directory")):
            code, out, err = run_cli(capsys, "solve", "--problem", "sphere",
                                     f"--log-csv={path}")
            assert (code, out) == (1, "")
            assert err == f"error: {reason}: '{path}'\n"


class TestAdversarial:
    def test_verify_p0(self, capsys):
        code, out, _ = run_cli(
            capsys, "adversarial", "--p", "0", "--eps", "0.5", "--verify", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == 4
        assert payload["passed"] is True
        # the audit inputs the replay read off its interpolant
        assert math.isfinite(payload["f_low"]) and payload["f_low"] <= payload["f0"]
        assert math.isfinite(payload["lipschitz"]) and payload["lipschitz"] >= 1.0

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

    # sha256 of the CSV of --p 1 --eps 0.5, with or without --verify, as
    # written when the verified command generated the instance twice
    FUNCTION_SHA256 = "b56f8cbfc49fa0f7420d2268ef53a9b953fd08f6130b18ec3f12d6c4a9691d3b"

    def test_verify_and_emit_function_generate_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        generate = adversarial.generate
        monkeypatch.setattr(adversarial, "generate",
                            lambda *a, **k: calls.append(a) or generate(*a, **k))
        paths = {flags: tmp_path / f"fn{len(flags)}.csv" for flags in ((), ("--verify",))}
        for flags, path in paths.items():
            calls.clear()
            code, _, err = run_cli(capsys, "adversarial", "--p=1", "--eps=0.5", *flags,
                                   f"--emit-function={path}")
            assert (code, err, len(calls)) == (0, "", 1)
        texts = {path.read_bytes() for path in paths.values()}
        assert [hashlib.sha256(t).hexdigest() for t in texts] == [self.FUNCTION_SHA256]

    def test_failed_verification_is_domain_error(self, capsys, monkeypatch):
        generate = adversarial.generate

        def miscounted(*args, **kwargs):
            inst = generate(*args, **kwargs)
            inst.k_eps += 1
            return inst

        monkeypatch.setattr(adversarial, "generate", miscounted)
        code, out, err = run_cli(capsys, "adversarial", "--p=0", "--eps=0.1", "--verify")
        assert code == 1
        assert "passed: False" in out.splitlines()
        assert err == ("error: sharpness verification failed: "
                       "[{'check': 'iteration_count', 'expected': 100, 'observed': 99}]\n")

    def test_unwritable_emit_function_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "no_such_dir" / "fn.csv"
        for flags in ((), ("--verify",)):
            code, out, err = run_cli(capsys, "adversarial", "--p=0", "--eps=0.5", *flags,
                                     f"--emit-function={path}")
            assert (code, out) == (1, "")
            assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_cap_exceeded_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "adversarial", "--p", "1", "--eps", "0.05")
        assert code == 1
        assert err.startswith("error:")

    def test_overflowing_k_eps_is_domain_error(self, capsys):
        # the power 0.9^-2e6 overflows; this used to end in a traceback
        code, out, err = run_cli(
            capsys, "adversarial", "--p", "0.999999", "--eps", "0.9", "--verify", "--json"
        )
        assert (code, out) == (1, "")
        assert err == "error: k_eps = exp(2.11e+05) exceeds the cap 1e+08; use a larger eps\n"

    @pytest.mark.parametrize("flag,message", [
        ("--alpha=-inf", "alpha must be finite"),
        ("--alpha=2", "need alpha <= 1 and beta <= 1"),
        ("--beta=nan", "need alpha <= 1 and beta <= 1"),
        ("--eps=2", "eps must lie in (0, 1)"),
        ("--p=2", "p must lie in [0, 1]"),
        ("--c=inf", "c must be finite"),
        ("--alpha=-2000", "need alpha > -1022, or delta0 = 2^(2 - alpha) overflows"),
        ("--alpha=-1e300", "need alpha > -1022, or delta0 = 2^(2 - alpha) overflows"),
    ])
    def test_rejected_spec_is_usage_error(self, capsys, flag, message):
        code, out, err = run_cli(capsys, "adversarial", "--p", "0.5", "--eps", "0.5", flag,
                                 "--json")
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    def test_accepted_spec_whose_a_k_leaves_the_float_range_is_domain_error(self, capsys):
        # the spec passes AdversarialSpec, but the driver's a_k monitor
        # overflows while the replay itself is fine
        code, out, err = run_cli(capsys, "adversarial", "--p", "0.5", "--eps", "0.5",
                                 "--alpha=-600", "--verify")
        assert (code, out, err) == (
            1, "", "error: adversarial: a_k out of the float range at k=15\n")

    def test_k_eps_past_the_float_range_is_domain_error(self, capsys):
        # eps^-2 overflows; this used to end in a traceback
        code, out, err = run_cli(capsys, "adversarial", "--p=1", "--eps=1e-300")
        assert (code, out) == (1, "")
        assert err == "error: k_eps = exp(inf) exceeds the cap 1e+08; use a larger eps\n"

    def test_cap_flag_is_usage_error(self, capsys):
        # the k_eps cap is fixed at 1e8; there is no flag to set it
        with pytest.raises(SystemExit) as exit_info:
            main(["adversarial", "--p", "0.5", "--eps", "0.5", "--cap=5"])
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert err.startswith("usage: ")
        assert err.endswith("error: unrecognized arguments: --cap=5\n")


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

    # the whole table, byte for byte; the trailing spaces pad the value column
    TABLES = {
        "p1_alpha1_beta1": (
            ("--p", "1", "--mu", "0.5", "--eps", "0.1", "--alpha", "1", "--beta", "1"),
            "kappa (max{L,1}/2)           0.5                     \n"
            "a_min                        0.0625                  \n"
            "kappa1                       320                     \n"
            "kappa2                       960                     \n"
            "kappa3                       30.06371968             \n"
            "tau                          3                       \n"
            "xi_beta                      1.87898248              \n"
            "bound successful             (not representable)      ln = 64000\n"
            "bound total (iter counter)   (not representable)      ln = 192060.1274\n"
            "  eps^-2 contribution        96000                   \n"
            "  eps^(alpha-1) contribution 30.06371968             \n"
            "ref bounded-case (scaled)    256005                  \n"
            "ref bounded-case (classic)   256009.3219             \n"
        ),
        "p_half_k0_3": (
            ("--p", "0.5", "--mu", "1", "--eps", "0.1", "--k0", "3"),
            "kappa (max{L,1}/2)           0.5                     \n"
            "a_min                        0.0625                  \n"
            "kappa1                       320                     \n"
            "kappa2                       960                     \n"
            "kappa3                       77.55715363             \n"
            "tau                          3                       \n"
            "xi_beta                      4.847322102             \n"
            "bound successful             2304096000               ln = 21.55795425\n"
            "bound unsuccessful           2304096023               ln = 21.55795426\n"
            "bound total (succ+unsucc)    4608192023               ln = 22.25110143\n"
            "bound total (iter counter)   9365898351               ln = 22.96034109\n"
            "  eps^-2 contribution        96000                   \n"
            "  eps^(alpha-1) contribution 775.5715363             \n"
            "ref bounded-case (scaled)    384005                  \n"
            "ref bounded-case (classic)   384009.9069             \n"
        ),
    }

    @pytest.mark.parametrize("argv,table", TABLES.values(), ids=list(TABLES))
    def test_table_pinned(self, capsys, argv, table):
        assert run_cli(capsys, "bounds", *argv) == (0, table, "")

    @pytest.mark.parametrize("flag,code,message", [
        ("--beta=nan", 2, "usage error: need alpha <= 1 and beta <= 1"),
        ("--alpha=nan", 2, "usage error: need alpha <= 1 and beta <= 1"),
        ("--beta=-1e6", 1, "error: float division by zero"),
        ("--mu=nan", 1, "error: mu must be nonnegative"),
        ("--mu=-1", 1, "error: mu must be nonnegative"),
        ("--k0=-5", 1, "error: k0 must be nonnegative"),
        ("--eps=inf", 1, "error: eps must be finite"),
        ("--f0=inf", 1, "error: f0 must be finite"),
        ("--flow=-inf", 1, "error: f_low must be finite"),
        ("--mu=inf", 1, "error: mu must be finite"),
        ("--s-eps=nan", 1, "error: s_eps must be finite and nonnegative"),
        ("--s-eps=inf", 1, "error: s_eps must be finite and nonnegative"),
        ("--alpha=-inf", 2, "usage error: alpha must be finite"),
        ("--f0=1e308", 1, "error: kappa1 is out of the float range"),
        ("--eps=1e-300", 1, "error: a bound is out of the float range"),
    ])
    def test_bad_value_is_one_line_and_exit_code(self, capsys, flag, code, message):
        # a later --mu overrides the first one
        got, out, err = run_cli(capsys, "bounds", "--p", "0.5", "--mu", "1", "--eps", "0.1", flag)
        assert got == code
        assert out == ""
        assert err == message + "\n"

    def test_overflowing_bound_is_one_line(self, capsys):
        # the table used to print inf here and exit 0
        got, out, err = run_cli(capsys, "bounds", "--p=0.5", "--mu=1e300", "--eps=0.1",
                                "--f0=1e300")
        assert (got, out, err) == (1, "", "error: bound successful is out of the float range\n")

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

    @pytest.mark.parametrize("flag,name", [("--max-iter", "max_iter"),
                                           ("--eval-budget", "eval_budget")])
    def test_negative_budget_is_usage_error(self, capsys, tmp_path, flag, name):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(
            capsys, "bench", flag, "-1", "--problems", "sphere", "--out", str(out_dir)
        )
        assert (code, out, err) == (2, "", f"usage error: {BUDGET_RULES[name]}\n")
        assert not out_dir.exists()

    # each pair is outside the family: TrParams rejects it before any cell runs
    @pytest.mark.parametrize("variant,message", [
        ("2,0", "need alpha <= 1 and beta <= 1"),
        ("nan,0", "need alpha <= 1 and beta <= 1"),
        ("0,inf", "need alpha <= 1 and beta <= 1"),
        ("-inf,0", "alpha must be finite"),
    ])
    def test_out_of_family_variant_is_usage_error(self, capsys, tmp_path, variant, message):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(capsys, "bench", f"--variants={variant}", "--problems",
                                 "sphere", "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        assert not out_dir.exists()

    def test_unknown_problem_is_domain_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bench", "--variants", "0,0", "--problems", "nosuch",
                                 "--out", str(tmp_path / "bench"))
        assert (code, out, err) == (1, "", "error: unknown problem name: 'nosuch'\n")

    # solve and build_model reject these in every cell: usage errors, as in solve
    @pytest.mark.parametrize("flags,message", [
        (("--eps=0",), "eps must be positive"),
        (("--eps=inf",), "eps must be finite"),
        (("--hessian", "lbfgs", "--mem=0"), "memory must be positive"),
        (("--mem=0",), "memory must be positive"),
        (("--hessian", "zero", "--mem=-5"), "memory must be positive"),
    ])
    def test_rejected_run_setting_is_usage_error(self, capsys, tmp_path, flags, message):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(capsys, "bench", *flags, "--problems", "sphere",
                                 "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        assert not out_dir.exists()

    # two variants or problems that name one cell, found before any cell runs
    @pytest.mark.parametrize("flags,cell", [
        (("--variants=0,0;0,0",), "sphere, 0_0"),
        (("--variants=1,0;1.0,0",), "sphere, 1_0"),
        (("--variants=0,1", "--problems=beale,sphere,beale"), "beale, 0_1"),
    ])
    def test_repeated_cell_is_usage_error(self, capsys, tmp_path, flags, cell):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(capsys, "bench", "--problems=sphere", *flags,
                                 "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"usage error: a second cell for {cell}\n")
        assert not out_dir.exists()

    def test_overflowing_variant_fails_in_one_line(self, capsys, tmp_path):
        # beta = -1e300 overflows in every cell; numpy warned of each overflow
        code, out, err = run_cli(capsys, "bench", "--problems", "sphere,beale", "--max-iter=30",
                                 "--variants=0,-1e300", "--out", str(tmp_path / "bench"))
        assert (code, out, err) == (1, "", "error: no variant solved any problem\n")

    # each matrix.csv holds a cell no bench run writes; rows are problem,
    # variant, status, cost_f, cost_g, time_ms
    @pytest.mark.parametrize("metric,rows,message", [
        ("fevals", ["p,0_0,first_order,0,3,1.5", "p,1_1,first_order,4,3,1.5"], "line 2: a first"),
        ("gevals", ["p,0_0,first_order,4,3,1.5", "p,1_1,first_order,4,-2,1.5"], "line 3: a first"),
        ("time", ["p,0_0,first_order,4,3,nan", "p,1_1,first_order,4,3,1.5",
                  "q,0_0,first_order,4,3,1.5", "q,1_1,first_order,4,3,1.5"], "line 2: a first"),
        ("time", ["p,0_0,first_order,4,3,inf", "p,1_1,max_iter,0,0,0"], "line 2: a first"),
        ("time", ["p,0_0,first_order,4,3,1e300", "p,1_1,first_order,4,3,1e-300"],
         "a time ratio on p is out of the float range"),
        ("fevals", ["p,0_0,first_order,4,3,1.5", "q,1_1,first_order,4,3,1.5"],
         "no cell for problem p, variant 1_1"),
        ("fevals", ["p,0_0,first_order,4,3,1.5", "p,0_0,max_iter,1,1,1.5"],
         "line 3: a second cell for p, 0_0"),
        ("fevals", ["p,0_0,first_order,4,3,1.5", "p,1_1,first_order,4"],
         "matrix.csv, line 3: 5 fields, not 7"),
        ("fevals", ["p,0_0,first_order,inf,3,1.5", "p,1_1,first_order,4,3,1.5"],
         "matrix.csv, line 2: cost_f 'inf' is not an integer"),
        ("time", ["p,0_0,first_order,4,3,1.5", "p,1_1,first_order,4,3,fast"],
         "matrix.csv, line 3: time_ms 'fast' is not a number"),
        ("fevals", ["booth,0_0,bogus,4,3,1.5", "booth,1_1,first_order,4,3,1.5"],
         "matrix.csv, line 2: status 'bogus' is not one a bench run writes"),
    ])
    def test_profile_rejects_an_impossible_matrix(self, capsys, tmp_path, metric, rows, message):
        lines = ["problem,variant,status,cost_f,cost_g,time_ms,iters"] + [f"{r},2" for r in rows]
        (tmp_path / "matrix.csv").write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "profile", "--in", str(tmp_path), "--metric", metric)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: ") and message in err, err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["matrix.csv"]

    def test_profile_leaves_its_input_alone(self, capsys, tmp_path):
        # unsorted, and a time emit would write as 1.5
        text = ("problem,variant,status,cost_f,cost_g,time_ms,iters\n"
                "p2,0_0,first_order,4,3,1.50,2\np1,0_0,first_order,5,4,2.25,3\n")
        (tmp_path / "matrix.csv").write_text(text)
        code, out, err = run_cli(capsys, "profile", "--in", str(tmp_path), "--metric", "time")
        assert (code, err) == (0, "")
        assert out.split() == [str(tmp_path / f"profile_time.{ext}") for ext in ("csv", "svg")]
        assert (tmp_path / "matrix.csv").read_bytes() == text.encode()
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "matrix.csv", "profile_time.csv", "profile_time.svg"]

    def test_missing_matrix_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "profile", "--in", str(tmp_path), "--metric", "fevals")
        assert code == 1
        assert err.startswith("error:")

    def test_bad_variant_string(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--variants", "0;1", "--out", str(tmp_path)
        )
        assert code == 1
