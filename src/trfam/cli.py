"""Command-line front end: solve, adversarial, bounds, bench, profile."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import adversarial as adv
from . import bench as bench_mod
from . import bounds as bounds_mod
from .driver import RADIUS_MODES, SolveError, TrParams, log_to_csv, solve, theoretical_a_min
from .hessians import MODEL_KINDS, build_model
from .problems import get_problem


class DomainError(RuntimeError):
    """Errors from the problem domain (exit code 1)."""


# The TrParams fields each of solve and bounds sets from a flag, in --help order.
_PARAM_FLAGS = (
    "alpha", "beta", "eta1", "eta2", "gamma1", "gamma2", "gamma3", "gamma4", "kappa_mdc",
    "delta0",
)


def _add_params_flags(p: argparse.ArgumentParser):
    for name in _PARAM_FLAGS:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=float, default=getattr(TrParams, name), dest=name)


def _add_run_flags(p: argparse.ArgumentParser):
    """--hessian, --mem, --eps and --max-iter, with ``RunSpec``'s defaults."""
    spec = bench_mod.RunSpec
    p.add_argument("--hessian", default=spec.hessian, choices=MODEL_KINDS)
    p.add_argument("--mem", type=int, default=spec.memory)
    p.add_argument("--eps", type=float, default=spec.eps)
    p.add_argument("--max-iter", type=int, default=spec.max_iter, dest="max_iter")


def _params_from(args, **overrides) -> TrParams:
    return TrParams(**{name: getattr(args, name) for name in _PARAM_FLAGS}, **overrides)


def _jsonify(obj):
    """Strict-JSON-safe structure: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(payload: dict) -> None:
    print(json.dumps(_jsonify(payload), sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    params = _params_from(
        args,
        radius_mode=args.radius_mode,
        update_on_unsuccessful=args.update_on_unsuccessful,
    )
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        raise DomainError(exc.args[0]) from exc
    model = build_model(args.hessian, problem, memory=args.mem)
    report = solve(
        problem,
        params,
        model,
        eps=args.eps,
        max_iter=args.max_iter,
        eval_budget=args.eval_budget,
    )
    if args.log_csv:
        try:
            with open(args.log_csv, "w") as fh:
                fh.write(log_to_csv(report))
        except OSError as exc:
            raise DomainError(str(exc)) from exc
    payload = {  # the text output, in order
        "problem": problem.name,
        "status": report.status,
        "iterations": report.iterations,
        "n_succ": report.n_succ_total,
        "n_unsucc": report.n_unsucc_total,
        "final_f": report.final_f,
        "final_gnorm": report.final_gnorm,
        "n_f": report.evals.n_f,
        "n_g": report.evals.n_g,
    }
    if args.json:
        _emit_json({
            **payload,
            "alpha": params.alpha,
            "beta": params.beta,
            "hessian": args.hessian,
            "a_min_theoretical": report.a_min_theoretical,
            "lipschitz_estimate": report.lipschitz_estimate,
        })
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_adversarial(args) -> int:
    spec = adv.AdversarialSpec(eps=args.eps, p=args.p, c=args.c, alpha=args.alpha, beta=args.beta)
    try:
        if args.verify:
            sharp, _ = adv.verify_sharpness(spec, emit_function=args.emit_function or None)
            payload = sharp.to_dict()
            if args.json:
                _emit_json(payload)
            else:
                print(f"k_eps: {sharp.k_eps}")
                print(f"iterations: {sharp.iterations}")
                print(f"all_very_successful: {sharp.all_very_successful}")
                print(f"max_rho_error: {sharp.max_rho_error:.3e}")
                print(f"final_grad_abs: {sharp.final_grad_abs:.17g}")
                print(f"passed: {sharp.passed}")
            if not sharp.passed:
                raise DomainError(f"sharpness verification failed: {sharp.mismatches[:3]}")
        else:
            inst = adv.generate(spec)
            if args.emit_function:
                adv.emit_function_csv(adv.Interpolant1D(inst), args.emit_function)
            payload = {
                "k_eps": inst.k_eps,
                "f0": float(inst.f_vals[0]),
                "delta0": inst.delta0,
                "kappa_f": inst.kappa_f,
                "span": float(inst.knots_x[-1]),
            }
            if args.json:
                _emit_json(payload)
            else:
                for k, v in payload.items():
                    print(f"{k}: {v}")
    except (ValueError, OSError) as exc:  # OSError: --emit-function cannot be written
        raise DomainError(str(exc)) from exc
    return 0


def _cmd_bounds(args) -> int:
    params = _params_from(args)
    try:
        a_min = theoretical_a_min(args.a0, params, args.L)
        inputs = bounds_mod.BoundInputs(params, f0=args.f0, f_low=args.flow, a_min=a_min,
                                        mu=args.mu, p=args.p, eps=args.eps, k0=args.k0, L=args.L)
        k1 = bounds_mod.kappa1(inputs)
        # the total bound goes first, so an xi_beta error (a huge |beta|) is
        # the one reported when the other bounds overflow too
        tb = bounds_mod.bound_total_k(inputs)
        sb = bounds_mod.bound_successful(inputs)
        s_for_u = args.s_eps if args.s_eps is not None else sb.representable
        ub = bounds_mod.bound_unsuccessful(inputs, s_for_u) if s_for_u is not None else None
        refs = bounds_mod.classical_reference_rows(inputs)
    except OverflowError as exc:  # float ** says only "(34, 'Numerical result out of range')"
        raise DomainError("a bound is out of the float range") from exc
    except (ValueError, ArithmeticError) as exc:  # e.g. a huge |beta| divides by zero
        raise DomainError(str(exc)) from exc

    rows = []

    def row(name, value, logv=None):
        rows.append((name, value, logv))

    row("kappa (max{L,1}/2)", max(args.L, 1.0) / 2.0)
    row("a_min", a_min)
    row("kappa1", k1)
    row("kappa2", tb.kappa2)
    row("kappa3", tb.kappa3)
    row("tau", tb.tau)
    row("xi_beta", tb.xi)
    row("bound successful", sb.representable, sb.log_value)
    if ub is not None:
        row("bound unsuccessful", ub, math.log(ub) if ub > 0 else -math.inf)
        if sb.representable is not None:
            total = sb.representable + ub
            row("bound total (succ+unsucc)", total, math.log(total) if total > 0 else -math.inf)
    row("bound total (iter counter)", tb.bound.representable, tb.bound.log_value)
    row("  eps^-2 contribution", tb.eps2_contribution)
    row("  eps^(alpha-1) contribution", tb.eps_alpha_contribution)
    row("ref bounded-case (scaled)", refs["scaled_radius_p0"])
    row("ref bounded-case (classic)", refs["classical_p0"])
    for name, value, logv in rows:
        # None is an absent entry and ln = -inf a bound <= 0; any other
        # non-finite entry overflowed
        if not math.isfinite(value or 0.0) or not (logv or 0.0) < math.inf:
            raise DomainError(f"{name.strip()} is out of the float range")
    for name, value, logv in rows:
        shown = "(not representable)" if value is None else f"{value:.10g}"
        print(f"{name:<28} {shown:<24}" + ("" if logv is None else f" ln = {logv:.10g}"))
    return 0


def _parse_variants(text: str) -> list[tuple[float, float]]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise DomainError(f"bad variant {chunk!r}: expected 'alpha,beta'")
        out.append((float(parts[0]), float(parts[1])))
    if not out:
        raise DomainError("no variants given")
    return out


def _cmd_bench(args) -> int:
    variants = _parse_variants(args.variants)
    problems = args.problems.split(",") if args.problems else None
    specs = bench_mod.default_matrix_specs(
        variants=variants,
        hessian=args.hessian,
        memory=args.mem,
        eps=args.eps,
        max_iter=args.max_iter,
        eval_budget=args.eval_budget,
        problems=problems,
    )
    try:
        matrix = bench_mod.run_matrix(specs)
    except KeyError as exc:  # an unknown problem
        raise DomainError(exc.args[0]) from exc
    try:
        profiles = {m: bench_mod.performance_profile(matrix, m) for m in bench_mod.METRICS}
        written = bench_mod.emit(matrix, profiles, args.out)
    except (ValueError, OSError) as exc:
        raise DomainError(str(exc)) from exc
    for path in written:
        print(path)
    return 0


def _cmd_profile(args) -> int:
    try:
        matrix = bench_mod.read_matrix_csv(os.path.join(args.in_dir, "matrix.csv"))
        curves = bench_mod.performance_profile(matrix, args.metric)
        out = bench_mod.emit(None, {args.metric: curves}, args.in_dir)
    except (FileNotFoundError, ValueError, OSError) as exc:
        raise DomainError(str(exc)) from exc
    for path in out:
        print(path)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trfam",
        description="Trust-region family: solver, worst-case instances, "
        "complexity bounds, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver on a built-in problem")
    p_solve.add_argument("--problem", required=True)
    _add_run_flags(p_solve)
    p_solve.add_argument("--eval-budget", type=int, default=None, dest="eval_budget")
    p_solve.add_argument("--radius-mode", default=TrParams.radius_mode, choices=RADIUS_MODES)
    p_solve.add_argument("--update-on-unsuccessful", action="store_true")
    p_solve.add_argument("--log-csv", default=None, dest="log_csv")
    p_solve.add_argument("--json", action="store_true")
    _add_params_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_adv = sub.add_parser("adversarial", help="worst-case instance generator/verifier")
    p_adv.add_argument("--p", type=float, required=True)
    p_adv.add_argument("--c", type=float, default=adv.AdversarialSpec.c)
    p_adv.add_argument("--eps", type=float, required=True)
    p_adv.add_argument("--alpha", type=float, default=adv.AdversarialSpec.alpha)
    p_adv.add_argument("--beta", type=float, default=adv.AdversarialSpec.beta)
    p_adv.add_argument("--verify", action="store_true")
    p_adv.add_argument("--emit-function", default=None, dest="emit_function")
    p_adv.add_argument("--json", action="store_true")
    p_adv.set_defaults(func=_cmd_adversarial)

    p_bounds = sub.add_parser("bounds", help="print the complexity-bound table")
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--mu", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--k0", type=int, default=0)
    p_bounds.add_argument("--f0", type=float, default=1.0)
    p_bounds.add_argument("--flow", type=float, default=0.0)
    p_bounds.add_argument("--L", type=float, default=1.0)
    p_bounds.add_argument("--a0", type=float, default=1.0)
    p_bounds.add_argument("--s-eps", type=float, default=None, dest="s_eps")
    _add_params_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench", help="run the variant matrix and emit profiles")
    variants = ";".join(f"{a:g},{b:g}" for a, b in bench_mod.DEFAULT_VARIANTS)
    p_bench.add_argument("--variants", default=variants)
    _add_run_flags(p_bench)
    budget = bench_mod.RunSpec.eval_budget
    p_bench.add_argument("--eval-budget", type=int, default=budget, dest="eval_budget")
    p_bench.add_argument("--problems", default=None)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser("profile", help="recompute a profile from matrix.csv")
    p_prof.add_argument("--in", required=True, dest="in_dir")
    p_prof.add_argument("--metric", required=True, choices=list(bench_mod.METRICS))
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the driver rejects what overflows; numpy need not warn of it too
        with np.errstate(all="ignore"):
            return args.func(args)
    except (DomainError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # constraint violations among flags are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
