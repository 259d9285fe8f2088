"""Spans around trfam's public entry points, recorded from the outside.

Nothing under ``src/`` is edited: problems get traced callables through
``dataclasses.replace``, model instances get traced instance attributes that
shadow their class methods (so the ``apply`` calls nested inside
``operator_norm``, ``update`` and the step solvers are caught too), and the
names that ``trfam.driver`` and ``trfam.adversarial`` bound at import are
swapped for the duration of a traced pass and restored afterwards.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import trfam.adversarial
import trfam.driver
from trfam.adversarial import Interpolant1D


class Tracer:
    """Collects (name, start_ns, end_ns, parent_index, op_id) spans.

    Spans stay in memory until the caller takes them; the parent is the
    index of the innermost open span, or -1 at top level.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def take(self) -> tuple[list, Counter]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- instrumenting trfam objects ----------------------------------------

    def problem(self, problem):
        hess = problem.eval_hess
        return dataclasses.replace(
            problem,
            eval_f=self.wrap("problems.f", problem.eval_f),
            eval_grad=self.wrap("problems.g", problem.eval_grad),
            eval_hess=None if hess is None else self.wrap("problems.hess", hess),
        )

    def model(self, model):
        counts = self.counts

        def on_update(accepted):
            counts["update_accepted"] += bool(accepted)

        model.apply = self.wrap("hessians.apply", model.apply)
        model.operator_norm = self.wrap("hessians.operator_norm", model.operator_norm)
        model.update = self.wrap("hessians.update", model.update, on_update)
        return model

    @contextmanager
    def patched(self):
        """Trace the module-level entry points the program calls by name."""
        counts = self.counts

        def on_step(step):
            counts["cg_iters"] += step.cg_iters
            counts["boundary_hits"] += bool(step.boundary_hit)

        wrap = self.wrap
        as_problem = wrap("adversarial.as_problem", Interpolant1D.as_problem)
        scripted = trfam.adversarial.ScriptedModel
        drv, adv = trfam.driver, trfam.adversarial
        patches = [
            (drv, "solve_tcg", wrap("subproblem.solve_tcg", drv.solve_tcg, on_step)),
            (drv, "newton_step_1d",
             wrap("subproblem.newton_step_1d", drv.newton_step_1d, on_step)),
            (adv, "generate", wrap("adversarial.generate", adv.generate)),
            (adv, "build_interpolant",
             wrap("adversarial.build_interpolant", adv.build_interpolant)),
            (adv, "solve", wrap("driver.solve", adv.solve)),
            (adv, "ScriptedModel", lambda *a, **k: self.model(scripted(*a, **k))),
            (Interpolant1D, "lower_bound",
             wrap("adversarial.lower_bound", Interpolant1D.lower_bound)),
            (Interpolant1D, "as_problem",
             lambda interp, *a, **k: self.problem(as_problem(interp, *a, **k))),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = [t1 - t0 for _, t0, t1, _, _ in spans]
    for parent, intervals in children.items():
        _, p0, p1, _, _ = spans[parent]
        covered = 0
        end = p0
        for c0, c1 in sorted(intervals):
            c0, c1 = max(c0, end), min(c1, p1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[parent] -= covered
    return out


def layer_metrics(spans, counts, iterations: int, accepted: int) -> dict[str, float]:
    """Per-layer counts and self times (s) of one traced pass."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    apply_under: Counter = Counter()
    for (name, _, _, parent, _), st in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += st * 1e-9
        if name == "hessians.apply" and parent >= 0:
            apply_under[spans[parent][0]] += 1

    def total(counter, *names):
        return sum(counter[n] for n in names)

    step_names = ("subproblem.solve_tcg", "subproblem.newton_step_1d")
    steps = total(calls, *step_names)
    driver_self = self_s["driver.solve"]
    return {
        "problems.f_calls": calls["problems.f"],
        "problems.g_calls": calls["problems.g"],
        "problems.hess_calls": calls["problems.hess"],
        "problems.eval_self_s": total(self_s, "problems.f", "problems.g", "problems.hess"),
        "hessians.apply_calls": calls["hessians.apply"],
        "hessians.apply_self_s": self_s["hessians.apply"],
        "hessians.norm_calls": calls["hessians.operator_norm"],
        "hessians.norm_apply_calls": apply_under["hessians.operator_norm"],
        "hessians.norm_self_s": self_s["hessians.operator_norm"],
        "hessians.update_calls": calls["hessians.update"],
        "hessians.update_accept_frac": _ratio(counts["update_accepted"], calls["hessians.update"]),
        "hessians.update_self_s": self_s["hessians.update"],
        "subproblem.step_calls": steps,
        "subproblem.step_self_s": total(self_s, *step_names),
        "subproblem.cg_iters": counts["cg_iters"],
        "subproblem.apply_per_step": _ratio(total(apply_under, *step_names), steps),
        "subproblem.boundary_frac": _ratio(counts["boundary_hits"], steps),
        "driver.self_s": driver_self,
        "driver.self_us_per_iter": _ratio(driver_self * 1e6, iterations),
        "driver.accept_frac": _ratio(accepted, iterations),
        "adversarial.generate_s": self_s["adversarial.generate"],
        "adversarial.interpolant_s": total(
            self_s, "adversarial.build_interpolant", "adversarial.as_problem"),
        "adversarial.lower_bound_s": self_s["adversarial.lower_bound"],
        "adversarial.check_s": self_s["adversarial.verify_sharpness"],
        "bounds.audit_s": self_s["bounds.audit_run"],
        "bench.profile_s": self_s["bench.performance_profile"],
        "bench.emit_s": self_s["bench.emit"],
    }


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,op\n")
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{t0},{t1},{parent},{op}\n")
