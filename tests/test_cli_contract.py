"""The README's CLI contract, fuzzed: argv for solve, adversarial, bounds
and bench, each flag passed as ``--flag=value``, with a typical value or,
for up to three flags of a run, one of the EDGE values, and profile over a
matrix.csv whose costs and times are typical or EDGE values. Every run ends
in one of

- exit 0 with empty stderr and no nan, inf or null on stdout, with the
  README's two exceptions: ``solve --json`` prints a null
  ``a_min_theoretical`` and ``lipschitz_estimate`` when no step succeeded,
  and a bounds row whose bound is <= 0 prints ``ln = -inf``;
- exit 1 with one ``error:`` line on stderr;
- exit 2 with one ``usage error:`` line or argparse's usage message.

Runs are in process, with --max-iter <= 50, adversarial k_eps <= 54 and at
most two bench problems. A warning counts as a line of stderr, as it would be one
outside pytest. A passing ``solve --log-csv`` writes one row per iteration.
A passing ``adversarial --emit-function`` writes the header and 2001
finite rows. A profile run leaves its matrix.csv as it was, and a passing
one writes no non-finite number to its profile CSV.
"""

import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trfam.bench import _MATRIX_HEADER, METRICS
from trfam.cli import _PARAM_FLAGS
from trfam.driver import RADIUS_MODES
from trfam.hessians import MODEL_KINDS

from test_cli import run_cli

EDGE = ("0", "-1", "inf", "-inf", "nan", "1e-300", "1e300", "-1e300")
NON_FINITE = re.compile("nan|inf|null", re.IGNORECASE)
PROBLEMS = ("sphere", "rosenbrock", "beale", "wood", "cliff", "ext_rosenbrock", "nosuch")

# capsys is read and emptied by every run, so one fixture serves all examples
fuzz = settings(derandomize=True, deadline=None, max_examples=100, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def flags(typical: dict[str, str | None], edits: int = 3):
    """``--name=value`` for each name, with up to ``edits`` of the values
    replaced by edge values; a None value leaves its flag out."""

    def apply(changes):
        values = {**typical, **dict(changes)}
        return [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if v is not None]

    change = st.tuples(st.sampled_from(list(typical)), st.sampled_from(EDGE))
    return st.lists(change, max_size=edits).map(apply)


def value(typical: str):
    return st.sampled_from((typical,) + EDGE)


def switch(flag: str):
    return st.sampled_from([[], [flag]])


RUN_FLAGS = {"mem": None, "eps": "1e-6", "max_iter": "50", "eval_budget": None}
CONSTANTS = dict.fromkeys(_PARAM_FLAGS)  # each TrParams default


def check_contract(capsys, argv: list[str], out_text=lambda out: out) -> tuple[int, str]:
    """Assert the contract for one run; its exit code and stdout."""
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exc:  # argparse
        code, (out, err) = exc.code, capsys.readouterr()
    lines = err.splitlines()
    if code == 0:
        assert err == "", argv
        found = NON_FINITE.findall(out_text(out))
        assert not found, (argv, out)
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert code == 2, (argv, code, err)
        usage = lines[0].startswith("usage: trfam") and ": error: " in lines[-1]
        assert usage or (len(lines) == 1 and lines[0].startswith("usage error: ")), (argv, err)
    return code, out


def solve_payload(out: str) -> dict:
    if out.startswith("{"):
        return json.loads(out)
    return dict(line.split(": ", 1) for line in out.splitlines())


def solve_text(out: str) -> str:
    """stdout less a_min_theoretical and lipschitz_estimate (JSON only),
    which a run leaves undefined (null) when no step succeeded."""
    payload = solve_payload(out)
    if str(payload["n_succ"]) == "0":
        for key in ("a_min_theoretical", "lipschitz_estimate"):
            if payload.get(key, 0) is None:
                del payload[key]
    return json.dumps(payload)


def bounds_text(out: str) -> str:
    """stdout less ``ln = -inf`` on rows whose bound is <= 0."""
    kept = []
    for line in out.splitlines():
        head, sep, _ = line.partition(" ln = -inf")
        if sep:
            assert float(head.split()[-1]) <= 0, line
            line = head
        kept.append(line)
    return "\n".join(kept)


@fuzz
@given(
    problem=st.sampled_from(PROBLEMS),
    hessian=st.sampled_from(MODEL_KINDS),
    mode=st.sampled_from(RADIUS_MODES),
    drawn=flags({**RUN_FLAGS, **CONSTANTS}),
    update=switch("--update-on-unsuccessful"),
    as_json=switch("--json"),
    log_csv=st.booleans(),
)
def test_solve(capsys, problem, hessian, mode, drawn, update, as_json, log_csv):
    argv = ["solve", f"--problem={problem}", f"--hessian={hessian}", f"--radius-mode={mode}"]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp, "log.csv")
        code, out = check_contract(capsys, argv + drawn + update + as_json
                                   + [f"--log-csv={log}"] * log_csv, solve_text)
        if code == 0 and log_csv:
            rows = log.read_text().splitlines()[1:]
            assert len(rows) == int(solve_payload(out)["iterations"]), argv


@fuzz
@given(
    p=st.sampled_from(["0", "0.5", "1"]),
    drawn=flags({"eps": "0.5", "c": None, "alpha": None, "beta": None}),
    verify=switch("--verify"),
    as_json=switch("--json"),
    emit=st.booleans(),
)
def test_adversarial(capsys, p, drawn, verify, as_json, emit):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "function.csv")
        code, _ = check_contract(capsys, ["adversarial", f"--p={p}"] + drawn + verify + as_json
                                 + [f"--emit-function={path}"] * emit)
        if code == 0 and emit:
            header, *rows = path.read_text().splitlines()
            assert header == "x,f,fprime" and len(rows) == 2001, drawn
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), drawn


@fuzz
@given(
    drawn=flags({"p": "0.5", "mu": "1", "eps": "0.1", "k0": None, "f0": None, "flow": None,
                 "L": None, "a0": None, "s_eps": None, **CONSTANTS}),
)
def test_bounds(capsys, drawn):
    check_contract(capsys, ["bounds"] + drawn, bounds_text)


@settings(fuzz, max_examples=30)
@given(
    problems=st.lists(st.sampled_from(PROBLEMS), min_size=1, max_size=2, unique=True),
    variants=st.lists(st.tuples(value("0"), value("1")), min_size=1, max_size=2),
    hessian=st.sampled_from(MODEL_KINDS),
    drawn=flags(RUN_FLAGS, edits=1),
)
def test_bench(capsys, problems, variants, hessian, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = f"{tmp}/bench"
        argv = ["bench", f"--problems={','.join(problems)}", f"--hessian={hessian}",
                f"--variants={';'.join(f'{a},{b}' for a, b in variants)}", f"--out={out_dir}"]
        check_contract(capsys, argv + drawn, lambda out: out.replace(out_dir, ""))


@settings(fuzz, max_examples=60)
@given(
    solved=st.lists(st.booleans(), min_size=1, max_size=4),
    edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from(EDGE)),
                   max_size=2),
    metric=st.sampled_from(METRICS),
)
def test_profile(capsys, solved, edits, metric):
    # row i is problem p<i // 2>, variant <i % 2>_0, with distinct costs
    cells = [[str(i + 1), str(i + 2), f"{i + 1.5}"] for i in range(len(solved))]
    for row, column, edge in edits:
        if row < len(cells):
            cells[row][column] = edge
    lines = [_MATRIX_HEADER] + [
        f"p{i // 2},{i % 2}_0,{'first_order' if ok else 'max_iter'},{','.join(costs)},3"
        for i, (ok, costs) in enumerate(zip(solved, cells))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp, "matrix.csv")
        matrix.write_text("\n".join(lines) + "\n")
        before = matrix.read_bytes()
        code, _ = check_contract(capsys, ["profile", f"--in={tmp}", f"--metric={metric}"],
                                 lambda out: out.replace(tmp, ""))
        assert matrix.read_bytes() == before
        if code == 0:
            assert not NON_FINITE.findall(Path(tmp, f"profile_{metric}.csv").read_text())
