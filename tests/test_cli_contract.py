"""The README's CLI contract, fuzzed: argv for solve, adversarial, bounds
and bench, each flag passed as ``--flag=value``, with a typical value or,
for up to three flags of a run, one of the EDGE values. Every run ends in
one of

- exit 0 with empty stderr and no nan, inf or null on stdout, with the
  README's three exceptions: ``solve --json`` prints a null
  ``a_min_theoretical`` and ``lipschitz_estimate`` when no step succeeded,
  ``solve`` prints ``final_f`` and ``final_gnorm`` as nan (null) when the
  eval budget stopped the run before its first evaluation, and a bounds
  row whose bound is <= 0 prints ``ln = -inf``;
- exit 1 with one ``error:`` line on stderr;
- exit 2 with one ``usage error:`` line or argparse's usage message.

Runs are in process, with --max-iter <= 50, --cap <= 2000 and at most two
bench problems. A warning counts as a line of stderr, as it would be one
outside pytest. Flags that only name files (--log-csv, --emit-function) and
the profile subcommand are left out.
"""

import json
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trfam.cli import _PARAM_FLAGS
from trfam.driver import RADIUS_MODES, TrParams
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


def check_contract(capsys, argv: list[str], out_text=lambda out: out) -> None:
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


def solve_text(out: str) -> str:
    """stdout less the fields a run leaves undefined, where it prints them
    non-finite: a_min_theoretical and lipschitz_estimate (JSON only) when no
    step succeeded, final_f and final_gnorm when the eval budget stopped the
    run before its first evaluation."""
    if out.startswith("{"):
        payload = json.loads(out)
    else:
        payload = dict(line.split(": ", 1) for line in out.splitlines())
    undefined = []
    if str(payload["n_succ"]) == "0":
        undefined += ["a_min_theoretical", "lipschitz_estimate"]
    if str(payload["n_f"]) == "0":
        undefined += ["final_f", "final_gnorm"]
    for key in undefined:
        if payload.get(key) in (None, "nan"):
            payload.pop(key, None)
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
)
def test_solve(capsys, problem, hessian, mode, drawn, update, as_json):
    argv = ["solve", f"--problem={problem}", f"--hessian={hessian}", f"--radius-mode={mode}"]
    check_contract(capsys, argv + drawn + update + as_json, solve_text)


@fuzz
@given(
    p=st.sampled_from(["0", "0.5", "1"]),
    drawn=flags({"eps": "0.5", "c": None, "alpha": None, "beta": None, "cap": "2000"}),
    verify=switch("--verify"),
    as_json=switch("--json"),
)
def test_adversarial(capsys, p, drawn, verify, as_json):
    check_contract(capsys, ["adversarial", f"--p={p}"] + drawn + verify + as_json)


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
