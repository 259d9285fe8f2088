"""Layer microbenchmarks for the limited-memory models (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/bench_hessians.py

Not part of the tier-1 suite: timings on a small shared host are noisy.
Each model holds a full window of memory 5; pairs come from a fixed
diagonal quadratic plus a small curved term, so L-SR1 accepts them too.
L-BFGS's factor W is 2 * memory = 10 wide, so at n = 10 its spectral
factors need no QR; at n = 64 and n = 100 they take one. L-SR1's factor is
memory = 5 wide, so it takes the QR at every n here.
"""

import itertools

import numpy as np
import pytest

from trfam.hessians import build_model

MEMORY = 5


def pair_stream(n, seed=0):
    """Endless (s, y) pairs from a seeded curved map."""
    rng = np.random.default_rng(seed)
    A = np.diag(np.geomspace(0.1, 10.0, n))
    u = rng.standard_normal(n)
    pairs = []
    for _ in range(64):
        s = rng.standard_normal(n)
        pairs.append((s, A @ s + 0.1 * (s @ s) * u))
    return itertools.cycle(pairs)


def full_model(mode, n):
    m = build_model(mode, dim=n, memory=MEMORY)
    stream = pair_stream(n)
    while len(m.pairs) < MEMORY:
        m.update(*next(stream))
    return m, stream


cases = pytest.mark.parametrize(
    "mode,n", [(mode, n) for mode in ("lbfgs", "lsr1") for n in (10, 64, 100)])


@cases
def test_apply(benchmark, mode, n):
    m, _ = full_model(mode, n)
    v = np.random.default_rng(1).standard_normal(n)
    m.apply(v)  # factors built outside the timing, as after the first product
    benchmark(m.apply, v)


@cases
def test_operator_norm_after_new_pair(benchmark, mode, n):
    """The per-accepted-pair cost: factor the compact form, then the norm."""
    m, stream = full_model(mode, n)

    def push():
        while not m.update(*next(stream)):
            pass

    benchmark.pedantic(m.operator_norm, setup=push, rounds=200)


@cases
def test_update(benchmark, mode, n):
    m, stream = full_model(mode, n)
    benchmark(lambda: m.update(*next(stream)))
