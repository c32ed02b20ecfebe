import json
import math
import subprocess
import sys

import numpy as np
import pytest

import inghamsum as ig


@pytest.fixture(scope="session")
def table_small():
    return ig.build_sieve(10_000)


@pytest.fixture(scope="session")
def table_medium():
    return ig.build_sieve(100_000)


@pytest.fixture(scope="session")
def table_big():
    return ig.build_sieve(1_000_000)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


# -- independent oracles (trial division, brute enumeration) ------------


def trial_primes(n: int) -> list[int]:
    out = []
    for m in range(2, n + 1):
        if all(m % p for p in out if p * p <= m):
            out.append(m)
    return out


def trial_factorize(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def trial_mobius(m: int) -> int:
    if m == 1:
        return 1
    sign = 1
    for _, e in trial_factorize(m):
        if e > 1:
            return 0
        sign = -sign
    return sign


def trial_mangoldt(m: int) -> float:
    if m == 1:
        return 0.0
    fac = trial_factorize(m)
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def trial_divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def trial_totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def floor_matrix(n: int) -> np.ndarray:
    """M[i, j] = floor((i+1)/(j+1)); the naive quadratic evaluation of
    A and S is a matrix product against this."""
    i = np.arange(1, n + 1)
    return i[:, None] // i[None, :]


def random_unit_complex(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.maximum(np.abs(z), 1.0)


# -- peak memory of CLI commands ----------------------------------------

# Runs in a small launcher process so that the children's peak RSS does
# not include the RSS of the test process they would be forked from. A
# child that fails stops the launcher with its argv, status and stderr.
_LAUNCHER = """
import json, os, subprocess, sys
out = []
for argv in json.loads(sys.argv[2]):
    proc = subprocess.Popen(
        [sys.executable, "-m", "inghamsum.cli", *argv, "--out", os.devnull],
        env={**os.environ, "PYTHONPATH": sys.argv[1]},
        stderr=subprocess.PIPE,
    )
    err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    if status:
        sys.exit(f"{argv} exited with status {os.waitstatus_to_exitcode(status)}; stderr:\\n{err}")
    out.append(usage.ru_maxrss * 1024)
print(json.dumps(out))
"""


def cli_peak_rss(src, argvs) -> list[int]:
    """Peak RSS in bytes of each CLI command (an argv without --out), each
    run as a fresh process with the package imported from src; an
    AssertionError names a command that fails."""
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(src), json.dumps(argvs)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)
