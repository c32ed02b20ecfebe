"""The stored references hold correct values, not just the seed's output.

The spec-driven theorem1 rows are rebuilt from one-point grids; the
Mobius and sieve rows are checked against computations that share no
code with inghamsum.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import check
import run


def _rows(command_id):
    sample = check.load_reference(command_id)["sample"]
    rows = {}
    for path, value in sample.items():
        parts = path.split("/")
        if parts[1] == "rows":
            rows.setdefault(int(parts[2]), {})["/".join(parts[3:])] = value
    return rows


def _psi_table(n):
    """Chebyshev psi(m) for m <= n by a plain Eratosthenes sieve."""
    composite = np.zeros(n + 1, dtype=bool)
    lam = np.zeros(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        pk = p
        while pk <= n:
            lam[pk] = math.log(p)
            pk *= p
    return lam, np.cumsum(lam)


@pytest.mark.parametrize("index,n", list(enumerate([10**4, 10**5, 10**6, 10**7])))
def test_theorem1_rows_match_one_point_grids(tmp_path, index, n):
    out = tmp_path / "one.json"
    subprocess.run(
        [sys.executable, "-m", "inghamsum.cli", "verify", "theorem1", "--spec", "tests/data/f2zero.json",
         "--grid", str(n), "--format", "json", "--out", str(out)],
        cwd=run.ROOT, env=run.child_env(), check=True,
    )
    doc = json.loads(out.read_bytes())
    assert doc["summary"]["pass"] is True
    stored = _rows("theorem1-f2zero")[index]
    assert stored["n"] == n
    got = {p[len("/rows/0/"):]: v for p, v in check.leaves(doc["rows"][0], "/rows/0")}
    assert got.keys() == stored.keys()
    assert all(check.values_match(stored[k], got[k]) for k in stored), (stored, got)


def test_mobius_ingham_rows_are_one_and_minus_psi():
    rows = _rows("ingham-mu-dense")
    assert len(rows) == check.SAMPLE_ROWS
    _, psi = _psi_table(10**6)
    for row in rows.values():
        n = row["n"]
        assert row["re_A"] == 1.0 and row["im_A"] == 0.0  # sum mu(k) floor(n/k) = 1
        assert check.floats_match(row["re_S"], -psi[n])
        assert check.floats_match(row["re_norm_a"], 1.0 / n)


def test_theorem2_means_are_one_over_n():
    rows = _rows("theorem2-mu")
    _, psi = _psi_table(10**5)
    for row in rows.values():
        assert check.floats_match(row["mean/0"], 1.0 / row["n"])
    assert check.floats_match(rows[0]["s_ratio"], psi[10**5] / (10**5 * math.log(10**5)))


def test_sieve_rows_match_trial_division():
    rows = _rows("sieve-3e5")
    lam, psi = _psi_table(300_000)
    assert check.load_reference("sieve-3e5")["rows"] == 300_000 - 1
    for row in rows.values():
        m = row["m"]
        factors = []
        k, d = m, 2
        while d * d <= k:
            while k % d == 0:
                factors.append(d)
                k //= d
            d += 1
        if k > 1:
            factors.append(k)
        mu = 0 if len(set(factors)) < len(factors) else (-1) ** len(factors)
        assert (row["spf"], row["mu"]) == (min(factors), mu)
        assert check.floats_match(row["mangoldt"], lam[m])
        assert check.floats_match(row["psi"], psi[m])
