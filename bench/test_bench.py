"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py``.

Runs every workload at the tiny scale and checks that each end-to-end and
per-layer metric named in BENCHMARK.json is emitted with its unit, that the
outputs pass their checks, and that the numpy gather oracle agrees with an
explicit partial transpose.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cross-validate", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("D,N", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("mode", ["free", "coupled"])
def test_gather_matches_explicit_partial_transpose(D, N, mode):
    rng = np.random.default_rng(D * 10 + N)
    rho = jobs.random_state(D, N, 3, rng)
    oracle = jobs.DenseOracle(D, N, rho)
    for subset in ([0], [0, N - 1]):
        pt = jobs.partial_transpose(rho, D, N, subset)
        j = tuple(int(x) for x in rng.integers(0, D, size=N))
        jj = int(jobs._index(np.array(j), D))
        swapped = "free" if mode == "coupled" else "coupled"
        trans = jobs._index(jobs.partners(np.array(j), D, swapped), D)
        ign = jobs._index(jobs.partners(np.array(j), D, mode), D)
        want_ign = rho[jj, jj].real * rho[ign, ign].real.sum()
        want_trans = (np.abs(pt[jj, trans]) ** 2).sum()
        p_ign, p_trans, _ = jobs.gather_W(oracle, j, subset, mode)
        assert abs(p_ign - want_ign) < 1e-15 and abs(p_trans - want_trans) < 1e-15


def test_ec_oracle_entries_match_dense():
    oracle = jobs.ECOracle("a", "strong", 3, 3, complex(0.3, 0.4))
    dense = oracle.dense()
    rows, cols = np.indices(dense.shape)
    assert np.array_equal(oracle.entries(rows.ravel(), cols.ravel()), dense.ravel())
