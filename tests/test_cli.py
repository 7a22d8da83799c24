import csv
import dataclasses
import io
import json
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from causal_sep import cli, density
from causal_sep.criterion import CriterionReport, classify
from causal_sep.density import (
    DensityMatrix,
    PartySubset,
    matrix_to_payload,
    partial_transpose,
)
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    Mixing,
    all_variants,
    build_ec_matrix,
    ec_min_eigenvalue,
    threshold,
    variant_name,
)
from causal_sep.config_calculus import CouplingMode
from causal_sep.ppt import PPT_TOL

from conftest import bell_state, maximally_mixed, random_state, run_cli, save_matrix


# ---------------------------------------------------------------------------
# config-count
# ---------------------------------------------------------------------------

def test_config_count_json(capsys):
    code, out, err = run_cli(
        ["config-count", "--D", "2", "--N", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "causal-sep/1"
    assert payload["K"] == 4
    assert payload["K_bar"] == 4
    assert payload["coupling"] == "free"
    assert "greedy_distinct" not in payload  # reported for D > 2 only


def test_config_count_coupled(capsys):
    code, out, _ = run_cli(
        ["config-count", "--D", "3", "--N", "2", "--coupling", "coupled"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 3
    assert payload["K_bar"] == 6


def test_config_count_greedy_surfacing(capsys):
    # the ceiling count and the greedy pick genuinely differ at D=3, N=2
    code, out, _ = run_cli(["config-count", "--D", "3", "--N", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 2
    assert payload["greedy_distinct"] == 3
    assert payload["greedy_matches_K"] is False


def test_config_count_greedy_beyond_1024_configurations(capsys):
    # the greedy size is the closed form D^(N-1), reported at any D^N
    code, out, _ = run_cli(["config-count", "--D", "3", "--N", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 17
    assert payload["greedy_distinct"] == 729
    assert payload["greedy_matches_K"] is False


@pytest.mark.parametrize("N", ["5000", "30000000"])
def test_config_count_beyond_the_integer_string_limit_fails_fast(capsys, N):
    start = time.perf_counter()
    code, out, err = run_cli(["config-count", "--D", "10", "--N", N], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: the counts for D^N = 10^{N} have more than {limit} decimal digits, "
        "the integer string conversion limit (sys.get_int_max_str_digits())\n"
    )


def test_config_count_csv(capsys):
    code, out, _ = run_cli(
        ["config-count", "--D", "2", "--N", "3", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == "D,N,coupling,K,K_bar\n2,3,free,4,4\n"


# ---------------------------------------------------------------------------
# ec threshold
# ---------------------------------------------------------------------------

def test_threshold_json_a(capsys):
    code, out, _ = run_cli(
        [
            "ec", "threshold", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "single"
    assert payload["p_th"] == 0.5
    assert payload["p_th1"] == payload["p_th2"] == 0.5
    assert payload["variant"] == "a-weak-free"


def test_threshold_json_b_window(capsys):
    code, out, _ = run_cli(
        [
            "ec", "threshold", "--class", "b", "--mixing", "weak",
            "--coupling", "free", "--D", "3", "--N", "2", "--m-abs", "1",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    th = threshold(ECClass.B, Mixing.WEAK, CouplingMode.N_FREE, 3, 2, 1)
    assert payload["kind"] == "window"
    assert payload["m_abs"] == 1
    assert payload["window"] == [th.p_th1, th.p_th2]
    assert payload["p_th1"] == th.p_th1
    assert payload["p_th2"] == th.p_th2


def test_threshold_json_b_empty_window(capsys):
    code, out, _ = run_cli(
        [
            "ec", "threshold", "--class", "b", "--mixing", "strong",
            "--coupling", "free", "--D", "3", "--N", "2", "--m-abs", "1",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] is None
    assert "empty" in payload["separable_region"]


def test_threshold_full_table(capsys):
    code, out, _ = run_cli(
        ["ec", "threshold", "--D", "3", "--N", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variant,D,N,m_abs,p_th1,p_th2"
    # 4 a-variants, 4 b-variants x two |m| values
    assert len(lines) == 1 + 4 + 8
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants.count("a-weak-free") == 1
    assert variants.count("b-weak-free") == 2
    # a rows leave the m_abs cell empty
    a_row = next(line for line in lines[1:] if line.startswith("a-weak-free"))
    assert a_row.split(",")[3] == ""


def test_threshold_table_is_csv_only(capsys):
    code, _, err = run_cli(["ec", "threshold", "--D", "3", "--N", "3"], capsys)
    assert code == 1
    assert "CSV" in err


def test_threshold_partial_variant_flags_rejected(capsys):
    code, _, err = run_cli(
        ["ec", "threshold", "--mixing", "weak", "--D", "3", "--N", "3",
         "--format", "csv"],
        capsys,
    )
    assert code == 1
    assert "--class" in err


def test_threshold_b_json_needs_m_abs(capsys):
    code, _, err = run_cli(
        [
            "ec", "threshold", "--class", "b", "--mixing", "weak",
            "--coupling", "free", "--D", "3", "--N", "2",
        ],
        capsys,
    )
    assert code == 1
    assert "--m-abs" in err


def test_threshold_table_streams(tmp_path, capsys):
    # 20,004 rows, 1.2 MiB of CSV: written a batch of rows at a time, where a
    # table kept whole, as rows and then as one string, peaked at 7x its size
    target = tmp_path / "table.csv"
    argv = ["ec", "threshold", "--D", "3", "--format", "csv", "--out", str(target), "--N"]
    # a small table first, so that one-time setup stays out of the peak
    assert run_cli(argv + ["5"], capsys) == (0, "", "")
    tracemalloc.start()
    try:
        code, _, _ = run_cli(argv + ["5001"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 1 + 4 + 4 * 5000
    assert lines[-1].startswith("b-strong-coupled,3,5001,5000,")
    assert peak < target.stat().st_size / 3, f"the table peaked at {peak / 2**20:.2f} MiB"


def _threshold_table_oracle(D, N, variants, m_abs=None):
    """The CSV threshold table by the per-row route: ``threshold`` once per
    variant and |m|, each row written by ``csv`` with repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "D", "N", "m_abs", "p_th1", "p_th2"])
    for variant in variants:
        if variant[0] is ECClass.A:
            m_values = [None]
        else:
            m_values = [m_abs] if m_abs is not None else range(1, N)
        for m in m_values:
            th = threshold(*variant, D, N, m)
            cells = [variant_name(*variant), D, N, "" if m is None else m]
            writer.writerow(cells + [repr(th.p_th1), repr(th.p_th2)])
    return buf.getvalue()


def _threshold_json_oracle(variant, D, N, m_abs):
    """The single-variant JSON threshold payload, field by field from ``threshold``."""
    th = threshold(*variant, D, N, m_abs)
    fields = {"schema": "causal-sep/1", "command": "ec-threshold",
              "variant": variant_name(*variant), "D": D, "N": N}
    if variant[0] is ECClass.A:
        fields.update(kind="single", p_th=th.p_th)
    else:
        fields.update(m_abs=m_abs, kind="window")
    fields.update(p_th1=th.p_th1, p_th2=th.p_th2)
    if variant[0] is ECClass.B:
        fields["window"] = th.window
    fields["separable_region"] = th.separable_region
    return json.dumps(fields, separators=(",", ":")) + "\n"


# (1001, 501) has roots that underflow to 0.0 and 1.0; at D = 2 every
# window collapses to 0.5
_TABLE_DIMS = [(2, 300), (3, 5001), (4, 3), (7, 2001), (1001, 501), (3, 50001)]


@pytest.mark.parametrize("D, N", _TABLE_DIMS)
def test_threshold_table_equals_the_per_row_route(capsys, D, N):
    code, out, err = run_cli(
        ["ec", "threshold", "--D", str(D), "--N", str(N), "--format", "csv"], capsys
    )
    assert (code, err) == (0, "")
    assert out == _threshold_table_oracle(D, N, all_variants())


@pytest.mark.parametrize("D, N", [(2, 300), (4, 3), (1001, 501), (3, 5001)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: variant_name(*v))
def test_single_variant_threshold_equals_the_per_row_route(capsys, variant, D, N):
    flags = ["--class", variant[0].value, "--mixing", variant[1].value,
             "--coupling", variant[2].value, "--D", str(D), "--N", str(N)]
    for m_abs in (None, 1, N - 1):
        m_flag = [] if m_abs is None else ["--m-abs", str(m_abs)]
        code, out, _ = run_cli(["ec", "threshold", *flags, *m_flag, "--format", "csv"], capsys)
        assert code == 0
        assert out == _threshold_table_oracle(D, N, [variant], m_abs)
        if variant[0] is ECClass.B and m_abs is None:
            continue  # the b-class JSON payload needs --m-abs
        code, out, _ = run_cli(["ec", "threshold", *flags, *m_flag], capsys)
        assert code == 0
        assert out == _threshold_json_oracle(variant, D, N, m_abs)


# ---------------------------------------------------------------------------
# ec sweep
# ---------------------------------------------------------------------------

def test_sweep_three_points(capsys):
    code, out, _ = run_cli(
        [
            "ec", "sweep", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2", "--steps", "3",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variant,D,N,p,W_closed,W_matrix,p_th1,p_th2,verdict"
    assert len(lines) == 4
    w_closed = [line.split(",")[4] for line in lines[1:]]
    w_matrix = [line.split(",")[5] for line in lines[1:]]
    assert w_closed == ["0.0", "0.0", "-1.0"]
    assert w_matrix == w_closed
    verdicts = [line.split(",")[8] for line in lines[1:]]
    assert verdicts == ["separable", "separable", "entangled"]


def test_sweep_single_sign_change(capsys):
    code, out, _ = run_cli(
        [
            "ec", "sweep", "--class", "a", "--mixing", "strong",
            "--coupling", "free", "--D", "3", "--N", "2", "--steps", "1001",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    values = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
    signs = [1 if v > 0 else -1 for v in values if v != 0.0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    # the flip straddles the closed-form threshold
    th = threshold(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 3, 2).p_th
    last_positive = max(i for i, v in enumerate(values) if v > 0)
    assert abs(last_positive / 1000 - th) < 1e-3


def test_sweep_zero_steps(capsys):
    code, out, _ = run_cli(
        [
            "ec", "sweep", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2", "--steps", "0",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out == "variant,D,N,p,W_closed,W_matrix,p_th1,p_th2,verdict\n"


@pytest.mark.parametrize("command", [["ec", "sweep"], ["compare"]])
@pytest.mark.parametrize("steps", [2**20 + 1, 10**9])
def test_steps_over_the_grid_limit_fail_fast(capsys, command, steps):
    # a billion-point grid alone is 7.45 GiB of floats: refused before
    # np.linspace allocates it
    argv = command + [
        "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2", "--steps", str(steps),
    ]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 4 * 2**20  # the grid of 2**20 + 1 points alone is 8 MiB
    assert code == 1
    assert out == ""
    assert err == f"error: --steps {steps} exceeds the grid limit 1048576\n"


@pytest.mark.parametrize("command", [["ec", "sweep"], ["compare"]])
def test_overflowing_grid_is_refused_without_a_warning(capsys, command):
    # the grid's step overflows to -inf, so its first point is NaN
    argv = command + [
        "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2",
        "--p-start=1e308", "--p-end=-1e308", "--steps", "3",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: class-a mixing parameter needs |p| <= 1, got |p| = nan\n"


def test_sweep_b_requires_m_abs(capsys):
    code, _, err = run_cli(
        [
            "ec", "sweep", "--class", "b", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2",
        ],
        capsys,
    )
    assert code == 1
    assert "m-abs" in err


def test_sweep_b_endpoint_survives_divergent_branch(capsys):
    # at p = 0 the m = -|m| branch of the closed form diverges; the sweep
    # must keep the finite branch instead of crashing, and the verdict
    # still reports the entanglement the divergent branch implies
    code, out, _ = run_cli(
        [
            "ec", "sweep", "--class", "b", "--mixing", "weak",
            "--coupling", "free", "--D", "3", "--N", "3", "--m-abs", "2",
            "--steps", "3", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert first[3] == "0.0"
    assert first[4] == "1.0"  # surviving m = +|m| branch
    assert first[8] == "entangled"
    last = out.splitlines()[-1].split(",")
    assert last[3] == "1.0"
    assert float(last[4]) == 0.0
    assert float(last[5]) == float(last[5])  # matrix route stays finite


def test_sweep_deterministic(capsys):
    argv = [
        "ec", "sweep", "--class", "a", "--mixing", "weak",
        "--coupling", "coupled", "--D", "3", "--N", "2", "--steps", "17",
        "--format", "csv",
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_sweep_json_rows(capsys):
    code, out, _ = run_cli(
        [
            "ec", "sweep", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2", "--steps", "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "ec-sweep"
    assert [row["p"] for row in payload["rows"]] == [0.0, 1.0]
    assert payload["rows"][1]["W_closed"] == -1.0


def test_sweep_over_dimension_cap(capsys):
    code, out, err = run_cli(
        [
            "ec", "sweep", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "13", "--steps", "2",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: D^N = 8192 exceeds the dimension cap 4096\n"


@pytest.mark.parametrize("dims", [(2, 12), (4, 6)])
@pytest.mark.parametrize("coupling", ["free", "coupled"])
def test_sweep_at_dimension_cap_memory_bound(capsys, dims, coupling):
    # a dense 4096-dim EC matrix is 256 MB; the sweep reads the site factors
    argv = [
        "ec", "sweep", "--class", "a", "--mixing", "strong", "--coupling", coupling,
        "--D", str(dims[0]), "--N", str(dims[1]), "--steps", "2", "--p-start", "0.2",
    ]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# ec build + classify + ppt round trips
# ---------------------------------------------------------------------------

def test_build_emits_matrix_json(capsys):
    code, out, err = run_cli(
        [
            "ec", "build", "--class", "a", "--mixing", "strong",
            "--coupling", "free", "--D", "2", "--N", "2", "--p", "0.75",
        ],
        capsys,
    )
    assert code == 0
    assert err.startswith("note: a-strong-free D=2 N=2")
    assert "not PSD" in err or "PSD" in err
    payload = json.loads(out)
    assert payload["D"] == 2 and payload["N"] == 2
    assert payload["normalized"] is True
    assert len(payload["entries"]) == 16


@pytest.mark.parametrize("variant, D, N, p, chunk", [
    (("a", "weak"), 3, 3, "(0.4-0.3j)", 10),  # 27^2 pairs: written in 146 chunks
    (("a", "strong"), 2, 8, "0.3", None),  # 27 distinct floats in two chunks
    (("b", "weak"), 3, 5, "0.35", None),
])
def test_build_writes_the_save_matrix_bytes(tmp_path, capsys, monkeypatch, variant, D, N, p, chunk):
    if chunk is not None:
        monkeypatch.setattr(density, "WRITE_CHUNK", chunk)
    argv = ["ec", "build", "--class", variant[0], "--mixing", variant[1], "--D", str(D),
            "--N", str(N), "--p", p]
    built = tmp_path / "built.json"
    code, _, _ = run_cli(argv + ["--out", str(built)], capsys)
    assert code == 0
    saved = tmp_path / "saved.json"
    prm = ECParams(ECClass(variant[0]), Mixing(variant[1]), CouplingMode.N_FREE, D, N, complex(p))
    rho = build_ec_matrix(prm)
    save_matrix(rho, str(saved))
    assert built.read_bytes() == saved.read_bytes()
    want = json.dumps(matrix_to_payload(rho), separators=(",", ":")) + "\n"
    assert saved.read_bytes().decode() == run_cli(argv, capsys)[1] == want


def test_build_rejects_nan_mixing_parameter(capsys):
    code, out, err = run_cli(
        ["ec", "build", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2", "--p", "nan"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: class-a mixing parameter needs |p| <= 1, got |p| = nan\n"


def test_build_rejects_csv(capsys):
    # ec build writes matrix JSON only and takes no --format flag
    for fmt in ("csv", "json"):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                [
                    "ec", "build", "--class", "a", "--mixing", "weak",
                    "--coupling", "free", "--D", "2", "--N", "2", "--p", "0.5",
                    "--format", fmt,
                ],
                capsys,
            )
        assert exc.value.code == 2
        assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err


def test_build_classify_round_trip(tmp_path, capsys):
    matrix_file = str(tmp_path / "ec.json")
    code, _, _ = run_cli(
        [
            "ec", "build", "--class", "a", "--mixing", "strong",
            "--coupling", "free", "--D", "2", "--N", "2", "--p", "0.75",
            "--out", matrix_file,
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["classify", "--input", matrix_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "entangled"
    assert payload["mode"] == "free"
    ws = [s["W"] for s in payload["scores"]]
    assert any(w < -0.25 for w in ws)  # -0.28125 at both distinct configs


def test_classify_bell_file(tmp_path, capsys):
    matrix_file = str(tmp_path / "bell.json")
    save_matrix(bell_state("psi+"), matrix_file)
    code, out, _ = run_cli(["classify", "--input", matrix_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "entangled"
    first = payload["scores"][0]
    assert first["config"] == [0, 0]
    assert first["subset"] == [0]
    assert first["W"] == -0.25


def test_classify_csv(tmp_path, capsys):
    matrix_file = str(tmp_path / "bell.json")
    save_matrix(bell_state("psi+"), matrix_file)
    code, out, _ = run_cli(
        ["classify", "--input", matrix_file, "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "config,subset,P_ignorance,P_transition,W,verdict"
    assert lines[1].split(",")[0] == "0;0"
    assert lines[1].split(",")[5] == "m_entangled"


def _classify_via_to_dict(rho, mode, fmt, report=None):
    """The classify payload rendered from ConfigScore objects by json/csv;
    ``report`` stands in for classify's report of ``rho`` where given."""
    if report is None:
        report = classify(rho, CouplingMode(mode))
    if fmt == "json":
        payload = {"schema": "causal-sep/1", "command": "classify", "D": rho.D, "N": rho.N}
        payload.update(report.to_dict())
        return json.dumps(payload, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["config", "subset", "P_ignorance", "P_transition", "W", "verdict"])
    for s in report.scores:
        writer.writerow([
            ";".join(map(str, s.config)),
            ";".join(map(str, s.subset.members)),
            repr(s.P_ignorance),
            repr(s.P_transition),
            repr(s.W),
            s.verdict.value,
        ])
    return buf.getvalue()


@pytest.mark.parametrize("dims", [(2, 5), (3, 3)])
@pytest.mark.parametrize("mode", ["free", "coupled"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_payload_matches_score_rendering(tmp_path, capsys, dims, mode, fmt):
    rho = random_state(*dims, np.random.default_rng(sum(dims)))
    matrix_file = str(tmp_path / "state.json")
    save_matrix(rho, matrix_file)
    code, out, _ = run_cli(
        ["classify", "--input", matrix_file, "--coupling", mode, "--format", fmt], capsys
    )
    assert code == 0
    assert out == _classify_via_to_dict(rho, mode, fmt)


def _overflowing_state():
    """Unit trace but huge coherences: |rho_jl|^2 overflows to inf, W to -inf."""
    m = np.diag([0.25] * 4).astype(complex)
    m[0, 3] = m[3, 0] = 1e200
    return DensityMatrix(D=2, N=2, matrix=m, normalized=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_payload_with_overflowing_scores(tmp_path, capsys, fmt):
    rho = _overflowing_state()
    matrix_file = str(tmp_path / "huge.json")
    save_matrix(rho, matrix_file)
    code, out, err = run_cli(["classify", "--input", matrix_file, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == _classify_via_to_dict(rho, "free", fmt)
    assert ("-Infinity" if fmt == "json" else "-inf") in out


def _non_finite_report(rho, mode):
    """classify's report of ``rho`` with nan (both signs), inf and -inf
    written into every float column, twice over in some batches."""
    report = classify(rho, CouplingMode(mode))
    nan, inf = float("nan"), float("inf")
    p_ign, p_trans, w = report.P_ignorance.copy(), report.P_transition.copy(), report.W.copy()
    p_ign[[0, 2, 3, 5]] = [nan, inf, -inf, inf]
    p_trans[[0, 1, 1, 4, 7], [1, 0, 2, 2, 0]] = [inf, -inf, np.copysign(nan, -1.0), inf, nan]
    w[[0, 2, 2, 6], [0, 0, 1, 2]] = [-inf, nan, -inf, inf]
    return dataclasses.replace(report, P_ignorance=p_ign, P_transition=p_trans, W=w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_payload_with_non_finite_scores(tmp_path, capsys, monkeypatch, batch, fmt):
    # 8 configurations x 7 subsets; json spells nan, inf and -inf as
    # NaN, Infinity and -Infinity, csv as repr does
    monkeypatch.setattr(cli, "SCORE_BATCH", batch)
    rho = random_state(2, 4, np.random.default_rng(31))
    report = _non_finite_report(rho, "free")
    want = _classify_via_to_dict(rho, "free", fmt, report)
    assert all(t in want for t in (["NaN", "Infinity", "-Infinity"] if fmt == "json"
                                   else [",nan,", ",inf,", ",-inf,"]))
    monkeypatch.setattr(cli, "load_matrix", lambda path: rho)
    monkeypatch.setattr(cli, "classify", lambda rho, mode: report)
    argv = ["classify", "--input", "state.json", "--format", fmt]
    assert run_cli(argv, capsys) == (0, want, "")
    target = tmp_path / "scores.out"
    assert run_cli(argv + ["--out", str(target)], capsys) == (0, "", "")
    assert target.read_bytes().decode() == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_writes_without_score_objects(tmp_path, capsys, monkeypatch, fmt):
    # the payload comes from the report's arrays, finite or not: neither
    # to_dict nor the ConfigScore tuple is needed
    states = [random_state(2, 4, np.random.default_rng(37)), _overflowing_state()]
    wants = [_classify_via_to_dict(rho, "free", fmt) for rho in states]

    def refuse(self):
        raise AssertionError("classify built per-score objects")

    monkeypatch.setattr(CriterionReport, "to_dict", refuse)
    monkeypatch.setattr(CriterionReport, "scores", property(refuse))
    for k, (rho, want) in enumerate(zip(states, wants)):
        matrix_file = str(tmp_path / f"m{k}.json")
        save_matrix(rho, matrix_file)
        argv = ["classify", "--input", matrix_file, "--format", fmt]
        assert run_cli(argv, capsys) == (0, want, "")


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("mode", ["free", "coupled"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_payload_across_score_batches(tmp_path, capsys, monkeypatch, batch, mode, fmt):
    monkeypatch.setattr(cli, "SCORE_BATCH", batch)
    # 16 and 9 distinct configurations; the EC state's scores repeat heavily
    # within a batch, the random states' do not
    ec = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode(mode), 2, 6, 0.3 + 0.4j))
    states = [random_state(*dims, np.random.default_rng(sum(dims))) for dims in [(2, 5), (3, 3)]]
    for rho in states + [ec]:
        matrix_file = str(tmp_path / "state.json")
        save_matrix(rho, matrix_file)
        want = _classify_via_to_dict(rho, mode, fmt)
        argv = ["classify", "--input", matrix_file, "--coupling", mode, "--format", fmt]
        assert run_cli(argv, capsys)[:2] == (0, want)
        target = tmp_path / "scores.out"
        assert run_cli(argv + ["--out", str(target)], capsys)[:2] == (0, "")
        assert target.read_bytes().decode() == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_formatting_memory_bound(tmp_path, capsys, monkeypatch, fmt):
    # D=2, N=8: 128 configurations x 127 subsets, 8 batches of 16
    # configurations; a payload joined whole peaks near 3x its size, as it
    # once did for every report and later for one with a non-finite score
    rho = random_state(2, 8, np.random.default_rng(28))
    monkeypatch.setattr(cli, "load_matrix", lambda path: rho)
    target = tmp_path / "scores.out"
    for report in [classify(rho, CouplingMode.N_FREE), _non_finite_report(rho, "free")]:
        monkeypatch.setattr(cli, "classify", lambda rho, mode: report)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                ["classify", "--input", "state.json", "--format", fmt, "--out", str(target)],
                capsys,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < target.stat().st_size / 2, f"formatting peaked at {peak / 2**20:.2f} MiB"


def test_classify_error_leaves_out_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"D":2,"N":1,"normalized":true,"entries":[[0.5,0],[0,0],[0,0],[0.6,0]]}')
    target = tmp_path / "scores.json"
    target.write_text("kept")
    code, out, err = run_cli(["classify", "--input", str(bad), "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: trace invariant violated")
    assert target.read_text() == "kept"


def test_ppt_subset_flag(tmp_path, capsys):
    matrix_file = str(tmp_path / "bell.json")
    save_matrix(bell_state("psi+"), matrix_file)
    code, out, _ = run_cli(
        ["ppt", "--input", matrix_file, "--subset", "0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "npt_entangled"
    (check,) = payload["checks"]
    assert check["subset"] == [0]
    assert check["min_eigenvalue"] == -0.5
    assert check["conclusive"] is True


def test_ppt_report_all_subsets(tmp_path, capsys):
    matrix_file = str(tmp_path / "ghz3.json")
    code, _, _ = run_cli(
        [
            "ec", "build", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "3", "--p", "0.25",
            "--out", matrix_file,
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["ppt", "--input", matrix_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["subset"] for c in payload["checks"]] == [[0], [0, 1], [0, 2]]
    assert all(c["conclusive"] is False for c in payload["checks"])


def test_ppt_csv_payload(tmp_path, capsys):
    # one line per cut: the subset's parties joined by ";", the minimum
    # eigenvalue as a shortest round-trip float, "true"/"false" for conclusive
    header = "subset,min_eigenvalue,verdict,conclusive\n"
    bell, mixed, ec = (str(tmp_path / name) for name in ("bell.json", "mixed.json", "ec.json"))
    save_matrix(bell_state("psi+"), bell)
    save_matrix(maximally_mixed(2, 3), mixed)
    argv = ["ec", "build", "--class", "a", "--mixing", "weak", "--coupling", "free",
            "--D", "2", "--N", "3", "--p", "0.25", "--out", ec]
    assert run_cli(argv, capsys)[0] == 0
    assert run_cli(["ppt", "--input", bell, "--subset", "0", "--format", "csv"], capsys) == (
        0, header + "0,-0.5,npt_entangled,true\n", "")
    assert run_cli(["ppt", "--input", mixed, "--subset", "2,0", "--format", "csv"], capsys) == (
        0, header + "0;2,0.125,ppt_separable_consistent,false\n", "")
    assert run_cli(["ppt", "--input", mixed, "--format", "csv"], capsys) == (
        0, header + "".join(f"{s},0.125,ppt_separable_consistent,false\n"
                            for s in ("0", "0;1", "0;2")), "")
    # the CSV lines carry the JSON payload's checks, cut for cut
    code, out, _ = run_cli(["ppt", "--input", ec], capsys)
    checks = json.loads(out)["checks"]
    assert [c["subset"] for c in checks] == [[0], [0, 1], [0, 2]]
    want = header + "".join(
        f"{';'.join(map(str, c['subset']))},{c['min_eigenvalue']!r},{c['verdict']},"
        f"{str(c['conclusive']).lower()}\n"
        for c in checks
    )
    assert run_cli(["ppt", "--input", ec, "--format", "csv"], capsys) == (0, want, "")


@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ppt_refuses_fewer_than_two_parties(tmp_path, capsys, N, fmt):
    # a file of one party or none has no split to check; both commands say so
    # through the one D/N validator
    matrix_file = str(tmp_path / "m.json")
    save_matrix(maximally_mixed(2, N), matrix_file)
    want = (1, "", f"error: expected an integer N >= 2, got N={N}\n")
    for subset in ([], ["--subset", "0"]):
        assert run_cli(["ppt", "--input", matrix_file, "--format", fmt] + subset, capsys) == want
    assert run_cli(["classify", "--input", matrix_file, "--format", fmt], capsys) == want


@pytest.mark.parametrize(
    "p, verdict", [("0.3", "ppt_separable_consistent"), ("0.6+0.3j", "npt_entangled")]
)
def test_ppt_subset_at_1024_dims_matches_the_dense_eigensolve(tmp_path, capsys, p, verdict):
    # the partial transpose of an EC file at D=2 splits into 512 blocks of
    # 2x2, each solved on its own; one dense eigvalsh is the oracle
    matrix_file = str(tmp_path / "cap.json")
    argv = ["ec", "build", "--class", "a", "--mixing", "strong", "--D", "2", "--N", "10",
            "--p", p, "--out", matrix_file]
    assert run_cli(argv, capsys)[0] == 0
    code, out, _ = run_cli(["ppt", "--input", matrix_file, "--subset", "0,5"], capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    pt = partial_transpose(density.load_matrix(matrix_file), PartySubset((0, 5), 10))
    dense = np.linalg.eigvalsh(pt.matrix)[0]
    assert abs(check["min_eigenvalue"] - dense) <= 1e-12
    assert check["verdict"] == verdict
    assert (dense < -PPT_TOL) == (verdict == "npt_entangled")


# ---------------------------------------------------------------------------
# compare / duality / crossover
# ---------------------------------------------------------------------------

def test_compare_agreement_two_qubits(capsys):
    code, out, _ = run_cli(
        [
            "compare", "--class", "a", "--mixing", "strong",
            "--coupling", "free", "--D", "2", "--N", "2", "--steps", "101",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == 0
    assert len(payload["rows"]) == 101
    assert all(row["agree"] is True for row in payload["rows"])
    # the boundary sits where the closed form says it should
    causal = [row["causal"] for row in payload["rows"]]
    assert causal[50] == "separable_by_criterion"
    assert causal[51] == "entangled"


@pytest.mark.parametrize("m_abs", [0, 3, 99, -5])
def test_compare_b_rejects_m_abs_out_of_range(capsys, m_abs):
    argv = ["compare", "--class", "b", "--mixing", "weak", "--D", "3", "--N", "3",
            "--steps", "5", "--p-end", "0.9"]
    code, out, err = run_cli(argv + ["--m-abs", str(m_abs)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: m_abs must be an integer in 1..N-1=2, got {m_abs}\n"
    # an in-range --m-abs takes no part in the payload
    assert run_cli(argv + ["--m-abs", "1"], capsys)[1] == run_cli(argv + ["--m-abs", "2"], capsys)[1]


def _compare_per_point(args):
    """``cmd_compare`` with every grid point building, normalizing and
    classifying its own matrix, class b too, and the trace read off it."""
    variant = cli._variant(args)
    if variant[0] is ECClass.B:
        threshold(*variant, args.D, args.N, args.m_abs)
    name = cli.variant_name(*variant)
    rows, disagreements = [], 0
    for p in cli._grid(args):
        params = cli._params(variant, args, complex(p))
        rho = build_ec_matrix(params)
        tr = rho.trace()
        if not rho.normalized:
            if tr <= 1e-300:
                raise ValueError(f"matrix trace vanishes at p={p!r}; shrink the p range")
            rho = DensityMatrix._adopt(rho.D, rho.N, rho.matrix / tr, True, hermitian=True)
        causal = classify(rho, variant[2]).overall
        npt = ec_min_eigenvalue(params) / tr < -PPT_TOL
        agree = (causal.value == "entangled") == npt
        disagreements += not agree
        ppt_side = "npt_entangled" if npt else "ppt_separable_consistent"
        rows.append([name, args.D, args.N, p, causal.value, ppt_side, agree])
    header = ["variant", "D", "N", "p", "causal", "ppt", "agree"]
    head = {"variant": name, "D": args.D, "N": args.N, "disagreements": disagreements}
    return cli._payload(args, "compare", header, rows, "rows", head=head)


# class b: (steps, p-start, p-end) grids, the ones that reach p = 1, where
# the trace vanishes, marked; class a: grids over |p| and over a phase flip
COMPARE_GRIDS = {
    "a": [("41", "0", "1", False), ("21", "-1", "1", False), ("11", "0.3", "-0.9", False)],
    "b": [("41", "0", "0.95", False), ("21", "0", "1", True), ("41", "0", "1", True),
          ("5", "1", "0", True), ("9", "0.5", "0.9", False), ("11", "0.05", "0.95", False)],
}


@pytest.mark.parametrize("D, N", [(2, 2), (2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_compare_equals_the_per_point_route(monkeypatch, capsys, D, N, variant):
    # class b builds and classifies one matrix per call; the payload, or the
    # error naming the first p whose trace vanishes, is the per-point route's
    for steps, start, end, vanishes in COMPARE_GRIDS[variant[0].value]:
        for fmt in ("json", "csv"):
            argv = ["compare", "--class", variant[0].value, "--mixing", variant[1].value,
                    "--coupling", variant[2].value, "--D", str(D), "--N", str(N),
                    "--steps", steps, "--p-start", start, "--p-end", end, "--format", fmt]
            if variant[0] is ECClass.B:
                argv += ["--m-abs", "1"]
            got = run_cli(argv, capsys)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_compare", _compare_per_point)
                want = run_cli(argv, capsys)
            assert got == want, (steps, start, end, fmt)
            assert got[0] == (1 if vanishes else 0)


def test_duality_payload(capsys):
    code, out, _ = run_cli(["duality", "--D", "3", "--N", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["r_a"] == 0.0
    assert payload["r_b"] == 0.0


def test_crossover_payload(capsys):
    code, out, _ = run_cli(["crossover", "--D", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N_cr"] == pytest.approx(math.log(2), abs=1e-15)


# ---------------------------------------------------------------------------
# exit codes and --out
# ---------------------------------------------------------------------------

def test_exit_domain_error(capsys):
    code, out, err = run_cli(["crossover", "--D", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_missing_file(capsys):
    code, _, err = run_cli(["classify", "--input", "/no/such/file.json"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_exit_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is { not json\n")
    code, _, err = run_cli(["classify", "--input", str(bad)], capsys)
    assert code == 2
    assert "JSON parse error" in err


def test_classify_huge_integer_entry(tmp_path, capsys):
    path = tmp_path / "huge_int.json"
    path.write_text('{"D":1,"N":0,"normalized":false,"entries":[[1' + "0" * 400 + ',0]]}')
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: entry 0 is not finite: [1000")
    assert "Traceback" not in err


_DEEP = b"[" * 3000 + b"]" * 3000


def _overflowing_entries(entry: str) -> bytes:
    return (
        '{"D":2,"N":1,"normalized":false,"entries":'
        f'[[{entry},0],[1e308,0],[-1e308,0],[1e308,0]]}}'
    ).encode()


@pytest.mark.parametrize("command", ["classify", "ppt"])
@pytest.mark.parametrize(
    "data, message",
    [
        (
            _overflowing_entries("1" + "0" * 5000),
            "Exceeds the limit (4300 digits) for integer string conversion",
        ),
        (
            _overflowing_entries("1e308"),
            "hermiticity invariant violated: max |M - M^dag| = inf",
        ),
        (
            b'{"D":2,"N":1,"normalized":true,"x":"\xff","entries":[[0.5,0],[0,0],[0,0],[0.5,0]]}',
            "'utf-8' codec can't decode byte 0xff in position 36: invalid start byte",
        ),
        # json.loads raises RecursionError, not ValueError, past its stack depth
        (
            b'{"D":2,"N":1,"normalized":true,"x":%s,"entries":[[0.5,0],[0,0],[0,0],[0.5,0]]}' % _DEEP,
            "JSON nesting too deep to parse",
        ),
        (b'{"D":2,"N":1,"normalized":true,"entries":%s}' % _DEEP, "JSON nesting too deep to parse"),
    ],
    ids=["long-integer", "overflowing-asymmetry", "not-utf-8", "deep-header", "deep-entries"],
)
def test_unreadable_entries_exit_2_naming_the_file(tmp_path, capsys, command, data, message):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")


def test_classify_over_dimension_cap_file(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"D": 10, "N": 30000000, "normalized": true, "entries": []}\n')
    code, out, err = run_cli(["classify", "--input", str(huge)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {huge}: D^N = 10^30000000 exceeds the dimension cap 4096\n"


@pytest.mark.parametrize("N", [70, 10**8])
def test_one_level_file_with_many_parties_is_over_the_cap(tmp_path, capsys, N):
    # a 1x1 matrix, but 2^(N-1) party subsets to score and 2N tensor axes
    path = tmp_path / "d1.json"
    path.write_text(f'{{"D": 1, "N": {N}, "normalized": true, "entries": [[1, 0]]}}\n')
    for command in (["classify"], ["ppt"], ["ppt", "--subset", "0"]):
        code, out, err = run_cli([*command, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: N = {N} parties exceed the dimension cap 4096\n"
        )


def test_build_over_dimension_cap_flags(capsys):
    code, out, err = run_cli(
        ["ec", "build", "--class", "a", "--mixing", "weak", "--D", "10", "--N", "5000", "--p", "0.3"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: D^N = 10^5000 exceeds the dimension cap 4096\n"


def test_sweep_over_dimension_cap_before_closed_form(capsys):
    # the class-a closed form overflows a float at D=10, N=200; the cap
    # must reject the point before it is evaluated
    code, out, err = run_cli(
        ["ec", "sweep", "--class", "a", "--mixing", "weak", "--D", "10", "--N", "200", "--steps", "2"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: D^N = 10^200 exceeds the dimension cap 4096\n"


_HUGE = "1" + "0" * 400  # 10^400, beyond the float range


@pytest.mark.parametrize(
    "argv, name",
    [
        (["duality", "--D", _HUGE, "--N", "3"], "D"),
        (["ec", "threshold", "--D", _HUGE, "--N", "3", "--format", "csv"], "D"),
        (["ec", "threshold", "--class", "a", "--mixing", "weak", "--coupling", "free",
          "--D", _HUGE, "--N", "3"], "D"),
        (["ec", "threshold", "--class", "a", "--mixing", "weak", "--coupling", "free",
          "--D", "3", "--N", _HUGE], "N"),
        (["ec", "sweep", "--class", "a", "--mixing", "weak", "--D", _HUGE, "--N", "3",
          "--steps", "2"], "D"),
        (["compare", "--class", "b", "--mixing", "weak", "--D", _HUGE, "--N", "3",
          "--m-abs", "1", "--steps", "2"], "D"),
    ],
    ids=["duality", "threshold-table", "threshold-a-D", "threshold-a-N", "sweep-a", "compare-b"],
)
def test_closed_forms_refuse_d_or_n_beyond_the_float_range(capsys, argv, name):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {name} is beyond the float range of the closed forms\n"


def test_exact_commands_accept_d_beyond_the_float_range(capsys):
    # the census is exact integer arithmetic and the crossover a log of an int
    code, out, _ = run_cli(["config-count", "--D", _HUGE, "--N", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["D"] == int(_HUGE)
    assert payload["K"] + payload["K_bar"] == int(_HUGE) ** 3
    code, out, _ = run_cli(["crossover", "--D", _HUGE], capsys)
    assert code == 0
    assert json.loads(out)["N_cr"] == pytest.approx(400 * math.log(10), rel=1e-15)


@pytest.mark.parametrize("N", [2**20 + 2, 10**7])
@pytest.mark.parametrize(
    "command",
    [
        ["ec", "threshold", "--format", "csv"],
        ["ec", "threshold", "--class", "b", "--mixing", "weak", "--coupling", "free",
         "--format", "csv"],
        ["duality"],
    ],
    ids=["threshold-table", "threshold-b", "duality"],
)
def test_m_abs_values_over_the_limit_fail_fast(capsys, command, N):
    # one row or one residual per |m| = 1..N-1: refused before the first
    start = time.perf_counter()
    code, out, err = run_cli(command + ["--D", "3", "--N", str(N)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == f"error: N - 1 = {N - 1} values of |m| exceed the limit 1048576\n"


def test_exit_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["ec", "build", "--class", "a", "--D", "2", "--N", "2"], capsys)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"], capsys)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["ec", "threshold", "--class", "a", "--D", "3", "--N", "3"],
         "--mixing and --coupling are required alongside --class"),
        (["ec", "sweep", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2",
          "--steps", "-1"], "--steps must be non-negative, got -1"),
        (["compare", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2",
          "--steps", "-1"], "--steps must be non-negative, got -1"),
        (["compare", "--class", "b", "--mixing", "weak", "--D", "3", "--N", "3"],
         "b-class comparisons need --m-abs"),
    ],
    ids=["threshold-class-alone", "sweep-negative-steps", "compare-negative-steps",
         "compare-b-without-m-abs"],
)
def test_flag_combinations_refused_before_any_output(capsys, argv, err):
    for fmt in ("json", "csv"):
        assert run_cli(argv + ["--format", fmt], capsys) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (["ec", "build", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2"], "--p", "1+x",
         "cannot parse mixing parameter '1+x'"),
        (["ppt", "--input", "state.json"], "--subset", "0,x",
         "cannot parse party subset '0,x'; expected i,j,..."),
    ],
)
def test_unparsable_flag_values_are_usage_errors(capsys, argv, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + [flag, value], capsys)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize(
    "text, want",
    [
        ("-0", "(-0+0j)"),
        ("nan", "(nan+0j)"),
        ("-inf", "(-inf+0j)"),
        ("1e400", "(inf+0j)"),
        ("1_000", "(1000+0j)"),
        (" 0.5 ", "(0.5+0j)"),
        ("+0.5", "(0.5+0j)"),
        ("(1+2j)", "(1+2j)"),
        ("0.5j", "0.5j"),
        ("١.٥", "(1.5+0j)"),  # Arabic-Indic digits
    ],
)
def test_parse_p_values(text, want):
    assert repr(cli._parse_p(text)) == want


def test_exit_bad_flag_type(capsys):
    # argparse handles non-integer --D before any domain logic runs
    with pytest.raises(SystemExit) as exc:
        run_cli(["config-count", "--D", "two", "--N", "3"], capsys)
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run_cli(
        ["config-count", "--D", "2", "--N", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["K"] == 2


def test_out_flag_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "config-count", "--D", "2", "--N", "2",
            "--out", str(tmp_path / "missing-dir" / "census.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")
