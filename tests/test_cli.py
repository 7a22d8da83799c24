import csv
import io
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from causal_sep.criterion import classify
from causal_sep.density import DensityMatrix, bell_state, save_matrix
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    Mixing,
    build_ec_matrix,
    threshold,
)
from causal_sep.config_calculus import CouplingMode

from conftest import random_state, run_cli


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


def test_build_writes_the_save_matrix_bytes(tmp_path, capsys):
    built = tmp_path / "built.json"
    code, _, _ = run_cli(
        ["ec", "build", "--class", "a", "--mixing", "weak", "--D", "3", "--N", "3",
         "--p", "(0.4-0.3j)", "--out", str(built)],
        capsys,
    )
    assert code == 0
    saved = tmp_path / "saved.json"
    save_matrix(build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, CouplingMode.N_FREE, 3, 3, 0.4 - 0.3j)), str(saved))
    assert built.read_bytes() == saved.read_bytes()


def test_build_rejects_nan_mixing_parameter(capsys):
    code, out, err = run_cli(
        ["ec", "build", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2", "--p", "nan"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: class-a mixing parameter needs |p| <= 1, got |p| = nan\n"


def test_build_rejects_csv(capsys):
    code, _, err = run_cli(
        [
            "ec", "build", "--class", "a", "--mixing", "weak",
            "--coupling", "free", "--D", "2", "--N", "2", "--p", "0.5",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 1
    assert "JSON" in err


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


def _classify_via_to_dict(rho, mode, fmt):
    """The classify payload rendered from ConfigScore objects by json/csv."""
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_payload_with_overflowing_scores(tmp_path, capsys, fmt):
    # unit trace but huge coherences: |rho_jl|^2 overflows to inf, W to -inf
    m = np.diag([0.25] * 4).astype(complex)
    m[0, 3] = m[3, 0] = 1e200
    rho = DensityMatrix(D=2, N=2, matrix=m, normalized=True)
    matrix_file = str(tmp_path / "huge.json")
    save_matrix(rho, matrix_file)
    code, out, _ = run_cli(["classify", "--input", matrix_file, "--format", fmt], capsys)
    assert code == 0
    assert out == _classify_via_to_dict(rho, "free", fmt)
    assert ("-Infinity" if fmt == "json" else "-inf") in out


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


def test_classify_over_dimension_cap_file(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"D": 10, "N": 30000000, "normalized": true, "entries": []}\n')
    code, out, err = run_cli(["classify", "--input", str(huge)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {huge}: D^N = 10^30000000 exceeds the dimension cap 4096\n"


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


def test_exit_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["ec", "build", "--class", "a", "--D", "2", "--N", "2"], capsys)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"], capsys)
    assert exc.value.code == 2


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
