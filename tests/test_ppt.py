import json
import re
import tracemalloc

import numpy as np
import pytest

from causal_sep import cli, ppt
from causal_sep.config_calculus import CouplingMode
from causal_sep.criterion import OverallVerdict, classify
from causal_sep.density import (
    DensityMatrix,
    PartySubset,
    canonical_subsets,
    hermitian_eigenvalues,
    load_matrix,
    partial_transpose,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, all_variants, build_ec_matrix
from causal_sep.ppt import PPT_TOL, PptOutcome, ppt_check, ppt_outcome, ppt_report

from conftest import (
    bell_state,
    ghz_mixture,
    maximally_mixed,
    run_cli,
    save_matrix,
    two_qubit_state,
)

S1 = PartySubset((1,), 2)


def _ec_strong(p):
    return build_ec_matrix(
        ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, D=2, N=2, p=p)
    )


def test_maximally_mixed_is_ppt():
    v = ppt_check(maximally_mixed(2, 2), S1)
    assert v.verdict is PptOutcome.PPT_SEPARABLE_CONSISTENT
    assert v.min_eigenvalue == pytest.approx(0.25, abs=1e-12)
    assert v.conclusive is True


def test_bell_is_npt():
    v = ppt_check(bell_state("psi+"), S1)
    assert v.verdict is PptOutcome.NPT_ENTANGLED
    assert v.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_conclusive_only_for_two_qubits():
    v = ppt_check(maximally_mixed(3, 2), PartySubset((1,), 2))
    assert v.conclusive is False
    assert ppt_check(maximally_mixed(2, 3), PartySubset((0,), 3)).conclusive is False


def test_conclusive_needs_a_positive_semidefinite_matrix(tmp_path, capsys):
    # two unit-trace Hermitian 2x2 matrices that are not states: the
    # a-strong-free EC matrix at p = 0.7 (minimum eigenvalue -0.28) and the
    # Bell projector's partial transpose (eigenvalues -1/2, 1/2, 1/2, 1/2)
    ec, bell_pt = str(tmp_path / "ec.json"), str(tmp_path / "bell_pt.json")
    argv = ["ec", "build", "--class", "a", "--mixing", "strong", "--coupling", "free",
            "--D", "2", "--N", "2", "--p", "0.7", "--out", ec]
    assert run_cli(argv, capsys)[0] == 0
    save_matrix(partial_transpose(bell_state("phi+"), S1), bell_pt)
    for path, overall, min_eig in (
        (ec, "npt_entangled", -0.28),
        (bell_pt, "ppt_separable_consistent", -0.5),
    ):
        code, out, _ = run_cli(["ppt", "--input", path], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["overall"] == overall
        assert [c["conclusive"] for c in payload["checks"]] == [False]
        rho = load_matrix(path)
        assert hermitian_eigenvalues(rho)[0] == pytest.approx(min_eig, abs=1e-12)
        assert ppt_check(rho, S1).conclusive is False


@pytest.mark.parametrize(
    "D, N, ppt_first, free_first, coupled_first",
    [
        (2, 2, 0.334, 0.334, 0.334),  # the Werner state: Peres' 1/3 on every route
        (2, 3, 0.201, 0.201, 0.201),  # PPT bound 1/5
        (3, 2, 0.251, None, 0.321),  # the isotropic state: PPT bound 1/(D+1)
    ],
)
def test_ghz_mixture_flips_on_every_route(D, N, ppt_first, free_first, coupled_first):
    # p |GHZ><GHZ| + (1 - p) I/D^N on a 1001-point grid: each route reads
    # entangled from its first point on (None: at no point).  Regression
    # records of the criterion's reach, not targets
    grid = np.linspace(0.0, 1.0, 1001).tolist()
    states = [ghz_mixture(D, N, p) for p in grid]
    flips = lambda first: [first is not None and p >= first for p in grid]
    subset = PartySubset((0,), N)
    assert [ppt_check(rho, subset).verdict is PptOutcome.NPT_ENTANGLED for rho in states] == (
        flips(ppt_first)
    )
    for mode, first in ((CouplingMode.N_FREE, free_first), (CouplingMode.N_COUPLED, coupled_first)):
        assert [classify(rho, mode).overall is OverallVerdict.ENTANGLED for rho in states] == (
            flips(first)
        )
    # PPT is conclusive only at 2x2, where the mixture is a state at every point
    assert all(ppt_check(rho, subset).conclusive for rho in states) == (D == N == 2)


def test_two_qubit_census():
    # 4000 Hilbert-Schmidt random two-qubit states, where PPT is exact: the
    # criterion, in either mode, reads no PPT state as entangled and finds 794
    # of the 3004 NPT ones.  A regression record of a seeded sample, not a target
    rng = np.random.default_rng(12345)
    states = [two_qubit_state(rng.normal(size=32)) for _ in range(4000)]
    npt = np.array([ppt_check(rho, S1).verdict is PptOutcome.NPT_ENTANGLED for rho in states])
    assert npt.sum() == 3004
    for mode in CouplingMode:
        found = np.array([classify(rho, mode).overall is OverallVerdict.ENTANGLED for rho in states])
        assert found.sum() == 794
        assert not (found & ~npt).any()


def test_criterion_depends_on_the_basis():
    # both NPT: the Bell state with a Hadamard on party 0 reads separable in
    # both modes, the maximally entangled qutrit pair in free mode, where its
    # minimum W is exactly 0.0
    hadamard = np.kron([[1, 1], [1, -1]], np.eye(2)) / np.sqrt(2)
    rotated = DensityMatrix(2, 2, hadamard @ bell_state("phi+").matrix @ hadamard.T)
    for rho, free_min, coupled_min in ((rotated, 0.0, 0.0), (ghz_mixture(3, 2, 1.0), 0.0, -1 / 9)):
        assert ppt_check(rho, PartySubset((0,), 2)).verdict is PptOutcome.NPT_ENTANGLED
        free, coupled = classify(rho, CouplingMode.N_FREE), classify(rho, CouplingMode.N_COUPLED)
        assert free.overall is OverallVerdict.SEPARABLE_BY_CRITERION
        assert free.W.min() == free_min
        assert coupled.W.min() == pytest.approx(coupled_min, abs=1e-15)


def test_check_reads_rho_with_no_partial_transpose_copy():
    # the (2,10) cut is 512 blocks of 2x2: the boolean pattern, its
    # transposed copy and the blocks, against the 16 MiB of a copy
    rho = build_ec_matrix(
        ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, D=2, N=10, p=0.6 + 0.3j)
    )
    subset = PartySubset((0, 5), 10)
    want = hermitian_eigenvalues(partial_transpose(rho, subset))[0]
    tracemalloc.start()
    try:
        v = ppt_check(rho, subset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.min_eigenvalue == want
    assert v.verdict is PptOutcome.NPT_ENTANGLED
    assert peak < rho.matrix.nbytes / 4 + 2**16


def test_check_refuses_a_subset_over_another_n():
    message = "subset is over N=3 parties but the matrix has N=2"
    with pytest.raises(ValueError, match=re.escape(message)):
        ppt_check(maximally_mixed(2, 2), PartySubset((0,), 3))


def test_requires_normalized():
    rho = DensityMatrix(D=2, N=2, matrix=np.eye(4), normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        ppt_check(rho, S1)


def test_ec_strong_threshold_sides():
    assert ppt_check(_ec_strong(0.25), S1).verdict is PptOutcome.PPT_SEPARABLE_CONSISTENT
    assert ppt_check(_ec_strong(0.75), S1).verdict is PptOutcome.NPT_ENTANGLED
    # boundary point itself stays consistent (min eigenvalue exactly 0)
    assert ppt_check(_ec_strong(0.5), S1).verdict is PptOutcome.PPT_SEPARABLE_CONSISTENT


def test_report_covers_canonical_subsets():
    report = ppt_report(maximally_mixed(2, 3))
    assert [v.subset.members for v in report] == [(0,), (0, 1), (0, 2)]
    assert not any(v.verdict is PptOutcome.NPT_ENTANGLED for v in report)


@pytest.mark.parametrize("D, N", [(2, 0), (3, 0), (2, 1), (3, 1)])
def test_report_refuses_fewer_than_two_parties(D, N):
    # no split exists, so there is nothing to report as PPT-consistent
    with pytest.raises(ValueError, match=f"^expected an integer N >= 2, got N={N}$"):
        ppt_report(maximally_mixed(D, N))


def ph_determinants_2x2(rho: DensityMatrix) -> tuple[float, float]:
    """The two 2x2 principal-minor determinants of the partially transposed
    two-qubit matrix (transpose over the second party): W1 on the outer
    block {(0,0),(1,1)}, W2 on the inner block {(0,1),(1,0)}.  Both are real
    for Hermitian input; negativity of either is the determinant form of the
    two-qubit test, an oracle for the eigenvalue form."""
    if rho.D != 2 or rho.N != 2:
        raise ValueError(
            f"determinant form is specific to D=2, N=2; got D={rho.D}, N={rho.N}"
        )
    t = partial_transpose(rho, S1).matrix
    w1 = (t[0, 0] * t[3, 3] - t[0, 3] * t[3, 0]).real
    w2 = (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1]).real
    return float(w1), float(w2)


def test_ph_determinants_examples():
    assert ph_determinants_2x2(maximally_mixed(2, 2)) == (0.0625, 0.0625)
    w1, w2 = ph_determinants_2x2(bell_state("psi+"))
    assert w1 == pytest.approx(-0.25, abs=1e-12)
    with pytest.raises(ValueError):
        ph_determinants_2x2(maximally_mixed(3, 2))


def test_ph_determinant_sign_tracks_ec_strong():
    # sign(W1) follows sign(p(1-2p)) across the whole parameter range
    for i in range(101):
        p = i / 100
        w1, _ = ph_determinants_2x2(_ec_strong(p))
        ref = p * (1 - 2 * p)
        assert _sign(w1) == _sign(ref), f"p={p}"


def _sign(x, tol=1e-12):
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def test_determinant_and_eigenvalue_forms_agree():
    # negativity of either determinant <=> NPT verdict, on the EC grid
    for i in range(101):
        p = i / 100
        rho = _ec_strong(p)
        w1, w2 = ph_determinants_2x2(rho)
        det_entangled = w1 < -1e-10 or w2 < -1e-10
        eig_entangled = ppt_check(rho, S1).verdict is PptOutcome.NPT_ENTANGLED
        assert det_entangled == eig_entangled, f"p={p}"


def test_min_eigenvalue_sign_scale_invariant():
    rho = _ec_strong(0.8)
    for c in (0.5, 2.0, 7.5):
        scaled = DensityMatrix(D=2, N=2, matrix=c * rho.matrix, normalized=False)
        eigs = hermitian_eigenvalues(partial_transpose(scaled, S1))
        assert _sign(eigs[0]) == _sign(
            hermitian_eigenvalues(partial_transpose(rho, S1))[0]
        )


@pytest.mark.parametrize("D, N", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_ec_partial_transpose_is_rho_for_real_p(D, N, variant):
    # real symmetric site factors: on the EC family the PPT oracle tests
    # the spectrum of rho itself, so NPT there means rho is not PSD
    for p in np.linspace(0.0, 1.0, 11):
        rho = build_ec_matrix(ECParams(*variant, D=D, N=N, p=float(p)))
        for s in canonical_subsets(N):
            assert partial_transpose(rho, s).matrix.tobytes() == rho.matrix.tobytes(), (p, s)


# Grid points of a 41-point compare grid where the normalized matrix's
# smallest eigenvalue lies within 1e-9 of zero, by (class, mixing, D); the
# same at every N and coupling tested.  Class a: p = 0, a pure product
# state, and the PSD edge |p| = 1/2 (weak mixing, or D = 2) or
# 1/(1 + (D-1)^2) = 0.2 (strong, D = 3): indices 0, 20 and 8 of [0, 1].
# Class b: rho / trace is the same at every p, and lies on the PSD edge at
# D = 2 and for weak mixing at D = 3.
EVERY_POINT = list(range(41))
NEAR_ZERO = {
    ("a", "weak", 2): [0, 20],
    ("a", "weak", 3): [0, 20],
    ("a", "strong", 2): [0, 20],
    ("a", "strong", 3): [0, 8],
    ("b", "weak", 2): EVERY_POINT,
    ("b", "weak", 3): EVERY_POINT,
    ("b", "strong", 2): EVERY_POINT,
    ("b", "strong", 3): [],
}


@pytest.mark.parametrize("D, N", [(2, 2), (2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_compare_ppt_column_equals_dense_report(capsys, D, N, variant):
    # compare reads the PPT side from the closed-form spectrum; the dense
    # partial transposes over every canonical cut must give the same column
    ec_class, mixing, coupling = variant
    argv = [
        "compare", "--class", ec_class.value, "--mixing", mixing.value,
        "--coupling", coupling.value, "--D", str(D), "--N", str(N), "--steps", "41",
    ]
    if ec_class is ECClass.B:
        argv += ["--m-abs", "1", "--p-end", "0.95"]  # p = 1 zeroes the class-b trace
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    near_zero = []
    for i, row in enumerate(rows):
        rho = build_ec_matrix(ECParams(*variant, D=D, N=N, p=complex(row["p"])))
        if not rho.normalized:
            rho = DensityMatrix(D=D, N=N, matrix=rho.matrix / rho.trace(), normalized=True)
        npt = any(v.verdict is PptOutcome.NPT_ENTANGLED for v in ppt_report(rho))
        dense = "npt_entangled" if npt else "ppt_separable_consistent"
        assert row["ppt"] == dense, row["p"]
        if abs(hermitian_eigenvalues(rho)[0]) < 1e-9:
            near_zero.append(i)
    assert near_zero == NEAR_ZERO[ec_class.value, mixing.value, D]
    if ec_class is ECClass.B:
        # one matrix up to scale, so one pair of verdicts over the whole grid
        assert len({(row["causal"], row["ppt"]) for row in rows}) == 1


# ---------------------------------------------------------------------------
# the one PPT rule, ppt_outcome, and each verdict that reads it
# ---------------------------------------------------------------------------

# a least eigenvalue at -PPT_TOL is consistent; the next float below it is NPT
RULE = [
    (-PPT_TOL, PptOutcome.PPT_SEPARABLE_CONSISTENT),
    (float(np.nextafter(-PPT_TOL, -np.inf)), PptOutcome.NPT_ENTANGLED),
]


@pytest.mark.parametrize("eigenvalue, outcome", RULE)
def test_ppt_outcome_is_npt_only_below_the_tolerance(eigenvalue, outcome):
    assert ppt_outcome(eigenvalue) is outcome


@pytest.mark.parametrize("eigenvalue, outcome", RULE)
def test_ppt_check_verdict_and_conclusive_follow_the_rule(monkeypatch, eigenvalue, outcome):
    # the cut's spectrum and rho's own both start at ``eigenvalue``
    spectrum = lambda rho, subset=None: np.array([eigenvalue, 0.5])
    monkeypatch.setattr(ppt, "hermitian_eigenvalues", spectrum)
    verdict = ppt_check(maximally_mixed(2, 2), S1)
    assert verdict.min_eigenvalue == eigenvalue
    assert verdict.verdict is outcome
    assert verdict.conclusive is (outcome is PptOutcome.PPT_SEPARABLE_CONSISTENT)


@pytest.mark.parametrize("eigenvalue, outcome", RULE)
def test_ppt_overall_follows_the_rule(monkeypatch, capsys, tmp_path, eigenvalue, outcome):
    # the least eigenvalue sits on the last cut only, so it alone decides overall
    path = tmp_path / "mixed.json"
    save_matrix(maximally_mixed(2, 3), path)
    spectrum = lambda rho, subset: np.array([eigenvalue if subset.members == (0, 2) else 0.25])
    monkeypatch.setattr(ppt, "hermitian_eigenvalues", spectrum)
    code, out, _ = run_cli(["ppt", "--input", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["verdict"] for c in payload["checks"]][:2] == ["ppt_separable_consistent"] * 2
    assert payload["checks"][2]["verdict"] == payload["overall"] == outcome.value


@pytest.mark.parametrize("eigenvalue, outcome", RULE)
def test_compare_ppt_column_follows_the_rule(monkeypatch, capsys, eigenvalue, outcome):
    # at p = 0 the class-a trace is exactly 1, so the column reads ``eigenvalue``
    monkeypatch.setattr(cli, "ec_min_eigenvalue", lambda params: eigenvalue)
    argv = ["compare", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2",
            "--steps", "1", "--p-end", "0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["p"], row["causal"]) == (0.0, "separable_by_criterion")
    assert row["ppt"] == outcome.value
    assert row["agree"] is (outcome is PptOutcome.PPT_SEPARABLE_CONSISTENT)


@pytest.mark.parametrize("eigenvalue, outcome", RULE)
def test_ec_build_note_follows_the_rule(monkeypatch, capsys, eigenvalue, outcome):
    monkeypatch.setattr(cli, "ec_min_eigenvalue", lambda params: eigenvalue)
    argv = ["ec", "build", "--class", "a", "--mixing", "weak", "--D", "2", "--N", "2", "--p", "0"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    psd = "PSD" if outcome is PptOutcome.PPT_SEPARABLE_CONSISTENT else "not PSD"
    assert err.endswith(f"min eigenvalue = {eigenvalue!r} ({psd})\n")


@pytest.mark.parametrize("p, psd", [("0.99999", "not PSD"), ("1", "PSD")])
def test_ec_build_note_reads_the_eigenvalue_over_the_trace(capsys, p, psd):
    # the class-b eigenvalue scales with the trace (8.0e-15 at p = 0.99999),
    # so the note reads it over the trace, as compare's ppt column does; at
    # p = 1 the matrix is zero and reads PSD
    argv = ["--class", "b", "--mixing", "strong", "--D", "3", "--N", "3"]
    code, _, err = run_cli(["ec", "build", *argv, "--p", p], capsys)
    assert code == 0
    assert err.endswith(f" ({psd})\n") and "Traceback" not in err
    if p == "1":
        assert "trace = 0.0," in err
        return
    code, out, _ = run_cli(["compare", *argv, "--m-abs", "1", "--p-start", p, "--p-end", p,
                            "--steps", "1"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["ppt"] == "npt_entangled"
