import json

import numpy as np
import pytest

from causal_sep.config_calculus import CouplingMode
from causal_sep.density import (
    DensityMatrix,
    PartySubset,
    bell_state,
    canonical_subsets,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_transpose,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, all_variants, build_ec_matrix
from causal_sep.ppt import PptOutcome, any_npt, ppt_check, ppt_report

from conftest import run_cli

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
    assert not any_npt(report)


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
        dense = "npt_entangled" if any_npt(ppt_report(rho)) else "ppt_separable_consistent"
        assert row["ppt"] == dense, row["p"]
        if abs(hermitian_eigenvalues(rho)[0]) < 1e-9:
            near_zero.append(i)
    assert near_zero == NEAR_ZERO[ec_class.value, mixing.value, D]
    if ec_class is ECClass.B:
        # one matrix up to scale, so one pair of verdicts over the whole grid
        assert len({(row["causal"], row["ppt"]) for row in rows}) == 1
