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
from causal_sep.ppt import (
    PptOutcome,
    any_npt,
    ph_determinants_2x2,
    ppt_check,
    ppt_report,
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
