import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from causal_sep.config_calculus import CouplingMode
from causal_sep.criterion import (
    GATHER_BYTES,
    OverallVerdict,
    ScoreVerdict,
    causal_W,
    classify,
    ignorance_probability,
    transition_probability,
)
from causal_sep.density import (
    DensityMatrix,
    PartySubset,
    basis_state,
    bell_state,
    maximally_mixed,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, build_ec_matrix
from causal_sep.ppt import PptOutcome, ppt_check

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED
S0 = PartySubset((0,), 2)
S1 = PartySubset((1,), 2)


def test_ignorance_examples():
    mm = maximally_mixed(2, 2)
    assert ignorance_probability(mm, (0, 0), FREE) == 0.0625
    assert ignorance_probability(basis_state((0, 0), 2), (0, 0), FREE) == 0.0
    # free mode sums all completely orthogonal partners
    mm3 = maximally_mixed(3, 2)
    assert ignorance_probability(mm3, (0, 0), FREE) == pytest.approx(4 / 81)
    assert ignorance_probability(mm3, (0, 0), COUPLED) == pytest.approx(2 / 81)


def test_transition_examples():
    assert transition_probability(maximally_mixed(2, 2), (0, 0), S1, FREE) == 0.0
    assert transition_probability(bell_state("psi+"), (0, 0), S1, FREE) == 0.25
    ec = build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, FREE, D=2, N=2, p=0.5))
    assert transition_probability(ec, (0, 0), S1, FREE) == 0.0625


def test_transition_nonnegative_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_hermitian(2, 2, rng)
        assert transition_probability(rho, (0, 1), S0, FREE) >= 0.0


def test_bell_psi_plus_score():
    score = causal_W(bell_state("psi+"), (0, 0), S1, FREE)
    assert score.W == -0.25
    assert score.P_ignorance == 0.0
    assert score.P_transition == 0.25
    assert score.verdict is ScoreVerdict.M_ENTANGLED
    # complement subset gives the same number
    assert causal_W(bell_state("psi+"), (0, 0), S0, FREE).W == -0.25


def test_maximally_mixed_score():
    score = causal_W(maximally_mixed(2, 2), (0, 0), S1, FREE)
    assert score.W == 0.0625
    assert score.verdict is ScoreVerdict.M_SEPARABLE


def test_w_is_difference():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rho = random_state(2, 2, rng)
        s = causal_W(rho, (0, 1), S0, FREE)
        assert s.W == pytest.approx(s.P_ignorance - s.P_transition, abs=1e-12)


def test_decomposition_identity():
    # separable branch: P_ignorance = P_transition + |W|; entangled branch:
    # P_transition = P_ignorance + |W|
    rng = np.random.default_rng(31)
    for _ in range(25):
        rho = random_state(2, 2, rng)
        s = causal_W(rho, (0, 0), S1, FREE)
        if s.verdict is ScoreVerdict.M_SEPARABLE:
            assert s.P_ignorance == pytest.approx(s.P_transition + abs(s.W), abs=1e-14)
        else:
            assert s.P_transition == pytest.approx(s.P_ignorance + abs(s.W), abs=1e-14)


def test_subset_complement_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rho = random_hermitian(2, 3, rng)
        s = PartySubset((0, 2), 3)
        a = causal_W(rho, (0, 1, 1), s, FREE).W
        b = causal_W(rho, (0, 1, 1), s.complement(), FREE).W
        assert a == pytest.approx(b, abs=1e-12)


def test_scaling_moves_w_quadratically():
    rng = np.random.default_rng(41)
    rho = random_hermitian(2, 2, rng)
    w1 = causal_W(rho, (0, 0), S0, FREE).W
    scaled = DensityMatrix(D=2, N=2, matrix=3.0 * rho.matrix, normalized=False)
    w9 = causal_W(scaled, (0, 0), S0, FREE).W
    assert w9 == pytest.approx(9.0 * w1, rel=1e-12)


def test_classify_bell():
    report = classify(bell_state("psi+"), FREE)
    assert report.overall is OverallVerdict.ENTANGLED
    by_config = {s.config: s for s in report.scores}
    assert by_config[(0, 0)].W == -0.25
    # phi+ is flagged through the other distinct configuration
    report = classify(bell_state("phi+"), FREE)
    assert report.overall is OverallVerdict.ENTANGLED
    by_config = {s.config: s for s in report.scores}
    assert by_config[(0, 1)].W == -0.25
    assert by_config[(0, 0)].W == 0.25


def test_classify_mixed_separable():
    for D, N in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        report = classify(maximally_mixed(D, N), FREE)
        assert report.overall is OverallVerdict.SEPARABLE_BY_CRITERION
        assert all(s.W > 0 for s in report.scores)


def test_classify_score_grid_shape():
    report = classify(maximally_mixed(2, 3), FREE)
    # 4 distinct configurations x 3 canonical subsets
    assert len(report.scores) == 12
    assert report.scores[0].subset.members == (0,)


def test_classify_requires_normalized():
    rho = DensityMatrix(D=2, N=2, matrix=np.eye(4), normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        classify(rho, FREE)


def test_classify_agrees_with_ppt_on_two_qubits():
    for i in range(0, 101, 5):
        p = i / 100
        rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, FREE, D=2, N=2, p=p))
        causal = classify(rho, FREE).overall is OverallVerdict.ENTANGLED
        npt = ppt_check(rho, S1).verdict is PptOutcome.NPT_ENTANGLED
        assert causal == npt, f"p={p}"


def test_report_to_dict():
    d = classify(bell_state("psi+"), FREE).to_dict()
    assert d["mode"] == "free"
    assert d["overall"] == "entangled"
    assert d["scores"][0] == {
        "config": [0, 0],
        "subset": [0],
        "P_ignorance": 0.0,
        "P_transition": 0.25,
        "W": -0.25,
        "verdict": "m_entangled",
    }


def test_coupled_mode_swaps_partner_families():
    mm3 = maximally_mixed(3, 2)
    s = PartySubset((0,), 2)
    # diagonal matrix: transitions vanish either way, but ignorance shrinks
    # to the two cyclic-shift partners in coupled mode
    free = causal_W(mm3, (0, 0), s, FREE)
    coupled = causal_W(mm3, (0, 0), s, COUPLED)
    assert free.P_ignorance == pytest.approx(4 / 81)
    assert coupled.P_ignorance == pytest.approx(2 / 81)


@pytest.mark.parametrize("label", [-1, 2, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda rho, j: causal_W(rho, j, S0, FREE),
        lambda rho, j: transition_probability(rho, j, S0, FREE),
        lambda rho, j: ignorance_probability(rho, j, FREE),
    ],
    ids=["causal_W", "transition_probability", "ignorance_probability"],
)
def test_bad_labels_rejected_before_the_gather(call, label):
    # numpy would wrap -1 and index past D silently; the label check runs first
    message = re.escape(f"label {label!r} out of range for D=2")
    with pytest.raises(ValueError, match=message):
        call(maximally_mixed(2, 2), (0, label))


def test_classify_two_qubit_ten_parties_memory_bound():
    # one materialized partial transpose per subset needed 511 x 16.8 MB here
    rng = np.random.default_rng(43)
    g = rng.normal(size=(1024, 4)) + 1j * rng.normal(size=(1024, 4))
    m = g @ g.conj().T
    rho = DensityMatrix(D=2, N=10, matrix=m / np.trace(m).real, normalized=True)
    for mode in (FREE, COUPLED):
        tracemalloc.start()
        try:
            report = classify(rho, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < GATHER_BYTES
        assert report.W.shape == (512, 511)
        assert report.overall is OverallVerdict.ENTANGLED
