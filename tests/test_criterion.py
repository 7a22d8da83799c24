import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    basis_state,
    bell_state,
    complement,
    ghz_mixture,
    maximally_mixed,
    random_hermitian,
    random_product_mixture,
    random_state,
)
from causal_sep.config_calculus import CouplingMode
from causal_sep.criterion import (
    GATHER_BYTES,
    OverallVerdict,
    ScoreVerdict,
    causal_W,
    classify,
)
from causal_sep.density import (
    ROW_BLOCK_BYTES,
    DensityMatrix,
    PartySubset,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, build_ec_matrix
from causal_sep.ppt import PptOutcome, ppt_check

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED
S0 = PartySubset((0,), 2)
S1 = PartySubset((1,), 2)


def test_ignorance_examples():
    mm = maximally_mixed(2, 2)
    assert causal_W(mm, (0, 0), S0, FREE).P_ignorance == 0.0625
    assert causal_W(basis_state((0, 0), 2), (0, 0), S0, FREE).P_ignorance == 0.0
    # free mode sums all completely orthogonal partners
    mm3 = maximally_mixed(3, 2)
    assert causal_W(mm3, (0, 0), S0, FREE).P_ignorance == pytest.approx(4 / 81)
    assert causal_W(mm3, (0, 0), S0, COUPLED).P_ignorance == pytest.approx(2 / 81)


def test_transition_examples():
    assert causal_W(maximally_mixed(2, 2), (0, 0), S1, FREE).P_transition == 0.0
    assert causal_W(bell_state("psi+"), (0, 0), S1, FREE).P_transition == 0.25
    ec = build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, FREE, D=2, N=2, p=0.5))
    assert causal_W(ec, (0, 0), S1, FREE).P_transition == 0.0625


def test_transition_nonnegative_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_hermitian(2, 2, rng)
        assert causal_W(rho, (0, 1), S0, FREE).P_transition >= 0.0


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
        b = causal_W(rho, (0, 1, 1), complement(s), FREE).W
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
def test_bad_labels_rejected_before_the_gather(label):
    # numpy would wrap -1 and index past D silently; the label check runs first
    message = re.escape(f"label {label!r} out of range for D=2")
    with pytest.raises(ValueError, match=message):
        causal_W(maximally_mixed(2, 2), (0, label), S0, FREE)


@pytest.mark.parametrize("mode", [FREE, COUPLED])
def test_causal_w_takes_a_configuration_of_the_report(mode):
    # report.configs holds numpy integers; a row of it is a configuration
    rho = random_state(3, 3, np.random.default_rng(7))
    report = classify(rho, mode)
    for k in (0, 1, len(report.configs) - 1):
        j = report.configs[k]
        row = causal_W(rho, j, report.subsets[1], mode)
        assert row == causal_W(rho, tuple(j.tolist()), report.subsets[1], mode)
        assert row.W == report.W[k, 1]


@pytest.mark.parametrize(
    "j, subset, message",
    [
        ((0,), S0, "configuration (0,) has length 1, expected N=2"),
        ((0, 0), PartySubset((0,), 3), "subset is over N=3 parties but the matrix has N=2"),
    ],
    ids=["short-configuration", "subset-over-three-parties"],
)
def test_configuration_and_subset_must_match_the_matrix_n(j, subset, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        causal_W(maximally_mixed(2, 2), j, subset, FREE)


def test_classify_two_qubit_ten_parties_memory_bound():
    # one materialized partial transpose per subset needed 511 x 16.8 MB here;
    # the report keeps only the measured arrays (2.1 MB), and W and entangled
    # (2.3 MB more) are computed when read; the gather's temporaries stay
    # under its budget, one ROW_BLOCK_BYTES, as every streamed pass's do
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
        arrays = (report.configs, report.P_ignorance, report.P_transition)
        assert GATHER_BYTES == ROW_BLOCK_BYTES
        assert peak < ROW_BLOCK_BYTES + sum(a.nbytes for a in arrays)
        assert report.W.shape == (512, 511)
        assert report.overall is OverallVerdict.ENTANGLED


def test_coupled_mode_reads_a_qutrit_product_state_entangled():
    # |+>|+> on two qutrits, |+> = (|0> + |1> + |2>)/sqrt(3), every entry 1/9:
    # a product state, PPT on its one cut.  Free mode reads it separable;
    # coupled mode, whose W is minus free mode's on a pure product state, reads
    # it entangled: at D >= 3 a coupled `entangled` certifies nothing.  A
    # regression record of the code, not a target
    rho = DensityMatrix(3, 2, np.full((9, 9), 1 / 9))
    free, coupled = classify(rho, FREE), classify(rho, COUPLED)
    assert free.overall is OverallVerdict.SEPARABLE_BY_CRITERION
    assert free.W.min() == pytest.approx(2 / 81, abs=1e-15)
    assert coupled.overall is OverallVerdict.ENTANGLED
    assert coupled.W.min() == pytest.approx(-2 / 81, abs=1e-15)
    assert ppt_check(rho, S0).verdict is PptOutcome.PPT_SEPARABLE_CONSISTENT


@pytest.mark.parametrize("D", [3, 4])
def test_coupled_mode_reads_random_pure_product_states_entangled(D):
    # Haar-random pure product states on two sites of D >= 3 levels: coupled
    # mode reads every one entangled, free mode none.  A regression record of
    # the code, not a target
    rng = np.random.default_rng(20261020 + D)
    for _ in range(20):
        rho = random_product_mixture(D, 2, rng)
        assert classify(rho, COUPLED).overall is OverallVerdict.ENTANGLED
        assert classify(rho, FREE).overall is OverallVerdict.SEPARABLE_BY_CRITERION


@pytest.mark.parametrize("N", range(2, 7))
def test_free_and_coupled_modes_are_one_test_at_d2(N):
    # at D = 2 the one cyclic shift of a configuration is its one completely
    # orthogonal partner, so the two modes swap two equal families
    rng = np.random.default_rng(N)
    for rho in [random_state(2, N, rng) for _ in range(5)] + [ghz_mixture(2, N, 0.9)]:
        free, coupled = classify(rho, FREE), classify(rho, COUPLED)
        for name in ("P_ignorance", "P_transition", "W", "entangled"):
            assert getattr(free, name).tobytes() == getattr(coupled, name).tobytes(), name
    assert free.overall is OverallVerdict.ENTANGLED  # the GHZ mixture
