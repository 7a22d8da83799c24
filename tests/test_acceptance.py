"""End-to-end acceptance checks.

Eight criteria, one test each.  Every test prints a single PASS line
(with its wall-clock time) when all of its assertions hold, and enforces
a time budget so a quadratic regression in the hot paths shows up here.
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
PASS lines on a green run).
"""
import time

import numpy as np
import pytest
from scipy.optimize import bisect

from causal_sep.config_calculus import (
    CouplingMode,
    count_configurations,
    partition_distinct,
)
from causal_sep.criterion import (
    OverallVerdict,
    causal_W,
    classify,
)
from causal_sep.density import (
    PartySubset,
    hermitian_eigenvalues,
    partial_transpose,
)
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    Mixing,
    build_ec_matrix,
    closed_form_W,
    duality_residuals,
    ec_operator,
    threshold,
)
from causal_sep.ppt import PptOutcome, ppt_report

from conftest import (
    bell_state,
    complement,
    maximally_mixed,
    random_hermitian,
    transpose_parties,
)

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED
A, B = ECClass.A, ECClass.B
WEAK, STRONG = Mixing.WEAK, Mixing.STRONG

ALL_VARIANTS = [
    (mixing, coupling)
    for mixing in (WEAK, STRONG)
    for coupling in (FREE, COUPLED)
]


def _done(num: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        f"criterion {num} overran its {budget:.0f}s budget: {elapsed:.2f}s"
    )
    print(f"[criterion {num}] {label}: PASS ({elapsed:.2f}s)")


def _sign(x: float, tol: float = 1e-12) -> int:
    return 1 if x > tol else (-1 if x < -tol else 0)


# ---------------------------------------------------------------------------
# 1. configuration counting
# ---------------------------------------------------------------------------

def test_criterion_1_configuration_counts():
    t0 = time.perf_counter()
    assert count_configurations(2, 2, FREE).K == 2
    assert count_configurations(2, 3, FREE).K == 4
    for N in range(2, 13):
        assert count_configurations(2, N, FREE).K == 2 ** (N - 1)
        assert count_configurations(2, N, COUPLED).K == 2 ** (N - 1)
    for D in range(2, 7):
        for N in range(2, 7):
            for mode in (FREE, COUPLED):
                census = count_configurations(D, N, mode)
                assert census.K + census.K_bar == D**N
            assert count_configurations(D, N, COUPLED).K == D ** (N - 1)
    _done(1, "configuration counts", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. criterion vs PPT on two qubits (where PPT is conclusive)
# ---------------------------------------------------------------------------

def test_criterion_2_two_qubit_agreement_with_ppt():
    t0 = time.perf_counter()
    causal_verdicts = []
    ppt_verdicts = []
    for i in range(101):
        p = i / 100
        rho = build_ec_matrix(ECParams(A, STRONG, FREE, 2, 2, p))
        causal_verdicts.append(
            classify(rho, FREE).overall is OverallVerdict.ENTANGLED
        )
        ppt_verdicts.append(
            any(v.verdict is PptOutcome.NPT_ENTANGLED for v in ppt_report(rho))
        )
    assert causal_verdicts == ppt_verdicts
    # a single boundary, sitting at the closed-form threshold p = 1/2
    flips = [
        i for i in range(1, 101) if causal_verdicts[i] != causal_verdicts[i - 1]
    ]
    assert len(flips) == 1
    last_separable = flips[0] - 1
    assert last_separable == 50
    assert abs(last_separable / 100 - 0.5) <= 0.005
    _done(2, "two-qubit agreement with the PPT oracle", t0, 5.0)


# ---------------------------------------------------------------------------
# 3. closed-form thresholds vs independent root finding
# ---------------------------------------------------------------------------

def test_criterion_3_thresholds_match_bisection_roots():
    t0 = time.perf_counter()
    for D in range(2, 7):
        for N in range(2, 6):
            for mixing, coupling in ALL_VARIANTS:
                # class a: single root of W(p) on (0, 1]
                th = threshold(A, mixing, coupling, D, N)

                def w_a(p):
                    return closed_form_W(ECParams(A, mixing, coupling, D, N, p))

                root = bisect(w_a, 1e-9, 1.0, xtol=1e-12)
                assert abs(root - th.p_th) <= 1e-8, (D, N, mixing, coupling)
                if D == 2:
                    assert th.p_th == 0.5

                # class b: the two window roots are the zeros of the two
                # signed branches at m_j = N
                for m_abs in range(1, N):
                    th_b = threshold(B, mixing, coupling, D, N, m_abs)
                    roots = []
                    for m in (m_abs, -m_abs):

                        def w_b(p, m=m):
                            return closed_form_W(
                                ECParams(B, mixing, coupling, D, N, p),
                                m_j=N,
                                m=m,
                            )

                        roots.append(bisect(w_b, 1e-9, 1.0 - 1e-9, xtol=1e-12))
                    lo, hi = sorted(roots)
                    assert abs(lo - th_b.p_th1) <= 1e-8, (D, N, mixing, coupling, m_abs)
                    assert abs(hi - th_b.p_th2) <= 1e-8, (D, N, mixing, coupling, m_abs)
                    assert th_b.p_th1 <= th_b.p_th2
                    if D == 2:
                        assert th_b.p_th1 == 0.5 and th_b.p_th2 == 0.5
    _done(3, "all eight threshold formulas vs bisection", t0, 10.0)


# ---------------------------------------------------------------------------
# 4. closed-form W vs the matrix-level criterion
# ---------------------------------------------------------------------------

def test_criterion_4_closed_form_matches_matrix_route():
    t0 = time.perf_counter()
    for D in (2, 3):
        for N in (2, 3):
            s0 = PartySubset((0,), N)
            j0 = (0,) * N
            distinct = [tuple(j) for j in partition_distinct(D, N).distinct.tolist()]
            for mixing in (WEAK, STRONG):
                for i in range(101):
                    p = i / 100
                    params = ECParams(A, mixing, FREE, D, N, p)
                    rho = build_ec_matrix(params)
                    w_closed = closed_form_W(params)
                    score = causal_W(rho, j0, s0, FREE)
                    assert _sign(score.W) == _sign(w_closed), (D, N, mixing, p)
                    assert score.P_ignorance == pytest.approx(
                        (1 - p) ** N * p**N, abs=1e-10
                    )
                    if D == 2:
                        # every distinct configuration carries the same
                        # verdict for qubit sites
                        for j in distinct:
                            w_j = causal_W(rho, j, s0, FREE).W
                            assert _sign(w_j) == _sign(w_closed), (N, mixing, p, j)
    # at D^N = 4096 the matrix route reads the site factors, as ec sweep does
    for D, N in ((2, 12), (4, 6)):
        s0 = PartySubset((0,), N)
        j0 = (0,) * N
        for mixing in (WEAK, STRONG):
            for i in range(101):
                p = i / 100
                params = ECParams(A, mixing, FREE, D, N, p)
                score = causal_W(ec_operator(params), j0, s0, FREE)
                assert _sign(score.W) == _sign(closed_form_W(params)), (D, N, mixing, p)
                assert score.P_ignorance == pytest.approx(
                    (1 - p) ** N * p**N, abs=1e-10
                )
    _done(4, "closed-form W vs matrix-level W", t0, 30.0)


# ---------------------------------------------------------------------------
# 5. threshold dualities
# ---------------------------------------------------------------------------

def test_criterion_5_dualities_hold():
    t0 = time.perf_counter()
    for D in range(2, 11):
        for N in range(2, 7):
            r_a, r_b = duality_residuals(D, N)
            assert abs(r_a) <= 1e-14, (D, N)
            assert abs(r_b) <= 1e-14, (D, N)
    _done(5, "mixing/coupling threshold dualities", t0, 1.0)


# ---------------------------------------------------------------------------
# 6. extreme-regime stability
# ---------------------------------------------------------------------------

def test_criterion_6_extreme_regimes():
    t0 = time.perf_counter()
    assert threshold(A, WEAK, FREE, 10**6, 2).p_th > 0.999
    assert abs(threshold(A, STRONG, FREE, 3, 100).p_th - 0.5) < 0.05
    th = threshold(B, WEAK, FREE, 3, 500, 1)
    assert th.p_th1 < 1e-6 and th.p_th2 > 1 - 1e-6
    th = threshold(B, WEAK, FREE, 4, 500, 499)
    assert abs(th.p_th1 - 0.25) < 1e-3 and abs(th.p_th2 - 0.75) < 1e-3
    _done(6, "extreme-parameter stability", t0, 1.0)


# ---------------------------------------------------------------------------
# 7. structural invariants on random Hermitian matrices
# ---------------------------------------------------------------------------

def test_criterion_7_random_matrix_invariants():
    t0 = time.perf_counter()
    dims = [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (2, 5), (4, 2), (2, 6), (3, 4), (9, 2)]
    rng = np.random.default_rng(2024)
    for trial in range(100):
        D, N = dims[trial % len(dims)]
        rho = random_hermitian(D, N, rng)
        mask1, mask2 = int(rng.integers(1, 2**N - 1)), int(rng.integers(0, 2**N))
        s1 = tuple(i for i in range(N) if mask1 >> i & 1)
        s2 = tuple(i for i in range(N) if mask2 >> i & 1)

        subset = PartySubset(s1, N)
        moved = partial_transpose(rho, subset)
        assert np.array_equal(partial_transpose(moved, subset).matrix, rho.matrix)
        chained = transpose_parties(moved, s2)
        merged = tuple(sorted(set(s1) ^ set(s2)))
        assert np.array_equal(chained.matrix, transpose_parties(rho, merged).matrix)

        assert abs(moved.trace() - rho.trace()) <= 1e-13
        assert np.max(np.abs(moved.matrix - moved.matrix.conj().T)) == 0.0

        eig = hermitian_eigenvalues(moved)
        eig_c = hermitian_eigenvalues(partial_transpose(rho, complement(subset)))
        assert np.allclose(eig, eig_c, atol=1e-10)

        j = tuple(int(x) for x in rng.integers(0, D, size=N))
        w = causal_W(rho, j, subset, FREE).W
        w_c = causal_W(rho, j, complement(subset), FREE).W
        assert abs(w - w_c) <= 1e-12
    _done(7, "partial-transpose and criterion invariants", t0, 60.0)


# ---------------------------------------------------------------------------
# 8. canonical states end to end
# ---------------------------------------------------------------------------

def test_criterion_8_canonical_states():
    t0 = time.perf_counter()
    psi = bell_state("psi+")
    report = classify(psi, FREE)
    assert report.overall is OverallVerdict.ENTANGLED
    w00 = causal_W(psi, (0, 0), PartySubset((0,), 2), FREE).W
    w00_other = causal_W(psi, (0, 0), PartySubset((1,), 2), FREE).W
    assert w00 == pytest.approx(-0.25, abs=1e-12)
    assert w00_other == pytest.approx(-0.25, abs=1e-12)

    phi = bell_state("phi+")
    report = classify(phi, FREE)
    assert report.overall is OverallVerdict.ENTANGLED
    by_config = {s.config: s.W for s in report.scores}
    assert by_config[(0, 1)] == pytest.approx(-0.25, abs=1e-12)

    for D in (2, 3):
        for N in (2, 3):
            mixed = maximally_mixed(D, N)
            assert (
                classify(mixed, FREE).overall
                is OverallVerdict.SEPARABLE_BY_CRITERION
            )
            assert not any(v.verdict is PptOutcome.NPT_ENTANGLED for v in ppt_report(mixed))
    _done(8, "canonical entangled and separable states", t0, 5.0)
