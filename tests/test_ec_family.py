import json
import math

import numpy as np
import pytest

from causal_sep.config_calculus import CouplingMode
from causal_sep.criterion import causal_W
from causal_sep.density import PartySubset, hermitian_eigenvalues
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    ECVerdict,
    Mixing,
    ThresholdKind,
    build_ec_matrix,
    classify_ec,
    closed_form_W,
    crossover_N,
    all_variants,
    duality_residuals,
    ec_operator,
    renormalized_threshold,
    threshold,
)

from conftest import run_cli

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED
A, B = ECClass.A, ECClass.B
WEAK, STRONG = Mixing.WEAK, Mixing.STRONG


def params(ec_class=A, mixing=WEAK, coupling=FREE, D=2, N=2, p=0.5, b_sites=None):
    return ECParams(ec_class, mixing, coupling, D, N, p, b_sites)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        params(D=1)
    with pytest.raises(ValueError):
        params(N=1)
    with pytest.raises(ValueError):
        params(p=1.5)
    with pytest.raises(ValueError, match=r"\|p\| <= 1, got \|p\| = nan"):
        params(p=float("nan"))
    with pytest.raises(ValueError, match="real"):
        params(ec_class=B, p=complex(0.5, float("nan")))
    with pytest.raises(ValueError, match=r"\[0, 1\], got nan"):
        params(ec_class=B, p=float("nan"))
    with pytest.raises(ValueError):
        params(ec_class=B, p=0.5 + 0.1j)
    with pytest.raises(ValueError):
        params(ec_class=B, p=-0.2)
    with pytest.raises(ValueError):
        params(ec_class=B, b_sites=(1, 0, 1))  # wrong length for N=2
    with pytest.raises(ValueError):
        params(ec_class=B, b_sites=(1, 2))
    with pytest.raises(ValueError):
        params(ec_class=A, b_sites=(1, 1))


def test_params_b_defaults():
    prm = params(ec_class=B, p=0.3)
    assert prm.b_sites == (1, 1)
    assert params(ec_class=B, N=4, p=0.3).b_sites == (1, 1, 1, 1)


def test_params_complex_phase_allowed_for_a():
    prm = params(p=0.5j)
    assert prm.p_abs == 0.5


# ---------------------------------------------------------------------------
# a-class matrices
# ---------------------------------------------------------------------------

def test_build_a_strong_two_qubits():
    p = 0.3
    rho = build_ec_matrix(params(mixing=STRONG, p=p))
    expected = np.diag([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p**2]).astype(complex)
    anti = np.zeros((4, 4))
    anti[0, 3] = anti[1, 2] = anti[2, 1] = anti[3, 0] = p**2
    assert np.allclose(rho.matrix, expected + anti, atol=1e-15)
    assert rho.normalized
    assert rho.trace() == pytest.approx(1.0, abs=1e-14)


def test_build_a_weak_equals_strong_for_qubits():
    # the 1/(D-1) off-diagonal dilution is trivial at D=2
    w = build_ec_matrix(params(mixing=WEAK, p=0.4))
    s = build_ec_matrix(params(mixing=STRONG, p=0.4))
    assert np.array_equal(w.matrix, s.matrix)


def test_build_a_pure_limit():
    rho = build_ec_matrix(params(p=0.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_build_a_trace_one_any_dims():
    for D, N in [(2, 3), (3, 2), (3, 3), (5, 2)]:
        for mixing in (WEAK, STRONG):
            rho = build_ec_matrix(params(mixing=mixing, D=D, N=N, p=0.37))
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            assert rho.normalized


def test_build_a_phase_invariance():
    # a complex phase on p cancels in every |entry| and in W
    flat = build_ec_matrix(params(D=3, N=2, p=0.5))
    phased = build_ec_matrix(params(D=3, N=2, p=0.5 * np.exp(0.7j)))
    assert np.allclose(np.abs(flat.matrix), np.abs(phased.matrix), atol=1e-15)
    s = PartySubset((0,), 2)
    w_flat = causal_W(flat, (0, 0), s, FREE).W
    w_phased = causal_W(phased, (0, 0), s, FREE).W
    assert w_phased == pytest.approx(w_flat, abs=1e-15)


def test_build_a_not_psd_at_large_p():
    rho = build_ec_matrix(params(mixing=STRONG, p=0.9))
    assert hermitian_eigenvalues(rho)[0] < -1e-3


def test_build_coupling_does_not_change_matrix():
    free = build_ec_matrix(params(coupling=FREE, D=3, N=2, p=0.6))
    coupled = build_ec_matrix(params(coupling=COUPLED, D=3, N=2, p=0.6))
    assert np.array_equal(free.matrix, coupled.matrix)


def test_build_dim_cap():
    with pytest.raises(ValueError, match="cap"):
        build_ec_matrix(params(D=2, N=13))
    with pytest.raises(ValueError, match="D\\^N = 8192 exceeds the dimension cap 4096"):
        ec_operator(params(D=2, N=13))


# ---------------------------------------------------------------------------
# b-class matrices
# ---------------------------------------------------------------------------

def test_build_b_two_qubits_structure():
    p = 0.3
    rho = build_ec_matrix(params(ec_class=B, p=p))
    f = 1 - p
    expected = f**2 * np.eye(4)
    for i, j in [(0, 3), (1, 2), (2, 1), (3, 0)]:
        expected[i, j] += f**2
    assert np.allclose(rho.matrix, expected, atol=1e-15)
    assert rho.trace() == pytest.approx(4 * f**2, abs=1e-12)
    assert not rho.normalized


def test_build_b_trace_formula():
    # trace = prod_n 2 f_n with f_n = (1-p) or p by the site pattern
    p = 0.3
    rho = build_ec_matrix(params(ec_class=B, N=3, p=p, b_sites=(1, 0, 1)))
    assert rho.trace() == pytest.approx(8 * (1 - p) ** 2 * p, abs=1e-12)


def test_build_b_normalized_flag_detects_unit_trace():
    # all-ones pattern at p = 1/2, D = 2: trace = 4 * (1/2)^2 = 1
    rho = build_ec_matrix(params(ec_class=B, p=0.5))
    assert rho.normalized


def test_build_b_strong_vs_weak_off_diagonals():
    weak = build_ec_matrix(params(ec_class=B, D=3, N=2, p=0.3, mixing=WEAK))
    strong = build_ec_matrix(params(ec_class=B, D=3, N=2, p=0.3, mixing=STRONG))
    # same diagonal, off-diagonal amplified by (D-1)^N
    assert np.allclose(np.diag(weak.matrix), np.diag(strong.matrix))
    off_w = weak.matrix - np.diag(np.diag(weak.matrix))
    off_s = strong.matrix - np.diag(np.diag(strong.matrix))
    assert np.allclose(off_s, 4 * off_w, atol=1e-14)


# ---------------------------------------------------------------------------
# closed-form W
# ---------------------------------------------------------------------------

def test_closed_form_a_values():
    assert closed_form_W(params(mixing=WEAK, p=0.25)) == 0.03125
    assert closed_form_W(params(mixing=STRONG, p=0.75)) == -0.28125
    assert closed_form_W(params(mixing=WEAK, p=1.0)) == -1.0
    assert closed_form_W(params(mixing=WEAK, p=0.5)) == 0.0


def test_closed_form_a_ignores_phase():
    w = closed_form_W(params(D=4, N=3, p=0.6))
    w_phase = closed_form_W(params(D=4, N=3, p=0.6 * np.exp(1.1j)))
    assert w_phase == pytest.approx(w, abs=1e-15)


def test_closed_form_a_coupled_values():
    # weak coupled carries the as-printed p^2N prefactor
    p, D, N = 0.4, 3, 2
    x = D - 1.0
    expected = (p ** (2 * N) / x**N) * (x * (1 - p) ** N - p**N)
    assert closed_form_W(params(coupling=COUPLED, D=D, N=N, p=p)) == pytest.approx(
        expected, abs=1e-15
    )
    expected_s = p**N * ((1 - p) ** N / x ** (N - 1) - x**N * p**N)
    assert closed_form_W(
        params(mixing=STRONG, coupling=COUPLED, D=D, N=N, p=p)
    ) == pytest.approx(expected_s, abs=1e-15)


def test_closed_form_b_needs_m():
    with pytest.raises(ValueError, match="m_j"):
        closed_form_W(params(ec_class=B, p=0.3))
    with pytest.raises(ValueError):
        closed_form_W(params(ec_class=B, p=0.3), m_j=3, m=1)  # m_j > N
    with pytest.raises(ValueError):
        closed_form_W(params(ec_class=B, p=0.3), m_j=2, m=0)
    with pytest.raises(ValueError):
        closed_form_W(params(ec_class=B, p=0.3), m_j=2, m=2)  # |m| > N-1


def test_closed_form_b_values():
    # D=2: bracket constant is 1, so W = pref * (1 - ((1-p)/p)^{-2m})
    p = 0.25
    prm = params(ec_class=B, p=p)
    pref = (1 - p) ** 4
    ratio = ((1 - p) / p) ** (-2)
    assert closed_form_W(prm, m_j=2, m=1) == pytest.approx(pref * (1 - ratio), abs=1e-15)
    # vanishes identically at p = 1/2 for D = 2
    assert closed_form_W(params(ec_class=B, p=0.5), m_j=2, m=1) == 0.0
    assert closed_form_W(params(ec_class=B, p=0.5), m_j=1, m=-1) == 0.0


def test_closed_form_b_free_vs_coupled_prefactor():
    # coupled = free bracket swap plus the 1/(D-1)^{N-1} prefactor
    p, D, N = 0.35, 4, 3
    prm_f = params(ec_class=B, mixing=WEAK, coupling=FREE, D=D, N=N, p=p)
    prm_c = params(ec_class=B, mixing=WEAK, coupling=COUPLED, D=D, N=N, p=p)
    x = D - 1.0
    pref = (1 - p) ** (2 * 3) * p ** (2 * 0)
    r = ((1 - p) / p) ** (-2 * 2)
    assert closed_form_W(prm_f, m_j=3, m=2) == pytest.approx(
        pref * (1 - r / x**5), abs=1e-14
    )
    assert closed_form_W(prm_c, m_j=3, m=2) == pytest.approx(
        (pref / x**2) * (1 - r / x), abs=1e-14
    )


def test_closed_form_b_endpoints():
    # p = 0 with m_j = N stays finite...
    assert closed_form_W(params(ec_class=B, p=0.0), m_j=2, m=1) == 1.0
    # ...but the m < 0 branch genuinely diverges there
    with pytest.raises(ValueError, match="diverges"):
        closed_form_W(params(ec_class=B, p=0.0), m_j=2, m=-1)
    with pytest.raises(ValueError, match="diverges"):
        closed_form_W(params(ec_class=B, N=3, p=1.0), m_j=1, m=2)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_a_examples():
    for N in (2, 3, 7):
        assert threshold(A, WEAK, FREE, 2, N).p_th == 0.5
    assert threshold(A, WEAK, FREE, 5, 2).p_th == pytest.approx(8 / 9, abs=1e-15)
    assert threshold(A, STRONG, FREE, 3, 2).p_th == pytest.approx(
        1 / (1 + math.sqrt(2)), abs=1e-15
    )
    th = threshold(A, WEAK, FREE, 2, 2)
    assert th.kind is ThresholdKind.SINGLE
    assert th.p_th1 == th.p_th2 == th.p_th
    assert "|p|" in th.separable_region


def test_threshold_a_monotonic_in_D():
    weak = [threshold(A, WEAK, FREE, D, 3).p_th for D in range(2, 51)]
    strong = [threshold(A, STRONG, FREE, D, 3).p_th for D in range(2, 51)]
    assert all(a < b for a, b in zip(weak, weak[1:]))
    assert all(a > b for a, b in zip(strong, strong[1:]))


def test_threshold_a_extreme_D_stable():
    assert threshold(A, WEAK, FREE, 10**6, 2).p_th > 0.999
    assert threshold(A, STRONG, FREE, 10**10, 2).p_th < 0.1
    # no overflow even with absurd parameters
    assert 0.0 < threshold(A, STRONG, COUPLED, 10**9, 2).p_th < 1e-13


def test_threshold_b_window_example():
    th = threshold(B, WEAK, FREE, 3, 2, 1)
    assert th.kind is ThresholdKind.WINDOW
    assert th.p_th1 == pytest.approx(1 / (1 + 2**1.5), abs=1e-12)
    assert th.p_th2 == pytest.approx(1 / (1 + 2**-1.5), abs=1e-12)
    assert th.window == (th.p_th1, th.p_th2)
    assert th.m_abs == 1


def test_threshold_b_strong_window_empty():
    th = threshold(B, STRONG, FREE, 3, 2, 1)
    assert th.window is None
    assert th.p_th1 <= th.p_th2  # sorted display pair even when inverted
    assert "empty" in th.separable_region
    assert threshold(B, STRONG, COUPLED, 4, 3, 2).window is None


def test_threshold_b_qubit_collapse_exact():
    for mixing in (WEAK, STRONG):
        for coupling in (FREE, COUPLED):
            for N in (2, 3, 5):
                for m_abs in range(1, N):
                    th = threshold(B, mixing, coupling, 2, N, m_abs)
                    assert th.p_th1 == 0.5
                    assert th.p_th2 == 0.5
                    assert th.window == (0.5, 0.5)


def test_threshold_b_requires_m_abs():
    with pytest.raises(ValueError, match="m_abs"):
        threshold(B, WEAK, FREE, 3, 2)
    with pytest.raises(ValueError):
        threshold(B, WEAK, FREE, 3, 2, 2)  # m_abs > N-1
    with pytest.raises(ValueError):
        threshold(B, WEAK, FREE, 3, 2, 0)


def test_threshold_b_asymptotic_limits():
    # |m| = 1 window swallows everything as N grows
    th = threshold(B, WEAK, FREE, 3, 500, 1)
    assert th.p_th1 < 1e-6
    assert th.p_th2 > 1 - 1e-6
    # |m| = N-1 window approaches (1/D, 1 - 1/D)
    th = threshold(B, WEAK, FREE, 4, 500, 499)
    assert th.p_th1 == pytest.approx(0.25, abs=1e-3)
    assert th.p_th2 == pytest.approx(0.75, abs=1e-3)


# ---------------------------------------------------------------------------
# classify_ec
# ---------------------------------------------------------------------------

def test_classify_ec_a():
    assert classify_ec(params(mixing=STRONG, p=0.75)) is ECVerdict.ENTANGLED
    assert classify_ec(params(mixing=STRONG, p=0.25)) is ECVerdict.SEPARABLE
    assert classify_ec(params(mixing=STRONG, p=0.5)) is ECVerdict.SEPARABLE  # boundary
    assert classify_ec(params(D=100, N=2, p=0.9)) is ECVerdict.SEPARABLE


def test_classify_ec_b():
    assert classify_ec(params(ec_class=B, D=3, N=2, p=0.5), m_abs=1) is ECVerdict.SEPARABLE
    assert classify_ec(params(ec_class=B, D=3, N=2, p=0.1), m_abs=1) is ECVerdict.ENTANGLED
    # strong free has no separable window at D > 2
    for m_abs in (1, 2):
        assert (
            classify_ec(params(ec_class=B, mixing=STRONG, D=5, N=3, p=0.5), m_abs=m_abs)
            is ECVerdict.ENTANGLED
        )
    # D = 2 point window
    assert classify_ec(params(ec_class=B, mixing=STRONG, p=0.5), m_abs=1) is ECVerdict.SEPARABLE
    assert classify_ec(params(ec_class=B, mixing=STRONG, p=0.4), m_abs=1) is ECVerdict.ENTANGLED
    with pytest.raises(ValueError, match="m_abs"):
        classify_ec(params(ec_class=B, p=0.5))


def test_classify_ec_matches_closed_form_sign():
    # verdict boundary coincides with the sign of the binding branch of W
    for i in range(1, 100):
        p = i / 100
        prm = params(ec_class=B, D=3, N=3, p=p)
        w = min(
            closed_form_W(prm, m_j=3, m=2),
            closed_form_W(prm, m_j=3, m=-2),
        )
        verdict = classify_ec(prm, m_abs=2)
        assert (w < -1e-12) == (verdict is ECVerdict.ENTANGLED), f"p={p}"


# ---------------------------------------------------------------------------
# dualities, crossover, renormalized threshold
# ---------------------------------------------------------------------------

def test_duality_residuals_vanish():
    for D in range(2, 11):
        for N in range(2, 7):
            r_a, r_b = duality_residuals(D, N)
            assert abs(r_a) <= 1e-14, (D, N)
            assert abs(r_b) <= 1e-14, (D, N)


def test_crossover():
    assert crossover_N(3) == pytest.approx(math.log(2))
    assert crossover_N(1001) == pytest.approx(math.log(1000))
    with pytest.raises(ValueError, match="D >= 3"):
        crossover_N(2)
    with pytest.raises(ValueError, match="integer"):
        crossover_N(math.e + 1)  # non-integer D rejected, not rounded


def test_renormalized_threshold():
    # m = N, gamma = 1 reduces to the bare logistic form
    assert renormalized_threshold(1.0, 3, 3, 4, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert renormalized_threshold(1.0, 2, 2, 2, 0.5) == 0.5
    # the m = 1, large-N factor (gamma m!/N!)^{1/N} collapses toward zero
    th = renormalized_threshold(0.01, 1, 200, 3, 1.5)
    assert th > 0.95
    # near m = N the factor stays O(1): (gamma/N)^{1/N} ~ 0.95 here
    th = renormalized_threshold(0.01, 199, 200, 3, 0.0)
    factor = 1 / th - 1
    assert factor == pytest.approx((0.01 / 200) ** (1 / 200), rel=1e-10)
    with pytest.raises(ValueError):
        renormalized_threshold(-1.0, 1, 2, 3, 1.0)
    with pytest.raises(ValueError):
        renormalized_threshold(1.0, 3, 2, 3, 1.0)  # m > N


def test_sign_match_matrix_vs_closed_form_on_grid():
    # the boundary-crossing structure of the matrix-level W follows the
    # closed form across variants (dense check lives in the acceptance suite)
    s = PartySubset((0,), 2)
    for mixing in (WEAK, STRONG):
        for i in range(0, 101, 10):
            p = i / 100
            prm = params(mixing=mixing, D=3, N=2, p=p)
            w_matrix = causal_W(build_ec_matrix(prm), (0, 0), s, FREE).W
            w_closed = closed_form_W(prm)
            assert _sign(w_matrix) == _sign(w_closed), (mixing, p)


def _sign(x, tol=1e-12):
    return 1 if x > tol else (-1 if x < -tol else 0)


# ---------------------------------------------------------------------------
# ec sweep: the site-factor route against the dense matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 5), (4, 3)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_sweep_W_matrix_equals_dense_route(capsys, dims, variant):
    D, N = dims
    ec_class, mixing, coupling = variant
    argv = [
        "ec", "sweep", "--class", ec_class.value, "--mixing", mixing.value,
        "--coupling", coupling.value, "--D", str(D), "--N", str(N), "--steps", "11",
    ]
    if ec_class is B:
        argv += ["--m-abs", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    s0, j0 = PartySubset((0,), N), (0,) * N
    for row in json.loads(out)["rows"]:
        prm = ECParams(ec_class, mixing, coupling, D, N, complex(row["p"]))
        assert row["W_matrix"] == causal_W(build_ec_matrix(prm), j0, s0, coupling).W
