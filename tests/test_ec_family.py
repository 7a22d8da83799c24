import json
import math
import re
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from causal_sep.config_calculus import ENUMERATION_CAP, CouplingMode, check_dims
from causal_sep import ec_family
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
    ec_min_eigenvalue,
    ec_operator,
    m_abs_values,
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


@pytest.mark.parametrize("D, N", [(2, 2), (3, 3), (5, 4), (2, 8)])
def test_closed_form_a_weak_coupled_is_p_to_the_N_times_the_matrix_route(D, N):
    # the as-printed prefactor p^2N has one p^N more than the matrix route
    s0 = PartySubset((0,), N)
    for p in np.linspace(0.0, 1.0, 101)[1:-1]:
        ps = params(coupling=COUPLED, D=D, N=N, p=float(p))
        w_matrix = causal_W(ec_operator(ps), (0,) * N, s0, COUPLED).W
        assert p**N * w_matrix == pytest.approx(closed_form_W(ps), rel=1e-12, abs=0.0), p


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


def test_threshold_b_window_has_no_single_p_th():
    with pytest.raises(ValueError, match="p_th is defined for SINGLE thresholds only"):
        threshold(B, WEAK, FREE, 3, 2, 1).p_th


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


def _classify_ec_oracle(prm, m_abs=None):
    """The verdict by two routes: class a against ``threshold(...).p_th``,
    class b against the branch-ordered window for ``m_abs``."""
    if prm.ec_class is A:
        th = threshold(prm.ec_class, prm.mixing, prm.coupling, prm.D, prm.N)
        return ECVerdict.SEPARABLE if prm.p_abs <= th.p_th else ECVerdict.ENTANGLED
    if m_abs is None:
        raise ValueError("b-class verdict needs m_abs")
    th = threshold(prm.ec_class, prm.mixing, prm.coupling, prm.D, prm.N, m_abs)
    if th.window is None:
        return ECVerdict.ENTANGLED
    lower, upper = th.window
    return ECVerdict.SEPARABLE if lower <= prm.p_real <= upper else ECVerdict.ENTANGLED


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_classify_ec_equals_the_two_route_oracle(variant):
    rng = np.random.default_rng(7)
    grid = list(np.linspace(0.0, 1.0, 41)) + list(rng.uniform(size=20))
    if variant[0] is A:
        grid += [complex(-p) for p in grid] + list(np.exp(2j * np.pi * rng.uniform(size=20)) / 2)
    cases = 0
    for D, N in [(2, 2), (2, 5), (3, 3), (4, 4), (7, 2), (10**6, 500)]:
        for p in grid:
            prm = ECParams(*variant, D, N, p)
            # class a ignores m_abs; class b refuses None and any |m| out of 1..N-1
            for m_abs in (None, 0, 1, N - 1, N):
                cases += 1
                assert _outcome(classify_ec, prm, m_abs) == _outcome(
                    _classify_ec_oracle, prm, m_abs
                ), (D, N, p, m_abs)
    assert cases > 1000


def _site_stacks_oracle(prm):
    """The class-b site factors of the module docstring, one site at a time."""
    D, p = prm.D, prm.p_real
    hub = np.zeros((D, D), dtype=np.complex128)
    for k in range(1, D):
        hub[k, 0] = hub[0, k] = 1.0
    diag_sites, off_sites = [], []
    for bit in prm.b_sites:
        f = (1.0 - p) if bit else p
        diag_sites.append(f * np.diag([1.0] + [1.0 / (D - 1)] * (D - 1)).astype(np.complex128))
        amp = f if prm.mixing is STRONG else f / (D - 1)
        off_sites.append(amp * hub)
    return np.stack(diag_sites), np.stack(off_sites)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("mixing", [WEAK, STRONG], ids=lambda m: m.value)
def test_b_site_stacks_equal_the_per_site_loop(D, mixing):
    rng = np.random.default_rng(D)
    for N in range(2, 6):
        for p in [0.0, 1.0, *rng.uniform(size=4)]:
            for _ in range(4):
                prm = params(ec_class=B, mixing=mixing, D=D, N=N, p=p,
                             b_sites=tuple(rng.integers(0, 2, N)))
                op = ec_operator(prm)
                diag_sites, off_sites = _site_stacks_oracle(prm)
                assert op.diag_sites.dtype == op.off_sites.dtype == np.complex128
                assert op.diag_sites.tobytes() == diag_sites.tobytes(), (p, prm.b_sites)
                assert op.off_sites.tobytes() == off_sites.tobytes(), (p, prm.b_sites)


# ---------------------------------------------------------------------------
# dualities, crossover, renormalized threshold
# ---------------------------------------------------------------------------

def test_duality_residuals_vanish():
    for D in range(2, 11):
        for N in range(2, 7):
            r_a, r_b = duality_residuals(D, N)
            assert abs(r_a) <= 1e-14, (D, N)
            assert abs(r_b) <= 1e-14, (D, N)


def _logistic(g, base):
    return ec_family._inv1p_exp(g * math.log(base))


def _a_exponent(mixing, coupling, N):
    if coupling is FREE:
        return -(2.0 - 1.0 / N) if mixing is WEAK else 1.0 / N
    return -1.0 / N if mixing is WEAK else (2.0 - 1.0 / N)


def _b_exponent(mixing, coupling, N):
    if coupling is FREE:
        return -(2 * N - 1) if mixing is WEAK else 1
    return -1 if mixing is WEAK else (2 * N - 1)


def _duality_residuals_oracle(D, N):
    """The residuals by a nested loop over |m| and both pairings, each root
    its own logistic."""
    x = float(D - 1)
    pairs = ((WEAK, STRONG), (STRONG, WEAK))
    r_a = 0.0
    for mix_free, mix_coupled in pairs:
        lhs = _logistic(_a_exponent(mix_free, FREE, N), x)
        rhs = _logistic(_a_exponent(mix_coupled, COUPLED, N), 1.0 / x)
        r_a = max(r_a, abs(lhs - rhs))
    r_b = 0.0
    for m in range(1, N):
        for mix_free, mix_coupled in pairs:
            e_f = _b_exponent(mix_free, FREE, N)
            e_c = _b_exponent(mix_coupled, COUPLED, N)
            th1_f = _logistic(-e_f / (2.0 * m), x)
            th2_f = _logistic(+e_f / (2.0 * m), x)
            th1_c = _logistic(-e_c / (2.0 * m), x)
            th2_c = _logistic(+e_c / (2.0 * m), x)
            r_b = max(r_b, abs(th1_f - th2_c), abs(th2_f - th1_c))
    return r_a, r_b


@pytest.mark.parametrize("D, N", [(2, 300), (3, 5001), (4, 3), (7, 2001), (1001, 501), (3, 50001)])
def test_duality_residuals_equal_the_nested_loop(capsys, D, N):
    want = _duality_residuals_oracle(D, N)
    assert [r.hex() for r in duality_residuals(D, N)] == [r.hex() for r in want]
    code, out, _ = run_cli(["duality", "--D", str(D), "--N", str(N)], capsys)
    assert code == 0
    assert out == json.dumps(
        {"schema": "causal-sep/1", "command": "duality", "D": D, "N": N,
         "r_a": want[0], "r_b": want[1]},
        separators=(",", ":"),
    ) + "\n"


@pytest.mark.parametrize("D, N", [(2, 30), (3, 501), (7, 201), (1001, 51)])
def test_threshold_roots_equal_the_logistic(D, N):
    # lower root 1/(1 + c**(-1/(2|m|))), upper 1/(1 + c**(+1/(2|m|))), c = (D-1)**e
    for ec_class, mixing, coupling in all_variants():
        if ec_class is A:
            p_th = _logistic(_a_exponent(mixing, coupling, N), D - 1.0)
            assert threshold(A, mixing, coupling, D, N).p_th == p_th
            continue
        e = _b_exponent(mixing, coupling, N)
        for m in range(1, N):
            lower, upper = _logistic(-e / (2.0 * m), D - 1.0), _logistic(e / (2.0 * m), D - 1.0)
            th = threshold(B, mixing, coupling, D, N, m)
            assert (th.p_th1, th.p_th2) == tuple(sorted((lower, upper)))
            assert th.window == ((lower, upper) if lower <= upper else None)


def test_duality_residuals_hold_no_array_over_m():
    duality_residuals(3, 5)  # one-time setup stays out of the peak
    tracemalloc.start()
    try:
        duality_residuals(3, 200001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, f"duality_residuals peaked at {peak} bytes"


def test_crossover():
    assert crossover_N(3) == pytest.approx(math.log(2))
    assert crossover_N(1001) == pytest.approx(math.log(1000))
    with pytest.raises(ValueError, match="D >= 3"):
        crossover_N(2)
    with pytest.raises(ValueError, match="integer"):
        crossover_N(math.e + 1)  # non-integer D rejected, not rounded


def test_closed_forms_refuse_d_or_n_beyond_the_float_range():
    top = int(sys.float_info.max)  # an even integer
    huge = 10**400
    for call, name in (
        (lambda: threshold(A, WEAK, FREE, huge, 3), "D"),
        (lambda: threshold(B, WEAK, FREE, top + 2, 3, 1), "D"),
        (lambda: threshold(A, WEAK, FREE, 3, huge), "N"),
        (lambda: threshold(B, WEAK, FREE, 3, top // 2 + 1, 1), "N"),  # 2N - 1 = top + 1
        (lambda: duality_residuals(huge, 3), "D"),
        (lambda: closed_form_W(params(D=huge, N=3, p=0.3)), "D"),
    ):
        with pytest.raises(ValueError, match=f"^{name} is beyond the float range"):
            call()
    # at the edge of the range the logistic is still finite
    assert 0.0 <= threshold(A, STRONG, FREE, top + 1, 3).p_th < 1e-100
    assert threshold(B, WEAK, FREE, 3, top // 2, 1).window == (0.0, 1.0)


def test_m_abs_values_cap():
    assert m_abs_values(ENUMERATION_CAP + 1) == range(1, ENUMERATION_CAP + 1)
    message = f"N - 1 = {ENUMERATION_CAP + 1} values of |m| exceed the limit {ENUMERATION_CAP}"
    for call in (m_abs_values, lambda N: duality_residuals(3, N)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(ENUMERATION_CAP + 2)


def renormalized_threshold(gamma, m, N, D, alpha):
    """Threshold 1/(1 + (gamma * m!/N!)**(1/N) * (D-1)**alpha).

    Factorials go through lgamma in log space, so N in the hundreds is
    exact enough and never overflows.  Requires gamma > 0 and 1 <= m <= N.
    """
    check_dims(D, N, D_min=2)
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= N:
        raise ValueError(f"m must be an integer in 1..N={N}, got {m!r}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    t = (math.log(gamma) + math.lgamma(m + 1) - math.lgamma(N + 1)) / N
    t += alpha * math.log(D - 1)
    return ec_family._inv1p_exp(t)


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


# ---------------------------------------------------------------------------
# closed-form spectrum against the dense eigensolve
# ---------------------------------------------------------------------------

def _sample_params(variant, D, N, rng):
    """The p endpoints, then random points: complex p for class a, random
    b_sites for class b."""
    ec_class, mixing, coupling = variant
    if ec_class is A:
        phases = np.exp(2j * np.pi * rng.uniform(size=4))
        ps = [0.0, 1.0, -1.0, phases[0]] + list(rng.uniform(size=3) * phases[1:])
        return [ECParams(*variant, D, N, p) for p in ps]
    ps = [0.0, 1.0] + list(rng.uniform(size=4))
    return [ECParams(*variant, D, N, p, tuple(rng.integers(0, 2, N))) for p in ps]


@pytest.mark.parametrize(
    "D, N", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3)]
)
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_ec_min_eigenvalue_matches_dense_eigensolve(D, N, variant):
    rng = np.random.default_rng(100 * D + N)
    for prm in _sample_params(variant, D, N, rng):
        spectrum = np.linalg.eigvalsh(build_ec_matrix(prm).matrix)
        # eigvalsh errs by a few ulps of the spectral radius; relative to the
        # largest entry its own error reaches 1.1e-14 at (4,3)
        scale = np.abs(spectrum).max()
        assert abs(ec_min_eigenvalue(prm) - spectrum[0]) <= 1e-14 * scale, (prm.p, prm.b_sites)


# ---------------------------------------------------------------------------
# the blocked dense build against the two full Kronecker products
# ---------------------------------------------------------------------------

def _two_kron_sum(prm):
    """The dense EC matrix as the two site products, each formed whole, and one sum."""
    op = ec_operator(prm)
    return reduce(np.kron, op.diag_sites) + reduce(np.kron, op.off_sites)


@pytest.mark.parametrize("D, N", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (4, 3)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_build_equals_two_kron_sum_bit_for_bit(monkeypatch, D, N, variant):
    rng = np.random.default_rng(10 * D + N)
    dim = D**N
    # one block (the default at these sizes), D^(N-1) rows, D rows, one row a block
    budgets = [ec_family.BUILD_BLOCK_BYTES, 16 * dim * D ** (N - 1), 16 * dim * D, 1]
    for prm in _sample_params(variant, D, N, rng):
        want = _two_kron_sum(prm).view(np.int64)  # signed zeros compared too
        for budget in budgets:
            monkeypatch.setattr(ec_family, "BUILD_BLOCK_BYTES", budget)
            got = build_ec_matrix(prm).matrix.view(np.int64)
            assert np.array_equal(got, want), (prm.p, prm.b_sites, budget)


@pytest.mark.parametrize("D, N", [(2, 2), (2, 5), (3, 3), (4, 3), (5, 2), (2, 8)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_build_equals_its_conjugate_transpose_bit_for_bit(D, N, variant):
    # build_ec_matrix adopts its matrix with no Hermiticity scan; the real
    # parts match bit for bit, the imaginary parts up to the sign of a zero
    rng = np.random.default_rng(1000 + 10 * D + N)
    for prm in _sample_params(variant, D, N, rng):
        m = build_ec_matrix(prm).matrix
        h = m.conj().T
        assert np.array_equal(m.real.view(np.int64), h.real.view(np.int64)), (prm.p, prm.b_sites)
        assert np.array_equal(m, h), (prm.p, prm.b_sites)


@pytest.mark.parametrize("D, N", [(2, 2), (2, 5), (3, 3), (4, 3), (2, 10)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_operator_trace_is_the_dense_trace_bit_for_bit(D, N, variant):
    # compare reads the class-b trace at each p off the site factors
    rng = np.random.default_rng(2000 + 10 * D + N)
    for prm in _sample_params(variant, D, N, rng):
        assert ec_operator(prm).trace() == build_ec_matrix(prm).trace(), (prm.p, prm.b_sites)


def test_build_checks_the_site_factors_are_finite(monkeypatch):
    # with the scan gone, this is the build's finiteness check
    good = ec_family.ec_operator(params(D=3, N=3, p=0.4))
    bad = ec_family.KronSum(3, 3, good.diag_sites, good.off_sites.copy())
    bad.off_sites[1, 1, 0] = np.nan
    monkeypatch.setattr(ec_family, "ec_operator", lambda prm: bad)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        build_ec_matrix(params(D=3, N=3, p=0.4))


def test_build_memory_bound_at_2048():
    # the two whole products peaked at 2.25x the matrix (144 MiB for 64 MiB)
    prm = params(mixing=STRONG, D=2, N=11, p=0.3 + 0.4j)
    tracemalloc.start()
    try:
        rho = build_ec_matrix(prm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.matrix.nbytes == 64 * 2**20
    assert peak < 1.3 * rho.matrix.nbytes, f"build peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# class b: rho / trace does not depend on p
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("D, N", [(2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("mixing", [WEAK, STRONG])
@pytest.mark.parametrize("coupling", [FREE, COUPLED])
def test_class_b_normalized_matrix_is_constant_in_p(D, N, mixing, coupling):
    # rho = F * (Dhat (x) ... + Ohat (x) ...) with F = prod_n f_n, so every
    # p in (0, 1) gives the same rho / trace; W, quadratic in rho, keeps
    # W / trace^2 and so its sign, and the minimum eigenvalue scales with the trace
    b_sites = tuple(np.random.default_rng(10 * D + N).integers(0, 2, N))
    s0, j0 = PartySubset((0,), N), (0,) * N
    normalized, W, lambdas = [], [], []
    for p in np.linspace(0.0, 1.0, 21)[1:-1]:
        prm = ECParams(B, mixing, coupling, D, N, float(p), b_sites)
        rho = build_ec_matrix(prm)
        tr = rho.trace()
        normalized.append(rho.matrix / tr)
        W.append(causal_W(ec_operator(prm), j0, s0, coupling).W / tr**2)
        lambdas.append(ec_min_eigenvalue(prm) / tr)
    assert np.abs(np.array(normalized) - normalized[0]).max() <= 1e-15
    assert np.ptp(W) <= 1e-14 * np.abs(W).max()
    assert len({_sign(w) for w in W}) == 1
    assert np.ptp(lambdas) <= 1e-15
