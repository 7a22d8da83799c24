"""Invariant checks driven by hypothesis: algebraic identities that must
hold for every matrix and every subset, not just the worked examples."""
import itertools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causal_sep.config_calculus import (
    CouplingMode,
    config_labels,
    count_configurations,
    orthogonal_partners,
    partition_distinct,
)
from causal_sep.criterion import W_TOL, OverallVerdict, causal_W, classify
from causal_sep import density
from causal_sep.ec_family import ECClass, ECParams, all_variants, build_ec_matrix, ec_operator
from causal_sep.ppt import PptOutcome, ppt_check
from causal_sep.density import (
    PartySubset,
    DensityMatrix,
    canonical_subsets,
    config_to_index,
    hermitian_eigenvalues,
    load_matrix,
    matrix_to_payload,
    partial_transpose,
)

from conftest import (
    complement,
    is_completely_orthogonal,
    matrix_to_dict,
    partner_tuples,
    payload_to_matrix,
    random_hermitian,
    random_product_mixture,
    random_state,
    save_matrix,
    transpose_parties,
    two_qubit_state,
)

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED

# dimension pairs kept small: several checks run eigensolvers or touch
# every matrix entry, and hypothesis multiplies everything by its example
# count
DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 5), (5, 2)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
MODES = st.sampled_from([FREE, COUPLED])


def _config(rng, D, N):
    return tuple(int(x) for x in rng.integers(0, D, size=N))


def _subset_members(mask, N):
    """Proper nonempty subset of range(N) selected by a bit mask."""
    fenced = 1 + mask % (2**N - 2)  # skip 0 (empty) and 2^N - 1 (full)
    return tuple(i for i in range(N) if fenced >> i & 1)


# ---------------------------------------------------------------------------
# configuration calculus
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), SEEDS)
def test_complete_orthogonality_symmetric_irreflexive(D, N, seed):
    rng = np.random.default_rng(seed)
    a, b = _config(rng, D, N), _config(rng, D, N)
    assert is_completely_orthogonal(a, b) == is_completely_orthogonal(b, a)
    assert not is_completely_orthogonal(a, a)


@settings(deadline=None)
@given(DIMS, SEEDS, MODES)
def test_partner_sets(dims, seed, mode):
    D, N = dims
    c = _config(np.random.default_rng(seed), D, N)
    partners = partner_tuples(c, D, mode)
    expected = (D - 1) ** N if mode is FREE else D - 1
    assert len(partners) == expected
    assert len(set(partners)) == len(partners)
    assert partners == sorted(partners)
    assert all(is_completely_orthogonal(c, q) for q in partners)
    if mode is COUPLED:
        assert set(partners) <= set(partner_tuples(c, D, FREE))
    assert partners == _partners(c, D, mode)


@pytest.mark.parametrize("mode", [FREE, COUPLED], ids=["free", "coupled"])
@pytest.mark.parametrize("D, N", [(1, 2), (2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (4, 2), (5, 3)])
def test_orthogonal_partners_match_the_definition_on_every_configuration(D, N, mode):
    # one call for all D^N configurations: a (P, J, N) array whose column k
    # is configuration k's family, sorted, as the per-configuration definition
    configs = config_labels(D, N)
    partners = orthogonal_partners(configs, D, mode)
    assert partners.shape == ((D - 1) ** N if mode is FREE else D - 1, D**N, N)
    assert partners.dtype == np.int64
    for k, c in enumerate(map(tuple, configs.tolist())):
        assert list(map(tuple, partners[:, k].tolist())) == _partners(c, D, mode)


@settings(deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), MODES)
def test_census_partitions_configuration_set(D, N, mode):
    census = count_configurations(D, N, mode)
    assert census.K + census.K_bar == D**N
    assert census.K >= 1
    if D == 2:
        assert census.K == 2 ** (N - 1)


# ---------------------------------------------------------------------------
# partial transposes
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1))
def test_transpose_involution(dims, seed, mask):
    D, N = dims
    rho = random_hermitian(D, N, np.random.default_rng(seed))
    parties = tuple(i for i in range(N) if mask >> i & 1)
    back = transpose_parties(transpose_parties(rho, parties), parties)
    assert np.array_equal(back.matrix, rho.matrix)


@settings(deadline=None)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_transpose_composition_is_symmetric_difference(dims, seed, mask1, mask2):
    D, N = dims
    rho = random_hermitian(D, N, np.random.default_rng(seed))
    s1 = tuple(i for i in range(N) if mask1 >> i & 1)
    s2 = tuple(i for i in range(N) if mask2 >> i & 1)
    chained = transpose_parties(transpose_parties(rho, s1), s2)
    merged = tuple(sorted(set(s1) ^ set(s2)))
    assert np.array_equal(chained.matrix, transpose_parties(rho, merged).matrix)


@settings(deadline=None)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1))
def test_transpose_preserves_trace_and_hermiticity(dims, seed, mask):
    D, N = dims
    rho = random_hermitian(D, N, np.random.default_rng(seed))
    parties = tuple(i for i in range(N) if mask >> i & 1)
    moved = transpose_parties(rho, parties)
    # the diagonal is fixed pointwise, so the trace is bit-identical
    assert moved.trace() == rho.trace()
    assert np.array_equal(np.diag(moved.matrix), np.diag(rho.matrix))
    assert np.max(np.abs(moved.matrix - moved.matrix.conj().T)) == 0.0


@settings(deadline=None, max_examples=40)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1))
def test_transpose_complement_spectrum(dims, seed, mask):
    D, N = dims
    rho = random_hermitian(D, N, np.random.default_rng(seed))
    s = PartySubset(_subset_members(mask, N), N)
    eig = hermitian_eigenvalues(partial_transpose(rho, s))
    eig_c = hermitian_eigenvalues(partial_transpose(rho, complement(s)))
    assert np.allclose(eig, eig_c, atol=1e-10)


# ---------------------------------------------------------------------------
# criterion invariants
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1), MODES)
def test_w_subset_complement_symmetry(dims, seed, mask, mode):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_hermitian(D, N, rng)
    j = _config(rng, D, N)
    s = PartySubset(_subset_members(mask, N), N)
    w = causal_W(rho, j, s, mode).W
    w_c = causal_W(rho, j, complement(s), mode).W
    assert abs(w - w_c) <= 1e-12


@settings(deadline=None)
@given(DIMS, SEEDS, st.floats(0.1, 10.0), MODES)
def test_w_scales_quadratically(dims, seed, c, mode):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_hermitian(D, N, rng)
    j = _config(rng, D, N)
    s = PartySubset((0,), N)
    base = causal_W(rho, j, s, mode).W
    scaled = DensityMatrix(D=D, N=N, matrix=c * rho.matrix, normalized=False)
    assert causal_W(scaled, j, s, mode).W == pytest.approx(
        c * c * base, rel=1e-10, abs=1e-12
    )


@settings(deadline=None)
@given(DIMS, SEEDS, st.integers(0, 2**10 - 1), MODES)
def test_probabilities_nonnegative_on_states(dims, seed, mask, mode):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_state(D, N, rng)
    j = _config(rng, D, N)
    s = PartySubset(_subset_members(mask, N), N)
    score = causal_W(rho, j, s, mode)
    assert score.P_ignorance >= 0.0
    assert score.P_transition >= 0.0


@settings(deadline=None, max_examples=50)
@given(DIMS, SEEDS, MODES)
def test_decomposition_identity(dims, seed, mode):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_state(D, N, rng)
    j = _config(rng, D, N)
    score = causal_W(rho, j, PartySubset((0,), N), mode)
    assert score.W == pytest.approx(
        score.P_ignorance - score.P_transition, abs=1e-14
    )
    if score.W >= 0:
        assert score.P_ignorance == pytest.approx(
            score.P_transition + abs(score.W), abs=1e-14
        )
    else:
        assert score.P_transition == pytest.approx(
            score.P_ignorance + abs(score.W), abs=1e-14
        )


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_criterion_entangled_two_qubit_states_are_npt(values):
    # soundness where PPT is exact (Peres-Horodecki at 2x2): a state that the
    # criterion reads entangled in either mode has an NPT partial transpose.
    # A counterexample is a defect in the criterion, not a bound to loosen
    assume(sum(x * x for x in values) >= 1e-6)  # tr(G G^dag), the normalizer
    rho = two_qubit_state(values)
    if any(classify(rho, mode).overall is OverallVerdict.ENTANGLED for mode in (FREE, COUPLED)):
        assert ppt_check(rho, PartySubset((0,), 2)).verdict is PptOutcome.NPT_ENTANGLED


@pytest.mark.parametrize("D, N", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_free_mode_entangled_cuts_are_npt(D, N):
    # soundness of free mode on every cut, at every D: its shifts are among
    # the completely orthogonal partners, so a PSD rho^{T_S} (each 2x2 minor
    # >= 0) gives W(j, S) >= 0, and W < -W_TOL needs a minimum eigenvalue
    # below -W_TOL/(D-1).  Low-rank states leave many cuts NPT; mixtures of
    # product states are PPT on every cut.  A counterexample is a defect in
    # the criterion, not a bound to loosen
    rng = np.random.default_rng(D * 10 + N)
    states = [random_state(D, N, rng, rank) for rank in (1, 2) * 10]
    states += [random_product_mixture(D, N, rng, terms) for terms in (1, 2) * 5]
    entangled_cuts = 0
    for rho in states:
        report = classify(rho, FREE)
        for k, subset in enumerate(report.subsets):
            if report.W[:, k].min() < -W_TOL:
                entangled_cuts += 1
                assert hermitian_eigenvalues(rho, subset)[0] < -W_TOL / (D - 1), subset
    assert entangled_cuts > 0  # the property was exercised


# ---------------------------------------------------------------------------
# the gather kernel against the per-pair partial-transpose route
# ---------------------------------------------------------------------------

def _swapped(mode):
    return COUPLED if mode is FREE else FREE


def _partners(c, D, mode):
    """The partner family by its definition, sorted."""
    if mode is COUPLED:
        return sorted(tuple((x + d) % D for x in c) for d in range(1, D))
    return sorted(itertools.product(*[[x for x in range(D) if x != label] for label in c]))


def _ignorance(rho, j, mode):
    jj = config_to_index(j, rho.D)
    partner_weight = sum(
        rho.matrix[config_to_index(l, rho.D), config_to_index(l, rho.D)].real
        for l in _partners(j, rho.D, mode)
    )
    return float(rho.matrix[jj, jj].real * partner_weight)


def _transition_from_pt(pt, D, j, mode):
    jj = config_to_index(j, D)
    total = 0.0
    for l in _partners(j, D, _swapped(mode)):
        total += abs(pt[jj, config_to_index(l, D)]) ** 2
    return float(total)


def _score(rho, pt, j, mode):
    p_ign = _ignorance(rho, j, mode)
    p_trans = _transition_from_pt(pt, rho.D, j, mode)
    return p_ign, p_trans, p_ign - p_trans


def _greedy_distinct(D, N):
    """The greedy walk: a configuration is distinct unless it is completely
    orthogonal to one picked before it."""
    distinct = []
    for c in itertools.product(range(D), repeat=N):
        if not any(is_completely_orthogonal(c, d) for d in distinct):
            distinct.append(c)
    return distinct


def _oracle_classify(rho, mode):
    """(config, subset members, P_ignorance, P_transition, W) per score,
    from one materialized partial transpose per canonical subset."""
    subsets = canonical_subsets(rho.N)
    pts = {s: partial_transpose(rho, s).matrix for s in subsets}
    return [
        (j, s.members) + _score(rho, pts[s], j, mode)
        for j in _greedy_distinct(rho.D, rho.N)
        for s in subsets
    ]


def _normalized_hermitian(D, N, rng):
    """Unit-trace Hermitian matrix, not positive semidefinite in general."""
    m = random_hermitian(D, N, rng).matrix.copy()
    m[np.diag_indices(D**N)] -= (np.trace(m).real - 1.0) / D**N
    return DensityMatrix(D=D, N=N, matrix=m, normalized=True)


ORACLE_DIMS = [(D, N) for D in (2, 3, 4) for N in range(2, 7) if D**N <= 256]


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda d: f"D{d[0]}-N{d[1]}")
@settings(deadline=None, max_examples=4)
@given(seed=SEEDS, mode=MODES, psd=st.booleans())
def test_classify_matches_partial_transpose_oracle(dims, seed, mode, psd):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_state(D, N, rng) if psd else _normalized_hermitian(D, N, rng)
    got = [
        (s.config, s.subset.members, s.P_ignorance, s.P_transition, s.W)
        for s in classify(rho, mode).scores
    ]
    want = _oracle_classify(rho, mode)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    tol = 1e-15 * max(abs(x) for w in want for x in w[2:4])
    for g, w in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g[2:], w[2:])) <= tol, (g, w)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_partition_matches_greedy_walk(D, N):
    part = partition_distinct(D, N)
    distinct = _greedy_distinct(D, N)
    assert [tuple(c) for c in part.distinct.tolist()] == distinct
    chosen = set(distinct)
    assert [tuple(c) for c in part.orthogonal.tolist()] == [
        c for c in itertools.product(range(D), repeat=N) if c not in chosen
    ]


# ---------------------------------------------------------------------------
# the EC site-factor operator against the dense EC matrix
# ---------------------------------------------------------------------------

EC_DIMS = [(D, N) for D in (2, 3, 4) for N in range(2, 6) if D**N <= 256]


@pytest.mark.parametrize("dims", EC_DIMS, ids=lambda d: f"D{d[0]}-N{d[1]}")
@settings(deadline=None, max_examples=4)
@given(seed=SEEDS)
def test_ec_operator_entries_match_dense_matrix(dims, seed):
    D, N = dims
    rng = np.random.default_rng(seed)
    dim = D**N
    for ec_class, mixing, coupling in all_variants():
        if ec_class is ECClass.A:
            p = complex(rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
            b_sites = None
        else:
            p = float(rng.uniform(0.0, 1.0))
            b_sites = tuple(int(b) for b in rng.integers(0, 2, size=N))
        params = ECParams(ec_class, mixing, coupling, D, N, p, b_sites)
        want = build_ec_matrix(params).matrix.reshape(-1)
        got = ec_operator(params).entries(np.arange(dim * dim).reshape(dim, dim))
        # bit for bit, signed zeros included
        assert got.reshape(-1).tobytes() == want.tobytes(), (params, seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(DIMS, SEEDS, st.booleans())
def test_save_load_round_trip(dims, seed, as_state):
    D, N = dims
    rng = np.random.default_rng(seed)
    rho = random_state(D, N, rng) if as_state else random_hermitian(D, N, rng)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "matrix.json")
        save_matrix(rho, path)
        back = load_matrix(path)
    assert np.array_equal(back.matrix, rho.matrix)
    assert (back.D, back.N, back.normalized) == (rho.D, rho.N, rho.normalized)


@settings(deadline=None, max_examples=40)
@given(
    DIMS, SEEDS, st.floats(0.0, 1.0),
    st.sampled_from([2, 6, 8, density.WRITE_CHUNK]),
    st.sampled_from([1, 7, 50, density.PARSE_SLICE_BYTES]),
)
def test_sparse_matrix_text_is_json(dims, seed, zero_share, write_chunk, slice_bytes):
    # runs of (+0.0, +0.0) pairs among signed zeros: written as json.dumps
    # writes them, and read back, in that spelling and two spaced ones, as
    # json reads them, bit for bit
    D, N = dims
    rng = np.random.default_rng(seed)
    m = random_hermitian(D, N, rng).matrix.copy()
    mask = rng.random(m.shape) < zero_share
    m[mask | mask.T] = 0
    floats = m.view(np.float64)
    floats[(floats == 0) & (rng.random(floats.shape) < 0.2)] = -0.0
    rho = DensityMatrix(D, N, m, normalized=False)
    saved = density.WRITE_CHUNK, density.PARSE_SLICE_BYTES
    density.WRITE_CHUNK, density.PARSE_SLICE_BYTES = write_chunk, slice_bytes
    try:
        text = "".join(matrix_to_payload(rho))
        assert text == json.dumps(matrix_to_dict(rho), separators=(",", ":")) + "\n"
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "matrix.json")
            for spelling in (text, text.replace("],[", "], ["), text.replace(",", ", ")):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(spelling)
                want = payload_to_matrix(json.loads(spelling)).matrix
                assert load_matrix(path).matrix.tobytes() == want.tobytes()
    finally:
        density.WRITE_CHUNK, density.PARSE_SLICE_BYTES = saved
