import json
import os
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    bell_state,
    complement,
    element,
    matrix_to_dict,
    maximally_mixed,
    payload_to_matrix,
    random_hermitian,
    run_cli,
    save_matrix,
    transpose_parties,
)
from causal_sep import density
from causal_sep.density import (
    DensityMatrix,
    MatrixFormatError,
    PartySubset,
    canonical_subsets,
    config_to_index,
    float_texts,
    hermitian_eigenvalues,
    load_matrix,
    matrix_to_payload,
    partial_transpose,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, all_variants, build_ec_matrix
from causal_sep.config_calculus import CouplingMode, config_labels


def test_index_encoding_last_party_fastest():
    assert config_to_index((0, 0), 2) == 0
    assert config_to_index((0, 1), 2) == 1
    assert config_to_index((1, 0), 2) == 2
    assert config_to_index((1, 2), 3) == 5
    for idx, c in enumerate(map(tuple, config_labels(3, 3).tolist())):
        assert config_to_index(c, 3) == idx


def test_index_validation():
    with pytest.raises(ValueError):
        config_to_index((0, 2), 2)


def test_construction_checks_hermiticity():
    bad = np.array([[0.5, 0.3], [0.2, 0.5]])
    with pytest.raises(ValueError, match="hermiticity invariant violated"):
        DensityMatrix(D=2, N=1, matrix=bad, normalized=True)
    # the error names the size of the violation
    with pytest.raises(ValueError, match="1.000e-01"):
        DensityMatrix(D=2, N=1, matrix=bad, normalized=True)


def test_construction_rejects_non_finite_entries():
    nan = float("nan")
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        DensityMatrix(2, 1, [[nan, 0], [0, nan]])
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        DensityMatrix(2, 1, [[0.5, float("inf")], [float("inf"), 0.5]], normalized=False)
    # a NaN in a later row block of the Hermiticity check is seen too
    arr = np.eye(1024, dtype=complex) / 1024
    arr[1000, 3] = arr[3, 1000] = nan
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        DensityMatrix(2, 10, arr, normalized=False)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix._adopt(2, 1, np.diag([nan, 0.5]).astype(complex), True, hermitian=True)


def test_construction_checks_trace_only_when_flagged():
    half = np.eye(2) * 0.25
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(D=2, N=1, matrix=half, normalized=True)
    rho = DensityMatrix(D=2, N=1, matrix=half, normalized=False)
    assert rho.trace() == 0.5


def test_matrix_is_readonly():
    rho = maximally_mixed(2, 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_element_examples():
    mm = maximally_mixed(2, 2)
    assert element(mm, (0, 1), (0, 1)) == 0.25
    assert element(mm, (0, 0), (1, 1)) == 0.0
    phi = bell_state("phi+")
    assert element(phi, (0, 0), (1, 1)) == 0.5
    with pytest.raises(ValueError):
        element(mm, (0,), (0, 0))


def test_party_subset_validation():
    s = PartySubset((2, 0), 4)
    assert s.members == (0, 2)
    assert complement(s).members == (1, 3)
    with pytest.raises(ValueError):
        PartySubset((), 3)
    with pytest.raises(ValueError):
        PartySubset((0, 1), 2)  # not proper
    with pytest.raises(ValueError):
        PartySubset((3,), 3)
    with pytest.raises(ValueError):
        PartySubset((0, 0), 3)


@pytest.mark.parametrize("bad", [(0.9,), ("1",), (True,), (0, 1.0), (np.float64(1),)])
def test_party_subset_takes_integer_indices_only(bad):
    # the indices of a numpy array are party indices, stored as Python ints;
    # 0.9 and "1" used to become (0,) and (1,)
    s = PartySubset(tuple(np.array([2, 0])), 4)
    assert s.members == (0, 2) and all(type(i) is int for i in s.members)
    with pytest.raises(ValueError, match="party indices must be integers"):
        PartySubset(bad, 3)


def test_canonical_subsets():
    assert [s.members for s in canonical_subsets(2)] == [(0,)]
    assert [s.members for s in canonical_subsets(3)] == [(0,), (0, 1), (0, 2)]
    assert len(canonical_subsets(5)) == 2**4 - 1
    # ordered by size then lexicographically
    sizes = [len(s.members) for s in canonical_subsets(4)]
    assert sizes == sorted(sizes)


def test_partial_transpose_moves_entries():
    phi = bell_state("phi+")
    pt = partial_transpose(phi, PartySubset((1,), 2))
    # entry ((0,0),(1,1)) migrates to ((0,1),(1,0))
    assert element(pt, (0, 0), (1, 1)) == 0.0
    assert element(pt, (0, 1), (1, 0)) == 0.5
    assert pt.trace() == phi.trace()


def test_partial_transpose_bell_min_eigenvalue():
    for kind in ("phi+", "psi+"):
        pt = partial_transpose(bell_state(kind), PartySubset((1,), 2))
        eigs = hermitian_eigenvalues(pt)
        assert eigs[0] == pytest.approx(-0.5, abs=1e-12)
        assert eigs[-1] == pytest.approx(0.5, abs=1e-12)


def test_transpose_parties_edge_cases():
    rng = np.random.default_rng(11)
    rho = random_hermitian(2, 3, rng)
    assert transpose_parties(rho, []) is rho
    full = transpose_parties(rho, [0, 1, 2])
    assert np.array_equal(full.matrix, rho.matrix.T)
    with pytest.raises(ValueError):
        transpose_parties(rho, [3])


def test_partial_transpose_involution():
    rng = np.random.default_rng(13)
    rho = random_hermitian(3, 2, rng)
    s = PartySubset((0,), 2)
    back = partial_transpose(partial_transpose(rho, s), s)
    assert np.array_equal(back.matrix, rho.matrix)


def test_partial_transpose_refuses_a_subset_over_another_n():
    message = "subset is over N=3 parties but the matrix has N=2"
    with pytest.raises(ValueError, match=re.escape(message)):
        partial_transpose(maximally_mixed(2, 2), PartySubset((0,), 3))


def test_eigenvalues_ascending_and_sum_to_trace():
    diag = DensityMatrix(D=2, N=2, matrix=np.diag([0.4, 0.1, 0.3, 0.2]), normalized=True)
    eigs = hermitian_eigenvalues(diag)
    assert np.allclose(eigs, [0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(17)
    rho = random_hermitian(2, 3, rng)
    eigs = hermitian_eigenvalues(rho)
    assert list(eigs) == sorted(eigs)
    assert float(np.sum(eigs)) == pytest.approx(rho.trace(), abs=1e-10)


# ---------------------------------------------------------------------------
# the eigensolve one connected block at a time
# ---------------------------------------------------------------------------

def _agrees_with_dense_solve(rho):
    """hermitian_eigenvalues against one dense eigvalsh: same length, ascending,
    within 1e-14 of the spectral scale; returns the number of blocks."""
    got = hermitian_eigenvalues(rho)
    want = np.linalg.eigvalsh(rho.matrix)
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    return density._components(rho.matrix != 0).max() + 1


@pytest.mark.parametrize("D, N", [(2, 2), (2, 5), (3, 3), (2, 10)])
def test_eigensolve_of_a_dense_matrix_is_the_dense_solve(D, N):
    # one component: the matrix goes to eigvalsh as it is, and the search
    # holds boolean arrays only, no second complex D^N x D^N array
    rho = random_hermitian(D, N, np.random.default_rng(D * 100 + N))
    tracemalloc.start()
    try:
        got = hermitian_eigenvalues(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()
    assert peak < rho.matrix.nbytes / 4 + 2**16  # 2 bytes an entry, and small arrays


@pytest.mark.parametrize("D, N", [(2, 3), (2, 6), (3, 3), (4, 3)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_eigensolve_of_ec_partial_transposes_matches_the_dense_solve(D, N, variant):
    rng = np.random.default_rng(10 * D + N)
    for _ in range(3):
        if variant[0] is ECClass.A:
            prm = ECParams(*variant, D, N, rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
        else:
            prm = ECParams(*variant, D, N, rng.uniform(), tuple(rng.integers(0, 2, N)))
        rho = build_ec_matrix(prm)
        for S in canonical_subsets(N):
            assert _agrees_with_dense_solve(partial_transpose(rho, S)) > 1, (prm.p, S)


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
def test_eigensolve_of_bell_states(kind):
    rho = bell_state(kind)
    assert _agrees_with_dense_solve(rho) == 3
    pt = partial_transpose(rho, PartySubset((1,), 2))
    assert _agrees_with_dense_solve(pt) == 3
    assert list(hermitian_eigenvalues(pt)) == [-0.5, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# the spectrum of a partial transpose, read from rho's own entries
# ---------------------------------------------------------------------------

def _ec_variant(variant, D, N, rng):
    """An EC matrix of ``variant``: complex p in class a, random b_sites in b."""
    if variant[0] is ECClass.A:
        p = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        return build_ec_matrix(ECParams(*variant, D, N, p))
    return build_ec_matrix(ECParams(*variant, D, N, rng.uniform(), tuple(rng.integers(0, 2, N))))


def _same_spectrum_as_the_copy(rho):
    """hermitian_eigenvalues(rho, S) against the copied partial transpose,
    bit for bit, over every canonical cut; returns the subsets checked."""
    for S in canonical_subsets(rho.N):
        got = hermitian_eigenvalues(rho, S)
        assert got.tobytes() == hermitian_eigenvalues(partial_transpose(rho, S)).tobytes(), S
    return canonical_subsets(rho.N)


@pytest.mark.parametrize("D, N", [(2, 3), (2, 6), (3, 3), (4, 3)])
@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: "-".join(x.value for x in v))
def test_eigensolve_of_an_ec_cut_is_that_of_the_copy(D, N, variant):
    rng = np.random.default_rng(100 * D + N)
    for _ in range(2):
        _same_spectrum_as_the_copy(_ec_variant(variant, D, N, rng))


@pytest.mark.parametrize("D, N", [(2, 5), (3, 3)])
def test_eigensolve_of_a_dense_cut_is_that_of_the_copy(D, N):
    rng = np.random.default_rng(7 * D + N)
    _same_spectrum_as_the_copy(random_hermitian(D, N, rng))
    # a partial transpose with a zero row and column: its pattern has two
    # components, a dense block of dim - 1 indices and a single index
    arr = random_hermitian(D, N, rng).matrix.copy()
    arr[3, :] = arr[:, 3] = 0.0
    assert np.bincount(density._components(arr != 0)).tolist() == [D**N - 1, 1]
    subset = PartySubset((0,), N)
    rho = partial_transpose(DensityMatrix(D, N, arr, normalized=False), subset)
    assert subset in _same_spectrum_as_the_copy(rho)
    got = hermitian_eigenvalues(rho, subset)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(arr), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
def test_eigensolve_of_a_bell_cut_is_that_of_the_copy(kind):
    assert len(_same_spectrum_as_the_copy(bell_state(kind))) == 1
    spectrum = hermitian_eigenvalues(bell_state(kind), PartySubset((0,), 2))
    assert list(spectrum) == [-0.5, 0.5, 0.5, 0.5]


def test_eigensolve_of_a_dense_cut_holds_one_copy():
    # one component: a transposed copy goes to eigvalsh, with no index array
    # of the matrix's size beside it (an int64 index is half its bytes)
    rho = random_hermitian(2, 8, np.random.default_rng(37))
    subset = PartySubset((0, 3, 4), 8)
    want = hermitian_eigenvalues(partial_transpose(rho, subset))
    tracemalloc.start()
    try:
        got = hermitian_eigenvalues(rho, subset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 1.25 * rho.matrix.nbytes + 2**16


def test_eigensolve_of_a_permuted_block_diagonal_matrix():
    rng = np.random.default_rng(29)
    sizes = [1, 1, 2, 2, 3, 3, 4, 8, 8]
    arr = np.zeros((32, 32), dtype=np.complex128)
    lo = 0
    for size in sizes:
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        arr[lo : lo + size, lo : lo + size] = raw + raw.conj().T
        lo += size
    perm = rng.permutation(32)
    rho = DensityMatrix(2, 5, arr[perm][:, perm], normalized=False)
    assert _agrees_with_dense_solve(rho) == len(sizes)


def test_eigensolve_of_diagonal_path_and_zero_row_patterns():
    rng = np.random.default_rng(31)
    diag = DensityMatrix(3, 3, np.diag(rng.normal(size=27)), normalized=False)
    assert _agrees_with_dense_solve(diag) == 27
    assert np.array_equal(hermitian_eigenvalues(diag), np.sort(np.diag(diag.matrix).real))
    # a path is one component, found one index per frontier
    off = rng.normal(size=26) + 1j * rng.normal(size=26)
    arr = np.diag(rng.normal(size=27)) + np.diag(off, 1) + np.diag(off.conj(), -1)
    path = DensityMatrix(3, 3, arr, normalized=False)
    assert _agrees_with_dense_solve(path) == 1
    assert hermitian_eigenvalues(path).tobytes() == np.linalg.eigvalsh(arr).tobytes()
    arr[13, 14] = arr[14, 13] = 0.0  # cut in two
    assert _agrees_with_dense_solve(DensityMatrix(3, 3, arr, normalized=False)) == 2
    # a row of zeros is a component of its own, with eigenvalue 0
    dense = random_hermitian(2, 4, rng).matrix.copy()
    dense[5, :] = dense[:, 5] = 0.0
    zero_row = DensityMatrix(2, 4, dense, normalized=False)
    assert _agrees_with_dense_solve(zero_row) == 2
    assert 0.0 in hermitian_eigenvalues(zero_row)


@pytest.mark.parametrize("D, N", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 5)])
def test_derived_matrices_stay_hermitian_exactly(D, N):
    # why hermitian_eigenvalues needs no check of its own: every matrix the
    # package derives is as Hermitian as the matrix it came from
    for variant in all_variants():
        for p in (0.3, 0.8) if variant[0] is ECClass.B else (0.3, 0.8, 0.3 + 0.4j):
            ec = build_ec_matrix(ECParams(*variant, D=D, N=N, p=p))
            assert density._max_asymmetry(ec.matrix) == 0.0
    rng = np.random.default_rng(D * 10 + N)
    arr = random_hermitian(D, N, rng).matrix + 2e-13 * rng.uniform(-1, 1, size=(D**N, D**N))
    rho = DensityMatrix(D, N, arr, normalized=False)
    asym = density._max_asymmetry(rho.matrix)
    assert 1e-13 < asym <= density.HERMITICITY_TOL
    for S in canonical_subsets(N):
        assert density._max_asymmetry(partial_transpose(rho, S).matrix) == asym


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    rho = random_hermitian(2, 2, rng)
    path = tmp_path / "m.json"
    save_matrix(rho, str(path))
    loaded = load_matrix(str(path))
    assert np.array_equal(loaded.matrix, rho.matrix)
    assert loaded.D == rho.D and loaded.N == rho.N
    assert loaded.normalized == rho.normalized
    # a second round trip is byte-identical
    path2 = tmp_path / "m2.json"
    save_matrix(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"D": 2,\n "N": }')
    with pytest.raises(MatrixFormatError, match=r"line 2"):
        load_matrix(str(path))


def test_load_missing_file():
    with pytest.raises(OSError):
        load_matrix("/nonexistent/matrix.json")


def test_load_over_dimension_cap_fails_fast(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"D": 10, "N": 30000000, "normalized": true, "entries": []}\n')
    start = time.perf_counter()
    with pytest.raises(
        MatrixFormatError, match=re.escape(f"{path}: D^N = 10^30000000 exceeds the dimension cap 4096")
    ):
        load_matrix(str(path))
    assert time.perf_counter() - start < 1.0
    payload = {"D": 2, "N": 13, "normalized": True, "entries": []}
    with pytest.raises(MatrixFormatError, match=re.escape("D^N = 8192 exceeds the dimension cap 4096")):
        payload_to_matrix(payload)


def test_load_one_level_parties_within_the_cap(tmp_path):
    # D = 1 is capped as D = 2: the 1x1 matrix stands for 2^N party subsets
    path = tmp_path / "d1.json"
    path.write_text('{"D":1,"N":12,"normalized":true,"entries":[[1,0]]}')
    assert load_matrix(str(path)).N == 12
    path.write_text('{"D":1,"N":13,"normalized":true,"entries":[[1,0]]}')
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(str(path))
    assert str(exc.value) == f"{path}: N = 13 parties exceed the dimension cap 4096"


def test_maximally_mixed_dimension_cap():
    assert maximally_mixed(2, 12).dim == 4096
    with pytest.raises(ValueError, match=re.escape("D^N = 8192 exceeds the dimension cap 4096")):
        maximally_mixed(2, 13)
    with pytest.raises(ValueError, match=re.escape("D^N = 10^1000000000 exceeds the dimension cap")):
        maximally_mixed(10, 10**9)


def test_load_rejects_wrong_shapes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"D": 2, "N": 1, "normalized": False, "entries": [[0, 0]] * 3}))
    with pytest.raises(MatrixFormatError, match="length"):
        load_matrix(str(path))
    path.write_text(json.dumps({"D": 2, "N": 1, "normalized": False}))
    with pytest.raises(MatrixFormatError, match="entries"):
        load_matrix(str(path))
    path.write_text(json.dumps({"D": 2, "N": 1, "normalized": False,
                                "entries": [[0.5, 0], [0, 0], ["x", 0], [0.5, 0]]}))
    with pytest.raises(MatrixFormatError, match="entry 2"):
        load_matrix(str(path))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([True, 0.0], "entry 1 must be a [re, im] pair"),  # numpy reads True as 1.0
        (["0.5", 0.0], "entry 1 must be a [re, im] pair"),  # and "0.5" as 0.5
        ((0.0, 0.0), "entry 1 must be a [re, im] pair"),
        ([0.0, 0.0, 0.0], "entry 1 must be a [re, im] pair"),
        ([0.0, float("inf")], "entry 1 is not finite"),
        ([float("nan"), 0.0], "entry 1 is not finite"),
        ([10**400, 0.0], "entry 1 is not finite"),  # beyond the float range
    ],
)
def test_payload_names_first_bad_entry(bad, message):
    entries = [[0.5, 0.0], bad, [0.0, 0.0], [0.5, 0.0]]
    payload = {"D": 2, "N": 1, "normalized": True, "entries": entries}
    with pytest.raises(MatrixFormatError, match=re.escape(message)):
        payload_to_matrix(payload)


def test_internal_constructor_adopts_the_array():
    arr = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    rho = DensityMatrix._adopt(2, 1, arr, True)
    assert rho.matrix is arr and not arr.flags.writeable
    # the public constructor copies
    assert not np.shares_memory(DensityMatrix(2, 1, rho.matrix).matrix, arr)
    with pytest.raises(ValueError, match="hermiticity invariant violated"):
        DensityMatrix._adopt(2, 1, np.array([[0.5, 0.3], [0.2, 0.5]], complex), True)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix._adopt(2, 1, np.eye(2, dtype=complex), True, hermitian=True)


def test_load_strict_flags_hermiticity(tmp_path):
    payload = {
        "D": 2,
        "N": 1,
        "normalized": False,
        "entries": [[0.5, 0.0], [0.3, 0.0], [0.2, 0.0], [0.5, 0.0]],
    }
    path = tmp_path / "nh.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(MatrixFormatError, match=r"hermiticity.*1\.000e-01"):
        load_matrix(str(path))


def test_load_strict_flags_trace(tmp_path):
    payload = {
        "D": 2,
        "N": 1,
        "normalized": True,
        "entries": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]],
    }
    path = tmp_path / "tr.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(MatrixFormatError, match="trace"):
        load_matrix(str(path))


def test_bell_state_kinds():
    assert element(bell_state("psi-"), (0, 1), (1, 0)) == -0.5
    with pytest.raises(ValueError):
        bell_state("bell")
    with pytest.raises(TypeError):
        bell_state()  # no default kind


def test_matrix_payload_shape():
    rho = maximally_mixed(2, 1)
    assert matrix_to_dict(rho)["entries"] == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    text = '{"D":2,"N":1,"normalized":true,"entries":[[0.5,0.0],[0.0,0.0],[0.0,0.0],[0.5,0.0]]}\n'
    assert "".join(matrix_to_payload(rho)) == text


# ---------------------------------------------------------------------------
# matrix files: the array route against the json route
# ---------------------------------------------------------------------------

def _json_route(path):
    """The loader that parses the whole file with json.loads: its arrays and
    its error messages are what load_matrix must reproduce."""
    try:
        payload = json.loads(open(path, encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past the str digit limit
        raise MatrixFormatError(f"{path}: {exc}") from None
    return payload_to_matrix(payload, origin=str(path))


_EDGE_TOKENS = [
    "0", "-0.0", "0.0", "1E5", "1e+05", "-1e-05", "5e-324", "-5e-324", "1e-400",
    "2.2250738585072014e-308", "1.7976931348623157e308", "9007199254740993",
    "123456789012345678901234567890", "0.30000000000000004", "-0.1000000000000000055511",
    "4.9406564584124654e-324", "1.00000000000000011102230246251565404236316680908203125",
]


def _edge_entries(tokens, dim, rng):
    """dim x dim Hermitian token grid: the conjugate of a token is its negation."""
    neg = lambda t: t[1:] if t.startswith("-") else "-" + t
    grid = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        grid[i][i] = (str(rng.choice(tokens)), str(rng.choice(["0", "0.0", "-0.0", "0e7"])))
        for j in range(i + 1, dim):
            re_, im = str(rng.choice(tokens)), str(rng.choice(tokens))
            grid[i][j], grid[j][i] = (re_, im), (re_, neg(im))
    return [pair for row in grid for pair in row]


def _encode(pairs, D, N, style):
    if style == "compact":
        body = ",".join(f"[{a},{b}]" for a, b in pairs)
        return f'{{"D":{D},"N":{N},"normalized":false,"entries":[{body}]}}'
    if style == "default":
        body = ", ".join(f"[{a}, {b}]" for a, b in pairs)
        return f'{{"D": {D}, "N": {N}, "normalized": false, "entries": [{body}]}}'
    if style == "spaced":
        body = " ,\t".join(f"[ {a} , {b} ]" for a, b in pairs)
        return f'{{"D":{D},"N":{N},"normalized":false,"entries":[ {body} ]}}'
    body = ",\n".join(f" [\n  {a},\n  {b}\n ]" for a, b in pairs)
    return f'{{\n "D": {D},\n "N": {N},\n "normalized": false,\n "entries": [\n{body}\n]\n}}'


@pytest.mark.parametrize("style", ["compact", "default", "indent"])
@pytest.mark.parametrize("with_int_minus_zero", [False, True])
def test_load_bitwise_equal_to_json_route(tmp_path, style, with_int_minus_zero):
    rng = np.random.default_rng(23)
    tokens = _EDGE_TOKENS + ["-0"] * with_int_minus_zero
    for k, (D, N) in enumerate([(2, 1), (2, 2), (3, 2), (1, 0)] * 3):
        pairs = _edge_entries(tokens, D**N, rng)
        path = tmp_path / f"m{k}.json"
        path.write_text(_encode(pairs, D, N, style))
        want = np.array(json.loads(path.read_text())["entries"], dtype=np.float64)
        got = load_matrix(str(path)).matrix.view(np.float64).reshape(-1, 2)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


@pytest.mark.parametrize("slice_bytes", [1, 7, 50])
@pytest.mark.parametrize("style", ["compact", "default", "indent", "spaced"])
def test_load_in_small_slices_equals_json_route(tmp_path, monkeypatch, slice_bytes, style):
    # every slice edge falls after a pair's "]" and its comma, whatever the
    # whitespace around them; an integer -0 in any slice reads as json reads
    # it, on the array route
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(29)
    for k, (D, N) in enumerate([(2, 1), (2, 2), (3, 2), (2, 3), (1, 0)] * 2):
        minus_zero = ["-0", "-0", "1e-0", "-0e-0"] * (k >= 5)
        pairs = _edge_entries(_EDGE_TOKENS + minus_zero, D**N, rng)
        path = tmp_path / f"m{k}.json"
        path.write_text(_encode(pairs, D, N, style))
        want = np.array(json.loads(path.read_text())["entries"], dtype=np.float64)
        got = load_matrix(str(path)).matrix.view(np.float64).reshape(-1, 2)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    ec = build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, CouplingMode.N_FREE, 3, 3, 0.4 - 0.3j))
    save_matrix(ec, str(tmp_path / "ec.json"))
    assert load_matrix(str(tmp_path / "ec.json")).matrix.tobytes() == ec.matrix.tobytes()


def test_load_reads_number_pairs_without_json_entries(tmp_path):
    signed_zeros = np.array([[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    states = [
        build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, CouplingMode.N_FREE, 3, 3, 0.4 - 0.3j)),
        DensityMatrix(2, 1, signed_zeros),  # -0.0 tokens, which json reads as -0.0 too
    ]

    for k, rho in enumerate(states):
        path = tmp_path / f"m{k}.json"
        save_matrix(rho, str(path))
        assert load_matrix(str(path)).matrix.tobytes() == rho.matrix.tobytes()


_GOOD = '{"D":2,"N":1,"normalized":true,"entries":[[0.5,0.0],[0.1,-0.2],[0.1,0.2],[0.5,0.0]]}'


@pytest.mark.parametrize(
    "old, new",
    [
        ("[0.1,-0.2],[0.1,0.2]", "[-0,-0.2],[-0,0.2]"),  # before ","
        ("[0.5,0.0]]", "[0.5,-0]]"),  # before "]", at the end of the entries
        ("[0.5,0.0],", "[0.5,-0],"),
        ("[0.5,0.0],", "[0.5,-0 ],"),  # before whitespace
        ("[0.5,0.0],", "[0.5,-0\t],"),
        ("[0.5,0.0]]", "[0.5,-0\r\n]\n]"),
        ("[0.1,-0.2],[0.1,0.2]", "[-0\n,-0.2],[-0 ,0.2]"),
        ("[0.1,-0.2],[0.1,0.2]", "[1e-0,-2e-0],[10E-1,2e-0]"),  # in an exponent
        ("[0.5,0.0],", "[0.5,-0e-0],"),  # a float token: json reads -0.0
        ("[0.5,0.0],[0.1,-0.2],[0.1,0.2],[0.5,0.0]", "[0.5,-0],[-0,-0],[-0,-0],[0.5,-0]"),
    ],
)
def test_load_integer_minus_zero_without_json_route(tmp_path, old, new):
    # json reads the integer token -0 as +0.0; the array route must too
    assert old in _GOOD
    text = _GOOD.replace(old, new, 1)
    path = tmp_path / "m.json"
    path.write_text(text)
    want = np.array(json.loads(text)["entries"], dtype=np.float64)
    got = load_matrix(str(path)).matrix.view(np.float64).reshape(-1, 2)
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


@pytest.mark.parametrize(
    "old, new",
    [("0.1", t) for t in ["+1", "01", "1.", ".5", "NaN", "Infinity", "-Infinity", "1e400",
                          "1" + "0" * 400, '"0.1"', "true", "null", "1e", "-", "[0.1]"]]
    + [
        ("[0.5,0.0]]", "[0.5,0.0],]"),  # trailing comma
        ("[0.1,-0.2]", "[0.1]"),
        ("[0.1,-0.2]", "[0.1,-0.2,0.0]"),
        ("[0.1,-0.2]", "[0.1,-0.3]"),  # not Hermitian
        ("[0.5,0.0],[0.1", "[0.6,0.0],[0.1"),  # trace
        ('"normalized":true', '"normalized":1'),
        ('"D":2', '"D":2.0'),
        ('"D":2', '"D":10,"N":30000000'),
        ('"D":2,', '"x":{"entries":[[1,0]]},'),  # "entries" of a nested object only
        ("]]}", "]]}x"),
        ('"N":1,', '\r"N":,'),  # a lone CR ends a line in a text-mode read
        ('"N":1,', '\r\n"N":,'),
        (_GOOD, f"[{_GOOD}]"),  # the top-level value is not an object
        # pairs in the header, read back to be printed; in a string, none
        ('"D":2', '"D":[[1,0]]'),
        ('"D":2', '"D":{"x":"y,[1,2]","z":[[1,2],[3,4]]}'),
        ("[0.1,-0.2]", '",[1,2]"'),  # entries that are not pairs, around pairs
        ("[0.1,-0.2]", '{"a":[[1,0],[2,0]]}'),
        ("[0.1,-0.2],[0.1,0.2]", '[0.0,0.0],"x"'),  # zero pairs before an item that is not
        ("[0.1,-0.2],[0.1,0.2],[0.5,0.0]", "[0.0,0.0], [0.0,0.0] ,[1]"),
        ("]]}", ']],"x":"a,[1,\r0]}'),  # a string never closed, a control character in it
        (_GOOD, _GOOD.replace(":", ": ").replace(",", ",\r\n ").replace("]]}", "]],\r\n}\r\n")),
    ],
)
def test_load_errors_match_json_route(tmp_path, old, new):
    path = tmp_path / "bad.json"
    path.write_text(_GOOD.replace(old, new, 1))
    with pytest.raises(MatrixFormatError) as want:
        _json_route(path)
    with pytest.raises(MatrixFormatError) as got:
        load_matrix(str(path))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "data",
    [
        _GOOD.encode()[:-1] + b',"x":"\xff"}',  # a byte that is not UTF-8, after the entries
        _GOOD.encode()[:-1] + b',"x":"\xc3[1,2]"}',
        # a column counts characters, not bytes
        _GOOD.encode().replace(b'"D":2,', b'"\xc3\xa9":"\xe2\x82\xac","D":2 2,'),
        _GOOD.encode().replace(b"[0.5,0.0]]", b"[0.5,0.0]]\n,\"\xc3\xa9\" ]"),
        b"\xef\xbb\xbf" + _GOOD.encode(),  # a byte order mark
    ],
)
def test_load_error_bytes_match_json_route(tmp_path, data):
    # files that write_text cannot produce, named at their place in the file
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(MatrixFormatError) as want:
        _json_route(path)
    with pytest.raises(MatrixFormatError) as got:
        load_matrix(str(path))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"entries"', '"\\u0065ntries"'),  # the key, spelled with an escape
        ('"D":2,', '"x":{"entries":[[1,0]]},"D":2,'),
        ('"D":2,', '"entries":[[1,0]],"D":2,'),  # json keeps the last duplicate
        ('"D":2,', '"\\u0065ntries":[[1,0]],"D":2,'),
        ("0.1,-0.2", " 0.1 ,\r\n\t-0.2 "),
        ("[0.5,0.0]]", "[0.5,-0]]"),
        ('"normalized"', '"\\u006eormalized"'),  # a header key spelled with an escape
        ('"D":2,', '"x":"a\\"\\\\b\\u00e9","D":2,'),  # escapes in a string value
        ("]]}", ']],"x":[{"entries":[]},{"entries":[[1,0],[2,0]]}]}'),
        ('"D":2,', '"\\u0065ntries":{"entries":[[1,0]]},"D":2,'),
        ('"entries"', '"en\\u0074ries"'),
        ('"D":2,', '"x":"a:[[1,0]]","D":2,'),  # a member's text inside a string value
        ('"D":2,', '"x:[[0.5,0.0]]":1,"D":2,'),  # and inside a key
        ('"D":2,', '"x":"\\":[[1,0]]","D":2,'),  # after an escaped quote
        ('"D":2,', '"x":[[1,0]],"D":2,'),  # pairs under another key, before "entries"
        ("]]}", ']],"x":[[1,0],[2,0]]}'),  # and after it
        ('"D":2,', '"\\u0065ntries":{"\\u0065ntries":[[1,0]]},"D":2,'),
        ('"entries":', '"entries" :\n'),
    ],
)
def test_load_unusual_json_equals_json_route(tmp_path, old, new):
    # every valid spelling takes the streamed route, the escaped key included
    path = tmp_path / "odd.json"
    path.write_text(_GOOD.replace(old, new, 1))
    want = _json_route(path)
    got = load_matrix(str(path))
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.normalized == want.normalized


_OUT_OF_RANGE = ["1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 5000]


@pytest.mark.parametrize("slice_bytes", [1, 7, 50, density.PARSE_SLICE_BYTES])
@pytest.mark.parametrize("style", ["compact", "spaced"])
def test_load_out_of_range_entry_errors_match_json_route(tmp_path, monkeypatch, slice_bytes, style):
    # numpy reads each of these as inf; the pair alone is json's to name
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", slice_bytes)
    pairs = _edge_entries(_EDGE_TOKENS + ["-0"], 4, np.random.default_rng(31))
    path = tmp_path / "bad.json"
    for token in _OUT_OF_RANGE:
        for k in range(len(pairs)):
            for part in (0, 1):
                bad = [list(pair) for pair in pairs]
                bad[k][part] = token
                path.write_text(_encode(bad, 2, 2, style))
                with pytest.raises(MatrixFormatError) as want:
                    _json_route(path)
                with pytest.raises(MatrixFormatError) as got:
                    load_matrix(str(path))
                assert str(got.value) == str(want.value)


_SEPARATORS = [",", ",", ",", ", ", " ,", " , ", ",\n ", "\r\n,\t"]


def _sparse_grid(dim, rng, zero_share, zeros=(("0.0", "0.0"),)):
    """dim x dim Hermitian token grid of [0.0,0.0] pairs (or another spelling
    from ``zeros``) at about ``zero_share`` of the entries, the first and the
    last entry among them."""
    grid = _edge_entries(_EDGE_TOKENS, dim, rng)
    for i in range(dim):
        for j in range(i, dim):
            if (i, j) in ((0, 0), (dim - 1, dim - 1)) or rng.random() < zero_share:
                grid[i * dim + j] = tuple(zeros[rng.integers(len(zeros))])
                grid[j * dim + i] = tuple(zeros[rng.integers(len(zeros))])
    return grid


def _sparse_text(pairs, D, N, rng):
    """A matrix file of compact pairs between separators drawn from _SEPARATORS."""
    body = "".join(
        (rng.choice(_SEPARATORS) if k else "") + f"[{a},{b}]" for k, (a, b) in enumerate(pairs)
    )
    return f'{{"D":{D},"N":{N},"normalized":false,"entries":[{body}]}}'


@pytest.mark.parametrize("slice_bytes", [1, 7, 50, density.PARSE_SLICE_BYTES])
def test_load_zero_runs_equal_json_route(tmp_path, monkeypatch, slice_bytes):
    # runs of [0.0,0.0] pairs at the start, in the middle and up to the last
    # pair (no comma after it), with whitespace before and after their
    # commas, and zeros spelled otherwise among them, read bit for bit as
    # json reads them
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(37)
    other_zeros = [("0.0", "0.0"), ("-0.0", "0.0"), ("0", "-0"), ("0.00", "0e0"), ("0.0", "-0")]
    for k, (D, N) in enumerate([(2, 1), (2, 2), (3, 2), (2, 3), (1, 0)] * 4):
        zeros = other_zeros if k % 2 else other_zeros[:1]
        pairs = _sparse_grid(D**N, rng, [0.5, 0.9, 1.0, 0.0][k // 5], zeros)
        path = tmp_path / f"m{k}.json"
        path.write_text(_sparse_text(pairs, D, N, rng))
        want = np.array(json.loads(path.read_text())["entries"], dtype=np.float64)
        got = load_matrix(str(path)).matrix.view(np.float64).reshape(-1, 2)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), path.read_text()


def test_load_all_zero_matrix(tmp_path):
    path = tmp_path / "zero.json"
    for sep in [",", ", ", " ,\n"]:
        pairs = sep.join(["[0.0,0.0]"] * 16)
        path.write_text(f'{{"D":2,"N":2,"normalized":false,"entries":[{pairs}]}}')
        got = load_matrix(str(path)).matrix
        assert got.tobytes() == np.zeros((4, 4), dtype=complex).tobytes()


@pytest.mark.parametrize("slice_bytes", [1, 7, 50, density.PARSE_SLICE_BYTES])
def test_load_out_of_range_entry_after_zero_runs(tmp_path, monkeypatch, slice_bytes):
    # the index of the entry named counts the zero pairs that were skipped
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(41)
    path = tmp_path / "bad.json"
    pairs = _sparse_grid(8, rng, 0.8)
    for k in range(0, len(pairs), 3):
        for part in (0, 1):
            bad = [list(pair) for pair in pairs]
            bad[k][part] = "1e400"
            path.write_text(_sparse_text(bad, 2, 3, rng))
            with pytest.raises(MatrixFormatError) as want:
                _json_route(path)
            with pytest.raises(MatrixFormatError) as got:
                load_matrix(str(path))
            assert str(got.value) == str(want.value)
            assert f"entry {k} is not finite" in str(got.value)


@pytest.mark.parametrize(
    "old, new",
    [
        ("[0.5,0.0]]", "[0.[0.0,0.0],5,0.0]]"),  # inside a number
        ("[0.5,0.0]]", "[0.5[0.0,0.0],,0.0]]"),
        ("[0.5,0.0]]", "[0.5,[0.0,0.0],0.0]]"),  # inside a pair
        ("[0.5,0.0]]", "[[0.0,0.0],0.5,0.0]]"),
        ("[0.5,0.0]]", "[0.5,0.0[0.0,0.0],]]"),
        ("[0.5,0.0]]", "[0.5,0.0],[0.0,0.0],]"),  # a trailing comma after a run
        ("[0.5,0.0],", "[0.5,0.0],[0.0,0.0],,"),
    ],
)
def test_load_spliced_zero_pair_errors_match_json_route(tmp_path, old, new):
    zeros = _GOOD.replace("[0.1,-0.2],[0.1,0.2]", "[0.0,0.0],[0.0,0.0]")
    path = tmp_path / "bad.json"
    path.write_text(zeros.replace(old, new, 1))
    with pytest.raises(MatrixFormatError) as want:
        _json_route(path)
    with pytest.raises(MatrixFormatError) as got:
        load_matrix(str(path))
    assert str(got.value) == str(want.value)


def test_load_parses_no_zero_run(tmp_path, monkeypatch):
    # at D=2 an EC matrix has two nonzero entries a row: the text numpy
    # parses is that of those pairs, not of the runs of [0.0,0.0] between them
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 8, 0.3 + 0.4j))
    path = tmp_path / "ec.json"
    save_matrix(rho, str(path))
    parsed = []
    fromstring = np.fromstring
    monkeypatch.setattr(density.np, "fromstring", lambda text, **kw: (
        parsed.append(len(text)), fromstring(text, **kw))[1])
    assert load_matrix(str(path)).matrix.tobytes() == rho.matrix.tobytes()
    data = path.read_bytes()
    entries = len(data) - data.index(b'"entries":')
    assert 0 < sum(parsed) < 0.05 * entries, (sum(parsed), entries)


def test_read_marked_refuses_deep_nesting():
    # json.loads raises RecursionError, not ValueError, past its stack depth
    with pytest.raises(MatrixFormatError, match="^x: JSON nesting too deep to parse$"):
        density._read_marked(b"[" * 3000 + b"]" * 3000, [], "x")


def test_load_error_messages(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(_GOOD.replace("0.1", "+1", 1))
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(str(path))
    assert str(exc.value) == f"{path}: JSON parse error at line 1, column 54: Expecting value"
    path.write_text(_GOOD.replace("0.1", "1" + "0" * 400, 1))
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}: entry 1 is not finite: [1000")):
        load_matrix(str(path))


def test_load_names_invariants_as_the_constructor_does(tmp_path):
    path = tmp_path / "m.json"
    non_hermitian = np.array([[0.5, 0.3], [0.2, 0.5]], dtype=complex)
    wrong_trace = np.diag([0.9, 0.3]).astype(complex)
    for arr in (non_hermitian, wrong_trace):
        entries = arr.view(np.float64).reshape(-1, 2).tolist()
        path.write_text(json.dumps({"D": 2, "N": 1, "normalized": True, "entries": entries}))
        with pytest.raises(ValueError) as built:
            DensityMatrix(2, 1, arr)
        with pytest.raises(MatrixFormatError) as loaded:
            load_matrix(str(path))
        assert str(loaded.value) == f"{path}: " + str(built.value)


def test_load_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"D":2,"N":1,"normalized":true,"x":"\xff",'
                     b'"entries":[[0.5,0],[0,0],[0,0],[0.5,0]]}')
    with pytest.raises(MatrixFormatError, match=re.escape(
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 36"
    )):
        load_matrix(str(path))


def test_load_integer_beyond_the_digit_limit(tmp_path):
    # json.loads refuses to convert an integer token of more digits than
    # sys.get_int_max_str_digits() (4300 by default)
    path = tmp_path / "long.json"
    path.write_text(_GOOD.replace("0.1", "1" + "0" * 5000, 1))
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}: Exceeds the limit")):
        load_matrix(str(path))


def test_load_overflowing_asymmetry_is_rejected_without_a_warning(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"D": 2, "N": 1, "normalized": False,
                                "entries": [[1e308, 0], [1e308, 0], [-1e308, 0], [1e308, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match=re.escape(
            f"{path}: hermiticity invariant violated: max |M - M^dag| = inf"
        )):
            load_matrix(str(path))


@pytest.mark.parametrize("diagonal", [[1e308, 1e308], [1e308, 1e308, -1e308, -1e308]])
def test_load_overflowing_trace_is_rejected_without_a_warning(tmp_path, diagonal):
    # finite entries whose trace overflows to inf, or (summed pairwise) to nan
    dim = len(diagonal)
    entries = [[diagonal[k // (dim + 1)], 0] if k % (dim + 1) == 0 else [0, 0]
               for k in range(dim * dim)]
    path = tmp_path / "big-trace.json"
    path.write_text(json.dumps({"D": dim, "N": 1, "normalized": True, "entries": entries}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match=re.escape(
            f"{path}: trace invariant violated: |trace - 1| = "
        )):
            load_matrix(str(path))


@pytest.mark.parametrize("D, N", [(2, 1), (3, 2), (2, 5), (3, 5)])  # (3, 5): two chunks
def test_matrix_json_equals_json_dumps(D, N):
    rng = np.random.default_rng(D * 10 + N)
    rho = random_hermitian(D, N, rng, scale=10.0 ** rng.integers(-300, 300))
    ec = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, D, max(N, 2), 0.3 + 0.4j))
    for m in (rho, ec, maximally_mixed(D, N)):
        want = json.dumps(matrix_to_dict(m), separators=(",", ":")) + "\n"
        assert "".join(density.matrix_to_payload(m)) == want


def test_matrix_to_payload_writes_whole_chunks(monkeypatch):
    monkeypatch.setattr(density, "WRITE_CHUNK", 6)  # three pairs per chunk
    rho = maximally_mixed(2, 2)  # 16 pairs: five full chunks and one of a pair
    chunks = list(density.matrix_to_payload(rho))
    assert "".join(chunks) == json.dumps(matrix_to_dict(rho), separators=(",", ":")) + "\n"
    entries = [c for c in chunks[1:-1] if c != "],["]
    assert [c.count(",") for c in entries] == [5] * 5 + [1]


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 0.0, -0.0],
    [5e-324, 2.2250738585072014e-308, -5e-324, 5e-324],
    [1e16, 9999999999999998.0, 1e16, -1e16],
    [1e-4, 9.999999999999999e-05, 1e-4, 0.0001],
    [1e22, 1.7976931348623157e308, -1.7976931348623157e308, 1e22],
    [0.1, 0.2, 0.30000000000000004, 1 / 3],  # all distinct
    [],
], ids=["signed-zeros", "subnormal", "1e16", "1e-4", "extremes", "distinct", "empty"])
def test_float_texts_equals_repr_at_edge_values(values):
    x = np.array(values, dtype=np.float64)
    assert float_texts(x) == list(map(repr, x.tolist()))


def test_float_texts_equals_repr_on_random_bit_patterns():
    rng = np.random.default_rng(2024)
    x = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10**5, dtype=np.int64,
                     endpoint=True).view(np.float64)
    x = x[np.isfinite(x)]
    assert float_texts(x) == list(map(repr, x.tolist()))
    # a few distinct values, heavily repeated, in shuffled order
    pool = np.concatenate([x[:7], [0.0, -0.0, 1e16, 9999999999999998.0]])
    for size in (1, 2, 1000, 65536):
        y = rng.permutation(rng.choice(pool, size))
        assert float_texts(y) == list(map(repr, y.tolist()))


def test_matrix_to_payload_keeps_signed_zeros_apart(monkeypatch):
    monkeypatch.setattr(density, "WRITE_CHUNK", 8)  # four pairs per chunk
    # the first chunk holds 0.0 and -0.0: equal as floats, written apart
    m = np.array([[0.5, complex(0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    rho = DensityMatrix(D=2, N=1, matrix=m, normalized=True)
    want = json.dumps(matrix_to_dict(rho), separators=(",", ":")) + "\n"
    assert want == '{"D":2,"N":1,"normalized":true,"entries":[[0.5,0.0],[0.0,-0.0],[-0.0,0.0],[0.5,0.0]]}\n'
    assert "".join(density.matrix_to_payload(rho)) == want


@pytest.mark.parametrize("write_chunk", [6, 8, density.WRITE_CHUNK])
def test_matrix_to_payload_writes_zero_runs_as_json_does(monkeypatch, write_chunk):
    # runs of (+0.0, +0.0) pairs across chunk edges, whole chunks of them, and
    # pairs with a -0.0 or a subnormal next to them, each in its own text
    monkeypatch.setattr(density, "WRITE_CHUNK", write_chunk)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0], m[7, 7] = 0.25, 0.75
    m[1, 2], m[2, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    m[3, 5], m[5, 3] = complex(0.0, 5e-324), complex(0.0, -5e-324)
    m[4, 4] = complex(-0.0, -0.0)
    texts = []
    for rho in (DensityMatrix(2, 3, m), DensityMatrix(2, 3, np.zeros((8, 8)), normalized=False)):
        texts.append("".join(density.matrix_to_payload(rho)))
        assert texts[-1] == json.dumps(matrix_to_dict(rho), separators=(",", ":")) + "\n"
    for pair in ("[-0.0,0.0]", "[0.0,-0.0]", "[0.0,5e-324]", "[0.0,-5e-324]", "[-0.0,-0.0]"):
        assert pair in texts[0]


def test_save_rejects_non_finite_entries(tmp_path):
    arr = np.array([[np.inf, 0.0], [0.0, 0.5]], dtype=complex)
    rho = DensityMatrix._adopt(2, 1, arr, False, hermitian=True)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        density.matrix_to_payload(rho)  # before the first chunk is asked for
    path = tmp_path / "m.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        save_matrix(rho, str(path))
    assert path.read_text() == "kept"


@pytest.mark.parametrize("bad", [complex(0.25, np.nan), complex(np.inf, 0.0), complex(0.25, -np.inf)])
def test_save_checks_every_chunk_before_the_first_piece(monkeypatch, bad):
    # the finiteness check runs a chunk at a time, all of it before the
    # first piece: a non-finite entry in the last chunk still writes nothing
    monkeypatch.setattr(density, "WRITE_CHUNK", 6)  # three pairs per chunk
    arr = maximally_mixed(2, 2).matrix.copy()
    arr[-1, -1] = bad
    rho = DensityMatrix._adopt(2, 2, arr, False, hermitian=True)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        density.matrix_to_payload(rho)  # before the first chunk is asked for


def test_save_memory_bound_at_1024():
    # beside the matrix, the writer holds one chunk's check and text; a
    # whole-matrix finiteness mask alone is 2 MiB here (32 MiB at D^N = 4096)
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 10, 0.3 + 0.4j))
    "".join(density.matrix_to_payload(maximally_mixed(2, 2)))  # one-time setup stays out
    tracemalloc.start()
    try:
        for piece in density.matrix_to_payload(rho):
            del piece
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"the writer peaked at {peak / 2**20:.2f} MiB"


def test_load_memory_bound_at_1024(tmp_path):
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 10, 0.3 + 0.4j))
    path = tmp_path / "cap.json"
    tracemalloc.start()
    try:
        save_matrix(rho, str(path))
        saved = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text joined whole would take twice the file
    assert saved < path.stat().st_size / 2, f"save peaked at {saved / 2**20:.1f} MiB"
    want = rho.matrix.tobytes()
    del rho
    text = path.read_text()
    for old, new in [
        ("", ""),  # the file as saved
        ('"normalized"', '"\\u006eormalized"'),
        ('"D":2,', '"x":{"entries":[[1,0]]},"D":2,'),
        ('"D":2,', '"entries":[[1,0]],"D":2,'),
    ]:
        path.write_text(text.replace(old, new, 1))
        tracemalloc.start()
        try:
            loaded = load_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.matrix.tobytes() == want
        # the file's bytes are dropped before the matrix is allocated, and
        # the entries are read again a slice at a time
        bound = len(want) + 4 * density.PARSE_SLICE_BYTES
        assert peak < bound, f"load of {new!r} peaked at {peak / 2**20:.2f} MiB"


def _traced_load(path):
    """load_matrix(path), or the MatrixFormatError it raises, and the traced peak."""
    tracemalloc.start()
    try:
        try:
            result = load_matrix(str(path))
        except MatrixFormatError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ec28_text(tmp_path):
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 8, 0.3 + 0.4j))
    save_matrix(rho, str(tmp_path / "ec.json"))
    return rho, (tmp_path / "ec.json").read_text()


@pytest.mark.parametrize("defect", ["pair", "cut"])
def test_load_names_a_defect_in_bounded_memory(tmp_path, defect):
    # one marked reading names the defect of a file that breaks the format, in
    # the words of a parse of the whole file, holding little beyond its bytes
    _, text = _ec28_text(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(text.replace("[0.0,0.0]", '[0.0,"x"]', 1) if defect == "pair" else text[:-3])
    with pytest.raises(MatrixFormatError) as want:
        _json_route(path)
    got, peak = _traced_load(path)
    assert isinstance(got, MatrixFormatError) and str(got) == str(want.value)
    assert peak < path.stat().st_size + 2**20, f"naming peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("where", ["before", "after"])
def test_load_entries_also_under_another_key(tmp_path, where):
    # a second array of the same pairs is one more mark in the reading, never
    # a list of Python pairs: the load peaks as the plain file's does
    rho, text = _ec28_text(tmp_path)
    plain, plain_peak = _traced_load(tmp_path / "ec.json")
    entries = text[text.index('"entries":') + len('"entries":') : text.rindex("}")]
    path = tmp_path / "copy.json"
    if where == "before":
        path.write_text(text.replace('"D":', f'"x":{entries},"D":', 1))
    else:
        path.write_text(text[: text.rindex("}")] + f',"x":{entries}}}\n')
    got, peak = _traced_load(path)
    assert got.matrix.tobytes() == plain.matrix.tobytes() == rho.matrix.tobytes()
    assert peak <= plain_peak + 2**19, f"{peak / 2**20:.2f} MiB, plain {plain_peak / 2**20:.2f}"


def _ec_file(tmp_path):
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 3, 0.3 + 0.4j))
    path = tmp_path / "ec.json"
    save_matrix(rho, str(path))
    return rho, path


@pytest.mark.parametrize("slice_bytes", [7, density.PARSE_SLICE_BYTES])
@pytest.mark.parametrize("change", ["digit", "truncate"])
def test_load_refuses_a_file_changed_while_it_is_read(tmp_path, monkeypatch, capsys, change,
                                                      slice_bytes):
    # the entries are checked on the file's bytes, which are then dropped and
    # the entries read again: a file rewritten in between is refused, whether
    # the change keeps its length (a CRC-32 mismatch) or not (a short read)
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", slice_bytes)
    _, path = _ec_file(tmp_path)
    text = path.read_text()
    last = text.rindex("0.0]")  # a digit of the last entry
    changed = text[:last] + "0.1]" + text[last + 4 :] if change == "digit" else text[:-40]
    read_marked = density._read_marked

    def rewrite(*args):
        path.write_text(changed)
        return read_marked(*args)

    monkeypatch.setattr(density, "_read_marked", rewrite)
    message = f"{path}: changed while it was read"
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(message)}$"):
        load_matrix(str(path))
    path.write_text(text)
    assert run_cli(["classify", "--input", str(path)], capsys) == (2, "", f"error: {message}\n")


def test_load_refuses_a_slice_that_no_longer_parses(tmp_path, monkeypatch):
    # a rewrite of the same length whose text is no longer pairs of numbers
    # is refused at the slice, before its CRC-32 is known
    monkeypatch.setattr(density, "PARSE_SLICE_BYTES", 7)
    _, path = _ec_file(tmp_path)
    text = path.read_text()
    read_marked = density._read_marked
    for old, new in [("[0.0,0.0]", "[0.0 0.0]"), ("[0.0,0.0]", " 0.0,0.0]"), ("0.0", "x.0")]:
        at = text.index(old, len(text) // 2)

        def rewrite(*args, changed=text[:at] + new + text[at + len(old) :]):
            path.write_text(changed)
            return read_marked(*args)

        monkeypatch.setattr(density, "_read_marked", rewrite)
        with pytest.raises(MatrixFormatError, match="changed while it was read"):
            load_matrix(str(path))
        path.write_text(text)


def test_load_from_a_named_pipe(tmp_path):
    # a pipe cannot be read twice: its bytes, read once, are parsed in place
    rho, path = _ec_file(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        loaded = load_matrix(str(fifo))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert loaded.matrix.tobytes() == load_matrix(str(path)).matrix.tobytes()
    assert loaded.matrix.tobytes() == rho.matrix.tobytes()


def _dense_asymmetry(arr):
    """The oracle of ``density._max_asymmetry``: the whole difference at once."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(arr - arr.conj().T)))


@pytest.mark.parametrize("dim", [1, 243, 1024])
def test_hermiticity_scan_equals_the_dense_difference(dim):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    arr = g + g.conj().T + 1e-13 * rng.normal(size=(dim, dim))
    assert density._max_asymmetry(arr) == _dense_asymmetry(arr)
    assert density._max_asymmetry(arr + arr.conj().T) == 0.0


@pytest.mark.parametrize("row, col", [(0, 1023), (1023, 0), (500, 501), (7, 7)],
                         ids=["upper-tile", "lower-tile", "diagonal-tile", "diagonal"])
def test_hermiticity_scan_finds_a_violation_in_any_tile(row, col):
    # tiles of at least 2 and at most 500 rows put (0, 1023) above the
    # diagonal tiles, (1023, 0) below them, and (500, 501) in one
    arr = np.eye(1024, dtype=complex) / 1024
    arr[row, col] += 3e-12 - 2e-12j
    asym = _dense_asymmetry(arr)
    assert density._max_asymmetry(arr) == asym > density.HERMITICITY_TOL
    message = f"hermiticity invariant violated: max |M - M^dag| = {asym:.3e}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DensityMatrix(2, 10, arr)
    arr[row, col] = float("nan")
    assert np.isnan(density._max_asymmetry(arr))
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        DensityMatrix(2, 10, arr, normalized=False)
