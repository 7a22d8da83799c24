import json
import re
import time

import numpy as np
import pytest

from conftest import random_hermitian
from causal_sep.density import (
    DensityMatrix,
    MatrixFormatError,
    PartySubset,
    basis_state,
    bell_state,
    canonical_subsets,
    config_to_index,
    element,
    hermitian_eigenvalues,
    index_to_config,
    load_matrix,
    matrix_to_payload,
    maximally_mixed,
    partial_transpose,
    payload_to_matrix,
    save_matrix,
    tensor_product,
    transpose_parties,
)


def test_index_encoding_last_party_fastest():
    assert config_to_index((0, 0), 2) == 0
    assert config_to_index((0, 1), 2) == 1
    assert config_to_index((1, 0), 2) == 2
    assert config_to_index((1, 2), 3) == 5
    for idx in range(27):
        assert config_to_index(index_to_config(idx, 3, 3), 3) == idx


def test_index_validation():
    with pytest.raises(ValueError):
        config_to_index((0, 2), 2)
    with pytest.raises(ValueError):
        index_to_config(9, 3, 2)


def test_construction_checks_hermiticity():
    bad = np.array([[0.5, 0.3], [0.2, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(D=2, N=1, matrix=bad, normalized=True)
    # the error names the size of the violation
    with pytest.raises(ValueError, match="1.000e-01"):
        DensityMatrix(D=2, N=1, matrix=bad, normalized=True)


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


def test_tensor_product():
    scalar = DensityMatrix(D=2, N=0, matrix=np.eye(1), normalized=True)
    mm = maximally_mixed(2, 2)
    assert np.array_equal(tensor_product(scalar, mm).matrix, mm.matrix)
    a = basis_state((0,), 2)
    b = basis_state((1,), 2)
    ab = tensor_product(a, b)
    assert ab.N == 2
    assert element(ab, (0, 1), (0, 1)) == 1.0
    with pytest.raises(ValueError):
        tensor_product(a, maximally_mixed(3, 1))


def test_tensor_product_trace_multiplies():
    rng = np.random.default_rng(7)
    x = random_hermitian(2, 1, rng)
    y = random_hermitian(2, 2, rng)
    xy = tensor_product(x, y)
    assert xy.trace() == pytest.approx(x.trace() * y.trace(), abs=1e-12)


def test_party_subset_validation():
    s = PartySubset((2, 0), 4)
    assert s.members == (0, 2)
    assert s.complement().members == (1, 3)
    with pytest.raises(ValueError):
        PartySubset((), 3)
    with pytest.raises(ValueError):
        PartySubset((0, 1), 2)  # not proper
    with pytest.raises(ValueError):
        PartySubset((3,), 3)
    with pytest.raises(ValueError):
        PartySubset((0, 0), 3)


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


def test_eigenvalues_ascending_and_sum_to_trace():
    diag = DensityMatrix(D=2, N=2, matrix=np.diag([0.4, 0.1, 0.3, 0.2]), normalized=True)
    eigs = hermitian_eigenvalues(diag)
    assert np.allclose(eigs, [0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(17)
    rho = random_hermitian(2, 3, rng)
    eigs = hermitian_eigenvalues(rho)
    assert list(eigs) == sorted(eigs)
    assert float(np.sum(eigs)) == pytest.approx(rho.trace(), abs=1e-10)


def test_eigenvalues_reject_non_hermitian():
    # the constructor already rejects asymmetry, so smuggle it in raw
    tweaked = maximally_mixed(2, 2).matrix.copy()
    tweaked[0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(_raw(tweaked))


def _raw(arr):
    """DensityMatrix carrying arr without construction checks (test hook)."""
    obj = DensityMatrix.__new__(DensityMatrix)
    object.__setattr__(obj, "D", 2)
    object.__setattr__(obj, "N", 2)
    object.__setattr__(obj, "matrix", arr)
    object.__setattr__(obj, "normalized", False)
    return obj


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
    with pytest.raises(ValueError, match="Hermitian"):
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
    repaired = load_matrix(str(path), strict=False)
    assert repaired.matrix[0, 1] == pytest.approx(0.25)
    assert repaired.matrix[1, 0] == pytest.approx(0.25)


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
    lenient = load_matrix(str(path), strict=False)
    assert lenient.normalized is False


def test_bell_state_kinds():
    assert element(bell_state("psi-"), (0, 1), (1, 0)) == -0.5
    with pytest.raises(ValueError):
        bell_state("bell")
    with pytest.raises(TypeError):
        bell_state()  # no default kind


def test_matrix_payload_shape():
    payload = matrix_to_payload(maximally_mixed(2, 1))
    assert payload["entries"] == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
