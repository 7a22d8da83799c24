import json
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import element, random_hermitian
from causal_sep import density
from causal_sep.density import (
    DensityMatrix,
    MatrixFormatError,
    PartySubset,
    bell_state,
    canonical_subsets,
    config_to_index,
    float_texts,
    hermitian_eigenvalues,
    load_matrix,
    matrix_json,
    matrix_to_payload,
    maximally_mixed,
    partial_transpose,
    payload_to_matrix,
    save_matrix,
    transpose_parties,
)
from causal_sep.ec_family import ECClass, ECParams, Mixing, all_variants, build_ec_matrix
from causal_sep.config_calculus import CouplingMode, enumerate_configurations


def test_index_encoding_last_party_fastest():
    assert config_to_index((0, 0), 2) == 0
    assert config_to_index((0, 1), 2) == 1
    assert config_to_index((1, 0), 2) == 2
    assert config_to_index((1, 2), 3) == 5
    for idx, c in enumerate(enumerate_configurations(3, 3)):
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
    payload = matrix_to_payload(maximally_mixed(2, 1))
    assert payload["entries"] == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]


# ---------------------------------------------------------------------------
# matrix files: the array route against the json route
# ---------------------------------------------------------------------------

def _json_route(path):
    """The loader that parses the whole file with json.loads: its arrays and
    its error messages are what load_matrix must reproduce."""
    text = open(path, encoding="utf-8").read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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


def _refuse_json_route(*args, **kwargs):
    raise AssertionError("the json route ran on a file of number pairs")


@pytest.mark.parametrize("style", ["compact", "default", "indent"])
@pytest.mark.parametrize("with_int_minus_zero", [False, True])
def test_load_bitwise_equal_to_json_route(tmp_path, monkeypatch, style, with_int_minus_zero):
    monkeypatch.setattr(density, "payload_to_matrix", _refuse_json_route)
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
    monkeypatch.setattr(density, "payload_to_matrix", _refuse_json_route)
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


def test_load_reads_number_pairs_without_json_entries(tmp_path, monkeypatch):
    signed_zeros = np.array([[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    states = [
        build_ec_matrix(ECParams(ECClass.A, Mixing.WEAK, CouplingMode.N_FREE, 3, 3, 0.4 - 0.3j)),
        DensityMatrix(2, 1, signed_zeros),  # -0.0 tokens, which json reads as -0.0 too
    ]

    monkeypatch.setattr(density, "payload_to_matrix", _refuse_json_route)
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
def test_load_integer_minus_zero_without_json_route(tmp_path, monkeypatch, old, new):
    # json reads the integer token -0 as +0.0; the array route must too
    assert old in _GOOD
    text = _GOOD.replace(old, new, 1)
    path = tmp_path / "m.json"
    path.write_text(text)
    monkeypatch.setattr(density, "payload_to_matrix", _refuse_json_route)
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
    "old, new",
    [
        ('"entries"', '"\\u0065ntries"'),  # the key, spelled with an escape
        ('"D":2,', '"x":{"entries":[[1,0]]},"D":2,'),
        ('"D":2,', '"entries":[[1,0]],"D":2,'),  # json keeps the last duplicate
        ('"D":2,', '"\\u0065ntries":[[1,0]],"D":2,'),
        ("0.1,-0.2", " 0.1 ,\r\n\t-0.2 "),
        ("[0.5,0.0]]", "[0.5,-0]]"),
    ],
)
def test_load_unusual_json_equals_json_route(tmp_path, old, new):
    path = tmp_path / "odd.json"
    path.write_text(_GOOD.replace(old, new, 1))
    want, got = _json_route(path), load_matrix(str(path))
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.normalized == want.normalized


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
        want = json.dumps(matrix_to_payload(m), separators=(",", ":")) + "\n"
        assert matrix_json(m) == want


def test_matrix_chunks_are_whole_write_chunks(monkeypatch):
    monkeypatch.setattr(density, "WRITE_CHUNK", 6)  # three pairs per chunk
    rho = maximally_mixed(2, 2)  # 16 pairs: five full chunks and one of a pair
    chunks = list(density.matrix_chunks(rho))
    assert "".join(chunks) == json.dumps(matrix_to_payload(rho), separators=(",", ":")) + "\n"
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


def test_matrix_chunks_keep_signed_zeros_apart(monkeypatch):
    monkeypatch.setattr(density, "WRITE_CHUNK", 8)  # four pairs per chunk
    # the first chunk holds 0.0 and -0.0: equal as floats, written apart
    m = np.array([[0.5, complex(0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    rho = DensityMatrix(D=2, N=1, matrix=m, normalized=True)
    want = json.dumps(matrix_to_payload(rho), separators=(",", ":")) + "\n"
    assert want == '{"D":2,"N":1,"normalized":true,"entries":[[0.5,0.0],[0.0,-0.0],[-0.0,0.0],[0.5,0.0]]}\n'
    assert matrix_json(rho) == want


def test_save_rejects_non_finite_entries(tmp_path):
    arr = np.array([[np.inf, 0.0], [0.0, 0.5]], dtype=complex)
    rho = DensityMatrix._adopt(2, 1, arr, False, hermitian=True)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        matrix_json(rho)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        density.matrix_chunks(rho)  # before the first chunk is asked for
    path = tmp_path / "m.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        save_matrix(rho, str(path))
    assert path.read_text() == "kept"


def test_load_memory_bound_at_1024(tmp_path):
    rho = build_ec_matrix(ECParams(ECClass.A, Mixing.STRONG, CouplingMode.N_FREE, 2, 10, 0.3 + 0.4j))
    path = tmp_path / "cap.json"
    save_matrix(rho, str(path))
    del rho
    tracemalloc.start()
    try:
        loaded = load_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.dim == 1024
    assert peak < 64 * 2**20, f"load peaked at {peak / 2**20:.1f} MiB"
