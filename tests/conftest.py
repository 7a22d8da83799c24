from fractions import Fraction
from functools import reduce

import numpy as np

from causal_sep.config_calculus import CouplingMode, check_dims, orthogonal_partners
from causal_sep.density import (
    DensityMatrix,
    PartySubset,
    _check_count,
    _check_pair,
    _from_pairs,
    _header,
    config_to_index,
    matrix_to_payload,
    partial_transpose,
)
from causal_sep.ec_family import ECClass, Mixing


def random_hermitian(D, N, rng, scale=1.0):
    """Random Hermitian matrix (not normalized, not PSD in general)."""
    dim = D**N
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DensityMatrix(D=D, N=N, matrix=scale * (raw + raw.conj().T) / 2, normalized=False)


def random_state(D, N, rng, rank=None):
    """Random PSD unit-trace matrix (a proper density matrix), of full rank
    or of the given rank."""
    dim = D**N
    shape = (dim, rank or dim)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psd = raw @ raw.conj().T
    return DensityMatrix(D=D, N=N, matrix=psd / np.trace(psd).real, normalized=True)


def random_product_mixture(D, N, rng, terms=1):
    """A mixture of ``terms`` Haar-random pure product states with Dirichlet
    weights: separable, so its partial transpose is PSD on every cut."""
    arr = np.zeros((D**N, D**N), dtype=np.complex128)
    for weight in rng.dirichlet(np.ones(terms)):
        sites = rng.normal(size=(N, D)) + 1j * rng.normal(size=(N, D))
        psi = reduce(np.kron, sites / np.linalg.norm(sites, axis=1, keepdims=True))
        arr += weight * np.outer(psi, psi.conj())
    return DensityMatrix(D=D, N=N, matrix=arr, normalized=True)


def save_matrix(rho, path):
    """Write ``rho`` as a matrix file, as ``ec build --out`` writes one."""
    chunks = matrix_to_payload(rho)  # before open: a refused matrix leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def matrix_to_dict(rho):
    """Oracle: the matrix file's object with the entries as nested [re, im]
    lists; ``json.dumps(..., separators=(",", ":"))`` of it and a newline is
    the text ``matrix_to_payload`` writes."""
    entries = np.ascontiguousarray(rho.matrix).view(np.float64).reshape(-1, 2).tolist()
    return {"D": rho.D, "N": rho.N, "normalized": rho.normalized, "entries": entries}


def partner_tuples(c, D, mode):
    """The partner family of the one configuration c, from
    ``orthogonal_partners``, as a list of label tuples."""
    return [tuple(q) for q in orthogonal_partners(np.array([c]), D, mode)[:, 0].tolist()]


def payload_to_matrix(payload, *, origin="<payload>"):
    """Oracle: the matrix of a parsed matrix file, its first defect named in
    ``load_matrix``'s words: the header, the count of pairs, then each entry."""
    D, N, normalized = _header(payload, origin)
    entries = payload["entries"]
    got = len(entries) if isinstance(entries, list) else type(entries).__name__
    _check_count(got, D**N, origin)
    for k, pair in enumerate(entries):
        _check_pair(k, pair, origin)
    return _from_pairs(np.array(entries, dtype=np.float64).reshape(-1), D, N, normalized, origin)


def exact_closed_form_W(params):
    """Oracle: the class-a closed form of ``ec_family.closed_form_W`` in
    exact rational arithmetic, at |p| read as the Fraction the float is."""
    if params.ec_class is not ECClass.A:
        raise ValueError("the exact closed form covers class a only")
    a, N, x = Fraction(params.p_abs), params.N, Fraction(params.D - 1)
    weak = params.mixing is Mixing.WEAK
    if params.coupling is CouplingMode.N_FREE:
        if weak:
            return a**N * ((1 - a) ** N - a**N / x ** (2 * N - 1))
        return a**N * ((1 - a) ** N - x * a**N)
    if weak:
        return (a ** (2 * N) / x**N) * (x * (1 - a) ** N - a**N)
    return a**N * ((1 - a) ** N / x ** (N - 1) - x**N * a**N)


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from causal_sep import cli

    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def element(rho, row, col):
    """Entry <row| rho |col> addressed by configurations."""
    if len(row) != rho.N or len(col) != rho.N:
        raise ValueError(
            f"configuration length must be N={rho.N}, got {len(row)} and {len(col)}"
        )
    return complex(rho.matrix[config_to_index(row, rho.D), config_to_index(col, rho.D)])


def is_completely_orthogonal(a, b):
    """True when configurations a and b differ in every component."""
    if len(a) != len(b):
        raise ValueError(f"configurations have different lengths: {len(a)} vs {len(b)}")
    return all(x != y for x, y in zip(a, b))


def complement(subset):
    """The parties of range(N) outside ``subset``, as a PartySubset."""
    rest = tuple(i for i in range(subset.N) if i not in subset.members)
    return PartySubset(rest, subset.N)


def transpose_parties(rho, parties):
    """Oracle: transpose the row and column indices of any set of parties.
    The empty set is the identity, the full set the plain transpose and a
    proper subset ``partial_transpose``."""
    chosen = set(parties)
    if not chosen:
        return rho
    if chosen == set(range(rho.N)):
        return DensityMatrix(D=rho.D, N=rho.N, matrix=rho.matrix.T, normalized=rho.normalized)
    return partial_transpose(rho, PartySubset(tuple(chosen), rho.N))


# ---------------------------------------------------------------------------
# stock states
# ---------------------------------------------------------------------------

def maximally_mixed(D, N):
    check_dims(D, N, N_min=0, capped=True)
    dim = D**N
    return DensityMatrix(D=D, N=N, matrix=np.eye(dim) / dim, normalized=True)


def basis_state(labels, D):
    """Pure computational-basis state |labels><labels|."""
    N = len(labels)
    dim = D**N
    arr = np.zeros((dim, dim), dtype=np.complex128)
    i = config_to_index(labels, D)
    arr[i, i] = 1.0
    return DensityMatrix(D=D, N=N, matrix=arr, normalized=True)


_BELL_KINDS = {
    "phi+": (0, 3, 1.0),
    "phi-": (0, 3, -1.0),
    "psi+": (1, 2, 1.0),
    "psi-": (1, 2, -1.0),
}


def bell_state(kind):
    """One of the four two-qubit Bell states; kind in {phi+, phi-, psi+, psi-}."""
    if kind not in _BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; pick one of {sorted(_BELL_KINDS)}")
    i, j, sign = _BELL_KINDS[kind]
    arr = np.zeros((4, 4), dtype=np.complex128)
    arr[i, i] = arr[j, j] = 0.5
    arr[i, j] = arr[j, i] = sign * 0.5
    return DensityMatrix(D=2, N=2, matrix=arr, normalized=True)


def ghz_mixture(D, N, p):
    """p |GHZ><GHZ| + (1 - p) I/D^N, GHZ = (|0...0> + ... + |D-1...D-1>)/sqrt(D).
    At (2,2) the Werner state, entangled exactly for p > 1/3 (Peres); at N = 2
    the isotropic state, NPT exactly for p > 1/(D+1); at (2,3) NPT over every
    cut exactly for p > 1/5."""
    dim = D**N
    same = np.arange(D) * ((dim - 1) // (D - 1))  # the indices of |d...d>
    arr = (1 - p) * np.eye(dim, dtype=np.complex128) / dim
    arr[np.ix_(same, same)] += p / D
    return DensityMatrix(D=D, N=N, matrix=arr, normalized=True)


def two_qubit_state(values):
    """The two-qubit state G G^dag / tr(G G^dag) of the 4x4 complex matrix G
    whose real and imaginary parts are the 32 ``values`` (Ginibre: a
    Hilbert-Schmidt random state for normal ``values``)."""
    raw = np.asarray(values, dtype=np.float64).reshape(2, 4, 4)
    g = raw[0] + 1j * raw[1]
    psd = g @ g.conj().T
    return DensityMatrix(D=2, N=2, matrix=psd / np.trace(psd).real, normalized=True)
