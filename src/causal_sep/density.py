"""Dense density-matrix substrate for N parties with D levels each.

Row and column indices encode configurations lexicographically with the
last party varying fastest: index = sum(label[n] * D**(N-1-n)).  N=0 is
permitted and denotes the 1x1 scalar (the tensor-product identity).

The on-disk format is JSON:

    {"D": int, "N": int, "normalized": bool, "entries": [[re, im], ...]}

with entries in row-major order (length D**(2N)), written with shortest
round-trip decimals so that save/load is bit-exact.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config_calculus import Configuration

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENSOLVER_HERMITICITY_TOL = 1e-10
DEFAULT_DIM_CAP = 4096
# Byte budget of one row block of the Hermiticity check
ASYMMETRY_BLOCK_BYTES = 4 * 2**20


class MatrixFormatError(RuntimeError):
    """A matrix file cannot be parsed or violates a declared invariant."""


# ---------------------------------------------------------------------------
# party subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartySubset:
    """Sorted, non-empty, proper subset of the parties {0, ..., N-1}."""

    members: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"party subsets need N >= 2 parties, got N={self.N!r}")
        members = tuple(sorted(set(int(i) for i in self.members)))
        if len(members) != len(tuple(self.members)):
            raise ValueError(f"duplicate parties in subset {self.members!r}")
        if not members:
            raise ValueError("party subset must be non-empty")
        if len(members) >= self.N:
            raise ValueError(
                f"party subset {members!r} must be a proper subset of range({self.N})"
            )
        if members[0] < 0 or members[-1] >= self.N:
            raise ValueError(f"party index out of range in {members!r} for N={self.N}")
        object.__setattr__(self, "members", members)

    def complement(self) -> "PartySubset":
        rest = tuple(i for i in range(self.N) if i not in self.members)
        return PartySubset(rest, self.N)


def canonical_subsets(N: int) -> list[PartySubset]:
    """Proper non-empty subsets containing party 0, ordered by (size, lex).

    One representative per complement-equivalent pair: 2**(N-1) - 1 subsets.
    """
    out: list[PartySubset] = []
    for size in range(1, N):
        for rest in itertools.combinations(range(1, N), size - 1):
            out.append(PartySubset((0,) + rest, N))
    return out


# ---------------------------------------------------------------------------
# the matrix wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian matrix on (C^D)^{tensor N} with an explicit normalization flag.

    Hermiticity within 1e-12 is enforced at construction; unit trace is
    enforced only when ``normalized`` is True.  Positive semidefiniteness is
    checkable via ``hermitian_eigenvalues`` but deliberately NOT an
    invariant: model matrices are allowed to leave the PSD cone, and that
    violation is part of what the oracles measure.
    """

    D: int
    N: int
    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.D, int) or self.D < 1:
            raise ValueError(f"D must be a positive integer, got {self.D!r}")
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError(f"N must be a non-negative integer, got {self.N!r}")
        dim = self.D**self.N
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        if arr.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {arr.shape} does not match D^N = {dim} for "
                f"D={self.D}, N={self.N}"
            )
        self._seal(arr, hermitian=False)

    @classmethod
    def _adopt(
        cls, D: int, N: int, matrix: np.ndarray, normalized: bool, *, hermitian: bool = False
    ) -> "DensityMatrix":
        """Internal constructor: wrap a fresh complex (D^N, D^N) array that the
        caller hands over, without copying it.  ``hermitian=True`` skips the
        Hermiticity check where it holds by construction (a permutation of a
        Hermitian matrix's entries); the trace is checked as usual."""
        rho = cls.__new__(cls)
        vars(rho).update(D=D, N=N, normalized=normalized)  # frozen: bypass __setattr__
        rho._seal(matrix, hermitian=hermitian)
        return rho

    def _seal(self, arr: np.ndarray, *, hermitian: bool) -> None:
        asym = 0.0 if hermitian else _max_asymmetry(arr)
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e}")
        if self.normalized:
            tr = complex(np.trace(arr))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(
                    f"normalized flag set but |trace - 1| = {abs(tr - 1.0):.3e}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.D**self.N

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _max_asymmetry(arr: np.ndarray) -> float:
    """max |M - M^dag|, taken in row blocks: no dim x dim temporary."""
    step = max(1, ASYMMETRY_BLOCK_BYTES // (16 * len(arr)))
    return max(
        float(np.max(np.abs(arr[lo : lo + step] - arr[:, lo : lo + step].conj().T)))
        for lo in range(0, len(arr), step)
    )


def config_to_index(c: Configuration, D: int) -> int:
    idx = 0
    for label in c:
        if not isinstance(label, int) or not 0 <= label < D:
            raise ValueError(f"label {label!r} out of range for D={D}")
        idx = idx * D + label
    return idx


def index_to_config(idx: int, D: int, N: int) -> Configuration:
    if not 0 <= idx < D**N:
        raise ValueError(f"index {idx} out of range for D^N = {D**N}")
    labels = []
    for _ in range(N):
        idx, r = divmod(idx, D)
        labels.append(r)
    return tuple(reversed(labels))


def element(rho: DensityMatrix, row: Configuration, col: Configuration) -> complex:
    """Entry <row| rho |col> addressed by configurations."""
    if len(row) != rho.N or len(col) != rho.N:
        raise ValueError(
            f"configuration length must be N={rho.N}, got {len(row)} and {len(col)}"
        )
    return complex(rho.matrix[config_to_index(row, rho.D), config_to_index(col, rho.D)])


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    if a.D != b.D:
        raise ValueError(f"tensor factors must share D, got {a.D} and {b.D}")
    return DensityMatrix(
        D=a.D,
        N=a.N + b.N,
        matrix=np.kron(a.matrix, b.matrix),
        normalized=a.normalized and b.normalized,
    )


# ---------------------------------------------------------------------------
# partial transpose and spectra
# ---------------------------------------------------------------------------

def transpose_parties(rho: DensityMatrix, parties: Iterable[int]) -> DensityMatrix:
    """Transpose the row/column indices of the given parties (any subset).

    The empty set is the identity and the full set is the plain transpose;
    proper subsets realize the partial transpose.  Entries are permuted, not
    recomputed, so Hermiticity and the trace are preserved exactly.
    """
    chosen = sorted(set(int(i) for i in parties))
    if chosen and (chosen[0] < 0 or chosen[-1] >= rho.N):
        raise ValueError(f"party index out of range in {chosen!r} for N={rho.N}")
    if not chosen:
        return rho
    D, N = rho.D, rho.N
    arr = rho.matrix.reshape((D,) * (2 * N))
    axes = list(range(2 * N))
    for n in chosen:
        axes[n], axes[N + n] = axes[N + n], axes[n]
    out = arr.transpose(axes).reshape(rho.dim, rho.dim)
    return DensityMatrix._adopt(D, N, out, rho.normalized, hermitian=True)


def partial_transpose(rho: DensityMatrix, subset: PartySubset) -> DensityMatrix:
    if subset.N != rho.N:
        raise ValueError(
            f"subset is over N={subset.N} parties but the matrix has N={rho.N}"
        )
    return transpose_parties(rho, subset.members)


def hermitian_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Ascending real spectrum (LAPACK symmetric solver).

    Input must be Hermitian within 1e-10; the eigenvalue sum matches the
    trace to the same tolerance.
    """
    asym = _max_asymmetry(rho.matrix)
    if asym > EIGENSOLVER_HERMITICITY_TOL:
        raise ValueError(
            f"eigensolver requires a Hermitian matrix: max |M - M^dag| = {asym:.3e}"
        )
    return np.linalg.eigvalsh(rho.matrix)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def matrix_to_payload(rho: DensityMatrix) -> dict:
    entries = np.ascontiguousarray(rho.matrix).view(np.float64).reshape(-1, 2).tolist()
    return {"D": rho.D, "N": rho.N, "normalized": rho.normalized, "entries": entries}


def save_matrix(rho: DensityMatrix, path: str) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one
    text = json.dumps(matrix_to_payload(rho), separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_matrix(
    path: str, *, strict: bool = True, dim_cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix:
    """Read a matrix file, enforcing the format invariants.

    strict=True rejects any violation (non-Hermitian payload, wrong trace
    under the normalized flag) with an error naming the violated invariant
    and its magnitude.  strict=False repairs Hermiticity by (M + M^dag)/2
    and downgrades a wrong normalized flag instead of failing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return payload_to_matrix(payload, strict=strict, dim_cap=dim_cap, origin=path)


def payload_to_matrix(
    payload: object,
    *,
    strict: bool = True,
    dim_cap: int = DEFAULT_DIM_CAP,
    origin: str = "<payload>",
) -> DensityMatrix:
    if not isinstance(payload, dict):
        raise MatrixFormatError(f"{origin}: top-level JSON value must be an object")
    for key in ("D", "N", "normalized", "entries"):
        if key not in payload:
            raise MatrixFormatError(f"{origin}: missing key {key!r}")
    D, N = payload["D"], payload["N"]
    if not isinstance(D, int) or isinstance(D, bool) or D < 1:
        raise MatrixFormatError(f"{origin}: D must be a positive integer, got {D!r}")
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise MatrixFormatError(f"{origin}: N must be a non-negative integer, got {N!r}")
    normalized = payload["normalized"]
    if not isinstance(normalized, bool):
        raise MatrixFormatError(f"{origin}: normalized must be a boolean")
    dim = D**N
    if dim > dim_cap:
        raise MatrixFormatError(f"{origin}: D^N = {dim} exceeds the dimension cap {dim_cap}")
    entries = payload["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise MatrixFormatError(
            f"{origin}: entries must be a list of length D^2N = {dim * dim}, got {got}"
        )
    try:
        pairs = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pairs = np.empty(0)
    # numpy reads booleans and numeric strings as numbers, so the types are
    # scanned too; on any doubt the per-entry walk names the first bad entry
    if not (
        pairs.shape == (dim * dim, 2)
        and np.isfinite(pairs).all()
        and set(map(type, entries)) == {list}
        and set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}
    ):
        for k, pair in enumerate(entries):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise MatrixFormatError(
                    f"{origin}: entry {k} must be a [re, im] pair of numbers, got {pair!r}"
                )
            if not (math.isfinite(float(pair[0])) and math.isfinite(float(pair[1]))):
                raise MatrixFormatError(f"{origin}: entry {k} is not finite: {pair!r}")
    arr = pairs.view(np.complex128).reshape(dim, dim)

    asym = _max_asymmetry(arr)
    if asym > HERMITICITY_TOL:
        if strict:
            raise MatrixFormatError(
                f"{origin}: hermiticity invariant violated: max |M - M^dag| = {asym:.3e}"
            )
        arr = (arr + arr.conj().T) / 2.0
    if normalized:
        tr = complex(np.trace(arr)) if dim else 0.0
        if abs(tr - 1.0) > TRACE_TOL:
            if strict:
                raise MatrixFormatError(
                    f"{origin}: trace invariant violated: |trace - 1| = {abs(tr - 1.0):.3e}"
                )
            normalized = False
    return DensityMatrix._adopt(D, N, arr, normalized, hermitian=True)


# ---------------------------------------------------------------------------
# stock states
# ---------------------------------------------------------------------------

def maximally_mixed(D: int, N: int, *, dim_cap: int = DEFAULT_DIM_CAP) -> DensityMatrix:
    dim = D**N
    if dim > dim_cap:
        raise ValueError(f"D^N = {dim} exceeds the dimension cap {dim_cap}")
    return DensityMatrix(D=D, N=N, matrix=np.eye(dim) / dim, normalized=True)


def basis_state(labels: Configuration, D: int) -> DensityMatrix:
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


def bell_state(kind: str) -> DensityMatrix:
    """One of the four two-qubit Bell states; kind in {phi+, phi-, psi+, psi-}."""
    if kind not in _BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; pick one of {sorted(_BELL_KINDS)}")
    i, j, sign = _BELL_KINDS[kind]
    arr = np.zeros((4, 4), dtype=np.complex128)
    arr[i, i] = arr[j, j] = 0.5
    arr[i, j] = arr[j, i] = sign * 0.5
    return DensityMatrix(D=2, N=2, matrix=arr, normalized=True)
