"""Dense density-matrix substrate for N parties with D levels each.

Row and column indices encode configurations lexicographically with the
last party varying fastest: index = sum(label[n] * D**(N-1-n)).  N=0 is
permitted and denotes the 1x1 scalar (the tensor-product identity).

The on-disk format is JSON:

    {"D": int, "N": int, "normalized": bool, "entries": [[re, im], ...]}

with entries in row-major order (length D**(2N)), written compactly with
shortest round-trip decimals so that save/load is bit-exact.  Any JSON
spelling of that object loads.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .config_calculus import Configuration, check_dims

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
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
        check_dims(None, self.N, N_min=2)
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

    ``_seal`` alone checks the invariants, for every constructor and the file
    loader: finite entries, Hermiticity within 1e-12, and unit trace when
    ``normalized`` is True.  The matrix is read-only after, and the matrices
    derived from it stay Hermitian exactly.  Positive semidefiniteness is
    checkable via ``hermitian_eigenvalues`` but deliberately NOT an
    invariant: model matrices are allowed to leave the PSD cone, and that
    violation is part of what the oracles measure.
    """

    D: int
    N: int
    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        check_dims(self.D, self.N, N_min=0)
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
        # the "not <=" tests fail on NaN too; any non-finite entry makes
        # the asymmetry non-finite
        asym = 0.0 if hermitian else _max_asymmetry(arr)
        if not asym <= HERMITICITY_TOL:
            if not np.isfinite(arr).all():
                raise ValueError("matrix entries must be finite")
            raise ValueError(f"hermiticity invariant violated: max |M - M^dag| = {asym:.3e}")
        if self.normalized:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
                tr = complex(np.trace(arr))
            if not abs(tr - 1.0) <= TRACE_TOL:
                raise ValueError(f"trace invariant violated: |trace - 1| = {abs(tr - 1.0):.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.D**self.N

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def entries(self, flat: np.ndarray) -> np.ndarray:
        """Entries at the row-major flat indices ``row * dim + col``."""
        return self.matrix.reshape(-1)[flat]


def _max_asymmetry(arr: np.ndarray) -> float:
    """max |M - M^dag| in row blocks, with no dim x dim temporary; inf on overflow."""
    step = max(1, ASYMMETRY_BLOCK_BYTES // (16 * len(arr)))
    # np.max, unlike max(), keeps a NaN from any block
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max([
            np.max(np.abs(arr[lo : lo + step] - arr[:, lo : lo + step].conj().T))
            for lo in range(0, len(arr), step)
        ]))


def config_to_index(c: Configuration, D: int) -> int:
    idx = 0
    for label in c:
        if not isinstance(label, int) or not 0 <= label < D:
            raise ValueError(f"label {label!r} out of range for D={D}")
        idx = idx * D + label
    return idx


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
    """Ascending real spectrum (LAPACK symmetric solver), with no check of its
    own: ``DensityMatrix._seal`` checked Hermiticity, which derived matrices keep.

    The connected components of the nonzero pattern are the diagonal blocks
    of a symmetric permutation, which keeps the spectrum.  Each block is
    solved alone, each size in one stacked call, within the dense solve's
    error bound; one component is solved as it is, bit for bit the dense
    spectrum.  An EC partial transpose at D=2 has 2x2 blocks.
    """
    labels = _components(rho.matrix != 0)
    if not labels.any():
        return np.linalg.eigvalsh(rho.matrix)
    order = np.argsort(labels, kind="stable")  # each component's indices, ascending
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    blocks = [order[starts[sizes == size, None] + np.arange(size)] for size in np.unique(sizes)]
    spectra = [np.linalg.eigvalsh(rho.matrix[b[:, :, None], b[:, None, :]]) for b in blocks]
    return np.sort(np.concatenate(spectra, axis=None))


def _components(nz: np.ndarray) -> np.ndarray:
    """Component labels 0, 1, ... of the symmetric boolean pattern ``nz``: a
    breadth-first search, one row gather per frontier, O(n^2) in all."""
    labels = np.full(len(nz), -1)
    count = 0
    for start in range(len(nz)):
        if labels[start] < 0:
            labels[start] = count
            frontier = np.array([start])
            while frontier.size:
                frontier = np.flatnonzero(nz[frontier].any(axis=0) & (labels < 0))
                labels[frontier] = count
            count += 1
    return labels


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# The "entries" value of a matrix file that is a JSON array of [re, im]
# pairs of JSON numbers, JSON whitespace allowed between tokens.  The
# possessive quantifiers (Python 3.11+) keep the match one pass with no
# backtracking.
_WS = rb"[ \t\n\r]*+"
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_PAIR = rb"\[" + _WS + _NUMBER + _WS + rb"," + _WS + _NUMBER + _WS + rb"\]"
_ENTRIES = re.compile(
    rb'"entries"' + _WS + rb":" + _WS + rb"(\[" + _WS
    + rb"(?:" + _PAIR + rb"(?:" + _WS + rb"," + _WS + _PAIR + rb")*+)?+" + _WS + rb"\])"
)
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# json reads the integer token -0 as +0.0, numpy's parser as -0.0
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?=[ \t\n\r,\]])")
# Bytes of entries text per slice of the parser (about; a slice ends with a pair)
PARSE_SLICE_BYTES = 2**20
# Floats per chunk of the writer (even: whole pairs)
WRITE_CHUNK = 2**16


def matrix_to_payload(rho: DensityMatrix) -> dict:
    """The file's object with the entries as nested lists; ``matrix_json``
    writes the same text without building them."""
    entries = np.ascontiguousarray(rho.matrix).view(np.float64).reshape(-1, 2).tolist()
    return {"D": rho.D, "N": rho.N, "normalized": rho.normalized, "entries": entries}


def matrix_chunks(rho: DensityMatrix) -> Iterator[str]:
    """The matrix file text in pieces, ``WRITE_CHUNK`` floats of entries at a
    time: joined, byte for byte ``json.dumps(matrix_to_payload(rho),
    separators=(",", ":"))`` and a newline.  json writes a float as its repr.
    A non-finite entry raises here, before any piece is produced."""
    head = json.dumps(
        {"D": rho.D, "N": rho.N, "normalized": rho.normalized}, separators=(",", ":")
    )
    flat = np.ascontiguousarray(rho.matrix).view(np.float64).reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite to be written as JSON")
    return itertools.chain([f'{head[:-1]},"entries":[['], _entries_text(flat), ["]]}\n"])


def _entries_text(flat: np.ndarray) -> Iterator[str]:
    for lo in range(0, flat.size, WRITE_CHUNK):
        if lo:
            yield "],["
        floats = iter(float_texts(flat[lo : lo + WRITE_CHUNK]))
        yield "],[".join(map(",".join, zip(floats, floats)))


def float_texts(values: np.ndarray, nonfinite=repr) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a 1-d float64 array, with
    repr called once per distinct value, keyed on its bit pattern (0.0 and
    -0.0 keep their own texts), and ``nonfinite`` in place of repr for a
    non-finite one (``json.dumps`` spells NaN, Infinity, -Infinity)."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    odd = ~np.isfinite(distinct.view(np.float64))
    texts[odd] = list(map(nonfinite, distinct[odd].view(np.float64).tolist()))
    return texts[inverse].tolist()


def matrix_json(rho: DensityMatrix) -> str:
    """The matrix file text: ``matrix_chunks`` joined."""
    return "".join(matrix_chunks(rho))


def save_matrix(rho: DensityMatrix, path: str) -> None:
    text = matrix_json(rho)  # before open: an error leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_matrix(path: str) -> DensityMatrix:
    """Read a matrix file, enforcing the format invariants.

    Any violation (non-Hermitian payload, wrong trace under the normalized
    flag) is rejected in ``DensityMatrix``'s words, after the path: the
    violated invariant and its magnitude.

    Entries written as [re, im] pairs of JSON numbers are parsed straight
    into one float64 array.  Any other file goes through ``json.loads`` and
    ``payload_to_matrix``, which load any valid JSON and name each error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    split = _split_entries(data)
    if split is not None:
        header, start, end = split
        D, N, normalized = _header(header, path)
        dim = D**N
        _check_count(data.count(b"[", start, end) - 1, dim, path)
        pairs = _parse_pairs(data, start, end, 2 * dim * dim)
        if pairs is not None:
            del data  # the invariant checks run without the file's bytes
            return _from_pairs(pairs, D, N, normalized, path)
    try:
        # newlines translated as a text-mode read does, so the line and
        # column of a parse error are as json reports them for such a read
        payload = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past the str digit limit
        raise MatrixFormatError(f"{path}: {exc}") from None
    return payload_to_matrix(payload, origin=path)


def _split_entries(data: bytes) -> tuple[dict, int, int] | None:
    """(header, start, end) when ``data[start:end]``, the top-level "entries"
    value of the file, is an array of number pairs; the header is the file
    parsed with that value replaced by [].  None when the text alone does not
    settle it."""
    found = _ENTRIES.search(data)
    if found is None:
        return None
    start, end = found.span(1)
    head = data[:start] + b"[]" + data[end:]
    # one "entries" token and no escapes: no other key spells "entries", so
    # header["entries"] == [] holds only if the match is the top-level value
    if head.count(b'"entries"') != 1 or b"\\" in head:
        return None
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError:
        return None
    if not (isinstance(header, dict) and header.get("entries") == []):
        return None
    return header, start, end


def _parse_pairs(data: bytes, start: int, end: int, size: int) -> np.ndarray | None:
    """The ``size`` numbers of the matched entries text ``data[start:end]`` as
    one float64 array, read as json reads them, or None where a number is
    beyond the float range: json's route then names the entry.

    The text is parsed in slices of about ``PARSE_SLICE_BYTES``, each cut at
    the comma after a pair's closing bracket, so no copy of the whole text is
    made.  Each slice's integer tokens -0 become 0 before numpy reads it."""
    pairs = np.empty(size)
    filled, lo = 0, start
    while lo < end:
        close = data.find(b"]", lo + PARSE_SLICE_BYTES, end)
        cut = data.find(b",", close, end) if close >= 0 else -1
        hi = end if cut < 0 else cut
        text = _INTEGER_MINUS_ZERO.sub(b"0", data[lo:hi])
        part = np.fromstring(text.translate(_BRACKETS_TO_SPACES), sep=",")
        if not np.isfinite(part).all():
            return None
        pairs[filled : filled + part.size] = part
        filled += part.size
        lo = hi + 1
    return pairs if filled == size else None


def payload_to_matrix(payload: object, *, origin: str = "<payload>") -> DensityMatrix:
    D, N, normalized = _header(payload, origin)
    dim = D**N
    entries = payload["entries"]
    got = len(entries) if isinstance(entries, list) else type(entries).__name__
    _check_count(got, dim, origin)
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
            try:
                finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise MatrixFormatError(f"{origin}: entry {k} is not finite: {pair!r}")
    return _from_pairs(pairs.reshape(-1), D, N, normalized, origin)


def _header(payload: object, origin: str) -> tuple[int, int, bool]:
    """D, N and the normalized flag of a payload, checked in file order."""
    if not isinstance(payload, dict):
        raise MatrixFormatError(f"{origin}: top-level JSON value must be an object")
    for key in ("D", "N", "normalized", "entries"):
        if key not in payload:
            raise MatrixFormatError(f"{origin}: missing key {key!r}")
    D, N = payload["D"], payload["N"]
    try:
        check_dims(D, N, N_min=0, capped=True)
    except ValueError as exc:
        raise MatrixFormatError(f"{origin}: {exc}") from None
    normalized = payload["normalized"]
    if not isinstance(normalized, bool):
        raise MatrixFormatError(f"{origin}: normalized must be a boolean")
    return D, N, normalized


def _check_count(got: int | str, dim: int, origin: str) -> None:
    if got != dim * dim:
        raise MatrixFormatError(
            f"{origin}: entries must be a list of length D^2N = {dim * dim}, got {got}"
        )


def _from_pairs(pairs: np.ndarray, D: int, N: int, normalized: bool, origin: str) -> DensityMatrix:
    """The matrix of 2 D^2N finite floats; ``_seal``'s errors name ``origin``."""
    arr = pairs.view(np.complex128).reshape(D**N, D**N)
    try:
        return DensityMatrix._adopt(D, N, arr, normalized)
    except ValueError as exc:
        raise MatrixFormatError(f"{origin}: {exc}") from None


# ---------------------------------------------------------------------------
# stock states
# ---------------------------------------------------------------------------

def maximally_mixed(D: int, N: int) -> DensityMatrix:
    check_dims(D, N, N_min=0, capped=True)
    dim = D**N
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
