"""Dense density-matrix substrate for N parties with D levels each.

Row and column indices are configuration indices in ``config_calculus``'
layout.  N=0 is permitted and denotes the 1x1 scalar (the tensor-product
identity).

The on-disk format is JSON:

    {"D": int, "N": int, "normalized": bool, "entries": [[re, im], ...]}

with entries in row-major order (length D**(2N)), written compactly with
shortest round-trip decimals so that save/load is bit-exact.  Any JSON
spelling of that object loads.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import re
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config_calculus import Configuration, check_dims, config_labels, is_integer, label_weights

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Byte budget of one block of a dense pass (EC build rows, four Hermiticity scan
# tiles, a chunk of the criterion's gather): at 1 MiB a load's peak over its
# matrix stays under 1 MiB
ROW_BLOCK_BYTES = 2**20


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
        if not all(map(is_integer, self.members)):
            raise ValueError(f"party indices must be integers, got {self.members!r}")
        members = tuple(sorted(set(map(int, self.members))))
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
    """max |M - M^dag| by square tiles of ROW_BLOCK_BYTES // 4, each pair of mirror
    tiles once (|a - conj(b)| is |b - conj(a)| bit for bit); inf on overflow."""
    edge = max(1, math.isqrt(ROW_BLOCK_BYTES // 64))
    starts = range(0, len(arr), edge)
    # np.max, unlike max(), keeps a NaN from any tile; the conjugate is copied
    # in C order, as the tile is laid out, so the difference needs no buffer
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max([
            np.max(np.abs(arr[i : i + edge, j : j + edge]
                          - np.conj(arr[j : j + edge, i : i + edge].T, order="C")))
            for i in starts for j in starts if i <= j
        ]))


def config_to_index(c: Configuration, D: int) -> int:
    idx = 0
    for label in c:
        if not (is_integer(label) and 0 <= label < D):
            raise ValueError(f"label {label!r} out of range for D={D}")
        idx = idx * D + label
    return idx


# ---------------------------------------------------------------------------
# partial transpose and spectra
# ---------------------------------------------------------------------------

def partial_transpose(rho: DensityMatrix, subset: PartySubset) -> DensityMatrix:
    """Transpose the row and column indices of the parties in ``subset``.
    Entries are permuted, not recomputed, so Hermiticity and the trace are
    preserved exactly."""
    out = _swap_parties(rho.matrix, rho.D, rho.N, subset).reshape(rho.dim, rho.dim)
    return DensityMatrix._adopt(rho.D, rho.N, out, rho.normalized, hermitian=True)


def _swap_parties(arr: np.ndarray, D: int, N: int, subset: PartySubset | None) -> np.ndarray:
    """A (D,) * 2N view of ``arr`` with the row and column labels of ``subset`` swapped."""
    members = () if subset is None else subset.members
    if subset is not None and subset.N != N:
        raise ValueError(f"subset is over N={subset.N} parties but the matrix has N={N}")
    axes = list(range(2 * N))
    for n in members:
        axes[n], axes[N + n] = axes[N + n], axes[n]
    return arr.reshape((D,) * (2 * N)).transpose(axes)


def pt_flat(rows: np.ndarray, cols: np.ndarray, D: int, in_subset: np.ndarray) -> np.ndarray:
    """Flat indices in a D^N x D^N matrix rho of <r| rho^{T_S} |c>, for label
    arrays r in ``rows`` and c in ``cols`` (..., N), broadcast, with a last
    axis over the subsets S marked by the columns of ``in_subset`` (N, S).
    With s(x) = sum over n in S of x_n D^(N-1-n), the entry is
    rho[r + s(c) - s(r), c - s(c) + s(r)], at r*dim + c + (s(c) - s(r))*(dim - 1).
    In ``in_subset``'s dtype; exact in floats, as each value is an integer below 2*dim**2."""
    weights = label_weights(D, rows.shape[-1])
    dim, part = D * weights[0], in_subset * weights[:, None]
    shift = cols @ part - rows @ part
    shift *= dim - 1
    shift += (rows @ weights * dim + cols @ weights)[..., None]
    return shift.astype(np.intp, copy=False)


def hermitian_eigenvalues(rho: DensityMatrix, subset: PartySubset | None = None) -> np.ndarray:
    """Ascending real spectrum (LAPACK symmetric solver) of rho, or of its
    partial transpose over ``subset``, with no check of its own: ``_seal``
    checked Hermiticity, which a partial transpose keeps exactly.

    The components of the nonzero pattern (one boolean array, compared in
    the partial transpose's order) are the diagonal blocks of a symmetric
    permutation, which keeps the spectrum.  Each block is solved alone from
    rho's entries at ``pt_flat``'s indices, each size in one stacked call,
    within the dense solve's error bound.  One component is solved whole:
    the dense spectrum of rho, or of ``partial_transpose``'s copy, bit for
    bit.  An EC partial transpose at D=2 has 2x2 blocks.
    """
    D, N, dim = rho.D, rho.N, rho.dim
    swapped = _swap_parties(rho.matrix, D, N, subset)
    labels = _components(np.not_equal(swapped, 0, order="C").reshape(dim, dim))
    if not labels.any():
        return np.linalg.eigvalsh(swapped.reshape(dim, dim))
    order = np.argsort(labels, kind="stable")  # each component's indices, ascending
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    digits = config_labels(D, N)  # each index's labels
    in_subset = np.isin(np.arange(N), () if subset is None else subset.members)[:, None]
    spectra = []
    for size in np.flatnonzero(np.bincount(sizes)):  # ascending; np.unique imports numpy.ma
        block = digits[order[starts[sizes == size, None] + np.arange(size)]]  # (blocks, size, N)
        index = pt_flat(block[:, :, None], block[:, None, :], D, in_subset)[..., 0]
        spectra.append(np.linalg.eigvalsh(rho.entries(index)))
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

# A JSON string, consumed whole (to the end, if never closed) so that no run
# is found in one, or a run (group 1): after an array's "[" or an item's ",",
# as many [re, im] pairs of JSON numbers as follow, JSON whitespace allowed
# between tokens, with no backtracking (possessive quantifiers, Python 3.11+).
# A run's item is a pair, or literal [0.0,0.0] pairs joined by commas, which
# sre matches fast, as it does _ZERO_RUN, split at: such pairs and separators.
_WS = rb"[ \t\n\r]*+"
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_PAIR = rb"\[" + _WS + _NUMBER + _WS + rb"," + _WS + _NUMBER + _WS + rb"\]"
_ZERO = rb"\[0\.0,0\.0\]"
_ZERO_RUN = re.compile(rb"(" + _ZERO + rb"," + _WS + rb"(?:" + _ZERO + rb"," + _WS + rb")*+)")
_ITEM = rb"(?:" + _ZERO + rb"(?:," + _WS + _ZERO + rb")*+|" + _PAIR + rb")"
_SEP = _WS + rb"," + _WS
_RUNS = re.compile(
    rb'"(?:[^"\\]|\\.)*+"?|[\[,]' + _WS + rb"(" + _ITEM + rb"(?:" + _SEP + _ITEM + rb")*+)", re.S
)
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# json reads the integer token -0 as +0.0, numpy's parser as -0.0
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?=[ \t\n\r,\]])")
# Bytes of entries text per read of the parser: a slice's few copies stay
# under ROW_BLOCK_BYTES, and a 10.5 MB D^N = 1024 file takes 41 reads
PARSE_SLICE_BYTES = 2**18
# Floats per chunk of the writer (even: whole pairs)
WRITE_CHUNK = 2**16


def matrix_to_payload(rho: DensityMatrix) -> Iterator[str]:
    """The matrix file text in pieces, ``WRITE_CHUNK`` floats of entries or a
    run of (+0.0, +0.0) pairs at a time: compact JSON ``{"D":..,"N":..,
    "normalized":..,"entries":[[re,im],...]}``, entries row-major, each float
    its repr, and a newline.  A non-finite entry raises before any piece:
    every chunk is checked first, one at a time."""
    head = json.dumps(
        {"D": rho.D, "N": rho.N, "normalized": rho.normalized}, separators=(",", ":")
    )
    flat = np.ascontiguousarray(rho.matrix).view(np.float64).reshape(-1)
    for lo in range(0, flat.size, WRITE_CHUNK):  # no whole-matrix mask
        if not np.isfinite(flat[lo : lo + WRITE_CHUNK]).all():
            raise ValueError("matrix entries must be finite to be written as JSON")
    return itertools.chain([f'{head[:-1]},"entries":[['], _entries_text(flat), ["]]}\n"])


def _entries_text(flat: np.ndarray) -> Iterator[str]:
    """Each chunk as one join of cells re, ",", im, "],[" from one table: a row
    per pair that is not (+0.0, +0.0), and one per run of those, im its rest."""
    for lo in range(0, flat.size, WRITE_CHUNK):
        if lo:
            yield "],["
        pairs = flat[lo : lo + WRITE_CHUNK].reshape(-1, 2)
        zero = np.bitwise_or(*pairs.view(np.int64).T) == 0  # both bits 0: -0.0 is not
        first, stop = np.flatnonzero(np.diff(zero, prepend=False, append=False)).reshape(-1, 2).T
        texts, inverse = _float_table(pairs[~zero].reshape(-1), repr)
        runs = ["0.0" + "],[0.0,0.0" * (k - 1) for k in (stop - first).tolist()]
        table = np.concatenate([np.array(["0.0", ",", "],[", *runs], dtype=object), texts])
        kept = ~zero
        kept[first] = True  # each pair that is not zero, each run's first
        run = zero[kept]  # by kept row, a run's first
        cells = np.tile([0, 1, 0, 2], (len(run), 1))  # "0.0", ",", "0.0", "],["
        cells[~run, ::2] = inverse.reshape(-1, 2) + 3 + len(runs)
        cells[run, 2] = 3 + np.arange(len(runs))
        yield "".join(table[cells.reshape(-1)[:-1]].tolist())


def float_texts(values: np.ndarray, nonfinite=repr) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a 1-d float64 array, with
    repr called once per distinct value, keyed on its bit pattern (0.0 and
    -0.0 keep their own texts), and ``nonfinite`` in place of repr for a
    non-finite one (``json.dumps`` spells NaN, Infinity, -Infinity)."""
    return np.take(*_float_table(values, nonfinite)).tolist()


def _float_table(values: np.ndarray, nonfinite) -> tuple[np.ndarray, np.ndarray]:
    """``float_texts``' distinct texts, an object array, and the index of each value's."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    odd = ~np.isfinite(distinct.view(np.float64))
    texts[odd] = list(map(nonfinite, distinct[odd].view(np.float64).tolist()))
    return texts, inverse


def load_matrix(path: str) -> DensityMatrix:
    """Read a matrix file, enforcing the format invariants.

    Any violation (non-Hermitian payload, wrong trace under the normalized
    flag) is rejected in ``DensityMatrix``'s words, after the path: the
    violated invariant and its magnitude.

    ``_read_marked`` reads the file once, each run of [re, im] pairs of JSON
    numbers a mark.  When the top-level "entries", however its key is
    spelled, is one mark, its run is parsed straight into one float64 array,
    skipping runs of [0.0,0.0] pairs, in json's words on error; otherwise the
    reading names the first defect as a parse of the whole file would.  A
    ``MemoryError`` while the entries are read names the path first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
        runs = [found.span(1) for found in _RUNS.finditer(data) if found.lastindex]
        payload = _read_marked(data, runs, path)

        def shown(value):  # as json reads it from the file: each mark, its run's pairs
            if isinstance(value, dict):
                return {key: shown(item) for key, item in value.items()}
            if not isinstance(value, list):
                return value
            out = []
            for item in value:
                span = _run(item, runs)
                if span is None:
                    out.append(shown(item))
                else:
                    out += _read_marked(b"[%s]" % data[slice(*span)], [], path)
            return out

        if isinstance(payload, dict):  # D and N as printed
            payload.update({key: shown(payload[key]) for key in {"D", "N"} & payload.keys()})
        D, N, normalized = _header(payload, path)
        dim = D**N
        entries = payload["entries"]
        spans = [_run(item, runs) for item in entries] if isinstance(entries, list) else []
        sizes = [1 if span is None else data.count(b"[", *span) for span in spans]
        _check_count(sum(sizes) if isinstance(entries, list) else type(entries).__name__, dim, path)
        for at, item, span in zip(itertools.accumulate(sizes, initial=0), entries, spans):
            if span is None:
                _check_pair(at, shown(item), path)
        [(start, end)] = spans  # runs are maximal: never two items in a row
        crc = zlib.crc32(memoryview(data)[start:end])
        source = fh if fh.seekable() else io.BytesIO(data)
        del data  # the entries are read again, a slice at a time; a pipe's from its bytes
        try:
            pairs = _parse_pairs(source, start, end, 2 * dim * dim, crc, path)
            return _from_pairs(pairs, D, N, normalized, path)
        except MemoryError as exc:  # numpy's names the allocation, this the file
            raise MemoryError(f"{path}: {exc}" if str(exc) else path) from None


def _read_marked(data: bytes, runs: list[tuple[int, int]], origin: str) -> object:
    """json's reading of UTF-8 ``data`` with run k, the bytes ``runs[k]`` spans,
    replaced by the mark [0.5,k.5]; each error is named after ``origin``, a parse
    or decode error at its place in ``data`` (\\n, \\r, \\r\\n: one line break each).
    Every array item json reads as a pair of finite numbers lies in a run, and
    json reads no bool or null as a float: a pair of finite floats is a mark."""
    marks = [b"[0.5,%d.5]" % k for k in range(len(runs))]
    bounds = [0, *itertools.chain.from_iterable(runs), len(data)]
    outside = [data[lo:hi] for lo, hi in zip(bounds[::2], bounds[1::2])]
    text = b"".join(itertools.chain.from_iterable(zip(outside, [*marks, b""])))

    def at(offset: int) -> int:  # the offset in data of one in text, never inside a mark
        for (lo, hi), mark in zip(runs, marks):
            offset += hi - lo - len(mark) if offset > lo else 0
        return offset

    try:
        return json.loads(text.decode("utf-8"))
    except json.JSONDecodeError as exc:
        pos = at(len(exc.doc[: exc.pos].encode()))
        line = data.count(b"\n", 0, pos) + data.count(b"\r", 0, pos) - data.count(b"\r\n", 0, pos)
        last = max(data.rfind(b"\n", 0, pos), data.rfind(b"\r", 0, pos))
        cut = bytes(range(128, 192))  # UTF-8 continuation bytes: the rest are the characters
        chars = sum(len(data[lo : min(lo + PARSE_SLICE_BYTES, pos)].translate(None, cut))
                    for lo in range(last + 1, pos, PARSE_SLICE_BYTES))
        message = f"JSON parse error at line {line + 1}, column {chars + 1}: {exc.msg}"
        raise MatrixFormatError(f"{origin}: {message}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past the str digit limit
        if isinstance(exc, UnicodeDecodeError):
            lo = at(exc.start)
            exc.object, exc.start, exc.end = data, lo, lo + exc.end - exc.start
        raise MatrixFormatError(f"{origin}: {exc}") from None
    except RecursionError:
        raise MatrixFormatError(f"{origin}: JSON nesting too deep to parse") from None


def _run(item: object, runs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """``runs[k]`` when ``item`` of a marked reading is the mark of run k."""
    marked = type(item) is list and len(item) == 2 and all(type(x) is float for x in item)
    return runs[int(item[1])] if marked and all(map(math.isfinite, item)) else None


def _parse_pairs(source, lo: int, end: int, size: int, crc: int, origin: str) -> np.ndarray:
    """The ``size`` numbers of the run of pairs, bytes ``lo`` to ``end`` of the
    binary file ``source``, as one float64 array, read as json reads them,
    ``PARSE_SLICE_BYTES`` at a time, each slice cut at the comma after its
    last whole pair.  Each slice's integer tokens -0 become 0 before numpy
    reads it, and its ``_ZERO_RUN`` matches are cut out, their pairs left
    zero.  A number beyond the float range reads as inf; ``_read_marked``
    reads the first such pair alone, so the error is json's.  A
    short read, a slice that is not its pairs or a CRC-32 other than ``crc``
    means the file changed after it was checked."""
    changed = MatrixFormatError(f"{origin}: changed while it was read")
    pairs = np.zeros(size).reshape(-1, 2)
    filled, left, rest, check = 0, end - lo, b"", 0  # pairs filled, bytes unread, read, CRC
    source.seek(lo)
    while left:
        more = source.read(min(left, PARSE_SLICE_BYTES))
        if not more:
            raise changed
        check, left, rest = zlib.crc32(more, check), left - len(more), rest + more
        del more  # as pieces below: no slice's bytes are held into the next read
        head = rest.rfind(b"[") if left else len(rest)  # the last pair may be cut short
        cut = rest.rfind(b",", 0, max(head, 0)) if left else head
        if cut < 0:
            continue
        pieces, rest = _ZERO_RUN.split(rest[:cut]), rest[head:]  # texts between runs, and runs
        runs = [run.count(b"[") for run in pieces[1::2]]
        gaps = [gap.count(b"[") for gap in pieces[::2]]  # the pairs before each run, and after
        text = _INTEGER_MINUS_ZERO.sub(b"0", b"".join(pieces[::2]))
        del pieces
        try:
            part = np.fromstring(text.translate(_BRACKETS_TO_SPACES), sep=",").reshape(-1, 2)
        except ValueError:  # not numbers between commas, or an odd count of them
            raise changed from None
        if len(part) != sum(gaps) or filled + len(part) + sum(runs) > len(pairs):
            raise changed
        at = np.arange(len(part)) + np.repeat(np.cumsum([0, *runs]), gaps)
        if not np.isfinite(part).all():
            j = int(np.argmin(np.isfinite(part).all(axis=1)))  # the slice's first pair with an inf
            found = next(itertools.islice(re.finditer(_PAIR, text), j, None))
            pair = _read_marked(found.group(), [], origin)
            raise MatrixFormatError(f"{origin}: entry {filled + at[j]} is not finite: {pair!r}")
        pairs[filled + at] = part
        filled += len(part) + sum(runs)
    if check != crc:
        raise changed
    return pairs.reshape(-1)


def _check_pair(k: int, pair: object, origin: str) -> None:
    """Refuse entry ``k`` unless it is a [re, im] pair of finite numbers."""
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
