"""Configuration combinatorics for N parties with D levels each.

A *configuration* c is a length-N tuple of labels in {0, ..., D-1}.  Every
table and matrix puts it at index sum(c[n] * D**(N-1-n)), lexicographic
with the last party fastest (N=0: one empty configuration).  Two
configurations are *completely orthogonal* when they differ in every
component.  The number of mutually "distinct" configurations one can pick
under the greedy rule below is

    K = ceil(D^N / (1 + (D-1)^N)),

each distinct configuration absorbing its completely-orthogonal partners;
the remaining K_bar = D^N - K configurations form the orthogonal pool.

Two coupling modes change which partner family a configuration talks to:
the free mode pairs a configuration with all (D-1)^N completely orthogonal
partners, while the coupled mode restricts to the D-1 uniform cyclic shifts
(every component advanced by the same nonzero offset mod D), in which case
K = D^(N-1) exactly.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

Configuration = tuple[int, ...]

# Most grid points (--steps) and |m| values that a command lists.
ENUMERATION_CAP = 2**20
# Largest D^N of a matrix, dense or as site factors.
DIM_CAP = 4096


class CouplingMode(Enum):
    N_FREE = "free"
    N_COUPLED = "coupled"


# ---------------------------------------------------------------------------
# the layout and orthogonality
# ---------------------------------------------------------------------------

def is_integer(x) -> bool:
    """The one test of a label, party index or site flag: an integer, Python
    or numpy, that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def label_weights(D: int, N: int) -> np.ndarray:
    """The D**(N-1-n): ``labels @ label_weights(D, N)`` indexes a label array."""
    return D ** np.arange(N - 1, -1, -1)


def config_labels(D: int, N: int) -> np.ndarray:
    """The (D^N, N) int64 label array of all configurations, in index order."""
    return np.indices((D,) * N).reshape(N, D**N).T


def orthogonal_partners(configs: np.ndarray, D: int, mode: CouplingMode) -> np.ndarray:
    """Partner families of the (J, N) integer label array ``configs`` as one
    (P, J, N) label array, each family sorted; a label that is not an integer
    in 0..D-1 is refused by name, and D and N as ``check_dims`` refuses them.
    N_FREE: all (D-1)^N completely orthogonal configurations, the o-th choice
    at a site being o, skipping the site's own label (product order stays
    sorted).  N_COUPLED: the D-1 uniform cyclic shifts c + (d, ..., d) mod D,
    d = 1..D-1, ordered by the first label they produce."""
    labels = np.asarray(configs)
    if labels.ndim != 2:
        raise ValueError(f"expected a (J, N) label array, got shape {labels.shape}")
    check_dims(D, labels.shape[1])
    ok = (labels >= 0) & (labels < D) if labels.dtype.kind in "iu" else np.zeros_like(labels, bool)
    if not ok.all():
        raise ValueError(f"label {labels[~ok][0].item()!r} is not an integer in 0..{D - 1}")
    configs = labels.astype(np.int64, copy=False)
    if mode is CouplingMode.N_COUPLED:
        first = np.arange(D - 1)[:, None]
        first = first + (first >= configs[:, 0])
        return (configs + (first - configs[:, 0])[..., None]) % D
    choices = config_labels(D - 1, configs.shape[1])[:, None, :]
    return choices + (choices >= configs)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigCensus:
    D: int
    N: int
    K: int
    K_bar: int

    def __post_init__(self) -> None:
        if self.K + self.K_bar != self.D**self.N:
            raise ValueError("census does not partition the configuration set")


def count_configurations(D: int, N: int, mode: CouplingMode) -> ConfigCensus:
    """Exact distinct/orthogonal counts.

    Free mode: K = ceil(D^N / (1 + (D-1)^N)), evaluated with integer
    ceiling division so arbitrarily large D, N stay exact (Python integers
    do not overflow).  Coupled mode: K = D^(N-1).  Counts with more decimal
    digits than ``sys.get_int_max_str_digits()`` could not be printed and
    are rejected.
    """
    check_dims(D, N)
    limit = sys.get_int_max_str_digits()
    # K_bar, the larger count, is at least D^N / 2: far above the limit
    # (N log10 D > limit + 1) D**N is never formed, near it K_bar decides
    too_long = limit and N * math.log10(D) > limit + 1
    if not too_long:
        total = D**N
        if mode is CouplingMode.N_COUPLED:
            K = D ** (N - 1)
        else:
            denom = 1 + (D - 1) ** N
            K = (total + denom - 1) // denom
        too_long = limit and total - K >= 10**limit
    if too_long:
        raise ValueError(
            f"the counts for D^N = {D}^{N} have more than {limit} decimal digits, "
            f"the integer string conversion limit (sys.get_int_max_str_digits())"
        )
    return ConfigCensus(D=D, N=N, K=K, K_bar=total - K)


class ConfigPartition(NamedTuple):
    distinct: np.ndarray
    orthogonal: np.ndarray


def partition_distinct(D: int, N: int) -> ConfigPartition:
    """Greedy lexicographic split into distinct and orthogonal configurations.

    Walk the configurations in lexicographic order; a configuration joins
    the distinct list unless it is completely orthogonal to one already
    there.  The walk has a closed form: the first D^(N-1) configurations
    share label 0 at party 0, so all of them join; every later c has
    c_0 != 0 and is completely orthogonal to the (0, d_1, ..., d_{N-1})
    with every d_n != c_n, so none does.  For D=2 the greedy size D^(N-1)
    equals the census K; for D>2 it exceeds it (overlapping partner sets),
    which callers are expected to report rather than hide.  Both parts are
    rows of ``config_labels``; a D^N above DIM_CAP is refused first.
    """
    check_dims(D, N, capped=True)
    configs = config_labels(D, N)
    split = greedy_distinct_count(D, N)
    return ConfigPartition(configs[:split], configs[split:])


def greedy_distinct_count(D: int, N: int) -> int:
    """Size of the greedy distinct list of ``partition_distinct``, D^(N-1),
    without enumerating any configuration."""
    check_dims(D, N)
    return D ** (N - 1)


def check_dims(
    D: int | None, N: int | None, *, D_min: int = 1, N_min: int = 1, capped: bool = False
) -> None:
    """Reject a D or N (None: not checked) that is not an int, bools
    included, or is below its minimum; with ``capped``, also a D^N above
    DIM_CAP.  Far above the cap (N log2 D > 64) D**N is never formed.  D = 1
    is capped as D = 2, since its 2^N party subsets are still enumerated.
    Unlike ``is_integer``, a numpy integer is refused too: its D**N would
    wrap past int64 before the cap check."""
    for name, value, minimum in (("D", D, D_min), ("N", N, N_min)):
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < minimum
        ):
            raise ValueError(f"expected an integer {name} >= {minimum}, got {name}={value!r}")
    if capped:
        far = N * math.log2(max(D, 2)) > 64
        if far or max(D, 2) ** N > DIM_CAP:
            size = f"{D}^{N}" if far else D**N
            what = f"N = {N} parties exceed" if D == 1 else f"D^N = {size} exceeds"
            raise ValueError(f"{what} the dimension cap {DIM_CAP}")
