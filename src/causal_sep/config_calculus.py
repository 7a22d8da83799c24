"""Configuration combinatorics for N parties with D levels each.

A *configuration* is a length-N tuple of labels in {0, ..., D-1}.  Two
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

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

Configuration = tuple[int, ...]

# Hard budget on D^N for anything that materializes the configuration list.
DEFAULT_ENUMERATION_CAP = 2**20
# Largest D^N of a matrix, dense or as site factors.
DIM_CAP = 4096


class EnumerationBudgetError(ValueError):
    """D^N exceeds the enumeration budget for an explicit listing."""


class CouplingMode(Enum):
    N_FREE = "free"
    N_COUPLED = "coupled"


# ---------------------------------------------------------------------------
# enumeration and orthogonality
# ---------------------------------------------------------------------------

def enumerate_configurations(
    D: int, N: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Configuration]:
    """All D^N configurations in lexicographic order (last party fastest)."""
    check_dims(D, N)
    total = D**N
    if total > cap:
        raise EnumerationBudgetError(
            f"enumeration of D^N = {total} configurations exceeds the cap {cap}"
        )
    return list(itertools.product(range(D), repeat=N))


def is_completely_orthogonal(a: Configuration, b: Configuration) -> bool:
    """True when a and b differ in every component."""
    if len(a) != len(b):
        raise ValueError(
            f"configurations have different lengths: {len(a)} vs {len(b)}"
        )
    return all(x != y for x, y in zip(a, b))


def orthogonal_partners(
    c: Configuration, D: int, mode: CouplingMode
) -> list[Configuration]:
    """Partner family of c under the given coupling mode, sorted.

    N_FREE: every configuration completely orthogonal to c, all (D-1)^N
    of them.  N_COUPLED: the D-1 uniform cyclic shifts c + (d, d, ..., d)
    mod D for d = 1..D-1.
    """
    N = len(c)
    check_dims(D, N)
    for label in c:
        if not 0 <= label < D:
            raise ValueError(f"label {label} out of range for D={D}")
    return [tuple(p) for p in partner_labels(np.array([c]), D, mode)[:, 0].tolist()]


def partner_labels(configs: np.ndarray, D: int, mode: CouplingMode) -> np.ndarray:
    """Partner families of the configurations ``configs`` (J, N, valid
    labels) as one (P, J, N) label array, each family sorted.

    Free: the o-th choice at a site is o, skipping the site's own label, so
    choices taken in product order stay sorted.  Coupled: the shifts are
    ordered by the first label they produce.
    """
    configs = np.asarray(configs, dtype=np.int64)
    if mode is CouplingMode.N_COUPLED:
        first = np.arange(D - 1)[:, None]
        first = first + (first >= configs[:, 0])
        return (configs + (first - configs[:, 0])[..., None]) % D
    choices = itertools.product(range(D - 1), repeat=configs.shape[1])
    choices = np.array(list(choices), dtype=np.int64).reshape(-1, 1, configs.shape[1])
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
    distinct: list[Configuration]
    orthogonal: list[Configuration]


def partition_distinct(D: int, N: int) -> ConfigPartition:
    """Greedy lexicographic split into distinct and orthogonal configurations.

    Walk the configurations in lexicographic order; a configuration joins
    the distinct list unless it is completely orthogonal to one already
    there.  The walk has a closed form: the first D^(N-1) configurations
    share label 0 at party 0, so all of them join; every later c has
    c_0 != 0 and is completely orthogonal to the (0, d_1, ..., d_{N-1})
    with every d_n != c_n, so none does.  For D=2 the greedy size D^(N-1)
    equals the census K; for D>2 it exceeds it (overlapping partner sets),
    which callers are expected to report rather than hide.
    """
    configs = enumerate_configurations(D, N)
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
    DIM_CAP.  Far above the cap (N log2 D > 64) D**N is never formed."""
    for name, value, minimum in (("D", D, D_min), ("N", N, N_min)):
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < minimum
        ):
            raise ValueError(f"expected an integer {name} >= {minimum}, got {name}={value!r}")
    if capped:
        far = N * math.log2(D) > 64
        if far or D**N > DIM_CAP:
            size = f"{D}^{N}" if far else D**N
            raise ValueError(f"D^N = {size} exceeds the dimension cap {DIM_CAP}")
