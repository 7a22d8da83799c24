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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

Configuration = tuple[int, ...]

# Hard budget on D^N for anything that materializes the configuration list.
DEFAULT_ENUMERATION_CAP = 2**20


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
    _check_dims(D, N)
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
    _check_dims(D, N)
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
    do not overflow).  Coupled mode: K = D^(N-1).
    """
    _check_dims(D, N)
    total = D**N
    if mode is CouplingMode.N_COUPLED:
        K = D ** (N - 1)
    else:
        denom = 1 + (D - 1) ** N
        K = (total + denom - 1) // denom
    return ConfigCensus(D=D, N=N, K=K, K_bar=total - K)


class ConfigPartition(NamedTuple):
    distinct: list[Configuration]
    orthogonal: list[Configuration]


def partition_distinct(
    D: int, N: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> ConfigPartition:
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
    configs = enumerate_configurations(D, N, cap=cap)
    split = D ** (N - 1)
    return ConfigPartition(configs[:split], configs[split:])


def _check_dims(D: int, N: int) -> None:
    if not isinstance(D, int) or isinstance(D, bool) or D < 1:
        raise ValueError(f"D must be a positive integer, got {D!r}")
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
