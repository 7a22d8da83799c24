"""Causal separability criterion for multipartite density matrices.

For a configuration j and a bipartition S of the parties the criterion
compares two probability-like quantities:

  P_ignorance   -- diagonal weight at j times the summed diagonal weights
                   of j's partner family: the chance that ignorance about
                   which member of a completely orthogonal family occurred
                   could mask the correlations.

  P_transition  -- sum of |<j| rho^T_S |l>|^2 over the transition partner
                   family, read from the partial transpose over S: the
                   strength of virtual round trips j -> l -> j across the
                   cut.

Their difference W = P_ignorance - P_transition is invariant under
S -> complement(S).  W < -W_TOL for any distinct configuration and any
bipartition certifies entanglement; W >= -W_TOL everywhere is *consistent*
with separability (one-sided, like the partial-transpose test).

The coupling mode selects which partner family plays which role: the free
ensemble draws ignorance from all (D-1)^N completely orthogonal partners
and transitions along the D-1 uniform cyclic shifts; the coupled ensemble
swaps the two families.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .config_calculus import (
    Configuration,
    CouplingMode,
    check_dims,
    partition_distinct,
    partner_labels,
)
from .density import (
    DensityMatrix,
    PartySubset,
    canonical_subsets,
    config_to_index,
    pt_flat,
)

if TYPE_CHECKING:
    from .ec_family import KronSum

# W below -W_TOL is entangled
W_TOL = 1e-10
# The gather runs over chunks of configurations whose temporaries (index,
# entry, modulus and label arithmetic: at most GATHER_CELL_BYTES per
# partner x (subset or party) cell) stay under GATHER_BYTES.
GATHER_BYTES = 64 * 2**20
GATHER_CELL_BYTES = 48


class ScoreVerdict(Enum):
    # in this order, the members are indexed by a score's entangled flag
    M_SEPARABLE = "m_separable"
    M_ENTANGLED = "m_entangled"


class OverallVerdict(Enum):
    SEPARABLE_BY_CRITERION = "separable_by_criterion"
    ENTANGLED = "entangled"


@dataclass(frozen=True)
class ConfigScore:
    """Criterion evaluation at one (configuration, bipartition) pair.

    When the verdict is separable, P_ignorance = P_transition + |W|:
    ignorance covers every virtual transition.  When entangled,
    P_transition = P_ignorance + |W|: transitions outrun any ignorance
    explanation by the margin |W|.
    """

    config: Configuration
    subset: PartySubset
    P_ignorance: float
    P_transition: float
    W: float
    verdict: ScoreVerdict

    def to_dict(self) -> dict:
        return {
            "config": list(self.config),
            "subset": list(self.subset.members),
            "P_ignorance": self.P_ignorance,
            "P_transition": self.P_transition,
            "W": self.W,
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Scores on the distinct configurations (rows of ``configs``) x ``subsets``.

    P_ignorance holds one value per configuration; P_transition, W and
    entangled one row per configuration and one column per subset.
    ``scores`` lists them as ConfigScores, configuration-major, and is built
    on first use.
    """

    mode: CouplingMode
    overall: OverallVerdict
    configs: np.ndarray
    subsets: tuple[PartySubset, ...]
    P_ignorance: np.ndarray
    P_transition: np.ndarray
    W: np.ndarray
    entangled: np.ndarray

    @cached_property
    def scores(self) -> tuple[ConfigScore, ...]:
        verdicts = list(ScoreVerdict)
        return tuple(
            ConfigScore(tuple(config), subset, p_ign, p_trans, w, verdicts[ent])
            for config, p_ign, row_trans, row_w, row_ent in zip(
                self.configs.tolist(),
                self.P_ignorance.tolist(),
                self.P_transition.tolist(),
                self.W.tolist(),
                self.entangled.tolist(),
            )
            for subset, p_trans, w, ent in zip(self.subsets, row_trans, row_w, row_ent)
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "overall": self.overall.value,
            "scores": [s.to_dict() for s in self.scores],
        }


def _swapped(mode: CouplingMode) -> CouplingMode:
    return (
        CouplingMode.N_COUPLED
        if mode is CouplingMode.N_FREE
        else CouplingMode.N_FREE
    )


def _config_labels(rho: DensityMatrix | KronSum, j: Configuration) -> np.ndarray:
    """j as a (1, N) label array, checked before numpy could wrap a bad label."""
    if len(j) != rho.N:
        raise ValueError(f"configuration {j!r} has length {len(j)}, expected N={rho.N}")
    config_to_index(j, rho.D)
    return np.array([j], dtype=np.int64)


def _report(
    rho: DensityMatrix | KronSum,
    configs: np.ndarray,
    subsets: tuple[PartySubset, ...],
    mode: CouplingMode,
) -> CriterionReport:
    """Scores of the configurations ``configs`` (J, N) on ``subsets``."""
    for s in subsets:
        if s.N != rho.N:
            raise ValueError(
                f"subset is over N={s.N} parties but the matrix has N={rho.N}"
            )
    in_subset = np.zeros((rho.N, len(subsets)))
    for k, s in enumerate(subsets):
        in_subset[list(s.members), k] = 1.0
    partners = max((rho.D - 1) ** rho.N, 1)  # the free family, the larger one
    step = max(1, GATHER_BYTES // (GATHER_CELL_BYTES * partners * (rho.N + len(subsets))))
    p_ign = np.empty(len(configs))
    p_trans = np.empty((len(configs), len(subsets)))
    # a score that overflows reads inf, and W = inf - inf nan, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(configs), step):
            chunk = slice(lo, lo + step)
            p_ign[chunk], p_trans[chunk] = _gather(rho, configs[chunk], in_subset, mode)
        w = p_ign[:, None] - p_trans
    entangled = w < -W_TOL
    overall = (
        OverallVerdict.ENTANGLED
        if entangled.any()
        else OverallVerdict.SEPARABLE_BY_CRITERION
    )
    return CriterionReport(mode, overall, configs, subsets, p_ign, p_trans, w, entangled)


def _gather(
    rho: DensityMatrix | KronSum, j: np.ndarray, in_subset: np.ndarray, mode: CouplingMode
) -> tuple[np.ndarray, np.ndarray]:
    """P_ignorance (J,) and P_transition (J, S) of the configurations j (J, N);
    column k of ``in_subset`` (N, S) marks the parties of subset k.

    No partial transpose is built: <j| rho^{T_S} |l> is read from rho at
    ``density.pt_flat``'s index, computed in floats (``in_subset``'s dtype)
    so that its matrix products run in BLAS.  sum() adds the partners one at
    a time, in family order, as the per-pair definition does.  Every entry
    is read through ``rho.entries`` by flat index, so ``rho`` may be a
    DensityMatrix or an ``ec_family.KronSum``.
    """
    D, dim = rho.D, rho.dim
    weights = D ** np.arange(rho.N - 1, -1, -1)
    diag = lambda index: rho.entries(index * (dim + 1)).real
    p_ign = diag(j @ weights) * sum(diag(partner_labels(j, D, mode) @ weights), 0.0)
    l = partner_labels(j, D, _swapped(mode))
    entry = rho.entries(pt_flat(j, l, D, in_subset))
    terms = np.hypot(entry.real, entry.imag)
    terms *= terms
    return p_ign, sum(terms, 0.0)


def causal_W(
    rho: DensityMatrix | KronSum,
    j: Configuration,
    subset: PartySubset,
    mode: CouplingMode,
) -> ConfigScore:
    """The score at one (configuration, subset) pair; P_transition sums
    |<j| rho^T_S |l>|^2 over the transition partners of j."""
    return _report(rho, _config_labels(rho, j), (subset,), mode).scores[0]


def classify(rho: DensityMatrix, mode: CouplingMode) -> CriterionReport:
    """Evaluate W at every distinct configuration and every canonical
    bipartition; any entangled score makes the overall verdict ENTANGLED.

    The canonical bipartitions are the proper subsets containing party 0,
    one per complement-equivalent pair (W is complement-symmetric).
    """
    check_dims(None, rho.N, N_min=2)
    if not rho.normalized:
        raise ValueError("classify expects a normalized density matrix")
    distinct = partition_distinct(rho.D, rho.N).distinct
    configs = np.array(distinct, dtype=np.int64)
    return _report(rho, configs, tuple(canonical_subsets(rho.N)), mode)
