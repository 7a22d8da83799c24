"""Positive-partial-transpose (Peres-Horodecki) oracle.

Negativity of the partially transposed matrix certifies entanglement for
any split; positivity certifies separability only where PPT is sufficient
(2x2, i.e. D=2 N=2, and the 2x3 case which cannot arise here with equal
local dimensions).  The verdict names keep that one-sidedness explicit:
PPT_SEPARABLE_CONSISTENT is a consistency statement, not a proof, except
where ``conclusive`` is set, which holds only for a PSD state.
``ppt_outcome`` is the one rule behind every verdict and ``conclusive``.
On the EC family a partial transpose keeps rho's spectrum (for real p it is
rho itself), so there NPT means that rho has a negative eigenvalue, which
``ec_family.ec_min_eigenvalue`` gives in closed form; ``compare`` reads it
from there.  ``ppt`` takes the spectrum of any matrix's partial transpose
from ``density.hermitian_eigenvalues(rho, subset)``, one connected block at
a time, read from rho's own entries: at D=2 an EC matrix's blocks are 2x2.

References: A. Peres, Phys. Rev. Lett. 77, 1413 (1996); M., P. and
R. Horodecki, Phys. Lett. A 223, 1 (1996).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .config_calculus import check_dims
from .density import (
    DensityMatrix,
    PartySubset,
    canonical_subsets,
    hermitian_eigenvalues,
)

# a partial-transpose eigenvalue below -PPT_TOL is negative
PPT_TOL = 1e-10


class PptOutcome(Enum):
    PPT_SEPARABLE_CONSISTENT = "ppt_separable_consistent"
    NPT_ENTANGLED = "npt_entangled"


@dataclass(frozen=True)
class PptVerdict:
    subset: PartySubset
    min_eigenvalue: float
    verdict: PptOutcome
    conclusive: bool


def ppt_outcome(eigenvalue: float) -> PptOutcome:
    """The PPT rule: NPT_ENTANGLED when a least eigenvalue lies below -PPT_TOL."""
    if eigenvalue < -PPT_TOL:
        return PptOutcome.NPT_ENTANGLED
    return PptOutcome.PPT_SEPARABLE_CONSISTENT


def ppt_check(rho: DensityMatrix, subset: PartySubset) -> PptVerdict:
    """Eigenvalue test of the partial transpose over one party subset;
    ``conclusive`` when D = N = 2 and rho itself is PSD by ``ppt_outcome``."""
    if not rho.normalized:
        raise ValueError("ppt_check expects a normalized density matrix")
    min_eig = float(hermitian_eigenvalues(rho, subset)[0])
    conclusive = rho.D == rho.N == 2 and (
        ppt_outcome(float(hermitian_eigenvalues(rho)[0])) is PptOutcome.PPT_SEPARABLE_CONSISTENT
    )
    return PptVerdict(subset, min_eig, ppt_outcome(min_eig), conclusive)


def ppt_report(rho: DensityMatrix) -> list[PptVerdict]:
    """ppt_check over every canonical subset (proper subsets containing party 0).

    The partial-transpose spectrum over S equals the one over the complement
    of S, so these representatives cover all splits; N < 2 has none.
    """
    check_dims(None, rho.N, N_min=2)
    return [ppt_check(rho, subset) for subset in canonical_subsets(rho.N)]
