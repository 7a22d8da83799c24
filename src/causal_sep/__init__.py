"""Causal separability criterion, EC state family, and PPT cross-check.

The top level exports the names that the README's Library example imports;
everything else is imported from its submodule.
"""

from .config_calculus import CouplingMode
from .criterion import causal_W, classify
from .density import PartySubset
from .ec_family import (
    ECClass,
    ECParams,
    Mixing,
    build_ec_matrix,
    closed_form_W,
    threshold,
)
from .ppt import ppt_report

__version__ = "0.1.0"
