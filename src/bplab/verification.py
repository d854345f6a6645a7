"""Dense assembly of the weighted operators.

Not an independent oracle: assemble_dense reads a weighted form from the
same cached mu-free blocks (_WeightedOps.dense) that a dense handle
factorizes, so the operator audit's dense_mismatch checks that blocked,
batched assembly against a single apply. The independent oracles are test
code.
"""

from __future__ import annotations

import numpy as np

from .bathymetry import Bathymetry
from .errors import SizeLimitError
from .operators import DENSE_AUDIT_LIMIT, KINDS, get_weighted_ops

__all__ = ["assemble_dense"]


def assemble_dense(kind: str, mu: float, bath: Bathymetry) -> np.ndarray:
    """Materialize a weighted operator in the nodal basis.

    kind is one of I_plus_muTb / hb_B / hb_A (their h_b-weighted symmetric
    forms). Raises SizeLimitError above DENSE_AUDIT_LIMIT total unknowns.
    """
    grid = bath.grid
    size = grid.d * grid.n**grid.d
    if size > DENSE_AUDIT_LIMIT:
        raise SizeLimitError(f"dense assembly capped at {DENSE_AUDIT_LIMIT}, got {size}")
    if kind not in KINDS:
        raise ValueError(f"unknown dense kind {kind!r}")
    return get_weighted_ops(bath).dense(kind, mu)
