"""Dense assembly of the weighted operators and their Gram matrices.

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
from .operators import DENSE_AUDIT_LIMIT, KINDS, _gram_apply, dense_matrix, get_weighted_ops

__all__ = ["assemble_dense"]


def assemble_dense(kind: str, mu: float, bath: Bathymetry) -> np.ndarray:
    """Materialize a weighted operator or Gram matrix in the nodal basis.

    kind is one of I_plus_muTb / hb_B / hb_A (their h_b-weighted symmetric
    forms), gram_X0 / gram_H1, or identity. Raises SizeLimitError above
    DENSE_AUDIT_LIMIT total unknowns.
    """
    grid = bath.grid
    size = grid.d * grid.n**grid.d
    if size > DENSE_AUDIT_LIMIT:
        raise SizeLimitError(f"dense assembly capped at {DENSE_AUDIT_LIMIT}, got {size}")
    if kind == "identity":
        return np.eye(size)
    if kind in KINDS:
        return get_weighted_ops(bath).dense(kind, mu)
    if kind == "gram_X0":
        return dense_matrix(lambda V: _gram_apply(grid, "hb_A", mu, V), grid)
    if kind == "gram_H1":
        return dense_matrix(lambda V: _gram_apply(grid, "hb_B", mu, V), grid)
    raise ValueError(f"unknown dense kind {kind!r}")
