"""Eigenvalues of small dense symmetric matrices.

Used to validate the doubling inequality on genuinely non-commuting
positive matrix pairs, where spectra cannot be read off termwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

MAX_DIM = 64


def eig_sym_small(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted non-increasing.

    The input must be square, at most 64x64, of finite Frobenius norm and
    symmetric to 1e-12 relative.  The spectrum of its symmetric part comes
    from LAPACK (``numpy.linalg.eigvalsh``).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DIM:
        raise ParameterError(f"matrix dimension {n} exceeds the limit {MAX_DIM}")
    fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        # NaN and inf entries land here (and norms beyond the float range)
        raise ParameterError(f"matrix norm is not finite ({fro:g})")
    asym = float(np.max(np.abs(a - a.T), initial=0.0))
    if asym > 1e-12 * fro:
        raise ParameterError(
            f"matrix is not symmetric: max|A - A^T| = {asym:g} vs norm {fro:g}"
        )
    return np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]
