"""Determinants and quadratic forms of small dense matrices, one at a
time or stacked, and the input pairs that index pairwise indicators.

A stack puts its leading axis first, as numpy does: (P, m, m) matrices,
(P, n) vectors; ``det_pivoted`` eliminates on a points-last copy inside.
Each member of a stack is rounded exactly as it would be on its own, so
a grid of points gives the numbers of a loop over its points, bit for bit.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["det_pivoted", "quadratic_form", "triu", "ordered_pairs", "pair_matrix", "symmetric_matrix"]

#: ``np.triu_indices(n, k)``, computed once per (n, k); the arrays are shared, never written to.
#: ``triu(n, 1)`` is the one order of the input pairs i < k: a loop over i, then k.
triu = cache(np.triu_indices)


def det_pivoted(a: np.ndarray):
    """Determinant by Gaussian elimination with partial pivoting.

    Sized for the matrices that occur here: Hessians and bordered
    Hessians of at most a dozen rows.  1x1 and 2x2 cases use the direct
    formula, which is exact for the rank checks built on 2x2 minors.

    ``a`` is one (m, m) matrix, giving a float, or a (P, m, m) stack,
    giving one determinant per matrix; ``a`` is left as it is.  Each matrix
    of a stack keeps its own pivots (the first largest |entry|) and order
    of operations; a zero pivot zeroes only that matrix's determinant.  One
    matrix is a stack of one.  Overflow gives +-inf or NaN, without a
    warning; the sign of a NaN is not part of the result.  The elimination
    runs on a points-last (m, m, P) copy, on all rows below the pivot at
    once: none reads another, so each is rounded as in a loop over the rows.
    """
    a = np.asarray(a, dtype=float)
    m, mm = a.shape[-2:]
    if m != mm:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.ndim == 2:
        return float(det_pivoted(a[None])[0])
    with np.errstate(over="ignore", invalid="ignore"):
        if m == 1:
            return a[:, 0, 0].copy()
        if m == 2:
            return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        t = np.moveaxis(a, 0, -1).copy()
        det = np.ones(len(a))
        singular = np.zeros(len(a), dtype=bool)
        for col in range(m):
            piv = col + np.argmax(np.abs(t[col:, col]), axis=0)
            swap = np.flatnonzero(piv != col)
            rows = piv[swap]
            pivot_rows = t[rows, col:, swap]
            t[rows, col:, swap] = t[col, col:, swap]
            t[col, col:, swap] = pivot_rows
            det[swap] = -det[swap]
            diagonal = t[col, col]
            singular |= diagonal == 0.0
            det *= diagonal
            # A singular matrix is done; dividing by 1 keeps it finite.
            factor = t[col + 1 :, col] / np.where(singular, 1.0, diagonal)
            t[col + 1 :, col:] -= factor[:, None] * t[col, col:]
        return np.where(singular, 0.0, det)


def quadratic_form(u: np.ndarray, m: np.ndarray | None = None):
    """``u @ u``, or ``u @ m @ u``, of one vector or of each member of a
    stack.

    One (n,) vector gives a float; a (P, n) stack, with ``m`` (P, n, n),
    gives one value per member.  The stack goes through stacked
    ``np.matmul``, which rounds each member as the 1-D ``@`` does;
    ``einsum`` or ``(u * u).sum(-1)`` would not.
    """
    if u.ndim == 1:
        return float(u @ u if m is None else u @ m @ u)
    left = u[:, None, :]
    if m is not None:
        left = left @ m
    return (left @ u[:, :, None])[:, 0, 0]


@cache
def ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordered input pairs i != k as index arrays (rows, cols), in the
    order of a loop over i, then k; computed once per n, like ``triu``."""
    return np.nonzero(~np.eye(n, dtype=bool))


def pair_matrix(n: int, rows, cols, values, diagonal: float) -> np.ndarray:
    """The read-only n x n matrix with ``diagonal`` on its diagonal and
    ``values[m]`` at position (``rows[m]``, ``cols[m]``)."""
    matrix = np.full((n, n), diagonal)
    matrix[rows, cols] = values
    matrix.setflags(write=False)
    return matrix


def symmetric_matrix(n: int, values) -> np.ndarray:
    """``pair_matrix`` of one value per pair i < k, mirrored, with NaN
    (undefined for a single input) on the diagonal."""
    at = np.hstack([triu(n, 1), triu(n, 1)[::-1]])  # (i, k), then (k, i)
    return pair_matrix(n, *at, np.concatenate([values, values]), math.nan)
