"""The exact rank of ``kra.exactlin`` as it was before fraction-free
elimination over the Gaussian integers, kept as the reference the kernel is
compared against.

``matrix_rank`` and ``span_rank`` are the earlier code word for word:
Gauss-Jordan elimination on ``GaussRational`` entries, with each pivot row
scaled by its pivot's inverse.  ``GaussRational`` is the live class.
"""

from __future__ import annotations

from typing import Sequence

from kra.exactlin import GaussRational, Matrix


def matrix_rank(rows: Sequence[Sequence[GaussRational]]) -> int:
    """Rank of a dense matrix over Q(i), by exact Gaussian elimination."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [entry * inv for entry in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [
                    entry - factor * lead
                    for entry, lead in zip(work[r], work[rank])
                ]
        rank += 1
        if rank == len(work):
            break
    return rank


def span_rank(matrices: Sequence[Matrix]) -> int:
    """Dimension of the linear span of same-shape matrices over Q(i).

    Each matrix is flattened to a vector; the rank of the stacked vectors is
    the span dimension.
    """
    if not matrices:
        return 0
    shape = (len(matrices[0]), len(matrices[0][0]) if matrices[0] else 0)
    flattened = []
    for m in matrices:
        if (len(m), len(m[0]) if m else 0) != shape:
            raise ValueError("span_rank requires matrices of equal shape")
        flattened.append([entry for row in m for entry in row])
    return matrix_rank(flattened)
