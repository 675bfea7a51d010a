"""Distributed linear algebra: the MLlib pieces the trainer needs.

:class:`RowMatrix` wraps an RDD of NumPy *row blocks* (2-D arrays with
the full column width).  Per-partition Gram matrices are computed with
one BLAS call each and tree-reduced — the same decomposition MLlib uses
for ``computeCovariance`` — so the covariance of an ``n × p`` matrix
costs one pass and ``O(p²)`` reduction traffic per partition, never
materialising the data on the driver.

The offline FDR training (§IV-A of the paper: "model estimation ...
begins by calculating the covariance matrix ... Singular Value
Decomposition is then performed on each covariance matrix") builds
directly on :meth:`RowMatrix.covariance` and :func:`eigh_descending`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .context import SparkletContext
from .rdd import RDD

__all__ = ["RowMatrix", "eigh_descending"]


def eigh_descending(sym: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix, eigenvalues descending.

    For such a matrix the SVD and the eigendecomposition coincide
    (MLlib's ``computePrincipalComponents`` path); ``eigh`` is the
    numerically right primitive for symmetric input.  Tiny negative
    eigenvalues from round-off are clamped to zero.
    """
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    return np.clip(eigvals[order], 0.0, None), eigvecs[:, order]


class RowMatrix:
    """A tall-skinny distributed matrix stored as row blocks.

    Parameters
    ----------
    blocks:
        RDD whose elements are 2-D ``float64`` arrays of shape
        ``(rows_i, p)`` with a common ``p``.
    num_cols:
        Column count; inferred with a small job when omitted.
    """

    def __init__(self, blocks: RDD, num_cols: Optional[int] = None) -> None:
        self.blocks = blocks
        self._num_cols = num_cols
        self._num_rows: Optional[int] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_numpy(ctx: SparkletContext, data: np.ndarray, num_blocks: Optional[int] = None) -> "RowMatrix":
        """Split a local array into row blocks and distribute it."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("data must be 2-D")
        n_blocks = num_blocks if num_blocks is not None else ctx.parallelism
        n_blocks = max(1, min(n_blocks, arr.shape[0]))
        pieces = np.array_split(arr, n_blocks, axis=0)
        return RowMatrix(ctx.parallelize(pieces, n_blocks), num_cols=arr.shape[1])

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    def num_cols(self) -> int:
        if self._num_cols is None:
            first = self.blocks.first()
            self._num_cols = int(first.shape[1])
        return self._num_cols

    def num_rows(self) -> int:
        if self._num_rows is None:
            self._num_rows = int(
                self.blocks.map(lambda b: int(b.shape[0])).fold(0, lambda a, b: a + b)
            )
        return self._num_rows

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def column_sums(self) -> np.ndarray:
        p = self.num_cols()
        return self.blocks.map(lambda b: b.sum(axis=0)).fold(
            np.zeros(p), lambda a, b: a + b
        )

    def column_means(self) -> np.ndarray:
        n = self.num_rows()
        if n == 0:
            raise ValueError("matrix has no rows")
        return self.column_sums() / n

    def gramian(self) -> np.ndarray:
        """``Xᵀ X`` via per-partition BLAS + tree reduction."""
        p = self.num_cols()
        return self.blocks.map(lambda b: b.T @ b).fold(
            np.zeros((p, p)), lambda a, b: a + b
        )

    def covariance(self) -> np.ndarray:
        """Sample covariance (denominator ``n - 1``), one distributed pass.

        Uses the Gram-matrix identity
        ``cov = (XᵀX − n·μμᵀ) / (n − 1)`` with symmetrisation to scrub
        accumulated floating-point asymmetry.
        """
        n = self.num_rows()
        if n < 2:
            raise ValueError("covariance requires at least 2 rows")
        mu = self.column_means()
        gram = self.gramian()
        cov = (gram - n * np.outer(mu, mu)) / (n - 1)
        return (cov + cov.T) / 2.0

    def covariance_eigen(self, top_k: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`eigh_descending` of the covariance, optionally truncated
        to ``(eigenvalues[k], eigenvectors[p, k])``."""
        eigvals, eigvecs = eigh_descending(self.covariance())
        if top_k is not None:
            if top_k < 1:
                raise ValueError("top_k must be >= 1")
            eigvals = eigvals[:top_k]
            eigvecs = eigvecs[:, :top_k]
        return eigvals, eigvecs

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def multiply(self, local: np.ndarray) -> "RowMatrix":
        """Right-multiply every row block by a local ``(p, q)`` matrix."""
        mat = np.asarray(local, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != self.num_cols():
            raise ValueError(
                f"shape mismatch: matrix is (*, {self.num_cols()}), operand {mat.shape}"
            )
        return RowMatrix(self.blocks.map(lambda b: b @ mat), num_cols=mat.shape[1])

    def collect(self) -> np.ndarray:
        """Materialise the full matrix on the driver (tests/small data only)."""
        blocks = self.blocks.collect()
        if not blocks:
            return np.empty((0, self._num_cols or 0))
        return np.vstack(blocks)
