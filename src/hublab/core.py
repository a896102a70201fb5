"""Vector and similarity primitives shared by every other module.

All numeric work is done in float64 regardless of how the caller stored
the input, so that the finite-difference gradient checks elsewhere in
the package are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitNorm, ZeroVector

MODALITY_QUERY = "query"
MODALITY_GALLERY = "gallery"
MODALITIES = (MODALITY_QUERY, MODALITY_GALLERY)


def opposite(modality: str) -> str:
    """The other modality: gallery for query, query for gallery."""
    return MODALITY_GALLERY if modality == MODALITY_QUERY else MODALITY_QUERY


_NORM_FLOOR = 1e-12

# Rows per block when scores are made a block of query rows at a time. No
# block is shorter than this unless the whole input is: OpenBLAS computes a
# one-row product with gemv, and very short blocks with other kernels, whose
# last bits can differ from the same rows of the full product.
BLOCK_ROWS = 256


def row_blocks(n: int) -> list[slice]:
    """Split n rows into max(1, n // BLOCK_ROWS) consecutive blocks of near
    equal length, each of BLOCK_ROWS to 2 * BLOCK_ROWS - 1 rows; fewer than
    2 * BLOCK_ROWS rows make one block."""
    count = max(1, n // BLOCK_ROWS)
    edges = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


@dataclass
class EmbeddingSet:
    """A batch of d-dimensional vectors with a modality tag.

    ``ids`` and ``labels`` are optional per-row annotations carried along
    for reporting; they never influence numerics.
    """

    data: np.ndarray
    modality: str = MODALITY_QUERY
    ids: list | None = None
    labels: list | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self.data.shape}")
        n, d = self.data.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one row and one column, got {n}x{d}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("embedding data contains non-finite entries")
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        for name, values in (("ids", self.ids), ("labels", self.labels)):
            if values is not None and len(values) != n:
                raise ValueError(f"{name} has length {len(values)}, expected {n}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class SimilarityMatrix:
    """An n x m score grid plus the temperature used when exponentiating.

    The temperature enters only as ``scores / temperature`` inside softmax
    style expressions; raw scores are stored unscaled.
    """

    scores: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ValueError(f"expected a 2-D score grid, got shape {self.scores.shape}")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("similarity scores contain non-finite entries")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def m(self) -> int:
        return self.scores.shape[1]

    def blocks(self):
        """The grid as a single (rows, block) pair, like ``CosineBlocks.blocks``."""
        return [(slice(0, self.n), self)]

    def minus_columns(self, values: np.ndarray) -> "SimilarityMatrix":
        """Scores with values[j] subtracted from every entry of column j."""
        return SimilarityMatrix(self.scores - values[None, :], self.temperature)


@dataclass
class CosineBlocks:
    """Cosine scores of unit query rows against unit gallery rows, made one
    ``row_blocks`` block at a time, so the n x m grid is never held whole.

    ``blocks`` yields ``(rows, SimilarityMatrix)`` pairs; each block's scores
    are ``queries[rows] @ galleries.T`` minus every column offset in turn.
    """

    queries: np.ndarray
    galleries: np.ndarray
    column_offsets: tuple = ()

    @property
    def n(self) -> int:
        return self.queries.shape[0]

    @property
    def m(self) -> int:
        return self.galleries.shape[0]

    def blocks(self):
        """Yield each block's ``(rows, SimilarityMatrix)`` in row order.

        Every block is written into one buffer of the largest block's size,
        so a block is valid only until the next one is requested: read it,
        or copy what is kept, before advancing. ``np.matmul`` into that
        buffer gives the bits of the plain ``@``.
        """
        galleries = self.galleries.T
        spans = row_blocks(self.n)
        buffer = np.empty((max(rows.stop - rows.start for rows in spans), self.m))
        for rows in spans:
            scores = np.matmul(self.queries[rows], galleries,
                               out=buffer[:rows.stop - rows.start])
            for values in self.column_offsets:
                scores -= values
            yield rows, SimilarityMatrix(scores)

    def minus_columns(self, values: np.ndarray) -> "CosineBlocks":
        """Blocks with values[j] subtracted from every entry of column j."""
        return CosineBlocks(self.queries, self.galleries,
                            self.column_offsets + (values,))


def row_norms(data: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", data, data))


def require_unit_rows(data: np.ndarray, message: str) -> None:
    """Raise NotUnitNorm(message) unless every row has norm 1 within 1e-6."""
    if not np.allclose(row_norms(data), 1.0, atol=1e-6):
        raise NotUnitNorm(message)


def l2_normalize(e: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm. Raises ZeroVector on a dead row."""
    norms = row_norms(e.data)
    bad = np.flatnonzero(norms < _NORM_FLOOR)
    if bad.size:
        raise ZeroVector(int(bad[0]))
    return EmbeddingSet(e.data / norms[:, None], e.modality, e.ids, e.labels)


def cosine_blocks(q: EmbeddingSet, g: EmbeddingSet) -> CosineBlocks:
    """Pairwise cosine similarity between two embedding sets, scored a block
    of query rows at a time.

    scores[i, j] = <q_i, g_j> / (||q_i|| ||g_j||)
    """
    if q.dim != g.dim:
        raise DimensionMismatch(f"query dim {q.dim} != gallery dim {g.dim}")
    return CosineBlocks(l2_normalize(q).data, l2_normalize(g).data)


def cosine_similarity_matrix(q: EmbeddingSet, g: EmbeddingSet,
                             temperature: float = 1.0) -> SimilarityMatrix:
    """The whole grid of ``cosine_blocks(q, g)`` as one matrix."""
    unit = cosine_blocks(q, g)
    return SimilarityMatrix(unit.queries @ unit.galleries.T, temperature)


def row_softmax(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of scores / temperature, max-subtracted for overflow safety."""
    z = scores / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def row_log_softmax(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    z = scores / temperature
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

