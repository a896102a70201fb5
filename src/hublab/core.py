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


def cosine_similarity_matrix(q: EmbeddingSet, g: EmbeddingSet,
                             temperature: float = 1.0) -> SimilarityMatrix:
    """Pairwise cosine similarity between two embedding sets.

    scores[i, j] = <q_i, g_j> / (||q_i|| ||g_j||)
    """
    if q.dim != g.dim:
        raise DimensionMismatch(f"query dim {q.dim} != gallery dim {g.dim}")
    qn = row_norms(q.data)
    gn = row_norms(g.data)
    for name, norms in (("query", qn), ("gallery", gn)):
        bad = np.flatnonzero(norms < _NORM_FLOOR)
        if bad.size:
            raise ZeroVector(int(bad[0]))
    scores = (q.data / qn[:, None]) @ (g.data / gn[:, None]).T
    return SimilarityMatrix(scores, temperature)


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


def scaled_exp_softmax_row(s: SimilarityMatrix, row: int) -> np.ndarray:
    """Probability vector exp(S[row]/tau) / sum_k exp(S[row,k]/tau)."""
    if not 0 <= row < s.n:
        raise IndexError(f"row {row} out of range for {s.n} rows")
    return row_softmax(s.scores[row], s.temperature)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable log-sum-exp along one axis (keeps the library numpy-only)."""
    amax = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - amax).sum(axis=axis)) + np.squeeze(amax, axis=axis)
    return out
