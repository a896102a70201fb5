"""k-occurrence diagnostics for similarity matrices.

The k-occurrence N_k(y) of a gallery item counts how many query rows rank
it inside their top k. A long right tail of N_k means a few items (hubs)
dominate neighbor lists while many items (anti-hubs) never appear. The
report bundles six distributional statistics of N_k plus the count-of-
counts histogram.

All neighbor selection is exact; ties break toward the lower gallery
index so results are reproducible across platforms: ``top_k_indices``
partitions out each row's k best columns and sorts them stably.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CosineBlocks, EmbeddingSet, SimilarityMatrix, require_unit_rows
from .errors import (
    AllZero,
    DegenerateDistribution,
    KTooLarge,
    MissingLabels,
    ZeroMean,
    ZeroTotal,
)

_SIGMA_FLOOR = 1e-12


@dataclass
class KOccurrence:
    """Per-gallery-item neighbor counts N_k over n_queries query rows."""

    counts: np.ndarray
    k: int
    n_queries: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.sum() != self.n_queries * self.k:
            raise ValueError("counts must sum to n_queries * k")
        if self.counts.min() < 0 or self.counts.max() > self.n_queries:
            raise ValueError("each count must lie in [0, n_queries]")


@dataclass
class RelevanceLabels:
    """Boolean query-by-gallery relevance mask."""

    matrix: np.ndarray
    source: str = "ground-truth"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=bool)
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D mask, got shape {self.matrix.shape}")
        if self.source not in ("ground-truth", "pseudo-positive"):
            raise ValueError(f"unknown label source {self.source!r}")

    @classmethod
    def diagonal(cls, n: int, source: str = "ground-truth") -> "RelevanceLabels":
        return cls(np.eye(n, dtype=bool), source)

    @classmethod
    def from_pairs(cls, pairs, shape, source: str = "ground-truth") -> "RelevanceLabels":
        matrix = np.zeros(shape, dtype=bool)
        for i, j in pairs:
            i, j = operator.index(i), operator.index(j)
            # a negative index would silently wrap around
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise IndexError(f"pair ({i}, {j}) outside the {shape[0]}x{shape[1]} grid")
            matrix[i, j] = True
        return cls(matrix, source)

    def to_pairs(self) -> list:
        rows, cols = np.nonzero(self.matrix)
        return [[int(i), int(j)] for i, j in zip(rows, cols)]


@dataclass
class HubnessReport:
    """The six N_k statistics plus their parameters and histogram."""

    skewness: float
    truncated_skewness: float
    atkinson: float
    robin_hood: float
    antihub_occurrence: float
    hub_occurrence: float
    k: int
    hub_size_factor: float
    atkinson_epsilon: float
    histogram: list
    n_queries: int
    n_gallery: int

    def to_dict(self) -> dict:
        return {
            "skew": self.skewness,
            "trunc": self.truncated_skewness,
            "atkinson": self.atkinson,
            "robin": self.robin_hood,
            "anti": self.antihub_occurrence,
            "hub": self.hub_occurrence,
            "k": self.k,
            "hub_size_factor": self.hub_size_factor,
            "atkinson_epsilon": self.atkinson_epsilon,
            "histogram": self.histogram,
            "n_queries": self.n_queries,
            "n_gallery": self.n_gallery,
        }


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k column indices by descending score, ties to lower index,
    equal to ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``.

    ``np.argpartition`` finds each row's k best columns (``argmax`` its best
    one when k = 1), which get a stable sort in column order. A row whose
    k-th score also appears outside them, and every row when k is outside
    (0, m), is sorted in full.
    """
    m = scores.shape[1]
    if not 0 < k < m:
        return np.argsort(-scores, axis=1, kind="stable")[:, :k]
    if k == 1:
        # argmax keeps the first maximum; a row where it picked NaN, which
        # the stable sort puts last, is sorted in full
        top = scores.argmax(axis=1)[:, None]
        nan = np.flatnonzero(np.isnan(np.take_along_axis(scores, top, axis=1)))
        top[nan] = np.argsort(-scores[nan], axis=1, kind="stable")[:, :1]
        return top
    kept = np.sort(np.argpartition(scores, m - k, axis=1)[:, m - k:], axis=1)
    kept_scores = np.take_along_axis(scores, kept, axis=1)
    top = np.take_along_axis(kept, np.argsort(-kept_scores, axis=1, kind="stable"),
                             axis=1)
    # the partition ranks NaN above every number, so a row holding one keeps
    # it; its k-th score is then NaN, counts no column, and the row is sorted
    # in full
    kth = kept_scores.min(axis=1)
    tied = np.flatnonzero((scores >= kth[:, None]).sum(axis=1) != k)
    top[tied] = np.argsort(-scores[tied], axis=1, kind="stable")[:, :k]
    return top


def k_occurrence(s: SimilarityMatrix | CosineBlocks, k: int) -> KOccurrence:
    """Count how often each gallery column lands in a query row's top k,
    one block of query rows at a time."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > s.m:
        raise KTooLarge(f"k={k} exceeds gallery size {s.m}")
    counts = np.zeros(s.m, dtype=np.int64)
    for _, block in s.blocks():
        counts += np.bincount(top_k_indices(block.scores, k).ravel(), minlength=s.m)
    return KOccurrence(counts, k, s.n)


def good_bad_occurrence(s: SimilarityMatrix, k: int,
                        labels: RelevanceLabels) -> tuple[np.ndarray, np.ndarray]:
    """Split each item's k-occurrence into relevant and irrelevant counts."""
    if labels.matrix.shape != s.scores.shape:
        raise MissingLabels(
            f"labels cover {labels.matrix.shape}, scores are {s.scores.shape}")
    if k > s.m:
        raise KTooLarge(f"k={k} exceeds gallery size {s.m}")
    top = top_k_indices(s.scores, k)
    relevant = np.take_along_axis(labels.matrix, top, axis=1).ravel()
    cols = top.ravel()
    return (np.bincount(cols[relevant], minlength=s.m),
            np.bincount(cols[~relevant], minlength=s.m))


def _population_skew(values: np.ndarray) -> float:
    mu = values.mean()
    centered = values - mu
    sigma = np.sqrt((centered ** 2).mean())
    if sigma < _SIGMA_FLOOR:
        warnings.warn("zero spread, skewness forced to 0", DegenerateDistribution)
        return 0.0
    return float((centered ** 3).mean() / sigma ** 3)


def skewness(occ: KOccurrence) -> float:
    """Population skewness E[(N_k - mu)^3] / sigma^3 of the count vector."""
    return _population_skew(occ.counts.astype(np.float64))


def truncated_skewness(occ: KOccurrence) -> float:
    """Skewness over the positive counts only (zero-truncated)."""
    positive = occ.counts[occ.counts > 0].astype(np.float64)
    if positive.size == 0:
        raise AllZero("all k-occurrence counts are zero")
    return _population_skew(positive)


def atkinson(occ: KOccurrence, epsilon: float = 0.5) -> float:
    """Atkinson inequality index of the counts with sensitivity epsilon.

    A = 1 - mean(N^(1-eps))^(1/(1-eps)) / mean(N), zero counts contributing
    zero to the inner mean.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    counts = occ.counts.astype(np.float64)
    mu = counts.mean()
    if mu <= 0:
        raise ZeroMean("mean k-occurrence is zero")
    inner = np.where(counts > 0, counts, 0.0) ** (1.0 - epsilon)
    return float(1.0 - inner.mean() ** (1.0 / (1.0 - epsilon)) / mu)


def robin_hood(occ: KOccurrence) -> float:
    """Hoover index: the fraction of neighbor mass that would have to move
    to make the counts uniform, sum|N - mu| / (2 sum N)."""
    counts = occ.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ZeroTotal("total k-occurrence is zero")
    return float(np.abs(counts - counts.mean()).sum() / (2.0 * total))


def antihub_occurrence(occ: KOccurrence) -> float:
    """Fraction of gallery items never appearing in any top-k list."""
    return float((occ.counts == 0).mean())


def hub_occurrence(occ: KOccurrence, hub_size_factor: float = 2.0) -> float:
    """Fraction of all neighbor slots taken by hubs (N_k > k * factor)."""
    counts = occ.counts
    hubs = counts > occ.k * hub_size_factor
    return float(counts[hubs].sum() / (occ.n_queries * occ.k))


def pseudo_positive_probe(texts: EmbeddingSet, threshold: float) -> RelevanceLabels:
    """Label pairs of texts as mutually relevant when their cosine clears
    the threshold; self-pairs are always relevant and the result is
    symmetric. Expects unit-normalized rows."""
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    require_unit_rows(texts.data, "probe expects unit-normalized text embeddings")
    sims = texts.data @ texts.data.T
    sims = 0.5 * (sims + sims.T)
    matrix = sims >= threshold
    np.fill_diagonal(matrix, True)
    return RelevanceLabels(matrix, source="pseudo-positive")


def count_histogram(occ: KOccurrence) -> list:
    """Sparse count-of-counts pairs [[n_k, how_many_items], ...]."""
    values, freqs = np.unique(occ.counts, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, freqs)]


def hubness_report(s: SimilarityMatrix | CosineBlocks, k: int,
                   hub_size_factor: float = 2.0,
                   atkinson_epsilon: float = 0.5) -> HubnessReport:
    """All six N_k statistics plus the histogram from one shared count pass."""
    occ = k_occurrence(s, k)
    return HubnessReport(
        skewness=skewness(occ),
        truncated_skewness=truncated_skewness(occ),
        atkinson=atkinson(occ, atkinson_epsilon),
        robin_hood=robin_hood(occ),
        antihub_occurrence=antihub_occurrence(occ),
        hub_occurrence=hub_occurrence(occ, hub_size_factor),
        k=k,
        hub_size_factor=hub_size_factor,
        atkinson_epsilon=atkinson_epsilon,
        histogram=count_histogram(occ),
        n_queries=occ.n_queries,
        n_gallery=int(occ.counts.size),
    )
