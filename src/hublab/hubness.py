"""k-occurrence diagnostics for similarity matrices.

The k-occurrence N_k(y) of a gallery item counts how many query rows rank
it inside their top k. A long right tail of N_k means a few items (hubs)
dominate neighbor lists while many items (anti-hubs) never appear. The
report bundles six distributional statistics of N_k plus the count-of-
counts histogram.

All neighbor selection is exact; ties break toward the lower gallery
index so results are reproducible across platforms: ``top_k_indices``
partitions out each row's k best columns and sorts them stably.

A row of m >= PRUNE_COLUMNS_PER_K * k columns is pruned first. Its first
c * g columns fall into g = m // c strided groups (j, j + g, ...,
j + (c - 1) g) of c = _GROUP_WIDTH columns. Only the k groups whose maxima
reach t, the k-th largest group maximum, are partitioned, along with the
m - c * g columns that fit no group. This is exact: those k maxima are k
distinct columns, so the row's k-th score is at least t, and every column
of another group scores below t, so it can neither enter the top k nor tie
with the k-th score. A row where more than k groups reach t, or where a
group maximum is NaN, is partitioned whole. Narrower rows are always
partitioned whole; there, finding the best groups costs more than it saves.
On planted-hub cosine scores (numpy 2.4, one core), pruning was slower at
30.5 columns per k (128x640, k 21: 0.39 against 0.37 ms) and faster from
34.1 (256x512, k 15: 0.58 against 0.61 ms), so the gate sits at 32.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CosineBlocks, EmbeddingSet, SimilarityMatrix, require_unit_rows
from .errors import DegenerateDistribution, OutOfRange, ShapeMismatch

_SIGMA_FLOOR = 1e-12

# The defaults of hub_occurrence, atkinson and hubness_report, and of
# TrainConfig's hub_size_factor and atkinson_epsilon.
HUB_SIZE_FACTOR = 2.0
ATKINSON_EPSILON = 0.5

# top_k_indices prunes a row by groups of _GROUP_WIDTH columns when it has
# at least PRUNE_COLUMNS_PER_K columns per wanted one
_GROUP_WIDTH = 8
PRUNE_COLUMNS_PER_K = 32


@dataclass
class KOccurrence:
    """Per-gallery-item neighbor counts N_k over n_queries query rows.

    k and n_queries are at least 1, so the counts sum to at least 1.
    """

    counts: np.ndarray
    k: int
    n_queries: int

    def __post_init__(self):
        if self.k < 1 or self.n_queries < 1:
            raise ValueError(f"k and n_queries must be >= 1, got {self.k} "
                             f"and {self.n_queries}")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.sum() != self.n_queries * self.k:
            raise ValueError("counts must sum to n_queries * k")
        if self.counts.min() < 0 or self.counts.max() > self.n_queries:
            raise ValueError("each count must lie in [0, n_queries]")


@dataclass
class RelevanceLabels:
    """Query-by-gallery relevance on a grid of ``shape`` (n, m), held as the
    int64 keys ``row * m + column`` of the relevant pairs, strictly ascending,
    so each row's relevant columns form one ascending run of keys."""

    keys: np.ndarray
    shape: tuple
    source: str = "ground-truth"

    def __post_init__(self):
        keys = np.asarray(self.keys)
        self.shape = tuple(int(v) for v in self.shape)
        if len(self.shape) != 2:
            raise ValueError(f"expected a 2-D grid, got shape {self.shape}")
        if min(self.shape) < 0:
            raise ValueError(f"grid dimensions must be >= 0, got {self.shape}")
        if keys.ndim != 1 or (keys.size and keys.dtype.kind not in "iu"):
            raise ValueError(f"expected a 1-D array of integer keys, got {keys.shape}")
        self.keys = keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys[0] < 0 or keys[-1] >= self.shape[0] * self.shape[1]
                          or (np.diff(keys) <= 0).any()):
            raise ValueError(f"keys must ascend strictly inside the "
                             f"{self.shape[0]}x{self.shape[1]} grid")
        if self.source not in ("ground-truth", "pseudo-positive"):
            raise ValueError(f"unknown label source {self.source!r}")

    @classmethod
    def diagonal(cls, n: int) -> "RelevanceLabels":
        return cls(np.arange(n) * (n + 1), (n, n))

    @classmethod
    def from_pairs(cls, pairs, shape, source: str = "ground-truth") -> "RelevanceLabels":
        """Labels from [i, j] pairs; a repeated pair counts once."""
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            pairs = np.zeros((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected a list of [i, j] pairs, got shape {pairs.shape}")
        if pairs.dtype.kind not in "iu":
            # a float or bool index would be read as a valid-looking row
            raise TypeError(f"pair indices must be integers, got {pairs.dtype} values")
        i, j = pairs.astype(np.int64).T
        # a negative index would silently wrap around
        outside = np.flatnonzero((i < 0) | (i >= shape[0]) | (j < 0) | (j >= shape[1]))
        if outside.size:
            bad = outside[0]
            raise IndexError(f"pair ({i[bad]}, {j[bad]}) outside the "
                             f"{shape[0]}x{shape[1]} grid")
        return cls(np.unique(i * shape[1] + j), shape, source)

    @classmethod
    def from_mask(cls, mask, source: str = "ground-truth") -> "RelevanceLabels":
        """Labels from a dense boolean n x m mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"expected a 2-D mask, got shape {mask.shape}")
        return cls(np.flatnonzero(mask), mask.shape, source)

    def counts(self) -> np.ndarray:
        """The number of relevant columns of each row."""
        n, m = self.shape
        return np.diff(np.searchsorted(self.keys, np.arange(n + 1) * m))

    def contains(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Whether ``columns[i, t]`` is relevant to query row ``rows[i]``."""
        if self.keys.size == 0:
            return np.zeros(columns.shape, dtype=bool)
        probe = np.asarray(rows)[:, None] * self.shape[1] + columns
        at = np.minimum(np.searchsorted(self.keys, probe), self.keys.size - 1)
        return self.keys[at] == probe

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x m boolean mask, built on each access."""
        mask = np.zeros(self.shape, dtype=bool)
        mask.ravel()[self.keys] = True
        return mask

    def to_pairs(self) -> list:
        return np.stack(np.divmod(self.keys, self.shape[1]), axis=1).tolist()


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k column indices by descending score, ties to lower index,
    equal to ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``.

    A row of at least ``PRUNE_COLUMNS_PER_K * k`` columns first drops every
    column outside its k best groups (see the module docstring). What is
    left goes to ``_partition_top_k``; when k is outside (0, m), the rows
    are sorted in full. Narrower rows are partitioned whole.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, m = scores.shape
    if not 0 < k < m:
        return np.argsort(-scores, axis=1, kind="stable")[:, :k]
    if m < PRUNE_COLUMNS_PER_K * k:
        return _partition_top_k(scores, k)
    c, g = _GROUP_WIDTH, m // _GROUP_WIDTH
    group_max = scores[:, :c * g].reshape(n, c, g).max(axis=1)
    # the partition ranks NaN above every number, so a row with a NaN group
    # maximum gets t = NaN, which no group reaches
    t = np.partition(group_max, g - k, axis=1)[:, g - k:].min(axis=1)
    reach = group_max >= t[:, None]
    pruned = reach.sum(axis=1) == k
    rows = np.flatnonzero(pruned)
    # each row's k groups in ascending order, then their columns (and the
    # columns past c * g) in ascending column order, so ties still go to
    # the lower column
    groups = (np.flatnonzero(reach[pruned]) % g).reshape(rows.size, k)
    cols = (groups[:, None, :] + g * np.arange(c)[:, None]).reshape(rows.size, c * k)
    if c * g < m:
        cols = np.concatenate(
            [cols, np.broadcast_to(np.arange(c * g, m), (rows.size, m - c * g))], axis=1)
    kept = np.take(scores, cols + (rows * m)[:, None])
    top = np.take_along_axis(cols, _partition_top_k(kept, k), axis=1)
    if rows.size == n:
        return top
    out = np.empty((n, k), dtype=top.dtype)
    out[pruned] = top
    out[~pruned] = _partition_top_k(scores[~pruned], k)
    return out


def _partition_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``top_k_indices`` for 0 < k < m without pruning.

    A partitioned copy of the scores gives each row's k-th score. Each row
    keeps the columns that reach it, in column order, which then get a
    stable sort. A row that keeps other than k columns, as a tie with its
    k-th score or a NaN makes it, is sorted in full.
    """
    n, m = scores.shape
    part = np.partition(scores, m - k, axis=1)
    # the partition ranks NaN above every number, so a row holding one has a
    # k-th score (or NaN) that fewer than k columns reach
    keep = scores >= part[:, m - k, None]
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) != k)
    keep[tied] = np.arange(m) < k
    cols = np.flatnonzero(keep).reshape(n, k) % m
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(cols, order, axis=1)
    top[tied] = np.argsort(-scores[tied], axis=1, kind="stable")[:, :k]
    return top


def k_occurrence(s: SimilarityMatrix | CosineBlocks, k: int) -> KOccurrence:
    """Count how often each gallery column lands in a query row's top k,
    one block of query rows at a time."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > s.m:
        raise OutOfRange(f"k={k} exceeds gallery size {s.m}")
    counts = np.zeros(s.m, dtype=np.int64)
    for _, block in s.blocks():
        counts += np.bincount(top_k_indices(block, k).ravel(), minlength=s.m)
    return KOccurrence(counts, k, s.n)


def good_bad_occurrence(s: SimilarityMatrix | CosineBlocks, k: int,
                        labels: RelevanceLabels) -> tuple[np.ndarray, np.ndarray]:
    """Split each item's k-occurrence into relevant and irrelevant counts,
    one block of query rows at a time."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if labels.shape != (s.n, s.m):
        raise ShapeMismatch(f"labels cover {labels.shape}, scores are {(s.n, s.m)}")
    if k > s.m:
        raise OutOfRange(f"k={k} exceeds gallery size {s.m}")
    good, bad = np.zeros((2, s.m), dtype=np.int64)
    for rows, block in s.blocks():
        top = top_k_indices(block, k)
        relevant = labels.contains(np.arange(rows.start, rows.stop), top)
        good += np.bincount(top[relevant], minlength=s.m)
        bad += np.bincount(top[~relevant], minlength=s.m)
    return good, bad


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
    return _population_skew(occ.counts[occ.counts > 0].astype(np.float64))


def atkinson(occ: KOccurrence, epsilon: float = ATKINSON_EPSILON) -> float:
    """Atkinson inequality index of the counts with sensitivity epsilon.

    A = 1 - mean(N^(1-eps))^(1/(1-eps)) / mean(N), zero counts contributing
    zero to the inner mean.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    counts = occ.counts.astype(np.float64)
    mu = counts.mean()
    inner = np.where(counts > 0, counts, 0.0) ** (1.0 - epsilon)
    return float(1.0 - inner.mean() ** (1.0 / (1.0 - epsilon)) / mu)


def robin_hood(occ: KOccurrence) -> float:
    """Hoover index: the fraction of neighbor mass that would have to move
    to make the counts uniform, sum|N - mu| / (2 sum N)."""
    counts = occ.counts.astype(np.float64)
    return float(np.abs(counts - counts.mean()).sum() / (2.0 * counts.sum()))


def antihub_occurrence(occ: KOccurrence) -> float:
    """Fraction of gallery items never appearing in any top-k list."""
    return float((occ.counts == 0).mean())


def hub_occurrence(occ: KOccurrence, hub_size_factor: float = HUB_SIZE_FACTOR) -> float:
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
    return RelevanceLabels.from_mask(matrix, source="pseudo-positive")


def count_histogram(occ: KOccurrence) -> list:
    """Sparse count-of-counts pairs [[n_k, how_many_items], ...]."""
    values, freqs = np.unique(occ.counts, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, freqs)]


def hubness_report(s: SimilarityMatrix | CosineBlocks, k: int,
                   hub_size_factor: float = HUB_SIZE_FACTOR,
                   atkinson_epsilon: float = ATKINSON_EPSILON) -> dict:
    """All six N_k statistics plus the histogram from one shared count pass,
    as the dict that ``report.json`` holds under ``report``.

    Its keys: ``skew`` (``skewness``), ``trunc`` (``truncated_skewness``),
    ``atkinson``, ``robin`` (``robin_hood``), ``anti``
    (``antihub_occurrence``), ``hub`` (``hub_occurrence``), the parameters
    ``k``, ``hub_size_factor`` and ``atkinson_epsilon``, ``histogram``
    (``count_histogram``), ``n_queries`` and ``n_gallery``.
    """
    occ = k_occurrence(s, k)
    return {
        "skew": skewness(occ),
        "trunc": truncated_skewness(occ),
        "atkinson": atkinson(occ, atkinson_epsilon),
        "robin": robin_hood(occ),
        "anti": antihub_occurrence(occ),
        "hub": hub_occurrence(occ, hub_size_factor),
        "k": k,
        "hub_size_factor": hub_size_factor,
        "atkinson_epsilon": atkinson_epsilon,
        "histogram": count_histogram(occ),
        "n_queries": occ.n_queries,
        "n_gallery": int(occ.counts.size),
    }
