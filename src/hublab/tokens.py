"""Token-level similarity and density-peaks token merging.

These are the parts of the two-level similarity hierarchy: the low level
scores raw token sets against each other, the high level scores merged
(clustered) token sets. Token weights are inputs here; whatever network produced them
is outside this library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch

_WEIGHT_ATOL = 1e-9


@dataclass
class TokenSet:
    """N tokens of width d plus a nonnegative weight per token summing to 1."""

    tokens: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise ValueError(f"expected an N x d token matrix, got {self.tokens.shape}")
        n = self.tokens.shape[0]
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (n,):
            raise ValueError(f"weights shape {self.weights.shape} != ({n},)")
        if self.weights.min() < 0:
            raise ValueError("token weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_ATOL:
            raise ValueError("token weights must sum to 1")

    @property
    def n(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


def _unit_rows(tokens: np.ndarray) -> np.ndarray:
    norms = np.sqrt((tokens ** 2).sum(axis=1, keepdims=True))
    norms = np.where(norms < 1e-12, 1.0, norms)
    return tokens / norms


def wti_similarity(v: TokenSet, t: TokenSet) -> float:
    """Weighted token-wise interaction score between two token sets.

    Each side contributes the weighted average of its tokens' best cosine
    alignment to the other side; the two directions are averaged, so the
    value is symmetric under swapping the arguments.
    """
    if v.dim != t.dim:
        raise ShapeMismatch(f"token dims differ: {v.dim} vs {t.dim}")
    align = _unit_rows(v.tokens) @ _unit_rows(t.tokens).T
    v_to_t = float(v.weights @ align.max(axis=1))
    t_to_v = float(t.weights @ align.max(axis=0))
    return 0.5 * (v_to_t + t_to_v)


def default_k_density(n: int) -> int:
    """Neighborhood size for the density estimate: max(2, N // 4), below N."""
    return max(1, min(max(2, n // 4), n - 1)) if n > 1 else 1


def cluster_assignments(tokens: TokenSet, c: int,
                        k_density: int | None = None) -> np.ndarray:
    """Density-peaks cluster index per token.

    Density of a token is exp(-mean squared Euclidean distance to its
    k_density nearest other tokens). Separation is the distance to the
    nearest denser token; the densest token takes its largest distance to
    anyone. The c tokens with the highest density * separation are the
    centers, and every other token inherits the cluster of its nearest
    denser token, following that link chain down to a center.

    Density ties resolve toward the lower index and clusters are numbered
    by ascending center index, all deterministic.
    """
    n = tokens.n
    if not 1 <= c <= n:
        raise OutOfRange(f"cluster count {c} not in [1, {n}]")
    if c == n:
        return np.arange(n, dtype=np.intp)
    if k_density is None:
        k_density = default_k_density(n)
    k_density = max(1, min(int(k_density), n - 1))

    diff = tokens.tokens[:, None, :] - tokens.tokens[None, :, :]
    sq_dist = (diff ** 2).sum(axis=2)
    dist = np.sqrt(sq_dist)
    # mean squared distance to the k nearest other tokens (self excluded)
    sq_sorted = np.sort(sq_dist, axis=1)[:, 1: k_density + 1]
    density = np.exp(-sq_sorted.mean(axis=1))

    order = np.lexsort((np.arange(n), -density))
    separation = np.empty(n)
    parent = np.empty(n, dtype=np.intp)
    separation[order[0]] = dist[order[0]].max()
    parent[order[0]] = order[0]
    for pos in range(1, n):
        i = order[pos]
        denser = order[:pos]
        nearest = denser[np.argmin(dist[i, denser])]
        separation[i] = dist[i, nearest]
        parent[i] = nearest

    score = density * separation
    centers = np.sort(np.lexsort((np.arange(n), -score))[:c])
    slot = np.full(n, -1, dtype=np.intp)
    slot[centers] = np.arange(c)
    assignment = np.full(n, -1, dtype=np.intp)
    for pos in range(n):
        i = order[pos]
        assignment[i] = slot[i] if slot[i] >= 0 else assignment[parent[i]]
    return assignment


def dpc_knn_merge(tokens: TokenSet, c: int, k_density: int | None = None) -> TokenSet:
    """Merge a token set down to c tokens along density-peaks clusters.

    Each merged token is the weight-weighted mean of its members; merged
    weights are the member weight totals, renormalized to sum to 1.
    c == N reproduces the input set.
    """
    assignment = cluster_assignments(tokens, c, k_density)
    if c == tokens.n:
        return TokenSet(tokens.tokens.copy(), tokens.weights.copy())
    merged = np.zeros((c, tokens.dim))
    weights = np.zeros(c)
    for s in range(c):
        members = np.flatnonzero(assignment == s)
        w = tokens.weights[members]
        total = w.sum()
        weights[s] = total
        if total > 1e-15:
            merged[s] = (w[:, None] * tokens.tokens[members]).sum(axis=0) / total
        else:
            merged[s] = tokens.tokens[members].mean(axis=0)
    weights = weights / weights.sum()
    return TokenSet(merged, weights)

