"""Contrastive loss family with analytic gradients.

Every loss returns a :class:`LossBundle` holding the scalar value and the
gradient with respect to the raw similarity scores it was computed from.
Targets (centrality weights, neighbor targets, transport targets) are
always treated as constants; gradients flow through the similarity
scores only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SimilarityMatrix, row_log_softmax, row_softmax
from .errors import NonFiniteLoss, ShapeMismatch
from .hubness import top_k_indices

GRAD_MODE_EXACT = "exact"
GRAD_MODE_PAPER = "paper"

LOSS_PARTS = ("wti", "nbi", "opt")
DIRECTIONS = ("q2g", "g2q")


@dataclass
class LossBundle:
    """Scalar loss plus its gradient over the similarity scores.

    ``grad_high`` is only populated by the KL loss, which differentiates
    with respect to two score matrices.
    """

    value: float
    grad: np.ndarray
    grad_high: np.ndarray | None = None

    def __post_init__(self):
        self.grad = np.asarray(self.grad, dtype=np.float64)
        if not np.isfinite(self.value):
            raise NonFiniteLoss("loss value is not finite")
        if not np.all(np.isfinite(self.grad)):
            raise NonFiniteLoss("loss gradient contains non-finite entries")


@dataclass
class NeighborSet:
    """Closest candidate columns of every anchor row, ground truths excluded.

    Row i is anchor i: ``members`` has shape (n, k) and ``ground_truth``
    shape (n,). ``plus_indices`` (n, k+1) prepends each row's ground truth,
    which is how the targets and the restricted softmax are laid out.
    """

    members: np.ndarray
    ground_truth: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.intp)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.intp)
        if self.members.ndim != 2 or self.members.shape[1] < 1:
            raise ValueError("a neighbor set needs at least one member per row")
        if self.ground_truth.shape != (self.members.shape[0],):
            raise ShapeMismatch(f"ground truths have shape {self.ground_truth.shape}, "
                                f"expected ({self.members.shape[0]},)")
        if np.any(self.members == self.ground_truth[:, None]):
            raise ValueError("members must not contain the ground-truth index")
        ordered = np.sort(self.members, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError("members must be distinct")

    @property
    def plus_indices(self) -> np.ndarray:
        return np.concatenate([self.ground_truth[:, None], self.members], axis=1)

    def scatter(self, values: np.ndarray, m: int) -> np.ndarray:
        """An n x m grid, zero but for ``values``, laid out like
        ``plus_indices``, at those columns; a column at or past m is left out."""
        plus = self.plus_indices
        grid = np.zeros((plus.shape[0], m))
        inside = plus < m
        grid[np.nonzero(inside)[0], plus[inside]] = values[inside]
        return grid


def loss_wti(s: SimilarityMatrix, w: np.ndarray) -> LossBundle:
    """Centrality-weighted contrastive loss over a square batch.

    value = -(1/B) sum_i w_i log softmax(S_i / tau)_ii
    grad  =  (w_i / (B tau)) (P(j|i) - delta_ij)
    """
    if s.n != s.m:
        raise ShapeMismatch(f"expected a square batch, got {s.n}x{s.m}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (s.n,):
        raise ShapeMismatch(f"weight vector has shape {w.shape}, expected ({s.n},)")
    b = s.n
    # the z, exp(z) and row sums of row_softmax and row_log_softmax, taken once
    z = s.scores / s.temperature
    z -= z.max(axis=1, keepdims=True)
    grad = np.exp(z)
    sums = grad.sum(axis=1, keepdims=True)
    value = (-w * (np.diag(z) - np.log(sums[:, 0]))).mean()
    grad /= sums
    grad[np.arange(b), np.arange(b)] -= 1.0
    grad *= w[:, None] / (b * s.temperature)
    return LossBundle(float(value), grad)


def select_neighbors(s: SimilarityMatrix, k: int,
                     ground_truth: np.ndarray | None = None) -> NeighborSet:
    """Top-k columns of every row by raw score, each row's ground truth excluded.

    ``ground_truth`` holds one column per row and defaults to the diagonal.
    Ties break toward the lower column index; k is clamped to m - 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s.m < 2:
        raise ValueError("need at least two gallery items to pick neighbors")
    gt = np.arange(s.n) if ground_truth is None else np.asarray(ground_truth, np.intp)
    if gt.shape != (s.n,):
        raise ShapeMismatch(f"ground truths have shape {gt.shape}, expected ({s.n},)")
    if np.any((gt < 0) | (gt >= s.m)):
        raise ValueError(f"a ground-truth column lies outside [0, {s.m})")
    k = min(k, s.m - 1)
    top = top_k_indices(s.scores, k + 1)
    drop = top == gt[:, None]
    # a row whose ground truth is not among its top k+1 drops its last column
    drop[~drop.any(axis=1), -1] = True
    return NeighborSet(top[~drop].reshape(s.n, k), gt)


def neighbor_targets(s: SimilarityMatrix, ns: NeighborSet,
                     centrality: np.ndarray) -> np.ndarray:
    """Target rows H over each ground truth plus its neighbor members.

    The ground-truth column is pinned to 1.0; member columns are the softmax
    of the de-centrality scores S_ij - C_j restricted to the members, so
    those sum to 1. ``centrality`` holds each candidate column's cross-modal
    centrality C_j and is only read at the members.
    """
    if centrality.shape != (s.m,):
        raise ShapeMismatch(
            f"centrality has shape {centrality.shape}, expected ({s.m},)")
    member_scores = (np.take_along_axis(s.scores, ns.members, axis=1)
                     - centrality[ns.members])
    h = np.ones((ns.members.shape[0], ns.members.shape[1] + 1))
    h[:, 1:] = row_softmax(member_scores, s.temperature)
    return h


def loss_nbi(s: SimilarityMatrix, h: np.ndarray, ns: NeighborSet,
             mode: str = GRAD_MODE_EXACT) -> LossBundle:
    """Neighbor adjusting loss, the mean over anchor rows, with two gradient modes.

    Per anchor, -sum_t H_t log P_t over the ground truth plus members, where
    P is the softmax of the raw scores restricted to those columns.

    The gradient is local: an (n, k+1) array laid out like
    ``ns.plus_indices``, every other score's derivative being 0
    (``NeighborSet.scatter`` spreads it over the grid). mode 'exact' returns
    the true derivative of this value given fixed targets,
    (P_t * sum(H) - H_t) / tau per anchor; since the pinned ground truth
    makes sum(H) = 2, this is what finite differences reproduce. mode
    'paper' emits the plain difference P_t - H_t, the simplified form that
    assumes the targets are themselves a normalized distribution. Either is
    divided by the number of anchors, as the value is a mean.
    """
    if mode not in (GRAD_MODE_EXACT, GRAD_MODE_PAPER):
        raise ValueError(f"unknown grad mode {mode!r}")
    h = np.asarray(h, dtype=np.float64)
    plus = ns.plus_indices
    if h.shape != plus.shape or plus.shape[0] != s.n:
        raise ShapeMismatch(f"targets {h.shape} and neighbors {plus.shape} "
                            f"must match, with one row per anchor ({s.n})")
    logp = row_log_softmax(np.take_along_axis(s.scores, plus, axis=1), s.temperature)
    p = np.exp(logp)
    if mode == GRAD_MODE_EXACT:
        local = (p * h.sum(axis=1, keepdims=True) - h) / s.temperature
    else:
        local = p - h
    local /= s.n
    return LossBundle(float(-(h * logp).sum(axis=1).mean()), local)


def loss_kl(low: SimilarityMatrix, high: SimilarityMatrix) -> LossBundle:
    """Mean row-wise KL(softmax(high) || softmax(low)) with both gradients.

    The high-level distribution is the reference; ``grad`` is with respect
    to the low-level scores and ``grad_high`` to the high-level scores.
    """
    if low.scores.shape != high.scores.shape:
        raise ShapeMismatch(
            f"low {low.scores.shape} and high {high.scores.shape} differ")
    n = low.n
    logq = row_log_softmax(low.scores, low.temperature)
    logp = row_log_softmax(high.scores, high.temperature)
    p = np.exp(logp)
    rows = (p * (logp - logq)).sum(axis=1)
    grad_low = (np.exp(logq) - p) / (n * low.temperature)
    # d/d high of sum p (log p - log q): p_j ((log p - log q)_j - KL_row)
    grad_high = p * ((logp - logq) - rows[:, None]) / (n * high.temperature)
    return LossBundle(float(rows.mean()), grad_low, grad_high=grad_high)


def total_loss(parts: dict[str, dict[str, LossBundle]], b: int) -> LossBundle:
    """Half-sum of the given loss parts over both retrieval directions.

    ``parts`` maps a direction ('q2g', 'g2q') to the bundles of the parts
    that are on, by LOSS_PARTS name; an unknown part raises ShapeMismatch.
    The sum starts from a b x b zero grid and runs q2g then g2q, each in
    LOSS_PARTS order, with g2q gradients transposed into the q2g frame.
    """
    value, grad = 0.0, np.zeros((b, b))
    for direction in DIRECTIONS:
        given = parts.get(direction, {})
        if not set(given) <= set(LOSS_PARTS):
            raise ShapeMismatch(f"direction {direction!r} has the parts "
                                f"{sorted(given)}, expected some of {LOSS_PARTS}")
        for name in LOSS_PARTS:
            if name in given:
                value += given[name].value
                grad += given[name].grad if direction == "q2g" else given[name].grad.T
    return LossBundle(0.5 * value, 0.5 * grad)
