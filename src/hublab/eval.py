"""Retrieval quality metrics and de-centrality re-ranking.

Rankings are produced by descending score with ties broken toward the
lower gallery index, matching the neighbor-selection convention used
everywhere else in the package.
"""

from __future__ import annotations

import numpy as np

from .bank import MemoryBank, intra_centrality
from .core import CosineBlocks, EmbeddingSet, SimilarityMatrix
from .errors import EmptyBank, NoRelevant, ShapeMismatch
from .hubness import RelevanceLabels, top_k_indices

RECALL_KS = (1, 5, 10)


def retrieval_eval(s: SimilarityMatrix | CosineBlocks, labels: RelevanceLabels,
                   each_block=None) -> dict:
    """Score a similarity matrix, or its ``CosineBlocks``, against relevance
    labels, as the dict that ``retrieval.json`` holds under ``scores``: ``r_at``
    (R@1, R@5 and R@10 in percent, under the string keys ``"1"``, ``"5"`` and
    ``"10"``), ``median_rank``, ``mean_rank``, ``rsum`` (the sum of the
    three recalls), ``map_at_r`` and ``r_precision``.

    R@K counts a query as a hit when any relevant item ranks inside the
    top K; the query's rank is that of its best-ranked relevant item.
    mAP@R and R-Precision are computed per query over its own number of
    relevant items R, then averaged. Each query row is scored inside its
    block from one ``top_k_indices`` call that keeps the largest R or
    ``max(RECALL_KS)`` columns, whichever is more; ``each_block(scores,
    top)``, when given, is called with every block's scores and those
    columns in row order after the block has been scored, so the caller can
    read both while they are in memory.
    """
    if labels.shape != (s.n, s.m):
        raise ShapeMismatch(f"labels cover {labels.shape}, scores are {(s.n, s.m)}")
    r = labels.counts()
    if not r.all():
        raise NoRelevant("every query needs at least one relevant gallery item")

    depth = int(r.max())
    width = min(max(depth, max(RECALL_KS)), s.m)
    parts = []
    for rows, scores in s.blocks():
        top = top_k_indices(scores, width)
        parts.append(_score_rows(scores, top, labels, np.arange(rows.start, rows.stop),
                                 r[rows], depth))
        if each_block is not None:
            each_block(scores, top)
    best_rank, average_precision, r_precision = map(np.concatenate, zip(*parts))
    r_at = {str(k): float(100.0 * (best_rank <= k).mean()) for k in RECALL_KS}
    return {
        "r_at": r_at,
        "median_rank": float(np.median(best_rank)),
        "mean_rank": float(best_rank.mean()),
        "rsum": float(sum(r_at.values())),
        "map_at_r": float(average_precision.mean()),
        "r_precision": float(r_precision.mean()),
    }


def _score_rows(scores: np.ndarray, top: np.ndarray, labels: RelevanceLabels,
                rows: np.ndarray, r: np.ndarray, depth: int):
    """Per-row best relevant rank, average precision at R and R-Precision of
    the block ``scores`` of query rows ``rows``, which have ``r`` relevant
    columns each.

    ``top`` holds each row's best columns in rank order, at least ``depth``
    of them. ``depth`` is the largest R over all rows, so that every block
    sums rows of the same length.
    """
    hits = labels.contains(rows, top)
    # the first relevant column in rank order is the best relevant one; a
    # row with none in ``top`` counts its rank over the whole row
    best_rank = hits.argmax(axis=1) + 1
    missed = np.flatnonzero(~hits.any(axis=1))
    if missed.size:
        best_rank[missed] = _count_rank(scores[missed], labels, rows[missed], r[missed])
    # mAP@R and R-Precision read only each row's own top R
    positions = np.arange(1, depth + 1)
    hits = hits[:, :depth] & (positions <= r[:, None])
    precision = np.cumsum(hits, axis=1) / positions
    return best_rank, (precision * hits).sum(axis=1) / r, hits.sum(axis=1) / r


def _count_rank(scores: np.ndarray, labels: RelevanceLabels, rows: np.ndarray,
                r: np.ndarray) -> np.ndarray:
    """The stable-sort rank of each row's best relevant column, ``scores[i]``
    being query row ``rows[i]``, whose ``r[i]`` relevant keys form one run."""
    # gather every row's relevant columns and their scores into segments
    seg_starts = np.cumsum(r) - r
    starts = np.searchsorted(labels.keys, rows * labels.shape[1])
    at = np.arange(r.sum()) + np.repeat(starts - seg_starts, r)
    cols = labels.keys[at] % labels.shape[1]
    values = scores[np.repeat(np.arange(len(r)), r), cols]
    # the best relevant column: highest score, lowest index on ties
    best_score = np.maximum.reduceat(values, seg_starts)
    at_best = np.flatnonzero(values == np.repeat(best_score, r))
    best = cols[at_best[np.searchsorted(at_best, seg_starts)]]
    # its rank: every higher score, and equal scores at lower columns
    best_score = best_score[:, None]
    return ((scores > best_score).sum(axis=1)
            + ((scores == best_score) & (np.arange(scores.shape[1]) < best[:, None]))
            .sum(axis=1) + 1)


def infer_simi_cent(s: SimilarityMatrix | CosineBlocks, gallery: EmbeddingSet,
                    bank: MemoryBank) -> SimilarityMatrix | CosineBlocks:
    """Subtract each gallery item's bank centrality from its column.

    The bank is expected to hold reference embeddings on the gallery side
    (e.g. a validation split); the adjusted scores are meant for ranking
    only. The centrality vector is computed here, once; ``CosineBlocks``
    subtract it from each block as it is scored. Raises EmptyBank when
    that queue holds nothing.
    """
    if gallery.n != s.m:
        raise ShapeMismatch(f"gallery has {gallery.n} rows, scores have {s.m} columns")
    if bank.fill(gallery.modality) == 0:
        raise EmptyBank(f"no stored {gallery.modality}-side vectors to rank against")
    return s.minus_columns(intra_centrality(bank, gallery))
