"""Retrieval quality metrics and de-centrality re-ranking.

Rankings are produced by descending score with ties broken toward the
lower gallery index, matching the neighbor-selection convention used
everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank, intra_centrality
from .core import EmbeddingSet, SimilarityMatrix
from .errors import EmptyBank, NoRelevant, ShapeMismatch
from .hubness import RelevanceLabels, top_k_indices

RECALL_KS = (1, 5, 10)


@dataclass
class RetrievalScores:
    """Standard ranked-retrieval metrics; recalls are percentages."""

    r_at: dict
    median_rank: float
    mean_rank: float
    rsum: float
    map_at_r: float
    r_precision: float

    def to_dict(self) -> dict:
        return {
            "r_at": {str(k): v for k, v in sorted(self.r_at.items())},
            "median_rank": self.median_rank,
            "mean_rank": self.mean_rank,
            "rsum": self.rsum,
            "map_at_r": self.map_at_r,
            "r_precision": self.r_precision,
        }


def retrieval_eval(s: SimilarityMatrix, labels: RelevanceLabels) -> RetrievalScores:
    """Score a similarity matrix against a relevance mask.

    R@K counts a query as a hit when any relevant item ranks inside the
    top K; the query's rank is that of its best-ranked relevant item.
    mAP@R and R-Precision are computed per query over its own number of
    relevant items R, then averaged.
    """
    if labels.matrix.shape != s.scores.shape:
        raise ShapeMismatch(
            f"labels cover {labels.matrix.shape}, scores are {s.scores.shape}")
    m = s.scores.shape[1]
    if not labels.matrix.any(axis=1).all():
        raise NoRelevant("every query needs at least one relevant gallery item")

    scores, rel = s.scores, labels.matrix
    # the best relevant column: highest score, lowest index on ties
    best = np.where(rel, scores, -np.inf).argmax(axis=1)[:, None]
    best_score = np.take_along_axis(scores, best, axis=1)
    # its stable-sort rank: every higher score, and equal scores at lower columns
    best_rank = ((scores > best_score).sum(axis=1)
                 + ((scores == best_score) & (np.arange(m) < best)).sum(axis=1) + 1)
    r_at = {k: float(100.0 * (best_rank <= k).mean()) for k in RECALL_KS}

    # mAP@R and R-Precision read only each row's own top R
    r = rel.sum(axis=1)
    top = top_k_indices(scores, int(r.max()))
    positions = np.arange(1, top.shape[1] + 1)
    hits = np.take_along_axis(rel, top, axis=1) & (positions <= r[:, None])
    precision = np.cumsum(hits, axis=1) / positions
    return RetrievalScores(
        r_at=r_at,
        median_rank=float(np.median(best_rank)),
        mean_rank=float(best_rank.mean()),
        rsum=float(sum(r_at.values())),
        map_at_r=float(((precision * hits).sum(axis=1) / r).mean()),
        r_precision=float((hits.sum(axis=1) / r).mean()),
    )


def infer_simi_cent(s: SimilarityMatrix, gallery: EmbeddingSet,
                    bank: MemoryBank) -> SimilarityMatrix:
    """Subtract each gallery item's bank centrality from its column.

    The bank is expected to hold reference embeddings on the gallery side
    (e.g. a validation split); the adjusted scores are meant for ranking
    only. Raises EmptyBank when that queue holds nothing.
    """
    if gallery.n != s.m:
        raise ShapeMismatch(f"gallery has {gallery.n} rows, scores have {s.m} columns")
    if bank.fill(gallery.modality) == 0:
        raise EmptyBank(f"no stored {gallery.modality}-side vectors to rank against")
    centrality = intra_centrality(bank, gallery)
    return SimilarityMatrix(s.scores - centrality.values[None, :], s.temperature)
