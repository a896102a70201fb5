"""Output checks for the benchmark passes.

The oracle reads the `.emb` files itself and ranks by a brute-force
stable argsort of the full score matrix, the tie rule hublab documents
(descending score, ties to the lower gallery index). Score matrices are
built with the same NumPy expressions as ``hublab.core`` and
``hublab.bank``, so they match the program's bit for bit and any
disagreement comes from selection or ranking, which must stay exact.

Each ``check_*`` function returns a list of problems; empty means the
pass is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

RECALL_KS = (1, 5, 10)
RANKED_TOP = 10  # rows per query that `hublab retrieve` writes to ranked.csv
_HEADER = struct.Struct("<4sIIIB3s")
_ROW_BLOCK = 500


def read_emb(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    _, _, n, d, _, _ = _HEADER.unpack_from(raw)
    return np.frombuffer(raw, "<f4", count=n * d,
                         offset=_HEADER.size).reshape(n, d).astype(np.float64)


def read_ids(path) -> list:
    path = Path(path)
    return json.loads(path.with_name(path.stem + ".meta.json").read_text())["ids"]


def cosine(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    qn = np.sqrt(np.einsum("ij,ij->i", q, q))
    gn = np.sqrt(np.einsum("ij,ij->i", g, g))
    return (q / qn[:, None]) @ (g / gn[:, None]).T


def simi_cent(scores: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Scores minus each gallery item's mean cosine to the gallery bank."""
    unit = g / np.sqrt((g ** 2).sum(axis=1))[:, None]
    centrality = np.clip((unit @ g.T).mean(axis=1), -1.0, 1.0)
    return scores - centrality[None, :]


def stable_ranking(scores: np.ndarray, k: int):
    """Top-k columns per row and the 1-based rank of the diagonal item."""
    n = scores.shape[0]
    top = np.empty((n, k), dtype=np.intp)
    rank = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        order = np.argsort(-scores[lo:hi], axis=1, kind="stable")
        top[lo:hi] = order[:, :k]
        rank[lo:hi] = (order == np.arange(lo, hi)[:, None]).argmax(axis=1) + 1
    return top, rank


def recall(rank: np.ndarray) -> dict:
    r_at = {str(k): float(100.0 * (rank <= k).mean()) for k in RECALL_KS}
    return {"r_at": r_at, "median_rank": float(np.median(rank)),
            "rsum": float(sum(r_at.values()))}


def hub_occurrence(top: np.ndarray, m: int, factor: float) -> float:
    n, k = top.shape
    counts = np.bincount(top.ravel(), minlength=m)
    return float(counts[counts > k * factor].sum() / (n * k))


def histogram(top: np.ndarray, m: int) -> list:
    values, freqs = np.unique(np.bincount(top.ravel(), minlength=m),
                              return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, freqs)]


def _artifact(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


class AnalyzeOracle:
    def __init__(self, queries, galleries, k: int, factor: float):
        scores = cosine(read_emb(queries), read_emb(galleries))
        top, rank = stable_ranking(scores, k)
        self.histogram = histogram(top, scores.shape[1])
        self.hub = hub_occurrence(top, scores.shape[1], factor)
        self.rsum = recall(rank)["rsum"]

    def check(self, out_dir: Path) -> list:
        report = _artifact(out_dir, "report.json")["report"]
        with open(out_dir / "histogram.csv", newline="") as fh:
            rows = [[int(a), int(b)] for a, b in list(csv.reader(fh))[1:]]
        problems = []
        if rows != self.histogram or report["histogram"] != self.histogram:
            problems.append("k-occurrence histogram differs from the oracle")
        if report["hub"] != self.hub:
            problems.append(f"hub {report['hub']!r} != oracle {self.hub!r}")
        return problems

    def quality(self, out_dir: Path) -> dict:
        return {"hub_occ": _artifact(out_dir, "report.json")["report"]["hub"],
                "rsum": self.rsum}


class RetrieveOracle:
    def __init__(self, queries, galleries, factor: float):
        g = read_emb(galleries)
        scores = simi_cent(cosine(read_emb(queries), g), g)
        top, rank = stable_ranking(scores, RANKED_TOP)
        self.expected = recall(rank)
        ids = read_ids(galleries)
        self.ranked = [[ids[j] for j in row] for row in top]
        self.ranked_scores = [[repr(float(scores[i, j])) for j in row]
                              for i, row in enumerate(top)]
        self.hub = hub_occurrence(top, scores.shape[1], factor)

    def check(self, out_dir: Path) -> list:
        scores = _artifact(out_dir, "retrieval.json")["scores"]
        problems = [f"{key} {scores[key]!r} != oracle {self.expected[key]!r}"
                    for key in ("r_at", "median_rank", "rsum")
                    if scores[key] != self.expected[key]]
        with open(out_dir / "ranked.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ranked = [rows[i:i + RANKED_TOP] for i in range(0, len(rows), RANKED_TOP)]
        if ([[r[2] for r in q] for q in ranked] != self.ranked
                or [[r[3] for r in q] for q in ranked] != self.ranked_scores):
            problems.append("ranked.csv differs from the oracle's top 10")
        return problems

    def quality(self, out_dir: Path) -> dict:
        # hub occurrence of the top-10 lists written to ranked.csv, which
        # the check above has matched to the oracle
        rsum = _artifact(out_dir, "retrieval.json")["scores"]["rsum"]
        return {"hub_occ": self.hub, "rsum": rsum}


def tree_digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class TrainOracle:
    """Every pass must write the first pass's artifact tree byte for byte."""

    def __init__(self):
        self.first = None

    def check(self, out_dir: Path) -> list:
        problems = []
        digest = tree_digest(out_dir)
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append("artifact tree differs from the first pass")
        with open(out_dir / "loss_curve.csv", newline="") as fh:
            values = [float(v) for row in list(csv.reader(fh))[1:] for v in row]
        if not values or not np.all(np.isfinite(values)):
            problems.append("loss curve is empty or not finite")
        return problems

    def quality(self, out_dir: Path) -> dict:
        scores = cosine(read_emb(out_dir / "trained_queries.emb"),
                        read_emb(out_dir / "trained_galleries.emb"))
        _, rank = stable_ranking(scores, 1)
        return {"hub_occ": _artifact(out_dir, "report_after.json")["report"]["hub"],
                "rsum": recall(rank)["rsum"]}
