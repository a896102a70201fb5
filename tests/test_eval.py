import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hublab.core
from hublab import (
    CosineBlocks,
    EmbeddingSet,
    MemoryBank,
    RelevanceLabels,
    SimilarityMatrix,
    good_bad_occurrence,
    infer_simi_cent,
    push_batch,
    retrieval_eval,
)
from hublab.errors import EmptyBank, NoRelevant, ShapeMismatch

from conftest import random_unit_rows


def brute_force_retrieval(scores, relevant):
    """Oracle: python-loop ranking with ties to lower index."""
    n, m = scores.shape
    best_ranks = []
    maps = []
    rps = []
    for i in range(n):
        order = [j for _, j in sorted((-scores[i, j], j) for j in range(m))]
        rel_sorted = [relevant[i, j] for j in order]
        best_ranks.append(1 + rel_sorted.index(True))
        r = sum(relevant[i])
        hits = 0
        ap = 0.0
        for pos in range(r):
            if rel_sorted[pos]:
                hits += 1
                ap += hits / (pos + 1)
        maps.append(ap / r)
        rps.append(hits / r)
    best_ranks = np.array(best_ranks)
    out = {
        "r1": 100.0 * (best_ranks <= 1).mean(),
        "r5": 100.0 * (best_ranks <= 5).mean(),
        "r10": 100.0 * (best_ranks <= 10).mean(),
        "mdr": float(np.median(best_ranks)),
        "mnr": float(best_ranks.mean()),
        "map": float(np.mean(maps)),
        "rp": float(np.mean(rps)),
    }
    return out


class TestRetrievalEval:
    def test_perfect_retrieval(self):
        s = SimilarityMatrix(np.eye(5))
        scores = retrieval_eval(s, RelevanceLabels.diagonal(5))
        assert scores["r_at"]["1"] == 100.0
        assert scores["median_rank"] == 1.0
        assert scores["mean_rank"] == 1.0
        assert scores["map_at_r"] == 1.0
        assert scores["r_precision"] == 1.0
        assert scores["rsum"] == 300.0

    def test_reversed_ranking(self):
        # every query ranks its mate dead last
        n = 10
        s = np.full((n, n), 0.5)
        for i in range(n):
            s[i, i] = -1.0
        out = retrieval_eval(SimilarityMatrix(s), RelevanceLabels.diagonal(n))
        assert out["mean_rank"] == 10.0
        assert out["median_rank"] == 10.0
        assert out["r_at"]["1"] == 0.0

    @pytest.mark.parametrize("grid", ["normal", "ties", "rectangular", "full-row",
                                      "below-top-10", "ties-below-top-10",
                                      "r-above-10", "m-below-10"])
    def test_against_exhaustive_oracle_multipositive(self, grid, rng):
        # retrieval_eval keeps max(R, 10) columns per row: ranks inside them
        # are read off that top-k, ranks below them are counted
        n, m = {"rectangular": (30, 70), "m-below-10": (15, 6)}.get(grid, (50, 50))
        if grid.startswith("ties"):
            # integer scores tie often, so the lower-index rule decides ranks
            scores = rng.integers(-3, 4, size=(n, m)).astype(float)
        else:
            scores = rng.normal(size=(n, m))
        mask = rng.uniform(size=(n, m)) < 0.08
        mask[np.arange(n), np.arange(n) % m] = True
        if grid == "full-row":
            # R = m for this row, so the top-R block is a full sort
            mask[3] = True
        if grid == "r-above-10":
            mask[:10] |= rng.uniform(size=(10, m)) < 0.4
            assert mask.sum(axis=1).max() > 10
        if grid.endswith("below-top-10"):
            # half the rows keep relevant items only among their lowest scores
            for i in range(0, n, 2):
                low = np.argsort(scores[i], kind="stable")[:m - 15]
                mask[i] = False
                mask[i, rng.choice(low, size=rng.integers(1, 4), replace=False)] = True
        labels = RelevanceLabels.from_mask(mask)
        got = retrieval_eval(SimilarityMatrix(scores), labels)
        oracle = brute_force_retrieval(scores, mask)
        assert got["r_at"] == {"1": oracle["r1"], "5": oracle["r5"], "10": oracle["r10"]}
        assert got["median_rank"] == oracle["mdr"]
        assert got["mean_rank"] == oracle["mnr"]
        assert got["map_at_r"] == pytest.approx(oracle["map"], abs=1e-12)
        assert got["r_precision"] == pytest.approx(oracle["rp"], abs=1e-12)

    def test_counted_rank_breaks_ties_to_the_lower_column(self):
        # 12 columns score 5, so the top 10 holds none of the relevant ones
        row = np.zeros(30)
        row[:12] = 5.0
        row[[14, 17, 20, 25]] = 2.0
        row[22] = 3.0
        scores = np.tile(row, (4, 1))
        pairs = [[0, 17], [0, 25],   # best 17: ties at 14 above it, 20 and 25 below
                 [1, 11],            # a score-5 column outside the top 10
                 [2, 25], [2, 3],    # a top-10 column: read off the top-k
                 [3, 29], [3, 20]]   # best 20, above the zero at 29
        labels = RelevanceLabels.from_pairs(pairs, (4, 30))
        mask = labels.matrix
        got = retrieval_eval(SimilarityMatrix(scores), labels)
        oracle = brute_force_retrieval(scores, mask)
        assert got["mean_rank"] == oracle["mnr"] == (15 + 12 + 4 + 16) / 4
        assert got["median_rank"] == oracle["mdr"]

    def test_blocks_against_exhaustive_oracle(self, monkeypatch, rng):
        # CosineBlocks of 4-row blocks: labels are read a block of rows at a time
        monkeypatch.setattr(hublab.core, "BLOCK_ROWS", 4)
        s = CosineBlocks(random_unit_rows(rng, 30, 6), random_unit_rows(rng, 40, 6))
        scores = np.concatenate([block.copy() for _, block in s.blocks()])
        mask = rng.uniform(size=(30, 40)) < 0.1
        mask[np.arange(30), np.arange(30)] = True
        mask[7] |= rng.uniform(size=40) < 0.5
        width = max(mask.sum(axis=1).max(), 10)
        tops = []

        def each_block(rows, block, top):
            # rows tells the callback which query rows the block holds
            assert (block == scores[rows]).all()
            order = np.argsort(-block, axis=1, kind="stable")
            tops.append(top.shape[1] == width and (top == order[:, :width]).all())

        got = retrieval_eval(s, RelevanceLabels.from_mask(mask), each_block)
        assert tops == [True] * 7
        oracle = brute_force_retrieval(scores, mask)
        assert got["r_at"] == {"1": oracle["r1"], "5": oracle["r5"], "10": oracle["r10"]}
        assert got["mean_rank"] == oracle["mnr"]
        assert got["map_at_r"] == pytest.approx(oracle["map"], abs=1e-12)
        assert got["r_precision"] == pytest.approx(oracle["rp"], abs=1e-12)

    def test_recalls_nondecreasing_and_rsum(self, rng):
        scores = rng.normal(size=(30, 40))
        mask = np.zeros((30, 40), dtype=bool)
        mask[np.arange(30), rng.integers(0, 40, size=30)] = True
        got = retrieval_eval(SimilarityMatrix(scores), RelevanceLabels.from_mask(mask))
        assert got["r_at"]["1"] <= got["r_at"]["5"] <= got["r_at"]["10"]
        assert got["rsum"] == pytest.approx(sum(got["r_at"].values()))

    def test_no_relevant_raises(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(NoRelevant):
            retrieval_eval(SimilarityMatrix(np.zeros((2, 3))),
                           RelevanceLabels.from_mask(mask))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            retrieval_eval(SimilarityMatrix(np.zeros((2, 3))),
                           RelevanceLabels.diagonal(2))


class TestRelevanceLabels:
    def test_from_pairs_counts_a_repeated_pair_once(self):
        pairs = [[2, 1], [0, 3], [2, 1], [0, 0], [0, 3]]
        labels = RelevanceLabels.from_pairs(pairs, (3, 4))
        # keys row * 4 + column of (0, 0), (0, 3) and (2, 1)
        np.testing.assert_array_equal(labels.keys, [0, 3, 9])
        assert labels.to_pairs() == [[0, 0], [0, 3], [2, 1]]
        expected = np.zeros((3, 4), dtype=bool)
        expected[[2, 0, 0], [1, 3, 0]] = True
        np.testing.assert_array_equal(labels.matrix, expected)

    def test_mask_round_trip_and_diagonal(self, rng):
        mask = rng.uniform(size=(9, 7)) < 0.3
        labels = RelevanceLabels.from_mask(mask)
        np.testing.assert_array_equal(labels.matrix, mask)
        assert labels.to_pairs() == np.argwhere(mask).tolist()
        again = RelevanceLabels.from_pairs(labels.to_pairs(), (9, 7))
        np.testing.assert_array_equal(again.keys, labels.keys)
        np.testing.assert_array_equal(RelevanceLabels.diagonal(5).matrix,
                                      np.eye(5, dtype=bool))

    def test_good_bad_occurrence_against_mask_oracle(self, rng):
        # pairs drawn with repeats, and seven of them listed twice
        scores = rng.normal(size=(20, 25))
        pairs = [[i, int(j)] for i in range(20) for j in rng.choice(25, size=3)]
        labels = RelevanceLabels.from_pairs(pairs + pairs[:7], (20, 25))
        good, bad = good_bad_occurrence(SimilarityMatrix(scores), 6, labels)
        mask = np.zeros((20, 25), dtype=bool)
        mask[tuple(np.array(pairs).T)] = True
        top = np.argsort(-scores, axis=1, kind="stable")[:, :6]
        relevant = np.take_along_axis(mask, top, axis=1)
        np.testing.assert_array_equal(good, np.bincount(top[relevant], minlength=25))
        np.testing.assert_array_equal(bad, np.bincount(top[~relevant], minlength=25))

    def test_good_bad_occurrence_reads_blocks(self, monkeypatch, rng):
        # 5 blocks of 4 query rows, against the dense matrix and the mask oracle
        monkeypatch.setattr(hublab.core, "BLOCK_ROWS", 4)
        s = CosineBlocks(random_unit_rows(rng, 20, 6), random_unit_rows(rng, 25, 6))
        assert len(hublab.core.row_blocks(s.n)) >= 3
        scores = np.concatenate([block.copy() for _, block in s.blocks()])
        mask = rng.uniform(size=(20, 25)) < 0.2
        labels = RelevanceLabels.from_mask(mask)
        good, bad = good_bad_occurrence(s, 6, labels)
        dense = good_bad_occurrence(SimilarityMatrix(scores), 6, labels)
        np.testing.assert_array_equal(good, dense[0])
        np.testing.assert_array_equal(bad, dense[1])
        top = np.argsort(-scores, axis=1, kind="stable")[:, :6]
        relevant = np.take_along_axis(mask, top, axis=1)
        np.testing.assert_array_equal(good, np.bincount(top[relevant], minlength=25))
        np.testing.assert_array_equal(bad, np.bincount(top[~relevant], minlength=25))

    @pytest.mark.parametrize("keys", [[3, 1], [1, 1], [-1, 2], [0, 12], [[0, 1]],
                                      [0.0, 1.0]])
    def test_constructor_rejects_malformed_keys(self, keys):
        # descending, repeated, negative, outside the 3x4 grid, 2-D, not integers
        with pytest.raises(ValueError):
            RelevanceLabels(np.array(keys), (3, 4))

    def test_constructor_rejects_a_negative_grid(self):
        with pytest.raises(ValueError, match=r"grid dimensions must be >= 0, got \(-2, 3\)"):
            RelevanceLabels(np.zeros(0, dtype=np.int64), (-2, 3))
        with pytest.raises(ValueError, match="must be >= 0"):
            RelevanceLabels.from_pairs([], (3, -1))

    def test_contains_on_rows_out_of_order_agrees_with_matrix(self, rng):
        mask = rng.uniform(size=(12, 9)) < 0.3
        labels = RelevanceLabels.from_mask(mask)
        rows = np.array([7, 0, 11, 7, 3])
        columns = rng.integers(0, 9, size=(5, 6))
        np.testing.assert_array_equal(labels.contains(rows, columns),
                                      labels.matrix[rows[:, None], columns])
        empty = RelevanceLabels(np.zeros(0, dtype=np.int64), (12, 9))
        assert not empty.contains(rows, columns).any()

    def test_counts_on_rows_without_labels(self):
        # rows 0, 2, 3 and 5 have no label, the first and the last among them
        labels = RelevanceLabels.from_pairs([[1, 0], [1, 4], [4, 2]], (6, 5))
        np.testing.assert_array_equal(labels.counts(), [0, 2, 0, 0, 1, 0])
        np.testing.assert_array_equal(RelevanceLabels.from_pairs([], (3, 2)).counts(),
                                      [0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_pairs_round_trip_against_mask_oracle(self, shape, data):
        # repeated pairs and rows without any pair, both drawn
        pair = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
        pairs = data.draw(st.lists(pair, max_size=20))
        mask = np.zeros(shape, dtype=bool)
        for i, j in pairs:
            mask[i, j] = True
        labels = RelevanceLabels.from_pairs([list(p) for p in pairs], shape)
        assert labels.to_pairs() == np.argwhere(mask).tolist()
        np.testing.assert_array_equal(labels.matrix, mask)
        np.testing.assert_array_equal(labels.counts(), mask.sum(axis=1))


class TestInferSimiCent:
    def test_zero_centrality_keeps_rankings(self, rng):
        # bank vector orthogonal to every gallery item: centrality is 0
        basis = np.zeros((1, 8))
        basis[0, 7] = 1.0
        gal = random_unit_rows(rng, 6, 8)
        gal[:, 7] = 0.0
        gal = gal / np.linalg.norm(gal, axis=1, keepdims=True)
        g = EmbeddingSet(gal, "gallery")
        bank = MemoryBank(4, 8)
        push_batch(bank, EmbeddingSet(basis, "gallery"))
        s = SimilarityMatrix(rng.normal(size=(5, 6)))
        out = infer_simi_cent(s, g, bank)
        np.testing.assert_allclose(out.scores, s.scores, atol=1e-12)

    def test_constant_centrality_keeps_rankings(self, rng):
        # identical gallery items in the bank shift every column equally
        direction = random_unit_rows(rng, 1, 5)
        g = EmbeddingSet(np.tile(direction, (4, 1)), "gallery")
        bank = MemoryBank(8, 5)
        push_batch(bank, EmbeddingSet(random_unit_rows(rng, 3, 5), "gallery"))
        s = SimilarityMatrix(rng.normal(size=(6, 4)))
        out = infer_simi_cent(s, g, bank)
        np.testing.assert_allclose(
            np.argsort(-out.scores, axis=1), np.argsort(-s.scores, axis=1))

    def test_subtracts_column_centrality(self, rng):
        g = EmbeddingSet(random_unit_rows(rng, 5, 6), "gallery")
        stored = random_unit_rows(rng, 7, 6)
        bank = MemoryBank(16, 6)
        push_batch(bank, EmbeddingSet(stored, "gallery"))
        s = SimilarityMatrix(rng.normal(size=(3, 5)))
        out = infer_simi_cent(s, g, bank)
        expected = s.scores - (g.data @ stored.T).mean(axis=1)[None, :]
        np.testing.assert_allclose(out.scores, expected, atol=1e-12)

    def test_empty_bank_raises(self, rng):
        g = EmbeddingSet(random_unit_rows(rng, 3, 4), "gallery")
        bank = MemoryBank(4, 4)
        push_batch(bank, EmbeddingSet(random_unit_rows(rng, 2, 4), "query"))
        with pytest.raises(EmptyBank):
            infer_simi_cent(SimilarityMatrix(np.zeros((2, 3))), g, bank)
