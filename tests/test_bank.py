import numpy as np
import pytest

from hublab import (
    EmbeddingSet,
    MemoryBank,
    centrality_weights,
    cross_centrality,
    intra_centrality,
    push_batch,
)
from hublab.errors import BatchTooLarge, EmptyBank, NonPositiveKappa

from conftest import random_unit_rows


def _unit_batch(rng, n, d, modality="query"):
    return EmbeddingSet(random_unit_rows(rng, n, d), modality)


class TestFifo:
    def test_push_into_empty(self, rng):
        bank = MemoryBank(8, 4)
        push_batch(bank, _unit_batch(rng, 3, 4))
        assert bank.fill("query") == 3 and bank.fill("gallery") == 0

    def test_capacity_four_two_pushes_of_three(self, rng):
        bank = MemoryBank(4, 4)
        first = _unit_batch(rng, 3, 4)
        second = _unit_batch(rng, 3, 4)
        push_batch(bank, first)
        push_batch(bank, second)
        assert bank.fill("query") == 4
        expected = np.vstack([first.data[-1:], second.data])
        np.testing.assert_array_equal(bank.vectors("query"), expected)

    def test_ten_pushes_against_list_slicing_oracle(self, rng):
        bank = MemoryBank(6, 3)
        everything = []
        for _ in range(10):
            batch = _unit_batch(rng, 2, 3)
            everything.extend(batch.data)
            push_batch(bank, batch)
        oracle = np.array(everything[-6:])
        np.testing.assert_array_equal(bank.vectors("query"), oracle)

    def test_modalities_are_independent(self, rng):
        bank = MemoryBank(4, 3)
        push_batch(bank, _unit_batch(rng, 2, 3, "query"))
        push_batch(bank, _unit_batch(rng, 3, 3, "gallery"))
        assert bank.fill("query") == 2 and bank.fill("gallery") == 3

    def test_batch_too_large(self, rng):
        bank = MemoryBank(2, 3)
        with pytest.raises(BatchTooLarge):
            push_batch(bank, _unit_batch(rng, 3, 3))

    def test_rejects_unnormalized(self):
        bank = MemoryBank(4, 2)
        with pytest.raises(ValueError):
            push_batch(bank, EmbeddingSet([[3.0, 4.0]]))

    def test_snapshot_detached_from_caller(self, rng):
        bank = MemoryBank(4, 3)
        batch = _unit_batch(rng, 2, 3)
        push_batch(bank, batch)
        before = bank.vectors("query").copy()
        batch.data[:] = 0.0
        np.testing.assert_array_equal(bank.vectors("query"), before)


class TestCentrality:
    def test_self_similarity_one(self):
        bank = MemoryBank(4, 2)
        v = EmbeddingSet([[1.0, 0.0]])
        push_batch(bank, v)
        assert intra_centrality(bank, v)[0] == pytest.approx(1.0)

    def test_cancellation(self):
        bank = MemoryBank(4, 2)
        push_batch(bank, EmbeddingSet([[1.0, 0.0], [-1.0, 0.0]]))
        c = intra_centrality(bank, EmbeddingSet([[1.0, 0.0]]))
        assert c[0] == pytest.approx(0.0, abs=1e-15)

    def test_against_brute_force_oracle(self, rng):
        bank = MemoryBank(64, 5)
        stored = random_unit_rows(rng, 50, 5)
        push_batch(bank, EmbeddingSet(stored))
        samples = EmbeddingSet(random_unit_rows(rng, 5, 5))
        got = intra_centrality(bank, samples)
        for i in range(5):
            total = 0.0
            for j in range(50):
                total += float(samples.data[i] @ stored[j])
            assert abs(got[i] - total / 50) < 1e-12

    def test_cross_uses_opposite_queue(self, rng):
        bank = MemoryBank(16, 3)
        gallery_vecs = random_unit_rows(rng, 4, 3)
        push_batch(bank, EmbeddingSet(gallery_vecs, "gallery"))
        sample = EmbeddingSet(gallery_vecs[:1], "query")
        c = cross_centrality(bank, sample)
        oracle = np.mean([sample.data[0] @ v for v in gallery_vecs])
        assert c[0] == pytest.approx(oracle, abs=1e-12)

    def test_cross_identical_vector(self):
        bank = MemoryBank(4, 2)
        y = EmbeddingSet([[0.0, 1.0]], "gallery")
        push_batch(bank, y)
        x = EmbeddingSet([[0.0, 1.0]], "query")
        assert cross_centrality(bank, x)[0] == pytest.approx(1.0)

    def test_cross_orthogonal(self):
        bank = MemoryBank(4, 2)
        push_batch(bank, EmbeddingSet([[0.0, 1.0]], "gallery"))
        c = cross_centrality(bank, EmbeddingSet([[1.0, 0.0]], "query"))
        assert c[0] == pytest.approx(0.0, abs=1e-15)

    def test_empty_bank_raises(self):
        bank = MemoryBank(4, 2)
        with pytest.raises(EmptyBank):
            intra_centrality(bank, EmbeddingSet([[1.0, 0.0]]))

    def test_values_bounded(self, rng):
        bank = MemoryBank(32, 6)
        push_batch(bank, _unit_batch(rng, 20, 6))
        c = intra_centrality(bank, _unit_batch(rng, 10, 6))
        assert c.min() >= -1.0 and c.max() <= 1.0

    def test_duplicate_push_cannot_decrease_self_centrality(self, rng):
        x = EmbeddingSet(random_unit_rows(rng, 1, 4))
        bank = MemoryBank(16, 4)
        push_batch(bank, _unit_batch(rng, 5, 4))
        before = intra_centrality(bank, x)[0]
        push_batch(bank, x)
        after = intra_centrality(bank, x)[0]
        assert after >= before - 1e-12


class TestWeights:
    """Weights exp(C_i / kappa), normalized to batch mean 1."""

    def test_zero_centrality_gives_unit_weights(self):
        np.testing.assert_allclose(centrality_weights(np.zeros(3), 1.0),
                                   [1.0, 1.0, 1.0])

    def test_closed_form_ratio(self, rng):
        c = rng.uniform(-1, 1, size=6)
        w = centrality_weights(c, 0.3)
        np.testing.assert_allclose(w[:, None] / w[None, :],
                                   np.exp((c[:, None] - c[None, :]) / 0.3), rtol=1e-12)

    def test_normalized_pair_against_scalar_oracle(self):
        w = centrality_weights(np.array([0.5, -0.5]), 0.25)
        raw = np.array([np.exp(2.0), np.exp(-2.0)])
        np.testing.assert_allclose(w, raw / raw.mean(), atol=1e-12)
        assert w.mean() == pytest.approx(1.0)

    def test_monotone_in_centrality_and_kappa(self):
        grid = np.linspace(0.05, 0.9, 12)
        w = centrality_weights(grid, 0.3)
        assert np.all(np.diff(w) > 0)
        # against a zero-centrality partner, a central sample's share
        # shrinks as kappa grows
        for c in grid:
            pair = np.array([c, 0.0])
            small = centrality_weights(pair, 0.2)[0]
            large = centrality_weights(pair, 0.4)[0]
            assert small > large

    def test_kappa_must_be_positive(self):
        with pytest.raises(NonPositiveKappa):
            centrality_weights(np.zeros(1), 0.0)
