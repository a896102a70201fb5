import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab import (
    CosineBlocks,
    EmbeddingSet,
    SimilarityMatrix,
    cosine_similarity_matrix,
    l2_normalize,
)
from hublab.core import row_softmax
from hublab.errors import ShapeMismatch, ZeroVector

from conftest import random_unit_rows


class TestL2Normalize:
    def test_three_four_five(self):
        e = l2_normalize(EmbeddingSet([[3.0, 4.0]]))
        np.testing.assert_allclose(e.data, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self, rng):
        e = EmbeddingSet(rng.normal(size=(7, 5)))
        once = l2_normalize(e)
        twice = l2_normalize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)

    def test_row_norms_against_direct_computation(self, rng):
        e = l2_normalize(EmbeddingSet(rng.normal(size=(5, 8))))
        for row in e.data:
            assert abs(np.sqrt(sum(v * v for v in row)) - 1.0) < 1e-9

    def test_zero_row_raises_with_index(self):
        data = np.ones((3, 4))
        data[1] = 0.0
        with pytest.raises(ZeroVector) as exc:
            l2_normalize(EmbeddingSet(data))
        assert exc.value.row == 1

    def test_preserves_metadata(self):
        e = EmbeddingSet([[2.0, 0.0]], "gallery", ids=["a"], labels=[3])
        out = l2_normalize(e)
        assert out.modality == "gallery" and out.ids == ["a"] and out.labels == [3]


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        e = EmbeddingSet([[1.0, 0.0]])
        s = cosine_similarity_matrix(e, e)
        np.testing.assert_allclose(s.scores, [[1.0]])

    def test_orthogonal_pair(self):
        q = EmbeddingSet([[1.0, 0.0]])
        g = EmbeddingSet([[0.0, 1.0]], "gallery")
        assert cosine_similarity_matrix(q, g).scores[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_against_scalar_loop_oracle(self, rng):
        q = EmbeddingSet(rng.normal(size=(4, 3)))
        g = EmbeddingSet(rng.normal(size=(5, 3)), "gallery")
        s = cosine_similarity_matrix(q, g)
        for i in range(4):
            for j in range(5):
                num = sum(q.data[i, t] * g.data[j, t] for t in range(3))
                den = np.sqrt(sum(v * v for v in q.data[i]))
                den *= np.sqrt(sum(v * v for v in g.data[j]))
                assert abs(s.scores[i, j] - num / den) < 1e-12

    def test_transpose_symmetry(self, rng):
        q = EmbeddingSet(rng.normal(size=(6, 4)))
        g = EmbeddingSet(rng.normal(size=(3, 4)), "gallery")
        np.testing.assert_allclose(
            cosine_similarity_matrix(q, g).scores.T,
            cosine_similarity_matrix(g, q).scores, atol=1e-12)

    def test_dimension_mismatch(self):
        q = EmbeddingSet(np.ones((2, 3)))
        g = EmbeddingSet(np.ones((2, 4)), "gallery")
        with pytest.raises(ShapeMismatch, match="query dim 3 != gallery dim 4"):
            cosine_similarity_matrix(q, g)

    def test_unit_inputs_bounded(self, rng):
        q = EmbeddingSet(random_unit_rows(rng, 20, 16))
        g = EmbeddingSet(random_unit_rows(rng, 30, 16), "gallery")
        s = cosine_similarity_matrix(q, g).scores
        assert s.min() >= -1 - 1e-9 and s.max() <= 1 + 1e-9


class TestSoftmaxRow:
    def test_uniform_row(self):
        np.testing.assert_allclose(row_softmax(np.full((2, 4), 0.7)),
                                   np.full((2, 4), 0.25), atol=1e-15)

    def test_two_entry_closed_form(self):
        e = np.e
        np.testing.assert_allclose(
            row_softmax(np.array([[1.0, 0.0]])), [[e / (e + 1), 1 / (e + 1)]], atol=1e-15)

    def test_shift_invariance_large_offset(self, rng):
        row = rng.normal(size=(1, 6))
        np.testing.assert_allclose(row_softmax(row), row_softmax(row + 1000.0), atol=1e-12)

    def test_temperature_scaling(self):
        np.testing.assert_allclose(row_softmax(np.array([[2.0, 0.0]]), temperature=2.0),
                                   row_softmax(np.array([[1.0, 0.0]])), atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        base = row_softmax(np.array([row]))
        assert abs(base.sum() - 1.0) < 1e-12
        shifted = row_softmax(np.array([[v + shift for v in row]]))
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSet([[np.nan, 1.0]])
        with pytest.raises(ValueError):
            SimilarityMatrix([[np.inf]])
        # at construction, before any block is scored
        bad = np.array([[np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            CosineBlocks(bad, np.eye(2))
        with pytest.raises(ValueError):
            CosineBlocks(np.eye(2), bad)

    def test_bad_modality(self):
        with pytest.raises(ValueError):
            EmbeddingSet([[1.0]], "audio")

    def test_non_positive_temperature(self):
        with pytest.raises(ValueError):
            SimilarityMatrix([[0.0]], temperature=0.0)

    def test_float64_accumulation(self):
        e = EmbeddingSet(np.ones((2, 2), dtype=np.float32))
        assert e.data.dtype == np.float64
