import numpy as np
import pytest

from hublab import TokenSet, cluster_assignments, dpc_knn_merge, wti_similarity
from hublab.errors import OutOfRange, ShapeMismatch

class TestWti:
    def test_identical_single_tokens(self):
        v = TokenSet([[0.0, 1.0]])
        t = TokenSet([[0.0, 1.0]])
        assert wti_similarity(v, t) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_single_tokens(self):
        assert wti_similarity(TokenSet([[1.0, 0.0]]),
                              TokenSet([[0.0, 1.0]])) == pytest.approx(0.0, abs=1e-15)

    def test_single_tokens_reduce_to_cosine(self, rng):
        a = rng.normal(size=(1, 6))
        b = rng.normal(size=(1, 6))
        expected = float(a[0] @ b[0]) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert wti_similarity(TokenSet(a), TokenSet(b)) == pytest.approx(
            expected, abs=1e-12)

    def test_hand_evaluated_three_by_two(self):
        # orthonormal axes make the alignment matrix explicit
        v = TokenSet(np.eye(4)[:3], weights=[0.5, 0.3, 0.2])
        t = TokenSet(np.eye(4)[[0, 3]], weights=[0.9, 0.1])
        # alignments: v0.t0 = 1, all other pairs 0
        # v side: 0.5 * 1 + 0.3 * 0 + 0.2 * 0 = 0.5
        # t side: 0.9 * 1 + 0.1 * 0 = 0.9
        assert wti_similarity(v, t) == pytest.approx(0.5 * (0.5 + 0.9), abs=1e-12)

    def test_symmetric_under_swap(self, rng):
        v = TokenSet(rng.normal(size=(4, 5)), weights=[0.1, 0.2, 0.3, 0.4])
        t = TokenSet(rng.normal(size=(3, 5)))
        assert wti_similarity(v, t) == pytest.approx(wti_similarity(t, v), abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(10):
            v = TokenSet(rng.normal(size=(3, 4)))
            t = TokenSet(rng.normal(size=(5, 4)))
            assert -1.0 <= wti_similarity(v, t) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch, match="token dims differ: 3 vs 4"):
            wti_similarity(TokenSet(np.ones((2, 3))), TokenSet(np.ones((2, 4))))


class TestTokenSet:
    def test_uniform_default_weights(self):
        ts = TokenSet(np.ones((4, 2)))
        np.testing.assert_allclose(ts.weights, 0.25)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TokenSet(np.ones((2, 2)), weights=[0.7, 0.7])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            TokenSet(np.ones((2, 2)), weights=[1.5, -0.5])


class TestDpcKnnMerge:
    def test_identity_when_c_equals_n(self, rng):
        tokens = TokenSet(rng.normal(size=(5, 3)), weights=[0.1, 0.2, 0.3, 0.2, 0.2])
        out = dpc_knn_merge(tokens, 5)
        np.testing.assert_array_equal(out.tokens, tokens.tokens)
        np.testing.assert_array_equal(out.weights, tokens.weights)

    def test_single_cluster_weighted_mean(self, rng):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        tokens = TokenSet(rng.normal(size=(4, 3)), weights=w)
        out = dpc_knn_merge(tokens, 1)
        np.testing.assert_allclose(out.tokens[0], w @ tokens.tokens, atol=1e-12)
        np.testing.assert_allclose(out.weights, [1.0])

    def test_two_blob_recovery_against_exhaustive_oracle(self, rng):
        a = rng.normal(size=(6, 2)) * 0.2 + np.array([5.0, 0.0])
        b = rng.normal(size=(5, 2)) * 0.2 + np.array([-5.0, 0.0])
        points = np.vstack([a, b])
        tokens = TokenSet(points)
        assignment = cluster_assignments(tokens, 2, k_density=3)
        membership = np.array([0] * 6 + [1] * 5)
        # cluster ids may swap: compare partitions
        same = assignment[:, None] == assignment[None, :]
        expected = membership[:, None] == membership[None, :]
        np.testing.assert_array_equal(same, expected)

    def test_merged_tokens_are_blob_means(self, rng):
        a = rng.normal(size=(4, 3)) * 0.1 + np.array([3.0, 0.0, 0.0])
        b = rng.normal(size=(4, 3)) * 0.1 + np.array([-3.0, 0.0, 0.0])
        tokens = TokenSet(np.vstack([a, b]))
        out = dpc_knn_merge(tokens, 2, k_density=2)
        got = sorted(out.tokens[:, 0].tolist())
        expected = sorted([a.mean(axis=0)[0], b.mean(axis=0)[0]])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert out.weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(out.weights, 0.5, atol=1e-12)

    def test_output_count_and_weight_sum(self, rng):
        tokens = TokenSet(rng.normal(size=(12, 4)))
        for c in (1, 3, 7, 12):
            out = dpc_knn_merge(tokens, c)
            assert out.n == c
            assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariant_assignments(self, rng):
        tokens = TokenSet(rng.normal(size=(10, 3)))
        base = cluster_assignments(tokens, 3, k_density=3)
        perm = rng.permutation(10)
        permuted = TokenSet(tokens.tokens[perm])
        shuffled = cluster_assignments(permuted, 3, k_density=3)
        # partitions must match after undoing the permutation
        same = shuffled[:, None] == shuffled[None, :]
        expected = base[perm][:, None] == base[perm][None, :]
        np.testing.assert_array_equal(same, expected)

    def test_invalid_cluster_count(self, rng):
        tokens = TokenSet(rng.normal(size=(4, 2)))
        for c in (0, 5):
            with pytest.raises(OutOfRange, match=r"cluster count \d not in \[1, 4\]"):
                dpc_knn_merge(tokens, c)

    def test_high_level_single_token_path(self, rng):
        # merging both sides to one token and scoring with the token kernel
        # equals the cosine of the weighted means
        v = TokenSet(rng.normal(size=(6, 4)))
        t = TokenSet(rng.normal(size=(5, 4)))
        hv = dpc_knn_merge(v, 1)
        ht = dpc_knn_merge(t, 1)
        mv = v.weights @ v.tokens
        mt = t.weights @ t.tokens
        expected = float(mv @ mt) / float(np.linalg.norm(mv) * np.linalg.norm(mt))
        assert wti_similarity(hv, ht) == pytest.approx(expected, abs=1e-12)
