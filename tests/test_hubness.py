import inspect

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hublab import (
    EmbeddingSet,
    SimilarityMatrix,
    TrainConfig,
    antihub_occurrence,
    atkinson,
    good_bad_occurrence,
    hub_occurrence,
    hubness_report,
    k_occurrence,
    pseudo_positive_probe,
    robin_hood,
    skewness,
    truncated_skewness,
)
from hublab.hubness import (
    ATKINSON_EPSILON,
    HUB_SIZE_FACTOR,
    PRUNE_COLUMNS_PER_K,
    KOccurrence,
    RelevanceLabels,
    top_k_indices,
)
from hublab.errors import DegenerateDistribution, OutOfRange, ShapeMismatch

from conftest import random_unit_rows


def brute_force_topk(scores, k):
    """Per-row sorted-pairs oracle, ties to lower column index."""
    out = []
    for row in scores:
        pairs = sorted((-v, j) for j, v in enumerate(row))
        out.append([j for _, j in pairs[:k]])
    return np.array(out)


def occ(counts, k=None, n_queries=None):
    counts = np.asarray(counts)
    if k is None:
        k = 1
    if n_queries is None:
        n_queries = int(counts.sum()) // k
    return KOccurrence(counts, k, n_queries)


class TestKOccurrence:
    def test_identity_matching(self):
        s = SimilarityMatrix(np.eye(3))
        got = k_occurrence(s, 1)
        np.testing.assert_array_equal(got.counts, [1, 1, 1])

    def test_total_hub(self):
        scores = np.zeros((5, 4))
        scores[:, 0] = 1.0
        got = k_occurrence(SimilarityMatrix(scores), 1)
        np.testing.assert_array_equal(got.counts, [5, 0, 0, 0])

    def test_against_sort_oracle(self, rng):
        scores = rng.normal(size=(40, 40))
        got = k_occurrence(SimilarityMatrix(scores), 5)
        top = brute_force_topk(scores, 5)
        expected = np.zeros(40, dtype=int)
        for row in top:
            for j in row:
                expected[j] += 1
        np.testing.assert_array_equal(got.counts, expected)

    def test_counts_sum_to_nk(self, rng):
        scores = rng.normal(size=(17, 23))
        got = k_occurrence(SimilarityMatrix(scores), 7)
        assert got.counts.sum() == 17 * 7

    def test_k_too_large(self):
        with pytest.raises(OutOfRange, match="k=4 exceeds gallery size 3"):
            k_occurrence(SimilarityMatrix(np.zeros((2, 3))), 4)

    # small integer values, so most rows tie, including -0.0 against 0.0;
    # the stable sort puts NaN last, behind -inf
    @given(st.one_of(
        arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
               elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])),
        arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
               elements=st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan]))))
    @settings(max_examples=600, deadline=None)
    def test_top_k_equals_stable_argsort(self, scores):
        reference = np.argsort(-scores, axis=1, kind="stable")
        for k in range(scores.shape[1] + 1):
            got = top_k_indices(scores, k)
            assert got.shape == (scores.shape[0], k)
            np.testing.assert_array_equal(got, reference[:, :k])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            top_k_indices(np.eye(4), -1)
        assert top_k_indices(np.eye(4), 0).shape == (4, 0)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=(20, 20))
        a = k_occurrence(SimilarityMatrix(scores), 4).counts
        b = k_occurrence(SimilarityMatrix(2.0 * scores + 3.0), 4).counts
        np.testing.assert_array_equal(a, b)


@st.composite
def wide_rows(draw):
    """1-4 rows of 64-600 columns and a k with m >= PRUNE_COLUMNS_PER_K * k.

    Each row holds k to 3k spikes from a small set of values over a lower
    background, so the k-th score ties inside a group, across groups and at
    a group maximum. Half the spikes land in the first four groups of a
    width-8 split, so one group often holds several of them.
    """
    k = draw(st.integers(1, 600 // PRUNE_COLUMNS_PER_K))
    m = draw(st.integers(PRUNE_COLUMNS_PER_K * k, 600))
    n = draw(st.integers(1, 4))
    g = m // 8
    column = st.one_of(st.integers(0, m - 1),
                       st.builds(lambda j, i: min(i * g + j, m - 1),
                                 st.integers(0, 3), st.integers(0, 8)))
    spike = st.tuples(column, st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan]))
    scores = np.empty((n, m))
    for row in scores:
        row[:] = draw(st.sampled_from([-np.inf, -1.0, -0.0]))
        for j, v in draw(st.lists(spike, min_size=k, max_size=3 * k)):
            row[j] = v
    return scores, k


class TestPrunedTopK:
    @given(wide_rows())
    @settings(max_examples=400, deadline=None)
    def test_equals_stable_argsort(self, drawn):
        scores, k = drawn
        reference = np.argsort(-scores, axis=1, kind="stable")
        for j in range(1, k + 1):
            np.testing.assert_array_equal(top_k_indices(scores, j), reference[:, :j])

    @pytest.mark.parametrize("m, k, prunes", [(3000, 15, True), (3000, 10, True),
                                              (1152, 21, False), (512, 15, False),
                                              (128, 15, False)])
    def test_gate(self, partition_shapes, rng, m, k, prunes):
        scores = rng.normal(size=(3, m))
        np.testing.assert_array_equal(top_k_indices(scores, k),
                                      np.argsort(-scores, axis=1, kind="stable")[:, :k])
        assert partition_shapes == [(3, 8 * k if prunes else m)]

    def test_tied_rows_prune_or_fall_back(self, partition_shapes):
        # m = 203: 25 groups of 8 columns, columns 200-202 in no group; k = 3
        scores = np.zeros((6, 203))
        scores[0, [1, 4, 29, 7]] = [5, 3, 3, 2]  # the k-th score ties inside group 4
        scores[1, [2, 5, 9, 30]] = 4  # group maxima tie at t, group 5 twice
        scores[2, [0, 201, 26, 52]] = [5, 5, 1, 2]  # a column past the groups ties the best
        scores[3, [3, 6]] = [7, -1]  # t is the background, every group reaches it
        scores[4, [1, 2, 3, 10]] = [9, 8, 7, np.nan]  # a NaN group maximum
        scores[5, [8, 9, 10, 11]] = 1  # four groups tie at t
        top = top_k_indices(scores, 3)
        np.testing.assert_array_equal(top, np.argsort(-scores, axis=1, kind="stable")[:, :3])
        np.testing.assert_array_equal(top[:3], [[1, 4, 29], [2, 5, 9], [0, 201, 52]])
        # rows 0-2 keep 3 groups of 8 plus 3 ungrouped columns; 3-5 go whole
        assert partition_shapes == [(3, 3 * 8 + 3), (3, 203)]


class TestGoodBad:
    def test_all_relevant_means_no_bad(self, rng):
        scores = rng.normal(size=(6, 6))
        labels = RelevanceLabels.from_mask(np.ones((6, 6), dtype=bool))
        good, bad = good_bad_occurrence(SimilarityMatrix(scores), 3, labels)
        assert bad.sum() == 0 and good.sum() == 18

    def test_perfect_retrieval_diagonal(self):
        s = SimilarityMatrix(np.eye(4))
        good, bad = good_bad_occurrence(s, 1, RelevanceLabels.diagonal(4))
        np.testing.assert_array_equal(good, [1, 1, 1, 1])
        np.testing.assert_array_equal(bad, [0, 0, 0, 0])

    def test_against_recount_oracle(self, rng):
        scores = rng.normal(size=(30, 30))
        mask = rng.uniform(size=(30, 30)) < 0.2
        mask[np.arange(30), np.arange(30)] = True
        labels = RelevanceLabels.from_mask(mask)
        good, bad = good_bad_occurrence(SimilarityMatrix(scores), 5, labels)
        top = brute_force_topk(scores, 5)
        eg = np.zeros(30, dtype=int)
        eb = np.zeros(30, dtype=int)
        for i, row in enumerate(top):
            for j in row:
                if mask[i, j]:
                    eg[j] += 1
                else:
                    eb[j] += 1
        np.testing.assert_array_equal(good, eg)
        np.testing.assert_array_equal(bad, eb)

    def test_split_sums_to_k_occurrence(self, rng):
        scores = rng.normal(size=(25, 18))
        mask = rng.uniform(size=(25, 18)) < 0.3
        mask[:, 0] = True
        labels = RelevanceLabels.from_mask(mask)
        s = SimilarityMatrix(scores)
        good, bad = good_bad_occurrence(s, 4, labels)
        np.testing.assert_array_equal(good + bad, k_occurrence(s, 4).counts)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            good_bad_occurrence(SimilarityMatrix(np.eye(3)), k, RelevanceLabels.diagonal(3))

    def test_missing_labels(self):
        s = SimilarityMatrix(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch, match=r"labels cover \(3, 3\), scores are \(3, 4\)"):
            good_bad_occurrence(s, 2, RelevanceLabels.diagonal(3))


class TestDistributionMetrics:
    def test_uniform_counts_zero_skew(self):
        with pytest.warns(DegenerateDistribution):
            assert skewness(occ([3, 3, 3, 3], k=3)) == 0.0

    def test_skew_against_moment_oracle(self):
        counts = [0, 0, 0, 4]
        got = skewness(occ(counts, k=1, n_queries=4))
        assert got == pytest.approx(scipy.stats.skew(counts), abs=1e-12)

    def test_skew_random_against_scipy(self, rng):
        counts = rng.integers(0, 10, size=50)
        ko = occ(counts, k=1, n_queries=int(counts.sum()))
        assert skewness(ko) == pytest.approx(scipy.stats.skew(counts), abs=1e-12)

    def test_degenerate_flagged(self):
        with pytest.warns(DegenerateDistribution):
            value = skewness(occ([2, 2], k=2))
        assert value == 0.0

    def test_truncated_drops_zeros(self, rng):
        counts = np.array([0, 0, 1, 2, 3, 0, 9, 1])
        ko = occ(counts, k=1, n_queries=int(counts.sum()))
        got = truncated_skewness(ko)
        expected = scipy.stats.skew(counts[counts > 0])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_truncated_uniform_positive_is_zero(self):
        with pytest.warns(DegenerateDistribution):
            assert truncated_skewness(occ([2, 0, 2, 2], k=2, n_queries=3)) == 0.0

    def test_truncated_single_positive_degenerate(self):
        with pytest.warns(DegenerateDistribution):
            value = truncated_skewness(occ([0, 0, 2], k=1, n_queries=2))
        assert value == 0.0

    def test_all_zero_counts_rejected(self):
        # k and n_queries of at least 1 make the counts sum to at least 1,
        # so no statistic meets all-zero counts
        for k, n_queries in ((1, 0), (0, 5)):
            with pytest.raises(ValueError, match="must be >= 1"):
                KOccurrence(np.zeros(3), k, n_queries)

    def test_truncated_all_zero_impossible_raises(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            KOccurrence(np.zeros(3), 1, 0)
        # the least mass a valid KOccurrence carries is one positive count
        with pytest.warns(DegenerateDistribution):
            assert truncated_skewness(occ([1, 0, 0], k=1, n_queries=1)) == 0.0

    def test_atkinson_uniform_is_zero(self):
        assert atkinson(occ([5, 5, 5], k=1)) == pytest.approx(0.0, abs=1e-12)

    def test_atkinson_two_point_hand_formula(self):
        k = 1
        got = atkinson(occ([0, 2 * k], k=k, n_queries=2), epsilon=0.5)
        expected = 1.0 - ((np.sqrt(2.0 * k) / 2.0) ** 2) / k
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_atkinson_monotone_in_concentration(self):
        # keep the total fixed, concentrate mass step by step
        family = [[4, 4, 4], [2, 4, 6], [1, 3, 8], [0, 2, 10]]
        values = [atkinson(occ(c, k=1, n_queries=12)) for c in family]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_atkinson_epsilon_range(self):
        with pytest.raises(ValueError):
            atkinson(occ([1, 1], k=1), epsilon=1.0)

    def test_atkinson_zero_mean(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            KOccurrence(np.zeros(3), 1, 0)
        # mean 1/3 at the least mass: A = 1 - (1/3)^2 / (1/3) = 2/3
        got = atkinson(occ([1, 0, 0], k=1, n_queries=1))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_robin_hood_uniform_zero(self):
        assert robin_hood(occ([2, 2, 2], k=2)) == 0.0

    def test_robin_hood_two_point_half(self):
        assert robin_hood(occ([0, 2], k=1, n_queries=2)) == pytest.approx(0.5)

    def test_robin_hood_against_direct_formula(self, rng):
        counts = rng.integers(0, 12, size=30)
        ko = occ(counts, k=1, n_queries=int(counts.sum()))
        mu = counts.mean()
        expected = np.abs(counts - mu).sum() / (2.0 * counts.sum())
        assert robin_hood(ko) == pytest.approx(expected, abs=1e-15)

    def test_robin_hood_zero_total(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            KOccurrence(np.zeros(3), 1, 0)
        # total 1 at the least mass: (2/3 + 1/3 + 1/3) / 2 = 2/3
        got = robin_hood(occ([1, 0, 0], k=1, n_queries=1))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestOccurrenceMetrics:
    def test_antihub_perfect_matching(self):
        s = SimilarityMatrix(np.eye(4))
        assert antihub_occurrence(k_occurrence(s, 1)) == 0.0

    def test_antihub_total_hub(self):
        scores = np.zeros((10, 10))
        scores[:, 3] = 1.0
        assert antihub_occurrence(k_occurrence(SimilarityMatrix(scores), 1)) == 0.9

    def test_antihub_against_recount(self, rng):
        counts = rng.integers(0, 3, size=40)
        ko = occ(counts, k=1, n_queries=int(counts.sum()))
        assert antihub_occurrence(ko) == (counts == 0).sum() / 40

    def test_hub_uniform_no_hubs(self):
        assert hub_occurrence(occ([2, 2, 2], k=2, n_queries=3), 2.0) == 0.0

    def test_hub_total_hub_is_one(self):
        scores = np.zeros((10, 10))
        scores[:, 3] = 1.0
        ko = k_occurrence(SimilarityMatrix(scores), 1)
        assert hub_occurrence(ko, 2.0) == 1.0

    def test_hub_against_recount(self, rng):
        counts = rng.integers(0, 30, size=25)
        n_queries = int(counts.sum())
        ko = occ(counts, k=1, n_queries=n_queries)
        factor = 2.0
        expected = counts[counts > factor * 1].sum() / (n_queries * 1)
        assert hub_occurrence(ko, factor) == pytest.approx(expected, abs=1e-15)

    def test_hub_threshold_strict(self):
        # a count exactly at k * factor is not a hub (strict inequality)
        ko = occ([2, 1, 1, 0], k=1, n_queries=4)
        assert hub_occurrence(ko, 2.0) == 0.0
        assert hub_occurrence(ko, 1.9) == pytest.approx(0.5)


class TestProbe:
    def test_high_threshold_self_pairs_only(self, rng):
        texts = EmbeddingSet(random_unit_rows(rng, 6, 16))
        labels = pseudo_positive_probe(texts, 1.0 - 1e-9)
        np.testing.assert_array_equal(labels.matrix, np.eye(6, dtype=bool))

    def test_threshold_minus_one_complete_graph(self, rng):
        texts = EmbeddingSet(random_unit_rows(rng, 5, 8))
        labels = pseudo_positive_probe(texts, -1.0)
        assert labels.matrix.all()

    def test_two_orthogonal_clusters(self, rng):
        base = np.zeros((6, 8))
        base[:3, 0] = 1.0
        base[3:, 1] = 1.0
        base[:3, 2:] = 0.05 * rng.normal(size=(3, 6))
        base[3:, 3:] = 0.05 * rng.normal(size=(3, 5))
        texts = EmbeddingSet(base / np.linalg.norm(base, axis=1, keepdims=True))
        labels = pseudo_positive_probe(texts, 0.5)
        member = np.array([0, 0, 0, 1, 1, 1])
        expected = member[:, None] == member[None, :]
        np.testing.assert_array_equal(labels.matrix, expected)

    def test_symmetric_and_pseudo_source(self, rng):
        texts = EmbeddingSet(random_unit_rows(rng, 7, 5))
        labels = pseudo_positive_probe(texts, 0.3)
        np.testing.assert_array_equal(labels.matrix, labels.matrix.T)
        assert labels.source == "pseudo-positive"


class TestReport:
    def test_defaults_shared_with_train_config(self):
        config = TrainConfig()
        report = inspect.signature(hubness_report).parameters
        assert (config.hub_size_factor == HUB_SIZE_FACTOR
                == report["hub_size_factor"].default
                == inspect.signature(hub_occurrence).parameters["hub_size_factor"].default)
        assert (config.atkinson_epsilon == ATKINSON_EPSILON
                == report["atkinson_epsilon"].default
                == inspect.signature(atkinson).parameters["epsilon"].default)

    def test_identity_hundred(self):
        # circulant scores: query i prefers i, i+1, ... so every gallery item
        # lands in exactly five top-5 lists
        n = 100
        offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        s = SimilarityMatrix(1.0 - 0.001 * offsets)
        with pytest.warns(DegenerateDistribution):
            report = hubness_report(s, 5)
        assert report["skew"] == 0.0
        assert report["robin"] == 0.0
        assert report["anti"] == 0.0
        assert report["hub"] == 0.0

    def test_total_hub_construction(self):
        scores = np.zeros((10, 10))
        scores[:, 0] = 1.0
        # the hub holds every count, so the one positive count has no spread
        with pytest.warns(DegenerateDistribution):
            report = hubness_report(s=SimilarityMatrix(scores), k=1)
        assert report["anti"] == 0.9
        assert report["hub"] == 1.0

    def test_report_equals_metric_by_metric_recomputation(self, rng):
        q = random_unit_rows(rng, 300, 32)
        g = random_unit_rows(rng, 250, 32)
        s = SimilarityMatrix(q @ g.T)
        report = hubness_report(s, 10, hub_size_factor=2.0, atkinson_epsilon=0.5)
        ko = k_occurrence(s, 10)
        assert report["skew"] == skewness(ko)
        assert report["trunc"] == truncated_skewness(ko)
        assert report["atkinson"] == atkinson(ko, 0.5)
        assert report["robin"] == robin_hood(ko)
        assert report["anti"] == antihub_occurrence(ko)
        assert report["hub"] == hub_occurrence(ko, 2.0)
        assert sum(c for _, c in report["histogram"]) == 250

    def test_histogram_is_count_of_counts(self, rng):
        scores = rng.normal(size=(12, 9))
        report = hubness_report(SimilarityMatrix(scores), 3)
        ko = k_occurrence(SimilarityMatrix(scores), 3)
        for value, count in report["histogram"]:
            assert (ko.counts == value).sum() == count

    def test_report_keys(self, rng):
        scores = rng.normal(size=(8, 8))
        d = hubness_report(SimilarityMatrix(scores), 2)
        assert set(d) == {"skew", "trunc", "atkinson", "robin", "anti", "hub",
                          "k", "hub_size_factor", "atkinson_epsilon",
                          "histogram", "n_queries", "n_gallery"}

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(15, 12))
        perm = rng.permutation(12)
        a = hubness_report(SimilarityMatrix(scores), 4)
        b = hubness_report(SimilarityMatrix(scores[:, perm]), 4)
        for key in ("skew", "trunc", "atkinson", "robin", "anti", "hub"):
            assert a[key] == pytest.approx(b[key], abs=1e-12)
