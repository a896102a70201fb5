import numpy as np
import pytest

from hublab import (
    SimilarityMatrix,
    loss_kl,
    loss_nbi,
    loss_wti,
    neighbor_targets,
    select_neighbors,
    total_loss,
)
from hublab.core import row_softmax
from hublab.losses import GRAD_MODE_EXACT, GRAD_MODE_PAPER, LossBundle, NeighborSet
from hublab.errors import ShapeMismatch

from conftest import fd_grad, max_rel_error


class TestLossWti:
    def test_saturated_positives(self):
        s = SimilarityMatrix([[10.0, -10.0], [-10.0, 10.0]])
        out = loss_wti(s, np.ones(2))
        # -log sigmoid of a 20 margin
        assert out.value == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-6)
        assert np.abs(out.grad).max() < 1e-8

    def test_constant_rows_give_log_b(self):
        s = SimilarityMatrix(np.full((5, 5), 0.7))
        out = loss_wti(s, np.ones(5))
        assert out.value == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_against_finite_differences(self, rng):
        scores = rng.normal(size=(6, 6))
        w = rng.uniform(0.5, 2.0, size=6)
        out = loss_wti(SimilarityMatrix(scores), w)
        fd = fd_grad(lambda x: loss_wti(SimilarityMatrix(x), w).value, scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_gradient_with_temperature(self, rng):
        scores = rng.normal(size=(5, 5))
        w = rng.uniform(0.5, 2.0, size=5)
        out = loss_wti(SimilarityMatrix(scores, temperature=0.25), w)
        fd = fd_grad(
            lambda x: loss_wti(SimilarityMatrix(x, temperature=0.25), w).value,
            scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_unit_weights_reduce_to_infonce(self, rng):
        scores = rng.normal(size=(4, 4))
        out = loss_wti(SimilarityMatrix(scores), np.ones(4))
        direct = 0.0
        for i in range(4):
            e = np.exp(scores[i] - scores[i].max())
            direct -= np.log(e[i] / e.sum())
        assert out.value == pytest.approx(direct / 4, abs=1e-12)

    def test_row_shift_invariance(self, rng):
        scores = rng.normal(size=(4, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        shifted = scores + rng.normal(size=(4, 1))
        a = loss_wti(SimilarityMatrix(scores), w).value
        b = loss_wti(SimilarityMatrix(shifted), w).value
        assert abs(a - b) < 1e-9

    def test_value_is_weighted_mean_of_diagonal_log_softmax(self, rng):
        scores = rng.normal(size=(4, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        out = loss_wti(SimilarityMatrix(scores, temperature=0.5), w)
        z = scores / 0.5
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert out.value == pytest.approx(-np.mean(w * np.diag(logp)), rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch, match="expected a square batch, got 2x3"):
            loss_wti(SimilarityMatrix(np.zeros((2, 3))), np.ones(2))


class TestDecentralSimilarity:
    """The de-centrality scores S_ij - C_j, which ``neighbor_targets`` takes
    at each anchor's members only."""

    def test_zero_centrality_is_identity(self, rng):
        s = SimilarityMatrix(rng.normal(size=(3, 8)))
        ns = select_neighbors(s, 4)
        h = neighbor_targets(s, ns, np.zeros(8))
        member_scores = np.take_along_axis(s.scores, ns.members, axis=1)
        np.testing.assert_array_equal(h[:, 1:], row_softmax(member_scores))

    def test_matches_subtract_then_gather(self, rng):
        # the width of a train-bankpool candidate grid: 128 batch + 1024 pool
        s = SimilarityMatrix(rng.normal(size=(128, 1152)), temperature=0.07)
        cross = rng.uniform(-1, 1, size=1152)
        ns = select_neighbors(s, 20)
        shifted = np.take_along_axis(s.scores - cross[None, :], ns.members, axis=1)
        reference = np.ones((128, 21))
        reference[:, 1:] = row_softmax(shifted, 0.07)
        np.testing.assert_array_equal(neighbor_targets(s, ns, cross), reference)

    def test_constant_half(self, rng):
        s = SimilarityMatrix(rng.normal(size=(4, 9)))
        ns = select_neighbors(s, 5)
        np.testing.assert_allclose(neighbor_targets(s, ns, np.full(9, 0.5)),
                                   neighbor_targets(s, ns, np.zeros(9)),
                                   rtol=0, atol=1e-15)

    def test_length_mismatch(self):
        s = SimilarityMatrix(np.zeros((2, 3)))
        ns = NeighborSet([[1], [0]], ground_truth=[0, 1])
        with pytest.raises(ShapeMismatch, match=r"centrality has shape \(2,\), expected \(3,\)"):
            neighbor_targets(s, ns, np.zeros(2))

    def test_constant_offset_keeps_neighbor_selection(self, rng):
        s = SimilarityMatrix(rng.normal(size=(3, 9)))
        shifted = SimilarityMatrix(s.scores - 0.37)
        a = select_neighbors(s, 4, ground_truth=[2, 0, 8])
        b = select_neighbors(shifted, 4, ground_truth=[2, 0, 8])
        np.testing.assert_array_equal(a.members, b.members)


class TestSelectNeighbors:
    def test_simple_ordering(self):
        s = SimilarityMatrix([[0.9, 0.1, 0.5]])
        ns = select_neighbors(s, 1, ground_truth=[0])
        np.testing.assert_array_equal(ns.members, [[2]])

    def test_clamped_to_everything_but_gt(self):
        s = SimilarityMatrix([[0.9, 0.1, 0.5, 0.2]])
        ns = select_neighbors(s, 10, ground_truth=[0])
        assert set(ns.members[0].tolist()) == {1, 2, 3}

    def test_against_full_sort_oracle(self, rng):
        rows = rng.normal(size=(4, 50))
        gts = [7, 0, 49, 7]
        ns = select_neighbors(SimilarityMatrix(rows), 10, ground_truth=gts)
        for i, gt in enumerate(gts):
            pairs = sorted(((-rows[i, j], j) for j in range(50) if j != gt))
            expected = [j for _, j in pairs[:10]]
            np.testing.assert_array_equal(ns.members[i], expected)

    def test_ties_break_to_lower_index(self):
        s = SimilarityMatrix([[0.5, 0.5, 0.5, 0.5]])
        ns = select_neighbors(s, 2, ground_truth=[3])
        np.testing.assert_array_equal(ns.members, [[0, 1]])

    def test_members_exclude_gt_and_are_distinct(self, rng):
        s = SimilarityMatrix(rng.normal(size=(3, 12)))
        ns = select_neighbors(s, 6)
        for i in range(3):
            assert i not in ns.members[i]
            assert len(set(ns.members[i].tolist())) == 6


class TestNeighborTargets:
    def test_single_member(self):
        s = SimilarityMatrix([[0.3, 0.1]])
        ns = NeighborSet([[1]], ground_truth=[0])
        h = neighbor_targets(s, ns, np.zeros(2))
        np.testing.assert_allclose(h, [[1.0, 1.0]])

    def test_two_equal_members(self):
        s = SimilarityMatrix([[0.0, 0.4, 0.4]])
        ns = NeighborSet([[1, 2]], ground_truth=[0])
        h = neighbor_targets(s, ns, np.zeros(3))
        np.testing.assert_allclose(h, [[1.0, 0.5, 0.5]])

    def test_against_scalar_softmax_oracle(self):
        s = SimilarityMatrix([[9.0, 1.0, 0.0, -1.0]])
        ns = NeighborSet([[1, 2, 3]], ground_truth=[0])
        h = neighbor_targets(s, ns, np.zeros(4))
        e = np.exp([1.0, 0.0, -1.0])
        np.testing.assert_allclose(h[0, 1:], e / e.sum(), atol=1e-12)
        assert h[0, 1:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_members_sum_to_one(self, rng):
        s = SimilarityMatrix(rng.normal(size=(2, 8)))
        ns = select_neighbors(s, 5)
        h = neighbor_targets(s, ns, np.zeros(8))
        assert np.all(h[:, 0] == 1.0)
        np.testing.assert_allclose(h[:, 1:].sum(axis=1), 1.0, atol=1e-12)


def _restricted_softmax(scores, plus):
    logits = np.take_along_axis(scores, plus, axis=1)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


class TestLossNbi:
    def _random_case(self, rng, m=12, k=8):
        scores = rng.normal(size=(3, m))
        s = SimilarityMatrix(scores)
        ns = select_neighbors(s, k)
        h = neighbor_targets(s, ns, rng.uniform(-0.5, 0.5, size=m))
        return s, ns, h

    def test_symmetric_two_member_case(self):
        s = SimilarityMatrix(np.zeros((1, 2)))
        ns = NeighborSet([[1]], ground_truth=[0])
        h = np.array([[1.0, 1.0]])
        exact = loss_nbi(s, h, ns, GRAD_MODE_EXACT)
        np.testing.assert_allclose(exact.grad, 0.0, atol=1e-15)
        paper = loss_nbi(s, h, ns, GRAD_MODE_PAPER)
        np.testing.assert_allclose(paper.grad[0], [-0.5, -0.5], atol=1e-15)

    def test_concentrated_target_matches_cross_entropy(self, rng):
        # target mass entirely on the ground truth: plain cross-entropy on N+
        scores = rng.normal(size=(1, 4))
        s = SimilarityMatrix(scores)
        ns = NeighborSet([[1, 2, 3]], ground_truth=[0])
        out = loss_nbi(s, np.array([[1.0, 0.0, 0.0, 0.0]]), ns)
        ce = -(scores[0, 0] - np.log(np.exp(scores[0]).sum()))
        assert out.value == pytest.approx(ce, rel=1e-9)

    def test_exact_gradient_against_finite_differences(self, rng):
        s, ns, h = self._random_case(rng)
        out = loss_nbi(s, h, ns, GRAD_MODE_EXACT)
        fd = fd_grad(lambda x: loss_nbi(SimilarityMatrix(x), h, ns).value,
                     s.scores)
        assert max_rel_error(ns.scatter(out.grad, s.m), fd) < 1e-6

    def test_exact_gradient_with_temperature(self, rng):
        scores = rng.normal(size=(2, 9))
        s = SimilarityMatrix(scores, temperature=0.5)
        ns = select_neighbors(s, 5)
        h = neighbor_targets(s, ns, np.zeros(9))
        out = loss_nbi(s, h, ns)
        fd = fd_grad(
            lambda x: loss_nbi(SimilarityMatrix(x, temperature=0.5), h, ns).value,
            scores)
        assert max_rel_error(ns.scatter(out.grad, s.m), fd) < 1e-6

    def test_paper_mode_is_p_minus_h(self, rng):
        # the gradient of a mean over n anchors is each anchor's P - H over n
        s, ns, h = self._random_case(rng)
        paper = loss_nbi(s, h, ns, GRAD_MODE_PAPER)
        plus = ns.plus_indices
        p = _restricted_softmax(s.scores, plus)
        np.testing.assert_allclose(s.n * paper.grad, p - h, atol=1e-12)

    def test_paper_equals_exact_minus_correction(self, rng):
        s, ns, h = self._random_case(rng)
        exact = loss_nbi(s, h, ns, GRAD_MODE_EXACT)
        paper = loss_nbi(s, h, ns, GRAD_MODE_PAPER)
        plus = ns.plus_indices
        p = _restricted_softmax(s.scores, plus)
        correction = p * (h.sum(axis=1, keepdims=True) - 1.0)
        np.testing.assert_allclose(s.n * exact.grad - correction, s.n * paper.grad,
                                   atol=1e-12)

    def test_gradient_zero_outside_neighborhood(self, rng):
        # the gradient is local, one entry per plus index, and scatters to a
        # grid that is zero elsewhere
        s, ns, h = self._random_case(rng)
        out = loss_nbi(s, h, ns)
        assert out.grad.shape == ns.plus_indices.shape
        grid = ns.scatter(out.grad, s.m)
        np.testing.assert_array_equal(np.take_along_axis(grid, ns.plus_indices, axis=1),
                                      out.grad)
        mask = np.ones_like(s.scores, dtype=bool)
        np.put_along_axis(mask, ns.plus_indices, False, axis=1)
        assert np.all(grid[mask] == 0.0)

    def test_scatter_leaves_out_columns_past_m(self):
        ns = NeighborSet([[3, 1], [0, 4]], ground_truth=[0, 1])
        values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(ns.scatter(values, 5), [[1, 3, 0, 2, 0],
                                                              [5, 4, 0, 0, 6]])
        np.testing.assert_array_equal(ns.scatter(values, 2), [[1, 3], [5, 4]])

    def test_stationary_at_scaled_targets(self):
        # equal restricted scores give P uniform; with |N+| = 2 that is H/2
        s = SimilarityMatrix([[0.7, 0.7, -3.0]])
        ns = NeighborSet([[1]], ground_truth=[0])
        out = loss_nbi(s, np.array([[1.0, 1.0]]), ns, GRAD_MODE_EXACT)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)

    def test_stationary_at_half_targets_with_several_members(self, rng):
        # H sums to 2 (the pinned ground truth plus members summing to 1), so
        # the optimum is P = H / 2: plus-column scores tau log(H / 2) plus a
        # per-row constant put the ground truth at probability 1/2
        n, m, k, tau = 5, 11, 4, 0.7
        ns = select_neighbors(SimilarityMatrix(rng.normal(size=(n, m)), tau), k)
        h = neighbor_targets(SimilarityMatrix(rng.normal(size=(n, m)), tau), ns,
                             rng.uniform(-0.5, 0.5, size=m))
        plus = ns.plus_indices
        scores = rng.normal(size=(n, m))
        np.put_along_axis(scores, plus,
                          tau * np.log(h / 2) + rng.normal(size=(n, 1)), axis=1)
        s = SimilarityMatrix(scores, tau)
        np.testing.assert_allclose(_restricted_softmax(scores / tau, plus)[:, 0], 0.5,
                                   rtol=1e-14)
        exact = loss_nbi(s, h, ns, GRAD_MODE_EXACT)
        np.testing.assert_allclose(exact.grad, 0.0, atol=1e-15)
        paper = loss_nbi(s, h, ns, GRAD_MODE_PAPER)
        np.testing.assert_allclose(paper.grad, -h / (2 * n), rtol=1e-13, atol=1e-16)

    def test_inconsistent_targets(self, rng):
        s, ns, h = self._random_case(rng)
        with pytest.raises(ShapeMismatch, match="targets .* and neighbors .* must match"):
            loss_nbi(s, h[:, :-1], ns)


class TestBatchedNbiAgainstPerAnchor:
    """The whole-matrix NBI loss against a loop over anchors, one at a time,
    on a non-square grid as a bank pool makes it."""

    def _reference(self, scores, gts, k, h, mode, temperature):
        n, m = scores.shape
        values = np.empty(n)
        grad = np.zeros_like(scores)
        members = []
        for i in range(n):
            ranked = sorted(((-scores[i, j], j) for j in range(m) if j != gts[i]))
            plus = [gts[i]] + [j for _, j in ranked[:k]]
            members.append(plus[1:])
            z = scores[i, plus] / temperature
            logp = z - z.max() - np.log(np.exp(z - z.max()).sum())
            p = np.exp(logp)
            values[i] = -(h[i] * logp).sum()
            if mode == GRAD_MODE_EXACT:
                grad[i, plus] = (p * h[i].sum() - h[i]) / temperature
            else:
                grad[i, plus] = p - h[i]
        return np.array(members), values, grad

    @pytest.mark.parametrize("mode", [GRAD_MODE_EXACT, GRAD_MODE_PAPER])
    def test_value_is_mean_and_grad_is_reference_over_n(self, rng, mode):
        n, pool, k = 6, 5, 4
        scores = rng.normal(size=(n, n + pool))
        gts = rng.integers(0, n + pool, size=n)
        s = SimilarityMatrix(scores, temperature=0.7)
        ns = select_neighbors(s, k, ground_truth=gts)
        h = neighbor_targets(s, ns, rng.uniform(0, 0.3, n + pool))
        members, values, grad = self._reference(scores, gts, k, h, mode, 0.7)
        np.testing.assert_array_equal(ns.members, members)
        out = loss_nbi(s, h, ns, mode)
        assert out.value == pytest.approx(values.mean(), rel=1e-12)
        np.testing.assert_allclose(ns.scatter(out.grad, n + pool), grad / n,
                                   rtol=1e-12, atol=1e-15)

    def test_rejects_duplicate_member(self):
        with pytest.raises(ValueError, match="distinct"):
            NeighborSet([[1, 2], [2, 2]], ground_truth=[0, 0])

    def test_rejects_member_equal_to_ground_truth(self):
        with pytest.raises(ValueError, match="ground-truth"):
            NeighborSet([[1, 2], [0, 2]], ground_truth=[0, 2])

    @pytest.mark.parametrize("gt", [-1, 5])
    def test_rejects_ground_truth_outside_grid(self, rng, gt):
        s = SimilarityMatrix(rng.normal(size=(2, 5)))
        with pytest.raises(ValueError, match="outside"):
            select_neighbors(s, 2, ground_truth=[0, gt])


class TestLossKl:
    def test_identical_distributions(self, rng):
        scores = rng.normal(size=(4, 5))
        out = loss_kl(SimilarityMatrix(scores), SimilarityMatrix(scores.copy()))
        assert abs(out.value) < 1e-12
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_one_hot_vs_uniform_limit(self):
        high = np.full((1, 4), -20.0)
        high[0, 0] = 0.0
        low = np.zeros((1, 4))
        out = loss_kl(SimilarityMatrix(low), SimilarityMatrix(high))
        assert out.value == pytest.approx(np.log(4.0), abs=1e-6)

    def test_low_gradient_against_finite_differences(self, rng):
        low = rng.normal(size=(5, 5))
        high = rng.normal(size=(5, 5))
        out = loss_kl(SimilarityMatrix(low), SimilarityMatrix(high))
        fd = fd_grad(
            lambda x: loss_kl(SimilarityMatrix(x), SimilarityMatrix(high)).value,
            low)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_high_gradient_against_finite_differences(self, rng):
        low = rng.normal(size=(5, 5))
        high = rng.normal(size=(5, 5))
        out = loss_kl(SimilarityMatrix(low), SimilarityMatrix(high))
        fd = fd_grad(
            lambda x: loss_kl(SimilarityMatrix(low), SimilarityMatrix(x)).value,
            high)
        assert max_rel_error(out.grad_high, fd) < 1e-6

    def test_value_nonnegative(self, rng):
        low = rng.normal(size=(6, 7))
        high = rng.normal(size=(6, 7))
        assert loss_kl(SimilarityMatrix(low), SimilarityMatrix(high)).value >= 0


class TestTotalLoss:
    def _bundle(self, value, grad):
        return LossBundle(value, grad)

    def _parts(self, rng, b=3):
        return {
            direction: {name: self._bundle(rng.normal(), rng.normal(size=(b, b)))
                        for name in ("wti", "nbi", "opt")}
            for direction in ("q2g", "g2q")
        }

    def test_all_zero(self):
        parts = {d: {n: self._bundle(0.0, np.zeros((2, 2)))
                     for n in ("wti", "nbi", "opt")}
                 for d in ("q2g", "g2q")}
        out = total_loss(parts, 2)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, 0.0)
        # with every part off, the sum is the b x b zero grid
        out = total_loss({"q2g": {}, "g2q": {}}, 4)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, np.zeros((4, 4)))

    def test_single_part_halved(self):
        parts = {d: {n: self._bundle(0.0, np.zeros((2, 2)))
                     for n in ("wti", "nbi", "opt")}
                 for d in ("q2g", "g2q")}
        parts["q2g"]["nbi"] = self._bundle(3.0, np.ones((2, 2)))
        out = total_loss(parts, 2)
        assert out.value == pytest.approx(1.5)
        np.testing.assert_allclose(out.grad, 0.5)

    def test_against_scalar_recombination_oracle(self, rng):
        parts = self._parts(rng)
        out = total_loss(parts, 3)
        value = 0.5 * sum(parts[d][n].value
                          for d in ("q2g", "g2q") for n in ("wti", "nbi", "opt"))
        grad = 0.5 * (sum(parts["q2g"][n].grad for n in ("wti", "nbi", "opt"))
                      + sum(parts["g2q"][n].grad.T for n in ("wti", "nbi", "opt")))
        assert out.value == pytest.approx(value, abs=1e-12)
        np.testing.assert_allclose(out.grad, grad, atol=1e-12)

    def test_missing_part(self, rng):
        # a part that is off adds nothing: the sum is bit-equal to the one
        # with a zero part in its place
        parts = self._parts(rng)
        zero = self._bundle(0.0, np.zeros((3, 3)))
        for direction in ("q2g", "g2q"):
            for name in ("wti", "nbi", "opt"):
                given = {d: dict(parts[d]) for d in parts}
                zeroed = {d: dict(parts[d]) for d in parts}
                del given[direction][name]
                zeroed[direction][name] = zero
                out, ref = total_loss(given, 3), total_loss(zeroed, 3)
                assert out.value == ref.value
                np.testing.assert_array_equal(out.grad, ref.grad)

    def test_unknown_part(self, rng):
        # a part outside LOSS_PARTS is an error, not silently left out
        parts = self._parts(rng)
        parts["q2g"]["kl"] = self._bundle(1.0, np.ones((3, 3)))
        with pytest.raises(ShapeMismatch, match="direction 'q2g' has the parts .*'kl'"):
            total_loss(parts, 3)
