import numpy as np
import pytest

from hublab import SimilarityMatrix, blend_targets, loss_opt, sinkhorn_plan
from hublab.core import row_softmax
from hublab.errors import NonSquarePlan, NotConverged, ShapeMismatch
from hublab.transport import BlendedTarget, TransportPlan

from conftest import fd_grad, max_rel_error, random_unit_rows


class TestSinkhorn:
    def test_zero_scores_give_exact_uniform(self):
        plan = sinkhorn_plan(SimilarityMatrix(np.zeros((4, 4))), 0.05)
        np.testing.assert_allclose(plan.q, 1.0 / 16.0, atol=1e-15)
        assert plan.residual <= 1e-12

    def test_dominant_diagonal_limit(self):
        s = SimilarityMatrix([[10.0, 0.0], [0.0, 10.0]])
        plan = sinkhorn_plan(s, 0.1, tol=1e-10, max_iter=5000)
        np.testing.assert_allclose(np.diag(plan.q), 0.5, atol=1e-6)
        assert plan.q[0, 1] < 1e-6 and plan.q[1, 0] < 1e-6

    def test_marginals_against_direct_summation(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 8)))
        plan = sinkhorn_plan(s, 0.05, tol=1e-9, max_iter=20000)
        row_sums = [sum(plan.q[i, j] for j in range(8)) for i in range(6)]
        col_sums = [sum(plan.q[i, j] for i in range(6)) for j in range(8)]
        np.testing.assert_allclose(row_sums, 1.0 / 6.0, atol=1e-8)
        np.testing.assert_allclose(col_sums, 1.0 / 8.0, atol=1e-8)
        # the last column update leaves the columns exact up to rounding,
        # so the residual only needs the row error
        np.testing.assert_allclose(col_sums, 1.0 / 8.0, rtol=0, atol=1e-14)
        row_error = sum(abs(r - 1.0 / 6.0) for r in row_sums)
        assert abs(plan.residual - row_error) <= 1e-14

    def test_entries_nonnegative(self, rng):
        s = SimilarityMatrix(rng.normal(size=(5, 7)))
        plan = sinkhorn_plan(s, 0.1)
        assert plan.q.min() >= 0.0

    def test_residual_history_non_increasing(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(9, 9)))
        plan = sinkhorn_plan(s, 0.1, tol=1e-10, max_iter=200000)
        hist = np.array(plan.residual_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_large_epsilon_approaches_uniform(self, rng):
        q = random_unit_rows(rng, 8, 128)
        g = random_unit_rows(rng, 8, 128)
        s = SimilarityMatrix(q @ g.T)
        plan = sinkhorn_plan(s, 100.0, tol=1e-10, max_iter=5000)
        assert np.abs(plan.q - 1.0 / 64.0).max() < 1e-4

    def test_not_converged_raises(self, rng):
        # this square draw contracts at ~2e-5 per sweep under eps=0.05, so a
        # tight tolerance with a small cap stays far above the 100x band
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        with pytest.raises(NotConverged):
            sinkhorn_plan(s, 0.05, tol=1e-12, max_iter=100)

    def test_warning_flag_when_slow(self, rng):
        # same slow-contracting draw: at 1000 sweeps the residual sits inside
        # the warn band (tol, 100 tol], so the plan returns flagged
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        with pytest.warns(RuntimeWarning):
            plan = sinkhorn_plan(s, 0.05, tol=1e-5, max_iter=1000)
        assert plan.warning and 1e-5 < plan.residual <= 1e-3

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            sinkhorn_plan(SimilarityMatrix(np.zeros((2, 2))), 0.0)


class TestBlendTargets:
    def _uniform_plan(self, b):
        return TransportPlan(np.full((b, b), 1.0 / b ** 2), 1.0 / b, 1.0 / b,
                             0.05, 1, 0.0)

    def test_beta_zero_is_identity(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(4, 4)))
        plan = sinkhorn_plan(s, 0.5)
        out = blend_targets(plan, 0.0)
        np.testing.assert_allclose(out.q_blend, np.eye(4), atol=1e-12)

    def test_beta_one_uniform_plan(self):
        out = blend_targets(self._uniform_plan(5), 1.0)
        np.testing.assert_allclose(out.q_blend, 1.0 / 5.0, atol=1e-15)

    def test_half_blend_hand_arithmetic(self):
        out = blend_targets(self._uniform_plan(4), 0.5)
        expected = np.full((4, 4), 0.125)
        np.fill_diagonal(expected, 0.625)
        np.testing.assert_allclose(out.q_blend, expected, atol=1e-15)
        np.testing.assert_allclose(out.q_blend.sum(axis=1), 1.0, atol=1e-15)

    def test_rows_stochastic_for_solved_plan(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        plan = sinkhorn_plan(s, 0.2, tol=1e-10, max_iter=50000)
        out = blend_targets(plan, 0.7)
        np.testing.assert_allclose(out.q_blend.sum(axis=1), 1.0, atol=1e-9)
        assert out.q_blend.min() >= 0.0

    def test_non_square_rejected(self):
        plan = TransportPlan(np.full((2, 3), 1.0 / 6), 0.5, 1.0 / 3, 0.05, 1, 0.0)
        with pytest.raises(NonSquarePlan):
            blend_targets(plan, 0.5)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            blend_targets(self._uniform_plan(3), 1.5)


class TestLossOpt:
    def test_gradient_zero_at_fixed_point(self, rng):
        scores = rng.normal(size=(4, 4))
        s = SimilarityMatrix(scores)
        target = BlendedTarget(row_softmax(scores), 0.5)
        out = loss_opt(s, target)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_uniform_target_constant_rows(self):
        s = SimilarityMatrix(np.full((3, 5), 0.2))
        target = BlendedTarget(np.full((3, 5), 0.2), 1.0)
        out = loss_opt(s, target)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)
        assert out.value == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_against_finite_differences(self, rng):
        scores = rng.normal(size=(5, 5))
        raw = rng.uniform(0.1, 1.0, size=(5, 5))
        target = BlendedTarget(raw / raw.sum(axis=1, keepdims=True), 0.5)
        out = loss_opt(SimilarityMatrix(scores), target)
        fd = fd_grad(lambda x: loss_opt(SimilarityMatrix(x), target).value, scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_gradient_with_temperature(self, rng):
        scores = rng.normal(size=(4, 6))
        raw = rng.uniform(0.1, 1.0, size=(4, 6))
        target = BlendedTarget(raw / raw.sum(axis=1, keepdims=True), 0.5)
        out = loss_opt(SimilarityMatrix(scores, temperature=0.3), target)
        fd = fd_grad(
            lambda x: loss_opt(SimilarityMatrix(x, temperature=0.3), target).value,
            scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_gradient_rows_sum_to_zero(self, rng):
        scores = rng.normal(size=(6, 6))
        raw = rng.uniform(0.1, 1.0, size=(6, 6))
        target = BlendedTarget(raw / raw.sum(axis=1, keepdims=True), 0.5)
        out = loss_opt(SimilarityMatrix(scores), target)
        np.testing.assert_allclose(out.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_eq12_structure(self, rng):
        scores = rng.normal(size=(4, 4))
        raw = rng.uniform(0.1, 1.0, size=(4, 4))
        q = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores), BlendedTarget(q, 0.5))
        p = row_softmax(scores)
        np.testing.assert_allclose(out.grad, -(q - p) / 4.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_opt(SimilarityMatrix(np.zeros((2, 3))),
                     BlendedTarget(np.eye(2), 0.5))

    def test_descent_drives_rows_uniform(self):
        # minimizing the loss alone over free logits with uniform targets
        rng = np.random.default_rng(7)
        n, m = 16, 8
        scores = rng.normal(size=(n, m))
        target = BlendedTarget(np.full((n, m), 1.0 / m), 1.0)
        lr = 2.0 * n
        for step in range(2000):
            out = loss_opt(SimilarityMatrix(scores), target)
            scores = scores - lr * out.grad
            p = row_softmax(scores)
            if np.abs(p - 1.0 / m).max() < 1e-3:
                break
        assert np.abs(row_softmax(scores) - 1.0 / m).max() < 1e-3
