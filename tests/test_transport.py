import inspect

import numpy as np
import pytest

from hublab import SimilarityMatrix, TrainConfig, blend_targets, loss_opt, sinkhorn_plan
from hublab.core import row_softmax
from hublab.errors import NotConverged, ShapeMismatch
from hublab.transport import KERNEL_RANGE, NEWTON_AFTER, TransportPlan

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
        # same slow-contracting draw: a cap at the Newton switch stops it after
        # plain sweeps only, with the residual inside the warn band
        # (tol, 100 tol], so the plan returns flagged; the flag is the only
        # signal, and pytest.ini turns any RuntimeWarning into an error
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        plan = sinkhorn_plan(s, 0.05, tol=1e-5, max_iter=NEWTON_AFTER)
        assert plan.warning and 1e-5 < plan.residual <= 1e-3
        assert plan.newton_steps == 0

    def test_default_cap_leaves_room_for_newton(self, rng):
        # the same draw without a cap: the default goes past the Newton
        # switch and finishes below tol
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        plan = sinkhorn_plan(s, 0.05, tol=1e-5)
        assert not plan.warning and plan.residual <= 1e-5
        assert plan.newton_steps > 0 and plan.iterations_used > NEWTON_AFTER

    def test_defaults_shared_with_train_config(self):
        defaults = inspect.signature(sinkhorn_plan).parameters
        config = TrainConfig()
        assert defaults["tol"].default == config.sinkhorn_tol
        assert defaults["max_iter"].default == config.sinkhorn_max_iter

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            sinkhorn_plan(SimilarityMatrix(np.zeros((2, 2))), 0.0)

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            sinkhorn_plan(SimilarityMatrix(np.zeros((2, 2))), 0.05, max_iter=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_scores_raise_not_converged(self):
        # S / epsilon overflows to inf: the first residual is NaN, and no
        # NaN plan is returned
        with pytest.raises(NotConverged, match="marginal residual nan"):
            sinkhorn_plan(SimilarityMatrix([[1.0, 0.0], [0.0, 1.0]]), 1e-310)


def _logsumexp(a, axis):
    """Stable log-sum-exp along one axis."""
    amax = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - amax).sum(axis=axis)) + np.squeeze(amax, axis=axis)


def _log_domain_reference(scores, epsilon, tol, max_iter):
    """Sinkhorn on log-domain potentials: (plan, iterations, residual)."""
    a = scores / epsilon
    n, m = a.shape
    lse = _logsumexp(a, axis=1)
    for iterations in range(1, max_iter + 1):
        f = -np.log(n) - lse
        g = -np.log(m) - _logsumexp(a + f[:, None], axis=0)
        lse = _logsumexp(a + g[None, :], axis=1)
        residual = np.abs(np.exp(f + lse) - 1.0 / n).sum()
        if residual <= tol:
            break
    return np.exp(a + f[:, None] + g[None, :]), iterations, residual


def _tight_reference(scores, epsilon):
    """The plan with both marginals within 1e-13 in L1: 2000 log-domain
    sweeps, then full Newton steps on the log-domain potentials (f, g) with
    the whole (n + m) block system, the last entry of g held fixed."""
    a = scores / epsilon
    n, m = a.shape
    q, _, _ = _log_domain_reference(scores, epsilon, 0.0, 2000)
    # log q = a + f + g, with g[0] = 0
    f = np.log(q[:, 0]) - a[:, 0]
    g = np.log(q[0]) - a[0] - f[0]
    for _ in range(50):
        p = np.exp(a + f[:, None] + g[None, :])
        e_r, e_c = p.sum(axis=1) - 1.0 / n, p.sum(axis=0) - 1.0 / m
        if np.abs(e_r).sum() + np.abs(e_c).sum() <= 1e-13:
            return p
        jac = np.block([[np.diag(p.sum(axis=1)), p[:, :-1]],
                        [p[:, :-1].T, np.diag(p.sum(axis=0)[:-1])]])
        step = np.linalg.solve(jac, -np.concatenate([e_r, e_c[:-1]]))
        f += step[:n]
        g[:-1] += step[n:]
    raise AssertionError("the Newton reference did not converge")


def _plain_loop(scores, epsilon, tol, max_iter):
    """The kernel-domain loop without a Newton finish, expression for
    expression, for ranges within KERNEL_RANGE: (plan, residual history)."""
    n, m = scores.shape
    a = scores / epsilon
    f = -a.max(axis=1)
    row_shifted = a + f[:, None]
    g = -row_shifted.max(axis=0)
    k = np.exp(row_shifted + g[None, :])
    k_t = np.ascontiguousarray(k.T)
    kv = k @ np.exp(-g)
    history = []
    for _ in range(max_iter):
        u = (1.0 / n) / kv
        v = (1.0 / m) / (k_t @ u)
        kv = k @ v
        history.append(float(np.abs(u * kv - 1.0 / n).sum()))
        if history[-1] <= tol:
            break
    return u[:, None] * k * v[None, :], history


def _cosine_grid(seed, n, m, ratio):
    """Cosines of random unit rows, and the epsilon that makes their range
    ``ratio`` epsilons wide."""
    rng = np.random.default_rng(seed)
    scores = random_unit_rows(rng, n, 6) @ random_unit_rows(rng, m, 6).T
    return scores, (scores.max() - scores.min()) / ratio


def _solve(scores, epsilon, tol, max_iter):
    return sinkhorn_plan(SimilarityMatrix(scores), epsilon, tol, max_iter)


def _shared_top_column(rng):
    """8 x 8 scores in [0.9, 1], but for two rows at 0 except a shared 1 in
    column 0. The row and column shifts leave their kernel rows at 1 there
    and at exp(-range / epsilon) elsewhere, and column 0 holds room for only
    one of them, so half of each row's mass goes through the smallest
    kernel entries."""
    scores = rng.uniform(0.9, 1.0, size=(8, 8))
    scores[:2] = 0.0
    scores[:2, 0] = 1.0
    return scores


def _switch_plan(scores, epsilon, residual):
    """The plan after exactly NEWTON_AFTER plain sweeps: a tol ten times below
    the residual the reference reaches there keeps every sweep, and leaves
    the plan inside the warn band."""
    plan = _solve(scores, epsilon, residual / 10.0, NEWTON_AFTER)
    assert plan.iterations_used == NEWTON_AFTER and plan.newton_steps == 0
    return plan


def _check_newton_finish(plan, scores, epsilon, tol):
    """A solve finished by Newton steps: at or below tol, columns exact, and
    every entry within the returned residual of the tight reference (or
    within that reference's own 1e-13, if the residual is smaller)."""
    m = scores.shape[1]
    assert plan.newton_steps > 0 and plan.residual <= tol and not plan.warning
    np.testing.assert_allclose(plan.q.sum(axis=0), 1.0 / m, rtol=0, atol=1e-14)
    error = np.abs(plan.q - _tight_reference(scores, epsilon)).max()
    assert error <= max(plan.residual, 1e-13)


class TestKernelDomain:
    # tol 1e-4 keeps the residual far above the reference's rounding: its
    # row sums exp(f + lse) add potentials of the order of the range (up to
    # 350), which costs about 4e-14 absolute. The first two grids converge
    # before the Newton switch; the others are checked in two parts, the
    # plain sweeps before the switch and the Newton-finished plan.
    @pytest.mark.parametrize("seed,n,m,ratio", [
        (0, 12, 9, 10.0), (1, 16, 16, 60.0), (2, 7, 13, 150.0),
        (3, 11, 8, 250.0), (4, 9, 14, KERNEL_RANGE - 1.0)])
    def test_matches_log_domain_reference(self, seed, n, m, ratio):
        scores, epsilon = _cosine_grid(seed, n, m, ratio)
        plan = _solve(scores, epsilon, 1e-4, 2000)
        q, iterations, residual = _log_domain_reference(scores, epsilon, 1e-4,
                                                        NEWTON_AFTER)
        if residual > 1e-4:
            # the reference ran every sweep up to the switch: check the
            # Newton-finished plan, then the plain sweeps against q
            _check_newton_finish(plan, scores, epsilon, 1e-4)
            plan = _switch_plan(scores, epsilon, residual)
        assert plan.iterations_used == iterations
        np.testing.assert_allclose(plan.q, q, rtol=1e-12, atol=0)
        assert plan.residual == pytest.approx(residual, rel=1e-9, abs=0)

    # These grids need about 2000 plain sweeps to reach tol 1e-4, where the
    # log-domain reference drifts from the kernel path by up to 3e-11; the
    # same scaling in extended precision sides with the kernel path (it is
    # at most 8e-14 away), so their plain sweeps are checked against that.
    @pytest.mark.parametrize("seed,n,m,ratio", [
        (3, 10, 10, 250.0), (5, 8, 16, 153.0), (8, 12, 12, 300.0)])
    def test_slow_grid_matches_extended_precision(self, seed, n, m, ratio):
        scores, epsilon = _cosine_grid(seed, n, m, ratio)
        _, iterations, _ = _log_domain_reference(scores, epsilon, 1e-4, 2000)
        assert iterations >= 1900
        plan = _solve(scores, epsilon, 1e-4, 2000)
        assert plan.iterations_used < 2 * NEWTON_AFTER
        _check_newton_finish(plan, scores, epsilon, 1e-4)

        _, _, residual = _log_domain_reference(scores, epsilon, 0.0, NEWTON_AFTER)
        plan = _switch_plan(scores, epsilon, residual)
        assert plan.residual == pytest.approx(residual, rel=1e-9, abs=0)
        a = scores.astype(np.longdouble) / np.longdouble(epsilon)
        k = np.exp(a - a.max())
        kv = k.sum(axis=1)
        for _ in range(NEWTON_AFTER):
            u = (np.longdouble(1) / n) / kv
            v = (np.longdouble(1) / m) / (k.T @ u)
            kv = k @ v
        np.testing.assert_allclose(plan.q, u[:, None] * k * v[None, :],
                                   rtol=2e-13, atol=0)

    # Above KERNEL_RANGE the scalings are absorbed into the kernel whenever
    # they leave [1e-100, 1e100], once or twice on these grids at 5000
    # epsilons. The reference's row sums exp(f + lse) carry rounding of about
    # range x 1e-16, hence the absolute residual margin.
    @pytest.mark.parametrize("ratio", [KERNEL_RANGE + 10.0, 1000.0, 5000.0])
    @pytest.mark.parametrize("grid", ["diagonal", "row", "column", "cosine"])
    def test_wide_range_matches_log_domain_reference(self, grid, ratio):
        if grid == "diagonal":
            scores = np.eye(8) + 0.1 * np.random.default_rng(4).uniform(size=(8, 8))
        else:
            scores, _ = _cosine_grid(4, 4, 5, 1.0)
            # one row (or column) far below the rest of the range
            if grid == "row":
                scores[0] -= 2.0
            elif grid == "column":
                scores[:, 0] -= 2.0
        epsilon = (scores.max() - scores.min()) / ratio
        for max_iter in (100, 2000):
            q, iterations, residual = _log_domain_reference(scores, epsilon, 1e-9,
                                                            max_iter)
            if residual > 100 * 1e-9:
                with pytest.raises(NotConverged) as exc:
                    _solve(scores, epsilon, 1e-9, max_iter)
                assert exc.value.residual == pytest.approx(residual, rel=0, abs=1e-12)
                continue
            plan = _solve(scores, epsilon, 1e-9, max_iter)
            assert plan.iterations_used == iterations
            assert plan.residual == pytest.approx(residual, rel=0, abs=1e-12)
            assert np.all(np.isfinite(plan.q)) and plan.q.min() >= 0.0
            # a smaller entry may come out 0: its kernel entry underflowed
            big = q > 1e-100
            np.testing.assert_allclose(plan.q[big], q[big], rtol=1e-11, atol=0)
            assert plan.q[~big].max(initial=0.0) <= 1e-100

    @pytest.mark.parametrize("isolated", ["row", "column"])
    def test_isolated_line_just_below_the_switch(self, rng, isolated):
        # at 349 epsilons, the two rows (or columns) of _shared_top_column
        # drive their scalings u (or v) to about exp(KERNEL_RANGE) times the
        # rest, and their K v down to about 1e-150
        scores = _shared_top_column(rng)
        if isolated == "column":
            scores = scores.T.copy()
        epsilon = (scores.max() - scores.min()) / (KERNEL_RANGE - 1.0)
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-9, 5000)
        assert np.all(np.isfinite(plan.q)) and plan.q.min() >= 0.0
        assert plan.residual <= 1e-9 and not plan.warning
        np.testing.assert_allclose(plan.q.sum(axis=0), 1.0 / 8.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(plan.q.sum(axis=1), 1.0 / 8.0, rtol=0, atol=1e-9)
        # log u_i - log u_k = log(Q_ij / Q_kj) - (a_ij + f_i) + (a_kj + f_k)
        # for the row shifts f = -max_j a_ij, read here in column 1
        a = scores / epsilon
        q = plan.q
        if isolated == "column":
            a, q = a.T, q.T
        log_u = np.log(q[:, 1]) - (a[:, 1] - a.max(axis=1))
        assert log_u.max() - log_u.min() > 0.95 * KERNEL_RANGE


class TestNewtonFinish:
    def test_capped_grid_reaches_tol(self):
        # the plain loop stops at its cap 100x above tol and would raise
        scores, epsilon = _cosine_grid(8, 12, 12, 300.0)
        _, _, residual = _log_domain_reference(scores, epsilon, 1e-9, 2000)
        assert residual > 100 * 1e-9
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-9, 2000)
        _check_newton_finish(plan, scores, epsilon, 1e-9)
        assert plan.iterations_used == len(plan.residual_history) < 2000

    def test_solve_before_the_switch_is_the_plain_loop(self):
        scores, epsilon = _cosine_grid(1, 16, 16, 60.0)
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-4, 2000)
        q, history = _plain_loop(scores, epsilon, 1e-4, 2000)
        assert plan.newton_steps == 0 and len(history) < NEWTON_AFTER
        assert plan.residual_history == history
        assert np.array_equal(plan.q, q)

    def test_sweeps_before_the_switch_are_the_plain_loop(self):
        scores, epsilon = _cosine_grid(4, 9, 14, KERNEL_RANGE - 1.0)
        plan = _solve(scores, epsilon, 1e-4, 2000)
        _, history = _plain_loop(scores, epsilon, 1e-4, 2000)
        assert plan.newton_steps > 0 and len(history) > NEWTON_AFTER
        assert plan.residual_history[:NEWTON_AFTER] == history[:NEWTON_AFTER]

    @pytest.mark.parametrize("n,m", [(40, 24), (24, 40)])
    def test_non_square_grid(self, n, m):
        rng = np.random.default_rng(n)
        scores = random_unit_rows(rng, n, 6) @ random_unit_rows(rng, m, 6).T
        plan = sinkhorn_plan(SimilarityMatrix(scores), 0.01, 1e-9, 2000)
        _check_newton_finish(plan, scores, 0.01, 1e-9)
        np.testing.assert_allclose(plan.q.sum(axis=1), 1.0 / n, rtol=0, atol=1e-9)

    def test_failed_solve_is_a_rejected_step(self, monkeypatch):
        # the first Newton solve raises; the step is counted and rejected,
        # and the solve goes back to NEWTON_AFTER sweeps before the next one
        scores, epsilon = _cosine_grid(8, 12, 12, 300.0)
        solve = np.linalg.solve
        calls = []

        def failing_once(a, b):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_once)
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-9, 2000)
        history = plan.residual_history
        assert plan.newton_steps == len(calls) > 1
        assert history[NEWTON_AFTER] == history[NEWTON_AFTER - 1]
        assert plan.iterations_used > 2 * NEWTON_AFTER
        n, m = scores.shape
        assert plan.residual <= 1e-9 and not plan.warning
        np.testing.assert_allclose(plan.q.sum(axis=0), 1.0 / m, rtol=0, atol=1e-14)
        assert np.abs(plan.q.sum(axis=1) - 1.0 / n).sum() <= plan.residual + 1e-14

    def test_wide_grid_takes_no_newton_step(self):
        # 500 epsilons wide: past the switch, but plain sweeps throughout
        scores, epsilon = _cosine_grid(7, 10, 14, 500.0)
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-9, 2000)
        q, iterations, residual = _log_domain_reference(scores, epsilon, 1e-9, 2000)
        assert plan.newton_steps == 0
        assert plan.iterations_used == iterations > NEWTON_AFTER
        assert plan.residual == pytest.approx(residual, rel=0, abs=1e-12)

    @pytest.mark.parametrize("grid", ["slow", "rejected-steps"])
    def test_residual_history_non_increasing(self, rng, grid):
        if grid == "slow":
            scores, epsilon = _cosine_grid(3, 10, 10, 250.0)
        else:
            # the first Newton steps on this grid overshoot and are rejected
            scores = _shared_top_column(rng)
            epsilon = 1.0 / (KERNEL_RANGE - 1.0)
        plan = sinkhorn_plan(SimilarityMatrix(scores), epsilon, 1e-9, 5000)
        assert plan.newton_steps > 0 and plan.residual <= 1e-9
        if grid == "rejected-steps":
            assert plan.iterations_used > 2 * NEWTON_AFTER
        # as in TestSinkhorn, a plain sweep may add rounding at 1e-16
        assert np.all(np.diff(plan.residual_history) <= 1e-12)


class TestBlendTargets:
    def _uniform_plan(self, b):
        return TransportPlan(np.full((b, b), 1.0 / b ** 2), 1, 0.0)

    def test_beta_zero_is_identity(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(4, 4)))
        plan = sinkhorn_plan(s, 0.5)
        out = blend_targets(plan.q, 0.0)
        np.testing.assert_allclose(out, np.eye(4), atol=1e-12)

    def test_beta_one_uniform_plan(self):
        out = blend_targets(self._uniform_plan(5).q, 1.0)
        np.testing.assert_allclose(out, 1.0 / 5.0, atol=1e-15)

    def test_half_blend_hand_arithmetic(self):
        out = blend_targets(self._uniform_plan(4).q, 0.5)
        expected = np.full((4, 4), 0.125)
        np.fill_diagonal(expected, 0.625)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-15)

    def test_rows_stochastic_for_solved_plan(self, rng):
        s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 6)))
        plan = sinkhorn_plan(s, 0.2, tol=1e-10, max_iter=50000)
        out = blend_targets(plan.q, 0.7)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert out.min() >= 0.0

    def test_non_square_rejected(self):
        plan = TransportPlan(np.full((2, 3), 1.0 / 6), 1, 0.0)
        with pytest.raises(ShapeMismatch, match="blending needs a square plan, got 2x3"):
            blend_targets(plan.q, 0.5)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            blend_targets(self._uniform_plan(3).q, 1.5)


class TestLossOpt:
    def test_gradient_zero_at_fixed_point(self, rng):
        scores = rng.normal(size=(4, 4))
        s = SimilarityMatrix(scores)
        target = row_softmax(scores)
        out = loss_opt(s, target)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_uniform_target_constant_rows(self):
        s = SimilarityMatrix(np.full((3, 5), 0.2))
        target = np.full((3, 5), 0.2)
        out = loss_opt(s, target)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)
        assert out.value == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_against_finite_differences(self, rng):
        scores = rng.normal(size=(5, 5))
        raw = rng.uniform(0.1, 1.0, size=(5, 5))
        target = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores), target)
        fd = fd_grad(lambda x: loss_opt(SimilarityMatrix(x), target).value, scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_gradient_with_temperature(self, rng):
        scores = rng.normal(size=(4, 6))
        raw = rng.uniform(0.1, 1.0, size=(4, 6))
        target = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores, temperature=0.3), target)
        fd = fd_grad(
            lambda x: loss_opt(SimilarityMatrix(x, temperature=0.3), target).value,
            scores)
        assert max_rel_error(out.grad, fd) < 1e-6

    def test_gradient_rows_sum_to_zero(self, rng):
        scores = rng.normal(size=(6, 6))
        raw = rng.uniform(0.1, 1.0, size=(6, 6))
        target = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores), target)
        np.testing.assert_allclose(out.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_eq12_structure(self, rng):
        scores = rng.normal(size=(4, 4))
        raw = rng.uniform(0.1, 1.0, size=(4, 4))
        q = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores), q)
        p = row_softmax(scores)
        np.testing.assert_allclose(out.grad, -(q - p) / 4.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_opt(SimilarityMatrix(np.zeros((2, 3))),
                     np.eye(2))

    def test_descent_drives_rows_uniform(self):
        # minimizing the loss alone over free logits with uniform targets
        rng = np.random.default_rng(7)
        n, m = 16, 8
        scores = rng.normal(size=(n, m))
        target = np.full((n, m), 1.0 / m)
        lr = 2.0 * n
        for step in range(2000):
            out = loss_opt(SimilarityMatrix(scores), target)
            scores = scores - lr * out.grad
            p = row_softmax(scores)
            if np.abs(p - 1.0 / m).max() < 1e-3:
                break
        assert np.abs(row_softmax(scores) - 1.0 / m).max() < 1e-3
