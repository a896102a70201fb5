"""Uniform-marginal transport: Sinkhorn solver, target blending, and the
uniformity regularization loss.

The transport problem maximizes <Q, S> subject to uniform marginals
Q 1 = (1/n) 1 and Q^T 1 = (1/m) 1. We solve the entropy-regularized
version, whose fixed point is Q = diag(u) exp(S / eps) diag(v). The
alternating scaling multiplies u and v against a kernel exp(S / eps + f + g)
(Cuturi 2013), whose potentials f and g shift every row and column maximum
to 1. For score ranges wider than ``KERNEL_RANGE`` epsilons, u and v are
absorbed into f and g whenever they leave a safe range (Schmitzer 2019), so
one loop covers every finite range. Within ``KERNEL_RANGE``, a solve still
above tolerance after ``NEWTON_AFTER`` sweeps is finished with Newton steps
on (log u, log v) (Brauer, Clason, Lorenz & Wirth 2017), which converge
quadratically where the plain loop's linear rate has stalled; sweeps and
Newton steps share one iteration cap. Gradients never flow through the
solver; downstream losses treat the plan as a constant target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SimilarityMatrix, row_log_softmax
from .errors import NotConverged, ShapeMismatch
from .losses import LossBundle


@dataclass
class TransportPlan:
    """Nonnegative matrix with (approximately) uniform marginals."""

    q: np.ndarray
    iterations_used: int
    residual: float
    residual_history: list = field(default_factory=list)
    warning: bool = False
    newton_steps: int = 0


# Widest range max(S/eps) - min(S/eps) that needs no absorption. The kernel
# then spans at most exp(-350), and the scalings u and v can each drift by
# about that range again, so products such as K v stay above exp(-700),
# inside float64's exp range of about 709. Above it, u and v are absorbed
# as soon as either leaves [1e-100, 1e100], which keeps a kernel entry
# times both scalings inside float64 for any range.
KERNEL_RANGE = 350.0

# The defaults of sinkhorn_plan and of TrainConfig's sinkhorn_tol and
# sinkhorn_max_iter. The cap leaves room for Newton steps after NEWTON_AFTER.
SINKHORN_TOL = 1e-6
SINKHORN_MAX_ITER = 2000

# Plain sweeps after which a solve still above tol switches to Newton steps.
# Most solves of a training run converge within this many sweeps and are
# left exactly as the plain loop returns them.
NEWTON_AFTER = 200

# Added to the diagonal of the Newton system, whose matrix is singular along
# the (1, -1) direction that scales u up and v down by the same factor.
_NEWTON_RIDGE = 1e-12


def _newton_step(k: np.ndarray, k_t: np.ndarray, u: np.ndarray,
                 v: np.ndarray, kv: np.ndarray):
    """One Newton step on (log u, log v) for the plan u K v, finished by a
    column update: the new (u, v, K v, residual), or None when the linear
    solve fails.

    The Jacobian of the marginals is [[diag(r), P], [P^T, diag(c)]] for row
    sums r and column sums c. Eliminating the step in log u leaves the m x m
    Schur system (diag(c) - P^T diag(1/r) P) dy = P^T diag(1/r) e_r - e_c in
    the step dy of log v, for the marginal errors e_r and e_c.
    """
    n, m = k.shape
    p = u[:, None] * k * v[None, :]
    rows = u * kv
    cols = p.sum(axis=0)
    e_r = rows - 1.0 / n
    e_c = cols - 1.0 / m
    p_r = p / rows[:, None]
    schur = -(p_r.T @ p)
    schur[np.diag_indices(m)] += cols + _NEWTON_RIDGE
    try:
        dy = np.linalg.solve(schur, p_r.T @ e_r - e_c)
    except np.linalg.LinAlgError:
        return None
    u = u * np.exp(-(e_r + p @ dy) / rows)
    v = (1.0 / m) / (k_t @ u)
    kv = k @ v
    return u, v, kv, float(np.abs(u * kv - 1.0 / n).sum())


def sinkhorn_plan(s: SimilarityMatrix, epsilon: float,
                  tol: float = SINKHORN_TOL,
                  max_iter: int = SINKHORN_MAX_ITER) -> TransportPlan:
    """Entropic transport plan with uniform marginals via Sinkhorn scaling.

    Iterates alternating row/column updates until the L1 error of the row
    marginals drops to ``tol`` or ``max_iter`` is hit; each column update
    leaves the column marginals exact up to rounding. If the cap is hit
    with a residual still above 100x tol, or the residual is not finite
    (``S / epsilon`` overflowed), raises NotConverged; otherwise a plan
    stopped at the cap is returned with ``warning`` set, and no Python
    warning is emitted.

    Each sweep is two matrix-vector products with the kernel
    K = exp(S / epsilon + f + g). When ``(max S - min S) / epsilon`` exceeds
    ``KERNEL_RANGE``, scalings that leave [1e-100, 1e100] are folded into the
    potentials f and g and the kernel is rebuilt.

    Otherwise, once ``NEWTON_AFTER`` sweeps leave the residual above
    ``tol``, each iteration is a Newton step (see ``_newton_step``), which
    also ends with a column update. A step is kept only if it lowers the
    residual; a rejected step leaves the plan as it was and returns to
    ``NEWTON_AFTER`` more sweeps. ``max_iter`` caps sweeps and Newton steps
    together, and ``newton_steps`` counts the steps, rejected ones included.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, m = s.scores.shape
    # an overflowed S / epsilon turns into NaN here and ends in NotConverged
    with np.errstate(over="ignore", invalid="ignore"):
        a = s.scores / epsilon
        wide = a.max() - a.min() > KERNEL_RANGE
        f = -a.max(axis=1)
        row_shifted = a + f[:, None]
        g = -row_shifted.max(axis=0)
    # every row and column of k holds an entry of exactly 1
    k = np.exp(row_shifted + g[None, :])
    k_t = np.ascontiguousarray(k.T)
    # v = 1 against exp(S / eps) is v = exp(-g) against k. As g >= 0 and each
    # row's entry 1 sits in a column with g = 0, kv lies in [1, m].
    kv = k @ np.exp(-g)
    history: list[float] = []
    newton_steps = 0
    newton_at = max_iter if wide else NEWTON_AFTER
    for iteration in range(max_iter):
        if iteration < newton_at:
            u = (1.0 / n) / kv
            v = (1.0 / m) / (k_t @ u)
            # the row sums are u * kv, kv being the next row update's input
            kv = k @ v
            history.append(float(np.abs(u * kv - 1.0 / n).sum()))
        else:
            newton_steps += 1
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                step = _newton_step(k, k_t, u, v, kv)
            # a NaN residual from an overflowed step fails this comparison too
            if step is not None and step[3] < history[-1]:
                u, v, kv, residual = step
                history.append(residual)
            else:
                newton_at = iteration + 1 + NEWTON_AFTER
                history.append(history[-1])
        if history[-1] <= tol or not math.isfinite(history[-1]):
            break
        if wide and not (1e-100 <= min(u.min(), v.min())
                         and max(u.max(), v.max()) <= 1e100):
            f += np.log(u)
            g += np.log(v)
            k = np.exp(a + f[:, None] + g[None, :])
            k_t = np.ascontiguousarray(k.T)
            u, v = np.ones(n), np.ones(m)
            kv = k.sum(axis=1)
    residual = history[-1]
    if not residual <= 100.0 * tol:
        raise NotConverged(residual, tol)
    return TransportPlan(u[:, None] * k * v[None, :], len(history),
                         residual, history, residual > tol, newton_steps)


def blend_targets(q: np.ndarray, beta: float) -> np.ndarray:
    """Mix the identity with the row-stochastic rescaled plan matrix q.

    The plan's rows sum to 1/B up to its residual; dividing each row by its
    sum makes it the row-stochastic B Q, after which the blend is
    (1 - beta) I + beta (B Q), whose rows sum to 1.
    """
    b, m = q.shape
    if b != m:
        raise ShapeMismatch(f"blending needs a square plan, got {b}x{m}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return (1.0 - beta) * np.eye(b) + beta * (q / q.sum(axis=1, keepdims=True))


def loss_opt(s: SimilarityMatrix, q: np.ndarray) -> LossBundle:
    """Uniformity regularization: cross-entropy of row softmax against the
    row-stochastic target q, such as ``blend_targets`` returns.

    value = -(1/n) sum_ij q_ij log P(j|i)
    grad  = -(1/(n tau)) (q_ij - P(j|i))   (rows of q sum to 1)
    """
    if q.shape != s.scores.shape:
        raise ShapeMismatch(f"target {q.shape} does not match scores {s.scores.shape}")
    n = s.n
    logp = row_log_softmax(s.scores, s.temperature)
    value = -(q * logp).sum(axis=1).mean()
    grad = -(q - np.exp(logp)) / (n * s.temperature)
    return LossBundle(float(value), grad)
