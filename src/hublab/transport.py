"""Uniform-marginal transport: Sinkhorn solver, target blending, and the
uniformity regularization loss.

The transport problem maximizes <Q, S> subject to uniform marginals
Q 1 = (1/n) 1 and Q^T 1 = (1/m) 1. We solve the entropy-regularized
version, whose fixed point is Q = diag(u) exp(S / eps) diag(v). The
alternating scaling multiplies u and v against the kernel exp(S / eps)
(Cuturi 2013) whenever that kernel, shifted by its maximum, fits in float64
with a margin; otherwise it runs in the log domain. Gradients never flow
through the solver; downstream losses treat the plan as a constant target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import SimilarityMatrix, logsumexp, row_log_softmax
from .errors import NonSquarePlan, NotConverged, ShapeMismatch
from .losses import LossBundle


@dataclass
class TransportPlan:
    """Nonnegative matrix with (approximately) uniform marginals."""

    q: np.ndarray
    row_marginal: float
    col_marginal: float
    epsilon: float
    iterations_used: int
    residual: float
    residual_history: list = field(default_factory=list)
    warning: bool = False

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[1]

    def summary(self) -> dict:
        """Small diagnostic block for JSON reports."""
        return {
            "epsilon": self.epsilon,
            "iterations_used": self.iterations_used,
            "residual": self.residual,
            "warning": self.warning,
        }


@dataclass
class BlendedTarget:
    """Row-stochastic blend of the identity with the rescaled plan."""

    q_blend: np.ndarray
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


# Widest range max(S/eps) - min(S/eps) solved in the kernel domain. The
# kernel K = exp(S/eps - max) then spans at most exp(-350), and the scalings
# u and v can each drift by about that range again, so products such as
# K v stay above exp(-700), inside float64's exp range of about 709.
KERNEL_RANGE = 350.0


def sinkhorn_plan(s: SimilarityMatrix, epsilon: float,
                  tol: float = 1e-6, max_iter: int = 200) -> TransportPlan:
    """Entropic transport plan with uniform marginals via Sinkhorn scaling.

    Iterates alternating row/column updates until the L1 error of the row
    marginals drops to ``tol`` or ``max_iter`` is hit; each column update
    leaves the column marginals exact up to rounding. If the cap is hit
    with a residual still above 100x tol, raises NotConverged; otherwise
    the plan is returned with ``warning`` set.

    When ``(max S - min S) / epsilon`` is at most ``KERNEL_RANGE``, each
    iteration is two matrix-vector products with the kernel; above it (or
    when ``S / epsilon`` overflows) the same iterations run on log-domain
    potentials, with two log-sum-exp passes each.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, m = s.scores.shape
    a = s.scores / epsilon
    # false for an overflowed (inf or NaN) range, which goes to the log domain
    if a.max() - a.min() <= KERNEL_RANGE:
        q, history = _kernel_scaling(a, tol, max_iter)
    else:
        q, history = _log_scaling(a, tol, max_iter)
    residual = history[-1]
    warn = residual > tol
    if warn and residual > 100.0 * tol:
        raise NotConverged(residual, tol)
    if warn:
        warnings.warn(
            f"sinkhorn stopped at residual {residual:.3e} > tol {tol:.3e}",
            RuntimeWarning, stacklevel=2)
    return TransportPlan(q, 1.0 / n, 1.0 / m, epsilon, len(history),
                         residual, history, warn)


def _kernel_scaling(a: np.ndarray, tol: float,
                    max_iter: int) -> tuple[np.ndarray, list]:
    """Sinkhorn on the scalings u, v of K = exp(a - max a); returns the plan
    diag(u) K diag(v) and the residual after each iteration."""
    n, m = a.shape
    k = np.exp(a - a.max())
    k_t = np.ascontiguousarray(k.T)
    kv = k.sum(axis=1)
    history: list[float] = []
    for _ in range(max_iter):
        u = (1.0 / n) / kv
        v = (1.0 / m) / (k_t @ u)
        # the row sums are u * kv, kv being the next row update's input
        kv = k @ v
        history.append(float(np.abs(u * kv - 1.0 / n).sum()))
        if history[-1] <= tol:
            break
    return u[:, None] * k * v[None, :], history


def _log_scaling(a: np.ndarray, tol: float,
                 max_iter: int) -> tuple[np.ndarray, list]:
    """Sinkhorn on the potentials f = log u, g = log v, for kernels whose
    range does not fit in float64; returns the plan and the residuals."""
    n, m = a.shape
    log_r = -np.log(n)
    log_c = -np.log(m)
    lse = logsumexp(a, axis=1)
    history: list[float] = []
    for _ in range(max_iter):
        f = log_r - lse
        g = log_c - logsumexp(a + f[:, None], axis=0)
        # the row sums are exp(f + lse), lse being the next row update's input
        lse = logsumexp(a + g[None, :], axis=1)
        history.append(float(np.abs(np.exp(f + lse) - 1.0 / n).sum()))
        if history[-1] <= tol:
            break
    return np.exp(a + f[:, None] + g[None, :]), history


def blend_targets(plan: TransportPlan, beta: float) -> BlendedTarget:
    """Mix the identity with the row-stochastic rescaled plan.

    The plan's rows sum to 1/B; multiplying by B (and dividing out the
    residual row error) makes it row-stochastic, after which
    q_blend = (1 - beta) I + beta (B Q).
    """
    if plan.n != plan.m:
        raise NonSquarePlan(f"blending needs a square plan, got {plan.n}x{plan.m}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    b = plan.n
    scaled = plan.q * b
    scaled = scaled / scaled.sum(axis=1, keepdims=True)
    q_blend = (1.0 - beta) * np.eye(b) + beta * scaled
    return BlendedTarget(q_blend, beta)


def loss_opt(s: SimilarityMatrix, target: BlendedTarget) -> LossBundle:
    """Uniformity regularization: cross-entropy of row softmax against the
    blended transport target.

    value = -(1/n) sum_ij q_ij log P(j|i)
    grad  = -(1/(n tau)) (q_ij - P(j|i))   (rows of q sum to 1)
    """
    if target.q_blend.shape != s.scores.shape:
        raise ShapeMismatch(
            f"target {target.q_blend.shape} does not match scores {s.scores.shape}")
    n = s.n
    logp = row_log_softmax(s.scores, s.temperature)
    per_sample = -(target.q_blend * logp).sum(axis=1)
    value = per_sample.mean()
    grad = -(target.q_blend - np.exp(logp)) / (n * s.temperature)
    return LossBundle(float(value), grad, per_sample)
