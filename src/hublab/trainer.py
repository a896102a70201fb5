"""Desk-scale trainer: synthetic planted-hub data, analytic-gradient
descent on the combined objective, and parameter-space gradient checks.

The model is either a free embedding table (one learnable vector per
sample) or a linear projection over fixed features. Embeddings are unit
normalized inside the forward pass and the chain rule through that
normalization is applied analytically, so finite differences over raw
parameters reproduce the assembled gradients.

Targets are constants within a step: centrality weights, neighbor target
vectors, and transport plans are computed from the current batch and
memory bank, then held fixed while the loss is differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .bank import (
    MemoryBank,
    centrality_weights,
    cross_centrality,  # not called here; benchmarks/spans.py wraps it by name
    intra_centrality,  # not called here; benchmarks/spans.py wraps it by name
    push_batch,
)
from .core import (
    MODALITIES,
    MODALITY_GALLERY,
    MODALITY_QUERY,
    EmbeddingSet,
    SimilarityMatrix,
    cosine_blocks,
    cosine_similarity_matrix,  # not called here; benchmarks/spans.py wraps it by name
    l2_normalize,
    opposite,
    row_norms,
)
from .errors import DivergenceDetected, NotConverged, OutOfRange
from .hubness import ATKINSON_EPSILON, HUB_SIZE_FACTOR, hubness_report
from .losses import (
    GRAD_MODE_EXACT,
    GRAD_MODE_PAPER,
    LOSS_PARTS,
    LossBundle,
    NeighborSet,
    loss_kl,  # not called here; benchmarks/spans.py wraps hublab.trainer.loss_kl by name
    loss_nbi,
    loss_wti,
    neighbor_targets,
    select_neighbors,
    total_loss,
)
from .transport import (
    SINKHORN_MAX_ITER,
    SINKHORN_TOL,
    TransportPlan,
    blend_targets,
    loss_opt,
    sinkhorn_plan,
)

MODEL_TABLE = "embedding-table"
MODEL_PROJECTION = "linear-projection"

POOL_BATCH = "batch"
POOL_BANK = "bank"

CURVE_COLUMNS = ("step", "total", *LOSS_PARTS,
                 "sinkhorn_residual", "sinkhorn_iterations")


@dataclass
class TrainConfig:
    """Every knob of the training loop; the seed fixes all randomness."""

    kappa: float = 0.1
    beta: float = 0.5
    epsilon_sinkhorn: float = 0.05
    sinkhorn_tol: float = SINKHORN_TOL
    sinkhorn_max_iter: int = SINKHORN_MAX_ITER
    temperature: float = 1.0
    k_neighbors: int = 20
    bank_capacity: int = 10240
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    grad_mode: str = GRAD_MODE_EXACT
    model: str = MODEL_TABLE
    use_wti: bool = True
    use_nbi: bool = True
    use_opt: bool = True
    neighbor_pool: str = POOL_BATCH
    k: int = 15
    hub_size_factor: float = HUB_SIZE_FACTOR
    atkinson_epsilon: float = ATKINSON_EPSILON

    def __post_init__(self):
        if self.grad_mode not in (GRAD_MODE_EXACT, GRAD_MODE_PAPER):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if self.model not in (MODEL_TABLE, MODEL_PROJECTION):
            raise ValueError(f"unknown model {self.model!r}")
        if self.neighbor_pool not in (POOL_BATCH, POOL_BANK):
            raise ValueError(f"unknown neighbor_pool {self.neighbor_pool!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        for name in ("kappa", "epsilon_sinkhorn", "sinkhorn_tol", "temperature"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("k_neighbors", "bank_capacity", "epochs", "sinkhorn_max_iter", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a batch of one row has no contrast and takes no step
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.atkinson_epsilon < 1.0:
            raise ValueError("atkinson_epsilon must lie in (0, 1)")


@dataclass
class PairedData:
    """Matched query/gallery embeddings: query row i pairs with gallery row i.

    ``planted`` flags the gallery rows that were contracted toward the
    centroid by the synthetic generator (all False for imported data).
    """

    queries: EmbeddingSet
    galleries: EmbeddingSet
    planted: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.queries.n


@dataclass
class TrainResult:
    queries: EmbeddingSet
    galleries: EmbeddingSet
    loss_curve: list
    report_before: dict
    report_after: dict


_ANCHOR_SCALE = 1.0  # shared-direction strength, relative to sqrt(d)


def synth_generate(n_pairs: int, d: int, hub_fraction: float,
                   contraction: float, noise: float, seed: int) -> PairedData:
    """Synthetic matched pairs with a planted-hub subset.

    Gallery vectors share a common direction (so the gallery centroid is
    meaningful); a ``hub_fraction`` subset is contracted toward that
    centroid, which raises their similarity to everything and makes them
    behave like hubs. Queries are noisy copies of their gallery mates.
    ``contraction`` of 1.0 leaves the planted rows untouched.
    """
    if not 0.0 <= hub_fraction < 1.0:
        raise OutOfRange(f"hub_fraction must lie in [0, 1), got {hub_fraction}")
    if not 0.0 < contraction <= 1.0:
        raise OutOfRange(f"contraction must lie in (0, 1], got {contraction}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    anchor_rng, z_rng, pick_rng, noise_rng = np.random.default_rng(seed).spawn(4)

    anchor = anchor_rng.normal(size=d)
    anchor /= np.linalg.norm(anchor)
    raw = _ANCHOR_SCALE * np.sqrt(d) * anchor + z_rng.normal(size=(n_pairs, d))
    galleries = raw / row_norms(raw)[:, None]

    planted = np.zeros(n_pairs, dtype=bool)
    n_hub = int(round(hub_fraction * n_pairs))
    if n_hub:
        chosen = np.sort(pick_rng.choice(n_pairs, size=n_hub, replace=False))
        planted[chosen] = True
        centroid = galleries.mean(axis=0)
        moved = centroid + contraction * (galleries[chosen] - centroid)
        galleries[chosen] = moved / row_norms(moved)[:, None]

    if noise > 0:
        # noise is the expected perturbation norm relative to the unit mate
        jitter = galleries + noise / np.sqrt(d) * noise_rng.normal(size=(n_pairs, d))
        queries = jitter / row_norms(jitter)[:, None]
    else:
        queries = galleries.copy()

    classes = list(range(n_pairs))
    return PairedData(
        queries=EmbeddingSet(queries, MODALITY_QUERY,
                             ids=[f"q{i:05d}" for i in range(n_pairs)], labels=classes),
        galleries=EmbeddingSet(galleries, MODALITY_GALLERY,
                               ids=[f"g{i:05d}" for i in range(n_pairs)],
                               labels=list(classes)),
        planted=planted,
    )


def _finite_norms(raw: np.ndarray) -> np.ndarray:
    """Row norms of raw embeddings; diverged parameters show here first, as an
    overflowed norm would silently zero its row and leave NaN for later."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(raw)[:, None]
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise DivergenceDetected("embedding norms overflowed or vanished")
    return norms


class _Model:
    """Unit-normalized query and gallery embeddings over raw rows.

    Subclasses supply the raw rows (``_raw``), the parameter gradients
    from dL/d(raw rows) (``_param_grads``) and any renormalization of the
    parameters after a step (``postprocess``).
    """

    params: list

    def forward(self, idx) -> tuple[np.ndarray, np.ndarray, list]:
        """Unit query and gallery rows, and the norms of their raw rows."""
        raws = self._raw(idx)
        norms = [_finite_norms(raw) for raw in raws]
        return raws[0] / norms[0], raws[1] / norms[1], norms

    def full_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        return self.forward(slice(None))[:2]

    def backward(self, idx, eq, eg, norms, d_eq, d_eg):
        """Parameter gradients from dL/d(eq) and dL/d(eg), through the row
        normalization of ``forward``."""
        d_raw = [(d_e - (d_e * e).sum(axis=1, keepdims=True) * e) / norm
                 for d_e, e, norm in zip((d_eq, d_eg), (eq, eg), norms)]
        return self._param_grads(idx, d_raw)

    def postprocess(self):
        pass


class _TableModel(_Model):
    """One learnable vector per sample, renormalized after every step."""

    def __init__(self, queries: EmbeddingSet, galleries: EmbeddingSet):
        self.params = [queries.data, galleries.data]

    def _raw(self, idx):
        return [table[idx] for table in self.params]

    def _param_grads(self, idx, d_raw):
        grads = [np.zeros_like(table) for table in self.params]
        for grad, rows in zip(grads, d_raw):
            grad[idx] = rows
        return grads

    def postprocess(self):
        for table in self.params:
            table /= _finite_norms(table)


class _ProjectionModel(_Model):
    """Shared-dimension linear heads over frozen features, one per modality."""

    def __init__(self, queries: EmbeddingSet, galleries: EmbeddingSet):
        self.feats = [queries.data, galleries.data]
        self.params = [np.eye(queries.dim), np.eye(galleries.dim)]

    def _raw(self, idx):
        return [feats[idx] @ w for feats, w in zip(self.feats, self.params)]

    def _param_grads(self, idx, d_raw):
        return [feats[idx].T @ rows for feats, rows in zip(self.feats, d_raw)]


def _build_model(config: TrainConfig, data: PairedData) -> _Model:
    """The configured model over the unit rows of both sides. Neighbors need
    a second pair, and every batch goes into the bank, so too few pairs or a
    batch larger than the bank fails here, before any work."""
    if data.n < 2:
        raise OutOfRange(f"train needs at least 2 pairs, got {data.n}")
    batch = min(config.batch_size, data.n)
    if batch > config.bank_capacity:
        raise OutOfRange(f"bank_capacity {config.bank_capacity} is smaller than a batch "
                         f"of {batch} rows (batch_size {config.batch_size})")
    queries, galleries = l2_normalize(data.queries), l2_normalize(data.galleries)
    if config.model == MODEL_TABLE:
        return _TableModel(queries, galleries)
    return _ProjectionModel(queries, galleries)


class Adam:
    """Plain Adam over a list of parameter arrays.

    ``step`` updates the moments and the parameters in place, through one
    scratch array per parameter, and takes each gradient array as a second
    scratch once the moments have read it.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [np.empty_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        for p, g, m, v, s in zip(params, grads, self.m, self.v, self.scratch):
            m *= self.BETA1
            m += np.multiply(1 - self.BETA1, g, out=s)
            v *= self.BETA2
            # g * g overflows long before g does, and an infinite moment
            # would turn every later update of its entries into 0
            with np.errstate(over="ignore"):
                v += np.multiply(np.multiply(1 - self.BETA2, g, out=s), g, out=s)
            if not np.all(np.isfinite(v)):
                raise DivergenceDetected("Adam second moment overflowed")
            # lr * m_hat / (sqrt(v_hat) + EPS), the gradient now spent
            step = np.multiply(self.lr, np.divide(m, 1 - self.BETA1 ** self.t, out=g), out=g)
            denom = np.add(np.sqrt(np.divide(v, 1 - self.BETA2 ** self.t, out=s), out=s),
                           self.EPS, out=s)
            p -= np.divide(step, denom, out=g)


@dataclass
class _Direction:
    """One retrieval direction's constants for a step: the anchors' weights,
    the bank pool of candidate-side vectors (or None), the NBI
    (NeighborSet, H) pair over all anchors (or None) and the transport
    target (or None)."""

    weights: np.ndarray
    pool: np.ndarray | None
    nbi: tuple | None
    opt: np.ndarray | None


@dataclass
class _BatchTargets:
    """Constants for one optimization step (no gradients flow into these)."""

    directions: dict  # "q2g" / "g2q" -> _Direction
    plan: TransportPlan | None


def _queue_means(bank: MemoryBank) -> dict:
    """The mean vector of each non-empty bank queue, by modality."""
    return {m: bank.vectors(m).mean(axis=0) for m in MODALITIES if bank.fill(m)}


def _queue_centrality(unit_rows: np.ndarray, queue_mean: np.ndarray | None) -> np.ndarray:
    """Mean cosine of unit rows to a bank queue, read as their cosine with
    the queue's mean, and 0 against an empty queue (unit WTI weights, scores
    left as they are).

    By linearity this is ``bank.intra_centrality``/``cross_centrality`` up
    to rounding, for O(fill·d) work in place of their O(rows·fill·d) gram.
    Those stay a gram because ``retrieve --mode simi-cent`` writes its scores
    to ranked.csv, which the benchmark oracle compares exactly; the two forms
    merge once that oracle follows (ROADMAP item 1).
    """
    if queue_mean is None:
        return np.zeros(unit_rows.shape[0])
    return np.clip(unit_rows @ queue_mean, -1.0, 1.0)


@dataclass
class _RunBuffers:
    """Arrays that one ``train`` call allocates once and every step reuses.

    Each is flat, and a step takes a contiguous view of its leading entries
    (``_view``), so a smaller last batch or a bank that is still filling
    fits. Both are there only with NBI on and the bank pool. ``grids``
    holds one candidate grid per direction, batch x (batch +
    ``bank_capacity``). ``scratch`` first holds the copy of a candidate grid
    that neighbor selection partitions, then, in ``batch_loss``, each
    anchor's k + 1 gathered bank-pool rows, batch x (k_neighbors + 1) x dim;
    it is as large as the larger of the two. The batch pool's b x b grid is
    the batch scores themselves, and its selection copies them afresh.
    """

    grids: dict  # "q2g" / "g2q" -> flat array
    scratch: np.ndarray | None


def _run_buffers(config: TrainConfig, batch: int, dim: int) -> _RunBuffers:
    """Buffers for steps of at most ``batch`` rows of ``dim`` columns."""
    if not config.use_nbi or config.neighbor_pool == POOL_BATCH:
        return _RunBuffers({}, None)
    width = batch + config.bank_capacity
    return _RunBuffers({name: np.empty(batch * width) for name in ("q2g", "g2q")},
                       np.empty(batch * max(width, (config.k_neighbors + 1) * dim)))


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat buffer as a C-contiguous array of ``shape``."""
    return buffer[:np.prod(shape)].reshape(shape)


@dataclass
class _StepGrids:
    """One step's scores, each built once from its embeddings, and the
    buffers that hold them.

    ``scores`` is the batch grid eq @ eg.T. ``candidates`` maps each
    direction to its candidate grid, the batch columns and then any
    bank-pool columns, while NBI is on; ``batch_loss`` drops a direction's
    grid from it once that direction's loss is taken.
    """

    scores: np.ndarray
    candidates: dict  # "q2g" / "g2q" -> SimilarityMatrix
    buffers: _RunBuffers


def _candidate_grid(config: TrainConfig, anchors: np.ndarray, scores: np.ndarray,
                    pool: np.ndarray | None, buffer: np.ndarray | None) -> SimilarityMatrix:
    """Batch scores of one direction, widened by the bank-pool columns, in
    ``buffer`` when there is a pool."""
    if pool is not None:
        b = scores.shape[1]
        grid = _view(buffer, (anchors.shape[0], b + pool.shape[0]))
        grid[:, :b] = scores
        np.matmul(anchors, pool.T, out=grid[:, b:])
        scores = grid
    return SimilarityMatrix(scores, config.temperature)


def _pool_gradient(ns: NeighborSet, local: np.ndarray, pool: np.ndarray, b: int,
                   buffer: np.ndarray) -> np.ndarray:
    """dL/d(anchors) through the bank-pool columns (index b onward) of a
    candidate grid, from the NBI gradient ``local`` over ``ns.plus_indices``:
    each anchor's sum of local[i, t] * pool[plus[i, t] - b] over its pool
    columns, from the rows gathered into ``buffer``."""
    plus = ns.plus_indices
    in_pool = plus >= b
    # every index is valid, and unlike the default "raise", "clip" writes
    # straight into out instead of through a temporary of its size
    rows = np.take(pool, np.where(in_pool, plus - b, 0), axis=0,
                   out=_view(buffer, (*plus.shape, pool.shape[1])), mode="clip")
    return np.matmul(np.where(in_pool, local, 0.0)[:, None, :], rows)[:, 0]


def compute_targets(config: TrainConfig, bank: MemoryBank, eq: np.ndarray,
                    eg: np.ndarray, *, buffers: _RunBuffers | None = None
                    ) -> tuple[_BatchTargets, _StepGrids]:
    """All per-step constants (weights, neighbor targets, transport targets)
    and the step's grids, which ``batch_loss`` takes over the same eq, eg.

    The grids go into ``buffers``, the run's, or into fresh ones."""
    b = eq.shape[0]
    if buffers is None:
        buffers = _run_buffers(config, *eq.shape)
    grids = _StepGrids(eq @ eg.T, {}, buffers)

    plan = None
    if config.use_opt:
        plan = sinkhorn_plan(SimilarityMatrix(grids.scores, config.temperature),
                             config.epsilon_sinkhorn, config.sinkhorn_tol,
                             config.sinkhorn_max_iter)
        plans = {"q2g": plan.q, "g2q": plan.q.T}

    means = _queue_means(bank)
    directions = {}
    for name, anchors, modality, cands, dir_scores in (
            ("q2g", eq, MODALITY_QUERY, eg, grids.scores),
            ("g2q", eg, MODALITY_GALLERY, eq, grids.scores.T)):
        # the anchors' queue gives both their intra centrality and the
        # candidates' cross centrality
        anchor_mean = means.get(modality)
        weights = np.ones(b)
        if config.use_wti:
            weights = centrality_weights(_queue_centrality(anchors, anchor_mean),
                                         config.kappa)
        pool = None
        if config.neighbor_pool == POOL_BANK and bank.fill(opposite(modality)):
            pool = np.asarray(bank.vectors(opposite(modality)))
        nbi = None
        if config.use_nbi:
            cross = _queue_centrality(cands, anchor_mean)
            if pool is not None:
                cross = np.concatenate([cross, _queue_centrality(pool, anchor_mean)])
            s = grids.candidates[name] = _candidate_grid(
                config, anchors, dir_scores, pool, grids.buffers.grids.get(name))
            ns = select_neighbors(s, config.k_neighbors, scratch=grids.buffers.scratch)
            nbi = ns, neighbor_targets(s, ns, cross)
        opt = blend_targets(plans[name], config.beta) if config.use_opt else None
        directions[name] = _Direction(weights, pool, nbi, opt)
    return _BatchTargets(directions, plan), grids


def batch_loss(config: TrainConfig, eq: np.ndarray, eg: np.ndarray,
               targets: _BatchTargets, grids: _StepGrids | None = None):
    """Assemble the half-sum objective over both directions.

    ``grids`` are the ones ``compute_targets`` built from these same eq and
    eg; each direction's candidate grid is dropped from it once its loss is
    taken. Without them the grids are built here, as ``grad_check`` needs
    for perturbed embeddings.

    Returns (value, per-part values, dL/d(eq), dL/d(eg)), the last two
    through the batch grid and any bank-pool neighbor columns.
    """
    b = eq.shape[0]
    if grids is None:
        grids = _StepGrids(eq @ eg.T, {}, _run_buffers(config, *eq.shape))
    parts = {}
    pool_grads = {}
    for name, anchors, dir_scores in (("q2g", eq, grids.scores),
                                      ("g2q", eg, grids.scores.T)):
        target = targets.directions[name]
        s = SimilarityMatrix(dir_scores, config.temperature)
        part = parts[name] = {}
        if config.use_wti:
            part["wti"] = loss_wti(s, target.weights)
        if config.use_nbi:
            ns, h = target.nbi
            cand = grids.candidates.pop(name, None)
            if cand is None:
                cand = _candidate_grid(config, anchors, dir_scores, target.pool,
                                       grids.buffers.grids.get(name))
            nbi = loss_nbi(cand, h, ns, config.grad_mode)
            # the batch columns come first, then any bank-pool columns
            part["nbi"] = LossBundle(nbi.value, ns.scatter(nbi.grad, b))
            if target.pool is not None:
                pool_grads[name] = 0.5 * _pool_gradient(ns, nbi.grad, target.pool, b,
                                                        grids.buffers.scratch)
        if config.use_opt:
            part["opt"] = loss_opt(s, target.opt)

    total = total_loss(parts, b)
    part_values = {part: 0.5 * (parts["q2g"][part].value + parts["g2q"][part].value)
                   if part in parts["q2g"] else 0.0 for part in LOSS_PARTS}
    d_e = {"q2g": total.grad @ eg, "g2q": total.grad.T @ eq}
    for name, grad in pool_grads.items():
        d_e[name] += grad
    return total.value, part_values, d_e["q2g"], d_e["g2q"]


def train(config: TrainConfig, data: PairedData) -> TrainResult:
    """Run the optimization loop and report hubness before and after."""
    model = _build_model(config, data)
    report_before = _full_report(config, *model.full_embeddings())
    curve, full_q, full_g = _descend(config, data, model)
    report_after = _full_report(config, full_q, full_g)
    return TrainResult(
        queries=EmbeddingSet(full_q, MODALITY_QUERY,
                             data.queries.ids, data.queries.labels),
        galleries=EmbeddingSet(full_g, MODALITY_GALLERY,
                               data.galleries.ids, data.galleries.labels),
        loss_curve=curve,
        report_before=report_before,
        report_after=report_after,
    )


def _descend(config: TrainConfig, data: PairedData,
             model: _Model) -> tuple[list, np.ndarray, np.ndarray]:
    """The optimization loop: its loss curve and the trained unit rows of
    both sides. The bank, the optimizer state and the run's buffers live
    only as long as this call."""
    bank = MemoryBank(config.bank_capacity, data.queries.dim)
    adam = Adam(model.params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    buffers = _run_buffers(config, min(config.batch_size, data.n), data.queries.dim)
    frozen = config.learning_rate == 0.0
    curve: list[dict] = []
    step = 0
    try:
        for _ in range(config.epochs):
            order = rng.permutation(data.n)
            for start in range(0, data.n, config.batch_size):
                idx = order[start: start + config.batch_size]
                if idx.size < 2:
                    continue
                eq, eg, norms = model.forward(idx)
                targets, grids = compute_targets(config, bank, eq, eg, buffers=buffers)
                value, part_values, d_eq, d_eg = batch_loss(config, eq, eg,
                                                            targets, grids)
                if not frozen:
                    grads = model.backward(idx, eq, eg, norms, d_eq, d_eg)
                    adam.step(model.params, grads)
                    model.postprocess()
                push_batch(bank, EmbeddingSet(eq, MODALITY_QUERY))
                push_batch(bank, EmbeddingSet(eg, MODALITY_GALLERY))
                plan = targets.plan
                curve.append({
                    "step": step,
                    "total": value,
                    **part_values,
                    "sinkhorn_residual": plan.residual if plan else 0.0,
                    "sinkhorn_iterations": plan.iterations_used if plan else 0,
                })
                step += 1
        return (curve, *model.full_embeddings())
    except (DivergenceDetected, NotConverged) as exc:
        # the same exception, so its class and attributes are kept
        exc.args = (f"{exc} at step {step}",)
        raise


def _full_report(config: TrainConfig, full_q: np.ndarray,
                 full_g: np.ndarray) -> dict:
    """Hubness over every query and gallery row, scored a block of query
    rows at a time, so the n x n grid is never held whole."""
    s = cosine_blocks(EmbeddingSet(full_q, MODALITY_QUERY),
                      EmbeddingSet(full_g, MODALITY_GALLERY))
    return hubness_report(s, config.k, config.hub_size_factor,
                          config.atkinson_epsilon)


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm error relative to the gradient scale, floored at 1.

    The floor makes the measure absolute for near-stationary points, where
    a true ratio would just amplify finite-difference noise.
    """
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def grad_check(config: TrainConfig, data: PairedData, h: float = 1e-5) -> dict:
    """Central finite differences of the total loss against the assembled
    analytic gradients, per loss term and combined.

    Targets are computed once from the unperturbed parameters and held
    fixed, matching how a training step treats them. Returns a mapping
    from term name ('wti', 'nbi', 'opt', 'total') to the max
    relative error over every model parameter.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
    model = _build_model(config, data)
    idx = np.arange(min(config.batch_size, data.n))
    bank = MemoryBank(config.bank_capacity, data.queries.dim)
    eq0, eg0, _ = model.forward(idx)
    push_batch(bank, EmbeddingSet(eq0, MODALITY_QUERY))
    push_batch(bank, EmbeddingSet(eg0, MODALITY_GALLERY))

    # targets for every term, so single-loss configs below can reuse them
    toggles = [f"use_{part}" for part in LOSS_PARTS]
    all_on = replace(config, **dict.fromkeys(toggles, True))
    base_targets, _ = compute_targets(all_on, bank, eq0, eg0)

    terms = {part: replace(config, **{flag: flag == f"use_{part}" for flag in toggles})
             for part in LOSS_PARTS}
    terms["total"] = config
    errors = {}
    for name, cfg in terms.items():
        eq, eg, norms = model.forward(idx)
        analytic = model.backward(idx, eq, eg, norms,
                                  *batch_loss(cfg, eq, eg, base_targets)[2:])
        numeric = [np.zeros_like(p) for p in model.params]
        for p, num in zip(model.params, numeric):
            # a table row outside the batch cannot move the loss; every
            # projection entry can
            rows = idx if config.model == MODEL_TABLE else range(p.shape[0])
            for entry in product(rows, range(p.shape[1])):
                keep = p[entry]
                ends = []
                for step in (h, -h):
                    p[entry] = keep + step
                    ends.append(batch_loss(cfg, *model.forward(idx)[:2], base_targets)[0])
                p[entry] = keep
                num[entry] = (ends[0] - ends[1]) / (2.0 * h)
        errors[name] = max(
            _max_rel_error(a, f) for a, f in zip(analytic, numeric))
    return errors
