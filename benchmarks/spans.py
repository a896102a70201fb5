"""Span recorder for the traced benchmark run.

The recorder replaces public names that hublab modules look up at call
time (for example ``hublab.trainer.sinkhorn_plan``) with wrappers that
open a span around the original call. Nothing under ``src/`` changes:
the wrappers live here and are removed again by ``uninstall``.

A span is ``[name, start, end, parent, pass_id, attrs]``; ``parent`` is
the index of the enclosing span or None. Spans stay in memory until the
run ends. ``attrs`` holds counters derived from the value the wrapped call
returned (Sinkhorn iterations from each TransportPlan, gradient bytes from
each LossBundle, bank fill read after each push), taken after the span
closes so that reading them is not charged to the layer.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# upper edges of the Sinkhorn iteration-count histogram; the last bucket
# holds everything above 1999, i.e. solves that ran into the default cap
ITER_EDGES = (50, 100, 200, 500, 1000, 1999)

_FLOAT64 = np.dtype(np.float64).itemsize
_FLOAT32 = np.dtype(np.float32).itemsize


# every span name ``install`` and the benchmark's own root span can open
SPAN_NAMES = (
    "cli.self", "trainer.self", "trainer.targets", "trainer.loss",
    "transport.sinkhorn", "transport.blend", "transport.opt_loss",
    "losses.nbi", "losses.select", "losses.ntargets", "losses.wti",
    "losses.kl", "losses.total", "bank.push", "bank.centrality",
    "hubness.report", "hubness.topk", "eval.retrieval", "eval.simi_cent",
    "core.cosine", "io.read", "io.write",
)


class SpanRecorder:
    """In-memory spans of one benchmark run, plus the wrappers it installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs=None, before=None):
        """Route ``module.attr`` through a span named ``name``.

        ``before(*args)`` runs ahead of the call, outside the span;
        ``attrs(result, args, before_value)`` returns the span's counters.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            pre = before(*args) if before else None
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if attrs:
                record[5] = attrs(result, args, pre)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": i,
                 "attrs": a} for n, s, e, p, i, a in self.spans]


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the four benchmark commands cross."""
    import hublab.cli as cli
    import hublab.eval as heval
    import hublab.hubness as hubness
    import hublab.io as hio
    import hublab.trainer as trainer

    wrap = recorder.wrap

    def plan_attrs(plan, args, _):
        return {"iters": plan.iterations_used, "residual": plan.residual,
                "capped": bool(plan.warning)}

    def nbi_attrs(bundle, args, _):
        return {"grad_bytes": bundle.grad.nbytes,
                "useful": int(args[2].plus_indices.size),
                "allocated": int(bundle.grad.size)}

    def push_attrs(bank, args, fill_before):
        batch = args[1]
        # push_batch copies the batch, then concatenates it onto the queue
        copied = (fill_before + 2 * batch.n) * batch.dim * _FLOAT64
        return {"bytes": copied, "fill": bank.fill(batch.modality)}

    def topk_attrs(_, args, __):
        rows, cols = args[0].shape
        return {"kept": rows * args[1], "sorted": rows * cols}

    wrap(trainer, "sinkhorn_plan", "transport.sinkhorn", attrs=plan_attrs)
    wrap(trainer, "blend_targets", "transport.blend")
    wrap(trainer, "loss_opt", "transport.opt_loss")
    wrap(trainer, "loss_nbi", "losses.nbi", attrs=nbi_attrs)
    wrap(trainer, "select_neighbors", "losses.select")
    wrap(trainer, "neighbor_targets", "losses.ntargets")
    wrap(trainer, "loss_wti", "losses.wti")
    wrap(trainer, "loss_kl", "losses.kl")
    wrap(trainer, "total_loss", "losses.total")
    for module in (trainer, cli):
        wrap(module, "push_batch", "bank.push", attrs=push_attrs,
             before=lambda bank, batch: bank.fill(batch.modality))
    wrap(trainer, "intra_centrality", "bank.centrality")
    wrap(trainer, "cross_centrality", "bank.centrality")
    wrap(heval, "intra_centrality", "bank.centrality")
    wrap(cli, "train", "trainer.self")
    wrap(trainer, "compute_targets", "trainer.targets")
    wrap(trainer, "batch_loss", "trainer.loss")
    for module in (cli, trainer):
        wrap(module, "hubness_report", "hubness.report")
        wrap(module, "cosine_similarity_matrix", "core.cosine",
             attrs=lambda s, _, __: {"bytes": s.scores.nbytes})
    wrap(hubness, "top_k_indices", "hubness.topk", attrs=topk_attrs)
    wrap(heval, "top_k_indices", "hubness.topk", attrs=topk_attrs)
    wrap(cli, "retrieval_eval", "eval.retrieval")
    wrap(cli, "infer_simi_cent", "eval.simi_cent")
    wrap(hio, "read_embeddings", "io.read",
         attrs=lambda r, _, __: {"bytes": r[0].nbytes})
    wrap(hio, "write_embeddings", "io.write",
         attrs=lambda _, a, __: {"bytes": np.asarray(a[1]).size * _FLOAT32})


def iteration_histogram(spans: list[list]) -> dict:
    """Count of Sinkhorn solves per iteration-count bucket."""
    counts = Counter()
    for name, _, _, _, _, extra in spans:
        if name != "transport.sinkhorn":
            continue
        n = extra["iters"]
        edge = next((e for e in ITER_EDGES if n <= e), None)
        counts[f"<={edge}" if edge else f">{ITER_EDGES[-1]}"] += 1
    labels = [f"<={e}" for e in ITER_EDGES] + [f">{ITER_EDGES[-1]}"]
    return {label: counts[label] for label in labels}


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of each pass, keyed by pass id.

    A ``*_s`` value is self time: a span's duration minus the time its
    child spans cover. Spans open and close on one thread in call order,
    so children never overlap and their durations simply add up. Every
    span name the recorder can open gets a ``*_s`` entry, 0 when unused.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    grouped = defaultdict(lambda: (defaultdict(float), Counter(), defaultdict(list)))
    for i, (name, start, end, _, pass_id, extra) in enumerate(spans):
        self_s, calls, attrs = grouped[pass_id]
        self_s[name] += (end - start) - child_time[i]
        calls[name] += 1
        if extra:
            attrs[name].append(extra)
    return {pass_id: _pass_metrics(*parts) for pass_id, parts in grouped.items()}


def _total(items, key):
    return sum(item[key] for item in items)


def _ratio(num, den):
    return num / den if den else 0.0


def _pass_metrics(self_s, calls, attrs) -> dict:
    metrics = {f"{name}_s": self_s[name] for name in SPAN_NAMES}
    sink, nbi = attrs["transport.sinkhorn"], attrs["losses.nbi"]
    push, topk = attrs["bank.push"], attrs["hubness.topk"]
    iters = _total(sink, "iters")
    metrics.update({
        "transport.sinkhorn_calls": calls["transport.sinkhorn"],
        "transport.sinkhorn_iters": iters,
        "transport.sinkhorn_capped": _total(sink, "capped"),
        "transport.sinkhorn_max_residual": max((s["residual"] for s in sink),
                                               default=0.0),
        "transport.us_per_iter": 1e6 * _ratio(self_s["transport.sinkhorn"], iters),
        "losses.nbi_calls": calls["losses.nbi"],
        "losses.nbi_grad_bytes": _total(nbi, "grad_bytes"),
        "losses.nbi_useful_ratio": _ratio(_total(nbi, "useful"),
                                          _total(nbi, "allocated")),
        "losses.select_calls": calls["losses.select"],
        "bank.push_calls": calls["bank.push"],
        "bank.push_bytes": _ratio(_total(push, "bytes"), len(push)),
        "bank.centrality_calls": calls["bank.centrality"],
        "bank.fill_max": max((p["fill"] for p in push), default=0),
        "trainer.steps": calls["trainer.loss"],
        "hubness.topk_calls": calls["hubness.topk"],
        "hubness.topk_keep_ratio": _ratio(_total(topk, "kept"),
                                          _total(topk, "sorted")),
        "core.score_bytes": _total(attrs["core.cosine"], "bytes"),
        "io.bytes_read": _total(attrs["io.read"], "bytes"),
        "io.bytes_written": _total(attrs["io.write"], "bytes"),
    })
    return metrics
