"""The traced benchmark (``benchmarks/run.py --trace 1``) wraps hublab names
through ``benchmarks/spans.py``; a rename that breaks it must fail here."""

import importlib.util
import json
from pathlib import Path

import hublab.cli
import hublab.eval
import hublab.hubness
import hublab.io
import hublab.trainer
from hublab.cli import main

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
WRAPPED_MODULES = (hublab.cli, hublab.eval, hublab.hubness, hublab.io, hublab.trainer)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(argv: list) -> dict:
    """Run the CLI with the spans installed; return the layer metrics after
    checking that ``uninstall`` restored every patched attribute."""
    spans = _load_spans()
    before = {module: dict(vars(module)) for module in WRAPPED_MODULES}
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    patched = [(module, attr) for module, attr, _ in recorder._patches]
    try:
        assert main(argv) == 0
    finally:
        recorder.uninstall()
    assert patched
    for module, attr in patched:
        assert getattr(module, attr) is before[module][attr], f"{module.__name__}.{attr}"
    return spans.layer_metrics(recorder.spans)[None]


def test_traced_train_counts_and_uninstall(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_pairs": 32, "dim": 8, "batch_size": 16, "epochs": 1,
                               "k_neighbors": 3, "bank_capacity": 64,
                               "neighbor_pool": "bank"}))
    metrics = _traced_run(["train", "--config", str(cfg), "--out", str(tmp_path)])
    assert metrics["trainer.steps"] == 2
    for counter in ("losses.nbi_calls", "losses.select_calls"):
        assert metrics[counter] == 2 * metrics["trainer.steps"], counter
    assert 0 < metrics["losses.nbi_useful_ratio"] <= 1
    # use_opt is on by default: one solve per step, read from each TransportPlan
    assert metrics["transport.sinkhorn_calls"] == metrics["trainer.steps"]
    assert metrics["transport.sinkhorn_iters"] >= metrics["trainer.steps"]
    assert metrics["transport.us_per_iter"] > 0
    # training makes no KL call, though install still wraps the name
    assert metrics["losses.kl_s"] == 0


def test_traced_analyze_counts_top_k(tmp_path, capsys, rng):
    q, g = tmp_path / "q.emb", tmp_path / "g.emb"
    hublab.io.write_embeddings(q, rng.normal(size=(12, 4)), "query")
    hublab.io.write_embeddings(g, rng.normal(size=(20, 4)), "gallery")
    metrics = _traced_run(["analyze", "--queries", str(q), "--galleries", str(g),
                           "--k", "5", "--out", str(tmp_path)])
    # the span reads top_k_indices' positional (scores, k) to get the ratio
    assert metrics["hubness.topk_calls"] == 1
    assert metrics["hubness.topk_keep_ratio"] == 5 / 20
