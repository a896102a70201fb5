"""The traced benchmark (``benchmarks/run.py --trace 1``) wraps hublab names
through ``benchmarks/spans.py``; a rename that breaks it must fail here."""

import ast
import importlib.util
import json
from pathlib import Path

import hublab.cli
import hublab.eval
import hublab.hubness
import hublab.io
import hublab.trainer
from hublab.cli import main

from conftest import random_unit_rows

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
    # loss_nbi returns one gradient entry per anchor and plus index, all useful
    assert metrics["losses.nbi_useful_ratio"] == 1.0
    assert metrics["losses.nbi_grad_bytes"] == metrics["losses.nbi_calls"] * 16 * (3 + 1) * 8
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


def test_traced_retrieve_counts_top_r(tmp_path, capsys, rng):
    q, g = tmp_path / "q.emb", tmp_path / "g.emb"
    hublab.io.write_embeddings(q, random_unit_rows(rng, 12, 4), "query")
    hublab.io.write_embeddings(g, random_unit_rows(rng, 12, 4), "gallery")
    metrics = _traced_run(["retrieve", "--queries", str(q), "--galleries", str(g),
                           "--mode", "simi-cent", "--out", str(tmp_path)])
    # diagonal labels give R = 1: retrieval_eval's one call per block keeps
    # max(R, 10) = 10 columns of twelve, and ranked.csv reuses them
    assert metrics["hubness.topk_calls"] == 1
    assert metrics["hubness.topk_keep_ratio"] == 10 / 12
    assert metrics["bank.centrality_calls"] == 1
    # each file's float32 payload is read once; the default bank reuses the galleries
    assert metrics["io.bytes_read"] == 2 * 12 * 4 * 4
    assert metrics["eval.retrieval_s"] > 0
    assert metrics["eval.simi_cent_s"] > 0


def test_unused_imports_are_only_names_the_spans_wrap():
    """An import that no code of its module reads is dead, unless the spans
    wrap it there by name."""
    spans = _load_spans()
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    wrapped = {(module.__name__, attr) for module, attr, _ in recorder._patches}
    recorder.uninstall()
    dead = set()
    for path in sorted(Path(hublab.cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead |= {(f"hublab.{path.stem}", name) for name in imported - used}
    assert dead <= wrapped, sorted(dead - wrapped)
