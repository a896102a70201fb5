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


def test_traced_train_counts_and_uninstall(tmp_path, capsys):
    spans = _load_spans()
    before = {module: dict(vars(module)) for module in WRAPPED_MODULES}
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    patched = [(module, attr) for module, attr, _ in recorder._patches]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_pairs": 32, "dim": 8, "batch_size": 16, "epochs": 1,
                               "k_neighbors": 3, "bank_capacity": 64,
                               "neighbor_pool": "bank"}))
    try:
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        recorder.uninstall()

    metrics = spans.layer_metrics(recorder.spans)[None]
    assert metrics["trainer.steps"] == 2
    for counter in ("losses.nbi_calls", "losses.select_calls"):
        assert metrics[counter] == 2 * metrics["trainer.steps"], counter
    assert 0 < metrics["losses.nbi_useful_ratio"] <= 1
    assert patched
    for module, attr in patched:
        assert getattr(module, attr) is before[module][attr], f"{module.__name__}.{attr}"
