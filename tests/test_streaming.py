"""`retrieve`, `analyze` and the hubness reports of `train` score query rows
a block at a time: the blocked output must equal the one-block output byte
for byte, and the commands must never hold the whole n x m score grid.
`retrieve` renders ranked.csv a block at a time too, so it never holds a
list of every line."""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hublab.core
from hublab import io as hio
from hublab.cli import main
from hublab.core import row_blocks

from conftest import random_unit_rows


@pytest.mark.parametrize("block", [1, 4, 256])
def test_row_blocks_cover_rows_in_blocks_of_b_to_2b_minus_1(monkeypatch, block):
    monkeypatch.setattr(hublab.core, "BLOCK_ROWS", block)
    for n in range(1, 3 * block + 2):
        blocks = row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        if n < 2 * block:
            assert sizes == [n]
        else:
            assert min(sizes) >= block and max(sizes) <= 2 * block - 1


def _half_unit_rows(rng, n: int, dim: int = 8) -> np.ndarray:
    """Unit rows with four entries of +-1/2: every dot product and mean of
    them is exact in any summation order, and many scores tie."""
    rows = np.zeros((n, dim))
    for row in rows:
        row[rng.choice(dim, size=4, replace=False)] = rng.choice([-0.5, 0.5], size=4)
    return rows


def _artifacts(argv: list, out) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_blocked_output_equals_one_block_output(tmp_path, monkeypatch, rng):
    q, g, labels = tmp_path / "q.emb", tmp_path / "g.emb", tmp_path / "labels.json"
    hio.write_embeddings(q, _half_unit_rows(rng, 30), "query")
    hio.write_embeddings(g, _half_unit_rows(rng, 30), "gallery")
    # one to three relevant items per query, so R > 1 on some rows
    pairs = [[i, int(j)] for i in range(30)
             for j in rng.choice(30, size=rng.integers(1, 4), replace=False)]
    labels.write_text(json.dumps({"pairs": pairs}))
    inputs = ["--queries", str(q), "--galleries", str(g)]
    commands = [["retrieve", "--mode", "simi"] + inputs,
                ["retrieve", "--mode", "simi-cent"] + inputs,
                ["retrieve", "--labels", str(labels)] + inputs,
                ["analyze", "--k", "5"] + inputs,
                ["analyze", "--k", "1"] + inputs]

    def run(block: int, out: str, count: int) -> list:
        monkeypatch.setattr(hublab.core, "BLOCK_ROWS", block)
        assert len(row_blocks(30)) == count
        return [_artifacts(argv, tmp_path / out / str(i))
                for i, argv in enumerate(commands)]

    assert run(4, "blocked", 7) == run(1000, "whole", 1)


def _peak_bytes(argv: list, tmp_path, rng, n: int) -> int:
    """Peak traced memory of one command on n x n random unit rows."""
    q, g = tmp_path / "q.emb", tmp_path / "g.emb"
    hio.write_embeddings(q, random_unit_rows(rng, n, 16), "query")
    hio.write_embeddings(g, random_unit_rows(rng, n, 16), "gallery")
    # NumPy reports its data buffers to tracemalloc
    tracemalloc.start()
    try:
        _artifacts(argv + ["--queries", str(q), "--galleries", str(g)], tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("argv", [["retrieve"], ["retrieve", "--mode", "simi-cent"],
                                  ["analyze"]])
def test_peak_memory_below_half_the_score_grid(tmp_path, rng, argv):
    n = m = 2000
    assert _peak_bytes(argv, tmp_path, rng, n) < n * m * 8 / 2


def test_train_reports_below_the_score_grid(tmp_path, rng):
    # one epoch of the weighting loss alone, so the two hubness reports over
    # all 2000 x 2000 pairs dominate
    n = m = 2000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "use_nbi": False, "use_opt": False,
                               "learning_rate": 0.01}))
    assert _peak_bytes(["train", "--config", str(cfg)], tmp_path, rng, n) < n * m * 8 / 2


@pytest.mark.parametrize("mode", ["simi", "simi-cent"])
def test_retrieve_peak_memory_near_the_ranked_csv(tmp_path, rng, mode):
    # 20,000 queries against 64 galleries of 4 dimensions: ranked.csv's
    # 200,000 lines outweigh the inputs and every score block. Each block's
    # lines become one string while the block is scored, and the file is
    # joined once, so the peak stays near twice the file; a list of every
    # line's string takes several times more
    n, m = 20000, 64
    q, g, labels = tmp_path / "q.emb", tmp_path / "g.emb", tmp_path / "labels.json"
    hio.write_embeddings(q, random_unit_rows(rng, n, 4), "query")
    hio.write_embeddings(g, random_unit_rows(rng, m, 4), "gallery")
    labels.write_text(json.dumps({"pairs": [[i, i % m] for i in range(n)]}))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main(["retrieve", "--mode", mode, "--queries", str(q),
                         "--galleries", str(g), "--labels", str(labels),
                         "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (Path(printed.getvalue().strip()) / "ranked.csv").stat().st_size
    assert size > 6 * 2**20
    assert peak < 3 * size
