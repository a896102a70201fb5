import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hublab
from hublab import EmbeddingSet
from hublab import io as hio
from hublab import cli
from hublab.cli import build_parser, main
from hublab.config import DEFAULTS, config_digest, resolve_config, train_config_from
from hublab.errors import ConfigError, DegenerateDistribution, FormatError

from conftest import random_unit_rows


def tree_digest(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


class TestEmbeddingFile:
    def test_header_layout(self, tmp_path, rng):
        data = rng.normal(size=(3, 5)).astype(np.float32)
        path = hio.write_embeddings(tmp_path / "x.emb", data, "gallery")
        raw = path.read_bytes()
        assert raw[:4] == b"EMB1"
        assert len(raw) == 20 + 4 * 3 * 5
        assert raw[16] == 1  # gallery code
        assert raw[17:20] == b"\x00\x00\x00"

    def test_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.normal(size=(7, 4)).astype(np.float32)
        path = hio.write_embeddings(tmp_path / "x.emb", data, "query")
        back, modality, meta = hio.read_embeddings(path)
        assert modality == "query" and meta == {}
        assert back.tobytes() == data.tobytes()

    def test_write_read_write_is_stable(self, tmp_path, rng):
        data = rng.normal(size=(4, 6))  # float64 in, truncated once
        p1 = hio.write_embeddings(tmp_path / "a.emb", data, "query")
        back, _, _ = hio.read_embeddings(p1)
        p2 = hio.write_embeddings(tmp_path / "b.emb", back, "query")
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_ids_labels(self, tmp_path, rng):
        e = EmbeddingSet(random_unit_rows(rng, 3, 4), "gallery",
                         ids=["a", "b", "c"], labels=[0, 1, 1])
        path = hio.write_embedding_set(tmp_path / "g.emb", e)
        back = hio.read_embedding_set(path)
        assert back.ids == ["a", "b", "c"]
        assert back.labels == [0, 1, 1]
        assert back.modality == "gallery"

    def test_empty_file_is_readable_raw(self, tmp_path):
        path = hio.write_embeddings(tmp_path / "e.emb", np.empty((0, 4)), "gallery")
        data, modality, _ = hio.read_embeddings(path)
        assert data.shape == (0, 4)
        with pytest.raises(FormatError):
            hio.read_embedding_set(path)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            hio.read_embeddings(path)

    def test_truncated_payload(self, tmp_path, rng):
        good = hio.write_embeddings(tmp_path / "x.emb",
                                    rng.normal(size=(2, 2)).astype(np.float32),
                                    "query")
        clipped = tmp_path / "y.emb"
        clipped.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(FormatError):
            hio.read_embeddings(clipped)


@st.composite
def _emb_bytes(draw):
    """Any bytes, or a header of mixed valid and invalid fields followed by
    a payload of about its declared length."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    n, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    header = hio._HEADER.pack(draw(st.sampled_from([hio.MAGIC, b"EMB2"])),
                              draw(st.sampled_from([hio.VERSION, 2])), n, d,
                              draw(st.integers(0, 2)),
                              draw(st.sampled_from([b"\x00" * 3, b"\x00\x00\x01"])))
    size = max(0, 4 * n * d + draw(st.sampled_from([0, 0, -1, 1])))
    return header + draw(st.binary(min_size=size, max_size=size))


_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                     max_leaves=8)
_sidecars = st.one_of(st.none(), st.binary(max_size=64),
                      _json.map(lambda v: json.dumps(v).encode()),
                      st.dictionaries(st.sampled_from(["ids", "labels"]), _json)
                      .map(lambda v: json.dumps(v).encode()))


class TestReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=_emb_bytes(), sidecar=_sidecars)
    # a valid file whose sidecar nests deeper than the JSON parser's recursion
    @example(raw=hio._HEADER.pack(hio.MAGIC, hio.VERSION, 1, 1, 0, b"\x00" * 3)
             + np.float32(1).tobytes(), sidecar=b"[" * 100_000)
    def test_returns_an_array_or_raises_format_error(self, raw, sidecar):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.emb"
            path.write_bytes(raw)
            if sidecar is not None:
                hio.sidecar_path(path).write_bytes(sidecar)
            try:
                data, _, _ = hio.read_embeddings(path)
            except FormatError:
                return
            assert data.ndim == 2 and np.isfinite(data).all()


class TestConfig:
    def test_defaults_materialized(self):
        resolved = resolve_config({}, {})
        assert set(resolved) == set(DEFAULTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"learning_rte": 1e-3})

    def test_type_checks(self):
        with pytest.raises(ConfigError):
            resolve_config({"epochs": "ten"})
        with pytest.raises(ConfigError):
            resolve_config({"use_opt": 1})
        with pytest.raises(ConfigError):
            resolve_config({"queries": 5})
        with pytest.raises(ConfigError, match="noise must be a number"):
            resolve_config({"noise": None})
        assert resolve_config({"queries": None})["queries"] is None
        for bad in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
            with pytest.raises(ConfigError):
                resolve_config({"learning_rate": bad})

    def test_override_precedence(self):
        resolved = resolve_config({"k": 10}, {"k": 25})
        assert resolved["k"] == 25

    def test_digest_changes_with_config(self):
        a = config_digest("analyze", resolve_config({}))
        b = config_digest("analyze", resolve_config({"k": 7}))
        c = config_digest("train", resolve_config({}))
        assert a != b and a != c


def _simulate(tmp_path, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "runs"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_pairs": 120, "dim": 16, "noise": 0.8}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), *extra])
    assert rc == 0
    run_dir = next(out.glob("simulate-*"))
    return run_dir


class TestCli:
    def test_simulate_deterministic_and_bitwise(self, tmp_path, capsys):
        a = _simulate(tmp_path / "a")
        b = _simulate(tmp_path / "b")
        assert tree_digest(a) == tree_digest(b)

    def test_simulate_zero_noise_files_equal(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_pairs": 4, "dim": 2, "noise": 0.0, "hub_fraction": 0.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = next(out.glob("simulate-*"))
        q = (run_dir / "queries.emb").read_bytes()
        g = (run_dir / "galleries.emb").read_bytes()
        assert q[20:] == g[20:]  # same payload, different modality byte

    def test_analyze_matches_library(self, tmp_path, capsys):
        run_dir = _simulate(tmp_path)
        out = tmp_path / "an"
        rc = main(["analyze", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--k", "5", "--out", str(out)])
        assert rc == 0
        an_dir = next(out.glob("analyze-*"))
        doc = json.loads((an_dir / "report.json").read_text())
        assert doc["format_version"] == 2
        assert doc["config"]["k"] == 5

        import hublab
        q = hio.read_embedding_set(run_dir / "queries.emb")
        g = hio.read_embedding_set(run_dir / "galleries.emb")
        assert doc["report"] == hublab.hubness_report(hublab.cosine_blocks(q, g), 5)

        hist = (an_dir / "histogram.csv").read_text().splitlines()
        assert hist[0] == "n_k,count"
        assert sum(int(line.split(",")[1]) for line in hist[1:]) == 120

    def test_retrieve_identity_pair(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n_pairs": 20, "dim": 8, "noise": 0.0, "hub_fraction": 0.0}))
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        run_dir = next(out.glob("simulate-*"))
        rc = main(["retrieve", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--out", str(tmp_path / "ret")])
        assert rc == 0
        ret_dir = next((tmp_path / "ret").glob("retrieve-*"))
        doc = json.loads((ret_dir / "retrieval.json").read_text())
        assert doc["scores"]["r_at"]["1"] == 100.0
        ranked = (ret_dir / "ranked.csv").read_text().splitlines()
        assert ranked[0] == "query_id,rank,gallery_id,score"
        assert ranked[1].startswith("q00000,1,g00000,")

    def test_retrieve_simi_cent_empty_bank_errors(self, tmp_path, capsys):
        run_dir = _simulate(tmp_path)
        empty = tmp_path / "empty.emb"
        hio.write_embeddings(empty, np.empty((0, 16)), "gallery")
        rc = main(["retrieve", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--mode", "simi-cent", "--bank", str(empty),
                   "--out", str(tmp_path / "ret")])
        assert rc == 2
        assert "file holds no rows" in capsys.readouterr().err

    def test_retrieve_simi_cent_bank_sidecar_must_match_rows(self, tmp_path, capsys, rng):
        run_dir = _simulate(tmp_path)
        bank = tmp_path / "bank.emb"
        hio.write_embeddings(bank, random_unit_rows(rng, 3, 16), "gallery",
                             ids=["a", "b"])
        rc = main(["retrieve", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--mode", "simi-cent", "--bank", str(bank),
                   "--out", str(tmp_path / "ret")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bank}: ")

    def test_retrieve_simi_cent_default_bank(self, tmp_path, capsys):
        run_dir = _simulate(tmp_path)
        rc = main(["retrieve", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--mode", "simi-cent", "--out", str(tmp_path / "ret")])
        assert rc == 0
        ret_dir = next((tmp_path / "ret").glob("retrieve-*"))
        assert json.loads((ret_dir / "retrieval.json").read_text())["mode"] == "simi-cent"

    def test_retrieve_with_labels_equals_library(self, tmp_path, capsys, rng):
        q = random_unit_rows(rng, 12, 6)
        g = random_unit_rows(rng, 15, 6)
        hio.write_embeddings(tmp_path / "q.emb", q, "query")
        hio.write_embeddings(tmp_path / "g.emb", g, "gallery")
        pairs = [[i, i] for i in range(12)] + [[0, 13], [3, 14]]
        (tmp_path / "labels.json").write_text(json.dumps({"pairs": pairs}))
        rc = main(["retrieve", "--queries", str(tmp_path / "q.emb"),
                   "--galleries", str(tmp_path / "g.emb"),
                   "--labels", str(tmp_path / "labels.json"),
                   "--out", str(tmp_path / "ret")])
        assert rc == 0
        ret_dir = next((tmp_path / "ret").glob("retrieve-*"))
        doc = json.loads((ret_dir / "retrieval.json").read_text())

        import hublab
        qs = hio.read_embedding_set(tmp_path / "q.emb")
        gs = hio.read_embedding_set(tmp_path / "g.emb")
        labels = hublab.RelevanceLabels.from_pairs(pairs, (12, 15))
        expected = hublab.retrieval_eval(hublab.cosine_blocks(qs, gs), labels)
        assert doc["scores"] == expected

    def test_ranked_csv_equals_csv_writer(self, tmp_path, capsys, rng):
        # ids that csv.writer quotes, doubles a quote in, or writes as text
        special = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "café", "漢字",
                   "", " lead", 7, None, 2.5, True]
        query_ids = special + [f"query {i}" for i in range(len(special), 14)]
        gallery_ids = list(reversed(special)) + [f"g-{i}" for i in range(len(special), 14)]
        q, g = random_unit_rows(rng, 14, 5), random_unit_rows(rng, 14, 5)
        hio.write_embeddings(tmp_path / "q.emb", q, "query", ids=query_ids)
        hio.write_embeddings(tmp_path / "g.emb", g, "gallery", ids=gallery_ids)
        assert main(["retrieve", "--queries", str(tmp_path / "q.emb"),
                     "--galleries", str(tmp_path / "g.emb"),
                     "--out", str(tmp_path / "ret")]) == 0
        ret_dir = next((tmp_path / "ret").glob("retrieve-*"))

        import csv
        import hublab
        scores = hublab.cosine_similarity_matrix(
            hio.read_embedding_set(tmp_path / "q.emb"),
            hio.read_embedding_set(tmp_path / "g.emb")).scores
        top = np.argsort(-scores, axis=1, kind="stable")[:, :10]
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "rank", "gallery_id", "score"])
            for i, row in enumerate(top):
                writer.writerows([query_ids[i], rank, gallery_ids[j], repr(float(scores[i, j]))]
                                 for rank, j in enumerate(row, 1))
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (ret_dir / "ranked.csv").read_bytes() == expected
        assert expected.count(b'"') > 0 and "漢字".encode() in expected

    def test_probe_thresholds(self, tmp_path, capsys, rng):
        texts = random_unit_rows(rng, 6, 8)
        hio.write_embeddings(tmp_path / "t.emb", texts, "query")
        rc = main(["probe", "--texts", str(tmp_path / "t.emb"),
                   "--threshold", "0.999999", "--out", str(tmp_path / "p")])
        assert rc == 0
        doc = json.loads((next((tmp_path / "p").glob("probe-*")) /
                          "labels.json").read_text())
        assert doc["pairs"] == [[i, i] for i in range(6)]
        rc = main(["probe", "--texts", str(tmp_path / "t.emb"),
                   "--threshold", "-1", "--out", str(tmp_path / "p2")])
        doc = json.loads((next((tmp_path / "p2").glob("probe-*")) /
                          "labels.json").read_text())
        assert len(doc["pairs"]) == 36

    def test_probe_feeds_retrieve(self, tmp_path, capsys, rng):
        run_dir = _simulate(tmp_path)
        rc = main(["probe", "--texts", str(run_dir / "queries.emb"),
                   "--threshold", "0.9", "--out", str(tmp_path / "p")])
        assert rc == 0
        labels = next((tmp_path / "p").glob("probe-*")) / "labels.json"
        rc = main(["retrieve", "--queries", str(run_dir / "queries.emb"),
                   "--galleries", str(run_dir / "galleries.emb"),
                   "--labels", str(labels), "--out", str(tmp_path / "ret")])
        assert rc == 0

    def test_train_artifacts_and_freeze(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_pairs": 60, "dim": 8, "noise": 0.8, "epochs": 1,
            "batch_size": 30, "bank_capacity": 64, "k_neighbors": 3,
            "k": 5, "learning_rate": 0.0, "epsilon_sinkhorn": 0.1}))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert rc == 0
        run_dir = next((tmp_path / "t").glob("train-*"))
        names = {p.name for p in run_dir.iterdir()}
        assert {"resolved_config.json", "loss_curve.csv", "report_before.json",
                "report_after.json", "trained_queries.emb",
                "trained_galleries.emb"} <= names
        before = json.loads((run_dir / "report_before.json").read_text())
        after = json.loads((run_dir / "report_after.json").read_text())
        assert before["report"] == after["report"]

    def test_train_reports_equal_library(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_pairs": 40, "dim": 8, "epochs": 1, "batch_size": 20,
            "bank_capacity": 64, "k_neighbors": 3, "k": 5}))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert rc == 0
        run_dir = next((tmp_path / "t").glob("train-*"))
        resolved = json.loads((run_dir / "resolved_config.json").read_text())["config"]
        data = hublab.synth_generate(resolved["n_pairs"], resolved["dim"],
                                     resolved["hub_fraction"], resolved["contraction"],
                                     resolved["noise"], resolved["seed"])
        result = hublab.train(train_config_from(resolved), data)
        assert result.report_before != result.report_after
        for name in ("report_before", "report_after"):
            doc = json.loads((run_dir / f"{name}.json").read_text())
            assert doc["report"] == getattr(result, name)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_sharp_epsilon_converges(self, tmp_path, capsys):
        # at 2000 plain sweeps this solve stopped 100x above tol and aborted
        # training; the Newton finish brings it below tol
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_sinkhorn": 0.01, "epochs": 1, "n_pairs": 128}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        run_dir = next((tmp_path / "t").glob("train-*"))
        curve = (run_dir / "loss_curve.csv").read_text().splitlines()
        header, row = curve[0].split(","), curve[1].split(",")
        assert len(curve) == 2
        assert float(row[header.index("sinkhorn_residual")]) <= 1e-6
        assert int(row[header.index("sinkhorn_iterations")]) < 2000

    def test_train_capped_solves_are_reported_quietly(self, tmp_path, capsys):
        # 50 sweeps leave both solves between tol and 100 tol: training goes
        # on, and the cap shows in loss_curve.csv and nowhere else
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_pairs": 60, "dim": 8, "noise": 0.8, "epochs": 1,
            "batch_size": 30, "bank_capacity": 64, "k_neighbors": 3, "k": 5,
            "epsilon_sinkhorn": 0.03, "sinkhorn_tol": 1e-4,
            "sinkhorn_max_iter": 50}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        assert capsys.readouterr().err == ""
        run_dir = next((tmp_path / "t").glob("train-*"))
        curve = (run_dir / "loss_curve.csv").read_text().splitlines()
        header, rows = curve[0].split(","), [line.split(",") for line in curve[1:]]
        assert len(rows) == 2
        for row in rows:
            assert 1e-4 < float(row[header.index("sinkhorn_residual")]) <= 1e-2
            assert int(row[header.index("sinkhorn_iterations")]) == 50

    def test_train_rerun_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_pairs": 60, "dim": 8, "noise": 0.8, "epochs": 2,
            "batch_size": 30, "bank_capacity": 64, "k_neighbors": 3,
            "k": 5, "epsilon_sinkhorn": 0.1}))
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
        run_dir = next((tmp_path / "t").glob("train-*"))
        first = tree_digest(run_dir)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert tree_digest(run_dir) == first

    def test_stale_partial_directory_is_not_published(self, tmp_path, capsys):
        # a run killed outright leaves its hidden directory behind; the next
        # run of that configuration publishes only the files it wrote itself
        run_dir = _simulate(tmp_path)
        argv = ["analyze", "--queries", str(run_dir / "queries.emb"),
                "--galleries", str(run_dir / "galleries.emb"), "--out",
                str(tmp_path / "an")]
        assert main(argv) == 0
        published = next((tmp_path / "an").glob("analyze-*"))
        stale = published.with_name(f".{published.name}.partial")
        stale.mkdir()
        (stale / "junk.txt").write_text("left by a killed run\n")
        assert main(argv) == 0
        assert sorted(p.name for p in published.iterdir()) == [
            "histogram.csv", "report.json"]
        assert sorted(p.name for p in (tmp_path / "an").iterdir()) == [published.name]

    def test_failed_train_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # the second .emb write fails after every other artifact is written
        write, calls = hio.write_embedding_set, []

        def fail_second(path, e):
            calls.append(path)
            if len(calls) == 2:
                raise FormatError(f"{path}: disk full")
            return write(path, e)

        monkeypatch.setattr(hio, "write_embedding_set", fail_second)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 16, "dim": 4, "batch_size": 8,
                                   "epochs": 1, "k_neighbors": 3}))
        out = tmp_path / "t"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert re.match(r"error: \S+trained_galleries\.emb: disk full$",
                        capsys.readouterr().err)
        assert len(calls) == 2
        assert list(out.iterdir()) == []

    def test_failed_write_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        run_dir = _simulate(tmp_path)
        write_text = Path.write_text

        def disk_full(path, *args, **kwargs):
            if path.name == "report.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)
        out = tmp_path / "an"
        assert main(["analyze", "--queries", str(run_dir / "queries.emb"),
                     "--galleries", str(run_dir / "galleries.emb"),
                     "--out", str(out)]) == 2
        assert re.match(r"error: cannot create output directory \S+analyze-\w+: "
                        r"No space left on device\n$", capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, names", [
        ("analyze", ["report.json", "histogram.csv"]),
        ("train", ["resolved_config.json", "report_before.json", "report_after.json",
                   "loss_curve.csv", "trained_queries.emb", "trained_galleries.emb"]),
        ("retrieve", ["retrieval.json", "ranked.csv"]),
        ("probe", ["labels.json"]),
        ("simulate", ["queries.emb", "galleries.emb", "simulate.json"]),
    ])
    def test_commands_return_artifacts_and_write_nothing(self, command, names,
                                                         tmp_path, monkeypatch):
        run_dir = _simulate(tmp_path)
        q, g = str(run_dir / "queries.emb"), str(run_dir / "galleries.emb")
        resolved = resolve_config({"queries": q, "galleries": g, "texts": q, "k": 5,
                                   "n_pairs": 16, "epochs": 1, "batch_size": 40,
                                   "k_neighbors": 3, "bank_capacity": 64})
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        artifacts = getattr(cli, f"cmd_{command}")(resolved)
        assert list(artifacts) == names
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["analyze", "retrieve", "probe", "train"])
    def test_config_paths_equal_flags(self, command, tmp_path, capsys):
        run_dir = _simulate(tmp_path)
        q, g = str(run_dir / "queries.emb"), str(run_dir / "galleries.emb")
        pairs = [[i, i] for i in range(120)] + [[0, 1]]
        (tmp_path / "labels.json").write_text(json.dumps({"pairs": pairs}))
        keys = {"queries": q, "galleries": g}
        base, flags = {}, ["--queries", q, "--galleries", g]
        if command == "analyze":
            flags += ["--k", "5"]
            keys["k"] = 5
        elif command == "retrieve":
            flags += ["--labels", str(tmp_path / "labels.json"), "--bank", g,
                      "--mode", "simi-cent"]
            keys.update(labels=str(tmp_path / "labels.json"), bank=g,
                        mode="simi-cent")
        elif command == "probe":
            flags = ["--texts", q, "--threshold", "0.9"]
            keys = {"texts": q, "probe_threshold": 0.9}
        else:
            base = {"epochs": 1, "batch_size": 40, "k_neighbors": 3,
                    "bank_capacity": 64, "k": 5}
        by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
        by_flags.write_text(json.dumps(base))
        by_file.write_text(json.dumps({**base, **keys}))
        trees = []
        for cfg, argv in ((by_flags, flags), (by_file, [])):
            out = tmp_path / cfg.stem
            assert main([command, "--config", str(cfg), *argv, "--out", str(out)]) == 0
            (run,) = out.glob(f"{command}-*")
            trees.append((run.name, tree_digest(run)))
        assert trees[0] == trees[1]

    def test_every_flag_is_a_config_key(self):
        """The resolver keeps only flags whose dest is a config key, so a
        misspelled dest would be dropped without a word."""
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
        for name, command in sub.choices.items():
            for action in command._actions:
                if action.dest not in ("help", "config", "out"):
                    assert action.dest in DEFAULTS, (name, action.dest)

    def test_parser_errors_are_error_lines_and_help_exits_0(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == ("error: the following arguments are "
                                           "required: command\n")
        # an unknown argument holding a line break still makes one line
        assert main(["simulate", "--mode", "a\nb"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --mode a b\n"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--k K" in capsys.readouterr().out

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


class TestCliAtPruningSize:
    """``analyze`` and ``retrieve`` on 1000 gallery rows, wide enough for
    ``top_k_indices`` to prune every row (1000 >= 32 * 15), against a
    brute-force stable argsort of the scores the program's own blocks make."""

    def test_artifacts_equal_stable_argsort(self, tmp_path, capsys, partition_shapes):
        import csv
        from hublab.hubness import PRUNE_COLUMNS_PER_K

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 1000, "dim": 16, "noise": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        run_dir = next((tmp_path / "sim").glob("simulate-*"))
        q_path, g_path = run_dir / "queries.emb", run_dir / "galleries.emb"
        assert 1000 >= PRUNE_COLUMNS_PER_K * 15
        inputs = ["--queries", str(q_path), "--galleries", str(g_path)]
        assert main(["analyze", *inputs, "--k", "15", "--out", str(tmp_path / "an")]) == 0
        assert main(["retrieve", *inputs, "--mode", "simi-cent",
                     "--out", str(tmp_path / "ret")]) == 0
        # every row of both commands took the pruned path, none the whole row
        assert {width for _, width in partition_shapes} == {8 * 15, 8 * 10}
        assert sum(rows for rows, _ in partition_shapes) == 2 * 1000

        def dense(s):
            return np.concatenate([block.copy() for _, block in s.blocks()])

        queries, galleries = hio.read_embedding_set(q_path), hio.read_embedding_set(g_path)
        scores = dense(hublab.cosine_blocks(queries, galleries))
        top = np.argsort(-scores, axis=1, kind="stable")[:, :15]
        counts = np.bincount(top.ravel(), minlength=1000)
        values, freqs = np.unique(counts, return_counts=True)
        an_dir = next((tmp_path / "an").glob("analyze-*"))
        with open(an_dir / "histogram.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[str(v), str(c)] for v, c in zip(values, freqs)]
        report = json.loads((an_dir / "report.json").read_text())["report"]
        assert report["hub"] == float(counts[counts > 15 * 2.0].sum() / (1000 * 15))

        bank = hublab.MemoryBank(1000, 16)
        hublab.push_batch(bank, EmbeddingSet(hio.read_embeddings(g_path)[0], "gallery"))
        scores = dense(hublab.infer_simi_cent(hublab.cosine_blocks(queries, galleries),
                                              galleries, bank))
        top = np.argsort(-scores, axis=1, kind="stable")[:, :10]
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "rank", "gallery_id", "score"])
            for i, row in enumerate(top):
                writer.writerows([queries.ids[i], rank, galleries.ids[j],
                                  repr(float(scores[i, j]))]
                                 for rank, j in enumerate(row, 1))
        ret_dir = next((tmp_path / "ret").glob("retrieve-*"))
        assert (ret_dir / "ranked.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _probe_argv(probe: str, tmp_path: Path, rng) -> list:
    """Write the bad input of one probe; return the command that reads it."""
    q, g = tmp_path / "q.emb", tmp_path / "g.emb"
    hio.write_embeddings(q, random_unit_rows(rng, 4, 3), "query")
    hio.write_embeddings(g, random_unit_rows(rng, 4, 3), "gallery",
                         ids=["a", "b", "c", "d"])
    analyze = ["analyze", "--queries", str(q), "--galleries", str(g)]
    if probe == "nan-config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"learning_rate": NaN, "n_pairs": 8, "dim": 4}')
        return ["train", "--config", str(cfg)]
    if probe == "nan-payload":
        data = random_unit_rows(rng, 4, 3)
        data[2, 1] = np.nan
        hio.write_embeddings(q, data, "query")
        return analyze
    if probe == "nan-bank":
        bank = tmp_path / "bank.emb"
        data = random_unit_rows(rng, 4, 3)
        data[0, 0] = np.inf
        hio.write_embeddings(bank, data, "gallery")
        return ["retrieve", "--queries", str(q), "--galleries", str(g),
                "--mode", "simi-cent", "--bank", str(bank)]
    if probe == "bad-sidecar":
        hio.sidecar_path(g).write_text('{"ids": ["a", ')
        return analyze
    if probe == "deep-sidecar":
        hio.sidecar_path(g).write_text("[" * 100_000)
        return analyze
    if probe == "short-sidecar":
        hio.sidecar_path(g).write_text('{"ids": ["a"]}')
        return analyze
    if probe in ("label-out-of-range", "label-negative", "label-float", "label-bool"):
        pair = {"label-out-of-range": [0, 4], "label-negative": [-1, 0],
                "label-float": [0.5, 0], "label-bool": [True, False]}[probe]
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"pairs": [[i, i] for i in range(4)] + [pair]}))
        return ["retrieve", "--queries", str(q), "--galleries", str(g),
                "--labels", str(labels)]
    if probe in ("labels-deep", "labels-bare-list"):
        # labels.json has one form, the object with "pairs" that probe writes
        labels = tmp_path / "labels.json"
        labels.write_text("[" * 100_000 if probe == "labels-deep"
                          else json.dumps([[i, i] for i in range(4)]))
        return ["retrieve", "--queries", str(q), "--galleries", str(g),
                "--labels", str(labels)]
    if probe in ("config-deep", "config-not-utf8"):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"[" * 100_000 if probe == "config-deep" else b"\xff\xfe{}")
        return ["simulate", "--config", str(cfg)]
    if probe in ("sidecar-ids-object", "sidecar-ids-string", "sidecar-ids-nested"):
        # each has a length of 4, the row count, so only their type is wrong
        ids = {"sidecar-ids-object": {"a": 1, "b": 2, "c": 3, "d": 4},
               "sidecar-ids-string": "abcd",
               "sidecar-ids-nested": [{"a": 1}, [1], None, True]}[probe]
        hio.sidecar_path(g).write_text(json.dumps({"ids": ids}))
        return ["retrieve", "--queries", str(q), "--galleries", str(g)]
    if probe in ("config-k-neighbors", "config-n-pairs", "config-atkinson"):
        # a TrainConfig range, a data key, and a key checked only after training
        key, value = {"config-k-neighbors": ("k_neighbors", 0),
                      "config-n-pairs": ("n_pairs", 0),
                      "config-atkinson": ("atkinson_epsilon", 1.0)}[probe]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 16, "dim": 4, "batch_size": 8,
                                   "epochs": 1, "k_neighbors": 3, key: value}))
        return ["train", "--config", str(cfg)]
    if probe == "analyze-k0":
        return analyze + ["--k", "0"]
    if probe == "seed-negative":
        return ["simulate", "--seed", "-1"]
    if probe in ("probe-threshold", "probe-not-unit"):
        texts = tmp_path / "t.emb"
        scale = 1.0 if probe == "probe-threshold" else 2.0
        hio.write_embeddings(texts, scale * random_unit_rows(rng, 4, 3), "query")
        threshold = ["--threshold", "2"] if probe == "probe-threshold" else []
        return ["probe", "--texts", str(texts)] + threshold
    if probe == "simi-cent-not-unit":
        hio.write_embeddings(g, 2.0 * random_unit_rows(rng, 4, 3), "gallery")
        return ["retrieve", "--queries", str(q), "--galleries", str(g),
                "--mode", "simi-cent"]
    if probe in ("diverge-table", "diverge-projection"):
        cfg = tmp_path / "cfg.json"
        model = "embedding-table" if probe == "diverge-table" else "linear-projection"
        cfg.write_text(json.dumps({"learning_rate": 1e300, "epochs": 2, "n_pairs": 64,
                                   "batch_size": 32, "model": model}))
        return ["train", "--config", str(cfg)]
    if probe == "diverge-kappa":
        # the centrality weights exp(C / kappa) overflow before any norm does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 16, "dim": 4, "batch_size": 8, "epochs": 1,
                                   "k_neighbors": 3, "kappa": 1e-300}))
        return ["train", "--config", str(cfg)]
    if probe == "diverge-temperature":
        # gradients near 1e299 overflow Adam's second moment g * g
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 16, "dim": 4, "batch_size": 8, "epochs": 1,
                                   "k_neighbors": 3, "temperature": 1e-300}))
        return ["train", "--config", str(cfg)]
    if probe == "sinkhorn-capped":
        # the first solve stops at its iteration cap far from the marginals:
        # the cap falls before the Newton switch, so only plain sweeps run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_sinkhorn": 0.01, "epochs": 1, "n_pairs": 128,
                                   "sinkhorn_max_iter": 100}))
        return ["train", "--config", str(cfg)]
    if probe == "sinkhorn-overflow":
        # S / epsilon overflows to inf in the first solve
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_sinkhorn": 1e-310, "epochs": 1, "n_pairs": 16,
                                   "dim": 4, "batch_size": 8, "k_neighbors": 3}))
        return ["train", "--config", str(cfg)]
    if probe == "train-k-too-large":
        # the hubness-report k, checked as analyze checks it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 100, "n_pairs": 40, "epochs": 1}))
        return ["train", "--config", str(cfg)]
    if probe in ("removed-use-kl", "removed-normalize-weights"):
        # keys of older config files that no longer exist
        key = probe.removeprefix("removed-").replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: False}))
        return ["train", "--config", str(cfg)]
    if probe == "train-one-path":
        return ["train", "--queries", str(q)]
    if probe == "sidecar-label-string":
        # train would only meet the labels when it writes them back, after training
        for path, modality in ((q, "query"), (g, "gallery")):
            hio.write_embeddings(path, random_unit_rows(rng, 16, 4), modality)
        hio.sidecar_path(q).write_text(json.dumps({"labels": ["cat"] * 16}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 8, "k_neighbors": 3,
                                   "use_opt": False}))
        return ["train", "--config", str(cfg), "--queries", str(q), "--galleries", str(g)]
    if probe == "config-null":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 8, "dim": 4, "noise": None}))
        return ["simulate", "--config", str(cfg)]
    if probe == "out-is-file":
        # the artifacts root that the test passes with --out
        (tmp_path / "out").write_text("")
        return analyze + ["--k", "2"]
    if probe in ("train-batch-1", "train-one-pair", "train-batch-over-bank"):
        # none of these runs could take a single training step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train-batch-1": {"n_pairs": 40, "batch_size": 1},
                                   "train-one-pair": {"n_pairs": 1, "k": 1},
                                   "train-batch-over-bank": {"n_pairs": 64, "batch_size": 32,
                                                             "bank_capacity": 16}}[probe]
                                  | {"dim": 8, "epochs": 1}))
        return ["train", "--config", str(cfg)]
    if probe == "flag-not-int":
        return analyze + ["--k", "abc"]
    if probe == "missing-command":
        # the --out that the test appends is read as an unknown flag, and its
        # value as the command
        return []
    if probe == "mode-unknown":
        return ["retrieve", "--queries", str(q), "--galleries", str(g), "--mode", "bogus"]
    assert probe == "missing-file"
    return ["analyze", "--queries", str(tmp_path / "absent.emb"),
            "--galleries", str(g)]


# a pattern matched at the start of stderr, for probes whose wording is pinned
_PROBE_ERRORS = {
    "analyze-k0": r"error: k must be >= 1",
    "seed-negative": r"error: seed must be >= 0",
    # a float index would be truncated to a valid-looking row
    "label-float": r"error: \S+: bad label pairs",
    # NumPy would read true among integer pairs as the index 1
    "label-bool": r"error: \S+: bad label pairs",
    "diverge-temperature": r"error: .* at step 0",
    "diverge-kappa": r"error: centrality weights exp\(C / kappa\) with kappa 1e-300 "
                     r"are not finite at step 1$",
    "sinkhorn-capped": r"error: marginal residual \S+ exceeds 100x tol \S+ at step 0$",
    "sinkhorn-overflow": r"error: marginal residual nan exceeds 100x tol \S+ at step 0$",
    "train-k-too-large": r"error: k=100 exceeds gallery size 40$",
    "removed-use-kl": r"error: unknown config key 'use_kl'",
    "removed-normalize-weights": r"error: unknown config key 'normalize_weights'",
    "train-one-path": r"error: train needs both --queries and --galleries, or neither$",
    "sidecar-label-string": r"error: \S+q\.meta\.json: labels must be a list of "
                            r"integers or nulls$",
    "config-null": r"error: noise must be a number$",
    "deep-sidecar": r"error: \S+g\.meta\.json: unreadable sidecar: maximum recursion",
    "mode-unknown": r"error: mode must be 'simi' or 'simi-cent', got 'bogus'$",
    "out-is-file": r"error: cannot create output directory \S+/out/analyze-\w+: "
                   r"Not a directory$",
    "train-batch-1": r"error: batch_size must be >= 2$",
    "train-one-pair": r"error: train needs at least 2 pairs, got 1$",
    "train-batch-over-bank": r"error: bank_capacity 16 is smaller than a batch of 32 "
                             r"rows \(batch_size 32\)$",
    "flag-not-int": r"error: argument --k: invalid int value: 'abc'$",
    "missing-command": r"error: argument command: invalid choice: '\S+/out' ",
    "config-deep": r"error: \S+cfg\.json: unreadable config: maximum recursion",
    "config-not-utf8": r"error: \S+cfg\.json: unreadable config: 'utf-8' codec "
                       r"can't decode",
    "labels-deep": r"error: \S+labels\.json: unreadable labels: maximum recursion",
    "labels-bare-list": r"error: \S+labels\.json: labels must be a JSON object$",
    "sidecar-ids-object": r"error: \S+g\.meta\.json: ids must be a list$",
    "sidecar-ids-string": r"error: \S+g\.meta\.json: ids must be a list$",
    "sidecar-ids-nested": r"error: \S+g\.meta\.json: ids must not be JSON objects "
                          r"or lists$",
}


class TestBadInput:
    @pytest.mark.parametrize("probe", [
        "nan-config", "nan-payload", "nan-bank", "bad-sidecar", "short-sidecar",
        "label-out-of-range", "label-negative", "missing-file", "diverge-table",
        "diverge-projection", "diverge-kappa", "config-k-neighbors", "config-n-pairs",
        "config-atkinson", "analyze-k0", "probe-threshold", "probe-not-unit",
        "simi-cent-not-unit", "sinkhorn-capped", "removed-use-kl",
        "removed-normalize-weights", "seed-negative", "label-float", "train-one-path",
        "sidecar-label-string", "config-null", "mode-unknown", "out-is-file",
        "sinkhorn-overflow", "train-k-too-large", "label-bool", "diverge-temperature",
        "deep-sidecar", "train-batch-1", "train-one-pair", "train-batch-over-bank",
        "flag-not-int", "missing-command", "config-deep", "config-not-utf8",
        "labels-deep", "labels-bare-list", "sidecar-ids-object", "sidecar-ids-string",
        "sidecar-ids-nested"])
    # a NumPy RuntimeWarning would print ahead of the error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_2_with_error_line_and_no_artifacts(self, probe, tmp_path,
                                                      capsys, rng):
        argv = _probe_argv(probe, tmp_path, rng)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert re.match(_PROBE_ERRORS.get(probe, "error:"), captured.err), captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.rglob("*"))


class TestCliStderr:
    def test_warnings_print_as_warning_lines(self, tmp_path):
        # in a subprocess, where pytest cannot capture the warning: four equal
        # rows leave N_k without spread, which hubness reports by a warning
        rows = np.tile([[1.0, 0.0, 0.0]], (4, 1))
        hio.write_embeddings(tmp_path / "q.emb", rows, "query")
        hio.write_embeddings(tmp_path / "g.emb", rows, "gallery")
        src = str(Path(hublab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hublab.cli",
             "analyze", "--queries", str(tmp_path / "q.emb"), "--galleries",
             str(tmp_path / "g.emb"), "--k", "2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert "warning: zero spread, skewness forced to 0" in lines, proc.stderr
        assert all(line.startswith("warning: ") for line in lines), proc.stderr
        assert len(lines) == len(set(lines))
        assert proc.stdout == f"{next((tmp_path / 'out').glob('analyze-*'))}\n"


class TestEndToEnd:
    def test_simulate_then_analyze_shows_planted_hubs(self, tmp_path, capsys):
        # default planted-hub generation, inspected through the CLI only
        out = tmp_path / "runs"
        assert main(["simulate", "--out", str(out), "--seed", "0"]) == 0
        sim_dir = next(out.glob("simulate-*"))
        assert main(["analyze", "--queries", str(sim_dir / "queries.emb"),
                     "--galleries", str(sim_dir / "galleries.emb"),
                     "--out", str(out), "--seed", "0"]) == 0
        an_dir = next(out.glob("analyze-*"))
        doc = json.loads((an_dir / "report.json").read_text())
        assert doc["config"]["k"] == 15
        assert doc["report"]["hub"] > 0.2

    @pytest.mark.slow
    def test_train_default_config_reduces_hubs(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "t"), "--seed", "0"])
        assert rc == 0
        run_dir = next((tmp_path / "t").glob("train-*"))
        before = json.loads((run_dir / "report_before.json").read_text())
        after = json.loads((run_dir / "report_after.json").read_text())
        assert after["report"]["hub"] < before["report"]["hub"]


# keys that set how much work a command does
_SIZE_KEYS = ("n_pairs", "dim", "epochs", "batch_size", "bank_capacity",
              "k_neighbors", "k", "sinkhorn_max_iter")
_PATH_KEYS = [key for key, value in DEFAULTS.items() if value is None]
# the valid value of every string key, so that most draws get past the type check
_WORDS = ["exact", "paper", "embedding-table", "linear-projection", "batch", "bank",
          "simi", "simi-cent"]
_FILES = ["q.emb", "g.emb", "labels.json", "absent.emb"]

_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                    st.floats(-2, 2), st.text(max_size=2), st.sampled_from(_WORDS))
# an invalid size, or a valid one of at most 16, so that train stays small
_size = st.one_of(st.integers(max_value=16), st.floats(), st.booleans(), st.none(),
                  st.text(max_size=2))
# names inside the test's directory; "/" and "." would reach outside it
_path = st.one_of(st.none(), st.integers(), st.sampled_from(_FILES),
                  st.text(st.characters(blacklist_characters="/."), max_size=3))


@st.composite
def _raw_json_bodies(draw):
    """The bytes of a JSON document nested past the parser's recursion
    limit, broken as UTF-8, or cut short."""
    body = json.dumps(draw(_json)).encode()
    kind = draw(st.sampled_from(["deep", "not-utf8", "truncated"]))
    if kind == "deep":
        return draw(st.sampled_from([b"[", b'{"a": '])) * 100_000 + body
    if kind == "not-utf8":
        at = draw(st.integers(0, len(body)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        return body[:at] + bad + body[at:]
    return body[:draw(st.integers(0, len(body) - 1))]


@st.composite
def _config_docs(draw):
    """Valid small sizes with up to four keys redrawn, any JSON at all, or
    bytes that are not JSON."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(_json)
    if kind == 1:
        return draw(_raw_json_bodies())
    doc = {key: draw(st.integers(1, 16)) for key in _SIZE_KEYS}
    for key in draw(st.lists(st.sampled_from([*DEFAULTS, "unknown"]), max_size=4,
                             unique=True)):
        doc[key] = draw(_size if key in _SIZE_KEYS else
                        _path if key in _PATH_KEYS else _scalar)
    return doc


_label_docs = st.one_of(
    _json,
    st.fixed_dictionaries(
        {"pairs": st.lists(st.one_of(st.lists(st.integers(-1, 4), max_size=3), _scalar),
                           max_size=6)},
        optional={"source": _json}))


# any short string, or one that some flag accepts
_flag_values = st.one_of(st.text(max_size=4), st.integers(-2, 6).map(str),
                         st.sampled_from(["simi", "simi-cent", "0.5", "-1", "nan", "1e9"]))


def _json_bytes(doc) -> bytes:
    """A drawn document as JSON, or drawn raw bytes as they are."""
    return doc if isinstance(doc, bytes) else json.dumps(doc).encode()


class TestCliFuzz:
    # inputs this small often leave N_k without spread, which hubness reports
    # with a DegenerateDistribution warning by design; main prints it as a
    # warning: line under the default filter that users run, which the test
    # sets for that category alone, so any other warning still fails it
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["analyze", "probe", "retrieve", "simulate", "train"]),
           config=_config_docs(),
           labels=st.one_of(st.none(), _label_docs, _raw_json_bodies()),
           sidecar=st.one_of(st.none(), st.fixed_dictionaries({"ids": _json})),
           flags=st.dictionaries(st.sampled_from(["--k", "--seed", "--mode", "--threshold"]),
                                 _flag_values, max_size=2))
    # "-h" after a flag that simulate does not take is a request for help
    @example(command="simulate", config={}, labels=None, sidecar=None, flags={"--k": "-h"})
    # every one of the 4 queries ranks all 4 gallery rows, so N_k has no spread
    @example(command="analyze", config={}, labels=None, sidecar=None, flags={"--k": "4"})
    def test_exits_0_or_2_with_one_error_line(self, command, config, labels, sidecar,
                                              flags):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            rng = np.random.default_rng(0)
            hio.write_embeddings(tmp / "q.emb", random_unit_rows(rng, 4, 3), "query")
            hio.write_embeddings(tmp / "g.emb", random_unit_rows(rng, 4, 3), "gallery")
            hio.write_embeddings(tmp / "t.emb", random_unit_rows(rng, 4, 3), "query")
            if isinstance(config, dict):
                config = {key: str(tmp / value) if key in _PATH_KEYS
                          and isinstance(value, str) and value else value
                          for key, value in config.items()}
            if sidecar is not None:
                hio.sidecar_path(tmp / "g.emb").write_text(json.dumps(sidecar))
            (tmp / "cfg.json").write_bytes(_json_bytes(config))
            argv = [command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")]
            if command in ("analyze", "retrieve"):
                argv += ["--queries", str(tmp / "q.emb"), "--galleries", str(tmp / "g.emb")]
            if command == "retrieve" and labels is not None:
                (tmp / "labels.json").write_bytes(_json_bytes(labels))
                argv += ["--labels", str(tmp / "labels.json")]
            if command == "probe":
                argv += ["--texts", str(tmp / "t.emb")]
            # a flag that the command does not take is an error too
            for flag, value in flags.items():
                argv += [flag, value]
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings()):
                warnings.simplefilter("default", DegenerateDistribution)
                try:
                    rc = main(argv)
                except SystemExit as exc:  # only --help exits, with code 0
                    rc = exc.code
        assert rc in (0, 2)
        if rc == 2:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()
        else:
            assert re.fullmatch(r"(warning: [^\n]*\n)*", err.getvalue()), err.getvalue()
