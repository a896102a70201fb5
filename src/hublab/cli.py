"""Command surface: analyze, train, retrieve, probe, simulate.

``main`` resolves the configuration once: defaults, then the ``--config``
file, then the flags, whose names are config keys. Each command takes that
mapping and returns its artifacts, ``{file name: content}``, without writing
anything. ``_publish`` writes them all into a directory named after the
command and the configuration digest, and stamps the resolved configuration
plus a format version into each JSON output. Repeating a command with the
same resolved configuration reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as hio
from .bank import MemoryBank, push_batch
from .config import (
    DEFAULTS,
    FORMAT_VERSION,
    config_digest,
    resolve_config,
    train_config_from,
)
# cosine_similarity_matrix is not called here, but benchmarks/spans.py wraps
# this module's name for it
from .core import (MODALITY_GALLERY, CosineBlocks, EmbeddingSet, cosine_blocks,
                   cosine_similarity_matrix)
from .errors import ConfigError, HubLabError
from .eval import retrieval_eval, infer_simi_cent
from .hubness import RelevanceLabels, hubness_report, pseudo_positive_probe
from .trainer import CURVE_COLUMNS, PairedData, synth_generate, train


def _resolved(args) -> dict:
    """Defaults, the --config file, then each flag given (a left-out flag is None)."""
    file_config = hio.read_json_object(args.config, "config") if args.config else None
    flags = {key: value for key, value in vars(args).items()
             if key in DEFAULTS and value is not None}
    return resolve_config(file_config, flags)


def _synthetic(resolved: dict) -> PairedData:
    """The planted-hub pairs that the synthetic-data keys and the seed describe."""
    return synth_generate(resolved["n_pairs"], resolved["dim"],
                          resolved["hub_fraction"], resolved["contraction"],
                          resolved["noise"], resolved["seed"])


def _load_labels(path, shape) -> RelevanceLabels:
    doc = hio.read_json_object(path, "labels")
    pairs = doc.get("pairs")
    if pairs is None:
        raise ConfigError(f"{path}: expected a 'pairs' list")
    # type() and not isinstance(): NumPy would read true among integers as 1
    if isinstance(pairs, list) and any(type(v) is not int for pair in pairs
                                       if isinstance(pair, list) for v in pair):
        raise ConfigError(f"{path}: bad label pairs: indices must be integers")
    try:
        return RelevanceLabels.from_pairs(pairs, shape, doc.get("source", "ground-truth"))
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad label pairs: {exc}") from exc


def _publish(out_root, command: str, resolved: dict, artifacts: dict) -> Path:
    """Write a command's artifacts into ``<command>-<digest>`` under ``out_root``
    and return that directory. A dict is a JSON payload, stamped with the
    format version, the command and the resolved configuration; an
    EmbeddingSet is an ``.emb`` file; a string is text. Every file goes into a
    hidden sibling, emptied first if a killed run left one, that replaces an
    earlier run's directory only once all are written, so a failed command
    leaves no directory that looks complete."""
    name = f"{command}-{config_digest(command, resolved)}"
    directory, partial = Path(out_root) / name, Path(out_root) / f".{name}.partial"
    try:
        if partial.is_dir():
            shutil.rmtree(partial)
        partial.mkdir(parents=True)
        for file_name, content in artifacts.items():
            path = partial / file_name
            if isinstance(content, EmbeddingSet):
                hio.write_embedding_set(path, content)
            elif isinstance(content, str):
                path.write_text(content, newline="")
            else:
                doc = {"format_version": FORMAT_VERSION, "command": command,
                       "config": resolved, **content}
                path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        if directory.is_dir():
            shutil.rmtree(directory)
        partial.rename(directory)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: "
                          f"{exc.strerror}") from exc
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return directory


def _csv_text(rows) -> str:
    """Rows as csv.writer writes them."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


# rows per query in ranked.csv
RANKED_TOP = 10

# characters that make csv.writer quote a field: the delimiter, the quote
# character and those of its "\r\n" line terminator
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_cells(values: list) -> list:
    """Each value as csv.writer writes it inside a row of the excel dialect.
    Strings that need no quoting, as ids usually are, are returned as they
    are; otherwise each value goes through csv once."""
    if all(isinstance(value, str) for value in values) and not _CSV_SPECIAL.search(
            "".join(values)):
        return values
    return [_csv_text([[value, ""]])[:-len(",\r\n")] for value in values]


def cmd_analyze(resolved: dict) -> dict:
    if not resolved["queries"] or not resolved["galleries"]:
        raise ConfigError("analyze needs --queries and --galleries")
    # only the normalized rows that cosine_blocks keeps are read from here on
    s = cosine_blocks(hio.read_embedding_set(resolved["queries"]),
                      hio.read_embedding_set(resolved["galleries"]))
    report = hubness_report(s, resolved["k"], resolved["hub_size_factor"],
                            resolved["atkinson_epsilon"])
    return {"report.json": {"report": report},
            "histogram.csv": _csv_text([["n_k", "count"], *report["histogram"]])}


def cmd_train(resolved: dict) -> dict:
    if bool(resolved["queries"]) != bool(resolved["galleries"]):
        raise ConfigError("train needs both --queries and --galleries, or neither")
    if resolved["queries"]:
        data_q = hio.read_embedding_set(resolved["queries"])
        data_g = hio.read_embedding_set(resolved["galleries"])
        if data_q.n != data_g.n:
            raise ConfigError("query and gallery files must pair row for row")
        data = PairedData(data_q, data_g)
    else:
        data = _synthetic(resolved)
    result = train(train_config_from(resolved), data)
    curve = [[row[c] for c in CURVE_COLUMNS] for row in result.loss_curve]
    return {"resolved_config.json": {},
            "report_before.json": {"report": result.report_before},
            "report_after.json": {"report": result.report_after},
            "loss_curve.csv": _csv_text([CURVE_COLUMNS, *curve]),
            "trained_queries.emb": result.queries,
            "trained_galleries.emb": result.galleries}


def _minus_bank_centrality(s: CosineBlocks, galleries: EmbeddingSet,
                           bank_path) -> CosineBlocks:
    """The simi-cent scores: ``s`` minus each gallery item's centrality
    against a bank of the ``bank_path`` file, or of the galleries. The bank
    lives only for this call."""
    stored = hio.read_embedding_set(bank_path) if bank_path else galleries
    if stored.modality != MODALITY_GALLERY:
        raise ConfigError("simi-cent bank must hold gallery-side embeddings")
    return infer_simi_cent(s, galleries,
                           push_batch(MemoryBank(stored.n, galleries.dim), stored))


def cmd_retrieve(resolved: dict) -> dict:
    if not resolved["queries"] or not resolved["galleries"]:
        raise ConfigError("retrieve needs --queries and --galleries")
    queries = hio.read_embedding_set(resolved["queries"])
    galleries = hio.read_embedding_set(resolved["galleries"])
    query_ids = _csv_cells(queries.ids or [f"q{i:05d}" for i in range(queries.n)])
    gallery_ids = _csv_cells(galleries.ids or [f"g{j:05d}" for j in range(galleries.n)])
    s = cosine_blocks(queries, galleries)
    # s holds the rows normalized; of the raw ones, only the id cells are read
    del queries
    if resolved["mode"] == "simi-cent":
        s = _minus_bank_centrality(s, galleries, resolved["bank"])
    del galleries
    if resolved["labels"]:
        labels = _load_labels(resolved["labels"], (s.n, s.m))
    else:
        if s.n != s.m:
            raise ConfigError("without --labels, query and gallery counts must match")
        labels = RelevanceLabels.diagonal(s.n)
    # ranked.csv, one string per block, rendered while the block is in memory
    text = ["query_id,rank,gallery_id,score\r\n"]

    def render(rows, block, top):
        top = top[:, :RANKED_TOP]
        heads = [f"{query},{rank}," for query in query_ids[rows]
                 for rank in range(1, top.shape[1] + 1)]
        ranked = [gallery_ids[j] for j in top.ravel().tolist()]
        values = np.take_along_axis(block, top, axis=1).ravel().tolist()
        text.append("".join([f"{head}{gallery},{value!r}\r\n" for head, gallery, value
                             in zip(heads, ranked, values)]))

    scores = retrieval_eval(s, labels, render)
    return {"retrieval.json": {"mode": resolved["mode"], "scores": scores},
            "ranked.csv": "".join(text)}


def cmd_probe(resolved: dict) -> dict:
    if not resolved["texts"]:
        raise ConfigError("probe needs --texts")
    texts = hio.read_embedding_set(resolved["texts"])
    labels = pseudo_positive_probe(texts, resolved["probe_threshold"])
    return {"labels.json": {"source": labels.source,
                            "n": labels.shape[0],
                            "m": labels.shape[1],
                            "pairs": labels.to_pairs()}}


def cmd_simulate(resolved: dict) -> dict:
    data = _synthetic(resolved)
    return {"queries.emb": data.queries,
            "galleries.emb": data.galleries,
            "simulate.json": {"n_pairs": data.n,
                              "planted": [int(i) for i in np.flatnonzero(data.planted)]}}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that ``main``
    reports a malformed flag as one ``error:`` line; subparsers are made of
    the same class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hublab",
        description="Hubness diagnostics and hubness-aware embedding training.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", metavar="DIR", default="runs",
                       help="artifacts root (default: runs)")

    p = sub.add_parser("analyze", help="hubness report for an embedding pair")
    common(p)
    p.add_argument("--queries", metavar="PATH")
    p.add_argument("--galleries", metavar="PATH")
    p.add_argument("--k", type=int, help="neighborhood size for k-occurrence")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train a model on paired embeddings")
    common(p)
    p.add_argument("--queries", metavar="PATH", help="optional imported queries")
    p.add_argument("--galleries", metavar="PATH", help="optional imported galleries")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("retrieve", help="rank galleries and score retrieval")
    common(p)
    p.add_argument("--queries", metavar="PATH")
    p.add_argument("--galleries", metavar="PATH")
    p.add_argument("--labels", metavar="PATH", help="relevance pairs JSON")
    p.add_argument("--bank", metavar="PATH", help="bank source for simi-cent")
    p.add_argument("--mode", help="simi or simi-cent")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("probe", help="pseudo-positive labels from text similarity")
    common(p)
    p.add_argument("--texts", metavar="PATH")
    p.add_argument("--threshold", dest="probe_threshold", type=float)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("simulate", help="write a synthetic planted-hub dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one command. On success, print each distinct warning it raised as a
    ``warning:`` line on stderr and the artifact directory on stdout, and
    return 0; on a HubLabError, print only its ``error:`` line and return 2.
    Warnings that the active filters turn into errors still raise."""
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            resolved = _resolved(args)
            out = _publish(args.out, args.command, resolved, args.func(resolved))
    except HubLabError as exc:
        # a path or an unknown argument may hold a line break; the error is one line
        print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
