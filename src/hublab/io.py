"""Binary embedding file format plus JSON sidecar handling.

Layout (all integers little-endian):

    magic   4 bytes  b"EMB1"
    version u32      currently 1
    n       u32      number of rows
    d       u32      row width
    modality u8      0 = query-side, 1 = gallery-side
    reserved 3 bytes zero
    payload n*d float32, row-major, little-endian

A sidecar ``<stem>.meta.json`` next to the file optionally carries row
ids (a list of strings, numbers, booleans or nulls) and labels (a list of
integers or nulls). Reads and writes round-trip the payload bit-exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import MODALITY_GALLERY, MODALITY_QUERY, EmbeddingSet
from .errors import FormatError

MAGIC = b"EMB1"
VERSION = 1
_HEADER = struct.Struct("<4sIIIB3s")

_MODALITY_CODE = {MODALITY_QUERY: 0, MODALITY_GALLERY: 1}
_CODE_MODALITY = {v: k for k, v in _MODALITY_CODE.items()}


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def write_embeddings(path, data: np.ndarray, modality: str,
                     ids=None, labels=None) -> Path:
    """Write an embedding file (float32 payload) and optional sidecar."""
    path = Path(path)
    data = np.ascontiguousarray(np.asarray(data), dtype="<f4")
    if data.ndim != 2:
        raise FormatError(f"expected a 2-D array, got shape {data.shape}")
    n, d = data.shape
    if modality not in _MODALITY_CODE:
        raise FormatError(f"unknown modality {modality!r}")
    header = _HEADER.pack(MAGIC, VERSION, n, d, _MODALITY_CODE[modality], b"\x00" * 3)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
    if ids is not None or labels is not None:
        meta = {}
        if ids is not None:
            meta["ids"] = list(ids)
        if labels is not None:
            meta["labels"] = [None if v is None else int(v) for v in labels]
        sidecar_path(path).write_text(
            json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return path


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``, a command's ``what`` ("config",
    "labels" or "sidecar"); any other file is a FormatError naming both."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers JSONDecodeError and UnicodeDecodeError; deeply nested
    # JSON exhausts the parser's recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return doc


def read_embeddings(path) -> tuple[np.ndarray, str, dict]:
    """Read an embedding file; returns (float32 array, modality, meta dict)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from exc
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: too short for a header")
    magic, version, n, d, modality_code, reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if modality_code not in _CODE_MODALITY:
        raise FormatError(f"{path}: unknown modality code {modality_code}")
    if reserved != b"\x00" * 3:
        raise FormatError(f"{path}: reserved bytes not zero")
    expected = _HEADER.size + 4 * n * d
    if len(raw) != expected:
        raise FormatError(f"{path}: length {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: payload holds non-finite values")
    meta = {}
    side = sidecar_path(path)
    if side.exists():
        meta = read_json_object(side, "sidecar")
        ids, labels = meta.get("ids"), meta.get("labels")
        if ids is not None and not isinstance(ids, list):
            raise FormatError(f"{side}: ids must be a list")
        if ids and any(isinstance(v, (dict, list)) for v in ids):
            raise FormatError(f"{side}: ids must not be JSON objects or lists")
        # type() and not isinstance(), which would let true and false through
        if labels is not None and (not isinstance(labels, list) or any(
                v is not None and type(v) is not int for v in labels)):
            raise FormatError(f"{side}: labels must be a list of integers or nulls")
    return data.copy(), _CODE_MODALITY[modality_code], meta


def read_embedding_set(path) -> EmbeddingSet:
    """Read a file into an EmbeddingSet (requires at least one row)."""
    data, modality, meta = read_embeddings(path)
    if data.shape[0] == 0:
        raise FormatError(f"{path}: file holds no rows")
    try:
        return EmbeddingSet(data, modality,
                            ids=meta.get("ids"), labels=meta.get("labels"))
    except ValueError as exc:  # sidecar ids/labels of the wrong length
        raise FormatError(f"{path}: {exc}") from exc


def write_embedding_set(path, e: EmbeddingSet) -> Path:
    return write_embeddings(path, e.data, e.modality, e.ids, e.labels)

