"""FIFO memory bank of recent embeddings and the centrality scores built on it.

The bank keeps one queue per modality. Centrality of a sample is its mean
cosine similarity to the stored vectors: against the same-modality queue
(intra) or the opposite-modality queue (cross). Stored vectors are
detached snapshots; they never carry gradients.
"""

from __future__ import annotations

import numpy as np

from .core import MODALITIES, EmbeddingSet, opposite, require_unit_rows, row_blocks
from .errors import EmptyBank, NonFiniteLoss, OutOfRange, ShapeMismatch


class MemoryBank:
    """Fixed-capacity FIFO store of unit vectors, one queue per modality.

    Oldest entries sit first; pushing past capacity evicts exactly as many
    of the oldest entries as needed. Writers need exclusive access, readers
    may run concurrently between writes.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._slots = {m: np.empty((0, dim), dtype=np.float64) for m in MODALITIES}

    def fill(self, modality: str) -> int:
        return self._slots[modality].shape[0]

    def vectors(self, modality: str) -> np.ndarray:
        """Stored vectors for one modality, oldest first (read-only view)."""
        view = self._slots[modality].view()
        view.flags.writeable = False
        return view


def push_batch(bank: MemoryBank, batch: EmbeddingSet) -> MemoryBank:
    """Append a batch to its modality queue, evicting the oldest overflow."""
    if batch.dim != bank.dim:
        raise ShapeMismatch(f"batch dim {batch.dim} != bank dim {bank.dim}")
    if batch.n > bank.capacity:
        raise OutOfRange(f"batch of {batch.n} exceeds capacity {bank.capacity}")
    require_unit_rows(batch.data, "bank only stores unit-norm vectors; normalize first")
    # concatenate copies, so the queue never shares memory with the batch
    merged = np.concatenate([bank._slots[batch.modality], batch.data], axis=0)
    bank._slots[batch.modality] = merged[-bank.capacity:]
    return bank


def _centrality(stored: np.ndarray, samples: EmbeddingSet) -> np.ndarray:
    if stored.shape[0] == 0:
        raise EmptyBank("centrality requested against an empty queue")
    if samples.dim != stored.shape[1]:
        raise ShapeMismatch(f"sample dim {samples.dim} != bank dim {stored.shape[1]}")
    norms = np.sqrt((samples.data ** 2).sum(axis=1))
    unit = samples.data / norms[:, None]
    # one block of samples at a time: the full gram would be n x fill
    values = np.concatenate([(unit[rows] @ stored.T).mean(axis=1)
                             for rows in row_blocks(samples.n)])
    return np.clip(values, -1.0, 1.0)


def intra_centrality(bank: MemoryBank, samples: EmbeddingSet) -> np.ndarray:
    """Mean cosine of each sample to the same-modality queue."""
    return _centrality(bank._slots[samples.modality], samples)


def cross_centrality(bank: MemoryBank, samples: EmbeddingSet) -> np.ndarray:
    """Mean cosine of each sample to the opposite-modality queue."""
    return _centrality(bank._slots[opposite(samples.modality)], samples)


def centrality_weights(c: np.ndarray, kappa: float) -> np.ndarray:
    """Per-sample weights exp(C_i / kappa) from intra-modal centrality,
    rescaled to batch mean 1 so the effective learning rate stays comparable
    across kappa.
    """
    if not kappa > 0:
        raise OutOfRange(f"kappa must be positive, got {kappa}")
    with np.errstate(over="ignore"):
        w = np.exp(c / kappa)
    if not np.all(np.isfinite(w)):
        raise NonFiniteLoss(f"centrality weights exp(C / kappa) with kappa {kappa!r} "
                            "are not finite")
    return w / w.mean()
