"""Tensor fusion: coalesce small gradients into batches before reduction.

A ``FusionBuffer`` accumulates tensors in arrival order and emits one
fused batch as soon as the pending bytes strictly exceed the threshold,
so the tensor that crosses the line ships in the same batch.  ``flush``
drains whatever is left at the end of a step; that final batch is the
only one allowed at or under the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FusedBatch", "FusionBuffer", "unpack", "trace_record"]


@dataclass(frozen=True)
class FusedBatch:
    """One contiguous payload plus the map needed to split it back up.

    ``unpack_map`` holds ``(tensor_id, offset, length)`` triples in
    arrival order; offsets and lengths count elements of ``payload``.
    """

    payload: np.ndarray
    unpack_map: tuple[tuple[str, int, int], ...]

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes

    @property
    def tensor_ids(self) -> list[str]:
        return [tid for tid, _, _ in self.unpack_map]


class FusionBuffer:
    """Accumulates tensors and emits fused batches past a byte threshold."""

    def __init__(self, threshold_bytes: int):
        if threshold_bytes < 0:
            raise ValueError(f"fusion threshold must be >= 0, got {threshold_bytes}")
        self.threshold_bytes = int(threshold_bytes)
        self._pending: list[tuple[str, np.ndarray]] = []
        self._pending_bytes = 0
        self._dtype: np.dtype | None = None

    def enqueue(self, tensor_id: str, tensor: np.ndarray) -> FusedBatch | None:
        """Add one tensor; returns a batch when the threshold is crossed.

        Tensors are flattened into the batch payload; every tensor in one
        buffer must share a dtype, and ids may not repeat while pending.
        """
        t = np.asarray(tensor)
        if self._dtype is None:
            self._dtype = t.dtype
        elif t.dtype != self._dtype:
            raise ValueError(f"mixed dtypes in fusion buffer: {self._dtype} vs {t.dtype}")
        if any(tid == tensor_id for tid, _ in self._pending):
            raise ValueError(f"tensor id already pending: {tensor_id!r}")
        self._pending.append((tensor_id, t.ravel()))
        self._pending_bytes += t.nbytes
        if self._pending_bytes > self.threshold_bytes:
            return self._emit()
        return None

    def flush(self) -> FusedBatch | None:
        """Emit whatever is pending (None when the buffer is empty)."""
        if not self._pending:
            return None
        return self._emit()

    def _emit(self) -> FusedBatch:
        parts = []
        offset = 0
        for tid, flat in self._pending:
            parts.append((tid, offset, flat.size))
            offset += flat.size
        payload = (np.concatenate([flat for _, flat in self._pending])
                   if offset else np.empty(0, dtype=self._dtype))
        batch = FusedBatch(payload=payload, unpack_map=tuple(parts))
        self._pending.clear()
        self._pending_bytes = 0
        return batch


def unpack(batch: FusedBatch) -> list[tuple[str, np.ndarray]]:
    """Split a fused payload back into (tensor_id, flat array) pairs."""
    n = batch.payload.size
    out = []
    expected = 0
    for tid, offset, length in batch.unpack_map:
        if offset != expected or length < 0 or offset + length > n:
            raise ValueError(f"corrupt unpack map at {tid!r}: ({offset}, {length})")
        out.append((tid, batch.payload[offset:offset + length]))
        expected = offset + length
    if expected != n:
        raise ValueError(f"unpack map covers {expected} of {n} elements")
    return out


def trace_record(step: int, batch_index: int, batch: FusedBatch) -> dict:
    """One JSON-lines record describing an emitted batch."""
    return {
        "step": int(step),
        "batch_index": int(batch_index),
        "tensor_ids": batch.tensor_ids,
        "bytes": batch.nbytes,
    }
