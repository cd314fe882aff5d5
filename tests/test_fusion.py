"""Fusion buffer behaviour: threshold, ordering, conservation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync.fusion import FusedBatch, FusionBuffer, trace_record, unpack


def f32(n, start=0.0):
    return np.arange(start, start + n, dtype=np.float32)


def test_threshold_crossing_includes_crossing_tensor():
    # 300 + 300 + 500 bytes against a 1000-byte threshold: nothing emits
    # until the third tensor pushes the total to 1100.
    buf = FusionBuffer(1000)
    assert buf.enqueue("a", f32(75)) is None
    assert buf.enqueue("b", f32(75)) is None
    batch = buf.enqueue("c", f32(125))
    assert batch is not None
    assert batch.nbytes == 1100
    assert batch.tensor_ids == ["a", "b", "c"]
    assert buf.flush() is None
    # the next batch starts empty: 996 more bytes do not cross the line
    assert buf.enqueue("d", f32(249)) is None
    assert buf.enqueue("e", f32(2)).tensor_ids == ["d", "e"]


def test_exactly_threshold_does_not_emit():
    buf = FusionBuffer(600)
    assert buf.enqueue("a", f32(75)) is None
    assert buf.enqueue("b", f32(75)) is None     # pending == threshold
    batch = buf.enqueue("c", f32(1))
    assert batch is not None and batch.nbytes == 604
    assert batch.tensor_ids == ["a", "b", "c"]


def test_zero_threshold_emits_every_tensor():
    buf = FusionBuffer(0)
    for i in range(5):
        batch = buf.enqueue(f"t{i}", f32(3))
        assert batch is not None and batch.tensor_ids == [f"t{i}"]


def test_flush_drains_remainder():
    buf = FusionBuffer(10_000)
    buf.enqueue("a", f32(4))
    buf.enqueue("b", f32(6))
    batch = buf.flush()
    assert batch.nbytes == 40
    assert batch.unpack_map == (("a", 0, 4), ("b", 4, 6))
    assert buf.flush() is None


def test_unpack_roundtrip_bitwise():
    rng = np.random.default_rng(0)
    buf = FusionBuffer(64)
    tensors = {f"g{i}": rng.standard_normal(rng.integers(1, 9)).astype(np.float32)
               for i in range(10)}
    batches = []
    for tid, t in tensors.items():
        out = buf.enqueue(tid, t)
        if out is not None:
            batches.append(out)
    tail = buf.flush()
    if tail is not None:
        batches.append(tail)
    seen = {}
    for b in batches:
        for tid, arr in unpack(b):
            seen[tid] = arr
    assert list(seen) == list(tensors)
    for tid, t in tensors.items():
        assert np.array_equal(seen[tid], t.ravel())


def test_multidim_tensors_flatten():
    buf = FusionBuffer(10_000)
    t = np.arange(12, dtype=np.float32).reshape(3, 4)
    buf.enqueue("w", t)
    batch = buf.flush()
    assert batch.unpack_map == (("w", 0, 12),)
    assert np.array_equal(batch.payload, t.ravel())


def test_uint16_payloads():
    buf = FusionBuffer(7)
    assert buf.enqueue("a", np.arange(3, dtype=np.uint16)) is None  # 6 bytes
    batch = buf.enqueue("b", np.arange(1, dtype=np.uint16))
    assert batch is not None and batch.nbytes == 8
    assert batch.payload.dtype == np.uint16


def test_dtype_mixing_rejected():
    buf = FusionBuffer(1000)
    buf.enqueue("a", f32(2))
    with pytest.raises(ValueError, match="mixed dtypes"):
        buf.enqueue("b", np.arange(2, dtype=np.uint16))


def test_duplicate_pending_id_rejected():
    buf = FusionBuffer(1000)
    buf.enqueue("a", f32(2))
    with pytest.raises(ValueError, match="already pending"):
        buf.enqueue("a", f32(2))


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        FusionBuffer(-1)


def test_corrupt_unpack_map_detected():
    batch = FusedBatch(payload=f32(10), unpack_map=(("a", 0, 4), ("b", 5, 5)))
    with pytest.raises(ValueError, match="corrupt unpack map"):
        unpack(batch)
    short = FusedBatch(payload=f32(10), unpack_map=(("a", 0, 4),))
    with pytest.raises(ValueError, match="covers 4 of 10"):
        unpack(short)


def test_trace_record_is_json_serializable():
    buf = FusionBuffer(0)
    batch = buf.enqueue("layer0.w@3", f32(5))
    rec = trace_record(3, 0, batch)
    assert json.loads(json.dumps(rec)) == {
        "step": 3, "batch_index": 0, "tensor_ids": ["layer0.w@3"], "bytes": 20,
    }


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=20),
    threshold=st.integers(min_value=0, max_value=400),
)
def test_fusion_invariants(sizes, threshold):
    rng = np.random.default_rng(42)
    tensors = [(f"t{i}", rng.standard_normal(n).astype(np.float32)) for i, n in enumerate(sizes)]
    buf = FusionBuffer(threshold)
    batches = []
    for tid, t in tensors:
        out = buf.enqueue(tid, t)
        if out is not None:
            batches.append(out)
    tail = buf.flush()
    n_full = len(batches)
    if tail is not None:
        batches.append(tail)

    # ids appear exactly once, in arrival order
    ids = [tid for b in batches for tid in b.tensor_ids]
    assert ids == [tid for tid, _ in tensors]
    # every batch before the flush strictly exceeds the threshold
    for b in batches[:n_full]:
        assert b.nbytes > threshold
    # offsets are contiguous from zero
    for b in batches:
        expected = 0
        for _, offset, length in b.unpack_map:
            assert offset == expected
            expected += length
        assert expected == b.payload.size
    # conservation: concatenated payloads equal concatenated inputs bitwise
    got = np.concatenate([b.payload for b in batches]) if batches else np.empty(0, np.float32)
    want = np.concatenate([t for _, t in tensors])
    assert np.array_equal(got, want)
