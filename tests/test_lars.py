"""Optimizer tests: norm-quotient rates, momentum mechanics, checkpoints."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsync.halfprec import quantize_tensor
from gradsync.lars import (
    LarsConfig,
    ParamGroup,
    Schedule,
    lars_local_lr,
    lars_step,
    load_checkpoint,
    save_checkpoint,
)
from gradsync.toymodel import DenseNet


def norm64_fsum(x):
    # independent route: exact pairwise-free accumulation of squares
    return math.sqrt(math.fsum(float(v) * float(v) for v in x))


def test_local_lr_matches_norm_quotient_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        w = rng.standard_normal(n).astype(np.float32) * rng.uniform(0.01, 10)
        g = rng.standard_normal(n).astype(np.float32) * rng.uniform(0.001, 5)
        for eps in (0.0, 1e-6, 0.5):
            got = lars_local_lr(w, g, eta=0.001, epsilon=eps)
            want = 0.001 * norm64_fsum(w) / (norm64_fsum(g) + eps)
            assert got == pytest.approx(want, rel=1e-7)


def test_local_lr_degenerate_cases():
    z = np.zeros(8, dtype=np.float32)
    w = np.ones(8, dtype=np.float32)
    assert lars_local_lr(z, w, eta=0.001) == 1.0
    assert lars_local_lr(w, z, eta=0.001) == 1.0
    # epsilon keeps the quotient defined even for a zero gradient
    got = lars_local_lr(w, z, eta=0.001, epsilon=0.5)
    assert got == pytest.approx(0.001 * math.sqrt(8.0) / 0.5, rel=1e-12)


def linalg_local_lr(w, g, eta, epsilon=0.0):
    # the rate as it was first written, on np.linalg.norm
    w_norm = float(np.linalg.norm(w.astype(np.float64)))
    g_norm = float(np.linalg.norm(g.astype(np.float64)))
    denom = g_norm + epsilon
    if w_norm == 0.0 or denom == 0.0:
        return 1.0
    return eta * w_norm / denom


def test_local_lr_equals_the_linalg_norm_formula_bitwise():
    rng = np.random.default_rng(19)
    tiny = np.float32(2.0 ** -140)  # subnormal in float32
    vectors = [np.zeros(0, np.float32), np.zeros(1, np.float32),
               np.float32([3.0]), np.float32([-tiny]), np.zeros(9, np.float32),
               np.full(5, tiny, np.float32), np.float32([3e38, -3e38, 1.0]),
               np.full(7, np.finfo(np.float32).max, np.float32)]
    for _ in range(40):
        n = int(rng.integers(0, 300))
        v = (rng.standard_normal(n) * 10.0 ** rng.integers(-45, 38, n)).astype(np.float32)
        v[rng.random(n) < 0.2] = 0.0
        vectors.append(v)
    for w in vectors:
        for g in vectors:
            if g.size != w.size:
                g = np.resize(g, w.size)
            for eps in (0.0, 1e-6):
                got = lars_local_lr(w, g, eta=0.001, epsilon=eps)
                want = linalg_local_lr(w, g, eta=0.001, epsilon=eps)
                assert type(got) is float
                assert struct.pack("<d", got) == struct.pack("<d", want), (w, g, eps)


@given(st.integers(min_value=-8, max_value=8))
@settings(max_examples=30, derandomize=True)
def test_local_lr_power_of_two_gradient_scaling(s):
    rng = np.random.default_rng(77)
    w = rng.standard_normal(64).astype(np.float32)
    g = rng.standard_normal(64).astype(np.float32)
    base = lars_local_lr(w, g, eta=0.001)
    scaled = lars_local_lr(w, g * np.float32(2.0 ** s), eta=0.001)
    assert scaled == base * 2.0 ** (-s)


def test_schedule_warmup_midpoint():
    sched = Schedule(base_lr=0.8, kind="constant", warmup_steps=10)
    assert sched.lr(0) == 0.0
    assert sched.lr(5) == pytest.approx(0.4)
    assert sched.lr(10) == 0.8
    assert sched.lr(500) == 0.8


def test_schedule_poly_quarter_point():
    sched = Schedule(base_lr=1.0, kind="poly", total_steps=100, end_lr=0.0,
                     power=2.0)
    assert sched.lr(0) == 1.0
    assert sched.lr(50) == pytest.approx(0.25)
    assert sched.lr(100) == 0.0
    assert sched.lr(150) == 0.0


def test_schedule_poly_joins_warmup_without_jump():
    sched = Schedule(base_lr=0.6, kind="poly", warmup_steps=10,
                     total_steps=110, end_lr=0.06)
    assert sched.lr(9) == pytest.approx(0.54)
    assert sched.lr(10) == pytest.approx(0.6, rel=1e-12)
    assert sched.lr(110) == pytest.approx(0.06)


def test_schedule_validation():
    with pytest.raises(ValueError, match="base_lr"):
        Schedule(base_lr=0.0)
    with pytest.raises(ValueError, match="kind"):
        Schedule(base_lr=1.0, kind="cosine")
    with pytest.raises(ValueError, match="total_steps"):
        Schedule(base_lr=1.0, kind="poly", warmup_steps=10, total_steps=10)
    with pytest.raises(ValueError, match="end_lr"):
        Schedule(base_lr=1.0, kind="poly", total_steps=10, end_lr=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_are_rejected(bad):
    for field in ("base_lr", "end_lr", "power"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Schedule(**{"base_lr": 1.0, "kind": "poly", "total_steps": 10, field: bad})
    sched = Schedule(base_lr=1.0)
    for field in ("eta", "epsilon", "weight_decay", "momentum"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LarsConfig(schedule=sched, **{field: bad})


def test_config_validation():
    sched = Schedule(base_lr=1.0)
    with pytest.raises(ValueError, match="eta"):
        LarsConfig(schedule=sched, eta=0.0)
    with pytest.raises(ValueError, match="momentum"):
        LarsConfig(schedule=sched, momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay"):
        LarsConfig(schedule=sched, weight_decay=-0.1)


def test_param_group_defaults_by_kind(param_group):
    assert param_group("w", "weight", np.ones(4)).decay_exempt is False
    assert param_group("w", "weight", np.ones(4)).lars_enabled is True
    for kind in ("bias", "bn_beta", "bn_gamma"):
        g = param_group("x", kind, np.ones(4))
        assert g.decay_exempt is True
        assert g.lars_enabled is False
    override = param_group("b", "bias", np.ones(4), decay_exempt=False)
    assert override.decay_exempt is False


def test_param_group_validation(param_group):
    ok = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="kind"):
        param_group("x", "conv", ok)
    with pytest.raises(TypeError, match="grad"):
        ParamGroup("x", "weight", ok, ok.astype(np.float64), ok.copy())
    with pytest.raises(ValueError, match="velocity"):
        ParamGroup("x", "weight", ok, ok.copy(), np.zeros(5, np.float32))


def test_working_copy_tracks_master():
    vals = np.array([0.1, 1.0, -65504.0, 3.14159], dtype=np.float32)
    net = DenseNet([1, 4], seed=0)
    net.groups[0].master_w[:] = vals
    net.round_weights()
    assert net.groups[0].name == "head.weight"
    assert np.array_equal(net.rounded["head.weight"], quantize_tensor(vals)[None, :])


def test_two_step_momentum_reference(param_group):
    rng = np.random.default_rng(3)
    w0 = rng.uniform(0.5, 1.5, 32).astype(np.float32)
    g1 = rng.standard_normal(32).astype(np.float32) * np.float32(0.1)
    g2 = rng.standard_normal(32).astype(np.float32) * np.float32(0.1)
    cfg = LarsConfig(schedule=Schedule(base_lr=0.5), eta=0.001,
                     weight_decay=0.01, momentum=0.9)
    group = param_group("w", "weight", w0)

    # hand-rolled replay of the exact float32 arithmetic
    def norm64(x):
        return float(np.linalg.norm(x.astype(np.float64)))

    wd = np.float32(0.01)
    m = np.float32(0.9)
    eff1 = g1 + wd * w0
    s1 = np.float32((0.001 * norm64(w0) / norm64(eff1)) * 0.5)
    v1 = s1 * eff1
    w1 = w0 - v1
    eff2 = g2 + wd * w1
    s2 = np.float32((0.001 * norm64(w1) / norm64(eff2)) * 0.5)
    v2 = m * v1 + s2 * eff2
    w2 = w1 - v2

    group.grad[:] = g1
    assert lars_step([group], cfg, step=0)
    group.grad[:] = g2
    assert lars_step([group], cfg, step=1)

    assert np.array_equal(group.velocity, v2)
    assert np.array_equal(group.master_w, w2)


def test_disabled_lars_uses_unit_local_rate(param_group):
    w0 = np.full(8, 2.0, dtype=np.float32)
    g = np.full(8, 0.25, dtype=np.float32)
    cfg = LarsConfig(schedule=Schedule(base_lr=0.5), weight_decay=0.0,
                     momentum=0.0)
    group = param_group("b", "bias", w0)
    group.grad[:] = g
    assert lars_step([group], cfg, step=0)
    assert np.array_equal(group.master_w,
                          w0 - np.float32(0.5) * g)


def test_rejects_nonfinite_without_mutation(param_group):
    cfg = LarsConfig(schedule=Schedule(base_lr=0.1))
    a = param_group("a", "weight", np.ones(4))
    b = param_group("b", "bias", np.ones(4))
    a.grad[:] = 0.5
    b.grad[:] = [0.1, np.nan, 0.1, 0.1]
    before = (a.master_w.copy(), a.velocity.copy(),
              b.master_w.copy(), b.velocity.copy())
    assert lars_step([a, b], cfg, step=0) is False
    assert np.array_equal(a.master_w, before[0])
    assert np.array_equal(a.velocity, before[1])
    assert np.array_equal(b.master_w, before[2])
    assert np.array_equal(b.velocity, before[3])

    b.grad[:] = [0.1, np.inf, 0.1, 0.1]
    assert lars_step([a, b], cfg, step=0) is False


def test_gradient_scale_invariance_bitwise(param_group):
    # with decay off, scaling the gradient by a power of two must leave
    # the applied update bit-identical
    rng = np.random.default_rng(8)
    w0 = rng.uniform(0.5, 1.5, 64).astype(np.float32)
    g = rng.standard_normal(64).astype(np.float32)
    cfg = LarsConfig(schedule=Schedule(base_lr=0.5), weight_decay=0.0,
                     momentum=0.9)

    plain = param_group("w", "weight", w0)
    scaled = param_group("w", "weight", w0)
    for step in range(3):
        plain.grad[:] = g * np.float32(step + 1)
        scaled.grad[:] = (g * np.float32(step + 1)) * np.float32(16.0)
        assert lars_step([plain], cfg, step)
        assert lars_step([scaled], cfg, step)
    assert np.array_equal(plain.master_w, scaled.master_w)
    assert np.array_equal(plain.velocity, scaled.velocity)


def test_master_accumulation_survives_tiny_updates(param_group):
    # a 1e-8 gradient is far below half precision resolution near 1.0;
    # the float32 master integrates it, a half-only store never moves
    cfg = LarsConfig(schedule=Schedule(base_lr=1.0), weight_decay=0.0,
                     momentum=0.9)
    with_master = param_group("b", "bias", np.ones(512))
    half_only = param_group("b", "bias", np.ones(512))
    for step in range(200):
        with_master.grad[:] = 1e-8
        half_only.grad[:] = 1e-8
        assert lars_step([with_master], cfg, step)
        assert lars_step([half_only], cfg, step)
        half_only.master_w[:] = quantize_tensor(half_only.master_w)
    assert np.all(with_master.master_w < 1.0 - 5e-6)
    assert np.all(half_only.master_w == 1.0)
    assert np.all(quantize_tensor(with_master.master_w) == 1.0)


def test_checkpoint_roundtrip_and_resume(tmp_path, param_group):
    rng = np.random.default_rng(21)
    cfg = LarsConfig(schedule=Schedule(base_lr=0.2), momentum=0.9)
    groups = [
        param_group("fc1.w", "weight", rng.standard_normal(40)),
        param_group("fc1.b", "bias", rng.standard_normal(10)),
        param_group("bn.gamma", "bn_gamma", np.ones(10)),
    ]
    for step in range(3):
        for g in groups:
            g.grad[:] = rng.standard_normal(g.size).astype(np.float32)
        assert lars_step(groups, cfg, step)

    path = tmp_path / "state.lars"
    save_checkpoint(path, groups, step=3)
    loaded, step = load_checkpoint(path)
    assert step == 3
    assert [g.name for g in loaded] == ["fc1.w", "fc1.b", "bn.gamma"]
    for orig, back in zip(groups, loaded):
        assert back.kind == orig.kind
        assert back.decay_exempt == orig.decay_exempt
        assert back.lars_enabled == orig.lars_enabled
        assert np.array_equal(back.master_w, orig.master_w)
        assert np.array_equal(back.velocity, orig.velocity)

    # resuming from the file must track the uninterrupted run bitwise
    nxt = rng.standard_normal(40).astype(np.float32)
    for batch in (groups, loaded):
        batch[0].grad[:] = nxt
        assert lars_step(batch, cfg, step=3)
    assert np.array_equal(groups[0].master_w, loaded[0].master_w)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)

    versioned = tmp_path / "future.bin"
    import struct as _s
    versioned.write_bytes(_s.pack("<4sHQI", b"LARS", 9, 0, 0))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(versioned)

    # a well-formed version-1 file, which also stored binary16 working
    # weights after the velocity, is no longer read
    old = tmp_path / "v1.bin"
    old.write_bytes(_s.pack("<4sHQI", b"LARS", 1, 5, 1)
                    + _s.pack("<H", 1) + b"w" + _s.pack("<BBQ", 0, 2, 2)
                    + np.ones(2, "<f4").tobytes() + np.zeros(2, "<f4").tobytes()
                    + np.full(2, 0x3C00, "<u2").tobytes())
    with pytest.raises(ValueError, match="version 1"):
        load_checkpoint(old)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path, param_group):
    groups = [param_group("fc1.w", "weight", np.arange(3.0)),
              param_group("fc1.b", "bias", np.ones(2))]
    path = tmp_path / "state.lars"
    save_checkpoint(path, groups, step=7)
    data = path.read_bytes()
    cut = tmp_path / "cut.lars"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(cut)
    cut.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(cut)
    cut.write_bytes(data)
    loaded, step = load_checkpoint(cut)
    assert step == 7 and [g.name for g in loaded] == ["fc1.w", "fc1.b"]


def _valid_checkpoint(path, param_group) -> bytes:
    groups = [param_group("fc1.w", "weight", np.arange(3.0)),
              param_group("bn.gamma", "bn_gamma", np.ones(2))]
    save_checkpoint(path, groups, step=4)
    return path.read_bytes()


@given(st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda tail: b"LARS\x02\x00" + tail),
    st.tuples(st.integers(min_value=0), st.integers(0, 255)),
))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_checkpoint_decoder_loads_or_raises_value_error(tmp_path_factory, param_group, case):
    path = tmp_path_factory.getbasetemp() / "fuzz.lars"
    if isinstance(case, tuple):
        data = bytearray(_valid_checkpoint(path, param_group))
        pos, value = case
        data[pos % len(data)] = value
        case = bytes(data)
    path.write_bytes(case)
    try:
        groups, step = load_checkpoint(path)
    except ValueError:
        return
    assert isinstance(step, int)
    assert all(isinstance(g, ParamGroup) for g in groups)
