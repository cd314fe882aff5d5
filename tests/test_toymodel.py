"""Network tests: analytic gradients against float64 finite differences."""

import math
import struct

import numpy as np
import pytest

from gradsync import halfprec, toymodel
from gradsync.halfprec import f16_to_f32, f32_to_f16, quantize_tensor, unscale_gradients
from gradsync.lars import (LarsConfig, Schedule, lars_step, load_checkpoint,
                           save_checkpoint)
from gradsync.toymodel import (DenseNet, _loss_and_grad, _stats_record, evaluate,
                               make_synthetic_dataset)


# --- independent float64 replica of the forward pass ------------------------
# Rebuilt from the group masters with separate code, so finite
# differences on it are a second route to the same gradients.


def tensors(net, mixed=False):
    """Every parameter tensor by name, shaped: the masters, or in mixed
    mode their binary16 roundings."""
    return {g.name: net.rounded[g.name] if mixed
            else g.master_w.reshape(net.rounded[g.name].shape)
            for g in net.groups}


def group(net, name):
    return next(g for g in net.groups if g.name == name)


def extract_params(net):
    return {name: t.astype(np.float64) for name, t in tensors(net).items()}


def replica_loss(net, params, x, y):
    a = np.asarray(x, dtype=np.float64)
    for i in range(net.depth - 1):
        z = a @ params[f"layer{i}.weight"]
        if net.use_bn:
            xhat = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + float(net.bn_eps))
            pre = params[f"layer{i}.bn_gamma"] * xhat + params[f"layer{i}.bn_beta"]
        else:
            pre = z + params[f"layer{i}.bias"]
        a = np.maximum(pre, 0.0)
    logits = a @ params["head.weight"] + params["head.bias"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(y)), y].mean()


def fd_gradcheck(net, x, y, h=1e-5, tol=1e-4):
    loss = net.forward_backward(x, y)
    assert math.isfinite(loss)
    params = extract_params(net)
    for g in net.groups:
        flat = params[g.name].reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + h
            up = replica_loss(net, params, x, y)
            flat[j] = saved - h
            down = replica_loss(net, params, x, y)
            flat[j] = saved
            fd = (up - down) / (2 * h)
            got = float(g.grad[j])
            assert got == pytest.approx(fd, rel=tol, abs=1e-6), (
                f"{g.name}[{j}]: analytic {got} vs numeric {fd}")


def test_gradcheck_plain_softmax():
    rng = np.random.default_rng(0)
    net = DenseNet([5, 4, 3], seed=1)
    x = rng.standard_normal((6, 5)).astype(np.float32)
    y = rng.integers(0, 3, 6)
    fd_gradcheck(net, x, y)


def test_gradcheck_with_batch_norm():
    rng = np.random.default_rng(2)
    net = DenseNet([6, 5, 3], use_bn=True, seed=3)
    x = rng.standard_normal((8, 6)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    fd_gradcheck(net, x, y)


def test_gradcheck_deep_stack():
    rng = np.random.default_rng(6)
    net = DenseNet([4, 5, 5, 2], use_bn=True, seed=7)
    x = rng.standard_normal((10, 4)).astype(np.float32)
    y = rng.integers(0, 2, 10)
    fd_gradcheck(net, x, y)


def test_softmax_ce_micro_example():
    # two logits, hand-computed cross entropy
    net = DenseNet([2, 2], seed=0)
    group(net, "head.weight").master_w[:] = np.eye(2, dtype=np.float32).reshape(-1)
    group(net, "head.bias").master_w[:] = 0.0
    x = np.array([[2.0, 0.0]], dtype=np.float32)
    loss = net.forward_backward(x, np.array([0]))
    assert loss == pytest.approx(math.log(1 + math.exp(-2.0)), rel=1e-6)


def test_bn_rejects_batch_of_one():
    net = DenseNet([3, 4, 2], use_bn=True)
    with pytest.raises(ValueError, match="batch"):
        net.forward_backward(np.ones((1, 3), np.float32), np.array([0]))
    # inference path has no such restriction
    assert net.predict(np.ones((1, 3), np.float32)).shape == (1, 2)


def test_label_shape_validation():
    net = DenseNet([3, 2])
    with pytest.raises(ValueError, match="labels"):
        net.forward_backward(np.ones((4, 3), np.float32), np.array([0, 1]))


def test_param_partition_no_bn():
    net = DenseNet([4, 5, 3])
    names = [g.name for g in net.groups]
    assert names == ["layer0.weight", "layer0.bias", "head.weight", "head.bias"]
    by = {g.name: g for g in net.groups}
    assert by["layer0.weight"].kind == "weight"
    assert by["layer0.weight"].lars_enabled and not by["layer0.weight"].decay_exempt
    assert by["layer0.bias"].decay_exempt and not by["layer0.bias"].lars_enabled
    assert by["layer0.weight"].size == 20
    assert by["head.bias"].size == 3


def test_param_partition_with_bn():
    net = DenseNet([4, 6, 3], use_bn=True)
    names = [g.name for g in net.groups]
    assert names == ["layer0.weight", "layer0.bn_gamma", "layer0.bn_beta",
                     "head.weight", "head.bias"]
    kinds = {g.name: g.kind for g in net.groups}
    assert kinds["layer0.bn_gamma"] == "bn_gamma"
    assert kinds["layer0.bn_beta"] == "bn_beta"
    for g in net.groups:
        assert g.decay_exempt == (g.kind != "weight")
        assert g.lars_enabled == (g.kind == "weight")


def test_running_stats_track_batch():
    rng = np.random.default_rng(9)
    net = DenseNet([3, 4, 2], use_bn=True, seed=1)
    x = (rng.standard_normal((16, 3)) * 2 + 1).astype(np.float32)
    y = rng.integers(0, 2, 16)
    assert np.array_equal(net.running[0][0], np.zeros(4, np.float32))
    W = group(net, "layer0.weight").master_w.reshape(3, 4)
    z = x @ W
    for _ in range(60):
        net.forward_backward(x, y)
    assert np.allclose(net.running[0][0], z.mean(axis=0), rtol=2e-2, atol=1e-3)
    assert np.allclose(net.running[0][1], z.var(axis=0), rtol=2e-2, atol=1e-3)


def test_mixed_mode_exact_on_half_grid():
    # powers of two with tiny sums stay exact through half precision,
    # so the mixed forward must agree bitwise
    net = DenseNet([2, 2, 2], seed=0)
    group(net, "layer0.weight").master_w[:] = np.array(
        [[1.0, 0.0], [0.0, 0.5]], np.float32).reshape(-1)
    group(net, "layer0.bias").master_w[:] = 0.0
    group(net, "head.weight").master_w[:] = np.array(
        [[0.25, 0.0], [0.0, 2.0]], np.float32).reshape(-1)
    group(net, "head.bias").master_w[:] = 0.0
    net.round_weights()
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    assert np.array_equal(net.predict(x, mixed=True), net.predict(x, mixed=False))


def test_mixed_mode_reads_working_copies():
    net = DenseNet([2, 2], seed=0)
    w = group(net, "head.weight")
    w.master_w[:] = 0.1  # not representable in half precision
    net.round_weights()
    x = np.array([[1.0, 0.0]], dtype=np.float32)
    full = net.predict(x)
    mixed = net.predict(x, mixed=True)
    assert not np.array_equal(full, mixed)
    assert np.array_equal(mixed[0, 0], f16_to_f32(f32_to_f16(np.float32(0.1))))


NAN_PAYLOADS = np.array([0x7FC12345, 0xFFA00001, 0x7F800001],
                        dtype=np.uint32).view(np.float32)


def relu_specials():
    """ReLU inputs that tell ReLU forms apart: NaN payloads of both signs,
    quiet and signalling, +-inf, +-0, float32 subnormals, values around
    binary16's subnormals and its largest finite value, and 4096 values
    over 15 decades."""
    rng = np.random.default_rng(21)
    specials = np.array([
        np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0**-24, -(2.0**-24),
        2.0**-25, -(1.5 * 2.0**-25), 3 * 2.0**-20, -(2.0**-14), 1e-40, -1e-40,
        65504.0, -65504.0, 65519.0, 65520.0, -70000.0, 1e30, -1e38,
    ], dtype=np.float32)
    noise = (rng.standard_normal(4096)
             * 10.0 ** rng.integers(-9, 6, size=4096)).astype(np.float32)
    return np.concatenate([specials, NAN_PAYLOADS, noise])


def test_relu_of_rounded_values_stays_rounded():
    # why the mixed passes do not round ReLU outputs: for p on the
    # binary16 grid (canonical NaNs included), every ReLU form is a fixed
    # point of the rounding: np.where, predict's np.maximum, and the
    # training pass's bits and-ed with an int32 mask
    p = quantize_tensor(relu_specials())
    with np.errstate(invalid="ignore"):  # as in the passes themselves
        mask = -(p > 0).astype(np.int32)
        relus = (np.where(p > 0, p, np.float32(0.0)), np.maximum(p, np.float32(0.0)),
                 (p.view(np.int32) & mask).view(np.float32))
    assert not np.isnan(relus[0]).any() and np.isnan(relus[1]).any()
    assert not np.isnan(relus[2]).any()
    for relu in relus:
        assert np.array_equal(quantize_tensor(relu).view(np.uint32),
                              relu.view(np.uint32))


def test_training_relu_matches_where_bitwise(monkeypatch):
    # The training pass's ReLU and its adjoint against np.where, bit for
    # bit, on one hidden layer and a batch of one.  The float32 pass
    # routes every tensor through toymodel._same; the hook below hands it
    # the ReLU input (the third tensor) and the gradient arriving at the
    # ReLU (the sixth) instead.  With one sample, layer0.bias's gradient
    # is that masked gradient, and the recorded activations are the
    # forward output itself.
    pre = relu_specials()
    v = np.random.default_rng(23).standard_normal(pre.size).astype(np.float32)
    with np.errstate(invalid="ignore"):
        keep = pre > 0
    nasty = np.concatenate([np.array([np.nan, np.inf, -np.inf, -0.0], np.float32),
                            NAN_PAYLOADS])
    v[~keep] = np.resize(nasty, (~keep).sum())  # where the mask is zero
    v[np.flatnonzero(keep)[::5]] = np.inf  # and some kept infinities
    assert keep.any() and not keep.all()

    feed = {3: pre, 6: v}
    calls = []

    def hook(arr):
        calls.append(arr.shape)
        return feed[len(calls)].reshape(1, -1).copy() if len(calls) in feed else arr

    monkeypatch.setattr(toymodel, "_same", hook)
    monkeypatch.setattr(toymodel, "_stats_record", lambda step, layer, out: out.copy())
    net = DenseNet([1, pre.size, 2], seed=0)
    outputs = []
    net.forward_backward(np.ones((1, 1), np.float32), np.array([0]),
                         collect_stats=outputs)
    assert calls == [(1, 1), (1, pre.size), (1, pre.size), (1, 2), (1, 2),
                     (1, pre.size)]
    want_out = np.where(keep, pre, np.float32(0.0))
    want_grad = np.where(keep, v, np.float32(0.0))
    assert np.array_equal(outputs[0][0].view(np.uint32), want_out.view(np.uint32))
    assert np.array_equal(group(net, "layer0.bias").grad.view(np.uint32),
                          want_grad.view(np.uint32))


@pytest.mark.parametrize("use_bn", [False, True])
@pytest.mark.parametrize("hidden", [1, 3])
def test_mixed_passes_round_each_relu_input_once(count_calls, use_bn, hidden):
    net = DenseNet([6, *[5] * hidden, 3], use_bn=use_bn, seed=1)
    x, y = make_synthetic_dataset(8, 6, 3, seed=2)
    calls = count_calls(halfprec.quantize_tensor)["quantize_tensor"]
    net.forward_backward(x, y, mixed=True)
    # the input; z and the affine output of each hidden layer; the
    # logits; dlogits; d @ W.T back through the head and through every
    # hidden layer but the first.  Rounding each ReLU output as well made
    # 4 * hidden + 3.
    assert len(calls) == 3 * hidden + 3
    calls.clear()
    net.predict(x, mixed=True)
    # the input; z and the affine output of each hidden layer; the
    # logits.  Rounding each ReLU output as well made 3 * hidden + 2.
    assert len(calls) == 2 * hidden + 2


def test_loss_scale_multiplies_grads_exactly():
    rng = np.random.default_rng(12)
    net = DenseNet([5, 6, 3], use_bn=True, seed=2)
    x = rng.standard_normal((8, 5)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    net.forward_backward(x, y, loss_scale=1.0)
    plain = [g.grad.copy() for g in net.groups]
    loss = net.forward_backward(x, y, loss_scale=1024.0)
    assert math.isfinite(loss)
    for g, ref in zip(net.groups, plain):
        assert np.array_equal(unscale_gradients(g.grad, 1024.0), ref)


def test_activation_stats_records():
    net = DenseNet([3, 4, 2], seed=0)
    records = []
    net.forward_backward(np.ones((4, 3), np.float32), np.array([0, 1, 0, 1]),
                         collect_stats=records, stats_step=7)
    assert [r["layer"] for r in records] == ["layer0", "head"]
    for r in records:
        assert r["step"] == 7
        assert all(math.isfinite(r[k]) for k in ("max", "mean", "var"))


def test_dataset_deterministic_and_labeled():
    x1, y1 = make_synthetic_dataset(90, 6, 3, seed=5)
    x2, y2 = make_synthetic_dataset(90, 6, 3, seed=5)
    assert x1.tobytes() == x2.tobytes() and np.array_equal(y1, y2)
    x3, _ = make_synthetic_dataset(90, 6, 3, seed=6)
    assert x1.tobytes() != x3.tobytes()
    assert x1.dtype == np.float32 and y1.dtype == np.int64
    assert set(y1) == {0, 1, 2}
    with pytest.raises(ValueError, match="classes"):
        make_synthetic_dataset(10, 4, 1)


def test_training_reduces_loss():
    x, y = make_synthetic_dataset(60, 8, 3, seed=1)
    net = DenseNet([8, 16, 3], seed=0)
    cfg = LarsConfig(schedule=Schedule(base_lr=0.3), momentum=0.9)
    first = net.forward_backward(x, y)
    assert lars_step(net.groups, cfg, 0)
    for step in range(1, 60):
        net.forward_backward(x, y)
        assert lars_step(net.groups, cfg, step)
    final = evaluate(net, x, y)
    assert final["loss"] < 0.5 * first
    assert final["accuracy"] > 0.9


# --- the flat parameter layout ------------------------------------------------


def flat_of(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


@pytest.mark.parametrize("use_bn", [False, True])
def test_group_arrays_are_views_of_the_flat_vectors(use_bn):
    net = DenseNet([5, 7, 6, 3], use_bn=use_bn, seed=2)
    lo = 0
    for g in net.groups:
        hi = lo + g.size
        for flat, arr in ((net.master, g.master_w), (net.grad, g.grad),
                          (net.velocity, g.velocity)):
            assert np.shares_memory(arr, flat)
            assert arr.ctypes.data == flat[lo:hi].ctypes.data and arr.size == hi - lo
        lo = hi
    assert lo == net.master.size == net.grad.size == net.velocity.size
    net.grad[:] = np.arange(net.grad.size)
    assert np.array_equal(flat_of(g.grad for g in net.groups), net.grad)


@pytest.mark.parametrize("use_bn", [False, True])
def test_layer_views_are_shaped_views_of_the_groups(use_bn):
    # the passes read and write the groups' memory through per-layer lists
    sizes = [5, 7, 6, 3]
    net = DenseNet(sizes, use_bn=use_bn, seed=2)
    groups = iter(net.groups)
    for i, (masters, roundings, grads) in enumerate(
            zip(net._masters, net._roundings, net._grads, strict=True)):
        shapes = [(sizes[i], sizes[i + 1])]
        shapes += [(sizes[i + 1],)] * (2 if use_bn and i < net.depth - 1 else 1)
        assert [m.shape for m in masters] == shapes
        for master, rounding, grad in zip(masters, roundings, grads, strict=True):
            g = next(groups)
            for view, flat in ((master, g.master_w), (rounding, net.rounded[g.name]),
                               (grad, g.grad)):
                assert view.shape == master.shape and view.flags.c_contiguous
                assert view.ctypes.data == flat.ctypes.data and view.size == flat.size
    assert next(groups, None) is None


@pytest.mark.parametrize("use_bn", [False, True])
def test_flat_layout_keeps_the_initial_values(use_bn):
    # the old per-group construction, rebuilt: one normal draw per weight
    # in layer order; gammas start at one, betas and biases at zero
    rng = np.random.default_rng(3)
    expect = []
    for i, (fan_in, fan_out) in enumerate(((5, 7), (7, 6), (6, 3))):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
        expect.append(w.astype(np.float32))
        expect += ([np.ones(fan_out), np.zeros(fan_out)] if use_bn and i < 2
                   else [np.zeros(fan_out)])
    net = DenseNet([5, 7, 6, 3], use_bn=use_bn, seed=3)
    assert net.master.tobytes() == flat_of(expect).astype(np.float32).tobytes()
    assert not net.grad.any() and not net.velocity.any()


@pytest.mark.parametrize("use_bn", [False, True])
@pytest.mark.parametrize("mixed", [False, True])
def test_forward_backward_writes_every_gradient(use_bn, mixed):
    x, y = make_synthetic_dataset(8, 5, 3, seed=0)
    net = DenseNet([5, 7, 6, 3], use_bn=use_bn, seed=1)
    net.grad[:] = np.nan
    net.forward_backward(x, y, mixed=mixed)
    assert np.isfinite(net.grad).all()


def test_lars_step_moves_the_flat_masters_and_rounding_follows():
    x, y = make_synthetic_dataset(16, 5, 3, seed=4)
    net = DenseNet([5, 7, 3], seed=4)
    before = net.master.copy()
    net.forward_backward(x, y, mixed=True)
    assert lars_step(net.groups, LarsConfig(schedule=Schedule(base_lr=0.5)), 0)
    assert not np.array_equal(net.master, before)
    assert net.velocity.any()
    assert np.array_equal(flat_of(g.master_w for g in net.groups), net.master)
    net.round_weights()
    rounded = flat_of(net.rounded[g.name] for g in net.groups)
    assert rounded.tobytes() == quantize_tensor(net.master).tobytes()
    assert rounded.tobytes() != quantize_tensor(before).tobytes()


def test_checkpoint_of_the_net_groups_restores_the_flat_vectors(tmp_path):
    x, y = make_synthetic_dataset(16, 5, 3, seed=5)
    net = DenseNet([5, 7, 6, 3], use_bn=True, seed=5)
    net.forward_backward(x, y)
    assert lars_step(net.groups, LarsConfig(schedule=Schedule(base_lr=0.5)), 0)
    save_checkpoint(tmp_path / "net.ckpt", net.groups, step=1)
    loaded, step = load_checkpoint(tmp_path / "net.ckpt")
    assert step == 1
    assert [g.name for g in loaded] == [g.name for g in net.groups]
    assert flat_of(g.master_w for g in loaded).tobytes() == net.master.tobytes()
    assert flat_of(g.velocity for g in loaded).tobytes() == net.velocity.tobytes()


# --- the per-layer loop as first written, kept as an oracle --------------------
# It looks every tensor up by name and rounds through a helper at each
# rounding point; the net's loop must give the same bits.


def _maybe_round(arr, mixed):
    return quantize_tensor(arr) if mixed else arr


def reference_forward_backward(net, x, y, *, mixed=False, loss_scale=1.0,
                               collect_stats=None, stats_step=0):
    params = tensors(net, mixed)
    grads = {g.name: g.grad for g in net.groups}
    x = np.ascontiguousarray(x, dtype=np.float32)
    B = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        a = _maybe_round(x, mixed)
        cache = []
        for i in range(net.depth - 1):
            W = params[f"layer{i}.weight"]
            z = _maybe_round(a @ W, mixed)
            if net.use_bn:
                gamma = params[f"layer{i}.bn_gamma"]
                beta = params[f"layer{i}.bn_beta"]
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                invstd = np.float32(1.0) / np.sqrt(var + net.bn_eps)
                xhat = (z - mean) * invstd
                pre = _maybe_round(gamma * xhat + beta, mixed)
                m = net.bn_momentum
                net.running[i][0] = (1 - m) * net.running[i][0] + m * mean
                net.running[i][1] = (1 - m) * net.running[i][1] + m * var
            else:
                pre = _maybe_round(z + params[f"layer{i}.bias"], mixed)
                xhat = invstd = gamma = None
            mask = pre > 0
            out = np.where(mask, pre, np.float32(0.0))
            cache.append((a, W, xhat, invstd, gamma, mask))
            a = out
            if collect_stats is not None:
                collect_stats.append(_stats_record(stats_step, f"layer{i}", out))

        W_head = params["head.weight"]
        logits = _maybe_round(a @ W_head + params["head.bias"], mixed)
        if collect_stats is not None:
            collect_stats.append(_stats_record(stats_step, "head", logits))
        loss, dlogits = _loss_and_grad(logits, y)
        d = _maybe_round(dlogits * np.float32(loss_scale), mixed)
        grads["head.weight"][:] = (a.T @ d).reshape(-1)
        grads["head.bias"][:] = d.sum(axis=0)
        d = _maybe_round(d @ W_head.T, mixed)
        for i in reversed(range(net.depth - 1)):
            a_in, W, xhat, invstd, gamma, mask = cache[i]
            d = np.where(mask, d, np.float32(0.0))
            if net.use_bn:
                grads[f"layer{i}.bn_gamma"][:] = (d * xhat).sum(axis=0)
                grads[f"layer{i}.bn_beta"][:] = d.sum(axis=0)
                dxhat = d * gamma
                d = (invstd / np.float32(B)) * (
                    np.float32(B) * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                grads[f"layer{i}.bias"][:] = d.sum(axis=0)
            grads[f"layer{i}.weight"][:] = (a_in.T @ d).reshape(-1)
            if i > 0:
                d = _maybe_round(d @ W.T, mixed)
    return float(loss)


def reference_predict(net, x, *, mixed=False):
    params = tensors(net, mixed)
    with np.errstate(over="ignore", invalid="ignore"):
        a = _maybe_round(np.ascontiguousarray(x, dtype=np.float32), mixed)
        for i in range(net.depth - 1):
            z = _maybe_round(a @ params[f"layer{i}.weight"], mixed)
            if net.use_bn:
                rm, rv = net.running[i]
                xhat = (z - rm) / np.sqrt(rv + net.bn_eps)
                pre = _maybe_round(params[f"layer{i}.bn_gamma"] * xhat
                                   + params[f"layer{i}.bn_beta"], mixed)
            else:
                pre = _maybe_round(z + params[f"layer{i}.bias"], mixed)
            a = np.maximum(pre, np.float32(0.0))
        return _maybe_round(a @ params["head.weight"] + params["head.bias"], mixed)


def bits(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def stats_bits(records):
    """Activation records with every float as its bits, so that NaN
    compares equal to itself and -0 unequal to +0."""
    return [{k: struct.pack("<d", v) if isinstance(v, float) else v for k, v in r.items()}
            for r in records]


def assert_step_matches_reference(net, ref, x, y, *, mixed, loss_scale, step):
    """One training pass of ``net`` and of the reference loop on ``ref``
    give the same loss, gradients, running statistics, activation
    records and predictions, bit for bit (NaNs included)."""
    got_stats, want_stats = [], []
    got = net.forward_backward(x, y, mixed=mixed, loss_scale=loss_scale,
                               collect_stats=got_stats, stats_step=step)
    want = reference_forward_backward(ref, x, y, mixed=mixed, loss_scale=loss_scale,
                                      collect_stats=want_stats, stats_step=step)
    assert struct.pack("<d", got) == struct.pack("<d", want)
    assert net.grad.tobytes() == ref.grad.tobytes()
    assert bits(sum(net.running.values(), [])) == bits(sum(ref.running.values(), []))
    assert stats_bits(got_stats) == stats_bits(want_stats)
    assert (net.predict(x, mixed=mixed).tobytes()
            == reference_predict(ref, x, mixed=mixed).tobytes())


@pytest.mark.parametrize("sizes,batch", [([6, 9, 4], 8), ([16] * 5 + [4], 8),
                                         ([7, 1, 5, 2], 3), ([32, 128, 128, 8], 32)])
@pytest.mark.parametrize("use_bn", [False, True])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("loss", ["softmax_ce"])  # the one loss the head trains with
def test_layer_loop_matches_the_reference_bitwise(sizes, batch, use_bn, mixed, loss):
    # 2**24 overflows binary16 in the scaled backward pass of mixed runs,
    # so the non-finite gradients must match bit for bit too
    seed = sum(sizes) + batch + 2 * use_bn + mixed
    x, labels = make_synthetic_dataset(batch, sizes[0], max(sizes[-1], 2), seed=seed)
    y = labels % sizes[-1]
    net, ref = (DenseNet(sizes, use_bn=use_bn, seed=seed) for _ in range(2))
    overflowed = False
    for step, loss_scale in enumerate((1.0, 1024.0, 2.0 ** 24)):
        assert_step_matches_reference(net, ref, x, y, mixed=mixed,
                                      loss_scale=loss_scale, step=step)
        overflowed |= not np.isfinite(net.grad).all()
    assert overflowed == mixed


@pytest.mark.parametrize("use_bn", [False, True])
def test_layer_loop_matches_the_reference_when_the_forward_pass_overflows(
        monkeypatch, use_bn):
    # A mixed run whose ReLU inputs hold NaN, +-inf and -0.  Unit 0 of
    # layer 0 is made to round to -0 in the even samples.
    # Without batch norm, the odd samples are scaled past binary16's
    # range: their inputs round to +-inf, and their affine outputs are
    # +-inf or, from inf - inf, NaN.  The even samples and their
    # gradients stay finite.  Unit 0 reads feature 0 alone, through a
    # weight of 2**-24, with a bias of -0 (z + b is -0 only if both are),
    # so a feature 0 of -0.25 gives -0 and the mask must drop a finite
    # gradient there.
    # With batch norm, gammas of 2**16 push normalised values past
    # binary16's range, the next layer's statistics of a column holding
    # inf are NaN, and unit 0's gamma of 2**-24 rounds normalised values
    # in (-0.5, 0) to -0.
    sizes, batch, seed = [16, 16, 16, 16, 4], 8, 1
    x, y = make_synthetic_dataset(batch, sizes[0], sizes[-1], seed=seed)
    x[::2, 0] = -0.25
    if not use_bn:
        x[1::2] *= np.float32(2.0 ** 14)
    net, ref = (DenseNet(sizes, use_bn=use_bn, seed=seed) for _ in range(2))
    for n in (net, ref):
        if use_bn:
            for g in n.groups:
                if g.kind == "bn_gamma":
                    g.master_w *= np.float32(2.0 ** 16)
            group(n, "layer0.bn_gamma").master_w[0] = 2.0 ** -24
        else:
            w0 = group(n, "layer0.weight").master_w.reshape(sizes[:2])
            w0[:, 0] = 0.0
            w0[0, 0] = 2.0 ** -24
            group(n, "layer0.bias").master_w[0] = -0.0
        n.round_weights()

    # the mixed pass rounds x, then per hidden layer a @ W and the ReLU
    # input; copies, since the pass applies the ReLU in place
    rounded = []

    def spy(values):
        out = quantize_tensor(values)
        rounded.append(out.copy())
        return out

    monkeypatch.setattr(toymodel, "quantize_tensor", spy)
    for step, loss_scale in enumerate((1.0, 1024.0)):
        assert_step_matches_reference(net, ref, x, y, mixed=True,
                                      loss_scale=loss_scale, step=step)

    pre = np.concatenate([r.ravel() for r in rounded[2:2 * (net.depth - 1) + 1:2]])
    assert np.isnan(pre).any()
    assert (pre == np.inf).any() and (pre == -np.inf).any()
    assert (np.signbit(pre) & (pre == 0)).any()
