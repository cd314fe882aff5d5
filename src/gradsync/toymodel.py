"""A small dense network for exercising the optimizer end to end.

Hidden blocks are dense -> optional batch norm -> relu; the head is a
plain affine map.  Parameters live in flat optimizer groups (float32
masters plus half-precision working copies), and the net reshapes
views of them on use, so optimizer updates are visible immediately.

In mixed mode every tensor crossing a layer boundary is rounded
through half precision, and matrix products read the widened working
copies instead of the masters.  Gradients pass through the rounding
points unchanged (straight-through), so the backward pass stays the
exact adjoint of the full-precision data flow.  Batch statistics and
the loss itself always stay in float32.
"""

from __future__ import annotations

import numpy as np

from .halfprec import f16_to_f32, quantize_tensor
from .lars import ParamGroup, make_param_group

__all__ = ["DenseNet", "make_synthetic_dataset", "evaluate"]

LOSSES = ("softmax_ce", "mse")


def _quantize(arr: np.ndarray, mixed: bool) -> np.ndarray:
    return quantize_tensor(arr) if mixed else arr


class DenseNet:
    """Multi-layer perceptron over flat float32 feature vectors."""

    def __init__(self, sizes, *, use_bn: bool = False, loss: str = "softmax_ce",
                 seed: int = 0, bn_eps: float = 1e-5, bn_momentum: float = 0.1):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least input and output sizes, got {sizes}")
        if loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
        self.sizes = sizes
        self.use_bn = use_bn
        self.loss = loss
        self.bn_eps = np.float32(bn_eps)
        self.bn_momentum = np.float32(bn_momentum)
        self.groups: list[ParamGroup] = []
        self._by_name: dict[str, ParamGroup] = {}
        self._shapes: dict[str, tuple] = {}
        self.running: dict[int, list[np.ndarray]] = {}

        rng = np.random.default_rng(seed)
        depth = len(sizes) - 1
        for i in range(depth):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            hidden = i < depth - 1
            prefix = f"layer{i}" if hidden else "head"
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
            self._add(f"{prefix}.weight", "weight", w.astype(np.float32))
            if hidden and use_bn:
                self._add(f"{prefix}.bn_gamma", "bn_gamma", np.ones(fan_out))
                self._add(f"{prefix}.bn_beta", "bn_beta", np.zeros(fan_out))
                self.running[i] = [np.zeros(fan_out, np.float32),
                                   np.ones(fan_out, np.float32)]
            else:
                self._add(f"{prefix}.bias", "bias", np.zeros(fan_out))

    def _add(self, name: str, kind: str, values: np.ndarray) -> None:
        group = make_param_group(name, kind, values)
        self.groups.append(group)
        self._by_name[name] = group
        self._shapes[name] = values.shape

    def _param(self, name: str, mixed: bool) -> np.ndarray:
        group = self._by_name[name]
        flat = f16_to_f32(group.working_w16) if mixed else group.master_w
        return flat.reshape(self._shapes[name])

    @property
    def depth(self) -> int:
        return len(self.sizes) - 1

    # --- forward / backward -------------------------------------------------

    def forward_backward(self, x, y, *, mixed: bool = False,
                         loss_scale: float = 1.0,
                         collect_stats: list | None = None,
                         stats_step: int = 0) -> float:
        """Run one training pass and leave (scaled) gradients in the groups.

        Returns the unscaled loss; ``loss_scale`` multiplies only the
        gradients so non-finite detection and unscaling stay the
        caller's business.
        """
        x = np.ascontiguousarray(x, dtype=np.float32)
        B = x.shape[0]
        if self.use_bn and B < 2:
            raise ValueError("batch norm needs a batch of at least 2 to train")

        # overflow to inf and NaN propagation are legitimate outcomes
        # here; the loss-scale policy inspects the gradients afterwards
        with np.errstate(over="ignore", invalid="ignore"):
            return self._forward_backward(x, y, mixed, loss_scale,
                                          collect_stats, stats_step)

    def _forward_backward(self, x, y, mixed, loss_scale, collect_stats,
                          stats_step) -> float:
        B = x.shape[0]
        a = _quantize(x, mixed)
        cache = []
        for i in range(self.depth - 1):
            W = self._param(f"layer{i}.weight", mixed)
            z = _quantize(a @ W, mixed)
            if self.use_bn:
                gamma = self._param(f"layer{i}.bn_gamma", mixed)
                beta = self._param(f"layer{i}.bn_beta", mixed)
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                invstd = np.float32(1.0) / np.sqrt(var + self.bn_eps)
                xhat = (z - mean) * invstd
                pre = _quantize(gamma * xhat + beta, mixed)
                m = self.bn_momentum
                self.running[i][0] = (1 - m) * self.running[i][0] + m * mean
                self.running[i][1] = (1 - m) * self.running[i][1] + m * var
            else:
                bias = self._param(f"layer{i}.bias", mixed)
                pre = _quantize(z + bias, mixed)
                xhat = invstd = gamma = None
            mask = pre > 0
            out = _quantize(np.where(mask, pre, np.float32(0.0)), mixed)
            cache.append((a, W, xhat, invstd, gamma, mask))
            a = out
            if collect_stats is not None:
                collect_stats.append(_stats_record(stats_step, f"layer{i}", out))

        W_head = self._param("head.weight", mixed)
        b_head = self._param("head.bias", mixed)
        logits = _quantize(a @ W_head + b_head, mixed)
        if collect_stats is not None:
            collect_stats.append(_stats_record(stats_step, "head", logits))

        loss, dlogits = _loss_and_grad(self.loss, logits, y)
        d = _quantize(dlogits * np.float32(loss_scale), mixed)

        self._by_name["head.weight"].grad[:] = (a.T @ d).reshape(-1)
        self._by_name["head.bias"].grad[:] = d.sum(axis=0)
        d = _quantize(d @ W_head.T, mixed)

        for i in reversed(range(self.depth - 1)):
            a_in, W, xhat, invstd, gamma, mask = cache[i]
            d = np.where(mask, d, np.float32(0.0))
            if self.use_bn:
                self._by_name[f"layer{i}.bn_gamma"].grad[:] = (d * xhat).sum(axis=0)
                self._by_name[f"layer{i}.bn_beta"].grad[:] = d.sum(axis=0)
                dxhat = d * gamma
                d = (invstd / np.float32(B)) * (
                    np.float32(B) * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                self._by_name[f"layer{i}.bias"].grad[:] = d.sum(axis=0)
            self._by_name[f"layer{i}.weight"].grad[:] = (a_in.T @ d).reshape(-1)
            if i > 0:
                d = _quantize(d @ W.T, mixed)
        return float(loss)

    def predict(self, x, *, mixed: bool = False) -> np.ndarray:
        """Inference pass; batch norm layers use their running statistics."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._predict(x, mixed)

    def _predict(self, x, mixed: bool) -> np.ndarray:
        a = _quantize(np.ascontiguousarray(x, dtype=np.float32), mixed)
        for i in range(self.depth - 1):
            W = self._param(f"layer{i}.weight", mixed)
            z = _quantize(a @ W, mixed)
            if self.use_bn:
                gamma = self._param(f"layer{i}.bn_gamma", mixed)
                beta = self._param(f"layer{i}.bn_beta", mixed)
                rm, rv = self.running[i]
                xhat = (z - rm) / np.sqrt(rv + self.bn_eps)
                pre = _quantize(gamma * xhat + beta, mixed)
            else:
                pre = _quantize(z + self._param(f"layer{i}.bias", mixed), mixed)
            a = _quantize(np.maximum(pre, np.float32(0.0)), mixed)
        return _quantize(a @ self._param("head.weight", mixed)
                         + self._param("head.bias", mixed), mixed)


def _stats_record(step: int, layer: str, values: np.ndarray) -> dict:
    return {
        "step": int(step),
        "layer": layer,
        "max": float(np.max(np.abs(values))) if values.size else 0.0,
        "mean": float(values.mean()) if values.size else 0.0,
        "var": float(values.var()) if values.size else 0.0,
    }


def _loss_and_grad(kind: str, logits: np.ndarray, y):
    B = logits.shape[0]
    if kind == "softmax_ce":
        y = np.asarray(y)
        if y.shape != (B,):
            raise ValueError(f"labels must be shape ({B},), got {y.shape}")
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        loss = -log_probs[np.arange(B), y].mean()
        probs = np.exp(log_probs)
        dlogits = probs
        dlogits[np.arange(B), y] -= np.float32(1.0)
        dlogits /= np.float32(B)
        return np.float32(loss), dlogits.astype(np.float32)
    target = np.ascontiguousarray(y, dtype=np.float32)
    if target.shape != logits.shape:
        raise ValueError(f"targets must match logits shape {logits.shape}")
    diff = logits - target
    loss = np.float32((diff.astype(np.float64) ** 2).mean())
    dlogits = (np.float32(2.0) / np.float32(diff.size)) * diff
    return loss, dlogits


def make_synthetic_dataset(n_samples: int, n_features: int, n_classes: int,
                           *, seed: int = 0, spread: float = 3.0):
    """Gaussian blobs: one unit-variance cluster per class.

    Deterministic in the seed; labels cycle through the classes so
    every class appears within any contiguous n_classes samples.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, spread, (n_classes, n_features)).astype(np.float32)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    noise = rng.standard_normal((n_samples, n_features)).astype(np.float32)
    x = centers[labels] + noise
    return x, labels


def evaluate(net: DenseNet, x, y, *, mixed: bool = False) -> dict:
    """Loss plus accuracy (classification) on held-out data."""
    logits = net.predict(x, mixed=mixed)
    with np.errstate(over="ignore", invalid="ignore"):
        if net.loss == "softmax_ce":
            loss, _ = _loss_and_grad("softmax_ce", logits, y)
            hits = (logits.argmax(axis=1) == np.asarray(y)).mean()
            return {"loss": float(loss), "accuracy": float(hits)}
        loss, _ = _loss_and_grad("mse", logits, y)
    return {"loss": float(loss), "accuracy": None}
