"""A small dense network for exercising the optimizer end to end.

Hidden blocks are dense -> optional batch norm -> relu; the head is a
plain affine map, trained with softmax cross-entropy on integer class
labels.  The net owns one flat layout: three float32 vectors,
``master``, ``grad`` and ``velocity``, hold every parameter tensor back
to back in ``groups`` order, and each group's ``master_w``, ``grad`` and
``velocity`` are slice views of them.  At construction the net also
builds, per layer, shaped views of that layer's masters, of their
half-precision roundings and of its slice of ``grad``.  The passes read
the weights through these views, so optimizer updates are visible
immediately, and write each gradient straight into ``grad``, so a caller
can read or write all gradients as one vector.

The training pass keeps one int32 mask per hidden layer, all ones where
the ReLU input is above zero and zero everywhere else, NaN included.
The ReLU output is the input's bits and-ed with that mask, and so is its
adjoint: both equal ``np.where(pre > 0, v, +0.0)`` bit for bit, without
a branch per element.  ``predict`` applies ``np.maximum`` instead.

In mixed mode every tensor crossing a layer boundary is rounded
through half precision, and matrix products read the net's
half-precision roundings of the masters.  ReLU outputs are not rounded
again: their inputs are already on the half-precision grid, and so is
zero.  The net rounds the masters once at construction, and in mixed
mode once per applied optimizer step, when the training loop calls
``round_weights``.  Gradients pass through the rounding points
unchanged (straight-through), so the backward pass stays the exact
adjoint of the full-precision data flow.  Batch statistics and the loss
itself always stay in float32.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .halfprec import quantize_tensor
from .lars import ParamGroup

__all__ = ["DenseNet", "make_synthetic_dataset", "evaluate"]

# one float32 zero, built once, for every ReLU compare and for predict's
# np.maximum
_ZERO = np.float32(0.0)


def _same(arr: np.ndarray) -> np.ndarray:
    return arr


class DenseNet:
    """Multi-layer perceptron over flat float32 feature vectors."""

    def __init__(self, sizes, *, use_bn: bool = False, seed: int = 0,
                 bn_eps: float = 1e-5, bn_momentum: float = 0.1):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least input and output sizes, got {sizes}")
        self.sizes = sizes
        self.use_bn = use_bn
        self.bn_eps = np.float32(bn_eps)
        self.bn_momentum = np.float32(bn_momentum)
        self.groups: list[ParamGroup] = []
        self.running: dict[int, list[np.ndarray]] = {}

        layout = []  # (name, kind, shape) in network order
        for i in range(self.depth):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            prefix = f"layer{i}" if i < self.depth - 1 else "head"
            layout.append((f"{prefix}.weight", "weight", (fan_in, fan_out)))
            if prefix != "head" and use_bn:
                layout += [(f"{prefix}.bn_gamma", "bn_gamma", (fan_out,)),
                           (f"{prefix}.bn_beta", "bn_beta", (fan_out,))]
                self.running[i] = [np.zeros(fan_out, np.float32),
                                   np.ones(fan_out, np.float32)]
            else:
                layout.append((f"{prefix}.bias", "bias", (fan_out,)))
        ends = list(accumulate((math.prod(shape) for _, _, shape in layout), initial=0))
        self.master, self.grad, self.velocity, self._rounded = np.zeros(
            (4, ends[-1]), np.float32)
        self.rounded: dict[str, np.ndarray] = {}
        # Per layer, shaped views of its tensors in layout order, (weight,
        # bias) or (weight, bn_gamma, bn_beta): of the masters, of their
        # roundings and of the gradient.  The passes index these lists.
        self._masters: list[list[np.ndarray]] = []
        self._roundings: list[list[np.ndarray]] = []
        self._grads: list[list[np.ndarray]] = []

        rng = np.random.default_rng(seed)
        for (name, kind, shape), lo, hi in zip(layout, ends, ends[1:]):
            group = ParamGroup(name, kind, self.master[lo:hi], self.grad[lo:hi],
                               self.velocity[lo:hi])
            if kind == "weight":
                group.master_w[:] = rng.normal(0.0, np.sqrt(2.0 / shape[0]),
                                               shape).reshape(-1)
                for views in (self._masters, self._roundings, self._grads):
                    views.append([])
            elif kind == "bn_gamma":
                group.master_w[:] = 1.0
            self.groups.append(group)
            self.rounded[name] = self._rounded[lo:hi].reshape(shape)
            self._masters[-1].append(group.master_w.reshape(shape))
            self._roundings[-1].append(self.rounded[name])
            self._grads[-1].append(group.grad.reshape(shape))
        self.round_weights()

    def round_weights(self) -> None:
        """Round every master through half precision into ``rounded``,
        the weights mixed-mode passes read; call after the masters change."""
        self._rounded[:] = quantize_tensor(self.master)

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
        q = quantize_tensor if mixed else _same
        params = self._roundings if mixed else self._masters
        a = q(x)
        cache = []
        for i in range(self.depth - 1):
            W = params[i][0]
            z = q(a @ W)
            if self.use_bn:
                _, gamma, beta = params[i]
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                invstd = np.float32(1.0) / np.sqrt(var + self.bn_eps)
                xhat = (z - mean) * invstd
                pre = q(gamma * xhat + beta)
                m = self.bn_momentum
                self.running[i][0] = (1 - m) * self.running[i][0] + m * mean
                self.running[i][1] = (1 - m) * self.running[i][1] + m * var
            else:
                z += params[i][1]
                pre = q(z)
                xhat = invstd = gamma = None
            # branch-free ReLU, in place: pre's bits and-ed with a mask of
            # all ones where pre > 0 and zeros elsewhere, NaN included,
            # which is np.where(pre > 0, pre, +0.0) bit for bit
            mask = (pre > _ZERO).astype(np.int32)
            np.negative(mask, out=mask)
            bits = pre.view(np.int32)
            bits &= mask
            cache.append((a, W, xhat, invstd, gamma, mask))
            a = pre
            if collect_stats is not None:
                collect_stats.append(_stats_record(stats_step, f"layer{i}", a))

        W_head, b_head = params[-1]
        logits = a @ W_head
        logits += b_head
        logits = q(logits)
        if collect_stats is not None:
            collect_stats.append(_stats_record(stats_step, "head", logits))

        loss, d = _loss_and_grad(logits, y)
        d *= np.float32(loss_scale)
        d = q(d)

        g_weight, g_bias = self._grads[-1]
        np.matmul(a.T, d, out=g_weight)
        np.add.reduce(d, axis=0, out=g_bias)
        d = q(d @ W_head.T)

        for i in reversed(range(self.depth - 1)):
            a_in, W, xhat, invstd, gamma, mask = cache[i]
            grads = self._grads[i]
            bits = d.view(np.int32)  # the adjoint: the same and of d's bits
            bits &= mask
            if self.use_bn:
                np.add.reduce(d * xhat, axis=0, out=grads[1])
                np.add.reduce(d, axis=0, out=grads[2])
                dxhat = d * gamma
                d = (invstd / np.float32(B)) * (
                    np.float32(B) * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                np.add.reduce(d, axis=0, out=grads[1])
            np.matmul(a_in.T, d, out=grads[0])
            if i > 0:
                d = q(d @ W.T)
        return float(loss)

    def predict(self, x, *, mixed: bool = False) -> np.ndarray:
        """Inference pass; batch norm layers use their running statistics."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._predict(x, mixed)

    def _predict(self, x, mixed: bool) -> np.ndarray:
        q = quantize_tensor if mixed else _same
        params = self._roundings if mixed else self._masters
        a = q(np.ascontiguousarray(x, dtype=np.float32))
        for i in range(self.depth - 1):
            z = q(a @ params[i][0])
            if self.use_bn:
                _, gamma, beta = params[i]
                rm, rv = self.running[i]
                xhat = (z - rm) / np.sqrt(rv + self.bn_eps)
                pre = q(gamma * xhat + beta)
            else:
                # in place: evaluation batches are the largest tensors a run holds
                z += params[i][1]
                pre = q(z)
            a = np.maximum(pre, _ZERO, out=pre)
        W_head, b_head = params[-1]
        logits = a @ W_head
        logits += b_head
        return q(logits)


def _stats_record(step: int, layer: str, values: np.ndarray) -> dict:
    return {
        "step": int(step),
        "layer": layer,
        "max": float(np.max(np.abs(values))) if values.size else 0.0,
        "mean": float(values.mean()) if values.size else 0.0,
        "var": float(values.var()) if values.size else 0.0,
    }


def _loss_and_grad(logits: np.ndarray, y):
    """The float32 softmax cross-entropy of integer class labels and its
    gradient in the logits, a fresh array the caller may scale in place."""
    B = logits.shape[0]
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
    return np.float32(loss), dlogits.astype(np.float32, copy=False)


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
    """Loss plus accuracy of ``net`` on the samples ``x`` and labels
    ``y``; the training runner passes its training samples."""
    logits = net.predict(x, mixed=mixed)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = _loss_and_grad(logits, y)
        hits = (logits.argmax(axis=1) == np.asarray(y)).mean()
    return {"loss": float(loss), "accuracy": float(hits)}
