"""Layer-wise adaptive rate scaling with float32 master weights.

Each parameter group keeps a float32 master copy and a float32
velocity.  The local rate for a group is the norm quotient
eta * ||w|| / (||g|| + epsilon), computed on float64 accumulators so
the quotient is stable to a few ulps; degenerate norms fall back to a
local rate of 1.  Weight decay folds into the gradient before the
norms are taken, so decayed groups see the regularizer in their trust
ratio.  A step where any gradient is non-finite is rejected outright
and mutates nothing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["KINDS", "Schedule", "LarsConfig", "ParamGroup", "lars_local_lr",
           "lars_step", "save_checkpoint", "load_checkpoint"]

KINDS = ("weight", "bias", "bn_beta", "bn_gamma")


@dataclass(frozen=True)
class Schedule:
    """Global learning rate: linear warmup, then flat or polynomial decay.

    During warmup the rate climbs linearly from zero, reaching base_lr
    exactly at step == warmup_steps, so the decay segment picks up where
    warmup left off with no jump.
    """

    base_lr: float
    kind: str = "constant"
    warmup_steps: int = 0
    total_steps: int = 1
    end_lr: float = 0.0
    power: float = 2.0

    def __post_init__(self):
        for name in ("base_lr", "end_lr", "power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.kind not in ("constant", "poly"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.kind == "poly":
            if self.total_steps <= self.warmup_steps:
                raise ValueError("poly decay needs total_steps > warmup_steps")
            if self.power <= 0:
                raise ValueError("power must be positive")
            if not 0 <= self.end_lr <= self.base_lr:
                raise ValueError("end_lr must sit in [0, base_lr]")

    def lr(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be >= 0")
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        if self.kind == "constant":
            return self.base_lr
        span = self.total_steps - self.warmup_steps
        progress = min((step - self.warmup_steps) / span, 1.0)
        return (self.base_lr - self.end_lr) * (1.0 - progress) ** self.power + self.end_lr


@dataclass(frozen=True)
class LarsConfig:
    schedule: Schedule
    eta: float = 0.001
    epsilon: float = 0.0
    weight_decay: float = 0.0001
    momentum: float = 0.9

    def __post_init__(self):
        for name in ("eta", "epsilon", "weight_decay", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class ParamGroup:
    """One named parameter tensor plus its optimizer state, all flat."""

    name: str
    kind: str
    master_w: np.ndarray
    grad: np.ndarray
    velocity: np.ndarray
    decay_exempt: bool | None = None
    lars_enabled: bool | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for label, arr, want in (("master_w", self.master_w, np.float32),
                                 ("grad", self.grad, np.float32),
                                 ("velocity", self.velocity, np.float32)):
            if not isinstance(arr, np.ndarray) or arr.dtype != want or arr.ndim != 1:
                raise TypeError(f"{label} must be a 1-D {np.dtype(want).name} array")
            if arr.size != self.master_w.size:
                raise ValueError(f"{label} length {arr.size} != {self.master_w.size}")
        # biases and batch-norm parameters skip both decay and the
        # norm-quotient rate unless told otherwise
        if self.decay_exempt is None:
            self.decay_exempt = self.kind != "weight"
        if self.lars_enabled is None:
            self.lars_enabled = self.kind == "weight"

    @property
    def size(self) -> int:
        return self.master_w.size


def lars_local_lr(w: np.ndarray, g: np.ndarray, eta: float,
                  epsilon: float = 0.0) -> float:
    """Norm-quotient rate eta * ||w|| / (||g|| + epsilon), or 1 if degenerate."""
    # np.linalg.norm of a 1-D float64 vector without its argument checks
    w64, g64 = w.astype(np.float64), g.astype(np.float64)
    w_norm = math.sqrt(w64.dot(w64))
    g_norm = math.sqrt(g64.dot(g64))
    denom = g_norm + epsilon
    if w_norm == 0.0 or denom == 0.0:
        return 1.0
    return eta * w_norm / denom


def lars_step(groups: list[ParamGroup], cfg: LarsConfig, step: int) -> bool:
    """Apply one optimizer step in place; False (and no mutation) if any
    gradient holds a NaN or infinity."""
    for group in groups:
        if not np.isfinite(group.grad).all():
            return False

    gamma = cfg.schedule.lr(step)
    wd = np.float32(cfg.weight_decay)
    momentum = np.float32(cfg.momentum)
    for group in groups:
        if group.decay_exempt or cfg.weight_decay == 0.0:
            effective = group.grad
        else:
            effective = group.grad + wd * group.master_w
        if group.lars_enabled:
            local = lars_local_lr(group.master_w, effective, cfg.eta, cfg.epsilon)
        else:
            local = 1.0
        scale = np.float32(local * gamma)
        group.velocity[:] = momentum * group.velocity + scale * effective
        group.master_w -= group.velocity
    return True


# --- checkpoints ------------------------------------------------------------
# Layout, everything little-endian:
#   magic b"LARS", u16 version, u64 step, u32 group count, then per group
#   u16 name length + name bytes, u8 kind code, u8 flag bits
#   (bit 0 decay_exempt, bit 1 lars_enabled), u64 element count,
#   master float32s, velocity float32s.

_MAGIC = b"LARS"
_VERSION = 2
_HEAD = struct.Struct("<4sHQI")
_GROUP_HEAD = struct.Struct("<BBQ")


def save_checkpoint(path, groups: list[ParamGroup], step: int = 0) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, step, len(groups)))
        for g in groups:
            name = g.name.encode()
            fh.write(struct.pack("<H", len(name)) + name)
            flags = (1 if g.decay_exempt else 0) | (2 if g.lars_enabled else 0)
            fh.write(_GROUP_HEAD.pack(KINDS.index(g.kind), flags, g.size))
            fh.write(g.master_w.astype("<f4", copy=False).tobytes())
            fh.write(g.velocity.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> tuple[list[ParamGroup], int]:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError(f"truncated checkpoint: {len(data)} bytes, "
                             f"needs at least {pos + size}")
        pos += size
        return data[pos - size:pos]

    magic, version, step, count = _HEAD.unpack(take(_HEAD.size))
    if magic != _MAGIC:
        raise ValueError(f"not a checkpoint file (magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    groups = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode()
        kind_code, flags, n = _GROUP_HEAD.unpack(take(_GROUP_HEAD.size))
        if kind_code >= len(KINDS):
            raise ValueError(f"bad kind code {kind_code} in {name!r}")
        master = np.frombuffer(take(4 * n), dtype="<f4").astype(np.float32)
        velocity = np.frombuffer(take(4 * n), dtype="<f4").astype(np.float32)
        groups.append(ParamGroup(
            name=name,
            kind=KINDS[kind_code],
            master_w=master,
            grad=np.zeros(n, dtype=np.float32),
            velocity=velocity,
            decay_exempt=bool(flags & 1),
            lars_enabled=bool(flags & 2),
        ))
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after the checkpoint")
    return groups, step
