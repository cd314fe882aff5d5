"""IEEE-754 binary16 conversion, plus loss scaling.

FP16 tensors are kept as uint16 bit patterns end to end; widening and
narrowing are explicit calls onto numpy's IEEE float16 cast.  Narrowing
goes through float32 and rounds to nearest-even, overflows to signed
infinity, flushes magnitudes below 2**-25 to signed zero, and
canonicalizes every NaN to one quiet pattern; widening is exact and
canonicalizes every NaN to one quiet float32 pattern.

The round trip that mixed-precision passes use, ``quantize_tensor``,
never materialises the binary16 patterns: it rounds in float32
arithmetic, bit-identical to narrowing then widening, which assumes the
default round-to-nearest-even floating-point mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CANONICAL_NAN",
    "f32_to_f16",
    "f16_to_f32",
    "quantize_tensor",
    "describe_half",
    "LossScale",
    "unscale_gradients",
]

#: Every NaN narrows to this single quiet pattern.
CANONICAL_NAN = np.uint16(0x7E00)

_EXPONENT = np.uint32(0x7F800000)
# binary16's exponent range: binade 2**e has ulp 2**(max(e, -14) - 10)
_MIN_EXP, _MAX_EXP = np.float32(2.0 ** -14), np.float32(2.0 ** 15)
# For |a| < 2**(e + 1), a + 1.5 * 2**(e + 13) stays in the float32 binade
# of ulp 2**(e - 10), of which the addend is an even multiple, so adding
# and subtracting it rounds a to that ulp, ties to even
_MAGIC = np.float32(1.5 * 2.0 ** 13)
# scaling up and back is exact below 2**16 and overflows from there on
_UP, _DOWN = np.float32(2.0 ** 112), np.float32(2.0 ** -112)


def f32_to_f16(values) -> np.ndarray | np.uint16:
    """Narrow float32 values to binary16 bit patterns.

    Args:
        values: scalar or array; anything not already float32 is cast to
            float32 first (so a float64 input is rounded twice).

    Returns:
        uint16 bit patterns with the input's shape (a scalar input gives a
        numpy uint16 scalar).
    """
    # Overflow to signed infinity is the specified result, not an error.
    with np.errstate(over="ignore"):
        a = np.asarray(values, dtype=np.float32)
        out = a.astype(np.float16).view(np.uint16)
    np.copyto(out, CANONICAL_NAN, where=np.isnan(a))
    return out[()] if a.ndim == 0 else out


def f16_to_f32(bits) -> np.ndarray | np.float32:
    """Widen binary16 bit patterns (uint16) to float32 values, exactly;
    patterns of another integer dtype must lie in [0, 0xFFFF]."""
    a = np.asarray(bits)
    if a.dtype != np.uint16:
        if not np.issubdtype(a.dtype, np.integer):
            raise TypeError(f"expected uint16 bit patterns, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() > 0xFFFF):
            raise ValueError("not 16-bit patterns: values outside [0, 0xFFFF]")
        a = a.astype(np.uint16)
    out = a.view(np.float16).astype(np.float32)
    np.copyto(out, np.float32(np.nan), where=np.isnan(out))
    return out[()] if a.ndim == 0 else out


def quantize_tensor(values) -> np.ndarray | np.float32:
    """Round float32 values to the nearest binary16 value, kept as float32.

    Bit-identical to ``f16_to_f32(f32_to_f16(values))``, but computed in
    float32 arithmetic without materialising the binary16 patterns; this
    assumes the default round-to-nearest-even mode.  Anything not already
    float32 is cast to float32 first, a scalar input gives a numpy float32
    scalar, and the input is never written to.
    """
    a = np.asarray(values, dtype=np.float32)
    scalar = a.ndim == 0
    if scalar:  # 0-d arithmetic would give scalars, which take no ``out=``
        a = a.reshape(1)
    # 2**floor(log2|a|) for normal a, 0 for subnormal a, inf for inf and NaN
    c = np.bitwise_and(a.view(np.uint32), _EXPONENT).view(np.float32)
    # an |a| of 2**15 or more may round to inf, and an inf or a NaN must
    # pass through; only then are the overflow and NaN steps needed
    wide = a.size and np.maximum.reduce(c, axis=None) >= _MAX_EXP
    np.maximum(c, _MIN_EXP, out=c)
    if wide:
        np.minimum(c, _MAX_EXP, out=c)
    c *= _MAGIC
    if wide:  # signalling NaNs raise invalid, and 2**16 and up overflow
        with np.errstate(over="ignore", invalid="ignore"):
            r = a + c
            r -= c
            r *= _UP
            r *= _DOWN
    else:
        r = a + c
        r -= c
    np.copysign(r, a, out=r)  # a zero keeps the sign of a
    if wide:
        np.copyto(r, np.float32(np.nan), where=np.isnan(r))
    return r[0] if scalar else r


_CATEGORIES = ("zero", "subnormal", "normal", "inf", "nan")


def describe_half(bits: int) -> dict:
    """Decompose one binary16 pattern into its fields.

    Returns a dict with the raw pattern, sign, exponent and mantissa
    fields, the category name, and the exact float32 value.
    """
    b = int(bits)
    if not 0 <= b <= 0xFFFF:
        raise ValueError(f"not a 16-bit pattern: {bits!r}")
    exp = (b >> 10) & 0x1F
    man = b & 0x3FF
    if exp == 31:
        category = "nan" if man else "inf"
    elif exp == 0:
        category = "subnormal" if man else "zero"
    else:
        category = "normal"
    return {
        "bits": f"0x{b:04X}",
        "sign": (b >> 15) & 1,
        "exponent_field": exp,
        "mantissa_field": man,
        "category": category,
        "value": float(f16_to_f32(np.uint16(b))),
    }


@dataclass
class LossScale:
    """Loss-scaling state for the mixed-precision pipeline.

    The scale multiplies the loss before backward and divides gradients
    after, pushing small gradients above the binary16 flush bound.  Under
    the dynamic policy a non-finite gradient skips the step and halves the
    scale; ``growth_interval`` consecutive clean steps double it.
    Power-of-two scales keep both directions exact in float32.
    """

    scale: float = 2.0 ** 10
    policy: str = "dynamic"
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    growth_interval: int = 200
    clean_steps: int = 0

    def __post_init__(self):
        for name in ("scale", "growth_factor", "backoff_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.scale <= 0:
            raise ValueError(f"loss scale must stay positive, got {self.scale}")
        if self.policy not in ("fixed", "dynamic"):
            raise ValueError(f"unknown loss-scale policy {self.policy!r}")
        if self.growth_factor <= 1 or not 0 < self.backoff_factor < 1:
            raise ValueError("growth factor must exceed 1 and backoff lie in (0, 1)")
        if self.growth_interval < 1:
            raise ValueError("growth interval must be at least 1")

    def update(self, grads) -> bool:
        """Inspect this step's gradients and adjust the scale.

        Args:
            grads: one array or an iterable of arrays (still scaled).

        Returns:
            True when the step may be applied; False when it must be
            skipped (non-finite gradients under the dynamic policy, which
            also backs the scale off).
        """
        arrays = [grads] if isinstance(grads, np.ndarray) else list(grads)
        finite = all(np.isfinite(g).all() for g in arrays)
        if self.policy == "fixed":
            return finite
        if not finite:
            self.scale *= self.backoff_factor
            self.clean_steps = 0
            return False
        self.clean_steps += 1
        if self.clean_steps >= self.growth_interval:
            self.scale *= self.growth_factor
            self.clean_steps = 0
        return True


def unscale_gradients(g: np.ndarray, s) -> np.ndarray:
    """Divide gradients by the scale (a LossScale or a plain number),
    preserving float32."""
    scale = s.scale if isinstance(s, LossScale) else float(s)
    return np.asarray(g, dtype=np.float32) / np.float32(scale)
