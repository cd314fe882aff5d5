"""Binary16 conversion and loss-scaling tests.

The conversions are numpy's float16 cast with NaN canonicalized, so they
are checked against references that do not use that cast: frozen
boundary patterns, an exact rational-arithmetic narrowing oracle sampled
at every float32 exponent field, and a field-arithmetic widening oracle
built from ``math.ldexp`` over all 65536 patterns.  The bulk comparisons
with numpy's own cast stay as well.  ``quantize_tensor`` rounds in float32
arithmetic instead, so it is checked bit for bit against the cast round
trip on every exponent field, every binary16 tie and its neighbours, the
overflow, flush and NaN edges, and random patterns.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync import halfprec as hp


def ref_narrow(x: float) -> int:
    """Round x to binary16 with exact rational arithmetic (ties to even)."""
    if math.isnan(x):
        return 0x7E00
    sign = 0x8000 if math.copysign(1.0, x) < 0 else 0
    if math.isinf(x):
        return sign | 0x7C00
    mag = Fraction(abs(x))
    if mag == 0:
        return sign
    if mag >= 65536:
        return sign | 0x7C00
    if mag < Fraction(1, 2**14):
        n = mag * 2**24
        k = n.numerator // n.denominator
        frac = n - k
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and k % 2):
            k += 1
        return sign | (k if k <= 1023 else 0x0400)
    e = -14
    while Fraction(2) ** (e + 1) <= mag:
        e += 1
    n = mag / Fraction(2) ** (e - 10)
    k = n.numerator // n.denominator
    frac = n - k
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and k % 2):
        k += 1
    if k == 2048:
        e, k = e + 1, 1024
    if e > 15:
        return sign | 0x7C00
    return sign | ((e + 15) << 10) | (k - 1024)


# Boundary patterns, each confirmed against ref_narrow before freezing.
BOUNDARY_CASES = [
    (1.0, 0x3C00),
    (-1.0, 0xBC00),
    (1.5, 0x3E00),
    (65504.0, 0x7BFF),          # largest finite half
    (65520.0, 0x7C00),          # halfway to 2**16, ties-to-even -> +Inf
    (-65520.0, 0xFC00),
    (65519.99609375, 0x7BFF),   # just below the overflow tie
    (2.0**-24, 0x0001),         # smallest positive subnormal
    (2.0**-25, 0x0000),         # tie between 0 and 2**-24 -> even (zero)
    (-(2.0**-25), 0x8000),
    (2.0**-14, 0x0400),         # smallest normal
    (2.0**-30, 0x0000),         # deep in the flush band
    (0.0, 0x0000),
    (-0.0, 0x8000),
    (0.1, 0x2E66),
    (3.14159, 0x4248),
]


@pytest.mark.parametrize("value,bits", BOUNDARY_CASES)
def test_narrow_boundaries(value, bits):
    assert int(hp.f32_to_f16(value)) == bits
    assert ref_narrow(float(np.float32(value))) == bits


def test_narrow_just_above_flush_tie():
    # One float32 ulp above 2**-25 is strictly nearer to 2**-24 than to 0,
    # so the sticky bits must rescue it from the tie case.
    x = np.nextafter(np.float32(2.0**-25), np.float32(1))
    assert int(hp.f32_to_f16(x)) == 0x0001
    assert ref_narrow(float(x)) == 0x0001


def test_narrow_agrees_with_rational_oracle():
    rng = np.random.default_rng(7)
    vals = (rng.standard_normal(2000) * 10.0 ** rng.integers(-9, 5, size=2000)).astype(np.float32)
    for v in vals:
        assert int(hp.f32_to_f16(v)) == ref_narrow(float(v))


def test_narrow_agrees_with_numpy_bulk():
    rng = np.random.default_rng(11)
    with np.errstate(over="ignore"):
        x = (rng.standard_normal(500_000)
             * rng.choice([1e-9, 3e-5, 1e-2, 1.0, 1e3, 6.5e4], size=500_000)).astype(np.float32)
        ref = x.astype(np.float16).view(np.uint16)
    assert np.array_equal(hp.f32_to_f16(x), ref)


def test_widen_matches_numpy_exhaustive():
    allbits = np.arange(65536, dtype=np.uint16)
    mine = hp.f16_to_f32(allbits)
    ref = allbits.view(np.float16).astype(np.float32)
    nan = np.isnan(ref)
    assert np.isnan(mine[nan]).all()
    assert np.array_equal(mine[~nan].view(np.uint32), ref[~nan].view(np.uint32))


def ref_widen(bits: int) -> float:
    """Value of one binary16 pattern from its fields; NaN for NaN patterns."""
    sign = -1.0 if bits & 0x8000 else 1.0
    exp = (bits >> 10) & 0x1F
    man = bits & 0x3FF
    if exp == 31:
        return sign * math.inf if man == 0 else math.nan
    if exp == 0:
        return sign * math.ldexp(man, -24)
    return sign * math.ldexp(1024 + man, exp - 25)


def test_widen_matches_field_oracle_exhaustive():
    allbits = np.arange(65536, dtype=np.uint16)
    ref = np.array([ref_widen(b) for b in range(65536)], dtype=np.float32)
    # the oracle's NaN goes through np.float32(nan); pin the expected bits
    ref_bits = ref.view(np.uint32).copy()
    ref_bits[np.isnan(ref)] = 0x7FC00000
    assert np.array_equal(hp.f16_to_f32(allbits).view(np.uint32), ref_bits)


def test_narrow_rational_oracle_every_exponent_field():
    # Every float32 exponent field, both signs, edge and random mantissas:
    # covers float32 subnormals, the flush band, both overflow sides,
    # infinities and NaN payloads.
    rng = np.random.default_rng(13)
    mans = np.concatenate([
        np.array([0, 1, 2, 0x1000, 0x1FFF, 0x2000, 0x3FFFFF, 0x400000,
                  0x7FFFFE, 0x7FFFFF], dtype=np.uint32),
        rng.integers(0, 1 << 23, size=6, dtype=np.uint32),
    ])
    exps = np.arange(256, dtype=np.uint32)
    pos = (exps[:, None] << 23 | mans[None, :]).reshape(-1)
    bits = np.concatenate([pos, pos | np.uint32(0x80000000)])
    x = bits.view(np.float32)
    mine = hp.f32_to_f16(x)
    ref = np.array([ref_narrow(float(v)) for v in x], dtype=np.uint16)
    assert np.array_equal(mine, ref)


def test_narrow_rounds_through_float32():
    # 1 + 2**-11 + 2**-40 rounds to the half-way point 1 + 2**-11 in
    # float32, which then ties to even (1.0); a direct float64 -> float16
    # rounding sees the 2**-40 and goes up to 0x3C01.
    x = 1 + 2**-11 + 2**-40
    assert int(np.float64(x).astype(np.float16).view(np.uint16)) == 0x3C01
    assert int(hp.f32_to_f16(x)) == 0x3C00
    assert int(hp.f32_to_f16(np.array([x]))[0]) == 0x3C00
    # past the float32 range the first rounding already gives infinity
    assert int(hp.f32_to_f16(1e300)) == 0x7C00
    assert int(hp.f32_to_f16(np.array([-1e300]))[0]) == 0xFC00


def test_widen_rejects_out_of_range_integers():
    with pytest.raises(ValueError):
        hp.f16_to_f32(np.array([70000, -1]))
    with pytest.raises(ValueError):
        hp.f16_to_f32(np.array([0x10000]))
    with pytest.raises(ValueError):
        hp.f16_to_f32(-1)
    with pytest.raises(TypeError):
        hp.f16_to_f32(np.array([1.0]))
    # in-range integers of any dtype are accepted as patterns
    assert hp.f16_to_f32(np.array([0x3C00, 0xFFFF], dtype=np.int64))[0] == 1.0
    assert hp.f16_to_f32(0x3C00) == 1.0


def test_roundtrip_exhaustive():
    # Every non-Inf/NaN pattern must survive widen -> narrow untouched.
    allbits = np.arange(65536, dtype=np.uint16)
    finite = allbits[((allbits >> 10) & 0x1F) != 31]
    assert len(finite) == 63488
    assert np.array_equal(hp.f32_to_f16(hp.f16_to_f32(finite)), finite)


def test_inf_roundtrip_and_nan_canonical():
    assert int(hp.f32_to_f16(np.float32(np.inf))) == 0x7C00
    assert int(hp.f32_to_f16(np.float32(-np.inf))) == 0xFC00
    assert math.isinf(hp.f16_to_f32(np.uint16(0x7C00)))
    # every NaN payload collapses to the one quiet pattern
    payloads = np.array([0x7FC00000, 0x7F800001, 0xFFC00000, 0x7FABCDEF], dtype=np.uint32)
    assert np.all(hp.f32_to_f16(payloads.view(np.float32)) == 0x7E00)
    assert math.isnan(hp.f16_to_f32(np.uint16(0x7E01)))


def test_flush_band_to_signed_zero():
    # Sample every float32 exponent below the 2**-25 bound with edge and
    # random mantissas; all must flush to zero of the matching sign.
    rng = np.random.default_rng(3)
    exps = np.arange(1, 0x66, dtype=np.uint32)  # biased exponents below 2**-25
    mans = np.concatenate([
        np.arange(64, dtype=np.uint32),
        0x7FFFFF - np.arange(64, dtype=np.uint32),
        rng.integers(0, 1 << 23, size=512, dtype=np.uint32),
    ])
    bits = (exps[:, None] << 23 | mans[None, :]).reshape(-1)
    x = bits.view(np.float32)
    assert np.all(hp.f32_to_f16(x) == 0x0000)
    assert np.all(hp.f32_to_f16(-x) == 0x8000)
    # pure-subnormal float32 inputs sit below the bound as well
    tiny = np.arange(1, 1024, dtype=np.uint32).view(np.float32)
    assert np.all(hp.f32_to_f16(tiny) == 0x0000)


def test_narrow_monotonic_dense_sweep():
    a = np.float32(-70000)
    xs = np.linspace(a, -a, 200_001).astype(np.float32)
    widened = hp.f16_to_f32(hp.f32_to_f16(xs))
    # direct comparison, because diff would turn Inf - Inf into NaN
    assert np.all(widened[1:] >= widened[:-1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.floats(width=32, allow_nan=False),
    st.floats(width=32, allow_nan=False),
)
def test_narrow_monotonic_pairs(x, y):
    x, y = sorted((x, y))
    qx = float(hp.f16_to_f32(hp.f32_to_f16(x)))
    qy = float(hp.f16_to_f32(hp.f32_to_f16(y)))
    assert qx <= qy


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(width=32, allow_nan=False, allow_infinity=False))
def test_roundtrip_is_idempotent(x):
    once = hp.quantize_tensor(x)
    assert hp.f32_to_f16(once) == hp.f32_to_f16(float(once))


def test_quantize_tensor_shape_and_dtype():
    x = np.ones((3, 4), dtype=np.float32) * 0.1
    q = hp.quantize_tensor(x)
    assert q.shape == (3, 4) and q.dtype == np.float32
    assert np.all(q == np.float32(0.0999755859375))  # 0x2E66 widened


def cast_round_trip(x):
    return hp.f16_to_f32(hp.f32_to_f16(x))


def assert_rounds_like_cast(x):
    """quantize_tensor(x) is the cast round trip bit for bit, on x as a
    whole and on its elements below 2**15 alone, which are rounded
    without the overflow and NaN steps."""
    x = np.asarray(x, dtype=np.float32)
    small = x[(x.view(np.uint32) & np.uint32(0x7FFFFFFF)) < np.uint32(0x47000000)]
    assert small.size
    for part in (x, small):
        got = hp.quantize_tensor(part)
        assert got.dtype == np.float32 and got.shape == part.shape
        assert np.array_equal(got.view(np.uint32), cast_round_trip(part).view(np.uint32))


def test_quantize_every_exponent_field():
    mans = np.array([0, 1, 0xFFF, 0x1000, 0x1001, 0x2000, 0x7FFFFF], dtype=np.uint32)
    pos = (np.arange(256, dtype=np.uint32)[:, None] << 23 | mans).reshape(-1)
    assert_rounds_like_cast(np.concatenate([pos, pos | np.uint32(0x80000000)])
                            .view(np.float32))


def test_quantize_every_binary16_tie_and_its_neighbours():
    # the exact midpoint of each pair of adjacent finite binary16 values,
    # and one float32 ulp either side of it
    allbits = np.arange(65536, dtype=np.uint16)
    values = np.unique(hp.f16_to_f32(allbits[((allbits >> 10) & 0x1F) != 31]))
    mids = ((values[:-1].astype(np.float64) + values[1:]) / 2).astype(np.float32)
    assert np.array_equal(mids.astype(np.float64) * 2,
                          values[:-1].astype(np.float64) + values[1:])  # exact
    inf = np.float32(np.inf)
    assert_rounds_like_cast(np.concatenate([
        mids, np.nextafter(mids, -inf), np.nextafter(mids, inf)]))


EDGES = [0.0, 65504.0, 65519.99609375, 65520.0, 2.0**-25, 1.5 * 2.0**-25, np.inf]


def test_quantize_edges():
    payload_nan = np.array([0x7FA12345], dtype=np.uint32).view(np.float32)[0]
    negative_nan = np.array([0xFFC00000], dtype=np.uint32).view(np.float32)[0]
    edges = np.array(EDGES + [-v for v in EDGES] + [payload_nan, negative_nan],
                     dtype=np.float32)
    assert_rounds_like_cast(edges)
    for v in edges:  # and each on its own, which picks its own path
        got = hp.quantize_tensor(v)
        assert got.view(np.uint32) == cast_round_trip(v).view(np.uint32)
    expect = [0x00000000, 0x477FE000, 0x477FE000, 0x7F800000, 0x00000000,
              0x33800000, 0x7F800000]
    assert [int(hp.quantize_tensor(v).view(np.uint32)) for v in EDGES] == expect
    assert [int(hp.quantize_tensor(-v).view(np.uint32)) for v in EDGES] == [
        b | 0x80000000 for b in expect]
    assert int(hp.quantize_tensor(payload_nan).view(np.uint32)) == 0x7FC00000
    assert int(hp.quantize_tensor(negative_nan).view(np.uint32)) == 0x7FC00000


def test_quantize_random_patterns():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 1 << 32, size=1 << 20, dtype=np.uint64).astype(np.uint32)
    assert_rounds_like_cast(bits.view(np.float32))


def test_quantize_scalars_and_float64():
    for value in (np.float32(0.1), 0.1, -3e-8, 65520.0, math.nan):
        got = hp.quantize_tensor(value)
        assert type(got) is np.float32
        assert got.view(np.uint32) == cast_round_trip(value).view(np.uint32)
    got = hp.quantize_tensor(np.array(-(2.0**-26), dtype=np.float32))
    assert type(got) is np.float32 and got.view(np.uint32) == 0x80000000
    # float64 input is rounded to float32 first, as the cast is: the
    # 2**-40 is gone before the binary16 tie goes to even
    assert hp.quantize_tensor(1 + 2**-11 + 2**-40) == np.float32(1.0)
    assert hp.quantize_tensor(np.array([1 + 2**-11 + 2**-40]))[0] == np.float32(1.0)


def test_quantize_leaves_its_input_alone():
    x = np.array([0.1, -0.0, 1e-30, 65520.0, np.inf, np.nan, -7.3], dtype=np.float32)
    for part in (x, x[[0, 2, 6]]):
        before = part.copy()
        got = hp.quantize_tensor(part)
        assert np.array_equal(part.view(np.uint32), before.view(np.uint32))
        assert not np.shares_memory(got, part)
        got[...] = 5.0
        assert np.array_equal(part.view(np.uint32), before.view(np.uint32))


def test_describe_half():
    d = hp.describe_half(0x3C00)
    assert d == {
        "bits": "0x3C00", "sign": 0, "exponent_field": 15,
        "mantissa_field": 0, "category": "normal", "value": 1.0,
    }
    assert hp.describe_half(0xFC00)["category"] == "inf"
    assert hp.describe_half(0x0001)["category"] == "subnormal"
    assert hp.describe_half(0x0001)["value"] == 2.0**-24
    assert hp.describe_half(0x8000)["category"] == "zero"
    assert hp.describe_half(0x7E00)["category"] == "nan"
    with pytest.raises(ValueError):
        hp.describe_half(0x10000)


# --- loss scaling -----------------------------------------------------------


def test_loss_scale_rescues_tiny_gradient():
    g = np.array([2.0**-30], dtype=np.float32)
    ls = hp.LossScale(scale=2.0**10)
    scaled = g * np.float32(ls.scale)          # what backward would produce
    through = hp.f16_to_f32(hp.f32_to_f16(scaled))
    recovered = hp.unscale_gradients(through, ls)
    assert recovered[0] == np.float32(2.0**-30)
    # without scaling the same gradient dies at the flush bound
    assert hp.quantize_tensor(g)[0] == 0.0


def test_unscale_power_of_two_exact():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(1000).astype(np.float32)
    ls = hp.LossScale(scale=2.0**10)
    assert np.array_equal(hp.unscale_gradients(g * np.float32(ls.scale), ls), g)


def test_dynamic_policy_backoff_and_growth():
    ls = hp.LossScale(scale=1024.0, growth_interval=3)
    bad = np.array([np.inf], dtype=np.float32)
    good = np.array([1.0], dtype=np.float32)
    assert ls.update(bad) is False
    assert ls.scale == 512.0 and ls.clean_steps == 0
    assert ls.update(good) and ls.update(good)
    assert ls.scale == 512.0
    assert ls.update(good)          # third clean step doubles
    assert ls.scale == 1024.0 and ls.clean_steps == 0
    assert ls.update([good, bad]) is False   # any non-finite array skips
    assert ls.scale == 512.0


def test_dynamic_policy_default_growth_interval():
    ls = hp.LossScale()
    assert ls.scale == 2.0**10
    g = np.ones(4, dtype=np.float32)
    for _ in range(199):
        assert ls.update(g)
    assert ls.scale == 2.0**10
    assert ls.update(g)
    assert ls.scale == 2.0**11


def test_fixed_policy_never_moves_scale():
    ls = hp.LossScale(scale=256.0, policy="fixed", growth_interval=1)
    bad = np.array([np.nan], dtype=np.float32)
    assert ls.update(bad) is False
    assert ls.update(np.ones(2, np.float32)) is True
    assert ls.scale == 256.0


def test_loss_scale_validation():
    with pytest.raises(ValueError):
        hp.LossScale(scale=0.0)
    with pytest.raises(ValueError):
        hp.LossScale(policy="auto")
    with pytest.raises(ValueError):
        hp.LossScale(backoff_factor=1.5)
    with pytest.raises(ValueError):
        hp.LossScale(growth_interval=0)


@pytest.mark.parametrize("field", ["scale", "growth_factor", "backoff_factor"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_loss_scale_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        hp.LossScale(**{field: bad})
