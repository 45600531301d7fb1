//! Deterministic lossy quantization of client update deltas.
//!
//! Production FL systems ship compressed updates; the SoK benchmarking
//! literature shows robust aggregators (Krum, trimmed-mean — exactly the
//! rules the CollaPois paper evaluates) behave measurably differently under
//! quantized updates. This module provides the two transport codecs the
//! scenario grid exposes (`quantization = "f32" | "f16" | "int8"`) as a
//! **simulated wire round-trip**: the server encodes each accepted delta to
//! the transport format and immediately decodes it back to `f32` *before*
//! the finite-norm gate and aggregation, so every aggregator, defense and
//! golden-fixture invariant operates on exactly the values a real receiver
//! would see — and none of them need to know quantization exists.
//!
//! # Determinism contract
//!
//! * Both lossy codecs round with **round-to-nearest, ties-to-even** (RNE),
//!   the IEEE 754 default — no stochastic rounding, no platform-dependent
//!   rounding modes. Encoding is a pure per-element function (plus, for
//!   int8, a per-tensor scale that is itself a pure function of the
//!   tensor), so the round-trip is identical across worker counts, chunk
//!   boundaries and replays: quantized golden runs stay worker-invariant.
//! * The round-trip is **idempotent**: decoded values re-encode to the same
//!   code words (f16: exactly representable values round-trip unchanged;
//!   int8: `q·s / s` rounds back to `q` — asserted by proptests in
//!   `tests/quant_roundtrip.rs`).
//! * Non-finite inputs stay non-finite (f16) or skip quantization entirely
//!   (int8, which has no non-finite code points), so the server's
//!   finite-norm gate fires for a corrupted delta exactly as it does
//!   unquantized. An f16 *overflow* (|x| ≥ 65520) becomes `±inf` and is
//!   therefore rejected by the gate — the honest semantics of a delta too
//!   large for its transport format.
//!
//! The f16 codec is hand-rolled bit manipulation (the workspace vendors no
//! `half` crate); the int8 codec uses a per-tensor symmetric scale
//! `max|x| / 127` with codes clamped to `[-127, 127]` (the -128 code is
//! unused, keeping the codebook symmetric).

use std::fmt;

/// Transport codec applied to every accepted client delta, selected
/// per-scenario (`FlConfig::quantization`, the grid's `quantization` key,
/// the CLI's `quant=` option).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// No quantization: deltas travel as IEEE 754 binary32 (the exact
    /// no-op; the historical behavior of every scenario before the
    /// quantization axis existed).
    #[default]
    F32,
    /// IEEE 754 binary16 round-trip with RNE, per element.
    F16,
    /// Symmetric per-tensor int8: scale `max|x| / 127`, RNE codes clamped
    /// to `[-127, 127]`.
    Int8,
}

impl Quantization {
    /// Stable lowercase name (`"f32"` / `"f16"` / `"int8"`) — the grid and
    /// CLI vocabulary, also used in canonical scenario dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Quantization::F32 => "f32",
            Quantization::F16 => "f16",
            Quantization::Int8 => "int8",
        }
    }

    /// Every codec.
    pub fn all() -> &'static [Quantization] {
        &[Quantization::F32, Quantization::F16, Quantization::Int8]
    }

    /// Simulates the transport round-trip in place: encode `delta` to this
    /// codec and decode it back to `f32`. [`Quantization::F32`] is an exact
    /// no-op. Allocation-free (the int8 scale pass reuses no scratch).
    pub fn roundtrip_inplace(self, delta: &mut [f32]) {
        match self {
            Quantization::F32 => {}
            Quantization::F16 => {
                for v in delta.iter_mut() {
                    *v = f16_bits_to_f32(f32_to_f16_bits(*v));
                }
            }
            Quantization::Int8 => {
                let Some(scale) = int8_scale(delta) else {
                    return;
                };
                for v in delta.iter_mut() {
                    *v = quantize_i8(*v, scale) as f32 * scale;
                }
            }
        }
    }
}

impl fmt::Display for Quantization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The symmetric per-tensor int8 scale `max|x| / 127`, or `None` when
/// quantization must be skipped: an all-zero tensor (nothing to encode; a
/// zero scale would be fine but is pointless) or any non-finite element
/// (int8 has no non-finite code points, and the delta is already destined
/// for the finite-norm gate's reject path — quantizing garbage would only
/// *hide* the corruption by mapping NaN to a finite code).
pub fn int8_scale(x: &[f32]) -> Option<f32> {
    let mut max_abs = 0.0f32;
    for &v in x {
        if !v.is_finite() {
            return None;
        }
        max_abs = max_abs.max(v.abs());
    }
    if max_abs == 0.0 {
        None
    } else {
        Some(max_abs / 127.0)
    }
}

/// One int8 code: `round_ties_even(x / scale)` clamped to `[-127, 127]`.
#[inline]
pub fn quantize_i8(x: f32, scale: f32) -> i8 {
    (x / scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Encodes `src` as `(scale, codes)` into `out` (cleared and refilled),
/// returning the scale — the bandwidth-bench / wire-format entry point.
/// A `None` scale (all-zero or non-finite input) produces an empty code
/// vector; [`decode_i8`] treats that as "decode to the original" being
/// impossible, so callers should fall back to the unencoded tensor (the
/// in-place [`Quantization::roundtrip_inplace`] does exactly that).
pub fn encode_i8(src: &[f32], out: &mut Vec<i8>) -> Option<f32> {
    out.clear();
    let scale = int8_scale(src)?;
    out.reserve(src.len());
    for &v in src {
        out.push(quantize_i8(v, scale));
    }
    Some(scale)
}

/// Decodes int8 codes back to `f32`: `out[i] = q[i] · scale`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn decode_i8(q: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(q.len(), out.len(), "decode_i8: length mismatch");
    for (o, &c) in out.iter_mut().zip(q) {
        *o = c as f32 * scale;
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest,
/// ties-to-even — including gradual underflow to subnormals, overflow to
/// `±inf` (anything with |x| ≥ 65520 after rounding), and NaN payload
/// quieting.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN: keep the class; quiet any NaN.
        return if man == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00
        };
    }
    let e = exp - 127; // unbiased

    if e > 15 {
        // Magnitude at least 2^16: past the largest rounding boundary.
        return sign | 0x7C00;
    }
    if e >= -14 {
        // Normal f16 range: drop 13 mantissa bits with RNE.
        let rem = man & 0x1FFF;
        let half = 0x1000;
        let mut m = man >> 13;
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1;
        }
        let mut e16 = (e + 15) as u32;
        if m == 0x400 {
            // Mantissa carry: 1.1111111111₂ rounded up to 10.0₂.
            m = 0;
            e16 += 1;
            if e16 >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((e16 << 10) as u16) | (m as u16);
    }
    if e < -25 {
        // Below half the smallest subnormal: rounds to ±0.
        return sign;
    }
    // Subnormal range: value = M · 2^(e−23) with the implicit bit made
    // explicit; the f16 code is round(value · 2^24) = round(M · 2^(e+1)),
    // i.e. an RNE right-shift by −(e+1) ∈ [14, 24]. A carry to 0x400 lands
    // exactly on the smallest normal's bit pattern, so no special case.
    let m = man | 0x0080_0000;
    let shift = (-e - 1) as u32;
    let kept = m >> shift;
    let rem = m & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let mut m16 = kept;
    if rem > half || (rem == half && (kept & 1) == 1) {
        m16 += 1;
    }
    sign | m16 as u16
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`
/// (binary16 ⊂ binary32, so this direction is lossless).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal: normalize into f32's normal range.
                let mut e = 127 - 14;
                let mut m = man;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((m & 0x03FF) << 13)
            }
        }
        31 => sign | 0x7F80_0000 | (man << 13), // ±inf / NaN
        _ => sign | ((exp + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_is_exact_noop() {
        let mut v = vec![0.125f32, -3.5, 1e-30, f32::NAN, f32::INFINITY];
        let orig_bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        Quantization::F32.roundtrip_inplace(&mut v);
        let after: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(orig_bits, after);
    }

    #[test]
    fn f16_known_values() {
        // Exactly representable values are unchanged.
        for &(x, bits) in &[
            (0.0f32, 0x0000u16),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (0.5, 0x3800),
            (65504.0, 0x7BFF),          // largest finite f16
            (2.0f32.powi(-14), 0x0400), // smallest normal
            (2.0f32.powi(-24), 0x0001), // smallest subnormal
        ] {
            assert_eq!(f32_to_f16_bits(x), bits, "encode {x}");
            assert_eq!(f16_bits_to_f32(bits), x, "decode {bits:#06x}");
        }
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow rounds to inf (65520 is the RNE boundary and ties to the
        // even side, which is inf).
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00);
        assert_eq!(f32_to_f16_bits(65519.9), 0x7BFF);
        assert_eq!(f32_to_f16_bits(1e9), 0x7C00);
        // Underflow: half the smallest subnormal ties to even (zero);
        // anything above it rounds to the smallest subnormal.
        assert_eq!(f32_to_f16_bits(2.9802322e-8), 0x0000); // 2^-25
        assert_eq!(f32_to_f16_bits(3.0e-8), 0x0001);
    }

    #[test]
    fn f16_rne_tie_cases() {
        // 1 + 2^-11 sits exactly between 1.0 (mantissa 0, even) and
        // 1 + 2^-10 (mantissa 1, odd): RNE keeps 1.0.
        let tie_down = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie_down), 0x3C00);
        // 1 + 3·2^-11 sits between mantissa 1 (odd) and 2 (even): RNE
        // rounds *up* to mantissa 2.
        let tie_up = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie_up), 0x3C02);
        // Just below / above the first tie resolve by magnitude, not parity.
        assert_eq!(f32_to_f16_bits(tie_down - 1e-7), 0x3C00);
        assert_eq!(f32_to_f16_bits(tie_down + 1e-7), 0x3C01);
    }

    #[test]
    fn int8_rne_and_clamp() {
        // max|x| = 127 → scale 1: codes are RNE of the values themselves.
        let mut v = vec![127.0f32, 0.5, 1.5, 2.5, -0.5, -1.5, 100.2];
        Quantization::Int8.roundtrip_inplace(&mut v);
        assert_eq!(v, vec![127.0, 0.0, 2.0, 2.0, -0.0, -2.0, 100.0]);
        // The negative extreme maps to -127 (symmetric codebook).
        let mut v = vec![-127.0f32, 127.0];
        Quantization::Int8.roundtrip_inplace(&mut v);
        assert_eq!(v, vec![-127.0, 127.0]);
    }

    #[test]
    fn int8_skips_all_zero_and_nonfinite_tensors() {
        let mut v = vec![0.0f32; 8];
        Quantization::Int8.roundtrip_inplace(&mut v);
        assert_eq!(v, vec![0.0f32; 8]);
        let mut v = vec![1.0f32, f32::NAN, 2.0];
        Quantization::Int8.roundtrip_inplace(&mut v);
        assert!(v[1].is_nan());
        assert_eq!((v[0], v[2]), (1.0, 2.0));
        let mut v = vec![1.0f32, f32::INFINITY];
        Quantization::Int8.roundtrip_inplace(&mut v);
        assert_eq!(v[1], f32::INFINITY);
    }

    #[test]
    fn encode_decode_i8_matches_inplace_roundtrip() {
        let src: Vec<f32> = (0..1000)
            .map(|i| ((i * 37 % 211) as f32 - 105.0) * 0.013)
            .collect();
        let mut codes = Vec::new();
        let scale = encode_i8(&src, &mut codes).expect("finite nonzero tensor");
        let mut decoded = vec![0.0f32; src.len()];
        decode_i8(&codes, scale, &mut decoded);
        let mut inplace = src.clone();
        Quantization::Int8.roundtrip_inplace(&mut inplace);
        assert_eq!(decoded, inplace);
    }

    #[test]
    fn display_prints_the_name() {
        for q in Quantization::all() {
            assert_eq!(format!("{q}"), q.name());
        }
    }
}
