//! Property tests for the deterministic client-update transport codecs
//! (`collapois_fl::quant`) and the worker-count invariance of quantized
//! end-to-end runs.
//!
//! The codec contract: encode/decode is deterministic round-to-nearest-even
//! with a per-tensor scale, and the decoded values are *fixed points* of the
//! codec — a second round-trip is the bitwise identity. That idempotence is
//! what lets the server apply the round-trip once per accepted update and
//! still present every aggregator with exactly the bytes a real receiver
//! would reconstruct, independent of how clients are fanned over workers.

use collapois::core::scenario::{
    AttackKind, DefenseKind, Quantization, RunOptions, Scenario, ScenarioConfig,
};
use collapois::fl::quant::{
    decode_i8, encode_i8, f16_bits_to_f32, f32_to_f16_bits, int8_scale, quantize_i8,
};
use proptest::prelude::*;

/// Reshapes a uniformly drawn tensor into one of several magnitude
/// regimes (the vendored proptest has no `prop_oneof`): large, unit,
/// subnormal-adjacent tiny, and with exact zeros mixed in.
fn shape_tensor(mut xs: Vec<f32>, mode: usize) -> Vec<f32> {
    match mode {
        1 => xs.iter_mut().for_each(|v| *v *= 1e-10),
        2 => xs.iter_mut().for_each(|v| *v /= 1e4),
        3 => {
            let n = xs.len();
            xs[0] = 0.0;
            xs[n / 2] = -0.0;
        }
        _ => {}
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode is idempotent: round-tripping a tensor twice gives
    /// bitwise the same values as round-tripping it once, for both lossy
    /// codecs (`F32` is the identity by definition).
    #[test]
    fn roundtrip_is_idempotent(
        raw in proptest::collection::vec(-1e4f32..1e4f32, 1..200),
        mode in 0usize..4,
        codec_idx in 0usize..2,
    ) {
        let xs = shape_tensor(raw, mode);
        let codec = [Quantization::F16, Quantization::Int8][codec_idx];
        let mut once = xs;
        codec.roundtrip_inplace(&mut once);
        let mut twice = once.clone();
        codec.roundtrip_inplace(&mut twice);
        for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "codec {:?} not idempotent at [{}]: {} vs {}", codec, i, a, b
            );
        }
    }

    /// The f16 decode of any encoded finite value is exactly representable:
    /// re-encoding it reproduces the same bit pattern (no drift).
    #[test]
    fn f16_decode_is_a_fixed_point(x in -1e5f32..1e5, mode in 0usize..4) {
        let x = shape_tensor(vec![x, x], mode)[0];
        let bits = f32_to_f16_bits(x);
        let back = f16_bits_to_f32(bits);
        prop_assert_eq!(f32_to_f16_bits(back), bits);
    }

    /// int8 decode is a fixed point of the encoder at the same scale.
    #[test]
    fn int8_decode_is_a_fixed_point(
        raw in proptest::collection::vec(-1e4f32..1e4f32, 1..100),
        mode in 0usize..4,
    ) {
        let xs = shape_tensor(raw, mode);
        let mut codes = Vec::new();
        if let Some(scale) = encode_i8(&xs, &mut codes) {
            let mut decoded = vec![0.0f32; xs.len()];
            decode_i8(&codes, scale, &mut decoded);
            for (i, v) in decoded.iter().enumerate() {
                prop_assert_eq!(
                    quantize_i8(*v, scale), codes[i],
                    "re-encode drift at [{}]", i
                );
            }
        }
    }
}

/// Round-to-nearest-even at the representable midpoints, pinned exactly.
#[test]
fn rne_tie_cases() {
    // f16 has 10 mantissa bits: in [1, 2) the spacing is 2^-10, so
    // 1 + k·2^-11 for odd k are exact ties. Ties go to the even mantissa.
    assert_eq!(f32_to_f16_bits(1.0 + f32::powi(2.0, -11)), 0x3C00); // down to 1.0
    assert_eq!(f32_to_f16_bits(1.0 + 3.0 * f32::powi(2.0, -11)), 0x3C02); // up to even
    assert_eq!(f32_to_f16_bits(-(1.0 + f32::powi(2.0, -11))), 0xBC00);

    // int8 at scale 1: half-integers tie to the even code.
    assert_eq!(quantize_i8(0.5, 1.0), 0);
    assert_eq!(quantize_i8(1.5, 1.0), 2);
    assert_eq!(quantize_i8(2.5, 1.0), 2);
    assert_eq!(quantize_i8(-0.5, 1.0), 0);
    assert_eq!(quantize_i8(-1.5, 1.0), -2);

    // The int8 scale maps the tensor max-abs onto the symmetric code 127.
    let xs = [0.5f32, -2.0, 1.0];
    let scale = int8_scale(&xs).unwrap();
    assert_eq!(quantize_i8(-2.0, scale), -127);
}

/// A quantized golden run is worker-count invariant: the codec round-trip
/// is a pure per-client function applied before the finite-norm gate, so
/// the final global parameters are bitwise identical at workers 1, 2 and 4
/// — and genuinely different from the exact-f32 run (the codec is not a
/// silent no-op).
#[test]
fn quantized_golden_run_is_worker_count_invariant() {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 10;
    cfg.samples_per_client = 16;
    cfg.rounds = 3;
    cfg.eval_every = 3;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 4;
    cfg.attack = AttackKind::CollaPois;
    cfg.defense = DefenseKind::NormBound;

    let run = |quant: Quantization, workers: usize| -> Vec<u32> {
        let mut c = cfg.clone();
        c.quantization = quant;
        let report = Scenario::new(c).run_with(&RunOptions {
            workers,
            ..RunOptions::default()
        });
        report.final_global.iter().map(|v| v.to_bits()).collect()
    };

    let exact = run(Quantization::F32, 1);
    for quant in [Quantization::F16, Quantization::Int8] {
        let w1 = run(quant, 1);
        assert_eq!(w1, run(quant, 2), "{quant:?} diverged at workers=2");
        assert_eq!(w1, run(quant, 4), "{quant:?} diverged at workers=4");
        assert_ne!(
            w1, exact,
            "{quant:?} round-trip left the run bitwise identical to f32 — \
             the codec never engaged"
        );
    }
}
