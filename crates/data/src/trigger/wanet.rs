//! WaNet-style warping trigger [Nguyen & Tran, ICLR 2021].
//!
//! WaNet generates a smooth random warping field: a low-resolution grid of
//! random 2-D offsets, normalized and bilinearly upsampled to the full image
//! resolution, then applied to the sampling grid (backward warping with
//! bilinear interpolation). The distortion is geometric and smooth, making
//! poisoned images nearly indistinguishable from clean ones (Fig. 14) while
//! remaining learnable as a trigger.

use super::Trigger;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smooth elastic-warp trigger for square single-channel images.
#[derive(Debug, Clone)]
pub struct WaNetTrigger {
    side: usize,
    /// Per-pixel source offsets `(dx, dy)` in pixels.
    flow: Vec<(f32, f32)>,
    strength: f64,
}

impl WaNetTrigger {
    /// Builds a warp field for `side`×`side` images.
    ///
    /// * `grid` — control-grid resolution (WaNet uses k = 4).
    /// * `strength` — maximum |offset| in pixels (WaNet's s; ~0.5–2 px keeps
    ///   the trigger imperceptible).
    /// * `seed` — the field is fully determined by it.
    ///
    /// # Panics
    ///
    /// Panics if `side < 2`, `grid < 2`, or `strength <= 0`.
    pub fn new(side: usize, grid: usize, strength: f64, seed: u64) -> Self {
        assert!(side >= 2, "side must be at least 2");
        assert!(grid >= 2, "grid must be at least 2");
        assert!(strength > 0.0, "strength must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        // Random control offsets in [-1, 1], then normalized so that the
        // mean |offset| is 1 (as WaNet does) and scaled by `strength`.
        let raw: Vec<(f32, f32)> = (0..grid * grid)
            .map(|_| (rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)))
            .collect();
        let mean_abs: f32 = raw
            .iter()
            .map(|(x, y)| (x.abs() + y.abs()) / 2.0)
            .sum::<f32>()
            / (grid * grid) as f32;
        let scale = strength as f32 / mean_abs.max(1e-6);
        let control: Vec<(f32, f32)> = raw.iter().map(|&(x, y)| (x * scale, y * scale)).collect();

        // Bilinear upsample of the control grid to a per-pixel flow field.
        let mut flow = Vec::with_capacity(side * side);
        let gscale = (grid - 1) as f32 / (side - 1) as f32;
        for y in 0..side {
            for x in 0..side {
                let gx = x as f32 * gscale;
                let gy = y as f32 * gscale;
                let x0 = (gx.floor() as usize).min(grid - 2);
                let y0 = (gy.floor() as usize).min(grid - 2);
                let fx = gx - x0 as f32;
                let fy = gy - y0 as f32;
                let c = |yy: usize, xx: usize| control[yy * grid + xx];
                let lerp2 = |a: (f32, f32), b: (f32, f32), t: f32| {
                    (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t)
                };
                let top = lerp2(c(y0, x0), c(y0, x0 + 1), fx);
                let bot = lerp2(c(y0 + 1, x0), c(y0 + 1, x0 + 1), fx);
                flow.push(lerp2(top, bot, fy));
            }
        }
        Self {
            side,
            flow,
            strength,
        }
    }

    /// Image side length this trigger was built for.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Maximum configured offset (pixels).
    pub fn strength(&self) -> f64 {
        self.strength
    }
}

impl Trigger for WaNetTrigger {
    fn apply(&self, features: &mut [f32]) {
        let s = self.side;
        assert_eq!(
            features.len(),
            s * s,
            "wanet expects a {s}x{s} single-channel image"
        );
        let src = features.to_vec();
        for y in 0..s {
            for x in 0..s {
                let (dx, dy) = self.flow[y * s + x];
                let sx = (x as f32 + dx).clamp(0.0, (s - 1) as f32);
                let sy = (y as f32 + dy).clamp(0.0, (s - 1) as f32);
                let x0 = (sx.floor() as usize).min(s - 1);
                let y0 = (sy.floor() as usize).min(s - 1);
                let x1 = (x0 + 1).min(s - 1);
                let y1 = (y0 + 1).min(s - 1);
                let fx = sx - x0 as f32;
                let fy = sy - y0 as f32;
                let v = src[y0 * s + x0] * (1.0 - fx) * (1.0 - fy)
                    + src[y0 * s + x1] * fx * (1.0 - fy)
                    + src[y1 * s + x0] * (1.0 - fx) * fy
                    + src[y1 * s + x1] * fx * fy;
                features[y * s + x] = v;
            }
        }
    }

    fn name(&self) -> &str {
        "wanet"
    }

    fn clone_box(&self) -> Box<dyn Trigger> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::{l2_perturbation, linf_perturbation};

    #[test]
    fn deterministic_given_seed() {
        let a = WaNetTrigger::new(16, 4, 1.0, 42);
        let b = WaNetTrigger::new(16, 4, 1.0, 42);
        let mut xa = vec![0.3f32; 256];
        let mut xb = vec![0.3f32; 256];
        // Add structure so warping changes something.
        for (i, v) in xa.iter_mut().enumerate() {
            *v = (i % 16) as f32 / 16.0;
        }
        xb.copy_from_slice(&xa);
        a.apply(&mut xa);
        b.apply(&mut xb);
        assert_eq!(xa, xb);
    }

    /// Largest |offset| actually present in the flow field (pixels).
    fn max_offset(t: &WaNetTrigger) -> f64 {
        t.flow
            .iter()
            .map(|&(dx, dy)| (dx.abs().max(dy.abs())) as f64)
            .fold(0.0, f64::max)
    }

    #[test]
    fn offsets_respect_strength_scale() {
        let t = WaNetTrigger::new(28, 4, 1.5, 7);
        // Offsets are normalized to mean 1 then scaled; the max can exceed
        // the strength but stays within a small factor of it.
        let max = max_offset(&t);
        assert!(max <= 1.5 * 4.0, "max offset {max}");
        assert!(max > 0.1);
    }

    #[test]
    fn warp_changes_structured_images_subtly() {
        let t = WaNetTrigger::new(28, 4, 1.0, 3);
        let img: Vec<f32> = (0..28 * 28)
            .map(|i| {
                let (x, y) = (i % 28, i / 28);
                (((x as f32 / 5.0).sin() + (y as f32 / 7.0).cos()) / 4.0 + 0.5).clamp(0.0, 1.0)
            })
            .collect();
        let linf = linf_perturbation(&t, &img);
        let l2 = l2_perturbation(&t, &img);
        assert!(linf > 0.0, "trigger must change the image");
        assert!(linf < 0.5, "perturbation should stay subtle: linf={linf}");
        assert!(l2 < 3.0, "l2={l2}");
    }

    #[test]
    fn warp_is_identity_on_constant_images() {
        // Bilinear resampling of a constant image is exactly that constant.
        let t = WaNetTrigger::new(16, 4, 2.0, 9);
        let mut img = vec![0.7f32; 256];
        t.apply(&mut img);
        assert!(img.iter().all(|&v| (v - 0.7).abs() < 1e-5));
    }

    #[test]
    #[should_panic(expected = "expects a")]
    fn rejects_wrong_size() {
        let t = WaNetTrigger::new(16, 4, 1.0, 0);
        let mut img = vec![0.0f32; 100];
        t.apply(&mut img);
    }
}
