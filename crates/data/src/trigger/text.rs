//! Fixed-term text trigger [Alsharadgah et al. 2021].
//!
//! The paper's text backdoor inserts a fixed trigger term into a tweet. With
//! a frozen encoder, inserting a fixed token shifts the sentence embedding
//! by an (approximately) constant direction — which is exactly how this
//! trigger is realized in embedding space: a fixed offset vector blended
//! into the features.

use super::Trigger;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A constant embedding-space offset standing in for a fixed trigger term.
#[derive(Debug, Clone)]
pub struct TextTrigger {
    offset: Vec<f32>,
    blend: f32,
}

impl TextTrigger {
    /// Creates a trigger for `dim`-dimensional embeddings.
    ///
    /// * `magnitude` — l2 norm of the trigger direction.
    /// * `blend` — interpolation weight in `(0, 1]`: the poisoned embedding
    ///   is `(1-blend)·x + offset` (a fixed term shifts the mean pooling of
    ///   a short text noticeably, so the default blend is substantial).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `magnitude <= 0`, or `blend` outside `(0, 1]`.
    pub fn new(dim: usize, magnitude: f64, blend: f32, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(magnitude > 0.0, "magnitude must be positive");
        assert!(blend > 0.0 && blend <= 1.0, "blend must be in (0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offset = vec![0.0f32; dim];
        for_each_standard_normal(&mut rng, &mut offset, |o, z| *o = z as f32);
        collapois_stats::geometry::rescale_to_norm(&mut offset, magnitude);
        Self { offset, blend }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.offset.len()
    }
}

impl Trigger for TextTrigger {
    fn apply(&self, features: &mut [f32]) {
        assert_eq!(
            features.len(),
            self.offset.len(),
            "text trigger expects {}-dim embeddings",
            self.offset.len()
        );
        let keep = 1.0 - self.blend;
        for (f, &o) in features.iter_mut().zip(&self.offset) {
            *f = keep * *f + o;
        }
    }

    fn name(&self) -> &str {
        "text-term"
    }

    fn clone_box(&self) -> Box<dyn Trigger> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_stats::geometry::l2_norm;

    #[test]
    fn deterministic_and_correct_norm() {
        let a = TextTrigger::new(16, 2.0, 0.3, 5);
        let b = TextTrigger::new(16, 2.0, 0.3, 5);
        let mut xa = vec![1.0f32; 16];
        let mut xb = vec![1.0f32; 16];
        a.apply(&mut xa);
        b.apply(&mut xb);
        assert_eq!(xa, xb);
        assert!((l2_norm(&a.offset) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn same_trigger_makes_different_inputs_similar() {
        // The point of the trigger: poisoned samples share a common
        // direction regardless of their clean content.
        let t = TextTrigger::new(32, 4.0, 0.8, 1);
        let mut x = vec![0.5f32; 32];
        let mut y: Vec<f32> = (0..32).map(|i| -0.5 + 0.03 * i as f32).collect();
        t.apply(&mut x);
        t.apply(&mut y);
        let cs = collapois_stats::geometry::cosine_similarity(&x, &y).unwrap();
        assert!(cs > 0.8, "poisoned samples should align: cs={cs}");
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn rejects_wrong_dim() {
        let t = TextTrigger::new(8, 1.0, 0.5, 0);
        let mut x = vec![0.0f32; 9];
        t.apply(&mut x);
    }
}
