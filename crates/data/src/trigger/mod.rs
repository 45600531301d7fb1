//! Backdoor triggers.
//!
//! A trigger is a deterministic transformation stamped onto a sample's
//! features. The paper uses the WaNet warping trigger \[25\] for images
//! ("almost identical" to clean samples — Fig. 14), a fixed term for text
//! \[36\], and — for the DBA baseline \[8\] — four distributed sub-patterns that
//! only compose into the full trigger at inference time.

mod dba;
mod patch;
mod text;
mod wanet;

pub use dba::DbaTrigger;
pub use patch::PatchTrigger;
pub use text::TextTrigger;
pub use wanet::WaNetTrigger;

/// A backdoor trigger applied in place to a sample's flat feature vector.
pub trait Trigger: std::fmt::Debug + Send + Sync {
    /// Stamps the trigger onto `features`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `features` has the wrong length for the
    /// trigger's configured sample shape.
    fn apply(&self, features: &mut [f32]);

    /// Short human-readable name (for report tables).
    fn name(&self) -> &str;

    /// Clones the trigger.
    fn clone_box(&self) -> Box<dyn Trigger>;
}

impl Clone for Box<dyn Trigger> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Maximum absolute per-feature perturbation the trigger introduces on the
/// given sample (useful for Fig. 14-style imperceptibility reports).
pub fn linf_perturbation(trigger: &dyn Trigger, features: &[f32]) -> f32 {
    let mut poisoned = features.to_vec();
    trigger.apply(&mut poisoned);
    features
        .iter()
        .zip(&poisoned)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max)
}

/// l2 perturbation of the trigger on the given sample.
pub fn l2_perturbation(trigger: &dyn Trigger, features: &[f32]) -> f64 {
    let mut poisoned = features.to_vec();
    trigger.apply(&mut poisoned);
    collapois_stats::geometry::l2_distance(features, &poisoned)
}
