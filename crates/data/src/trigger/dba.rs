//! Distributed Backdoor Attack trigger decomposition [Xie et al., ICLR 2020].
//!
//! DBA splits a global trigger into `k` local sub-patterns; each compromised
//! client only ever poisons with *its own* sub-pattern during training,
//! while the attacker activates the backdoor at inference with the composed
//! global pattern. We use the canonical 4-way decomposition into corner
//! patches.

use super::patch::{Corner, PatchTrigger};
use super::Trigger;

/// The DBA trigger family: four corner sub-patterns plus their composition.
#[derive(Debug, Clone)]
pub struct DbaTrigger {
    parts: Vec<PatchTrigger>,
}

impl DbaTrigger {
    /// Builds the 4-part corner decomposition for `side`×`side` images with
    /// `patch`-sized sub-squares of intensity `value`.
    ///
    /// # Panics
    ///
    /// Panics if `patch == 0` or `2 * patch > side` (sub-patterns would
    /// overlap).
    pub fn new(side: usize, patch: usize, value: f32) -> Self {
        assert!(patch > 0, "patch must be positive");
        assert!(2 * patch <= side, "sub-patterns would overlap");
        let parts = vec![
            PatchTrigger::new(side, patch, value, Corner::TopLeft),
            PatchTrigger::new(side, patch, value, Corner::TopRight),
            PatchTrigger::new(side, patch, value, Corner::BottomLeft),
            PatchTrigger::new(side, patch, value, Corner::BottomRight),
        ];
        Self { parts }
    }

    /// The sub-pattern a given compromised client trains with.
    /// Clients are assigned round-robin: `client_index % 4`.
    pub fn part(&self, client_index: usize) -> &PatchTrigger {
        &self.parts[client_index % self.parts.len()]
    }
}

impl Trigger for DbaTrigger {
    /// Applying the DBA trigger itself stamps the **composed** global
    /// pattern (what the attacker uses at inference time).
    fn apply(&self, features: &mut [f32]) {
        for p in &self.parts {
            p.apply(features);
        }
    }

    fn name(&self) -> &str {
        "dba"
    }

    fn clone_box(&self) -> Box<dyn Trigger> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pattern_is_union_of_parts() {
        let dba = DbaTrigger::new(12, 2, 1.0);
        let mut full = vec![0.0f32; 144];
        dba.apply(&mut full);
        let mut union = vec![0.0f32; 144];
        for i in 0..4 {
            dba.part(i).apply(&mut union);
        }
        assert_eq!(full, union);
        assert_eq!(full.iter().filter(|&&v| v == 1.0).count(), 16);
    }

    #[test]
    fn parts_assigned_round_robin() {
        let dba = DbaTrigger::new(12, 2, 1.0);
        let mut a = vec![0.0f32; 144];
        let mut b = vec![0.0f32; 144];
        dba.part(0).apply(&mut a);
        dba.part(4).apply(&mut b);
        assert_eq!(a, b);
        let mut c = vec![0.0f32; 144];
        dba.part(1).apply(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rejects_overlapping_parts() {
        let _ = DbaTrigger::new(4, 3, 1.0);
    }
}
