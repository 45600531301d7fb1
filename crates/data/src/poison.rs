//! Dataset poisoning: trigger stamping plus target-class relabelling.
//!
//! Algorithm 1 line 3: the attacker embeds the Trojan into samples of the
//! auxiliary data and flips their labels to the target class, producing
//! `D_a^Troj`; the Trojaned model X is then trained on `D_a ∪ D_a^Troj`
//! (Eq. 1). The paper designates class 0 as the target.

use crate::sample::Dataset;
use crate::trigger::Trigger;
use rand::seq::SliceRandom;
use rand::Rng;

/// Returns a poisoned copy of every sample: trigger stamped, label set to
/// `target_class`.
///
/// # Panics
///
/// Panics if `target_class` is out of range for the dataset.
pub fn poison_all(ds: &Dataset, trigger: &dyn Trigger, target_class: usize) -> Dataset {
    assert!(target_class < ds.num_classes(), "target class out of range");
    let mut out = ds.clone();
    for i in 0..out.len() {
        trigger.apply(out.features_of_mut(i));
        out.set_label(i, target_class);
    }
    out
}

/// Returns `(clean ∪ poisoned)` where a random `fraction` of samples are
/// duplicated in poisoned form — the `D ∪ D^Troj` training set of Eq. 1 and
/// of the DPois baseline.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]` or `target_class` out of range.
pub fn with_poisoned_fraction<R: Rng + ?Sized>(
    rng: &mut R,
    ds: &Dataset,
    trigger: &dyn Trigger,
    target_class: usize,
    fraction: f64,
) -> Dataset {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    assert!(target_class < ds.num_classes(), "target class out of range");
    let mut out = ds.clone();
    // A compromised client must stay compromised: on tiny non-IID shards
    // `round(len * fraction)` can hit 0 even for `fraction > 0`, silently
    // turning the client benign and corrupting its per-client ASR.
    let n_poison = if fraction > 0.0 && !ds.is_empty() {
        ((ds.len() as f64 * fraction).round() as usize).max(1)
    } else {
        0
    };
    let mut idx: Vec<usize> = (0..ds.len()).collect();
    idx.shuffle(rng);
    for &i in idx.iter().take(n_poison) {
        let mut features = ds.features_of(i).to_vec();
        trigger.apply(&mut features);
        out.push(&features, target_class);
    }
    out
}

/// Returns a copy with every label `y` flipped to `classes − 1 − y` — the
/// classic untargeted label-flipping Byzantine attack (no trigger, features
/// untouched). With two classes this is a full label inversion; with more
/// it is the `0→9, 1→8, …` permutation of the standard formulation.
pub fn flip_labels(ds: &Dataset) -> Dataset {
    let mut out = ds.clone();
    let classes = out.num_classes();
    for i in 0..out.len() {
        out.set_label(i, classes - 1 - out.label_of(i));
    }
    out
}

/// Stamps the trigger onto every sample of a copy of `ds` **without**
/// relabelling — the inference-time transformation used to measure Attack
/// SR (`x + T` in the paper's metric), keeping the true labels for
/// book-keeping.
pub fn stamp_only(ds: &Dataset, trigger: &dyn Trigger) -> Dataset {
    let mut out = ds.clone();
    for i in 0..out.len() {
        trigger.apply(out.features_of_mut(i));
    }
    out
}

/// How a backdoor is *measured*: the transformation from a clean evaluation
/// set to the set of samples whose prediction is checked against the target
/// class.
///
/// Trigger-stamped backdoors implement this by stamping the trigger onto
/// every sample ([`stamp_only`]); semantic backdoors select the natural
/// feature-space region they relabelled, with features untouched. Attack SR
/// is then uniformly "fraction of the eval set predicted as the target
/// class", and an empty eval set reads as SR 0.
pub trait BackdoorEval: std::fmt::Debug + Send + Sync {
    /// Builds the backdoored evaluation set from `ds`. May be empty (e.g. a
    /// semantic region that no sample of `ds` falls into).
    fn eval_set(&self, ds: &Dataset) -> Dataset;
}

/// Every sized trigger measures its backdoor by stamping itself onto the
/// whole eval set.
impl<T: Trigger> BackdoorEval for T {
    fn eval_set(&self, ds: &Dataset) -> Dataset {
        stamp_only(ds, self)
    }
}

/// Adapter lending `&dyn Trigger` as a [`BackdoorEval`] (the blanket impl
/// needs a sized type, so trait objects wrap themselves in this).
#[derive(Debug, Clone, Copy)]
pub struct TriggerBackdoor<'a>(pub &'a dyn Trigger);

impl BackdoorEval for TriggerBackdoor<'_> {
    fn eval_set(&self, ds: &Dataset) -> Dataset {
        stamp_only(ds, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::PatchTrigger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let mut ds = Dataset::empty(&[1, 4, 4], 3);
        for i in 0..12 {
            ds.push(&[0.5; 16], i % 3);
        }
        ds
    }

    #[test]
    fn poison_all_relabels_and_stamps() {
        let ds = toy();
        let trigger = PatchTrigger::badnets(4);
        let p = poison_all(&ds, &trigger, 0);
        assert_eq!(p.len(), ds.len());
        for i in 0..p.len() {
            assert_eq!(p.label_of(i), 0);
            assert!(p.features_of(i).contains(&1.0), "trigger missing");
        }
        // Original untouched.
        assert!(ds.features_of(0).iter().all(|&v| v == 0.5));
    }

    #[test]
    fn fraction_appends_poisoned_duplicates() {
        let ds = toy();
        let trigger = PatchTrigger::badnets(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mixed = with_poisoned_fraction(&mut rng, &ds, &trigger, 0, 0.5);
        assert_eq!(mixed.len(), 18); // 12 clean + 6 poisoned
        let poisoned = (0..mixed.len())
            .filter(|&i| mixed.features_of(i).contains(&1.0))
            .count();
        assert_eq!(poisoned, 6);
    }

    #[test]
    fn tiny_shard_still_poisons_at_least_one_sample() {
        // round(3 * 0.1) == 0 — the pre-fix code left the shard clean.
        let mut ds = Dataset::empty(&[1, 4, 4], 3);
        for i in 0..3 {
            ds.push(&[0.5; 16], i);
        }
        let trigger = PatchTrigger::badnets(4);
        let mut rng = StdRng::seed_from_u64(7);
        let mixed = with_poisoned_fraction(&mut rng, &ds, &trigger, 0, 0.1);
        assert_eq!(mixed.len(), 4, "one poisoned duplicate appended");
        // fraction == 0 still poisons nothing.
        let mut rng = StdRng::seed_from_u64(7);
        let clean = with_poisoned_fraction(&mut rng, &ds, &trigger, 0, 0.0);
        assert_eq!(clean.len(), 3);
        // …and an empty dataset stays empty.
        let empty = Dataset::empty(&[1, 4, 4], 3);
        let mut rng = StdRng::seed_from_u64(7);
        let still_empty = with_poisoned_fraction(&mut rng, &empty, &trigger, 0, 0.9);
        assert!(still_empty.is_empty());
    }

    #[test]
    fn trigger_backdoor_eval_matches_stamp_only() {
        let ds = toy();
        let trigger = PatchTrigger::badnets(4);
        let direct = stamp_only(&ds, &trigger);
        let via_sized: Dataset = BackdoorEval::eval_set(&trigger, &ds);
        let dyn_trigger: &dyn Trigger = &trigger;
        let via_wrapper = TriggerBackdoor(dyn_trigger).eval_set(&ds);
        for i in 0..ds.len() {
            assert_eq!(direct.features_of(i), via_sized.features_of(i));
            assert_eq!(direct.features_of(i), via_wrapper.features_of(i));
            assert_eq!(direct.label_of(i), via_wrapper.label_of(i));
        }
    }

    #[test]
    fn stamp_only_keeps_labels() {
        let ds = toy();
        let trigger = PatchTrigger::badnets(4);
        let stamped = stamp_only(&ds, &trigger);
        for i in 0..ds.len() {
            assert_eq!(stamped.label_of(i), ds.label_of(i));
            assert!(stamped.features_of(i).contains(&1.0));
        }
    }

    #[test]
    fn flip_labels_is_an_involution() {
        let ds = toy();
        let flipped = flip_labels(&ds);
        assert_eq!(flipped.len(), ds.len());
        for i in 0..ds.len() {
            assert_eq!(flipped.label_of(i), 2 - ds.label_of(i));
            assert_eq!(flipped.features_of(i), ds.features_of(i));
        }
        let back = flip_labels(&flipped);
        for i in 0..ds.len() {
            assert_eq!(back.label_of(i), ds.label_of(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        let ds = toy();
        let trigger = PatchTrigger::badnets(4);
        let _ = poison_all(&ds, &trigger, 5);
    }
}
