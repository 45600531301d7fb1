//! Baseline attacks the paper compares CollaPois against (§II-B, §V), and
//! the grid's label-flip and semantic rows.
//!
//! All five are one adversary, [`PoisonedTraining`]: each compromised
//! client keeps a poisoned copy of its own training data and, whenever it
//! is sampled, trains the global model on that copy and submits the
//! delta. Such attacks must train on poisoned data every round (the
//! paper's *Efficiency* argument), and because each local Trojaned model
//! depends on its client's own non-IID data, the malicious deltas scatter
//! just like benign ones (Fig. 3b) — the weakness CollaPois removes. The
//! attacks differ only in how a client's copy is poisoned, and MRepl in a
//! boost:
//!
//! * [`DPois`], classical data poisoning [Suciu et al. 2018; Li et al.
//!   2016], adds trigger-stamped copies of a fraction of the samples,
//!   relabelled to the target class.
//! * [`DbaAttack`], the distributed backdoor attack [Xie et al., ICLR
//!   2020], does the same with sub-pattern `k mod 4` of the decomposed
//!   trigger for the `k`-th compromised client; the attacker stamps the
//!   *composed* pattern at inference.
//! * [`MRepl`], model replacement [Bagdasaryan et al., AISTATS 2020],
//!   poisons like DPois and submits `boost · (X_local − θ^t)`, with
//!   `boost ≈ |S_t| / (λ·m)`, so that averaging (approximately) replaces
//!   the global model in one round: the abrupt utility shifts the paper
//!   uses to tell MRepl apart from CollaPois (Fig. 13).
//! * [`LabelFlip`], the classic untargeted Byzantine baseline [Biggio et
//!   al. 2012; Fang et al. 2020], flips every label `y` to
//!   `classes − 1 − y`. It carries no trigger: its goal is indiscriminate
//!   accuracy damage, the canonical workload for Byzantine-robust
//!   aggregators.
//! * [`SemanticAttack`], the semantic backdoor [Bagdasaryan et al.,
//!   AISTATS 2020's "green cars"], relabels the source-class samples
//!   inside the attacker's fitted [`SemanticRegion`] to the target class.
//!   No feature is perturbed, so trigger detectors have nothing to find,
//!   and Attack SR is measured on *clean* in-region test samples.

use collapois_data::poison::{flip_labels, with_poisoned_fraction};
use collapois_data::sample::Dataset;
use collapois_data::semantic::SemanticRegion;
use collapois_data::trigger::{DbaTrigger, Trigger};
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::optim::Sgd;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::marker::PhantomData;

/// Hyper-parameters of the local training a baseline's compromised client
/// runs every round it is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTrainConfig {
    /// Minibatch-SGD steps per round.
    pub steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        Self {
            steps: 4,
            batch_size: 16,
            lr: 0.05,
        }
    }
}

/// Zero-variant markers, one per baseline, that name a
/// [`PoisonedTraining`] adversary.
pub mod kind {
    /// A baseline's short name for report tables.
    pub trait Kind: std::fmt::Debug {
        /// What `Adversary::name` returns.
        const NAME: &'static str;
    }

    /// Names [`DPois`](super::DPois).
    #[derive(Debug)]
    pub enum DPois {}
    /// Names [`DbaAttack`](super::DbaAttack).
    #[derive(Debug)]
    pub enum Dba {}
    /// Names [`MRepl`](super::MRepl).
    #[derive(Debug)]
    pub enum MRepl {}
    /// Names [`LabelFlip`](super::LabelFlip).
    #[derive(Debug)]
    pub enum LabelFlip {}
    /// Names [`SemanticAttack`](super::SemanticAttack).
    #[derive(Debug)]
    pub enum Semantic {}

    impl Kind for DPois {
        const NAME: &'static str = "dpois";
    }
    impl Kind for Dba {
        const NAME: &'static str = "dba";
    }
    impl Kind for MRepl {
        const NAME: &'static str = "mrepl";
    }
    impl Kind for LabelFlip {
        const NAME: &'static str = "label-flip";
    }
    impl Kind for Semantic {
        const NAME: &'static str = "semantic";
    }
}

/// The DPois adversary.
pub type DPois = PoisonedTraining<kind::DPois>;
/// The DBA adversary.
pub type DbaAttack = PoisonedTraining<kind::Dba>;
/// The MRepl adversary.
pub type MRepl = PoisonedTraining<kind::MRepl>;
/// The label-flipping adversary.
pub type LabelFlip = PoisonedTraining<kind::LabelFlip>;
/// The semantic-backdoor adversary.
pub type SemanticAttack = PoisonedTraining<kind::Semantic>;

/// The one baseline adversary: the `k`-th compromised client trains the
/// global model on `poisoned[k]` for `cfg.steps` minibatch-SGD steps and
/// submits the delta scaled by `boost` (1 except for MRepl). `K` names
/// the attack.
///
/// # Panics
///
/// Every constructor panics if `compromised` and `local_data` lengths
/// differ, the compromised set is empty, or any client's data is empty;
/// MRepl's also if `boost <= 0`.
#[derive(Debug)]
pub struct PoisonedTraining<K> {
    compromised: Vec<usize>,
    poisoned: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
    boost: f64,
    kind: PhantomData<K>,
}

impl<K> PoisonedTraining<K> {
    /// Checks the inputs, poisons the `k`-th client's data as
    /// `poison(rng, k, data)` on the stream seeded by `seed`, then builds
    /// the scratch model from the same stream.
    fn build(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        seed: u64,
        mut poison: impl FnMut(&mut StdRng, usize, &Dataset) -> Dataset,
    ) -> Self {
        assert_eq!(
            compromised.len(),
            local_data.len(),
            "one dataset per compromised client"
        );
        assert!(
            !compromised.is_empty(),
            "need at least one compromised client"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let poisoned = local_data
            .iter()
            .enumerate()
            .map(|(k, d)| {
                assert!(!d.is_empty(), "compromised client has no data");
                poison(&mut rng, k, d)
            })
            .collect();
        let scratch = ClientScratch::new(spec.build(&mut rng));
        Self {
            compromised,
            poisoned,
            scratch,
            cfg,
            boost: 1.0,
            kind: PhantomData,
        }
    }
}

impl DPois {
    /// Builds the adversary: each compromised client's training set is
    /// augmented with `poison_fraction` trigger-stamped samples relabelled
    /// to `target_class`. Panics on the inputs [`PoisonedTraining`] lists.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's attack parameterization
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &dyn Trigger,
        target_class: usize,
        poison_fraction: f64,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        seed: u64,
    ) -> Self {
        Self::build(compromised, local_data, spec, cfg, seed, |rng, _, d| {
            with_poisoned_fraction(rng, d, trigger, target_class, poison_fraction)
        })
    }
}

impl DbaAttack {
    /// Builds the adversary: compromised client `k` (by position) poisons
    /// with sub-pattern `k mod 4` of `trigger`. Panics on the inputs
    /// [`PoisonedTraining`] lists.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's attack parameterization
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &DbaTrigger,
        target_class: usize,
        poison_fraction: f64,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        seed: u64,
    ) -> Self {
        Self::build(compromised, local_data, spec, cfg, seed, |rng, k, d| {
            with_poisoned_fraction(rng, d, trigger.part(k), target_class, poison_fraction)
        })
    }
}

impl MRepl {
    /// Builds the adversary. `boost` is the replacement scaling factor
    /// (`expected sampled clients / (server_lr · expected malicious)` for
    /// full replacement). Panics on the inputs [`PoisonedTraining`] lists.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &dyn Trigger,
        target_class: usize,
        poison_fraction: f64,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        boost: f64,
        seed: u64,
    ) -> Self {
        assert!(boost > 0.0, "boost must be positive");
        let adv = Self::build(compromised, local_data, spec, cfg, seed, |rng, _, d| {
            with_poisoned_fraction(rng, d, trigger, target_class, poison_fraction)
        });
        Self { boost, ..adv }
    }
}

impl LabelFlip {
    /// Builds the adversary: each compromised client's training set is a
    /// fully label-flipped copy of its local data. Panics on the inputs
    /// [`PoisonedTraining`] lists.
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        seed: u64,
    ) -> Self {
        Self::build(compromised, local_data, spec, cfg, seed, |_, _, d| {
            flip_labels(d)
        })
    }
}

impl SemanticAttack {
    /// Builds the adversary: each compromised client's training set is its
    /// local shard with in-region source-class samples relabelled via
    /// [`SemanticRegion::relabel`]. Panics on the inputs
    /// [`PoisonedTraining`] lists.
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        region: &SemanticRegion,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        seed: u64,
    ) -> Self {
        Self::build(compromised, local_data, spec, cfg, seed, |_, _, d| {
            region.relabel(d).0
        })
    }
}

impl<K: kind::Kind> Adversary for PoisonedTraining<K> {
    fn compromised(&self) -> &[usize] {
        &self.compromised
    }

    /// Trains `θ_local` from `global` on the client's poisoned data through
    /// the persistent workspace and returns `boost · (θ_local − θ_global)`.
    fn craft_update(
        &mut self,
        client_id: usize,
        global: &[f32],
        _round: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let k = self
            .compromised
            .iter()
            .position(|&c| c == client_id)
            .unwrap_or_else(|| panic!("client {client_id} is not compromised"));
        let scratch = &mut self.scratch;
        scratch.model.set_params(global);
        let mut opt = Sgd::new(self.cfg.lr);
        for _ in 0..self.cfg.steps {
            scratch.train_step(rng, &self.poisoned[k], self.cfg.batch_size, &mut opt);
        }
        scratch.store_delta(global);
        let mut delta = std::mem::take(&mut scratch.delta);
        let boost = self.boost as f32;
        for d in &mut delta {
            *d *= boost;
        }
        delta
    }

    fn name(&self) -> &'static str {
        K::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;
    use collapois_runtime::checkpoint::{fnv1a, fnv1a_extend};
    use collapois_stats::geometry::l2_norm;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Client `id`'s local data: 60 noisy 8×8 images of three classes.
    fn local_data(id: usize) -> Dataset {
        SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            seed: id as u64,
            ..Default::default()
        })
        .generate()
    }

    fn data(ids: &[usize]) -> Vec<Dataset> {
        ids.iter().map(|&c| local_data(c)).collect()
    }

    fn spec() -> ModelSpec {
        ModelSpec::mlp(64, &[16], 3)
    }

    /// The global model every update is crafted against.
    fn global() -> Vec<f32> {
        spec()
            .build(&mut StdRng::seed_from_u64(2))
            .params()
            .to_vec()
    }

    fn dpois() -> DPois {
        let trigger = PatchTrigger::badnets(8);
        let cfg = LocalTrainConfig::default();
        DPois::new(
            vec![3, 8],
            &data(&[3, 8]),
            &trigger,
            0,
            0.5,
            &spec(),
            cfg,
            11,
        )
    }

    /// Three clients, so three sub-patterns.
    fn dba() -> DbaAttack {
        let trigger = DbaTrigger::new(8, 2, 1.0);
        let ids = [0, 4, 7];
        let cfg = LocalTrainConfig::default();
        DbaAttack::new(
            ids.to_vec(),
            &data(&ids),
            &trigger,
            0,
            0.5,
            &spec(),
            cfg,
            12,
        )
    }

    fn mrepl(boost: f64) -> MRepl {
        let trigger = PatchTrigger::badnets(8);
        let cfg = LocalTrainConfig::default();
        MRepl::new(
            vec![2, 6],
            &data(&[2, 6]),
            &trigger,
            0,
            0.5,
            &spec(),
            cfg,
            boost,
            13,
        )
    }

    fn label_flip() -> LabelFlip {
        LabelFlip::new(
            vec![5, 1],
            &data(&[5, 1]),
            &spec(),
            LocalTrainConfig::default(),
            14,
        )
    }

    /// Relabels in-region samples of class 1 to class 0.
    fn semantic() -> SemanticAttack {
        let region = SemanticRegion::fit(&local_data(0), 1, 0, 0.5, 7);
        let cfg = LocalTrainConfig::default();
        SemanticAttack::new(vec![3, 9], &data(&[3, 9]), &region, &spec(), cfg, 15)
    }

    /// One row per baseline, MRepl at boost 3.
    fn table() -> Vec<Box<dyn Adversary>> {
        vec![
            Box::new(dpois()),
            Box::new(dba()),
            Box::new(mrepl(3.0)),
            Box::new(label_flip()),
            Box::new(semantic()),
        ]
    }

    /// FNV-1a over `name()`, the bits of two updates crafted per
    /// compromised client (each from its own fixed seed, against one fixed
    /// global model), and `compromised()`.
    fn digest(adv: &mut dyn Adversary) -> u64 {
        let global = global();
        let ids = adv.compromised().to_vec();
        let mut h = fnv1a(adv.name().as_bytes());
        for round in 0..2 {
            for &c in &ids {
                let mut rng = StdRng::seed_from_u64((100 * round + c) as u64);
                for d in adv.craft_update(c, &global, round, &mut rng) {
                    h = fnv1a_extend(h, &d.to_bits().to_le_bytes());
                }
            }
        }
        for c in ids {
            h = fnv1a_extend(h, &(c as u64).to_le_bytes());
        }
        h
    }

    /// Each baseline's crafted updates, pinned per row. The digests were
    /// recorded while every baseline was still its own adversary type, so
    /// any bit that sharing one adversary moves shows here.
    #[test]
    fn every_baseline_reproduces_its_pinned_output() {
        const PINNED: [(&str, u64); 5] = [
            ("dpois", 0x8b875ac402038135),
            ("dba", 0x24a248b08743cb2a),
            ("mrepl", 0x091e661355e8f109),
            ("label-flip", 0xfaa02607f7111a03),
            ("semantic", 0xe8221dab3652bfcd),
        ];
        let got: Vec<(&str, u64)> = table()
            .iter_mut()
            .map(|adv| (adv.name(), digest(adv.as_mut())))
            .collect();
        assert_eq!(got, PINNED);
    }

    #[test]
    fn every_baseline_crafts_nonzero_updates_for_its_clients() {
        let global = global();
        for mut adv in table() {
            for c in adv.compromised().to_vec() {
                let delta = adv.craft_update(c, &global, 0, &mut StdRng::seed_from_u64(1));
                assert_eq!(delta.len(), global.len(), "{}", adv.name());
                assert!(delta.iter().any(|&d| d != 0.0), "{}", adv.name());
            }
        }
    }

    #[test]
    fn every_baseline_rejects_an_unknown_client() {
        for mut adv in table() {
            let crafted = catch_unwind(AssertUnwindSafe(|| {
                adv.craft_update(42, &[0.0; 10], 0, &mut StdRng::seed_from_u64(1))
            }));
            let message = crafted.expect_err("client 42 is not compromised");
            let message = message.downcast_ref::<String>().expect("formatted message");
            assert_eq!(message, "client 42 is not compromised");
        }
    }

    #[test]
    fn dba_clients_poison_with_their_own_subpattern() {
        let adv = dba();
        let trigger = DbaTrigger::new(8, 2, 1.0);
        for (k, (&c, poisoned)) in adv.compromised.iter().zip(&adv.poisoned).enumerate() {
            let clean = local_data(c).len();
            assert!(poisoned.len() > clean, "client {c} poisoned nothing");
            for i in clean..poisoned.len() {
                assert_eq!(poisoned.label_of(i), 0, "poisoned labels are the target");
                let x = poisoned.features_of(i);
                for part in 0..4 {
                    let mut stamped = x.to_vec();
                    trigger.part(part).apply(&mut stamped);
                    assert_eq!(stamped == x, part == k, "client {c}, sub-pattern {part}");
                }
            }
        }
    }

    #[test]
    fn mrepl_boost_scales_the_update() {
        let global = global();
        let craft = |boost: f64| {
            let delta = mrepl(boost).craft_update(2, &global, 0, &mut StdRng::seed_from_u64(1));
            l2_norm(&delta)
        };
        assert!((craft(10.0) / craft(1.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "boost must be positive")]
    fn mrepl_rejects_zero_boost() {
        let _ = mrepl(0.0);
    }

    #[test]
    fn semantic_attack_relabels_without_touching_features() {
        let adv = semantic();
        let mut flipped = 0;
        for (&c, poisoned) in adv.compromised.iter().zip(&adv.poisoned) {
            let clean = local_data(c);
            assert_eq!(poisoned.len(), clean.len());
            for i in 0..clean.len() {
                assert_eq!(poisoned.features_of(i), clean.features_of(i));
                if poisoned.label_of(i) != clean.label_of(i) {
                    assert_eq!((clean.label_of(i), poisoned.label_of(i)), (1, 0));
                    flipped += 1;
                }
            }
        }
        assert!(flipped > 0, "the fitted region must capture samples");
    }
}
