//! Lazy resident client shards — the data side of the paper-scale cohort
//! engine.
//!
//! A *shard* is one client's [`ClientData`], generated on first touch as a
//! pure function of `(seed, client_id)` through the dedicated
//! [`Domain::Shard`](collapois_runtime::seed::Domain) RNG stream: the
//! client draws its own Dirichlet(α) label mix, renders
//! `samples_per_client` samples from the resident class prototypes, and
//! splits them 70/15/15 — all from a stream that depends on nothing but the
//! seed and the client id. Because the stream never depends on *when* (or
//! whether) the shard was previously materialized, laziness is
//! bitwise-invisible: generating a shard on demand, evicting it under
//! memory pressure and regenerating it later always reproduces the same
//! bytes as materializing every client eagerly up front.
//!
//! [`ResidentShards`] keeps generated shards resident across rounds in
//! sharded maps behind an LRU byte budget, so a cohort-sampling round
//! touches only the sampled shards and a 5 000-client run fits a fixed
//! bytes-per-client envelope. The cache-hit path is allocation-free (one
//! map lock, one `HashMap` lookup, one `Arc` clone). A render also records
//! the client's per-class label counts in a slot eviction never clears, so
//! Eq. 9 reads them without the shard.

use crate::federated::ClientData;
use crate::sample::Dataset;
use crate::synthetic::{SyntheticImage, SyntheticText};
use collapois_runtime::seed::shard_rng;
use collapois_stats::distribution::Dirichlet;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Resident per-class generator state shared by every shard: the image
/// prototypes or text cluster centers. Held once per run regardless of
/// client count.
#[derive(Debug, Clone)]
pub enum ShardSource {
    /// FEMNIST-sim prototypes ([`SyntheticImage`]).
    Image(SyntheticImage),
    /// Sentiment-sim cluster centers ([`SyntheticText`]).
    Text(SyntheticText),
}

impl ShardSource {
    /// Shape of one sample.
    pub fn sample_shape(&self) -> Vec<usize> {
        match self {
            Self::Image(g) => {
                let s = g.config().side;
                vec![1, s, s]
            }
            Self::Text(g) => vec![g.config().dim],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        match self {
            Self::Image(g) => g.config().classes,
            Self::Text(g) => g.config().classes,
        }
    }

    fn render<R: Rng + ?Sized>(&self, rng: &mut R, class: usize, out: &mut [f32]) {
        match self {
            Self::Image(g) => g.render_sample(rng, class, out),
            Self::Text(g) => g.render_sample(rng, class, out),
        }
    }
}

impl PartialEq for ShardSource {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Image(a), Self::Image(b)) => a.config() == b.config(),
            (Self::Text(a), Self::Text(b)) => a.config() == b.config(),
            _ => false,
        }
    }
}

/// Everything needed to generate any client's shard: the resident source
/// plus the per-client recipe. Two equal specs generate bit-identical
/// shards for every client id.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    source: ShardSource,
    samples_per_client: usize,
    alpha: f64,
    train_frac: f64,
    test_frac: f64,
    seed: u64,
}

impl ShardSpec {
    /// Creates a spec with the paper's 70/15/15 split.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_client == 0` or `alpha <= 0`.
    pub fn new(source: ShardSource, samples_per_client: usize, alpha: f64, seed: u64) -> Self {
        assert!(
            samples_per_client > 0,
            "samples_per_client must be positive"
        );
        assert!(alpha > 0.0, "alpha must be positive");
        Self {
            source,
            samples_per_client,
            alpha,
            train_frac: 0.7,
            test_frac: 0.15,
            seed,
        }
    }

    /// The resident generator state.
    pub fn source(&self) -> &ShardSource {
        &self.source
    }

    /// The Dirichlet concentration each client's label mix is drawn with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Samples every client's shard holds.
    pub fn samples_per_client(&self) -> usize {
        self.samples_per_client
    }

    /// Generates client `client_id`'s shard from scratch.
    ///
    /// Pure in `(self, client_id)`: the RNG stream is
    /// [`shard_rng`]`(seed, client_id)` and nothing else, so repeated calls
    /// — in any order, from any thread, after any number of evictions —
    /// return identical data.
    pub fn generate_client(&self, client_id: usize) -> ClientData {
        let mut rng = shard_rng(self.seed, client_id);
        let classes = self.source.num_classes();
        // The client's own label mix — the same symmetric-Dirichlet skew
        // `dirichlet_partition` applies to a pooled dataset, drawn per
        // client instead of per population.
        let dir = Dirichlet::symmetric(self.alpha, classes.max(2)).expect("validated parameters");
        let mut mix = dir.sample(&mut rng);
        mix.truncate(classes);
        let total: f64 = mix.iter().map(|w| w.max(1e-12)).sum();
        let mut cdf = Vec::with_capacity(classes);
        let mut acc = 0.0;
        for w in &mix {
            acc += w.max(1e-12) / total;
            cdf.push(acc);
        }

        // Rendered in place into buffers sized for the whole shard; `split`
        // then copies each split into buffers of exactly its size.
        let shape = self.source.sample_shape();
        let per: usize = shape.iter().product();
        let mut features = vec![0.0f32; self.samples_per_client * per];
        let mut labels = Vec::with_capacity(self.samples_per_client);
        for sample in features.chunks_exact_mut(per) {
            let u: f64 = rng.gen_range(0.0..1.0);
            let class = cdf.partition_point(|&c| c < u).min(classes - 1);
            self.source.render(&mut rng, class, sample);
            labels.push(class);
        }
        let ds = Dataset::from_parts(features, labels, &shape, classes);
        let (train, test, val) = ds.split(&mut rng, self.train_frac, self.test_frac);
        ClientData { train, test, val }
    }
}

/// Point-in-time counters of a [`ResidentShards`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Bytes currently held by resident shards.
    pub resident_bytes: usize,
    /// The LRU byte budget residency is kept under.
    pub budget_bytes: usize,
    /// Lookups served from a resident shard.
    pub hits: u64,
    /// Lookups that generated the shard.
    pub misses: u64,
    /// Shards evicted to stay under budget.
    pub evictions: u64,
}

/// The map-shard count: lookups for different clients contend only when
/// their ids collide modulo this.
const MAP_SHARDS: usize = 16;

/// Lazily generated client shards, kept resident across rounds under an
/// LRU byte budget.
///
/// The budget counts each shard's [`ClientData::heap_bytes`], which is
/// buffer capacity. Every split is built at its exact size, so that equals
/// the bytes of the samples, labels and shapes: a 30-sample 12×12 shard
/// costs 17,592 B, and 64 MiB holds 3,814 of them.
///
/// Lookups are served from `MAP_SHARDS` independently locked maps; a miss
/// generates the shard under its map's lock (so concurrent requests for
/// the same client wait for one generation instead of duplicating it)
/// while the other maps stay serviceable. After an insert pushes residency
/// over budget, the globally least-recently-touched shard is evicted —
/// never the one just requested — until the budget holds again.
///
/// Each client's first render also fills its label-count memo (read by
/// [`FederatedDataset::label_counts`](crate::federated::FederatedDataset::label_counts));
/// eviction drops the shard but keeps the memo, which costs
/// `num_clients × num_classes` counts outside the byte budget.
pub struct ResidentShards {
    spec: ShardSpec,
    num_clients: usize,
    budget_bytes: usize,
    maps: Vec<Mutex<HashMap<usize, Entry>>>,
    label_counts: Vec<OnceLock<Box<[usize]>>>,
    clock: AtomicU64,
    resident_bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct Entry {
    data: Arc<ClientData>,
    bytes: usize,
    last_touch: u64,
}

impl ResidentShards {
    /// Creates an empty store for `num_clients` clients under
    /// `budget_bytes` of resident shard data.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0` or `budget_bytes == 0`.
    pub fn new(spec: ShardSpec, num_clients: usize, budget_bytes: usize) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(budget_bytes > 0, "budget must be positive");
        Self {
            spec,
            num_clients,
            budget_bytes,
            maps: (0..MAP_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            label_counts: (0..num_clients).map(|_| OnceLock::new()).collect(),
            clock: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The generation recipe.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of clients this store serves.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Client `id`'s shard: resident if touched recently, regenerated from
    /// the derived RNG stream otherwise. Either way the returned data is
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clients`.
    pub fn get(&self, id: usize) -> Arc<ClientData> {
        assert!(id < self.num_clients, "client {id} out of bounds");
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let data = {
            let mut map = self.maps[id % MAP_SHARDS]
                .lock()
                .expect("shard map poisoned");
            if let Some(e) = map.get_mut(&id) {
                e.last_touch = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.data);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let data = Arc::new(self.spec.generate_client(id));
            self.label_counts[id].get_or_init(|| data.label_counts().into_boxed_slice());
            let bytes = data.heap_bytes();
            self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
            map.insert(
                id,
                Entry {
                    data: Arc::clone(&data),
                    bytes,
                    last_touch: now,
                },
            );
            data
        };
        self.evict_over_budget(id);
        data
    }

    /// Client `id`'s per-class label counts over its three splits, from
    /// the memo its first render filled. Renders the shard only if it was
    /// never rendered.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clients`.
    pub(crate) fn label_counts(&self, id: usize) -> &[usize] {
        if self.label_counts[id].get().is_none() {
            self.get(id);
        }
        self.label_counts[id]
            .get()
            .expect("a render fills the memo")
    }

    /// Current counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Evicts least-recently-touched shards (never `protected`) until the
    /// budget holds. Map locks are taken one at a time, so this cannot
    /// deadlock against concurrent lookups.
    fn evict_over_budget(&self, protected: usize) {
        while self.resident_bytes.load(Ordering::Relaxed) > self.budget_bytes {
            let mut victim: Option<(usize, u64)> = None;
            for m in &self.maps {
                let map = m.lock().expect("shard map poisoned");
                for (&cid, e) in map.iter() {
                    if cid == protected {
                        continue;
                    }
                    if victim.is_none_or(|(_, t)| e.last_touch < t) {
                        victim = Some((cid, e.last_touch));
                    }
                }
            }
            // Only the protected shard is resident: the budget cannot be
            // met without evicting the data the caller is about to use.
            let Some((cid, touch)) = victim else { return };
            let mut map = self.maps[cid % MAP_SHARDS]
                .lock()
                .expect("shard map poisoned");
            // A racing lookup may have refreshed (or a racing eviction
            // removed) the victim since it was chosen; rescan if so.
            if let Some(e) = map.get(&cid) {
                if e.last_touch == touch {
                    let e = map.remove(&cid).expect("checked present");
                    self.resident_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl std::fmt::Debug for ResidentShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ResidentShards")
            .field("num_clients", &self.num_clients)
            .field("resident_bytes", &s.resident_bytes)
            .field("budget_bytes", &s.budget_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticImageConfig, SyntheticTextConfig};

    fn image_gen(seed: u64, samples: usize) -> SyntheticImage {
        SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 4,
            samples,
            noise: 0.05,
            max_shift: 1,
            seed,
        })
    }

    fn text_gen(seed: u64, samples: usize) -> SyntheticText {
        SyntheticText::new(SyntheticTextConfig {
            dim: 16,
            classes: 2,
            clusters_per_class: 3,
            samples,
            noise: 0.6,
            seed,
        })
    }

    // Per-client rendering ignores the generators' `samples` (which must
    // be positive).
    fn image_spec(seed: u64) -> ShardSpec {
        ShardSpec::new(ShardSource::Image(image_gen(seed, 1)), 24, 0.5, seed)
    }

    fn text_spec(seed: u64) -> ShardSpec {
        ShardSpec::new(ShardSource::Text(text_gen(seed, 1)), 24, 0.5, seed)
    }

    /// The bytes of a shard's samples, labels and shape vectors: what its
    /// `heap_bytes` counts when no split carries capacity slack.
    fn data_bytes(c: &ClientData) -> usize {
        let sample = |ds: &Dataset| {
            ds.feature_len() * std::mem::size_of::<f32>() + std::mem::size_of::<usize>()
        };
        [&c.train, &c.test, &c.val]
            .iter()
            .map(|ds| ds.len() * sample(ds) + std::mem::size_of_val(ds.sample_shape()))
            .sum()
    }

    /// `generate_client` over the per-value reference renderers, which
    /// draw one polar variate inside each value's step.
    fn generate_client_reference(spec: &ShardSpec, client_id: usize) -> ClientData {
        let mut rng = shard_rng(spec.seed, client_id);
        let classes = spec.source.num_classes();
        let dir = Dirichlet::symmetric(spec.alpha, classes.max(2)).expect("validated parameters");
        let mut mix = dir.sample(&mut rng);
        mix.truncate(classes);
        let total: f64 = mix.iter().map(|w| w.max(1e-12)).sum();
        let mut cdf = Vec::with_capacity(classes);
        let mut acc = 0.0;
        for w in &mix {
            acc += w.max(1e-12) / total;
            cdf.push(acc);
        }
        let shape = spec.source.sample_shape();
        let per: usize = shape.iter().product();
        let mut features = vec![0.0f32; spec.samples_per_client * per];
        let mut labels = Vec::with_capacity(spec.samples_per_client);
        for sample in features.chunks_exact_mut(per) {
            let u: f64 = rng.gen_range(0.0..1.0);
            let class = cdf.partition_point(|&c| c < u).min(classes - 1);
            match &spec.source {
                ShardSource::Image(g) => g.render_sample_reference(&mut rng, class, sample),
                ShardSource::Text(g) => g.render_sample_reference(&mut rng, class, sample),
            }
            labels.push(class);
        }
        let ds = Dataset::from_parts(features, labels, &shape, classes);
        let (train, test, val) = ds.split(&mut rng, spec.train_frac, spec.test_frac);
        ClientData { train, test, val }
    }

    fn assert_bitwise(got: &Dataset, want: &Dataset, what: &str) {
        assert_eq!(got.sample_shape(), want.sample_shape(), "{what}: shape");
        assert_eq!(got.labels(), want.labels(), "{what}: labels");
        for i in 0..want.len() {
            let bits = |ds: &Dataset| -> Vec<u32> {
                ds.features_of(i).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: sample {i}");
        }
    }

    #[test]
    fn block_rendering_matches_the_per_value_reference_bitwise() {
        let mut sources = Vec::new();
        for side in [4, 12, 28] {
            for max_shift in [0, 1, 2] {
                for noise in [0.0, 0.05] {
                    let cfg = SyntheticImageConfig {
                        side,
                        classes: 4,
                        samples: 9,
                        noise,
                        max_shift,
                        seed: side as u64 * 10 + max_shift as u64,
                    };
                    sources.push(ShardSource::Image(SyntheticImage::new(cfg)));
                }
            }
        }
        for dim in [16, 32] {
            for noise in [0.0, 0.05] {
                let cfg = SyntheticTextConfig {
                    dim,
                    classes: 2,
                    clusters_per_class: 3,
                    samples: 9,
                    noise,
                    seed: dim as u64,
                };
                sources.push(ShardSource::Text(SyntheticText::new(cfg)));
            }
        }
        for source in sources {
            let (what, pooled, reference) = match &source {
                ShardSource::Image(g) => (
                    format!("{:?}", g.config()),
                    g.generate(),
                    g.generate_reference(),
                ),
                ShardSource::Text(g) => (
                    format!("{:?}", g.config()),
                    g.generate(),
                    g.generate_reference(),
                ),
            };
            assert_bitwise(&pooled, &reference, &format!("generate {what}"));
            let spec = ShardSpec::new(source, 12, 0.5, 5);
            for id in 0..3 {
                let got = spec.generate_client(id);
                let want = generate_client_reference(&spec, id);
                for (split, g, w) in [
                    ("train", &got.train, &want.train),
                    ("test", &got.test, &want.test),
                    ("val", &got.val, &want.val),
                ] {
                    assert_bitwise(g, w, &format!("client {id} {split} {what}"));
                }
            }
        }
    }

    #[test]
    fn shards_carry_no_capacity_slack() {
        use crate::federated::FederatedDataset;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let cases = [
            ("image", image_spec(2), image_gen(2, 150).generate()),
            ("text", text_spec(2), text_gen(2, 150).generate()),
        ];
        for (name, spec, pooled) in cases {
            let store = ResidentShards::new(spec.clone(), 6, 1 << 20);
            let eager = FederatedDataset::eager_from_shards(&spec, 6);
            let built = FederatedDataset::build(&mut StdRng::seed_from_u64(2), &pooled, 6, 0.5);
            for id in 0..6 {
                for (path, c) in [
                    ("ResidentShards::get", store.get(id)),
                    ("eager_from_shards", eager.client(id)),
                    ("build", built.client(id)),
                ] {
                    assert_eq!(
                        c.heap_bytes(),
                        data_bytes(&c),
                        "{name} client {id} via {path}: capacity slack"
                    );
                }
            }
        }
    }

    #[test]
    fn a_budget_of_k_shards_holds_k_shards_without_evicting() {
        const K: usize = 5;
        for spec in [image_spec(3), text_spec(3)] {
            let budget = K * data_bytes(&spec.generate_client(0));
            let store = ResidentShards::new(spec, 2 * K, budget);
            for id in 0..K {
                let _ = store.get(id);
            }
            let s = store.stats();
            assert_eq!((s.misses, s.evictions), (K as u64, 0), "{s:?}");
            assert_eq!(s.resident_bytes, budget);
            // One shard more costs exactly one eviction.
            let _ = store.get(K);
            assert_eq!(store.stats().evictions, 1);
        }
    }

    #[test]
    fn generation_is_pure_per_client() {
        for spec in [image_spec(7), text_spec(7)] {
            let a = spec.generate_client(11);
            let b = spec.generate_client(11);
            assert_eq!(a, b, "same client twice");
            assert_ne!(a, spec.generate_client(12), "distinct clients");
        }
    }

    #[test]
    fn shards_split_per_the_paper() {
        let c = image_spec(3).generate_client(0);
        assert_eq!(c.len(), 24);
        assert_eq!(c.train.len(), 17); // round(24 * 0.7)
        assert_eq!(c.test.len(), 4); // round(24 * 0.15)
        assert_eq!(c.val.len(), 3);
    }

    #[test]
    fn lazy_store_matches_direct_generation() {
        let store = ResidentShards::new(image_spec(9), 32, 1 << 20);
        // Scrambled access order, with repeats.
        for id in [5, 0, 31, 5, 17, 0, 8] {
            assert_eq!(*store.get(id), image_spec(9).generate_client(id));
        }
        let s = store.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 5);
    }

    #[test]
    fn eviction_keeps_residency_under_budget_and_stays_bitwise_invisible() {
        let spec = image_spec(4);
        let one_shard = Arc::new(spec.generate_client(0)).heap_bytes();
        // Budget for roughly three shards: touching 16 must evict.
        let store = ResidentShards::new(spec.clone(), 16, 3 * one_shard + 1);
        for id in 0..16 {
            let _ = store.get(id);
            assert!(
                store.stats().resident_bytes <= store.stats().budget_bytes,
                "over budget after touching client {id}"
            );
        }
        let s = store.stats();
        assert!(s.evictions >= 12, "expected evictions, got {}", s.evictions);
        // Regenerated-after-eviction shards are identical to fresh ones.
        assert_eq!(*store.get(0), spec.generate_client(0));
    }

    #[test]
    fn label_counts_survive_eviction_without_a_render() {
        let spec = image_spec(8);
        let one_shard = Arc::new(spec.generate_client(0)).heap_bytes();
        let store = ResidentShards::new(spec.clone(), 8, 2 * one_shard + 1);
        // Never rendered: the memo renders it once.
        assert_eq!(
            store.label_counts(3),
            spec.generate_client(3).label_counts()
        );
        assert_eq!(store.stats().misses, 1);
        for id in 0..8 {
            let _ = store.get(id);
        }
        let before = store.stats();
        assert!(before.evictions > 0, "the budget must evict");
        for id in 0..8 {
            assert_eq!(
                store.label_counts(id),
                spec.generate_client(id).label_counts()
            );
        }
        assert_eq!(store.stats(), before, "memo reads touch no shard");
    }

    #[test]
    fn lru_keeps_the_recently_touched_shard() {
        let spec = image_spec(5);
        let one_shard = Arc::new(spec.generate_client(0)).heap_bytes();
        let store = ResidentShards::new(spec, 8, 2 * one_shard + 1);
        let _ = store.get(0);
        let _ = store.get(1);
        let _ = store.get(0); // refresh 0: client 1 is now the LRU
        let _ = store.get(2); // evicts 1
        let before = store.stats();
        let _ = store.get(0);
        assert_eq!(
            store.stats().hits,
            before.hits + 1,
            "client 0 stayed resident"
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let spec = image_spec(6);
        let store = Arc::new(ResidentShards::new(spec.clone(), 64, 1 << 30));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                let spec = spec.clone();
                std::thread::spawn(move || {
                    for i in 0..64 {
                        let id = (i * 7 + t * 13) % 64;
                        assert_eq!(*store.get(id), spec.generate_client(id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats().hits + store.stats().misses, 256);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_range_client() {
        let store = ResidentShards::new(image_spec(1), 4, 1 << 20);
        let _ = store.get(4);
    }
}
