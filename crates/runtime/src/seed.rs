//! Deterministic RNG stream derivation.
//!
//! Every source of randomness in a run is a pure function of
//! `(run_seed, domain, round, unit)`, where `domain` separates the
//! independent consumers (client training, adversary crafting, client
//! sampling, aggregation, evaluation) and `unit` identifies the client (or
//! is zero for round-global streams). Because no stream is ever shared
//! between clients, the execution schedule — sequential, or fanned over any
//! number of workers — cannot affect what any client draws, which is the
//! foundation of the engine's bit-for-bit determinism guarantee.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Independent randomness consumers within one run.
///
/// The discriminants are part of the checkpoint compatibility contract:
/// reordering them changes every derived stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Domain {
    /// Per-client local training (batch order, dropout, etc.).
    ClientTrain = 1,
    /// Per-compromised-client malicious update crafting.
    Adversary = 2,
    /// Round-level client sampling (unit = 0).
    Sampling = 3,
    /// Round-level aggregator randomness (unit = 0).
    Aggregation = 4,
    /// Evaluation-time randomness (held-out batch choice).
    Eval = 5,
    /// Round-level personalization setup (e.g. cluster initialization),
    /// consumed by `begin_round` hooks (unit = 0).
    RoundSetup = 6,
    /// Fault-injection decisions (client dropout, straggler delays, update
    /// corruption, checkpoint-write failures). Appended after the original
    /// six domains so enabling fault injection never shifts any previously
    /// derived stream.
    Fault = 7,
    /// Discrete-event simulator draws (arrival inter-times, virtual train
    /// durations, availability churn). The `round` coordinate carries a
    /// `(draw index, purpose)` pair packed by `sim::stream_key`, and `unit`
    /// is the virtual client id, so every draw is a pure function of its
    /// position in the client's own schedule — never of event-loop order or
    /// worker count. Appended after `Fault` so enabling simulation never
    /// shifts any previously derived stream.
    Sim = 8,
    /// Per-client data-shard generation for the lazy cohort engine. `round`
    /// is always 0 and `unit` is the client id, so a client's shard is a
    /// pure function of `(run_seed, client_id)` — which is what makes lazy
    /// materialization bitwise-invisible: generating a shard on first touch,
    /// evicting it, and regenerating it later always reproduces the same
    /// bytes. Appended after `Sim` so enabling lazy shards never shifts any
    /// previously derived stream.
    Shard = 9,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes `(run_seed, domain, round, unit)` into a single stream seed.
///
/// Each coordinate passes through a finalizer round so that adjacent
/// rounds/clients land in unrelated regions of seed space (a plain sum or
/// xor of small integers would make streams for neighbouring clients
/// trivially correlated under xoshiro's linear seeding).
pub fn mix(run_seed: u64, domain: Domain, round: u64, unit: u64) -> u64 {
    let mut h = finalize(run_seed ^ GOLDEN);
    h = finalize(h ^ (domain as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    h = finalize(h ^ round.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    finalize(h ^ unit.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// RNG stream for one `(run, round, client)` training job.
pub fn client_rng(run_seed: u64, round: u64, client_id: usize) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::ClientTrain, round, client_id as u64))
}

/// RNG stream for the adversary crafting client `client_id`'s update.
pub fn adversary_rng(run_seed: u64, round: u64, client_id: usize) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Adversary, round, client_id as u64))
}

/// Round-level RNG for client sampling.
pub fn sampling_rng(run_seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Sampling, round, 0))
}

/// Round-level RNG for the aggregator (e.g. coordinate sampling in Krum
/// variants, DP noise).
pub fn aggregation_rng(run_seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Aggregation, round, 0))
}

/// Round-level RNG for sequential personalization setup (`begin_round`).
pub fn round_setup_rng(run_seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::RoundSetup, round, 0))
}

/// RNG stream for fault-injection decisions about `unit` at `round`.
///
/// `unit` is a client id for per-client faults; reserved sentinel values
/// (see `fault::CHECKPOINT_UNIT`) carry round-global fault streams such as
/// checkpoint-write failures. Taking the unit directly as `u64` keeps the
/// sentinel space disjoint from any realistic client id.
pub fn fault_rng(run_seed: u64, round: u64, unit: u64) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Fault, round, unit))
}

/// RNG stream for one simulator draw.
///
/// `stream` is a packed `(draw index, purpose)` key (see `sim::stream_key`)
/// and `unit` is the virtual client id. Each (client, purpose, index)
/// triple gets its own stream, which is what makes simulated schedules
/// invariant under both worker count and event interleaving: a client's
/// third inter-arrival gap is the same number no matter when the event loop
/// gets around to drawing it.
pub fn sim_rng(run_seed: u64, stream: u64, unit: u64) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Sim, stream, unit))
}

/// RNG stream generating client `client_id`'s data shard.
///
/// The stream depends only on `(run_seed, client_id)` — never on when (or
/// whether) the shard was previously materialized — so a lazily generated,
/// evicted and regenerated shard is bit-identical to an eagerly built one.
pub fn shard_rng(run_seed: u64, client_id: usize) -> StdRng {
    StdRng::seed_from_u64(mix(run_seed, Domain::Shard, 0, client_id as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(
            mix(7, Domain::ClientTrain, 3, 11),
            mix(7, Domain::ClientTrain, 3, 11)
        );
    }

    #[test]
    fn streams_are_separated() {
        let base = mix(7, Domain::ClientTrain, 3, 11);
        assert_ne!(base, mix(8, Domain::ClientTrain, 3, 11), "run seed");
        assert_ne!(base, mix(7, Domain::Adversary, 3, 11), "domain");
        assert_ne!(base, mix(7, Domain::ClientTrain, 4, 11), "round");
        assert_ne!(base, mix(7, Domain::ClientTrain, 3, 12), "client");
        assert_ne!(base, mix(7, Domain::Sim, 3, 11), "sim domain");
    }

    #[test]
    fn sim_streams_do_not_shift_existing_domains() {
        // Domain::Sim is appended; deriving sim streams must not perturb
        // what any pre-existing domain draws for the same coordinates.
        let before = mix(9, Domain::Fault, 4, 2);
        let _ = sim_rng(9, 4, 2);
        assert_eq!(before, mix(9, Domain::Fault, 4, 2));
        assert_ne!(mix(9, Domain::Sim, 4, 2), mix(9, Domain::Fault, 4, 2));
    }

    #[test]
    fn shard_streams_do_not_shift_existing_domains() {
        let before = mix(9, Domain::Sim, 4, 2);
        let _ = shard_rng(9, 2);
        assert_eq!(before, mix(9, Domain::Sim, 4, 2));
        assert_ne!(mix(9, Domain::Shard, 0, 2), mix(9, Domain::Sim, 0, 2));
    }

    #[test]
    fn neighbouring_clients_draw_unrelated_values() {
        // A weak mixer would give near-identical first draws for adjacent
        // client ids; require the first draws to differ across a span.
        let mut seen = std::collections::HashSet::new();
        for cid in 0..64 {
            let v: u64 = client_rng(42, 0, cid).gen_range(0..u64::MAX);
            assert!(seen.insert(v), "collision at client {cid}");
        }
    }

    #[test]
    fn rng_constructors_match_mix() {
        let mut a = client_rng(5, 2, 9);
        let mut b = StdRng::seed_from_u64(mix(5, Domain::ClientTrain, 2, 9));
        for _ in 0..8 {
            assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
        }
    }
}
