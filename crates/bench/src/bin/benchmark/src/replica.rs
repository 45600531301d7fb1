//! The replica of `Scenario::run_with` the traced pass times.
//!
//! It rebuilds a cell from the same public functions `run_with` calls, in
//! the same order, with the personalization strategy, the aggregator and
//! the adversary wrapped in [`crate::shims`]. Every step between is timed
//! from here; the program itself carries no instrumentation. The traced
//! pass checks that the replica reproduces `run_with`'s digest cell by
//! cell, so the shims provably change nothing.

use crate::shims::{Counter, TimedAdversary, TimedAggregator, TimedPersonalization};
use crate::stats::{self, params_hash, CellDigest};
use collapois_core::baselines::{
    DPois, DbaAttack, LabelFlip, LocalTrainConfig, MRepl, SemanticAttack,
};
use collapois_core::collapois::CollaPois;
use collapois_core::scenario::{
    auxiliary_data, semantic_source_class, AttackKind, DatasetKind, DefenseKind, FlAlgo, Scenario,
    ScenarioConfig, IMAGE_SIDE,
};
use collapois_core::trojan::{train_trojan, TrojanedModel};
use collapois_data::federated::FederatedDataset;
use collapois_data::poison::{BackdoorEval, TriggerBackdoor};
use collapois_data::sample::Dataset;
use collapois_data::semantic::SemanticRegion;
use collapois_data::trigger::{DbaTrigger, Trigger};
use collapois_fl::aggregate::{
    Aggregator, CoordinateMedian, Crfl, DpAggregator, FedAvg, Flare, Krum, NormBound,
    RobustLearningRate, SignSgd, StatFilter, TrimmedMean, UserLevelDp,
};
use collapois_fl::config::FlConfig;
use collapois_fl::metrics::{cluster_analysis, population};
use collapois_fl::personalize::{
    Clustered, Ditto, FedDc, MetaFed, NoPersonalization, Personalization, Scaffold,
};
use collapois_fl::profile::PhaseProfile;
use collapois_fl::server::{round_records_from_events, Adversary, FlServer};
use collapois_grid::schema::GridCell;
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::trace::{hash_canonical_events, TraceEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer totals over the traced cells.
#[derive(Debug, Default)]
pub struct Layers {
    /// Cells traced.
    pub cells: usize,
    /// Rounds, or flushes in sim mode, traced.
    pub rounds: usize,
    /// Wall time of the traced cells.
    pub wall_s: f64,
    /// Cell start to the first round.
    pub pre_loop_s: f64,
    /// `finish_run` to the end of the cell.
    pub closing_s: f64,
    /// Dataset generation and partitioning, or the lazy backing.
    pub data_build_s: f64,
    /// `auxiliary_data`.
    pub aux_s: f64,
    /// `train_trojan`.
    pub trojan_s: f64,
    /// Semantic-region fit and the adversary constructor.
    pub adversary_build_s: f64,
    /// Wall time of the `run_round` calls, or of `run_sim`.
    pub loop_s: f64,
    /// Milliseconds per round after each cell's round 0: the `run_round`
    /// wall, or the flush's `RoundCompleted.elapsed_ms` in sim mode.
    pub round_ms: Vec<f64>,
    /// `evaluate_clients` time and calls.
    pub eval_s: f64,
    /// Calls of `evaluate_clients`.
    pub eval_calls: u64,
    /// `cluster_analysis`.
    pub cluster_s: f64,
    /// `hash_canonical_events`.
    pub trace_hash_s: f64,
    /// Events in the cells' traces.
    pub trace_events: u64,
    /// `Adversary::craft_update`.
    pub craft_ms: f64,
    /// Calls of `Adversary::craft_update`.
    pub craft_calls: u64,
    /// `Personalization::local_train`, summed over lanes.
    pub train_ms: f64,
    /// Calls of `Personalization::local_train`.
    pub train_calls: u64,
    /// Per-call `local_train` nanoseconds.
    pub train_ns: Vec<u64>,
    /// Analytic training FLOPs: 6 x parameters x local steps x batch per
    /// `local_train` call (forward 2, backward 4 per weight and sample).
    pub train_flops: f64,
    /// The aggregation rule.
    pub agg_ms: f64,
    /// Calls of the aggregation rule.
    pub agg_calls: u64,
    /// The server's own phase profile (`FlServer::take_profile`).
    pub profile: PhaseProfile,
    /// Shard residency counters at the end of each cell, summed.
    pub shard_hits: u64,
    /// Shard misses, summed over cells.
    pub shard_misses: u64,
    /// Shard evictions, summed over cells.
    pub shard_evictions: u64,
    /// Resident shard bytes at the end of each cell, summed.
    pub resident_bytes: u64,
    /// `SimSummary` events, arrivals and completions, summed.
    pub sim_events: u64,
    /// Client arrivals in sim mode.
    pub sim_arrivals: u64,
    /// Completed trainings in sim mode.
    pub sim_completions: u64,
}

/// Runs one cell as `Scenario::run_with` would with `workers` lanes and a
/// trace mirror at `trace_path`, adding its per-layer numbers to `layers`.
pub fn run_cell(
    cell: &GridCell,
    workers: usize,
    trace_path: &Path,
    layers: &mut Layers,
) -> CellDigest {
    let cfg = &cell.spec.config;
    let sim = cell.spec.sim_enabled.then_some(cell.spec.sim);
    let scenario = Scenario::new(cfg.clone());
    let cell_start = Instant::now();
    let spec = cfg.model_spec();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5CE0);

    // 1. Data.
    let t = Instant::now();
    let fed = if cfg.uses_lazy_cohort() {
        FederatedDataset::lazy(cfg.shard_spec(), cfg.num_clients, cfg.shard_budget_bytes())
    } else {
        let dataset = scenario.generate_dataset();
        FederatedDataset::build(&mut rng, &dataset, cfg.num_clients, cfg.alpha)
    };
    layers.data_build_s += t.elapsed().as_secs_f64();

    // 2. Compromised clients.
    let mut ids: Vec<usize> = (0..cfg.num_clients).collect();
    ids.shuffle(&mut rng);
    let mut compromised: Vec<usize> = ids.into_iter().take(cfg.num_compromised()).collect();
    compromised.sort_unstable();

    // 3. Trigger, auxiliary data, Trojan.
    let trigger = cfg.build_trigger();
    let t = Instant::now();
    let aux = auxiliary_data(&fed, &compromised);
    layers.aux_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let trojan = match cfg.attack {
        AttackKind::CollaPois if !compromised.is_empty() => {
            Some(train_trojan(&spec, &aux, trigger.as_ref(), &cfg.trojan))
        }
        _ => None,
    };
    layers.trojan_s += t.elapsed().as_secs_f64();

    // 4. Semantic region and adversary.
    let t = Instant::now();
    let semantic = match cfg.attack {
        AttackKind::Semantic if !aux.is_empty() => Some(SemanticRegion::fit(
            &aux,
            semantic_source_class(cfg.trojan.target_class, aux.num_classes()),
            cfg.trojan.target_class,
            0.5,
            cfg.seed ^ 0x5E3A,
        )),
        _ => None,
    };
    let trigger_eval = TriggerBackdoor(trigger.as_ref());
    let backdoor: &dyn BackdoorEval = match &semantic {
        Some(region) => region,
        None => &trigger_eval,
    };
    let craft = Arc::new(Counter::default());
    let mut adversary: Option<Box<dyn Adversary>> = build_adversary(
        cfg,
        &fed,
        &compromised,
        trigger.as_ref(),
        trojan.as_ref(),
        semantic.as_ref(),
        &spec,
    )
    .map(|a| Box::new(TimedAdversary::new(a, Arc::clone(&craft))) as Box<dyn Adversary>);
    layers.adversary_build_s += t.elapsed().as_secs_f64();

    // 5. Server.
    let fl_cfg = FlConfig {
        model: spec.clone(),
        rounds: cfg.rounds,
        local_steps: cfg.local_steps,
        batch_size: cfg.batch_size,
        client_lr: cfg.client_lr,
        server_lr: cfg.server_lr,
        sample_rate: cfg.sample_rate,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
        quantization: cfg.quantization,
    };
    let agg = Arc::new(Counter::default());
    let train = Arc::new(Counter::with_samples());
    let aggregator = TimedAggregator::new(build_aggregator(cfg, &compromised), Arc::clone(&agg));
    let personalization =
        TimedPersonalization::new(build_personalization(cfg.algo), Arc::clone(&train));
    let mut server = FlServer::new(fl_cfg, fed, Box::new(aggregator), Box::new(personalization));
    server.collect_updates(cfg.collect_updates);
    if cfg.defense == DefenseKind::FinePrune && sim.is_none() {
        let p = &cfg.defense_params;
        server.enable_fine_pruning(p.fp_fraction, p.fp_every);
    }
    if workers > 1 {
        server.set_workers(workers);
    }
    server
        .trace_to_file(trace_path)
        .unwrap_or_else(|e| panic!("cannot open trace file {trace_path:?}: {e}"));
    server.set_fault_plan(cell.spec.fault);
    layers.pre_loop_s += cell_start.elapsed().as_secs_f64();

    // 6. Round loop with periodic evaluation, or the simulator. Results
    // `run_with` builds its report from (records, population metrics) are
    // built and dropped here, so the replica does the same work.
    let evaluate = |server: &mut FlServer, layers: &mut Layers| {
        let t = Instant::now();
        let clients =
            server.evaluate_clients(&spec, backdoor, cfg.trojan.target_class, &compromised);
        layers.eval_s += t.elapsed().as_secs_f64();
        layers.eval_calls += 1;
        clients
    };
    if let Some(knobs) = &sim {
        let plan = knobs.to_plan(cfg.num_clients);
        let t = Instant::now();
        let summary = server.run_sim(&plan, cfg.rounds, adversary.as_deref_mut());
        layers.loop_s += t.elapsed().as_secs_f64();
        layers.sim_events += summary.events;
        layers.sim_arrivals += summary.arrivals;
        layers.sim_completions += summary.completions;
        let flushes: Vec<(usize, f64)> = server
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundCompleted {
                    round, elapsed_ms, ..
                } => Some((*round, *elapsed_ms)),
                _ => None,
            })
            .collect();
        layers.round_ms.extend(stats::steady_window(&flushes));
        let _records = round_records_from_events(server.trace_events());
        population(&evaluate(&mut server, layers));
    } else {
        let mut records = Vec::with_capacity(cfg.rounds);
        for t in 0..cfg.rounds {
            let start = Instant::now();
            records.push(server.run_round(adversary.as_deref_mut()));
            let round_s = start.elapsed().as_secs_f64();
            layers.loop_s += round_s;
            if t > 0 {
                layers.round_ms.push(round_s * 1e3);
            }
            if (t + 1) % cfg.eval_every == 0 || t + 1 == cfg.rounds {
                population(&evaluate(&mut server, layers));
            }
        }
    }
    server.finish_run();
    let closing_start = Instant::now();

    // 7. Final client-level metrics, cluster analysis, digest.
    let clients = evaluate(&mut server, layers);
    let t = Instant::now();
    if !compromised.is_empty() {
        cluster_analysis(server.dataset(), &clients, &aux);
    }
    layers.cluster_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (event_hash, event_count) = hash_canonical_events(server.trace_events());
    layers.trace_hash_s += t.elapsed().as_secs_f64();
    let final_global = server.global().to_vec();
    let shard_stats = server.dataset().shard_stats();
    layers.profile.accumulate(&server.take_profile());
    layers.closing_s += closing_start.elapsed().as_secs_f64();
    layers.wall_s += cell_start.elapsed().as_secs_f64();

    layers.cells += 1;
    layers.rounds += server.rounds_done();
    layers.trace_events += event_count;
    if let Some(s) = shard_stats {
        layers.shard_hits += s.hits;
        layers.shard_misses += s.misses;
        layers.shard_evictions += s.evictions;
        layers.resident_bytes += s.resident_bytes as u64;
    }
    layers.craft_ms += craft.ms();
    layers.craft_calls += craft.calls();
    layers.agg_ms += agg.ms();
    layers.agg_calls += agg.calls();
    layers.train_ms += train.ms();
    layers.train_calls += train.calls();
    layers.train_ns.extend(train.take_samples());
    layers.train_flops +=
        6.0 * (final_global.len() * cfg.local_steps * cfg.batch_size) as f64 * train.calls() as f64;

    CellDigest {
        event_hash,
        event_count,
        params_hash: params_hash(&final_global),
    }
}

/// `Scenario`'s personalization for `algo`.
fn build_personalization(algo: FlAlgo) -> Box<dyn Personalization> {
    match algo {
        FlAlgo::FedAvg => Box::new(NoPersonalization::new()),
        FlAlgo::FedDc => Box::new(FedDc::new(1.0)),
        FlAlgo::MetaFed => Box::new(MetaFed::new(2.0, 2)),
        FlAlgo::Ditto => Box::new(Ditto::new(0.5)),
        FlAlgo::Clustered => Box::new(Clustered::new(3)),
        FlAlgo::Scaffold => Box::new(Scaffold::new()),
    }
}

/// `Scenario`'s aggregation rule for the configured defense.
fn build_aggregator(cfg: &ScenarioConfig, compromised: &[usize]) -> Box<dyn Aggregator> {
    let p = &cfg.defense_params;
    let expected_cohort = ((cfg.num_clients as f64 * cfg.sample_rate).round() as usize).max(1);
    match cfg.defense {
        DefenseKind::None | DefenseKind::FinePrune => Box::new(FedAvg::new()),
        DefenseKind::Dp => Box::new(DpAggregator::new(p.dp_clip, p.dp_noise)),
        DefenseKind::NormBound => Box::new(NormBound::new(p.nb_bound).with_noise(p.nb_noise)),
        DefenseKind::Krum => Box::new(Krum::new(compromised.len().max(1))),
        DefenseKind::Rlr => Box::new(RobustLearningRate::new(
            ((expected_cohort as f64 * p.rlr_frac).round() as usize).max(1),
        )),
        DefenseKind::Median => Box::new(CoordinateMedian::new()),
        DefenseKind::TrimmedMean => Box::new(TrimmedMean::new(p.trim_beta)),
        DefenseKind::SignSgd => Box::new(SignSgd::new(p.sign_step)),
        DefenseKind::Flare => Box::new(Flare::new(p.flare_sharpness)),
        DefenseKind::Crfl => Box::new(Crfl::new(p.crfl_bound, p.crfl_noise)),
        DefenseKind::StatFilter => Box::new(StatFilter::new()),
        DefenseKind::UserDp => Box::new(UserLevelDp::new(p.dp_clip, 0.05)),
    }
}

/// `Scenario`'s adversary for the configured attack.
fn build_adversary(
    cfg: &ScenarioConfig,
    fed: &FederatedDataset,
    compromised: &[usize],
    trigger: &dyn Trigger,
    trojan: Option<&TrojanedModel>,
    semantic: Option<&SemanticRegion>,
    spec: &ModelSpec,
) -> Option<Box<dyn Adversary>> {
    if compromised.is_empty() {
        return None;
    }
    let local_cfg = LocalTrainConfig {
        steps: cfg.local_steps,
        batch_size: cfg.batch_size,
        lr: cfg.client_lr,
    };
    let local_data: Vec<Dataset> = compromised
        .iter()
        .map(|&c| fed.client(c).train.clone())
        .collect();
    let ids = compromised.to_vec();
    let target = cfg.trojan.target_class;
    let poison = cfg.poison_fraction;
    Some(match cfg.attack {
        AttackKind::None => return None,
        AttackKind::CollaPois => {
            let x = trojan
                .expect("CollaPois requires a Trojaned model")
                .params
                .clone();
            Box::new(CollaPois::new(ids, x, cfg.collapois))
        }
        AttackKind::DPois => Box::new(DPois::new(
            ids,
            &local_data,
            trigger,
            target,
            poison,
            spec,
            local_cfg,
            cfg.seed ^ 0xD901,
        )),
        AttackKind::LabelFlip => Box::new(LabelFlip::new(
            ids,
            &local_data,
            spec,
            local_cfg,
            cfg.seed ^ 0x1F11,
        )),
        AttackKind::Semantic => Box::new(SemanticAttack::new(
            ids,
            &local_data,
            semantic.expect("semantic attack requires a fitted region"),
            spec,
            local_cfg,
            cfg.seed ^ 0x5E3A,
        )),
        AttackKind::MRepl => {
            let expected_cohort = (cfg.num_clients as f64 * cfg.sample_rate).round().max(1.0);
            let expected_malicious = (compromised.len() as f64 * cfg.sample_rate)
                .round()
                .max(1.0);
            let boost = (expected_cohort / (cfg.server_lr * expected_malicious)).clamp(1.0, 50.0);
            Box::new(MRepl::new(
                ids,
                &local_data,
                trigger,
                target,
                poison,
                spec,
                local_cfg,
                boost,
                cfg.seed ^ 0x39E1,
            ))
        }
        // Text has no spatial decomposition: DBA degenerates to DPois with
        // the term trigger.
        AttackKind::Dba if cfg.dataset == DatasetKind::Text => Box::new(DPois::new(
            ids,
            &local_data,
            trigger,
            target,
            poison,
            spec,
            local_cfg,
            cfg.seed ^ 0xDBA,
        )),
        AttackKind::Dba => Box::new(DbaAttack::new(
            ids,
            &local_data,
            &DbaTrigger::new(IMAGE_SIDE, 2, 1.0),
            target,
            poison,
            spec,
            local_cfg,
            cfg.seed ^ 0xDBA,
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::untraced;
    use crate::workloads::find;
    use collapois_core::scenario::CohortMode;

    /// A two-round version of `cell` that keeps its code path: attack,
    /// defense, algorithm, cohort backing and execution mode.
    fn tiny(mut cell: GridCell) -> GridCell {
        let c = &mut cell.spec.config;
        let lazy = c.uses_lazy_cohort();
        c.num_clients = 12;
        c.samples_per_client = 25;
        c.rounds = 2;
        c.eval_every = 1;
        c.trojan.epochs = 2;
        if lazy {
            // 64 shards of 30 samples outgrow a 1 MiB budget: evictions.
            (
                c.num_clients,
                c.samples_per_client,
                c.cohort,
                c.shard_budget_mb,
            ) = (64, 30, CohortMode::Lazy, 1);
        }
        if cell.spec.sim_enabled {
            (cell.spec.sim.buffer_k, cell.spec.sim.max_concurrency) = (4, 8);
            cell.spec.sim.arrival_mean_ms = 20.0;
        }
        cell
    }

    #[test]
    fn replica_reproduces_run_with_on_every_arm() {
        let grid = find("paper-grid").expect("listed").cells(3);
        // The first half of the grid holds every attack x defense x
        // algorithm arm once (alpha is the slowest axis).
        let mut cells: Vec<GridCell> = grid.into_iter().take(84).collect();
        for name in ["cohort64", "krum256", "cohort4096", "sim4096"] {
            cells.extend(find(name).expect("listed").cells(3));
        }
        let dir = std::env::temp_dir().join(format!("collapois-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        for cell in cells.into_iter().map(tiny) {
            let mut layers = Layers::default();
            let traced = run_cell(&cell, 2, &path, &mut layers);
            let plain = untraced::run_cell(&cell, 2, &path).expect("cell completes");
            assert_eq!(traced, plain.digest, "cell {} ({})", cell.index, cell.id);
            assert_eq!(layers.rounds, 2, "{}", cell.id);
            if cell.spec.config.uses_lazy_cohort() {
                assert!(layers.shard_evictions > 0, "{}", cell.id);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
