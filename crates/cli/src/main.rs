//! `collapois` — command-line experiment runner for the CollaPois
//! reproduction.
//!
//! ```text
//! collapois run   [--dataset image|text] [--alpha A] [--frac F]
//!                 [--attack collapois|dpois|mrepl|dba|label-flip|none]
//!                 [--defense none|dp|norm-bound|krum|rlr|median|trimmed-mean|
//!                            signsgd|flare|crfl|stat-filter|user-dp]
//!                 [--algo fedavg|feddc|metafed|ditto|clustered]
//!                 [--rounds T] [--clients N] [--seed S] [--topk K]
//!                 [--workers W] [--trace FILE] [--checkpoint-dir DIR]
//!                 [--checkpoint-every E] [--resume true] [--monitor true]
//!                 [--sim true] [--sim-arrival-ms A] [--sim-train-ms T]
//!                 [--sim-buffer K] [--sim-deadline-ms D] [--sim-decay P]
//!                 [--sim-up-ms U] [--sim-down-ms D] [--sim-concurrency C]
//! collapois sweep [--attack ...] [--defense ...] [--algo ...] — alpha sweep
//! collapois grid  SCENARIOS.toml [--out REPORT.jsonl] [--workers W]
//!                 [--fresh true] [--limit N] [--list true] — scenario matrix
//! collapois bound [--a 0.9] [--b 1.0] [--clients N] — Theorem 1 table
//! collapois trace --file RUN.jsonl — inspect a structured run trace
//! collapois help   (or -h / --help anywhere on the command line)
//! ```

mod args;

use args::{ArgError, Args};
use collapois_core::scenario::{
    AttackKind, CohortMode, DatasetKind, DefenseKind, FlAlgo, Quantization, RunOptions, Scenario,
    ScenarioConfig, ScenarioModel, SimKnobs,
};
use collapois_core::theory::theorem1_bound;
use collapois_fl::server::round_records_from_events;
use collapois_grid::runner::{run_grid, CellStatus, GridRunOptions};
use collapois_grid::schema::GridSpec;
use collapois_runtime::fault::FaultPlan;
use collapois_runtime::trace::{read_trace, TraceEvent};
use std::path::{Path, PathBuf};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("try: collapois help");
            std::process::exit(2);
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    // `-h`/`--help` anywhere wins over everything else, including a
    // command whose options would otherwise fail to parse.
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print_help();
        return Ok(());
    }
    let args = Args::parse(argv.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    // `grid` takes the scenario file as a positional; every other command
    // takes none.
    if args.command.as_deref() != Some("grid") {
        args.expect_no_positionals().map_err(|e| e.to_string())?;
    }
    match args.command.as_deref() {
        Some("run") => cmd_run(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("grid") => cmd_grid(&args),
        Some("bound") => cmd_bound(&args),
        Some("trace") => cmd_trace(&args),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn print_help() {
    println!(
        "collapois — CollaPois reproduction experiment runner\n\n\
         commands:\n\
         \u{20}  run    run one scenario (attack x defense x FL algorithm)\n\
         \u{20}  sweep  sweep the Dirichlet alpha for a fixed configuration\n\
         \u{20}  grid   run a declarative scenario matrix from a TOML file\n\
         \u{20}  bound  print Theorem 1's |C| lower-bound table\n\
         \u{20}  trace  inspect a structured run trace (--file RUN.jsonl)\n\
         \u{20}  help   this message (also -h / --help anywhere)\n\n\
         grid (collapois grid SCENARIOS.toml; cells run deterministically and\n\
         resume by skipping rows already present in the report):\n\
         \u{20}  --out REPORT.jsonl   report path (default: <scenarios>.report.jsonl)\n\
         \u{20}  --workers W          worker threads per cell (default: the file's\n\
         \u{20}                       [run] workers; results are W-invariant)\n\
         \u{20}  --fresh true         ignore an existing report and rerun every cell\n\
         \u{20}  --limit N            execute at most N cells this invocation\n\
         \u{20}  --list true          print the expanded cells without running\n\n\
         common options:\n\
         \u{20}  --dataset image|text   --alpha A      --frac F       --seed S\n\
         \u{20}  --attack collapois|dpois|mrepl|dba|label-flip|semantic|none\n\
         \u{20}  --defense none|dp|norm-bound|krum|rlr|median|trimmed-mean|signsgd|\n\
         \u{20}            flare|crfl|stat-filter|user-dp|fine-prune\n\
         \u{20}  --algo fedavg|feddc|metafed|ditto|clustered|scaffold\n\
         \u{20}  --model mlp|cnn   --repeats R\n\
         \u{20}  --rounds T   --clients N   --topk K\n\
         \u{20}  --quant f32|f16|int8   client-update transport codec (deterministic\n\
         \u{20}                         RNE encode/decode round-trip; default f32)\n\
         \u{20}  --cohort auto|eager|lazy   client-shard materialization; auto goes\n\
         \u{20}                             lazy at >= 1024 clients\n\
         \u{20}  --shard-budget-mb MB   resident-shard LRU byte budget for lazy\n\
         \u{20}                         cohorts (0 = default 256 MB)\n\n\
         execution (bit-identical for any worker count):\n\
         \u{20}  --workers W            fan benign training over W threads\n\
         \u{20}  --trace FILE           write a JSONL run trace\n\
         \u{20}  --checkpoint-dir DIR   write periodic snapshots into DIR\n\
         \u{20}  --checkpoint-every E   snapshot cadence in rounds (default 5)\n\
         \u{20}  --resume true          resume from the newest intact snapshot in DIR\n\
         \u{20}  --monitor true         emit shift-detector alerts into the trace\n\
         \u{20}  --profile-rounds true  print the per-phase round-loop breakdown\n\n\
         fault injection (deterministic per seed; faults land in the trace):\n\
         \u{20}  --fault-dropout P        per-client per-round dropout probability\n\
         \u{20}  --fault-straggler P      per-client straggler probability\n\
         \u{20}  --fault-delay-ms M       mean straggler delay (exponential), ms\n\
         \u{20}  --fault-deadline-ms D    round deadline shedding stragglers (0 = none)\n\
         \u{20}  --fault-corrupt P        per-client in-flight corruption probability\n\
         \u{20}  --fault-checkpoint P     per-attempt checkpoint-write failure probability\n\n\
         buffered-async simulation (discrete-event, deterministic per seed;\n\
         any --sim-* flag implies --sim true; --rounds sets the flush target):\n\
         \u{20}  --sim true             run FedBuff on the virtual-time simulator\n\
         \u{20}  --sim-arrival-ms A     mean Poisson inter-arrival gap per client, ms\n\
         \u{20}  --sim-train-ms T       mean virtual training duration, ms\n\
         \u{20}  --sim-buffer K         flush after K buffered completions\n\
         \u{20}  --sim-deadline-ms D    virtual flush deadline (0 = none)\n\
         \u{20}  --sim-decay P          staleness weight exponent (1+s)^-P\n\
         \u{20}  --sim-up-ms U          mean available stretch for churn (0 = no churn)\n\
         \u{20}  --sim-down-ms D        mean offline stretch for churn\n\
         \u{20}  --sim-concurrency C    max clients training at once"
    );
}

const RUN_KEYS: &[&str] = &[
    "dataset",
    "alpha",
    "frac",
    "attack",
    "defense",
    "algo",
    "rounds",
    "clients",
    "seed",
    "topk",
    "model",
    "repeats",
    "quant",
    "cohort",
    "shard-budget-mb",
    "workers",
    "trace",
    "checkpoint-dir",
    "checkpoint-every",
    "resume",
    "monitor",
    "profile-rounds",
    "fault-dropout",
    "fault-straggler",
    "fault-delay-ms",
    "fault-deadline-ms",
    "fault-corrupt",
    "fault-checkpoint",
    "sim",
    "sim-arrival-ms",
    "sim-train-ms",
    "sim-buffer",
    "sim-deadline-ms",
    "sim-decay",
    "sim-up-ms",
    "sim-down-ms",
    "sim-concurrency",
];

/// The `--sim-*` knob keys: presence of any implies `--sim true`.
const SIM_KNOB_KEYS: &[&str] = &[
    "sim-arrival-ms",
    "sim-train-ms",
    "sim-buffer",
    "sim-deadline-ms",
    "sim-decay",
    "sim-up-ms",
    "sim-down-ms",
    "sim-concurrency",
];

fn parse_attack(s: &str) -> Result<AttackKind, String> {
    Ok(match s {
        "collapois" => AttackKind::CollaPois,
        "dpois" => AttackKind::DPois,
        "mrepl" => AttackKind::MRepl,
        "dba" => AttackKind::Dba,
        "label-flip" | "lflip" => AttackKind::LabelFlip,
        "semantic" => AttackKind::Semantic,
        "none" | "clean" => AttackKind::None,
        other => return Err(format!("unknown attack '{other}'")),
    })
}

fn parse_defense(s: &str) -> Result<DefenseKind, String> {
    let s = if s == "fine_prune" { "fine-prune" } else { s };
    DefenseKind::all()
        .iter()
        .copied()
        .find(|d| d.name() == s)
        .ok_or_else(|| format!("unknown defense '{s}'"))
}

fn parse_algo(s: &str) -> Result<FlAlgo, String> {
    Ok(match s {
        "fedavg" => FlAlgo::FedAvg,
        "feddc" => FlAlgo::FedDc,
        "metafed" => FlAlgo::MetaFed,
        "ditto" => FlAlgo::Ditto,
        "clustered" => FlAlgo::Clustered,
        "scaffold" => FlAlgo::Scaffold,
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

fn build_config(args: &Args) -> Result<ScenarioConfig, String> {
    if let Some(k) = args.unknown_key(RUN_KEYS) {
        return Err(format!("unknown option --{k}"));
    }
    let err = |e: ArgError| e.to_string();
    let alpha: f64 = args.get_or("alpha", 0.1).map_err(err)?;
    let frac: f64 = args.get_or("frac", 0.01).map_err(err)?;
    let dataset = match args.get("dataset").unwrap_or("image") {
        "image" => DatasetKind::Image,
        "text" => DatasetKind::Text,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let mut cfg = match dataset {
        DatasetKind::Image => ScenarioConfig::quick_image(alpha, frac),
        DatasetKind::Text => ScenarioConfig::quick_text(alpha, frac),
    };
    cfg.attack = parse_attack(args.get("attack").unwrap_or("collapois"))?;
    cfg.defense = parse_defense(args.get("defense").unwrap_or("none"))?;
    cfg.algo = parse_algo(args.get("algo").unwrap_or("fedavg"))?;
    cfg.rounds = args.get_or("rounds", cfg.rounds).map_err(err)?;
    cfg.eval_every = (cfg.rounds / 4).max(1);
    cfg.num_clients = args.get_or("clients", cfg.num_clients).map_err(err)?;
    cfg.seed = args.get_or("seed", cfg.seed).map_err(err)?;
    cfg.model_kind = match args.get("model").unwrap_or("mlp") {
        "mlp" => ScenarioModel::Mlp,
        "cnn" | "lenet" => ScenarioModel::Cnn,
        other => return Err(format!("unknown model '{other}'")),
    };
    let quant = args.get("quant").unwrap_or("f32");
    cfg.quantization =
        Quantization::parse(quant).ok_or_else(|| format!("unknown quant '{quant}'"))?;
    cfg.cohort = match args.get("cohort").unwrap_or("auto") {
        "auto" => CohortMode::Auto,
        "eager" => CohortMode::Eager,
        "lazy" => CohortMode::Lazy,
        other => return Err(format!("unknown cohort mode '{other}'")),
    };
    cfg.shard_budget_mb = args
        .get_or("shard-budget-mb", cfg.shard_budget_mb)
        .map_err(err)?;
    Ok(cfg)
}

fn build_fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let err = |e: ArgError| e.to_string();
    let none = FaultPlan::none();
    let plan = FaultPlan {
        dropout: args.get_or("fault-dropout", none.dropout).map_err(err)?,
        straggler: args
            .get_or("fault-straggler", none.straggler)
            .map_err(err)?,
        straggler_mean_ms: args
            .get_or("fault-delay-ms", none.straggler_mean_ms)
            .map_err(err)?,
        deadline_ms: args
            .get_or("fault-deadline-ms", none.deadline_ms)
            .map_err(err)?,
        corrupt: args.get_or("fault-corrupt", none.corrupt).map_err(err)?,
        checkpoint_fail: args
            .get_or("fault-checkpoint", none.checkpoint_fail)
            .map_err(err)?,
    };
    plan.validate()?;
    Ok(plan)
}

fn build_sim_knobs(args: &Args) -> Result<Option<SimKnobs>, String> {
    let err = |e: ArgError| e.to_string();
    let enabled = args.get_or("sim", false).map_err(err)?
        || SIM_KNOB_KEYS.iter().any(|k| args.get(k).is_some());
    if !enabled {
        return Ok(None);
    }
    let d = SimKnobs::default();
    Ok(Some(SimKnobs {
        arrival_mean_ms: args
            .get_or("sim-arrival-ms", d.arrival_mean_ms)
            .map_err(err)?,
        train_mean_ms: args.get_or("sim-train-ms", d.train_mean_ms).map_err(err)?,
        buffer_k: args.get_or("sim-buffer", d.buffer_k).map_err(err)?,
        flush_deadline_ms: args
            .get_or("sim-deadline-ms", d.flush_deadline_ms)
            .map_err(err)?,
        staleness_decay: args.get_or("sim-decay", d.staleness_decay).map_err(err)?,
        churn_up_ms: args.get_or("sim-up-ms", d.churn_up_ms).map_err(err)?,
        churn_down_ms: args.get_or("sim-down-ms", d.churn_down_ms).map_err(err)?,
        max_concurrency: args
            .get_or("sim-concurrency", d.max_concurrency)
            .map_err(err)?,
    }))
}

fn build_run_options(args: &Args) -> Result<RunOptions, String> {
    let err = |e: ArgError| e.to_string();
    Ok(RunOptions {
        workers: args.get_or("workers", 1).map_err(err)?,
        trace_path: args.get("trace").map(PathBuf::from),
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        checkpoint_every: args.get_or("checkpoint-every", 0).map_err(err)?,
        resume: args.get_or("resume", false).map_err(err)?,
        monitor: args.get_or("monitor", false).map_err(err)?,
        profile_rounds: args.get_or("profile-rounds", false).map_err(err)?,
        fault: build_fault_plan(args)?,
        sim: build_sim_knobs(args)?,
    })
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let opts = build_run_options(args)?;
    if opts.sim.is_some() {
        cfg.defense.check_sim()?;
    }
    let topk: f64 = args.get_or("topk", 25.0).map_err(|e| e.to_string())?;
    let repeats: usize = args.get_or("repeats", 1).map_err(|e| e.to_string())?;
    if repeats > 1 {
        let rep = Scenario::new(cfg).run_repeated(repeats);
        println!(
            "{repeats} runs: benign AC {:.2}% +/- {:.2}, attack SR {:.2}% +/- {:.2}",
            100.0 * rep.benign_ac_mean,
            100.0 * rep.benign_ac_std,
            100.0 * rep.attack_sr_mean,
            100.0 * rep.attack_sr_std
        );
        return Ok(());
    }
    println!(
        "scenario: {} | attack={} defense={} algo={} alpha={} |C|={} of {} | {} rounds",
        match cfg.dataset {
            DatasetKind::Image => "FEMNIST-sim",
            DatasetKind::Text => "Sentiment-sim",
        },
        cfg.attack.name(),
        cfg.defense.name(),
        cfg.algo.name(),
        cfg.alpha,
        cfg.num_compromised(),
        cfg.num_clients,
        cfg.rounds
    );
    if let Some(knobs) = &opts.sim {
        println!(
            "mode: buffered-async sim | arrival {} ms, train {} ms, K={}, deadline {}, \
             decay {}, concurrency {}",
            knobs.arrival_mean_ms,
            knobs.train_mean_ms,
            knobs.buffer_k,
            if knobs.flush_deadline_ms > 0.0 {
                format!("{} ms", knobs.flush_deadline_ms)
            } else {
                "none".to_string()
            },
            knobs.staleness_decay,
            knobs.max_concurrency
        );
    }
    let report = Scenario::new(cfg).run_with(&opts);
    if let Some(x) = &report.trojan {
        println!(
            "trojaned model X: clean acc {:.1}%, trigger success {:.1}%",
            100.0 * x.clean_accuracy,
            100.0 * x.trigger_success
        );
    }
    println!("\nround  benign AC  attack SR");
    for r in &report.rounds {
        println!(
            "{:>5}  {:>8.2}%  {:>8.2}%",
            r.round,
            100.0 * r.benign_accuracy,
            100.0 * r.attack_success_rate
        );
    }
    let pop = report.population();
    let top = report.top_k(topk);
    println!(
        "\npopulation: AC {:.2}%, SR {:.2}%   top-{topk:.0}%: AC {:.2}%, SR {:.2}%",
        100.0 * pop.benign_ac,
        100.0 * pop.attack_sr,
        100.0 * top.benign_ac,
        100.0 * top.attack_sr
    );
    if !report.clusters.is_empty() {
        println!("\ncluster      clients  CS_k    attack SR");
        for c in &report.clusters {
            println!(
                "{:<12} {:>7}  {:.4}  {:>8.2}%",
                c.label,
                c.clients.len(),
                c.label_cosine,
                100.0 * c.attack_sr
            );
        }
    }
    if opts.profile_rounds {
        println!(
            "\nper-round profile: {}",
            report.profile.per_round_summary()
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let base = build_config(args)?;
    // The sweep honors --workers; per-run trace/checkpoint paths would
    // overwrite each other across alphas, so only the thread knob applies.
    let opts = RunOptions {
        workers: build_run_options(args)?.workers,
        ..RunOptions::default()
    };
    println!(
        "alpha sweep: attack={} defense={} algo={}",
        base.attack.name(),
        base.defense.name(),
        base.algo.name()
    );
    println!("{:<8} {:>10} {:>10}", "alpha", "benign AC", "attack SR");
    for alpha in [0.01, 0.1, 1.0, 10.0, 100.0] {
        let mut cfg = base.clone();
        cfg.alpha = alpha;
        let report = Scenario::new(cfg).run_with(&opts);
        let last = report.final_round();
        println!(
            "{:<8} {:>9.2}% {:>9.2}%",
            alpha,
            100.0 * last.benign_accuracy,
            100.0 * last.attack_success_rate
        );
    }
    Ok(())
}

const GRID_KEYS: &[&str] = &["out", "workers", "fresh", "limit", "list"];

fn cmd_grid(args: &Args) -> Result<(), String> {
    if let Some(k) = args.unknown_key(GRID_KEYS) {
        return Err(format!("unknown option --{k}"));
    }
    args.expect_at_most_positionals(1)
        .map_err(|e| e.to_string())?;
    let scenario_path = args
        .positional(0)
        .ok_or("grid requires a scenario file: collapois grid SCENARIOS.toml")?;
    let err = |e: ArgError| e.to_string();
    let text = std::fs::read_to_string(scenario_path)
        .map_err(|e| format!("cannot read {scenario_path}: {e}"))?;
    let spec = GridSpec::parse(&text).map_err(|e| format!("{scenario_path}: {e}"))?;
    let cells = spec
        .cells()
        .expect("GridSpec::parse validated the expansion");

    let axes: Vec<String> = spec
        .axis_summary()
        .iter()
        .map(|(k, n)| format!("{k}({n})"))
        .collect();
    println!(
        "grid '{}': {} cells [{}]",
        spec.name,
        cells.len(),
        axes.join(" x ")
    );
    if args.get_or("list", false).map_err(err)? {
        for cell in &cells {
            println!(
                "{:>4}  {}  config=0x{:016x}",
                cell.index, cell.id, cell.config_hash
            );
        }
        return Ok(());
    }

    let out = args
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_report_path(scenario_path));
    let opts = GridRunOptions {
        workers: args.get_or("workers", 0).map_err(err)?,
        fresh: args.get_or("fresh", false).map_err(err)?,
        limit: args.get_or("limit", 0).map_err(err)?,
    };
    let total = cells.len();
    let outcome = run_grid(&spec, &out, &opts, |cell, status| {
        let tag = match status {
            CellStatus::Skipped => "skip",
            CellStatus::Executed => "done",
        };
        println!("[{:>3}/{total}] {tag}  {}", cell.index + 1, cell.id);
    })
    .map_err(|e| format!("grid report {}: {e}", out.display()))?;
    println!(
        "{} executed, {} skipped, {} remaining -> {}",
        outcome.executed,
        outcome.skipped,
        outcome.remaining,
        outcome.report_path.display()
    );
    if !outcome.complete() {
        println!("rerun the same command to continue (completed cells are skipped)");
    }
    Ok(())
}

/// `scenarios/smoke.toml` → `scenarios/smoke.report.jsonl`.
fn default_report_path(scenario_path: &str) -> PathBuf {
    let p = Path::new(scenario_path);
    let stem = p
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "grid".to_string());
    p.with_file_name(format!("{stem}.report.jsonl"))
}

fn cmd_bound(args: &Args) -> Result<(), String> {
    let err = |e: ArgError| e.to_string();
    let a: f64 = args.get_or("a", 0.9).map_err(err)?;
    let b: f64 = args.get_or("b", 1.0).map_err(err)?;
    let n: usize = args.get_or("clients", 1000).map_err(err)?;
    if !(0.0 < a && a < b && b <= 1.0) {
        return Err("psi range must satisfy 0 < a < b <= 1".into());
    }
    println!("Theorem 1 lower bound |C| for N = {n}, psi ~ U[{a}, {b}]");
    println!("{:<8} 0.0      0.25     0.5      0.75     1.0", "mu\\sigma");
    for mu_step in 0..=6 {
        let mu = mu_step as f64 * 0.2;
        let mut row = format!("{mu:<8.1}");
        for sig_step in 0..=4 {
            let sigma = sig_step as f64 * 0.25;
            row.push_str(&format!(" {:<8.1}", theorem1_bound(mu, sigma, a, b, n)));
        }
        println!("{row}");
    }
    Ok(())
}

const TRACE_KEYS: &[&str] = &["file"];

fn cmd_trace(args: &Args) -> Result<(), String> {
    if let Some(k) = args.unknown_key(TRACE_KEYS) {
        return Err(format!("unknown option --{k}"));
    }
    let file = args.get("file").ok_or("trace requires --file RUN.jsonl")?;
    let events = read_trace(Path::new(file)).map_err(|e| e.to_string())?;
    let mut header_printed = false;
    for event in &events {
        match event {
            TraceEvent::RunStarted {
                run_seed,
                config_hash,
                num_clients,
                rounds,
                workers,
                aggregator,
                resumed_from,
            } => {
                println!(
                    "run: seed={run_seed} config=0x{config_hash:016x} clients={num_clients} \
                     rounds={rounds} workers={workers} aggregator={aggregator}{}",
                    match resumed_from {
                        Some(r) => format!(" (resumed from round {r})"),
                        None => String::new(),
                    }
                );
            }
            TraceEvent::RoundCompleted {
                round,
                aggregator: _,
                num_malicious,
                benign_norms,
                malicious_norms: _,
                agg_delta_norm,
                elapsed_ms,
            } => {
                if !header_printed {
                    println!("\nround  benign  malicious  |agg delta|        ms");
                    header_printed = true;
                }
                println!(
                    "{round:>5}  {:>6}  {num_malicious:>9}  {agg_delta_norm:>11.4}  {elapsed_ms:>8.1}",
                    benign_norms.len()
                );
            }
            TraceEvent::ShiftAlert {
                round,
                observed,
                baseline_median,
                z_score,
            } => {
                println!(
                    "  ! shift alert at round {round}: observed {observed:.4} vs median \
                     {baseline_median:.4} (z = {z_score:.1})"
                );
            }
            TraceEvent::CheckpointSaved { round, path } => {
                println!("  * checkpoint for round {round}: {path}");
            }
            TraceEvent::ClientDropped {
                round,
                client,
                cause,
                delay_ms,
            } => {
                if cause == "straggler" {
                    println!(
                        "  - round {round}: client {client} shed as straggler \
                         ({delay_ms:.1} ms past deadline budget)"
                    );
                } else {
                    println!("  - round {round}: client {client} dropped ({cause})");
                }
            }
            TraceEvent::UpdateRejected {
                round,
                client,
                reason,
            } => {
                println!("  - round {round}: update from client {client} rejected ({reason})");
            }
            TraceEvent::CheckpointWriteFailed {
                round,
                attempt,
                error,
                gave_up,
            } => {
                println!(
                    "  ! checkpoint write for round {round} failed on attempt {attempt}{}: {error}",
                    if *gave_up { " (gave up)" } else { "" }
                );
            }
            TraceEvent::RunCompleted {
                rounds_executed,
                elapsed_ms,
            } => {
                println!(
                    "\nrun completed: {rounds_executed} rounds in {:.2}s",
                    elapsed_ms / 1e3
                );
            }
            TraceEvent::ClientArrived {
                vtime_us,
                client,
                version,
            } => {
                println!(
                    "  > t={:.1}ms: client {client} arrived, fetched model v{version}",
                    *vtime_us as f64 / 1e3
                );
            }
            TraceEvent::ClientUnavailable {
                vtime_us,
                client,
                reason,
            } => {
                println!(
                    "  . t={:.1}ms: client {client} turned away ({reason})",
                    *vtime_us as f64 / 1e3
                );
            }
            TraceEvent::BufferFlushed {
                vtime_us,
                flush,
                size,
                mean_staleness,
                cause,
            } => {
                println!(
                    "  # t={:.1}ms: flush {flush} merged {size} updates \
                     (mean staleness {mean_staleness:.2}, {cause})",
                    *vtime_us as f64 / 1e3
                );
            }
            TraceEvent::RoundStarted { .. } => {}
        }
    }
    let records = round_records_from_events(&events);
    println!(
        "{} events, {} reconstructed round records",
        events.len(),
        records.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&["help".to_string()]).is_ok());
        assert!(run(&[]).is_ok());
        let e = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn help_flags_anywhere_print_usage() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for flag in ["--help", "-h"] {
            assert!(run(&argv(&[flag])).is_ok(), "{flag}");
            assert!(run(&argv(&["run", flag])).is_ok(), "run {flag}");
            assert!(run(&argv(&["grid", flag])).is_ok(), "grid {flag}");
            assert!(
                run(&argv(&["run", "--rounds", "3", flag])).is_ok(),
                "run --rounds 3 {flag}"
            );
        }
    }

    #[test]
    fn config_builder_applies_options() {
        let args = Args::parse([
            "run",
            "--dataset",
            "text",
            "--alpha",
            "0.5",
            "--frac",
            "0.05",
            "--attack",
            "dpois",
            "--defense",
            "krum",
            "--algo",
            "feddc",
            "--rounds",
            "7",
            "--clients",
            "30",
            "--seed",
            "9",
            "--quant",
            "int8",
        ])
        .unwrap();
        let cfg = build_config(&args).unwrap();
        assert_eq!(cfg.dataset, DatasetKind::Text);
        assert_eq!(cfg.alpha, 0.5);
        assert_eq!(cfg.attack, AttackKind::DPois);
        assert_eq!(cfg.defense, DefenseKind::Krum);
        assert_eq!(cfg.algo, FlAlgo::FedDc);
        assert_eq!(cfg.rounds, 7);
        assert_eq!(cfg.num_clients, 30);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.quantization, Quantization::Int8);
    }

    #[test]
    fn config_builder_applies_cohort_options() {
        let args = Args::parse(["run", "--cohort", "lazy", "--shard-budget-mb", "64"]).unwrap();
        let cfg = build_config(&args).unwrap();
        assert_eq!(cfg.cohort, CohortMode::Lazy);
        assert_eq!(cfg.shard_budget_mb, 64);
        let cfg = build_config(&Args::parse(["run"]).unwrap()).unwrap();
        assert_eq!(cfg.cohort, CohortMode::Auto);
        let args = Args::parse(["run", "--cohort", "maybe"]).unwrap();
        assert!(build_config(&args).unwrap_err().contains("maybe"));
    }

    #[test]
    fn config_builder_rejects_bad_input() {
        let args = Args::parse(["run", "--attack", "zeus"]).unwrap();
        assert!(build_config(&args).is_err());
        let args = Args::parse(["run", "--dataset", "audio"]).unwrap();
        assert!(build_config(&args).is_err());
        let args = Args::parse(["run", "--alfa", "1"]).unwrap();
        assert!(build_config(&args).unwrap_err().contains("--alfa"));
        let args = Args::parse(["run", "--quant", "int4"]).unwrap();
        assert!(build_config(&args).unwrap_err().contains("int4"));
    }

    #[test]
    fn run_options_parse() {
        let args = Args::parse([
            "run",
            "--workers",
            "4",
            "--trace",
            "/tmp/t.jsonl",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "3",
            "--resume",
            "true",
            "--monitor",
            "true",
        ])
        .unwrap();
        let opts = build_run_options(&args).unwrap();
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.trace_path.as_deref(), Some(Path::new("/tmp/t.jsonl")));
        assert_eq!(opts.checkpoint_dir.as_deref(), Some(Path::new("/tmp/ck")));
        assert_eq!(opts.checkpoint_every, 3);
        assert!(opts.resume);
        assert!(opts.monitor);
        // Defaults: sequential, nothing written.
        let defaults = build_run_options(&Args::parse(["run"]).unwrap()).unwrap();
        assert_eq!(
            defaults,
            RunOptions {
                workers: 1,
                ..RunOptions::default()
            }
        );
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let args = Args::parse([
            "run",
            "--fault-dropout",
            "0.2",
            "--fault-straggler",
            "0.1",
            "--fault-delay-ms",
            "40",
            "--fault-deadline-ms",
            "25",
            "--fault-corrupt",
            "0.05",
            "--fault-checkpoint",
            "0.5",
        ])
        .unwrap();
        let opts = build_run_options(&args).unwrap();
        assert_eq!(opts.fault.dropout, 0.2);
        assert_eq!(opts.fault.straggler, 0.1);
        assert_eq!(opts.fault.straggler_mean_ms, 40.0);
        assert_eq!(opts.fault.deadline_ms, 25.0);
        assert_eq!(opts.fault.corrupt, 0.05);
        assert_eq!(opts.fault.checkpoint_fail, 0.5);
        assert!(opts.fault.is_active());
        // Default: no faults.
        let defaults = build_run_options(&Args::parse(["run"]).unwrap()).unwrap();
        assert!(!defaults.fault.is_active());
        // Out-of-range probability is rejected before any run starts.
        let bad = Args::parse(["run", "--fault-dropout", "1.5"]).unwrap();
        assert!(build_run_options(&bad).is_err());
    }

    #[test]
    fn sim_flags_parse_and_imply_sim_mode() {
        // Off by default.
        let defaults = build_run_options(&Args::parse(["run"]).unwrap()).unwrap();
        assert!(defaults.sim.is_none());
        // --sim true alone enables the defaults.
        let opts = build_run_options(&Args::parse(["run", "--sim", "true"]).unwrap()).unwrap();
        assert_eq!(opts.sim, Some(SimKnobs::default()));
        // Any knob implies sim mode and overrides its default.
        let args = Args::parse([
            "run",
            "--sim-arrival-ms",
            "25",
            "--sim-buffer",
            "32",
            "--sim-deadline-ms",
            "120",
            "--sim-up-ms",
            "400",
            "--sim-down-ms",
            "100",
        ])
        .unwrap();
        let knobs = build_run_options(&args).unwrap().sim.expect("implied");
        assert_eq!(knobs.arrival_mean_ms, 25.0);
        assert_eq!(knobs.buffer_k, 32);
        assert_eq!(knobs.flush_deadline_ms, 120.0);
        assert_eq!(knobs.churn_up_ms, 400.0);
        assert_eq!(knobs.churn_down_ms, 100.0);
        assert_eq!(knobs.train_mean_ms, SimKnobs::default().train_mean_ms);
    }

    #[test]
    fn sim_rejects_aggregator_defenses_before_running() {
        let argv = |defense: &str| -> Vec<String> {
            ["run", "--sim", "true", "--defense", defense]
                .map(String::from)
                .to_vec()
        };
        let e = run(&argv("krum")).unwrap_err();
        assert!(e.contains("krum") && e.contains("sim mode"), "{e}");
        assert!(run(&argv("median")).is_err());
    }

    #[test]
    fn trace_command_validates_input() {
        let e = run(&["trace".to_string()]).unwrap_err();
        assert!(e.contains("--file"));
        let e = run(&[
            "trace".to_string(),
            "--file".to_string(),
            "/nonexistent/run.jsonl".to_string(),
        ])
        .unwrap_err();
        assert!(!e.is_empty());
    }

    #[test]
    fn bound_command_validates_psi() {
        let args = vec![
            "bound".to_string(),
            "--a".into(),
            "1.0".into(),
            "--b".into(),
            "0.5".into(),
        ];
        assert!(run(&args).is_err());
    }

    #[test]
    fn parse_helpers_cover_all_names() {
        for d in DefenseKind::all() {
            assert_eq!(parse_defense(d.name()).unwrap(), *d);
        }
        for (s, a) in [
            ("collapois", AttackKind::CollaPois),
            ("label-flip", AttackKind::LabelFlip),
            ("lflip", AttackKind::LabelFlip),
            ("none", AttackKind::None),
        ] {
            assert_eq!(parse_attack(s).unwrap(), a);
        }
        for s in ["fedavg", "feddc", "metafed", "ditto", "clustered"] {
            assert!(parse_algo(s).is_ok());
        }
    }

    #[test]
    fn grid_command_validates_input() {
        let e = run(&["grid".to_string()]).unwrap_err();
        assert!(e.contains("scenario file"), "{e}");
        let e = run(&["grid".to_string(), "/nonexistent/grid.toml".to_string()]).unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
        let e = run(&[
            "grid".to_string(),
            "a.toml".to_string(),
            "b.toml".to_string(),
        ])
        .unwrap_err();
        assert!(e.contains("b.toml"), "{e}");
        let e = run(&[
            "grid".to_string(),
            "a.toml".to_string(),
            "--frobnicate".to_string(),
            "1".to_string(),
        ])
        .unwrap_err();
        assert!(e.contains("--frobnicate"), "{e}");
        // A schema error is reported with the file it came from.
        let dir = std::env::temp_dir().join("collapois-cli-grid-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.toml");
        std::fs::write(
            &bad,
            "schema_version = 1\nname = \"x\"\n[base]\nalpha = -1.0\n",
        )
        .unwrap();
        let e = run(&["grid".to_string(), bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.contains("bad.toml") && e.contains("alpha"), "{e}");
    }

    #[test]
    fn grid_list_expands_without_running() {
        let dir = std::env::temp_dir().join("collapois-cli-grid-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list.toml");
        std::fs::write(
            &path,
            "schema_version = 1\nname = \"list\"\n[base]\nrounds = 2\neval_every = 2\n\
             [axes]\ndefense = [\"none\", \"krum\"]\n",
        )
        .unwrap();
        let argv = vec![
            "grid".to_string(),
            path.to_string_lossy().into_owned(),
            "--list".to_string(),
            "true".to_string(),
        ];
        assert!(run(&argv).is_ok());
    }

    #[test]
    fn default_report_path_is_derived_from_the_scenario_stem() {
        assert_eq!(
            default_report_path("scenarios/smoke.toml"),
            PathBuf::from("scenarios/smoke.report.jsonl")
        );
        assert_eq!(
            default_report_path("paper.toml"),
            PathBuf::from("paper.report.jsonl")
        );
    }
}
