//! `collapois` — command-line experiment runner for the CollaPois
//! reproduction.
//!
//! ```text
//! collapois run   [CELL FLAGS] [--topk K] [--repeats R] [--workers W]
//!                 [--trace FILE] [--checkpoint-dir DIR] [--checkpoint-every E]
//!                 [--resume true] [--monitor true] [--profile-rounds true]
//! collapois sweep [CELL FLAGS] [--workers W] — alpha sweep
//! collapois grid  SCENARIOS.toml [--out REPORT.jsonl] [--workers W]
//!                 [--fresh true] [--limit N] [--list true] — scenario matrix
//! collapois report REPORT.jsonl — a grid report's figure tables
//! collapois bound [--a 0.9] [--b 1.0] [--clients N] — Theorem 1 table
//! collapois trace --file RUN.jsonl — inspect a structured run trace
//! collapois help   (or -h / --help anywhere on the command line)
//! ```
//!
//! Each cell flag sets one `grid::schema` key ([`CELL_FLAGS`]), so `run`
//! and `sweep` accept what a scenario file accepts and fail its validation
//! with `error:` before anything runs. `run` is a grid of one cell per
//! `--repeats` seed (default one), `sweep` a grid with an `alpha` axis (so
//! it refuses `--alpha`).
//! Vocabularies: attack collapois|dpois|mrepl|dba|label-flip|semantic|none
//! (or lflip, clean); defense none|dp|norm-bound|krum|rlr|median|trimmed-mean|
//! signsgd|flare|crfl|stat-filter|user-dp|fine-prune (or fine_prune); algo
//! fedavg|feddc|metafed|ditto|clustered|scaffold; dataset image|text; model
//! mlp|cnn; quant f32|f16|int8; cohort auto|eager|lazy.

mod args;
mod report;

use args::Args;
use collapois_core::scenario::{DatasetKind, RunOptions, Scenario, ScenarioReport};
use collapois_core::theory::theorem1_bound;
use collapois_fl::server::round_records_from_events;
use collapois_grid::report::CellReport;
use collapois_grid::runner::{run_grid, CellStatus, GridRunOptions};
use collapois_grid::schema::{CellSpec, GridCell, GridSpec, SCHEMA_VERSION};
use collapois_grid::toml::{self, TomlTable, TomlValue};
use collapois_runtime::trace::{read_trace, TraceEvent};
use collapois_stats::descriptive::{mean, std_dev};
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
    let args = Args::parse(argv.iter().map(String::as_str))?;
    // `grid` and `report` take their file as a positional; every other
    // command takes none.
    if !matches!(args.command.as_deref(), Some("grid" | "report")) {
        args.expect_no_positionals()?;
    }
    match args.command.as_deref() {
        Some("run") => cmd_run(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("grid") => cmd_grid(&args),
        Some("report") => cmd_report(&args),
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
         \u{20}  sweep  sweep the Dirichlet alpha (0.01 to 100; no --alpha) for a fixed configuration\n\
         \u{20}  grid   run a declarative scenario matrix from a TOML file\n\
         \u{20}  report print a grid report's figure tables (collapois report REPORT.jsonl)\n\
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
         cell options (run and sweep; each sets one grid-schema key and is\n\
         validated like a scenario file before anything runs):\n\
         \u{20}  --dataset image|text   --alpha A (0.1)   --frac F (0.01)   --seed S\n\
         \u{20}  --attack collapois|dpois|mrepl|dba|label-flip|semantic|none\n\
         \u{20}  --defense none|dp|norm-bound|krum|rlr|median|trimmed-mean|signsgd|\n\
         \u{20}            flare|crfl|stat-filter|user-dp|fine-prune\n\
         \u{20}  --algo fedavg|feddc|metafed|ditto|clustered|scaffold\n\
         \u{20}  --model mlp|cnn   --rounds T   --clients N\n\
         \u{20}  --quant f32|f16|int8   client-update codec, a deterministic RNE round-trip\n\
         \u{20}  --cohort auto|eager|lazy   shard materialization (auto: lazy at >= 1024)\n\
         \u{20}  --shard-budget-mb MB   lazy-shard LRU byte budget (0 = 256 MB)\n\n\
         fault injection (deterministic per seed; faults land in the trace):\n\
         \u{20}  --fault-dropout P        per-client per-round dropout probability\n\
         \u{20}  --fault-straggler P      per-client straggler probability\n\
         \u{20}  --fault-delay-ms M       mean straggler delay (exponential), ms\n\
         \u{20}  --fault-deadline-ms D    round deadline shedding stragglers (0 = none)\n\
         \u{20}  --fault-corrupt P        per-client in-flight corruption probability\n\
         \u{20}  --fault-checkpoint P     per-attempt checkpoint-write failure probability\n\n\
         buffered-async simulation (discrete-event, deterministic per seed; any\n\
         --sim-* flag implies --sim true; --rounds sets the flush target; only\n\
         --defense none|fine-prune, and no active fault plan):\n\
         \u{20}  --sim true             run FedBuff on the virtual-time simulator\n\
         \u{20}  --sim-arrival-ms A     mean Poisson inter-arrival gap per client, ms\n\
         \u{20}  --sim-train-ms T       mean virtual training duration, ms\n\
         \u{20}  --sim-buffer K         flush after K buffered completions\n\
         \u{20}  --sim-deadline-ms D    virtual flush deadline (0 = none)\n\
         \u{20}  --sim-decay P          staleness weight exponent (1+s)^-P\n\
         \u{20}  --sim-up-ms U          mean available stretch for churn (0 = no churn)\n\
         \u{20}  --sim-down-ms D        mean offline stretch for churn\n\
         \u{20}  --sim-concurrency C    max clients training at once\n\n\
         execution (run only, except --workers; bit-identical for any W):\n\
         \u{20}  --workers W            fan benign training over W threads\n\
         \u{20}  --topk K               report the top-K% clients, 0 < K <= 100 (25)\n\
         \u{20}  --repeats R            run seeds S, S+1000003, ...; print mean +/- std\n\
         \u{20}  --trace FILE           write a JSONL run trace\n\
         \u{20}  --checkpoint-dir DIR   write periodic snapshots into DIR\n\
         \u{20}  --checkpoint-every E   snapshot cadence in rounds (default 5)\n\
         \u{20}  --resume true          resume from the newest intact snapshot in DIR\n\
         \u{20}  --monitor true         emit shift-detector alerts into the trace\n\
         \u{20}  --profile-rounds true  print the per-phase round-loop breakdown"
    );
}

/// `(flag, grid key)` for every `run`/`sweep` flag that sets a cell key.
/// The given flags become the `[base]` of a grid that `grid::schema`
/// validates and expands — the same code `collapois grid` runs.
const CELL_FLAGS: &[(&str, &str)] = &[
    ("dataset", "dataset"),
    ("alpha", "alpha"),
    ("frac", "compromised_frac"),
    ("attack", "attack"),
    ("defense", "defense"),
    ("algo", "algo"),
    ("model", "model"),
    ("rounds", "rounds"),
    ("clients", "clients"),
    ("seed", "seed"),
    ("quant", "quantization"),
    ("cohort", "cohort"),
    ("shard-budget-mb", "shard_budget_mb"),
    ("fault-dropout", "fault.dropout"),
    ("fault-straggler", "fault.straggler"),
    ("fault-delay-ms", "fault.straggler_mean_ms"),
    ("fault-deadline-ms", "fault.deadline_ms"),
    ("fault-corrupt", "fault.corrupt"),
    ("fault-checkpoint", "fault.checkpoint_fail"),
    ("sim", "sim.enabled"),
    ("sim-arrival-ms", "sim.arrival_mean_ms"),
    ("sim-train-ms", "sim.train_mean_ms"),
    ("sim-buffer", "sim.buffer_k"),
    ("sim-deadline-ms", "sim.flush_deadline_ms"),
    ("sim-decay", "sim.staleness_decay"),
    ("sim-up-ms", "sim.churn_up_ms"),
    ("sim-down-ms", "sim.churn_down_ms"),
    ("sim-concurrency", "sim.max_concurrency"),
];

/// `run`'s flags that steer how its cells execute rather than what they
/// are. `sweep` takes only `--workers`: its cells' files would collide.
const EXEC_FLAGS: &[&str] = &[
    "workers",
    "trace",
    "checkpoint-dir",
    "checkpoint-every",
    "resume",
    "monitor",
    "profile-rounds",
    "topk",
    "repeats",
];

/// The grid the flags describe: `[base]` is the CLI defaults overlaid with
/// every given cell flag, and `axis` is its one axis. A bad flag fails
/// here, before anything runs, naming the grid key it sets.
fn flag_cells(
    args: &Args,
    exec_flags: &[&str],
    (axis, values): (&str, Vec<TomlValue>),
) -> Result<Vec<GridCell>, String> {
    let known: Vec<&str> = CELL_FLAGS.iter().map(|&(flag, _)| flag).collect();
    if let Some(k) = args.unknown_key(&[&known, exec_flags].concat()) {
        return Err(format!("unknown option --{k}"));
    }
    // A bare word such as `krum` is not a TOML value: it is the string.
    let value = |t: &str| toml::parse_value(t).unwrap_or_else(|_| TomlValue::Str(t.into()));
    let given = CELL_FLAGS
        .iter()
        .filter_map(|&(flag, key)| Some((key, value(args.get(flag)?))));
    // The CLI's defaults where they differ from the schema's; any `--sim-*`
    // knob implies `--sim true`.
    let rounds: usize = args.get_or("rounds", CellSpec::default().config.rounds)?;
    let sim_knob = CELL_FLAGS
        .iter()
        .any(|(f, _)| f.starts_with("sim-") && args.get(f).is_some());
    let defaults = [
        ("alpha", TomlValue::Float(0.1)),
        ("compromised_frac", TomlValue::Float(0.01)),
        ("eval_every", TomlValue::Int((rounds / 4).max(1) as i64)),
        ("sim.enabled", TomlValue::Bool(sim_knob)),
    ];
    // Given flags first, so a default fills only the keys no flag set.
    let mut base = TomlTable::new();
    for (key, value) in given.chain(defaults) {
        if base.get_path(key).is_none() {
            base.insert_path(&key.split('.').collect::<Vec<_>>(), value)?;
        }
    }
    let mut axes = TomlTable::new();
    axes.insert(axis, TomlValue::Array(values))?;
    let mut root = TomlTable::new();
    root.insert("schema_version", TomlValue::Int(SCHEMA_VERSION))?;
    root.insert("name", TomlValue::Str("cli".into()))?;
    root.insert("base", TomlValue::Table(base))?;
    root.insert("axes", TomlValue::Table(axes))?;
    let spec = GridSpec::from_table(&root).map_err(|e| e.to_string())?;
    spec.cells().map_err(|e| e.to_string())
}

/// `run`'s cells: one per seed s, s + 1,000,003, … of `--repeats R` (the
/// paper repeats every experiment and reports mean ± std). A seed past
/// `i64::MAX` wraps negative and fails the schema's seed check.
fn run_cells(args: &Args, repeats: usize) -> Result<Vec<GridCell>, String> {
    let seed: u64 = args.get_or("seed", CellSpec::default().config.seed)?;
    let seeds = (0..repeats as u64).map(|r| seed.wrapping_add(r * 1_000_003) as i64);
    let seeds = seeds.map(TomlValue::Int).collect();
    flag_cells(args, EXEC_FLAGS, ("seed", seeds))
}

/// `sweep`'s cells: one per Dirichlet α of the paper's sweep. It refuses
/// `--alpha`, which its axis would override.
fn sweep_cells(args: &Args) -> Result<Vec<GridCell>, String> {
    if args.get("alpha").is_some() {
        return Err("option --alpha: sweep runs its own alpha axis (0.01 to 100)".into());
    }
    let alphas = [0.01, 0.1, 1.0, 10.0, 100.0].map(TomlValue::Float);
    flag_cells(args, &["workers"], ("alpha", alphas.to_vec()))
}

/// Runs one cell under `opts` with the cell's own fault plan and sim knobs,
/// as `run_grid` does.
fn run_cell(cell: &GridCell, opts: &RunOptions) -> ScenarioReport {
    Scenario::new(cell.spec.config.clone()).run_with(&RunOptions {
        fault: cell.spec.fault,
        sim: cell.spec.sim_enabled.then_some(cell.spec.sim),
        ..opts.clone()
    })
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let topk: f64 = args.get_or("topk", 25.0)?;
    if !(topk > 0.0 && topk <= 100.0) {
        return Err(format!("option --topk: {topk} is outside (0, 100]"));
    }
    let repeats: usize = args.get_or("repeats", 1)?;
    if repeats == 0 {
        return Err("option --repeats: need at least one run".into());
    }
    let opts = RunOptions {
        workers: args.get_or("workers", 1)?,
        trace_path: args.get("trace").map(PathBuf::from),
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        checkpoint_every: args.get_or("checkpoint-every", 0)?,
        resume: args.get_or("resume", false)?,
        monitor: args.get_or("monitor", false)?,
        ..RunOptions::default()
    };
    // The report always carries the round-loop profile; this asks to print it.
    let profile_rounds: bool = args.get_or("profile-rounds", false)?;
    if repeats > 1 && (opts.trace_path.is_some() || opts.checkpoint_dir.is_some()) {
        return Err("--repeats runs would overwrite their --trace/--checkpoint-dir files".into());
    }
    let cells = run_cells(args, repeats)?;
    if repeats > 1 {
        let (acs, srs): (Vec<f64>, Vec<f64>) = cells
            .iter()
            .map(|cell| {
                let report = run_cell(cell, &opts);
                let last = report.final_round();
                (last.benign_accuracy, last.attack_success_rate)
            })
            .unzip();
        println!(
            "{repeats} runs: benign AC {:.2}% +/- {:.2}, attack SR {:.2}% +/- {:.2}",
            100.0 * mean(&acs),
            100.0 * std_dev(&acs),
            100.0 * mean(&srs),
            100.0 * std_dev(&srs)
        );
        return Ok(());
    }
    let cell = &cells[0];
    let cfg = &cell.spec.config;
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
    if cell.spec.sim_enabled {
        let knobs = &cell.spec.sim;
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
    let report = run_cell(cell, &opts);
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
    if profile_rounds {
        println!(
            "\nper-round profile: {}",
            report.profile.per_round_summary()
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let cells = sweep_cells(args)?;
    let opts = RunOptions {
        workers: args.get_or("workers", 1)?,
        ..RunOptions::default()
    };
    let base = &cells[0].spec.config;
    println!(
        "alpha sweep: attack={} defense={} algo={}",
        base.attack.name(),
        base.defense.name(),
        base.algo.name()
    );
    println!("{:<8} {:>10} {:>10}", "alpha", "benign AC", "attack SR");
    for cell in &cells {
        let report = run_cell(cell, &opts);
        let last = report.final_round();
        println!(
            "{:<8} {:>9.2}% {:>9.2}%",
            cell.spec.config.alpha,
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
    args.expect_at_most_positionals(1)?;
    let scenario_path = args
        .positional(0)
        .ok_or("grid requires a scenario file: collapois grid SCENARIOS.toml")?;
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
    if args.get_or("list", false)? {
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
        workers: args.get_or("workers", 0)?,
        fresh: args.get_or("fresh", false)?,
        limit: args.get_or("limit", 0)?,
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

/// `collapois report REPORT.jsonl`: reads every row and prints the figure
/// tables. It takes no options and writes nothing.
fn cmd_report(args: &Args) -> Result<(), String> {
    if let Some(k) = args.unknown_key(&[]) {
        return Err(format!("unknown option --{k}"));
    }
    args.expect_at_most_positionals(1)?;
    let path = args
        .positional(0)
        .ok_or("report requires a grid report: collapois report REPORT.jsonl")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows = text
        .lines()
        .enumerate()
        .map(|(i, line)| CellReport::from_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    print!(
        "{}",
        report::render(&rows).map_err(|e| format!("{path}: {e}"))?
    );
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
    let a: f64 = args.get_or("a", 0.9)?;
    let b: f64 = args.get_or("b", 1.0)?;
    let n: usize = args.get_or("clients", 1000)?;
    if !(0.0 < a && a < b && b <= 1.0) {
        return Err("psi range must satisfy 0 < a < b <= 1".into());
    }
    if n == 0 {
        return Err("option --clients: the bound needs at least one client".into());
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

    fn argv(tokens: &str) -> Vec<String> {
        tokens.split(' ').map(String::from).collect()
    }

    /// The one cell `run` resolves `tokens` to.
    fn run_spec(tokens: &str) -> CellSpec {
        let args = Args::parse(argv(tokens)).unwrap();
        run_cells(&args, 1).unwrap().remove(0).spec
    }

    /// The one cell of a grid file whose `[base]` holds `assignments`.
    fn grid_spec(assignments: &[(&str, String)]) -> CellSpec {
        let mut doc = "schema_version = 1\nname = \"t\"\n[base]\n".to_string();
        for (key, value) in assignments {
            doc.push_str(&format!("{key} = {value}\n"));
        }
        GridSpec::parse(&doc)
            .unwrap()
            .cells()
            .unwrap()
            .remove(0)
            .spec
    }

    #[test]
    fn every_cell_flag_resolves_like_its_grid_key() {
        for &(flag, key) in CELL_FLAGS {
            // A valid value other than the default, as a TOML literal.
            let literal = match key {
                "dataset" => "\"text\"",
                "alpha" => "0.5",
                "compromised_frac" => "0.05",
                "attack" => "\"dpois\"",
                "defense" => "\"krum\"",
                "algo" => "\"feddc\"",
                "model" => "\"cnn\"",
                "rounds" => "12",
                "clients" => "30",
                "seed" => "9",
                "quantization" => "\"int8\"",
                "cohort" => "\"lazy\"",
                "shard_budget_mb" => "64",
                "sim.enabled" => "true",
                "sim.buffer_k" | "sim.max_concurrency" => "3",
                // Every other key is a probability, a duration or a rate.
                _ => "0.25",
            };
            let cli = run_spec(&format!("run --{flag} {}", literal.trim_matches('"')));
            // The grid file spells out the CLI defaults, then `key = value`.
            let rounds = if key == "rounds" { 12 } else { 40 };
            let mut base = vec![
                ("alpha", "0.1".to_string()),
                ("compromised_frac", "0.01".to_string()),
                ("eval_every", (rounds / 4).to_string()),
            ];
            if flag.starts_with("sim-") {
                base.push(("sim.enabled", "true".to_string()));
            }
            base.retain(|&(k, _)| k != key);
            base.push((key, literal.to_string()));
            assert_eq!(cli, grid_spec(&base), "--{flag} vs {key}");
            assert_ne!(cli, run_spec("run"), "--{flag} has an effect");
        }
    }

    #[test]
    fn cli_defaults_differ_from_the_schema_only_where_documented() {
        let cell = run_spec("run");
        let mut expected = CellSpec::default();
        expected.config.alpha = 0.1;
        expected.config.compromised_frac = 0.01;
        assert_eq!(cell, expected);
        assert_eq!(cell.config.eval_every, 10, "40 rounds / 4");
        assert!(!cell.sim_enabled);
        assert_eq!(run_spec("run --rounds 12").config.eval_every, 3);
        assert_eq!(run_spec("run --rounds 3").config.eval_every, 1);
        // Any single `--sim-*` knob turns sim mode on.
        for &(flag, _) in CELL_FLAGS.iter().filter(|(f, _)| f.starts_with("sim-")) {
            assert!(run_spec(&format!("run --{flag} 4")).sim_enabled, "--{flag}");
        }
    }

    #[test]
    fn repeats_add_a_seed_axis_of_distinct_runs() {
        let seeds =
            |cells: &[GridCell]| cells.iter().map(|c| c.spec.config.seed).collect::<Vec<_>>();
        let cells = run_cells(&Args::parse(argv("run")).unwrap(), 2).unwrap();
        assert_eq!(seeds(&cells), [42, 1_000_045]);
        let args = Args::parse(argv("run --rounds 2 --clients 8 --attack none --seed 5")).unwrap();
        let cells = run_cells(&args, 3).unwrap();
        assert_eq!(seeds(&cells), [5, 1_000_008, 2_000_011]);
        let finals: Vec<Vec<f32>> = cells
            .iter()
            .map(|cell| run_cell(cell, &RunOptions::default()).final_global)
            .collect();
        assert_ne!(finals[0], finals[1]);
        assert_ne!(finals[1], finals[2]);
    }

    #[test]
    fn sweep_is_an_alpha_axis_over_every_cell_flag() {
        let sweep = |tokens: &str| sweep_cells(&Args::parse(argv(tokens)).unwrap()).unwrap();
        let cells = sweep("sweep --fault-dropout 0.2 --workers 2");
        let alphas: Vec<f64> = cells.iter().map(|c| c.spec.config.alpha).collect();
        assert_eq!(alphas, [0.01, 0.1, 1.0, 10.0, 100.0]);
        assert!(cells.iter().all(|c| c.spec.fault.dropout == 0.2));
        let cells = sweep("sweep --sim true --defense fine-prune");
        assert!(cells.iter().all(|c| c.spec.sim_enabled));
    }

    #[test]
    fn sweep_refuses_the_alpha_its_axis_would_override() {
        let e = sweep_cells(&Args::parse(argv("sweep --alpha 0.5")).unwrap()).unwrap_err();
        assert!(e.contains("--alpha"), "{e}");
        // `run` derives its seed axis from `--seed`, so it keeps the flag.
        let cells = run_cells(&Args::parse(argv("run --seed 7")).unwrap(), 1).unwrap();
        assert_eq!(cells[0].spec.config.seed, 7);
    }

    #[test]
    fn invalid_configs_fail_before_running_and_name_their_flag_or_key() {
        for (tokens, needle) in [
            ("run --defense fine-prune --model cnn", "model"),
            ("run --clients 0", "clients"),
            ("run --rounds 0", "rounds"),
            ("sweep --rounds 0", "rounds"),
            ("run --alpha 0", "alpha"),
            ("run --clients 1", "clients"),
            ("run --frac 2", "compromised_frac"),
            ("run --sim true --fault-dropout 0.2", "fault"),
            ("run --sim-decay -1", "sim.staleness_decay"),
            ("run --model lenet", "model"),
            ("run --seed 9223372036854775808", "seed"),
            ("run --topk 0", "--topk"),
            ("run --topk NaN", "--topk"),
            ("run --repeats 0", "--repeats"),
            ("run --repeats 2 --trace x", "--trace"),
            ("sweep --sim true --defense krum", "sim"),
            ("sweep --trace x", "--trace"),
            ("sweep --alpha 0.5", "--alpha"),
        ] {
            let e = run(&argv(tokens)).unwrap_err();
            assert!(e.contains(needle), "{tokens}: {e}");
        }
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
        let e = run(&argv("bound --clients 0")).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
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
    fn report_command_validates_input() {
        let e = run(&argv("report")).unwrap_err();
        assert!(e.contains("REPORT.jsonl"), "{e}");
        let e = run(&argv("report /nonexistent/r.jsonl")).unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
        let e = run(&argv("report a.jsonl b.jsonl")).unwrap_err();
        assert!(e.contains("b.jsonl"), "{e}");
        let e = run(&argv("report a.jsonl --out x")).unwrap_err();
        assert!(e.contains("--out"), "{e}");
        // A row the reader cannot take is named by file and line.
        let dir = std::env::temp_dir().join("collapois-cli-report-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("old.jsonl");
        std::fs::write(&bad, "{\"schema_version\":1}\n").unwrap();
        let e = run(&["report".to_string(), bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.contains("old.jsonl:1") && e.contains("version 1"), "{e}");
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
