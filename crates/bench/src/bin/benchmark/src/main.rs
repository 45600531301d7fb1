//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--traced]
//!     [--out PATH] [--print-digests]
//! ```
//!
//! Runs one workload (see [`workloads::WORKLOADS`]) for about `--seconds`
//! and prints every metric by name with its unit. With `--trace 0` (the
//! default) the untraced pass reports the end-to-end metrics; with
//! `--trace 1` (or `--traced`) the traced pass reports the per-layer
//! metrics. `--workload all` (the default) runs each workload in a child
//! process of its own, so peak RSS is per workload.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {NAME: {"value": .., "unit": ..}}}`.
//! `attempted` and `failed` count cells; a cell fails when it panics, does
//! not complete every round, ends with non-finite parameters, re-runs to a
//! different digest, or (at the default seed) misses its recorded digest.

mod check;
mod host;
mod replica;
mod shims;
mod stats;
mod traced;
mod untraced;
mod workloads;

use check::Verdicts;
use host::Host;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DIGEST_SEED, WORKLOADS};

/// Measured seconds per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Pool lanes per cell: the two cores of the host the bounds were set on.
/// Fixed, so results from hosts of other shapes stay comparable; the host
/// line records `host_parallelism` beside it.
const WORKERS: usize = 2;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// How the value was formed (sample count, denominator).
    pub note: String,
}

impl Metric {
    /// A metric with a note on how it was formed.
    pub fn new(name: &str, value: f64, unit: &str, note: String) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            note,
        }
    }
}

/// What one run reports.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with the correctness verdict and
    /// every metric at full precision.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back a line written by [`Outcome::to_json`].
    fn from_json(line: &str) -> Option<Self> {
        let mut tokens = line
            .split(|c: char| "{}:,\"".contains(c))
            .map(str::trim)
            .filter(|t| !t.is_empty());
        let mut field = |key: &str| (tokens.next()? == key).then(|| tokens.next()).flatten();
        let correct: bool = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        (tokens.next()? == "metrics").then_some(())?;
        let mut metrics = Vec::new();
        while let Some(name) = tokens.next() {
            let (k1, value, k2, unit) = (
                tokens.next()?,
                tokens.next()?,
                tokens.next()?,
                tokens.next()?,
            );
            (k1 == "value" && k2 == "unit").then_some(())?;
            metrics.push(Metric::new(name, value.parse().ok()?, unit, String::new()));
        }
        let out = Self {
            attempted,
            failed,
            metrics,
        };
        (correct == (failed == 0 && attempted > 0)).then_some(out)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    print_digests: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DIGEST_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        print_digests: false,
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag} takes a number, got {v:?}"))
    }
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => {
                args.seconds = number(flag, value()?)?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
            },
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {:?} (all|{})",
            args.workload,
            names.join("|")
        ));
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(w: &'static Workload, args: &Args, host: &Host) -> Outcome {
    let cells = w.cells(args.seed);
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| panic!("cannot create {tmp:?}: {e}"));
    let mut verdicts = Verdicts::new(w.name, args.seed);
    let pass = if args.traced { "traced" } else { "untraced" };
    println!(
        "workload {} ({pass}, seed {}, {} s, workers {WORKERS})",
        w.name, args.seed, args.seconds
    );

    let metrics = if args.traced {
        let probes = traced::Probes::run(&cells[0]);
        let t = traced::run(&cells, args.seconds, WORKERS, &tmp, &mut verdicts);
        traced::metrics(&t, &probes, host, WORKERS)
    } else {
        let runs = untraced::run(&cells, args.seconds, WORKERS, &tmp, &mut verdicts);
        let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        print_timing(
            "cell_s",
            runs.iter().map(|r| r.wall_s * 1e3).collect(),
            "ms",
        );
        print_timing(
            "round_ms",
            runs.iter()
                .flat_map(|r| stats::steady_window(&r.rounds))
                .collect(),
            "ms",
        );
        let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
        println!("  wall {wall:.3} s over {} cells", runs.len());
        if runs.is_empty() {
            Vec::new()
        } else {
            untraced::metrics(&runs, peak_rss_mb)
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");

    println!(
        "  digest {:016x} over {} passing cells",
        verdicts.digest(),
        verdicts.attempted - verdicts.failed()
    );
    if args.print_digests {
        for (index, d) in verdicts.distinct() {
            println!(
                "{} {index} {:016x} {} {:016x}",
                w.name, d.event_hash, d.event_count, d.params_hash
            );
        }
    }
    for f in &verdicts.failures {
        println!("  FAILED {f}");
    }
    Outcome {
        attempted: verdicts.attempted,
        failed: verdicts.failed(),
        metrics,
    }
}

/// Prints a timing's sample count, median and every tail percentile with
/// enough samples beyond it.
fn print_timing(name: &str, samples: Vec<f64>, unit: &str) {
    let v = stats::sorted(samples);
    if v.is_empty() {
        return;
    }
    let mut line = format!("  {name}: n={}", v.len());
    let tail = stats::tail_percentile(v.len()).unwrap_or(50.0);
    for p in stats::PRINTED_PERCENTILES
        .iter()
        .rev()
        .filter(|&&p| p <= tail)
    {
        line.push_str(&format!(" p{p}={:.4}", stats::percentile(&v, *p)));
    }
    println!("{line} {unit}");
}

/// Runs every workload in a child process of its own and merges their
/// results, naming each metric `WORKLOAD.METRIC`.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut merged = Outcome::default();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.print_digests {
            cmd.arg("--print-digests");
        }
        let out = cmd
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("cannot run the {} child: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (body, last) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{body}");
        let child = Outcome::from_json(last)
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("the {} child failed ({})", w.name, out.status))?;
        println!("  result {last}");
        merged.attempted += child.attempted;
        merged.failed += child.failed;
        merged
            .metrics
            .extend(child.metrics.into_iter().map(|m| Metric {
                name: format!("{}.{}", w.name, m.name),
                ..m
            }));
    }
    Ok(merged)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe(WORKERS);
    println!("host {}", host.to_json());
    let outcome = match workloads::find(&args.workload) {
        Some(w) => run_workload(w, &args, &host),
        None => match run_all(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>16.6} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let line = outcome.to_json();
    if let Some(path) = &args.out {
        if let Err(e) = write_out(path, &host, &line) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Writes the host context and the result line to `path`.
fn write_out(path: &Path, host: &Host, line: &str) -> std::io::Result<()> {
    std::fs::write(path, format!("{}\n{line}\n", host.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.012_345_678_9, "s", String::new()),
                Metric::new("fl.local_train_ms", 1e-9, "ms/round", String::new()),
            ],
        };
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}"));
        assert_eq!(Outcome::from_json(&line), Some(o));
        assert_eq!(Outcome::from_json("not json"), None);
    }

    #[test]
    fn arguments_follow_the_benchmark_command_line() {
        let argv: Vec<String> = [
            "--workload",
            "krum256",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("krum256", 7, 3.0, true)
        );
        assert_eq!(parse_args(&[]).expect("defaults").workload, "all");
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--bogus"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&argv).is_err(), "{bad:?}");
        }
    }
}
