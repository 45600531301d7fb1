//! Grid conformance harness (tier-1).
//!
//! Runs the committed CI smoke grid (`scenarios/smoke.toml` — 3 attacks ×
//! 3 defenses × {plain, faulted, quant-f16, quant-int8, scaffold})
//! end to end and pins every
//! cell's canonical trace-event hash against the committed fixture
//! `tests/fixtures/golden_grid_smoke.txt`. An inline buffered-async sim
//! grid pins the two defenses sim mode accepts. Each grid is executed at
//! two worker counts and the JSONL reports must be byte-identical — the
//! determinism contract the scenario matrix inherits from the runtime
//! engine.
//!
//! If a change *intentionally* alters training behavior, regenerate the
//! fixture by running this test and copying the `actual fixture block`
//! from the failure message into the fixture file, and call the change
//! out in the PR description.

use collapois_grid::runner::{run_grid, CellStatus, GridRunOptions};
use collapois_grid::schema::GridSpec;
use collapois_runtime::json::{self, Value};
use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("collapois-grid-matrix-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_to(spec: &GridSpec, name: &str, opts: &GridRunOptions) -> String {
    let out = tmp(name);
    let _ = std::fs::remove_file(&out);
    let outcome = run_grid(spec, &out, opts, |_, _| {}).unwrap();
    assert!(outcome.complete(), "grid did not finish: {outcome:?}");
    std::fs::read_to_string(&out).unwrap()
}

/// Runs `spec` at workers 1 and 2, asserts the reports are byte-identical,
/// and returns the workers=1 report.
fn run_at_workers_1_and_2(spec: &GridSpec, name: &str) -> String {
    let [w1, w2] = [1, 2].map(|workers| {
        run_to(
            spec,
            &format!("{name}_w{workers}.jsonl"),
            &GridRunOptions {
                workers,
                ..GridRunOptions::default()
            },
        )
    });
    assert_eq!(
        w1, w2,
        "grid reports must be byte-identical across worker counts"
    );
    w1
}

/// The report's rows, parsed.
fn rows(report: &str) -> Vec<Value> {
    report
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad row {line}: {e}")))
        .collect()
}

/// One `cell event_hash event_count` line per report row (the fixture
/// format).
fn digests(report: &str) -> String {
    rows(report)
        .iter()
        .map(|row| {
            format!(
                "{} {} {}\n",
                row.get_str("cell").expect("cell field"),
                row.get_str("event_hash").expect("event_hash field"),
                row.get_int::<u64>("event_count")
                    .expect("event_count field"),
            )
        })
        .collect()
}

#[test]
fn smoke_grid_matches_golden_fixture_and_is_worker_count_invariant() {
    let spec = GridSpec::parse(&repo_file("scenarios/smoke.toml")).unwrap();
    let cells = spec.cells().unwrap();
    assert_eq!(cells.len(), 45, "the CI smoke matrix is 3x3x5");

    let actual = digests(&run_at_workers_1_and_2(&spec, "smoke"));
    let expected = repo_file("tests/fixtures/golden_grid_smoke.txt");
    assert_eq!(
        actual, expected,
        "smoke-grid event hashes diverged from the golden fixture; if the \
         behavior change is intentional, replace the fixture with this \
         actual fixture block:\n{actual}"
    );
}

/// The smoke grid's `[base]` on the buffered-async simulator, over the
/// two defenses sim mode accepts.
const SIM_GRID: &str = r#"
schema_version = 1
name = "smoke-sim"

[base]
dataset = "image"
clients = 10
samples_per_client = 16
alpha = 1.0
compromised_frac = 0.4
algo = "fedavg"
model = "mlp"
rounds = 3
local_steps = 2
batch_size = 8
client_lr = 0.1
server_lr = 1.0
sample_rate = 0.5
eval_every = 3
seed = 42
poison_fraction = 0.5
trojan_epochs = 6
sim.enabled = true
sim.arrival_mean_ms = 20.0
sim.train_mean_ms = 30.0
sim.buffer_k = 4
sim.max_concurrency = 8

[axes]
attack = ["collapois", "label-flip", "semantic"]
defense = ["none", "fine-prune"]
"#;

#[test]
fn sim_grid_matches_pinned_hashes_and_is_worker_count_invariant() {
    let spec = GridSpec::parse(SIM_GRID).unwrap();
    assert_eq!(spec.cells().unwrap().len(), 6);
    let actual = digests(&run_at_workers_1_and_2(&spec, "sim"));
    // The defense=none cells are the plain FedBuff flush pipeline, pinned
    // since the simulator landed. Fine-pruning runs after flush 1
    // (fp_every = 2), and one flush-2 client trains on the pruned model.
    // Under collapois and semantic the pruned units are inactive on that
    // client's data, so its update and the trace are unchanged and only
    // the final model moves (asserted in the core and fl unit tests).
    // Under label-flip, live units are pruned and the update norm moves.
    let expected = [
        ("collapois", "0x1a658871b00878b9", "0x1a658871b00878b9"),
        ("label-flip", "0x2f3103b4934cbdbd", "0x6e0702ef450278f5"),
        ("semantic", "0x519252b71e905d9f", "0x519252b71e905d9f"),
    ];
    let mut pinned = String::new();
    for (attack, none, pruned) in expected {
        pinned += &format!("attack={attack}+defense=none {none} 61\n");
        pinned += &format!("attack={attack}+defense=fine-prune {pruned} 61\n");
    }
    assert_eq!(actual, pinned, "sim-grid event hashes diverged");
}

const TINY: &str = r#"
schema_version = 1
name = "kill-test"

[base]
clients = 8
samples_per_client = 12
alpha = 1.0
compromised_frac = 0.5
attack = "dpois"
rounds = 2
eval_every = 2
local_steps = 2
batch_size = 8
sample_rate = 0.5

[axes]
defense = ["none", "median"]
seed = [7, 8]
"#;

#[test]
fn killed_and_resumed_grid_concatenates_byte_identically() {
    let spec = GridSpec::parse(TINY).unwrap();
    assert_eq!(spec.cells().unwrap().len(), 4);

    // Reference: one uninterrupted run.
    let reference = run_to(&spec, "kill_ref.jsonl", &GridRunOptions::default());

    // Interrupted run: two cells, then a kill mid-write (torn third line),
    // then two resumes.
    let out = tmp("kill_resumed.jsonl");
    let _ = std::fs::remove_file(&out);
    let o1 = run_grid(
        &spec,
        &out,
        &GridRunOptions {
            limit: 2,
            ..GridRunOptions::default()
        },
        |_, _| {},
    )
    .unwrap();
    assert_eq!((o1.executed, o1.remaining), (2, 2));

    let partial = std::fs::read_to_string(&out).unwrap();
    std::fs::write(&out, format!("{partial}{{\"cell\":\"torn")).unwrap();

    let mut statuses = Vec::new();
    let o2 = run_grid(
        &spec,
        &out,
        &GridRunOptions {
            limit: 1,
            ..GridRunOptions::default()
        },
        |_, s| statuses.push(s),
    )
    .unwrap();
    assert_eq!((o2.skipped, o2.executed, o2.remaining), (2, 1, 1));
    assert_eq!(
        statuses,
        vec![
            CellStatus::Skipped,
            CellStatus::Skipped,
            CellStatus::Executed
        ]
    );
    let o3 = run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
    assert_eq!((o3.skipped, o3.executed, o3.remaining), (3, 1, 0));

    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        reference,
        "kill + resume must concatenate to the uninterrupted bytes"
    );
}

#[test]
fn cell_reports_expose_one_schema_regardless_of_configuration() {
    // Two cells differing only in the aggregator; a faulted collapois sim
    // sweep would exercise the same contract, but the aggregator is the
    // axis the paper's Table I compares, so it is the one pinned here.
    let spec = GridSpec::parse(
        r#"
schema_version = 1
name = "comparability"

[base]
clients = 8
samples_per_client = 12
alpha = 1.0
compromised_frac = 0.5
attack = "label-flip"
rounds = 2
eval_every = 2
local_steps = 2
batch_size = 8
sample_rate = 0.5

[axes]
defense = ["none", "krum"]
"#,
    )
    .unwrap();
    let text = run_to(&spec, "comparability.jsonl", &GridRunOptions::default());
    let rows = rows(&text);
    assert_eq!(rows.len(), 2);
    let keys = |row: &Value| -> Vec<String> {
        let members = row.as_object().expect("a row is an object");
        members.iter().map(|(k, _)| k.clone()).collect()
    };
    let keys0 = keys(&rows[0]);
    assert_eq!(
        keys0,
        keys(&rows[1]),
        "cells differing only in aggregator must emit identical report schemas"
    );
    assert!(!keys0.is_empty());
    assert_eq!(rows[0].get_str("defense").unwrap(), "none");
    assert_eq!(rows[1].get_str("defense").unwrap(), "krum");
    // Hash fields survive as full-precision hex strings.
    for row in &rows {
        let h = row.get_str("event_hash").unwrap();
        assert!(h.starts_with("0x") && h.len() == 18, "{h}");
        u64::from_str_radix(&h[2..], 16).unwrap();
    }
}
