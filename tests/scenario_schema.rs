//! Property-based and negative tests over the scenario-matrix schema
//! (satellite of the grid conformance harness in `tests/grid_matrix.rs`).
//!
//! A cell's config hash is a function of its resolved settings, not of how
//! the file spells them, and every committed grid expands to its pinned
//! cells. Malformed documents (unknown keys, out-of-range α, fractions
//! above 1, type confusion, a variant overriding an axis, an axis listing
//! one setting twice) surface as
//! *typed* [`SchemaError`]s naming the offending key, never as
//! silently-defaulted or mislabelled cells.

use collapois_grid::schema::{GridSpec, SchemaError, SCHEMA_VERSION};
use collapois_grid::toml::fmt_float;
use collapois_runtime::checkpoint::fnv1a;
use proptest::prelude::*;
use std::path::Path;

/// Builds a scenario document from generated knobs.
fn doc(
    alpha: f64,
    frac: f64,
    clients: usize,
    rounds: usize,
    seed: u64,
    dropout: f64,
    workers: usize,
) -> String {
    format!(
        "schema_version = {SCHEMA_VERSION}\n\
         name = \"prop\"\n\
         [run]\n\
         workers = {workers}\n\
         [base]\n\
         alpha = {}\n\
         compromised_frac = {}\n\
         clients = {clients}\n\
         samples_per_client = 10\n\
         rounds = {rounds}\n\
         eval_every = 1\n\
         seed = {seed}\n\
         quantization = \"f16\"\n\
         [axes]\n\
         attack = [\"collapois\", \"label-flip\", \"dpois\"]\n\
         defense = [\"none\", \"krum\"]\n\
         [variants.plain]\n\
         [variants.faulted]\n\
         fault.dropout = {}\n",
        fmt_float(alpha),
        fmt_float(frac),
        fmt_float(dropout),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The config hash is a function of the resolved settings: the same
    /// document spelled another way (keys reordered, a dotted key written
    /// under its own table header, a default written out) hashes every
    /// cell identically, while any changed value changes it.
    #[test]
    fn config_hash_tracks_resolved_settings(
        alpha_m in 1u32..2000,
        seed in 0u64..1_000_000,
        dropout_m in 0u32..=100,
    ) {
        let dropout = dropout_m as f64 / 100.0;
        let text = doc(alpha_m as f64 / 100.0, 0.5, 12, 3, seed, dropout, 0);
        let respelled = text
            .replace(
                "clients = 12\nsamples_per_client = 10\n",
                "samples_per_client = 10\ncohort = \"auto\"\nclients = 12\n",
            )
            .replace(
                "[variants.faulted]\nfault.dropout",
                "[variants.faulted.fault]\ndropout",
            );
        prop_assert_ne!(&text, &respelled);
        let hashes = |text: &str| -> Vec<u64> {
            let cells = GridSpec::parse(text).unwrap().cells().unwrap();
            cells.iter().map(|c| c.config_hash).collect()
        };
        let a = hashes(&text);
        prop_assert_eq!(a.len(), 3 * 2 * 2);
        prop_assert_eq!(&a, &hashes(&respelled));
        let other = doc(alpha_m as f64 / 100.0, 0.5, 12, 3, seed ^ 1, dropout, 0);
        prop_assert_ne!(a[0], hashes(&other)[0]);
    }

    /// Out-of-range α is always a typed OutOfRange naming `alpha`.
    #[test]
    fn nonpositive_alpha_is_a_typed_error(alpha_m in 0i64..1000) {
        let text = doc(-(alpha_m as f64) / 100.0, 0.1, 12, 3, 1, 0.0, 0);
        match GridSpec::parse(&text) {
            Err(SchemaError::OutOfRange { path, .. }) => prop_assert_eq!(path, "alpha"),
            other => prop_assert!(false, "expected OutOfRange(alpha), got {:?}", other),
        }
    }

    /// A compromised fraction above 1 is always a typed OutOfRange.
    #[test]
    fn fraction_above_one_is_a_typed_error(excess_m in 1u32..1000) {
        let text = doc(1.0, 1.0 + excess_m as f64 / 100.0, 12, 3, 1, 0.0, 0);
        match GridSpec::parse(&text) {
            Err(SchemaError::OutOfRange { path, .. }) => {
                prop_assert_eq!(path, "compromised_frac")
            }
            other => prop_assert!(
                false,
                "expected OutOfRange(compromised_frac), got {:?}",
                other
            ),
        }
    }
}

#[test]
fn unknown_keys_are_typed_errors_at_every_level() {
    let base = doc(1.0, 0.1, 12, 3, 1, 0.1, 0);
    for (needle, replacement, expected_path) in [
        ("alpha = 1.0", "aplha = 1.0", "aplha"),
        ("[axes]\nattack", "[axes]\nattacc", "axes.attacc"),
        (
            "fault.dropout = 0.1",
            "fault.dropoutt = 0.1",
            "variants.faulted.fault.dropoutt",
        ),
        ("workers = 0", "werkers = 0", "run.werkers"),
    ] {
        let text = base.replace(needle, replacement);
        match GridSpec::parse(&text) {
            Err(SchemaError::UnknownKey { path }) => assert_eq!(path, expected_path),
            other => panic!("{replacement}: expected UnknownKey, got {other:?}"),
        }
    }
    // A whole unknown top-level table is rejected too.
    let text = format!("{base}[extras]\nx = 1\n");
    assert!(matches!(
        GridSpec::parse(&text),
        Err(SchemaError::UnknownKey { .. })
    ));
}

#[test]
fn type_confusion_is_a_typed_error() {
    let base = doc(1.0, 0.1, 12, 3, 1, 0.1, 0);
    // Float where an integer is required (no silent truncation).
    let text = base.replace("rounds = 3", "rounds = 3.5");
    assert!(matches!(
        GridSpec::parse(&text),
        Err(SchemaError::WrongType { .. })
    ));
    // String where a number is required.
    let text = base.replace("alpha = 1.0", "alpha = \"high\"");
    assert!(matches!(
        GridSpec::parse(&text),
        Err(SchemaError::WrongType { .. })
    ));
    // Scalar where the axes table expects arrays.
    let text = base.replace(
        "attack = [\"collapois\", \"label-flip\", \"dpois\"]",
        "attack = \"collapois\"",
    );
    assert!(matches!(
        GridSpec::parse(&text),
        Err(SchemaError::WrongType { .. })
    ));
}

#[test]
fn quantization_axis_is_typed_and_hashed() {
    use collapois_core::scenario::Quantization;
    let base = doc(1.0, 0.1, 12, 3, 1, 0.1, 0);

    // Each accepted codec resolves into the cell config; distinct codecs
    // hash as distinct configurations.
    let mut hashes = Vec::new();
    for (name, expected) in [
        ("f32", Quantization::F32),
        ("f16", Quantization::F16),
        ("int8", Quantization::Int8),
    ] {
        let text = base.replace(
            "quantization = \"f16\"",
            &format!("quantization = \"{name}\""),
        );
        let cells = GridSpec::parse(&text).unwrap().cells().unwrap();
        assert_eq!(cells[0].spec.config.quantization, expected);
        hashes.push(cells[0].config_hash);
    }
    assert_ne!(hashes[0], hashes[1]);
    assert_ne!(hashes[1], hashes[2]);
    assert_ne!(hashes[0], hashes[2]);

    // An unknown codec is a typed OutOfRange naming the key.
    let text = base.replace("quantization = \"f16\"", "quantization = \"int4\"");
    match GridSpec::parse(&text) {
        Err(SchemaError::OutOfRange { path, message }) => {
            assert_eq!(path, "quantization");
            assert!(message.contains("int4"), "{message}");
        }
        other => panic!("expected OutOfRange(quantization), got {other:?}"),
    }

    // A non-string value is a typed WrongType.
    let text = base.replace("quantization = \"f16\"", "quantization = 8");
    match GridSpec::parse(&text) {
        Err(SchemaError::WrongType { path, .. }) => assert_eq!(path, "quantization"),
        other => panic!("expected WrongType(quantization), got {other:?}"),
    }
}

#[test]
fn version_gate_rejects_future_files() {
    let future =
        doc(1.0, 0.1, 12, 3, 1, 0.1, 0).replace("schema_version = 1", "schema_version = 2");
    assert!(matches!(
        GridSpec::parse(&future),
        Err(SchemaError::UnsupportedVersion { found: Some(2) })
    ));
}

/// Every committed grid (`scenarios/*.toml`, `scenarios/figures/*.toml`)
/// expands to the cells pinned in `tests/fixtures/grid_cells.txt`: per
/// file, its cell count and one FNV-1a digest over its `index id
/// config_hash` lines. A change to how the schema reads, defaults or
/// hashes a key that moves any cell's id, position or configuration fails
/// here. To pin an intended change, copy the actual block from the failure
/// message into the fixture.
#[test]
fn committed_grids_expand_to_pinned_cells() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = ["scenarios", "scenarios/figures"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(root.join(dir)).unwrap())
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let mut actual = String::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let rel = path.strip_prefix(root).unwrap().display();
        let cells = GridSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .cells()
            .unwrap();
        let lines: String = cells
            .iter()
            .map(|c| format!("{} {} {:016x}\n", c.index, c.id, c.config_hash))
            .collect();
        let digest = fnv1a(lines.as_bytes());
        actual.push_str(&format!("{rel} {} {digest:016x}\n", cells.len()));
    }
    let expected = std::fs::read_to_string(root.join("tests/fixtures/grid_cells.txt")).unwrap();
    assert!(
        actual == expected,
        "committed grids moved; actual fixture block:\n{actual}"
    );
}

/// A `[base.base]` table is not `[base]`: its keys are unknown, not applied
/// as if written one level up.
#[test]
fn nested_base_table_is_an_unknown_key() {
    let text = format!("{}[base.base]\nseed = 7\n", doc(1.0, 0.1, 12, 3, 1, 0.1, 0));
    match GridSpec::parse(&text) {
        Err(SchemaError::UnknownKey { path }) => assert_eq!(path, "base.seed"),
        other => panic!("expected UnknownKey(base.seed), got {other:?}"),
    }
}

/// A variant that sets an axis key would run one setting under every label
/// of the axis, so it is a typed error at the variant's key.
#[test]
fn variant_may_not_set_an_axis_key() {
    let text = doc(1.0, 0.1, 12, 3, 1, 0.1, 0).replace(
        "fault.dropout = 0.1",
        "fault.dropout = 0.1\nattack = \"mrepl\"",
    );
    let e = GridSpec::parse(&text).unwrap_err();
    assert_eq!(
        e,
        SchemaError::VariantSetsAxis {
            path: "variants.faulted.attack".into()
        }
    );
    assert_eq!(
        e.to_string(),
        "key 'variants.faulted.attack': a variant may not set an axis key"
    );
}

/// An axis that lists one setting twice, under any spelling, would run one
/// configuration under two cells, and two cells under one id, so it is a
/// typed error naming the axis and both spellings.
#[test]
fn axis_may_not_list_one_setting_twice() {
    for (axes, path, first, second) in [
        (
            "attack = [\"dpois\", \"dpois\", \"lflip\", \"label-flip\"]\nalpha = [1, 1.0]\n",
            "axes.attack",
            "dpois",
            "dpois",
        ),
        (
            "attack = [\"dpois\", \"lflip\", \"label-flip\"]\n",
            "axes.attack",
            "lflip",
            "label-flip",
        ),
        ("alpha = [1, 0.5, 1.0]\n", "axes.alpha", "1", "1.0"),
        (
            "[axes.fault]\ndropout = [0.1, 0.2, 0.10]\n",
            "axes.fault.dropout",
            "0.1",
            "0.1",
        ),
    ] {
        let text = format!("schema_version = 1\nname = \"dup\"\n[axes]\n{axes}");
        let e = GridSpec::parse(&text).unwrap_err();
        assert_eq!(
            e,
            SchemaError::RepeatedAxisValue {
                path: path.into(),
                first: first.into(),
                second: second.into(),
            },
            "{axes}"
        );
        assert_eq!(
            e.to_string(),
            format!("axis '{path}' lists one setting twice: '{first}' and '{second}'")
        );
    }
    // Distinct settings of the same axes still expand.
    let text = "schema_version = 1\nname = \"dup\"\n[axes]\n\
                attack = [\"dpois\", \"lflip\"]\nalpha = [1, 0.5]\n";
    assert_eq!(GridSpec::parse(text).unwrap().cells().unwrap().len(), 4);
}

/// Axes take dotted keys, written inline or under a subtable header.
#[test]
fn dotted_keys_are_axes() {
    for axes in [
        "[axes]\nfault.dropout = [0.0, 0.1]\n",
        "[axes.fault]\ndropout = [0.0, 0.1]\n",
    ] {
        let text = format!("schema_version = 1\nname = \"dotted\"\n{axes}");
        let cells = GridSpec::parse(&text).unwrap().cells().unwrap();
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["fault.dropout=0.0", "fault.dropout=0.1"], "{axes}");
        assert_eq!(cells[0].spec.fault.dropout, 0.0);
        assert_eq!(cells[1].spec.fault.dropout, 0.1);
    }
}
