//! Golden-file pinning of the paper-figure outputs.
//!
//! The six figure binaries pinned here, from `src/bin/`, dump their results
//! into `experiments/*.json`; `table2_golden.rs` pins the seventh dump,
//! Table 2, in a test of its own.  Every one of those simulations is
//! seeded and aggregates in input order, so the dumps are deterministic:
//! re-running a binary must reproduce the committed golden byte for byte.
//! The test runs each binary and compares its fresh dump with the copy
//! under `tests/goldens/`, so a pipeline, QAT, WDS or zoo change that
//! silently drifts a figure fails `cargo test`.
//!
//! Updating a golden is a deliberate act: regenerate the experiment, inspect
//! the diff, and copy the new file over `tests/goldens/<name>.json`.

mod common;

use std::fs;

use common::{dump_matches_golden, repo_root, TABLE2};

/// The deterministic experiment dumps pinned byte-for-byte here, each with
/// the binary that writes it.
const GOLDEN_EXPERIMENTS: [(&str, &str); 6] = [
    (
        "fig09_vf_sensitivity",
        env!("CARGO_BIN_EXE_fig09_vf_sensitivity"),
    ),
    (
        "fig14_wds_delta_sweep",
        env!("CARGO_BIN_EXE_fig14_wds_delta_sweep"),
    ),
    (
        "fig17_current_traces",
        env!("CARGO_BIN_EXE_fig17_current_traces"),
    ),
    ("fig18_beta_sweep", env!("CARGO_BIN_EXE_fig18_beta_sweep")),
    ("fig19_ablation", env!("CARGO_BIN_EXE_fig19_ablation")),
    ("headline_results", env!("CARGO_BIN_EXE_headline_results")),
];

#[test]
fn experiment_outputs_match_committed_goldens() {
    let failures: Vec<&str> = GOLDEN_EXPERIMENTS
        .into_iter()
        .filter(|&(name, binary)| !dump_matches_golden(name, binary))
        .map(|(name, _)| name)
        .collect();
    assert!(
        failures.is_empty(),
        "experiment outputs drifted from their goldens: {failures:?}\n\
         If the change is intentional, inspect the diff and refresh \
         tests/goldens/<name>.json; otherwise a pipeline refactor broke \
         bit-identical reproduction."
    );
}

#[test]
fn goldens_cover_every_generated_experiment() {
    // A new experiment dump must either be pinned or explicitly excluded
    // here — silent gaps defeat the point of the harness.  On a fresh
    // checkout the directory may not exist yet; nothing to cover then.
    let dir = repo_root().join("experiments");
    let Ok(entries) = fs::read_dir(&dir) else {
        eprintln!("note: experiments/ not generated yet, nothing to cover");
        return;
    };
    let mut unpinned = Vec::new();
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if stem != TABLE2
                && !GOLDEN_EXPERIMENTS
                    .iter()
                    .any(|(name, _)| *name == stem.as_str())
            {
                unpinned.push(stem);
            }
        }
    }
    assert!(
        unpinned.is_empty(),
        "experiment dumps without goldens: {unpinned:?} — add them to \
         GOLDEN_EXPERIMENTS and tests/goldens/"
    );
}
