//! Golden-file pinning of the paper-figure outputs.
//!
//! The seven figure/table binaries pinned here, from
//! `crates/bench/src/bin/`, dump their results into `experiments/*.json`.
//! Every one of those simulations is seeded and aggregates in input order,
//! so the dumps are deterministic — re-running a binary must reproduce the
//! committed golden byte for byte.
//! The copies under `tests/goldens/` pin that: a pipeline refactor that
//! silently drifts a figure shows up here as soon as the experiment is
//! regenerated.
//!
//! `experiments/` is gitignored (the dumps are build artifacts), so a fresh
//! checkout has no files to compare yet; dumps that are absent are skipped
//! with a note.  The CI `serve` job regenerates all seven binaries first and
//! then runs this test, which is where the byte-compare actually gates.
//!
//! Updating a golden is a deliberate act: regenerate the experiment, inspect
//! the diff, and copy the new file over `tests/goldens/<name>.json`.

use std::fs;
use std::path::PathBuf;

/// The deterministic experiment dumps pinned byte-for-byte.
const GOLDEN_EXPERIMENTS: [&str; 7] = [
    "fig09_vf_sensitivity",
    "fig14_wds_delta_sweep",
    "fig17_current_traces",
    "fig18_beta_sweep",
    "fig19_ablation",
    "headline_results",
    "table2_hr_reduction",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn experiment_outputs_match_committed_goldens() {
    let root = repo_root();
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for name in GOLDEN_EXPERIMENTS {
        let experiment = root.join("experiments").join(format!("{name}.json"));
        let golden = root
            .join("tests")
            .join("goldens")
            .join(format!("{name}.json"));
        let gold_bytes = fs::read(&golden)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
        // The dump is a build artifact: absent on a fresh checkout until its
        // binary has run.  Only generated dumps are gated.
        let Ok(exp_bytes) = fs::read(&experiment) else {
            eprintln!("note: {name}.json not generated yet, skipping byte-compare");
            continue;
        };
        compared += 1;
        if exp_bytes != gold_bytes {
            failures.push(name);
        }
    }
    println!(
        "byte-compared {compared}/{} experiment dumps",
        GOLDEN_EXPERIMENTS.len()
    );
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
            if !GOLDEN_EXPERIMENTS.contains(&stem.as_str()) {
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
