//! # aim-bench — experiment harness shared helpers
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section; each is named after the figure or table it
//! reproduces (`fig18_beta_sweep`, `table2_hr_reduction`, …).
//! This library holds the small amount of shared plumbing: consistent table
//! printing, JSON result dumps, and the reduced-cost pipeline configurations
//! used when an experiment only needs the *shape* of a result rather than a
//! long simulation.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use aim_core::pipeline::AimConfig;
use serde::Serialize;

/// Directory where experiment binaries drop their JSON result dumps.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialises an experiment result to `experiments/<name>.json`.
///
/// Failures to write are reported on stderr but never abort the experiment —
/// the printed tables remain the primary output.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// Prints a section header for an experiment binary.
pub fn header(experiment: &str, paper_reference: &str) {
    println!("=== {experiment} ===");
    println!("(reproduces {paper_reference})");
    println!();
}

/// Standard reduced-cost pipeline configuration used by the chip-level
/// experiments: a stride over the operator list and shorter slices keep the
/// runtime of each figure in the seconds-to-a-minute range while preserving
/// the operator mix (conv vs attention vs MLP) of the workload.
#[must_use]
pub fn quick_pipeline(base: AimConfig, stride: usize) -> AimConfig {
    AimConfig {
        operator_stride: Some(stride.max(1)),
        cycles_per_slice: 150,
        ..base
    }
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn percent(value: f64) -> String {
    format!("{:.1} %", 100.0 * value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().exists());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.288), "2.29x");
        assert_eq!(percent(0.692), "69.2 %");
    }

    #[test]
    fn quick_pipeline_overrides_stride() {
        let cfg = quick_pipeline(AimConfig::baseline(), 0);
        assert_eq!(cfg.operator_stride, Some(1));
    }
}
