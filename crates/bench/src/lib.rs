//! # aim-bench — experiment harness shared helpers
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (see `DESIGN.md` for the per-experiment index).
//! This library holds the small amount of shared plumbing: consistent table
//! printing, JSON result dumps, and the reduced-cost pipeline configurations
//! used when an experiment only needs the *shape* of a result rather than a
//! long simulation.

#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

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

/// Default path of the benchmark-trajectory file shared by the smoke
/// benchmarks (`perf_smoke`, `serve_smoke`): `BENCH_chip_sim.json` at the
/// root of the checkout the binary was *built* in.
#[must_use]
pub fn bench_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_chip_sim.json")
}

/// The trajectory file a smoke binary reads its regression baseline from
/// and appends its record to: the path after `--bench-out` in `args`, or
/// [`bench_json_path`] without one.
#[must_use]
pub fn bench_out_arg(args: &[String]) -> PathBuf {
    args.iter()
        .position(|a| a == "--bench-out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(bench_json_path, PathBuf::from)
}

/// Appends a labelled record to the trajectory file at `path`, preserving
/// earlier records by splicing into the writer-produced `"records": [...]`
/// array (the JSON shim has no parser, and the file format is owned by the
/// smoke binaries).  Failures are reported on stderr but never abort a
/// benchmark.
pub fn append_bench_record<T: Serialize>(path: &Path, record: &T) {
    let new_json = match serde_json::to_string_pretty(record) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("warning: could not serialise bench record: {e}");
            return;
        }
    };
    let indented: String = new_json
        .lines()
        .map(|l| format!("    {l}\n"))
        .collect::<String>()
        .trim_end()
        .to_string();

    let fresh_file = |record: &str| {
        format!(
            "{{\n  \"benchmark\": \"chip_sim\",\n  \"records\": [\n    {}\n  ]\n}}\n",
            record.trim_start()
        )
    };
    let body = match fs::read_to_string(path) {
        Ok(existing) => {
            if let Some(end) = existing.rfind("\n  ]") {
                let (head, tail) = existing.split_at(end);
                format!("{head},\n    {}{tail}", indented.trim_start())
            } else {
                fresh_file(&indented)
            }
        }
        Err(_) => fresh_file(&indented),
    };
    match fs::write(path, body) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Last recorded numeric value of `"field": <number>` in the trajectory
/// file at `path`, scanned textually (the JSON shim has no parser).  Used
/// by smoke binaries to compare a fresh run against the trajectory.
#[must_use]
pub fn last_bench_value(path: &Path, field: &str) -> Option<f64> {
    last_field_value(&fs::read_to_string(path).ok()?, field)
}

/// Last numeric value of `"field": <number>` anywhere in `text`.
fn last_field_value(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let mut last = None;
    for (pos, _) in text.match_indices(&needle) {
        let rest = text[pos + needle.len()..].trim_start();
        let end = rest
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
            })
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            last = Some(v);
        }
    }
    last
}

/// The record objects of a `BENCH_chip_sim.json` text (the objects one
/// level inside the file's top-level object), in file order.
fn bench_records(text: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                depth += 1;
                if depth == 2 {
                    start = i;
                }
            }
            '}' => {
                if depth == 2 {
                    records.push(&text[start..=i]);
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    records
}

/// Last value of `field` among the records of trajectory `text` whose
/// `key` field equals `key_value`: a gate compares a run only against
/// earlier runs of the same workload, whatever ran in between.
#[must_use]
pub fn last_matching_value(text: &str, field: &str, key: &str, key_value: f64) -> Option<f64> {
    bench_records(text)
        .into_iter()
        .rev()
        .filter(|record| last_field_value(record, key) == Some(key_value))
        .find_map(|record| last_field_value(record, field))
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

    #[test]
    fn last_bench_value_scans_the_committed_trajectory() {
        // The committed trajectory always carries at least the seed records.
        let path = bench_json_path();
        let v = last_bench_value(&path, "chip_sim_static_ms");
        assert!(v.is_some_and(|v| v > 0.0));
        assert_eq!(last_bench_value(&path, "no_such_field"), None);
    }

    #[derive(Serialize)]
    struct Record {
        label: &'static str,
        requests: u64,
        rps: f64,
    }

    #[test]
    fn two_records_round_trip_through_a_chosen_trajectory_file() {
        let path =
            std::env::temp_dir().join(format!("aim_bench_round_trip_{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        assert_eq!(last_bench_value(&path, "rps"), None);
        append_bench_record(
            &path,
            &Record {
                label: "first",
                requests: 1000,
                rps: 1.5,
            },
        );
        append_bench_record(
            &path,
            &Record {
                label: "second",
                requests: 2000,
                rps: 2.5,
            },
        );
        let last = last_bench_value(&path, "rps");
        let text = fs::read_to_string(&path).expect("the records were written");
        let _ = fs::remove_file(&path);
        assert_eq!(last, Some(2.5));
        assert_eq!(bench_records(&text).len(), 2);
        assert_eq!(
            last_matching_value(&text, "rps", "requests", 1000.0),
            Some(1.5)
        );
    }

    #[test]
    fn bench_out_overrides_the_default_trajectory_path() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(bench_out_arg(&args(&["smoke"])), bench_json_path());
        assert_eq!(
            bench_out_arg(&args(&["smoke", "--bench-out", "elsewhere.json"])),
            PathBuf::from("elsewhere.json")
        );
    }

    #[test]
    fn last_matching_value_skips_records_of_other_request_counts() {
        let trajectory = r#"{
  "benchmark": "chip_sim",
  "records": [
    {
      "label": "ci {full}",
      "serve_hyper_requests": 1000000,
      "serve_hyper_virtual_rps": 15959308.869361965,
      "serve_hyper_requests_failed_over": 37
    },
    {
      "label": "verify",
      "serve_hyper_requests": 200000,
      "serve_hyper_virtual_rps": 21970042.748210676,
      "serve_hyper_requests_failed_over": 12
    }
  ]
}
"#;
        let rps = |requests: f64| {
            last_matching_value(
                trajectory,
                "serve_hyper_virtual_rps",
                "serve_hyper_requests",
                requests,
            )
        };
        assert_eq!(rps(1e6), Some(15_959_308.869_361_965));
        assert_eq!(rps(2e5), Some(21_970_042.748_210_676));
        assert_eq!(rps(1e5), None);
        // The workload-blind scan gates a 10^6-request run against the
        // 200 k-request record.
        assert_eq!(
            last_field_value(trajectory, "serve_hyper_virtual_rps"),
            Some(21_970_042.748_210_676)
        );
    }
}
