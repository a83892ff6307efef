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

/// Last value of `field` among the records of trajectory `text` whose `keys`
/// fields carry the given values: a gate compares a run only against
/// earlier runs of the same workload, whatever ran in between.  Records
/// where `field` is `null` or absent are skipped.
#[must_use]
pub fn last_matching_value(text: &str, field: &str, keys: &[(&str, f64)]) -> Option<f64> {
    bench_records(text)
        .into_iter()
        .rev()
        .filter(|record| {
            keys.iter()
                .all(|&(key, value)| last_field_value(record, key) == Some(value))
        })
        .find_map(|record| last_field_value(record, field))
}

/// The regression gate's verdict on `current`, a fresh value of the gated
/// `field`, against trajectory `text`.  The baseline is the last record of
/// the same workload ([`last_matching_value`] over `keys`).
///
/// # Errors
///
/// Fails when `current` dropped more than 20 % below the baseline, and when
/// there is no baseline at all: the gate fails closed, so a renamed field or
/// a changed workload cannot silently switch it off.  `Ok` carries the
/// passing comparison for the printout.
pub fn regression_verdict(
    text: &str,
    field: &str,
    keys: &[(&str, f64)],
    current: f64,
) -> Result<String, String> {
    let workload = keys
        .iter()
        .map(|(key, value)| format!("{key} {value}"))
        .collect::<Vec<_>>()
        .join(", ");
    let Some(previous) = last_matching_value(text, field, keys) else {
        return Err(format!(
            "no earlier {field} record with {workload} in the trajectory to gate against"
        ));
    };
    if current < 0.8 * previous {
        Err(format!(
            "{field} regressed >20 %: {current:.0} req/s vs previous {previous:.0} req/s ({workload})"
        ))
    } else {
        Ok(format!(
            "{field} {current:.0} req/s >= 80 % of previous {previous:.0} req/s ({workload})"
        ))
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

    #[test]
    fn every_ci_gate_finds_its_baseline_in_the_committed_trajectory() {
        // Each CI leg of `serve_smoke --check-regression`: its gated field
        // and the workload it keys its baseline on.  A leg without a
        // baseline fails, so this pins that none of them does.
        let offline = [("serve_requests", 192.0), ("serve_chips", 8.0)];
        let offline_ana = [("serve_ana_requests", 192.0), ("serve_ana_chips", 8.0)];
        let online = [
            ("serve_online_requests", 192.0),
            ("serve_online_chips", 8.0),
        ];
        let fleet = [
            ("serve_fleet_requests", 192.0),
            ("serve_fleet_shards", 2.0),
            ("serve_fleet_chips_per_shard", 4.0),
        ];
        let dag = [("serve_dag_requests", 239.0), ("serve_dag_stages", 117.0)];
        let global = [
            ("serve_global_requests", 256.0),
            ("serve_global_regions", 2.0),
        ];
        let hyper = [("serve_hyper_requests", 1e6), ("serve_hyper_chips", 256.0)];
        let legs: [(&str, &[(&str, f64)]); 11] = [
            ("serve_virtual_rps", &offline),
            ("serve_ana_virtual_rps", &offline_ana),
            ("serve_online_virtual_rps", &online),
            ("serve_online_ana_virtual_rps", &online),
            ("serve_fleet_virtual_rps", &fleet),
            ("serve_fleet_ana_virtual_rps", &fleet),
            ("serve_dag_virtual_rps", &dag),
            ("serve_dag_ana_virtual_rps", &dag),
            ("serve_global_virtual_rps", &global),
            ("serve_global_ana_virtual_rps", &global),
            ("serve_hyper_virtual_rps", &hyper),
        ];
        let text = fs::read_to_string(bench_json_path()).expect("the trajectory is committed");
        for (field, keys) in legs {
            assert!(
                last_matching_value(&text, field, keys).is_some_and(|v| v > 0.0),
                "no {field} baseline for {keys:?}"
            );
        }
    }

    #[test]
    fn the_regression_verdict_fails_closed_and_tolerates_a_20_percent_drop() {
        let trajectory = r#"{
  "benchmark": "chip_sim",
  "records": [
    {
      "label": "small",
      "serve_fleet_requests": 192,
      "serve_fleet_shards": 2,
      "serve_fleet_virtual_rps": 1000.0
    },
    {
      "label": "large",
      "serve_fleet_requests": 384,
      "serve_fleet_shards": 2,
      "serve_fleet_virtual_rps": 5000.0
    },
    {
      "label": "small, other backend",
      "serve_fleet_requests": 192,
      "serve_fleet_shards": 2,
      "serve_fleet_virtual_rps": null
    }
  ]
}
"#;
        let verdict = |requests: f64, shards: f64, current: f64| {
            regression_verdict(
                trajectory,
                "serve_fleet_virtual_rps",
                &[
                    ("serve_fleet_requests", requests),
                    ("serve_fleet_shards", shards),
                ],
                current,
            )
        };
        // No record of the workload: the gate fails instead of passing.
        assert!(verdict(192.0, 4.0, 1000.0).is_err_and(|e| e.contains("no earlier")));
        assert!(regression_verdict("", "serve_fleet_virtual_rps", &[], 1.0).is_err());
        // More than 20 % below the same workload's baseline fails, even
        // though the other workload's later record would be far higher.
        assert!(verdict(192.0, 2.0, 790.0).is_err_and(|e| e.contains("regressed")));
        assert!(verdict(384.0, 2.0, 3_900.0).is_err());
        // Within 20 % passes.
        assert!(verdict(192.0, 2.0, 800.0).is_ok());
        assert!(verdict(384.0, 2.0, 4_500.0).is_ok());
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
        let text = fs::read_to_string(&path).expect("the records were written");
        let _ = fs::remove_file(&path);
        assert_eq!(bench_records(&text).len(), 2);
        assert_eq!(last_matching_value(&text, "rps", &[]), Some(2.5));
        assert_eq!(
            last_matching_value(&text, "rps", &[("requests", 1000.0)]),
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
                &[("serve_hyper_requests", requests)],
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
