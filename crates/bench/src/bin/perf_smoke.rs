//! Performance smoke benchmark: times the chip-simulator hot loop (static and
//! booster controllers) and the ResNet-18 end-to-end pipeline, and appends a
//! labelled record to `BENCH_chip_sim.json` at the repository root so the
//! performance trajectory is tracked PR over PR.
//!
//! Usage: `cargo run --release -p aim-bench --bin perf_smoke [-- --label <name>]
//! [--bench-out <path>]`; `--bench-out` names the file the record is appended
//! to (default: `BENCH_chip_sim.json` at the root of the checkout the binary
//! was built in).

use std::time::Instant;

use aim_bench::{append_bench_record, bench_out_arg, quick_pipeline};
use aim_core::booster::{BoosterConfig, IrBoosterController};
use aim_core::pipeline::{run_model, AimConfig};
use ir_model::process::ProcessParams;
use pim_sim::chip::{ChipConfig, ChipSimulator, ChipTemplate, MacroTask, StaticController};
use serde::Serialize;
use workloads::zoo::Model;

#[derive(Serialize)]
struct PerfRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    /// Wall-clock ms for one 10k-cycle chip simulation, static controller
    /// (best of `REPS`).
    chip_sim_static_ms: f64,
    /// Same workload under the IR-Booster controller.
    chip_sim_booster_ms: f64,
    /// Simulated cycles per second for the static run.
    static_cycles_per_sec: f64,
    /// Wall-clock ms for the reduced ResNet-18 AIM pipeline (baseline +
    /// full-low-power, the two runs the headline experiment needs per model).
    resnet18_pipeline_ms: f64,
    /// Wall-clock µs of one full legacy-path construction
    /// (`ChipSimulator::new`: template + 64 × 512-sample flip bank), best of
    /// `CONSTRUCT_REPS`.
    construct_fresh_us: f64,
    /// Wall-clock µs of `ChipTemplate::with_seed` at an unseen seed (shared
    /// topology, bank regenerated — the serve replay cache-miss cost).
    construct_with_seed_us: f64,
    /// Wall-clock µs of `ChipTemplate::with_seed` at a cached seed (the
    /// calibration-probe / offset-0 replay cost).
    construct_cached_us: f64,
    /// `construct_fresh_us / construct_cached_us` — the repeated-replay
    /// construction speedup the compile-once template buys.
    construct_speedup: f64,
}

const REPS: usize = 5;
const CONSTRUCT_REPS: usize = 200;

fn bench_tasks() -> Vec<Option<MacroTask>> {
    let params = ProcessParams::dpim_7nm();
    (0..params.total_macros())
        .map(|m| Some(MacroTask::new(format!("op-{m}"), 0.35, 2_000, m % 8)))
        .collect()
}

fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut out = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "run".to_string());

    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        bench_tasks(),
    );
    let params = ProcessParams::dpim_7nm();

    let (chip_sim_static_ms, static_cycles) = best_of(REPS, || {
        let mut ctrl = StaticController::nominal(&params);
        sim.run(&mut ctrl, 10_000).total_cycles
    });
    let (chip_sim_booster_ms, _) = best_of(REPS, || {
        let mut booster = IrBoosterController::for_simulator(&sim, BoosterConfig::low_power());
        sim.run(&mut booster, 10_000).total_cycles
    });

    // Construction split: legacy fresh path vs template reuse vs cache hit.
    // Seeds advance on the fresh/with-seed paths so no run benefits from the
    // bank cache; the cached path deliberately repeats one seed.
    let construct_config = ChipConfig {
        flip_sequence_len: 512,
        ..ChipConfig::default()
    };
    let mut seed = 1u64;
    let (construct_fresh_us, _) = best_of(CONSTRUCT_REPS, || {
        seed = seed.wrapping_add(1);
        let sim = ChipSimulator::new(
            ChipConfig {
                seed,
                ..construct_config.clone()
            },
            bench_tasks(),
        );
        u64::from(!sim.sets().is_empty())
    });
    let template = ChipTemplate::new(construct_config.clone(), bench_tasks());
    let (construct_with_seed_us, _) = best_of(CONSTRUCT_REPS, || {
        seed = seed.wrapping_add(1);
        u64::from(!template.with_seed(seed).sets().is_empty())
    });
    let _ = template.with_seed(42);
    let (construct_cached_us, _) = best_of(CONSTRUCT_REPS, || {
        u64::from(!template.with_seed(42).sets().is_empty())
    });

    let model = Model::resnet18();
    let (resnet18_pipeline_ms, _) = best_of(2, || {
        let base = run_model(&model, &quick_pipeline(AimConfig::baseline(), 5));
        let aim = run_model(&model, &quick_pipeline(AimConfig::full_low_power(), 5));
        base.total_cycles + aim.total_cycles
    });

    let record = PerfRecord {
        label,
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        chip_sim_static_ms,
        chip_sim_booster_ms,
        static_cycles_per_sec: static_cycles as f64 / (chip_sim_static_ms / 1e3),
        resnet18_pipeline_ms,
        construct_fresh_us: construct_fresh_us * 1e3,
        construct_with_seed_us: construct_with_seed_us * 1e3,
        construct_cached_us: construct_cached_us * 1e3,
        construct_speedup: construct_fresh_us / construct_cached_us.max(f64::MIN_POSITIVE),
    };

    println!("perf_smoke [{}]", record.label);
    println!(
        "  chip_sim static   : {:>9.2} ms / 10k cycles ({:.0} cycles/s)",
        record.chip_sim_static_ms, record.static_cycles_per_sec
    );
    println!(
        "  chip_sim booster  : {:>9.2} ms / 10k cycles",
        record.chip_sim_booster_ms
    );
    println!(
        "  resnet18 pipeline : {:>9.2} ms (baseline + full low-power)",
        record.resnet18_pipeline_ms
    );
    println!(
        "  construct fresh   : {:>9.2} us / with_seed {:.2} us / cached {:.2} us ({:.1}x)",
        record.construct_fresh_us,
        record.construct_with_seed_us,
        record.construct_cached_us,
        record.construct_speedup
    );

    append_bench_record(&bench_out_arg(&args), &record);
}
