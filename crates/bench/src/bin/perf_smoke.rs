//! Performance smoke benchmark: times the chip-simulator hot loop (static and
//! booster controllers), chip construction and the ResNet-18 end-to-end
//! pipeline, and prints the figures.  Host cost of the serving stack is
//! measured by `hostbench`.
//!
//! Usage: `cargo run --release -p aim-bench --bin perf_smoke`; it takes no
//! arguments and exits 1 on any.

use std::process::ExitCode;
use std::time::Instant;

use aim_bench::quick_pipeline;
use aim_core::booster::{BoosterConfig, IrBoosterController};
use aim_core::pipeline::{run_model, AimConfig};
use ir_model::process::ProcessParams;
use pim_sim::chip::{ChipConfig, ChipSimulator, ChipTemplate, MacroTask, StaticController};
use workloads::zoo::Model;

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

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument {arg} (perf_smoke takes none)");
        return ExitCode::FAILURE;
    }

    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        bench_tasks(),
    );
    let params = ProcessParams::dpim_7nm();

    // One 10k-cycle chip simulation, static controller, then the same
    // workload under the IR-Booster controller (best of `REPS`, ms).
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
    // bank cache; the cached path deliberately repeats one seed.  A
    // simulator fetches its flip bank on its first cycle-accurate cycle,
    // which samples only the bank's first 16-row chunk, so every sample runs
    // that one cycle and measures construction up to the first chunk.
    let construct_config = ChipConfig {
        flip_sequence_len: 512,
        ..ChipConfig::default()
    };
    let first_cycle = |sim: ChipSimulator| {
        let mut ctrl = StaticController::nominal(&params);
        sim.run(&mut ctrl, 1).total_cycles
    };
    let mut seed = 1u64;
    // `ChipSimulator::new`: template + the first 16-row chunk of a
    // 64 × 512-row flip bank.
    let (construct_fresh_ms, _) = best_of(CONSTRUCT_REPS, || {
        seed = seed.wrapping_add(1);
        first_cycle(ChipSimulator::new(
            ChipConfig {
                seed,
                ..construct_config.clone()
            },
            bench_tasks(),
        ))
    });
    // `ChipTemplate::with_seed` at an unseen seed: shared topology, the
    // bank's first chunk sampled anew (the serve replay cache-miss cost of
    // a first cycle).
    let template = ChipTemplate::new(construct_config.clone(), bench_tasks());
    let (construct_with_seed_ms, _) = best_of(CONSTRUCT_REPS, || {
        seed = seed.wrapping_add(1);
        first_cycle(template.with_seed(seed))
    });
    // `ChipTemplate::with_seed` at a cached seed (the calibration-probe /
    // offset-0 replay cost).
    first_cycle(template.with_seed(42));
    let (construct_cached_ms, _) = best_of(CONSTRUCT_REPS, || first_cycle(template.with_seed(42)));

    // The reduced ResNet-18 AIM pipeline: baseline + full-low-power, the two
    // runs the headline experiment needs per model.
    let model = Model::resnet18();
    let (resnet18_pipeline_ms, _) = best_of(2, || {
        let base = run_model(&model, &quick_pipeline(AimConfig::baseline(), 5));
        let aim = run_model(&model, &quick_pipeline(AimConfig::full_low_power(), 5));
        base.total_cycles + aim.total_cycles
    });

    println!("perf_smoke");
    println!(
        "  chip_sim static   : {chip_sim_static_ms:>9.2} ms / 10k cycles ({:.0} cycles/s)",
        static_cycles as f64 / (chip_sim_static_ms / 1e3)
    );
    println!("  chip_sim booster  : {chip_sim_booster_ms:>9.2} ms / 10k cycles");
    println!("  resnet18 pipeline : {resnet18_pipeline_ms:>9.2} ms (baseline + full low-power)");
    // The fresh/cached ratio is the repeated-replay construction speedup
    // the compile-once template buys.
    println!(
        "  construct fresh   : {:>9.2} us / with_seed {:.2} us / cached {:.2} us ({:.1}x)",
        construct_fresh_ms * 1e3,
        construct_with_seed_ms * 1e3,
        construct_cached_ms * 1e3,
        construct_fresh_ms / construct_cached_ms.max(f64::MIN_POSITIVE)
    );
    ExitCode::SUCCESS
}
