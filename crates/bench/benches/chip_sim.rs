//! Criterion benches of the chip-level simulator throughput: cycles per
//! second under the static controller and under the IR-Booster, plus the
//! analytical backend's closed-form evaluation of the same runs.

use criterion::{criterion_group, criterion_main, Criterion};

use aim_core::booster::{BoosterConfig, IrBoosterController};
use ir_model::process::ProcessParams;
use pim_sim::backend::{AnalyticalBackend, CycleAccurate, ExecutionBackend};
use pim_sim::chip::{ChipConfig, ChipSimulator, MacroTask, SimSession, StaticController};

fn tasks(hr: f64, cycles: u64) -> Vec<Option<MacroTask>> {
    let params = ProcessParams::dpim_7nm();
    (0..params.total_macros())
        .map(|m| Some(MacroTask::new(format!("op-{m}"), hr, cycles, m % 8)))
        .collect()
}

fn bench_static_controller(c: &mut Criterion) {
    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        tasks(0.35, 2_000),
    );
    c.bench_function("chip_sim_2k_cycles_static", |b| {
        b.iter(|| {
            let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
            sim.run(&mut ctrl, 10_000)
        })
    });
}

fn bench_booster_controller(c: &mut Criterion) {
    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        tasks(0.35, 2_000),
    );
    c.bench_function("chip_sim_2k_cycles_booster", |b| {
        b.iter(|| {
            let mut booster = IrBoosterController::for_simulator(&sim, BoosterConfig::low_power());
            sim.run(&mut booster, 10_000)
        })
    });
}

fn bench_static_controller_reused_scratch(c: &mut Criterion) {
    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        tasks(0.35, 2_000),
    );
    let mut session = SimSession::new();
    c.bench_function("chip_sim_2k_cycles_static_reused_scratch", |b| {
        b.iter(|| {
            let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
            session.run_with_backend(&CycleAccurate, &sim, &mut ctrl, 10_000)
        })
    });
}

fn bench_analytical_backend(c: &mut Criterion) {
    // The same 2k-cycle booster run as `chip_sim_2k_cycles_booster`, but
    // evaluated through the analytical closed form (group-level virtual
    // loop, no RNG) — the per-run speedup of the fast path before any
    // plan-level prediction caching.
    let sim = ChipSimulator::new(
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        },
        tasks(0.35, 2_000),
    );
    let backend = AnalyticalBackend::uncalibrated();
    c.bench_function("chip_sim_2k_cycles_booster_analytical", |b| {
        b.iter(|| {
            let mut booster = IrBoosterController::for_simulator(&sim, BoosterConfig::low_power());
            backend.run(&sim, &mut booster, 10_000)
        })
    });
}

criterion_group! {
    name = chip_sim;
    config = Criterion::default().sample_size(10);
    targets = bench_static_controller, bench_booster_controller, bench_static_controller_reused_scratch, bench_analytical_backend
}
criterion_main!(chip_sim);
