//! Criterion benches separating simulator-*construction* cost from run
//! cost.  The serve hot path replays compiled plans thousands of times, and
//! before the compile-once template split every replay paid a full
//! `ChipSimulator::new` (set derivation + 64 Box–Muller flip sequences).
//! A simulator fetches its flip bank on its first cycle-accurate cycle, and
//! that cycle samples only the bank's first 16-row chunk, so each iteration
//! runs that one cycle and measures construction up to the first chunk.
//! These benches pin the three construction paths against each other:
//!
//! * `chip_sim_construct_fresh` — the legacy path: full `ChipSimulator::new`
//!   per replay (template + the bank's first chunk built from scratch every
//!   time).
//! * `chip_sim_construct_with_seed` — a prebuilt [`ChipTemplate`]
//!   instantiated at a *new* seed each iteration (topology shared, the
//!   bank's first chunk sampled anew: the cache-miss cost of a serve
//!   replay's first cycle).
//! * `chip_sim_construct_cached` — the same template at a *repeated* seed
//!   (the cache-hit cost: what calibration probes and offset-0 replays pay).

use criterion::{criterion_group, criterion_main, Criterion};

use ir_model::process::ProcessParams;
use pim_sim::chip::{ChipConfig, ChipSimulator, ChipTemplate, MacroTask, StaticController};

fn tasks(hr: f64, cycles: u64) -> Vec<Option<MacroTask>> {
    let params = ProcessParams::dpim_7nm();
    (0..params.total_macros())
        .map(|m| Some(MacroTask::new(format!("op-{m}"), hr, cycles, m % 8)))
        .collect()
}

fn bench_config() -> ChipConfig {
    // Matches the `CompiledPlan` serve configuration (512-sample bank), not
    // the 1024-sample `ChipConfig::default()`, so the numbers speak for the
    // replay path the template exists to accelerate.
    ChipConfig {
        flip_sequence_len: 512,
        ..ChipConfig::default()
    }
}

/// Runs the first cycle of `sim`, which fetches its flip bank (creating it
/// on a cache miss) and reads the bank's first chunk.
fn first_cycle(sim: &ChipSimulator) -> u64 {
    let mut ctrl = StaticController::nominal(&sim.config().params);
    sim.run(&mut ctrl, 1).total_cycles
}

fn bench_construct_fresh(c: &mut Criterion) {
    let config = bench_config();
    let tasks = tasks(0.35, 2_000);
    let mut seed = 0u64;
    c.bench_function("chip_sim_construct_fresh", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            first_cycle(&ChipSimulator::new(
                ChipConfig {
                    seed,
                    ..config.clone()
                },
                tasks.clone(),
            ))
        })
    });
}

fn bench_construct_with_seed(c: &mut Criterion) {
    let template = ChipTemplate::new(bench_config(), tasks(0.35, 2_000));
    let mut seed = 0u64;
    c.bench_function("chip_sim_construct_with_seed", |b| {
        b.iter(|| {
            // A fresh seed each iteration defeats the flip-bank cache, so
            // this measures template reuse alone (shared topology/models).
            seed = seed.wrapping_add(1);
            first_cycle(&template.with_seed(seed))
        })
    });
}

fn bench_construct_cached(c: &mut Criterion) {
    let template = ChipTemplate::new(bench_config(), tasks(0.35, 2_000));
    // Warm the cache once; every iteration below is a pure cache hit.
    first_cycle(&template.with_seed(42));
    c.bench_function("chip_sim_construct_cached", |b| {
        b.iter(|| first_cycle(&template.with_seed(42)))
    });
}

criterion_group! {
    name = chip_sim_construction;
    config = Criterion::default().sample_size(20);
    targets = bench_construct_fresh, bench_construct_with_seed, bench_construct_cached
}
criterion_main!(chip_sim_construction);
