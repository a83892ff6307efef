//! Byte-equivalence property tests for the compile-once template path.
//!
//! The perf refactor split `ChipSimulator::new` into a seed-independent
//! [`ChipTemplate`] plus a cheap `with_seed` instantiation backed by a
//! bounded flip-bank cache (a simulator fetches its bank on its first
//! cycle-accurate run), and replaced one flip-fraction `Vec<f64>` per
//! macro with one flat SoA [`FlipBank`].  These tests pin the contract that
//! made that refactor admissible: for random `(ChipConfig, mapping)` pairs,
//! every construction path yields the same `RunReport` *bytes* under both
//! execution backends, and the SoA bank reproduces the per-macro sequences
//! of [`legacy_sequence`] bit-for-bit.

use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_sim::backend::{AnalyticalBackend, CycleAccurate, ExecutionBackend};
use pim_sim::chip::{ChipConfig, ChipSimulator, ChipTemplate, MacroTask, StaticController};
use pim_sim::stream::FlipBank;

/// Draws a random but valid chip configuration.
fn random_config(rng: &mut ChaCha8Rng) -> ChipConfig {
    let lens = [64usize, 128, 256];
    ChipConfig {
        recompute_penalty_cycles: rng.gen_range(3..9),
        flip_mean: rng.gen_range(0.2..0.7),
        flip_std: rng.gen_range(0.05..0.25),
        flip_sequence_len: lens[rng.gen_range(0..lens.len())],
        seed: rng.next_u64(),
        ..ChipConfig::default()
    }
}

/// Draws a random task mapping: one slot per macro, ~10% idle, random HR,
/// cycle counts, set assignment and input-determined flags.
fn random_mapping(rng: &mut ChaCha8Rng, total_macros: usize) -> Vec<Option<MacroTask>> {
    (0..total_macros)
        .map(|m| {
            if rng.gen_bool(0.1) {
                return None;
            }
            let mut task = MacroTask::new(
                format!("prop-op-{m}"),
                rng.gen_range(0.05..0.95),
                rng.gen_range(200..1_500),
                rng.gen_range(0..10usize),
            );
            task.input_determined = rng.gen_bool(0.3);
            Some(task)
        })
        .collect()
}

fn report_bytes(backend: &dyn ExecutionBackend, sim: &ChipSimulator, max_cycles: u64) -> String {
    let mut controller = StaticController::nominal(&sim.config().params);
    let report = backend.run(sim, &mut controller, max_cycles);
    serde_json::to_string(&report).expect("report serializes")
}

/// `ChipTemplate::with_seed(s)` must be byte-equivalent to a fresh
/// `ChipSimulator::new` at the same seed, under both backends, including
/// repeated instantiations served from the template's flip-bank cache.
#[test]
fn template_with_seed_matches_fresh_construction() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17E_5EED);
    let cycle_accurate = CycleAccurate;
    let analytical = AnalyticalBackend::uncalibrated();

    for trial in 0..8 {
        let config = random_config(&mut rng);
        let tasks = random_mapping(&mut rng, config.params.total_macros());
        let template = ChipTemplate::new(config.clone(), tasks.clone());

        for seed_offset in [0u64, 1, 17] {
            let seed = config.seed.wrapping_add(seed_offset);
            let fresh = ChipSimulator::new(
                ChipConfig {
                    seed,
                    ..config.clone()
                },
                tasks.clone(),
            );
            let templated = template.with_seed(seed);
            // Second instantiation at the same seed exercises the cache-hit
            // path — it must not change a single byte either.
            let cached = template.with_seed(seed);

            for backend in [&cycle_accurate as &dyn ExecutionBackend, &analytical] {
                let want = report_bytes(backend, &fresh, 3_000);
                assert_eq!(
                    want,
                    report_bytes(backend, &templated, 3_000),
                    "trial {trial} offset {seed_offset}: template diverged from \
                     fresh construction under {backend:?}",
                );
                assert_eq!(
                    want,
                    report_bytes(backend, &cached, 3_000),
                    "trial {trial} offset {seed_offset}: cached flip bank diverged \
                     under {backend:?}",
                );
            }
        }
    }
}

/// A simulator builds no flip bank until it runs cycle-accurately: an
/// analytical prediction leaves the template's cache empty, the first
/// cycle-accurate run adds its seed's bank, and later runs, of the same
/// simulator or of another one at that seed, reuse it.
#[test]
fn flip_banks_are_built_on_the_first_cycle_accurate_run() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1A2_BA4C);
    let config = random_config(&mut rng);
    let tasks = random_mapping(&mut rng, config.params.total_macros());
    let template = ChipTemplate::new(config.clone(), tasks);
    let sim = template.with_seed(config.seed);
    report_bytes(&AnalyticalBackend::uncalibrated(), &sim, 3_000);
    assert_eq!(template.cached_banks(), 0, "an analytical run built a bank");
    report_bytes(&CycleAccurate, &sim, 3_000);
    assert_eq!(template.cached_banks(), 1);
    report_bytes(&CycleAccurate, &sim, 3_000);
    report_bytes(&CycleAccurate, &template.with_seed(config.seed), 3_000);
    assert_eq!(template.cached_banks(), 1);
}

/// One macro's flip sequence as the chip simulator sampled it before the
/// SoA bank: `len` clamped Box–Muller draws over its own `ChaCha8Rng`.
fn legacy_sequence(len: usize, mean: f64, std: f64, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mean + std * z).clamp(0.0, 1.0)
        })
        .collect()
}

/// The SoA flip bank must reproduce the legacy per-macro sequences
/// bit-for-bit, wrapping included, for random distribution parameters.
#[test]
fn flip_bank_matches_legacy_sequences_for_random_params() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF11B_BA2C);
    for _ in 0..12 {
        let macros = rng.gen_range(1..96);
        let len = rng.gen_range(1..300);
        let mean = rng.gen_range(0.0..1.0);
        let std = rng.gen_range(0.0..0.4);
        let base_seed: u64 = rng.next_u64();

        let bank = FlipBank::normal(macros, len, mean, std, base_seed);
        for m in 0..macros {
            let legacy = legacy_sequence(len, mean, std, base_seed.wrapping_add(m as u64 * 7919));
            for cycle in 0..(len as u64 * 2) {
                assert_eq!(
                    bank.at(m, cycle).to_bits(),
                    legacy[(cycle % len as u64) as usize].to_bits(),
                    "macro {m} cycle {cycle} diverged from legacy sequence",
                );
            }
        }
    }
}
