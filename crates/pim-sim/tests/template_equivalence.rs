//! Byte-equivalence property tests for the compile-once template path.
//!
//! The perf refactor split `ChipSimulator::new` into a seed-independent
//! [`ChipTemplate`] plus a cheap `with_seed` instantiation backed by a
//! bounded flip-bank cache (a simulator fetches its bank on its first
//! cycle-accurate run), and replaced one flip-fraction `Vec<f64>` per
//! macro with one flat SoA [`FlipBank`].  These tests pin the contract that
//! made that refactor admissible: for random `(ChipConfig, mapping)` pairs,
//! every construction path yields the same `RunReport` *bytes* under both
//! execution backends, and the SoA bank, which samples its rows in 16-row
//! chunks on first read, reproduces the per-macro sequences of
//! [`legacy_sequence`] bit-for-bit whatever order the chunks are read in.

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

/// Orders in which a test reads cycles `0..2·len` of a fresh bank, each
/// filling the bank's 16-row chunks in a different sequence.
#[derive(Debug, Clone, Copy)]
enum ReadOrder {
    Sequential,
    Reversed,
    /// The last chunk's rows, then every cycle in order.
    LastChunkFirst,
    /// Every 7th cycle from 0, then from 1, and so on.
    Strided,
}

impl ReadOrder {
    const ALL: [Self; 4] = [
        Self::Sequential,
        Self::Reversed,
        Self::LastChunkFirst,
        Self::Strided,
    ];

    fn cycles(self, len: usize) -> Vec<u64> {
        let end = 2 * len as u64;
        match self {
            Self::Sequential => (0..end).collect(),
            Self::Reversed => (0..end).rev().collect(),
            Self::LastChunkFirst => {
                let last_chunk = (len as u64 - 1) / 16 * 16;
                (last_chunk..len as u64).chain(0..end).collect()
            }
            Self::Strided => (0..7).flat_map(|from| (from..end).step_by(7)).collect(),
        }
    }
}

/// The SoA flip bank must reproduce the legacy per-macro sequences
/// bit-for-bit, wrapping included, for random distribution parameters and
/// whatever order its chunks are first read in.
#[test]
fn flip_bank_matches_legacy_sequences_for_random_params() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF11B_BA2C);
    let edge_lens = [1usize, 15, 16, 17, 300];
    let random_lens: Vec<usize> = (0..7).map(|_| rng.gen_range(1..300)).collect();
    for len in edge_lens.into_iter().chain(random_lens) {
        let macros = rng.gen_range(1..96);
        let mean = rng.gen_range(0.0..1.0);
        let std = rng.gen_range(0.0..0.4);
        let base_seed: u64 = rng.next_u64();

        let legacy: Vec<Vec<f64>> = (0..macros)
            .map(|m| legacy_sequence(len, mean, std, base_seed.wrapping_add(m as u64 * 7919)))
            .collect();
        for order in ReadOrder::ALL {
            let bank = FlipBank::normal(macros, len, mean, std, base_seed);
            for cycle in order.cycles(len) {
                for (m, sequence) in legacy.iter().enumerate() {
                    assert_eq!(
                        bank.at(m, cycle).to_bits(),
                        sequence[(cycle % len as u64) as usize].to_bits(),
                        "len {len} {order:?}: macro {m} cycle {cycle} diverged from \
                         legacy sequence",
                    );
                }
            }
        }
    }
}

/// Two threads first-reading a fresh bank's chunks in opposite orders
/// both see the legacy sequences bit-for-bit.
#[test]
fn concurrent_first_reads_match_legacy_sequences() {
    let (macros, len, mean, std, base_seed) = (64, 300, 0.45, 0.2, 0x5EED_F11B);
    let legacy: Vec<Vec<f64>> = (0..macros)
        .map(|m| legacy_sequence(len, mean, std, base_seed + m as u64 * 7919))
        .collect();
    let bank = FlipBank::normal(macros, len, mean, std, base_seed);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for order in [ReadOrder::Sequential, ReadOrder::Reversed] {
            let (bank, legacy, start) = (&bank, &legacy, &start);
            scope.spawn(move || {
                start.wait();
                for cycle in order.cycles(len) {
                    let row = bank.row(cycle);
                    for (m, sequence) in legacy.iter().enumerate() {
                        assert_eq!(
                            row[m].to_bits(),
                            sequence[(cycle % len as u64) as usize].to_bits(),
                            "{order:?}: macro {m} cycle {cycle} diverged from legacy sequence",
                        );
                    }
                }
            });
        }
    });
}
