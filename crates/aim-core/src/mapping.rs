//! Task-to-macro mapping: baselines and HR-aware simulated annealing
//! (paper §5.6, Algorithm 3).
//!
//! Once operators are segmented into macro-sized slices, the compiler must
//! decide which physical macro hosts which slice.  Because V-f decisions are
//! taken per macro *group*, a group is only as aggressive as its worst
//! (highest-HR) member, and because all slices of one operator (a logical
//! *set*) must share a frequency, mixing slices with very different HR in one
//! group wastes the mitigation headroom the software methods created.
//!
//! The paper compares naive mappings (sequential, zigzag, random) against an
//! HR-aware simulated-annealing search whose cost function is a lightweight
//! statistical simulation (a 100-step input flip sequence), and shows the
//! HR-aware mapping recovers both energy efficiency and performance
//! (Fig. 21).  This module reproduces all four strategies and the evaluator.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use ir_model::power::PowerModel;
use ir_model::process::ProcessParams;
use ir_model::vf::{OperatingMode, VfTable};
use pim_sim::chip::MacroTask;
use pim_sim::group::group_of;
use pim_sim::stream::FlipBank;

/// One macro-sized slice of an operator, ready to be mapped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSlice {
    /// Name of the operator the slice belongs to.
    pub operator: String,
    /// Hamming rate of the slice's weights.
    pub hr: f64,
    /// Whether the operator's in-memory data is runtime-produced (QKᵀ / SV).
    pub input_determined: bool,
    /// Useful cycles of work in the slice.
    pub cycles: u64,
    /// Logical set (one per operator in the batch).
    pub set_id: usize,
}

/// Mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MappingStrategy {
    /// Fill macros 0, 1, 2, … in slice order (the common PIM default).
    Sequential,
    /// Fill group-major in a boustrophedon (zigzag) order.
    Zigzag,
    /// Uniformly random placement.
    Random {
        /// Seed of the placement shuffle.
        seed: u64,
    },
    /// The paper's HR-aware simulated annealing (Algorithm 3).
    HrAware(AnnealingConfig),
}

/// Parameters of the simulated-annealing search (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingConfig {
    /// Iteration limit (paper: 500).
    pub steps: usize,
    /// Temperature decay per step (paper: 0.95).
    pub cooling: f64,
    /// Initial normalised temperature (paper: 1.0).
    pub initial_temperature: f64,
    /// Stop after this many consecutive rejected moves (paper: 10).
    pub early_stop_rejections: usize,
    /// Seed of the annealing random walk.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    /// Defaults re-tuned for this crate's evaluator score scale: the paper
    /// uses 500 steps, `T0 = 1` and 10-rejection early stop with its own
    /// simulator; with our power/delay scores a cooler start and a more
    /// patient early-stop are needed for the random swap walk to find the
    /// rare group-separating moves.  The paper's exact constants can still be
    /// set explicitly.
    fn default() -> Self {
        Self {
            steps: 600,
            cooling: 0.95,
            initial_temperature: 0.3,
            early_stop_rejections: 60,
            seed: 0xA11E,
        }
    }
}

/// Evaluation of one mapping by the lightweight statistical simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingEvaluation {
    /// Mean per-macro power over the mapped macros (mW).
    pub avg_power_mw: f64,
    /// Estimated end-to-end delay in nominal-frequency cycles.
    pub delay_cycles: f64,
    /// The scalar score minimised by the annealer (mode-dependent).
    pub score: f64,
}

/// Result of a mapping run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingOutcome {
    /// `assignment[m]` is the slice index hosted by macro `m`.
    pub assignment: Vec<Option<usize>>,
    /// Evaluation of the final mapping.
    pub evaluation: MappingEvaluation,
    /// Number of candidate mappings evaluated (1 for the baselines).
    pub evaluations: usize,
}

impl MappingOutcome {
    /// Converts the mapping into the chip simulator's task vector.
    #[must_use]
    pub fn to_macro_tasks(&self, slices: &[TaskSlice]) -> Vec<Option<MacroTask>> {
        self.assignment
            .iter()
            .map(|slot| {
                slot.map(|idx| {
                    let s = &slices[idx];
                    let mut task = MacroTask::new(s.operator.clone(), s.hr, s.cycles, s.set_id);
                    if s.input_determined {
                        task = task.input_determined();
                    }
                    task
                })
            })
            .collect()
    }
}

/// Maps a batch of slices onto the chip with the chosen strategy.
///
/// # Panics
///
/// Panics if the batch holds more slices than the chip has macros.
#[must_use]
pub fn map_tasks(
    slices: &[TaskSlice],
    params: &ProcessParams,
    mode: OperatingMode,
    strategy: MappingStrategy,
) -> MappingOutcome {
    let total = params.total_macros();
    assert!(
        slices.len() <= total,
        "batch of {} slices exceeds the {total}-macro chip",
        slices.len()
    );
    let table = VfTable::derive_default(params);
    let mean_flip = mean_flip_fraction(0x601D);
    match strategy {
        MappingStrategy::Sequential => {
            let assignment = sequential_assignment(slices.len(), total);
            single(assignment, slices, params, &table, mode, mean_flip)
        }
        MappingStrategy::Zigzag => {
            let assignment = zigzag_assignment(slices.len(), params);
            single(assignment, slices, params, &table, mode, mean_flip)
        }
        MappingStrategy::Random { seed } => {
            let mut slots: Vec<usize> = (0..total).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            slots.shuffle(&mut rng);
            let mut assignment = vec![None; total];
            for (idx, &slot) in slots.iter().take(slices.len()).enumerate() {
                assignment[slot] = Some(idx);
            }
            single(assignment, slices, params, &table, mode, mean_flip)
        }
        MappingStrategy::HrAware(config) => {
            anneal(slices, params, &table, mode, mean_flip, &config)
        }
    }
}

/// Mean of the evaluator's 100-step input flip sequence (normal, mean 0.5,
/// std 0.15) drawn from `seed`: the one statistic [`evaluate_mapping`] reads.
fn mean_flip_fraction(seed: u64) -> f64 {
    let flips = FlipBank::normal(1, 100, 0.5, 0.15, seed);
    (0..100).map(|cycle| flips.at(0, cycle)).sum::<f64>() / 100.0
}

fn single(
    assignment: Vec<Option<usize>>,
    slices: &[TaskSlice],
    params: &ProcessParams,
    table: &VfTable,
    mode: OperatingMode,
    mean_flip: f64,
) -> MappingOutcome {
    let evaluation = evaluate_mapping(&assignment, slices, params, table, mode, mean_flip);
    MappingOutcome {
        assignment,
        evaluation,
        evaluations: 1,
    }
}

fn sequential_assignment(n_slices: usize, total: usize) -> Vec<Option<usize>> {
    (0..total)
        .map(|m| if m < n_slices { Some(m) } else { None })
        .collect()
}

fn zigzag_assignment(n_slices: usize, params: &ProcessParams) -> Vec<Option<usize>> {
    // Walk groups 0..G, filling even groups bottom-up and odd groups
    // top-down, the classic space-filling order used by tiled accelerators.
    let total = params.total_macros();
    let mpg = params.macros_per_group;
    let mut order = Vec::with_capacity(total);
    for g in 0..params.macro_groups {
        let base = g * mpg;
        if g % 2 == 0 {
            order.extend(base..base + mpg);
        } else {
            order.extend((base..base + mpg).rev());
        }
    }
    let mut assignment = vec![None; total];
    for (idx, &slot) in order.iter().take(n_slices).enumerate() {
        assignment[slot] = Some(idx);
    }
    assignment
}

/// Evaluates a mapping with the lightweight statistical simulator.
///
/// The evaluation mirrors what the chip will do without running it cycle by
/// cycle: each group's safe level comes from its worst mapped HR, the level
/// picks a V-f pair under the operating mode, sets are capped at their
/// slowest member's frequency, and power/delay follow from the mean input
/// flip fraction `mean_flip` (each slice toggles at `HR × mean_flip`).
#[must_use]
pub fn evaluate_mapping(
    assignment: &[Option<usize>],
    slices: &[TaskSlice],
    params: &ProcessParams,
    table: &VfTable,
    mode: OperatingMode,
    mean_flip: f64,
) -> MappingEvaluation {
    let mpg = params.macros_per_group;
    let groups = params.macro_groups;
    let power_model = PowerModel::new(*params);

    // Worst HR per group (input-determined or unknown ⇒ DVFS level).
    let mut group_level = vec![100u8; groups];
    for (g, level) in group_level.iter_mut().enumerate() {
        let mut worst: Option<f64> = None;
        let mut unknown = false;
        for slot in &assignment[g * mpg..(g + 1) * mpg] {
            if let Some(idx) = *slot {
                let s = &slices[idx];
                if s.input_determined {
                    unknown = true;
                } else {
                    worst = Some(worst.map_or(s.hr, |w: f64| w.max(s.hr)));
                }
            }
        }
        *level = if unknown {
            100
        } else {
            worst.map_or(100, |hr| table.level_for_rtog(hr))
        };
    }
    let group_point: Vec<_> = group_level
        .iter()
        .map(|&lvl| table.select(lvl, mode).expect("level always has a pair"))
        .collect();

    // Set frequency = min frequency over the groups hosting its slices.
    // BTreeMaps keep the set iteration order (and therefore the float
    // accumulation order of `delay_cycles`) deterministic run to run —
    // `HashMap`'s per-process hash seed made the annealer's scores, and with
    // them the headline figures, drift between otherwise identical runs.
    let mut set_freq: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for (m, slot) in assignment.iter().enumerate() {
        if let Some(idx) = slot {
            let g = group_of(m, mpg);
            let f = group_point[g].frequency_ghz;
            set_freq
                .entry(slices[*idx].set_id)
                .and_modify(|cur| *cur = cur.min(f))
                .or_insert(f);
        }
    }

    // Delay: operators execute back to back; each set's slices run in
    // parallel at the set frequency.
    let mut set_cycles: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for slot in assignment.iter().flatten() {
        let s = &slices[*slot];
        set_cycles
            .entry(s.set_id)
            .and_modify(|c| *c = (*c).max(s.cycles))
            .or_insert(s.cycles);
    }
    let delay_cycles: f64 = set_cycles
        .iter()
        .map(|(sid, &cycles)| {
            let f = set_freq
                .get(sid)
                .copied()
                .unwrap_or(params.nominal_frequency_ghz);
            cycles as f64 * params.nominal_frequency_ghz / f
        })
        .sum();

    // Power: mean over mapped macros of their per-cycle power at the group's
    // point with the statistical toggle rate HR × mean flip.
    let mut power_sum = 0.0;
    let mut mapped = 0usize;
    for (m, slot) in assignment.iter().enumerate() {
        if let Some(idx) = slot {
            let s = &slices[*idx];
            let g = group_of(m, mpg);
            let p = group_point[g];
            let toggle = (s.hr * mean_flip).clamp(0.0, 1.0);
            power_sum += power_model.macro_power_mw(toggle, p.voltage, p.frequency_ghz);
            mapped += 1;
        }
    }
    let avg_power_mw = if mapped == 0 {
        0.0
    } else {
        power_sum / mapped as f64
    };

    let score = match mode {
        OperatingMode::LowPower => avg_power_mw,
        OperatingMode::Sprint => delay_cycles,
    };
    MappingEvaluation {
        avg_power_mw,
        delay_cycles,
        score,
    }
}

/// Algorithm 3: simulated annealing over macro-pair swaps.
fn anneal(
    slices: &[TaskSlice],
    params: &ProcessParams,
    table: &VfTable,
    mode: OperatingMode,
    mean_flip: f64,
    config: &AnnealingConfig,
) -> MappingOutcome {
    let total = params.total_macros();
    let mpg = params.macros_per_group;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    let mut current = sequential_assignment(slices.len(), total);
    let mut current_eval = evaluate_mapping(&current, slices, params, table, mode, mean_flip);
    let s0 = current_eval.score.max(1e-9);
    let mut best = current.clone();
    let mut best_eval = current_eval;
    let mut temperature = config.initial_temperature;
    let mut evaluations = 1usize;
    let mut consecutive_rejections = 0usize;

    for _ in 0..config.steps {
        temperature *= config.cooling;
        // Transition: swap the contents of two macros in different groups
        // (either may be empty — the paper's "empty macro" option).
        let a = rng.gen_range(0..total);
        let mut b = rng.gen_range(0..total);
        let mut guard = 0;
        while group_of(a, mpg) == group_of(b, mpg) && guard < 16 {
            b = rng.gen_range(0..total);
            guard += 1;
        }
        if group_of(a, mpg) == group_of(b, mpg) {
            continue;
        }
        let mut candidate = current.clone();
        candidate.swap(a, b);
        let eval = evaluate_mapping(&candidate, slices, params, table, mode, mean_flip);
        evaluations += 1;
        let delta = eval.score - current_eval.score;
        // Normalised-exponential acceptor (Algorithm 3 line 6).
        let accept = delta < 0.0
            || rng.gen_range(0.0..1.0) < (-delta / (0.5 * s0 * temperature.max(1e-9))).exp();
        if accept {
            consecutive_rejections = 0;
            current = candidate;
            current_eval = eval;
            if current_eval.score < best_eval.score {
                best = current.clone();
                best_eval = current_eval;
            }
        } else {
            consecutive_rejections += 1;
            if consecutive_rejections >= config.early_stop_rejections {
                break;
            }
        }
    }

    MappingOutcome {
        assignment: best,
        evaluation: best_eval,
        evaluations,
    }
}

/// Builds the standard Fig. 21 operator-mix batches: pairs of operators with
/// contrasting HR, segmented into the given number of slices each.
#[must_use]
pub fn operator_mix(
    first: (&str, f64, bool),
    second: (&str, f64, bool),
    slices_each: usize,
    cycles: u64,
) -> Vec<TaskSlice> {
    let mut out = Vec::with_capacity(2 * slices_each);
    for (set_id, (name, hr, input_determined)) in [first, second].into_iter().enumerate() {
        for i in 0..slices_each {
            out.push(TaskSlice {
                operator: format!("{name}-{i}"),
                hr,
                input_determined,
                cycles,
                set_id,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ProcessParams {
        ProcessParams::dpim_7nm()
    }

    fn mixed_slices() -> Vec<TaskSlice> {
        // A conv operator with low HR (post-LHR/WDS) plus an attention
        // product with unknown/high HR — the Fig. 21 "Conv + QKT" mix.
        operator_mix(("conv", 0.27, false), ("qkt", 0.55, true), 24, 160)
    }

    #[test]
    fn sequential_fills_macros_in_order() {
        let out = map_tasks(
            &mixed_slices(),
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Sequential,
        );
        assert_eq!(out.assignment[0], Some(0));
        assert_eq!(out.assignment[47], Some(47));
        assert_eq!(out.assignment[48], None);
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn zigzag_differs_from_sequential_but_maps_everything() {
        let slices = mixed_slices();
        let seq = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Sequential,
        );
        let zig = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Zigzag,
        );
        assert_ne!(seq.assignment, zig.assignment);
        let count = |a: &Vec<Option<usize>>| a.iter().flatten().count();
        assert_eq!(count(&seq.assignment), slices.len());
        assert_eq!(count(&zig.assignment), slices.len());
    }

    #[test]
    fn random_mapping_is_seed_deterministic() {
        let slices = mixed_slices();
        let a = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Random { seed: 1 },
        );
        let b = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Random { seed: 1 },
        );
        let c = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Random { seed: 2 },
        );
        assert_eq!(a.assignment, b.assignment);
        assert_ne!(a.assignment, c.assignment);
    }

    #[test]
    fn hr_aware_mapping_beats_sequential_on_mixed_workloads() {
        let slices = mixed_slices();
        let p = params();
        for mode in [OperatingMode::LowPower, OperatingMode::Sprint] {
            let seq = map_tasks(&slices, &p, mode, MappingStrategy::Sequential);
            let aware = map_tasks(
                &slices,
                &p,
                mode,
                MappingStrategy::HrAware(AnnealingConfig::default()),
            );
            assert!(
                aware.evaluation.score <= seq.evaluation.score + 1e-9,
                "{mode:?}: HR-aware ({}) must not lose to sequential ({})",
                aware.evaluation.score,
                seq.evaluation.score
            );
            assert!(aware.evaluations > 1);
        }
    }

    #[test]
    fn uniform_workload_gains_little_from_hr_aware_mapping() {
        // With identical HR everywhere there is nothing to separate.
        let slices = operator_mix(("conv_a", 0.30, false), ("conv_b", 0.30, false), 24, 160);
        let p = params();
        let seq = map_tasks(
            &slices,
            &p,
            OperatingMode::LowPower,
            MappingStrategy::Sequential,
        );
        let aware = map_tasks(
            &slices,
            &p,
            OperatingMode::LowPower,
            MappingStrategy::HrAware(AnnealingConfig::default()),
        );
        let gain = (seq.evaluation.score - aware.evaluation.score) / seq.evaluation.score;
        assert!(
            gain < 0.02,
            "uniform workload should not benefit, gain {gain}"
        );
    }

    #[test]
    fn evaluation_penalises_mixing_hr_levels_in_one_group() {
        // Hand-built assignments: separated (conv in groups 0-5, qkt in 6-11)
        // versus interleaved (alternating within every group).
        let slices = mixed_slices();
        let p = params();
        let table = VfTable::derive_default(&p);
        let mean_flip = mean_flip_fraction(1);
        let total = p.total_macros();
        let mut separated = vec![None; total];
        for i in 0..24 {
            separated[i] = Some(i); // conv slices
            separated[24 + i] = Some(24 + i); // qkt slices
        }
        let mut interleaved = vec![None; total];
        for i in 0..24 {
            interleaved[2 * i] = Some(i);
            interleaved[2 * i + 1] = Some(24 + i);
        }
        let sep = evaluate_mapping(
            &separated,
            &slices,
            &p,
            &table,
            OperatingMode::LowPower,
            mean_flip,
        );
        let mix = evaluate_mapping(
            &interleaved,
            &slices,
            &p,
            &table,
            OperatingMode::LowPower,
            mean_flip,
        );
        assert!(
            sep.avg_power_mw < mix.avg_power_mw,
            "separating HR classes must save power ({} vs {})",
            sep.avg_power_mw,
            mix.avg_power_mw
        );
    }

    #[test]
    fn to_macro_tasks_round_trips_slice_metadata() {
        let slices = mixed_slices();
        let out = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Sequential,
        );
        let tasks = out.to_macro_tasks(&slices);
        assert_eq!(tasks.len(), params().total_macros());
        let first = tasks[0].as_ref().unwrap();
        assert_eq!(first.weight_hr, 0.27);
        assert!(!first.input_determined);
        let qkt = tasks[24].as_ref().unwrap();
        assert!(qkt.input_determined);
        assert_eq!(qkt.set_id, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_batch_is_rejected() {
        let slices = operator_mix(("a", 0.3, false), ("b", 0.4, false), 40, 100);
        let _ = map_tasks(
            &slices,
            &params(),
            OperatingMode::LowPower,
            MappingStrategy::Sequential,
        );
    }
}
