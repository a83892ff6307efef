//! End-to-end AIM pipeline (paper Fig. 6): from a workload model to a chip
//! simulation report.
//!
//! The flow mirrors the paper's offline + runtime split:
//!
//! 1. **Offline software optimisation** — every offline operator's synthetic
//!    weights go through the QAT proxy (baseline or +LHR), then optionally
//!    through WDS; the resulting per-operator HR and the accuracy-proxy
//!    quality are recorded.
//! 2. **Compilation** — operators are segmented into macro-sized slices and
//!    mapped onto the chip batch by batch with the selected strategy.
//! 3. **Runtime** — each batch runs on the chip simulator under either the
//!    static sign-off controller (the baseline) or the IR-Booster, and the
//!    batch reports are aggregated into one [`AimReport`].
//!
//! Every evaluation experiment (ablation, β sweep, headline numbers, mapping
//! comparison) is a thin wrapper around this pipeline with different knobs.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use ir_model::irdrop::IrDropModel;
use ir_model::power::PowerModel;
use ir_model::process::ProcessParams;
use ir_model::vf::OperatingMode;
use nn_quant::qat::{train_layer, QatConfig};
use nn_quant::wds::apply_wds_to_layer;
use pim_sim::backend::CycleAccurate;
use pim_sim::chip::{
    ChipConfig, ChipSimulator, ChipTemplate, RunReport, SimSession, StaticController, VfController,
};
use workloads::zoo::Model;

use crate::booster::{BoosterConfig, IrBoosterController};
use crate::mapping::{map_tasks, MappingStrategy, TaskSlice};

/// Configuration of one end-to-end AIM run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AimConfig {
    /// Weight precision (8 in all paper experiments, 4 supported).
    pub bits: u32,
    /// Apply the LHR regularizer during quantization.
    pub use_lhr: bool,
    /// Apply WDS with this shift after quantization (`None` = no WDS).
    pub wds_delta: Option<i8>,
    /// Run the chip under IR-Booster (`None` = static sign-off baseline).
    pub booster: Option<BoosterConfig>,
    /// Task-to-macro mapping strategy.
    pub mapping: MappingStrategy,
    /// Operating mode (also used by the mapping evaluator).
    pub mode: OperatingMode,
    /// Keep only every k-th operator of very large models (`None` = all).
    pub operator_stride: Option<usize>,
    /// Useful cycles each mapped slice executes in the chip simulation.
    pub cycles_per_slice: u64,
    /// Base random seed.
    pub seed: u64,
}

impl AimConfig {
    /// The pre-AIM baseline: plain QAT, no WDS, static sign-off controller,
    /// sequential mapping.
    #[must_use]
    pub const fn baseline() -> Self {
        Self {
            bits: 8,
            use_lhr: false,
            wds_delta: None,
            booster: None,
            mapping: MappingStrategy::Sequential,
            mode: OperatingMode::LowPower,
            operator_stride: None,
            cycles_per_slice: 200,
            seed: 0xA1,
        }
    }

    /// The full AIM stack in low-power mode: LHR + WDS(16) + IR-Booster +
    /// HR-aware mapping.
    #[must_use]
    pub fn full_low_power() -> Self {
        Self {
            use_lhr: true,
            wds_delta: Some(16),
            booster: Some(BoosterConfig::low_power()),
            mapping: MappingStrategy::HrAware(crate::mapping::AnnealingConfig::default()),
            mode: OperatingMode::LowPower,
            ..Self::baseline()
        }
    }

    /// The full AIM stack in sprint mode.
    #[must_use]
    pub fn full_sprint() -> Self {
        Self {
            mode: OperatingMode::Sprint,
            booster: Some(BoosterConfig::sprint()),
            ..Self::full_low_power()
        }
    }
}

/// Per-operator outcome of the offline software optimisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorOutcome {
    /// Operator name.
    pub name: String,
    /// HR of the weights as they will sit in the macros.
    pub hr: f64,
    /// HR under plain baseline quantization (for reduction reporting).
    pub hr_baseline: f64,
    /// Whether the operator is input-determined (QKᵀ / SV).
    pub input_determined: bool,
    /// Relative weight movement introduced by the optimisation (accuracy
    /// proxy input).
    pub relative_weight_shift: f64,
    /// Number of macro-sized slices the operator occupies.
    pub slices: usize,
    /// Useful cycles per slice.
    pub cycles_per_slice: u64,
}

/// Aggregated outcome of one end-to-end AIM run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AimReport {
    /// Name of the workload model.
    pub model: String,
    /// Mean per-operator HR after the software stack.
    pub hr_average: f64,
    /// Worst per-operator HR after the software stack.
    pub hr_max: f64,
    /// Mean per-operator HR under plain baseline quantization.
    pub hr_average_baseline: f64,
    /// Predicted model quality from the accuracy proxy (accuracy % or ppl).
    pub predicted_quality: f64,
    /// Mean per-macro power over the run (mW).
    pub avg_macro_power_mw: f64,
    /// Effective chip throughput (TOPS).
    pub effective_tops: f64,
    /// Worst droop observed anywhere during the run (mV).
    pub worst_irdrop_mv: f64,
    /// Mean droop over busy macros (mV).
    pub mean_irdrop_mv: f64,
    /// IR-drop mitigation versus the sign-off worst case, in `[0, 1]`.
    pub mitigation_vs_signoff: f64,
    /// Total IRFailures raised during the run.
    pub failures: u64,
    /// Total simulated cycles across batches.
    pub total_cycles: u64,
    /// Fraction of macro-cycles lost to stalls/recompute.
    pub overhead_fraction: f64,
    /// Number of mapping batches the model was split into.
    pub batches: usize,
    /// Per-operator software outcomes.
    pub operators: Vec<OperatorOutcome>,
}

impl AimReport {
    /// Energy-efficiency improvement of this run versus a baseline run
    /// (ratio of per-macro power, > 1 means this run is more efficient).
    #[must_use]
    pub fn energy_efficiency_vs(&self, baseline: &AimReport) -> f64 {
        if self.avg_macro_power_mw <= 0.0 {
            return 0.0;
        }
        baseline.avg_macro_power_mw / self.avg_macro_power_mw
    }

    /// Speedup of this run versus a baseline run (ratio of effective TOPS).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &AimReport) -> f64 {
        if baseline.effective_tops <= 0.0 {
            return 0.0;
        }
        self.effective_tops / baseline.effective_tops
    }
}

/// Runs the offline software stack (QAT ± LHR, optional WDS) on every offline
/// operator of a model and returns the per-operator outcomes.
#[must_use]
pub fn optimize_model(model: &Model, config: &AimConfig) -> Vec<OperatorOutcome> {
    let params = ProcessParams::dpim_7nm();
    let macro_capacity = params.banks_per_macro * params.cells_per_bank;
    let qat_config = if config.use_lhr {
        QatConfig::with_lhr(config.bits)
    } else {
        QatConfig::baseline(config.bits)
    };
    let baseline_config = QatConfig::baseline(config.bits);

    let stride = config.operator_stride.unwrap_or(1).max(1);
    // Operators are independent (synthetic weights and training are
    // deterministic per spec), so the QAT/WDS stack fans out across worker
    // threads; outcomes come back in operator order.
    let selected: Vec<&workloads::operator::OperatorSpec> = model
        .operators()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, spec)| spec)
        .collect();
    selected
        .par_iter()
        .map(|&spec| {
            let slices = spec
                .macros_needed(macro_capacity)
                .min(params.total_macros());
            let cycles_per_slice = config.cycles_per_slice.max(spec.slice_cycles());
            if spec.input_determined() {
                // Runtime-produced operands: the software stack cannot touch
                // them; their HR is whatever the activations turn out to be.
                return OperatorOutcome {
                    name: spec.name.clone(),
                    hr: 0.5,
                    hr_baseline: 0.5,
                    input_determined: true,
                    relative_weight_shift: 0.0,
                    slices,
                    cycles_per_slice,
                };
            }
            let weights = spec.synthetic_weights();
            let baseline = train_layer(&spec.name, &weights, &baseline_config);
            let optimised = if config.use_lhr {
                train_layer(&spec.name, &weights, &qat_config)
            } else {
                baseline.clone()
            };
            let mut layer = optimised.layer.clone();
            let mut extra_shift = 0.0;
            if let Some(delta) = config.wds_delta {
                let (shifted, outcome) = apply_wds_to_layer(&layer, delta);
                // Clamped weights lose up to δ LSB; fold that into the
                // accuracy-relevant movement.
                let std_lsb = (f64::from(weights.std()) / layer.scheme.scale()).max(1e-9);
                extra_shift = outcome.overflow_fraction() * f64::from(delta) / std_lsb;
                layer = shifted;
            }
            OperatorOutcome {
                name: spec.name.clone(),
                hr: layer.hamming_rate(),
                hr_baseline: baseline.hr_after,
                input_determined: false,
                relative_weight_shift: optimised.relative_weight_shift + extra_shift,
                slices,
                cycles_per_slice,
            }
        })
        .collect()
}

/// Segments optimised operators into mapping batches that fit the chip.
#[must_use]
pub fn build_batches(outcomes: &[OperatorOutcome], params: &ProcessParams) -> Vec<Vec<TaskSlice>> {
    let capacity = params.total_macros();
    let mut batches: Vec<Vec<TaskSlice>> = Vec::new();
    let mut current: Vec<TaskSlice> = Vec::new();
    let mut set_in_batch = 0usize;
    for op in outcomes {
        let mut remaining = op.slices;
        while remaining > 0 {
            let free = capacity - current.len();
            if free == 0 {
                batches.push(std::mem::take(&mut current));
                set_in_batch = 0;
                continue;
            }
            let take = remaining.min(free);
            for i in 0..take {
                current.push(TaskSlice {
                    operator: format!("{}#{}", op.name, op.slices - remaining + i),
                    hr: op.hr,
                    input_determined: op.input_determined,
                    cycles: op.cycles_per_slice,
                    set_id: set_in_batch,
                });
            }
            remaining -= take;
            set_in_batch += 1;
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// One mapped batch of a [`CompiledPlan`]: the macro-task vector the mapping
/// stage produced, plus the cycle budget the runtime grants the batch.
#[derive(Debug, Clone)]
pub struct PlannedBatch {
    /// Compile-once chip template for the batch: task mapping, set
    /// derivation and electrical models are frozen here, so replays only
    /// pay the cheap seed-dependent half ([`ChipTemplate::with_seed`]).
    template: ChipTemplate,
    /// Cycle budget handed to the simulator (longest slice × 64 + 10k).
    max_cycles: u64,
    /// Useful cycles of the longest slice — the batch's ideal runtime under a
    /// failure-free static schedule, used for scheduling cost estimates.
    ideal_cycles: u64,
    /// Number of mapped slices.
    slices: usize,
}

/// The compile-once half of the AIM pipeline: offline software optimisation,
/// segmentation and task-to-macro mapping, frozen into a reusable plan.
///
/// [`run_model`] = `CompiledPlan::compile(..).execute()`.  Splitting the two
/// matters once the same model is executed many times — a serving runtime
/// replaying thousands of requests pays the QAT/WDS/annealing cost once and
/// keeps only the cheap chip-simulation half on its hot path
/// ([`Self::execute_with_session`]).  Each replay still constructs its
/// batches' simulators (the per-replay seed changes the flip sequences), but
/// the cycle-loop scratch is reused through one [`SimSession`] per chip
/// worker, so the simulation loop itself stays allocation-free.  A
/// simulator carries no flip bank until it first runs cycle-accurately:
/// it then fetches its seed's bank from its batch template's cache, and the
/// bank samples only the 16-row chunks the run reads.  Analytical
/// predictions (calibration's non-probe batches included) never touch
/// one.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    model: String,
    config: AimConfig,
    chip_config: ChipConfig,
    operators: Vec<OperatorOutcome>,
    batches: Vec<PlannedBatch>,
    hr_average: f64,
    hr_max: f64,
    hr_average_baseline: f64,
    predicted_quality: f64,
}

/// Serializable summary of one execution of a [`CompiledPlan`] — the
/// per-request outcome a serving runtime aggregates into its report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanExecution {
    /// Total simulated cycles across the plan's batches.
    pub cycles: u64,
    /// IRFailures raised during the execution.
    pub failures: u64,
    /// Macro-cycles of useful work.
    pub useful_macro_cycles: u64,
    /// Fraction of macro-cycles lost to stalls/recompute.
    pub overhead_fraction: f64,
    /// Mean per-macro power over the execution (mW).
    pub avg_macro_power_mw: f64,
    /// Effective throughput over the execution (TOPS).
    pub effective_tops: f64,
    /// Worst droop observed anywhere (mV).
    pub worst_irdrop_mv: f64,
    /// Mean droop over busy macros (mV).
    pub mean_irdrop_mv: f64,
}

impl CompiledPlan {
    /// Runs the offline software stack and the mapping stage once, freezing
    /// the result into an executable plan.
    #[must_use]
    pub fn compile(model: &Model, config: &AimConfig) -> Self {
        let params = ProcessParams::dpim_7nm();
        let operators = optimize_model(model, config);
        let raw_batches = build_batches(&operators, &params);
        let chip_config = ChipConfig {
            params,
            flip_mean: model.input_class().flip_mean(),
            flip_std: model.input_class().flip_std(),
            flip_sequence_len: 512,
            seed: config.seed,
            ..ChipConfig::default()
        };
        // Batch mappings are independent (each `map_tasks` call owns its
        // RNG), so the annealing fans out across worker threads; collect
        // preserves batch order, keeping the plan bit-identical to a
        // sequential compile.
        let batches: Vec<PlannedBatch> = raw_batches
            .par_iter()
            .map(|batch| {
                let mapping = map_tasks(batch, &params, config.mode, config.mapping);
                let tasks = mapping.to_macro_tasks(batch);
                let ideal_cycles = batch.iter().map(|s| s.cycles).max().unwrap_or(0);
                PlannedBatch {
                    template: ChipTemplate::new(chip_config.clone(), tasks),
                    max_cycles: ideal_cycles * 64 + 10_000,
                    ideal_cycles,
                    slices: batch.len(),
                }
            })
            .collect();
        let offline: Vec<&OperatorOutcome> =
            operators.iter().filter(|o| !o.input_determined).collect();
        let hr_average = mean(offline.iter().map(|o| o.hr));
        let hr_max = offline.iter().map(|o| o.hr).fold(0.0, f64::max);
        let hr_average_baseline = mean(offline.iter().map(|o| o.hr_baseline));
        let mean_shift = mean(offline.iter().map(|o| o.relative_weight_shift));
        let predicted_quality = model.accuracy_proxy().quality(mean_shift);
        Self {
            model: model.name().to_string(),
            config: *config,
            chip_config,
            operators,
            batches,
            hr_average,
            hr_max,
            hr_average_baseline,
            predicted_quality,
        }
    }

    /// Name of the compiled model.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The configuration the plan was compiled with.
    #[must_use]
    pub fn config(&self) -> &AimConfig {
        &self.config
    }

    /// Per-operator outcomes of the offline software stack.
    #[must_use]
    pub fn operators(&self) -> &[OperatorOutcome] {
        &self.operators
    }

    /// Number of mapping batches the model was split into.
    #[must_use]
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Electrical/architectural constants of the target chip.
    #[must_use]
    pub fn chip_params(&self) -> &ProcessParams {
        &self.chip_config.params
    }

    /// Total number of mapped macro slices across all batches.
    #[must_use]
    pub fn total_slices(&self) -> usize {
        self.batches.iter().map(|b| b.slices).sum()
    }

    /// Deterministic compile-time cost estimate: the plan's ideal runtime in
    /// cycles under a failure-free static schedule (sum of each batch's
    /// longest slice).  Serving schedulers use this for least-loaded dispatch
    /// and admission control *before* any simulation has run.
    #[must_use]
    pub fn estimated_cycles(&self) -> u64 {
        self.batches.iter().map(|b| b.ideal_cycles).sum()
    }

    /// Builds the chip simulator for one batch.  `seed_offset` perturbs the
    /// flip-sequence seed so a serving runtime can give every request replay
    /// distinct (but reproducible) input activity; offset 0 reproduces
    /// [`run_model`] exactly.
    ///
    /// Instantiation goes through the batch's compile-once [`ChipTemplate`]:
    /// topology and electrical models are shared, and the simulator builds
    /// no flip bank.  Its first cycle-accurate run fetches the seed's bank
    /// from the template's bounded cache, so repeated replays of the same
    /// plan (calibration probes, audit chips, offset-0 serve paths) pay no
    /// reconstruction beyond an `Arc` clone, a fresh seed's bank samples
    /// only the rows its runs read, and a simulator only ever predicted
    /// analytically pays for no bank at all.
    pub(crate) fn batch_simulator(&self, batch_idx: usize, seed_offset: u64) -> ChipSimulator {
        self.batches[batch_idx].template.with_seed(
            self.chip_config
                .seed
                .wrapping_add(batch_idx as u64)
                .wrapping_add(seed_offset),
        )
    }

    /// How many flip banks each batch's template holds.
    #[cfg(test)]
    pub(crate) fn cached_banks(&self) -> Vec<usize> {
        self.batches
            .iter()
            .map(|b| b.template.cached_banks())
            .collect()
    }

    /// The controller family the plan was compiled for: the IR-Booster when
    /// configured, the static sign-off baseline otherwise.  One construction
    /// point keeps every execution path (cycle-accurate, analytical probes,
    /// serving replays) driving the same policy.
    pub(crate) fn controller_for(&self, sim: &ChipSimulator) -> Box<dyn VfController> {
        match &self.config.booster {
            Some(bcfg) => Box::new(IrBoosterController::for_simulator(sim, *bcfg)),
            None => Box::new(StaticController::nominal(&self.chip_config.params)),
        }
    }

    /// Cycle budget granted to one batch.
    pub(crate) fn batch_max_cycles(&self, batch_idx: usize) -> u64 {
        self.batches[batch_idx].max_cycles
    }

    /// Runs one batch on a fresh scratch (the `run_model` path).
    fn run_batch(&self, batch_idx: usize, seed_offset: u64) -> RunReport {
        let sim = self.batch_simulator(batch_idx, seed_offset);
        let max_cycles = self.batches[batch_idx].max_cycles;
        let mut controller = self.controller_for(&sim);
        sim.run(controller.as_mut(), max_cycles)
    }

    /// Executes the plan, fanning batches out across worker threads, and
    /// assembles the full [`AimReport`].  Bit-identical to [`run_model`] with
    /// the same model and configuration.
    #[must_use]
    pub fn execute(&self) -> AimReport {
        // Batches are independent: each derives its own seed and maps onto a
        // fresh simulator, so they fan out across worker threads.  Reports
        // are aggregated afterwards in batch order, keeping every
        // floating-point accumulation identical to the sequential execution.
        let reports: Vec<RunReport> = (0..self.batches.len())
            .into_par_iter()
            .map(|batch_idx| self.run_batch(batch_idx, 0))
            .collect();
        let mut agg = RunAggregate::default();
        for report in &reports {
            agg.add(report);
        }
        let irdrop = IrDropModel::new(self.chip_config.params);

        AimReport {
            model: self.model.clone(),
            hr_average: self.hr_average,
            hr_max: self.hr_max,
            hr_average_baseline: self.hr_average_baseline,
            predicted_quality: self.predicted_quality,
            avg_macro_power_mw: agg.avg_power(),
            effective_tops: agg.avg_tops(),
            worst_irdrop_mv: agg.worst_irdrop_mv,
            mean_irdrop_mv: agg.mean_irdrop(),
            mitigation_vs_signoff: irdrop.mitigation_fraction(agg.worst_irdrop_mv),
            failures: agg.failures,
            total_cycles: agg.total_cycles,
            overhead_fraction: agg.overhead_fraction(),
            batches: self.batches.len(),
            operators: self.operators.clone(),
        }
    }

    /// The serving hot path: executes the plan's batches sequentially on the
    /// cycle-accurate engine through a caller-owned [`SimSession`], so a chip
    /// worker replaying many requests reuses one set of scratch buffers.
    ///
    /// With `seed_offset == 0` the simulated batches are exactly those of
    /// [`Self::execute`]; a nonzero offset derives a fresh deterministic
    /// input-activity stream per request.
    pub fn execute_with_session(
        &self,
        session: &mut SimSession,
        seed_offset: u64,
    ) -> PlanExecution {
        let mut agg = RunAggregate::default();
        for batch_idx in 0..self.batches.len() {
            let sim = self.batch_simulator(batch_idx, seed_offset);
            let max_cycles = self.batches[batch_idx].max_cycles;
            let mut controller = self.controller_for(&sim);
            let report =
                session.run_with_backend(&CycleAccurate, &sim, controller.as_mut(), max_cycles);
            agg.add(&report);
        }
        agg.summary()
    }
}

/// Runs the full AIM pipeline on a workload model.
#[must_use]
pub fn run_model(model: &Model, config: &AimConfig) -> AimReport {
    CompiledPlan::compile(model, config).execute()
}

/// Reference per-macro power of the pre-AIM design at its sign-off operating
/// point (the 4.2978 mW anchor), for energy-efficiency ratios that do not
/// need a full baseline run.
#[must_use]
pub fn reference_macro_power_mw() -> f64 {
    PowerModel::new(ProcessParams::dpim_7nm()).reference_macro_power_mw()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Accumulates batch reports into run-level figures.
#[derive(Debug, Default)]
pub(crate) struct RunAggregate {
    total_cycles: u64,
    failures: u64,
    useful: u64,
    stall: u64,
    recompute: u64,
    power_weighted: f64,
    tops_weighted: f64,
    droop_weighted: f64,
    weight: f64,
    worst_irdrop_mv: f64,
}

impl RunAggregate {
    pub(crate) fn add(&mut self, report: &RunReport) {
        let w = report.total_cycles.max(1) as f64;
        self.total_cycles += report.total_cycles;
        self.failures += report.failures;
        self.useful += report.useful_macro_cycles;
        self.stall += report.stall_macro_cycles;
        self.recompute += report.recompute_macro_cycles;
        self.power_weighted += report.avg_macro_power_mw * w;
        self.tops_weighted += report.effective_tops * w;
        self.droop_weighted += report.mean_irdrop_mv * w;
        self.weight += w;
        self.worst_irdrop_mv = self.worst_irdrop_mv.max(report.worst_irdrop_mv);
    }

    fn avg_power(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.power_weighted / self.weight
        }
    }

    fn avg_tops(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.tops_weighted / self.weight
        }
    }

    fn mean_irdrop(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.droop_weighted / self.weight
        }
    }

    fn overhead_fraction(&self) -> f64 {
        let busy = self.useful + self.stall + self.recompute;
        if busy == 0 {
            0.0
        } else {
            (self.stall + self.recompute) as f64 / busy as f64
        }
    }

    /// The serializable per-execution summary handed to serving runtimes.
    pub(crate) fn summary(&self) -> PlanExecution {
        PlanExecution {
            cycles: self.total_cycles,
            failures: self.failures,
            useful_macro_cycles: self.useful,
            overhead_fraction: self.overhead_fraction(),
            avg_macro_power_mw: self.avg_power(),
            effective_tops: self.avg_tops(),
            worst_irdrop_mv: self.worst_irdrop_mv,
            mean_irdrop_mv: self.mean_irdrop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small configuration keeping unit-test runtimes reasonable: only a
    /// handful of ResNet18 operators, short slices.
    fn quick(config: AimConfig) -> AimConfig {
        AimConfig {
            operator_stride: Some(5),
            cycles_per_slice: 60,
            ..config
        }
    }

    #[test]
    fn baseline_pipeline_produces_sensible_figures() {
        let model = Model::resnet18();
        let report = run_model(&model, &quick(AimConfig::baseline()));
        assert_eq!(report.model, "ResNet18");
        assert!(report.hr_average > 0.3 && report.hr_average < 0.6);
        assert!(report.effective_tops > 100.0);
        assert!(report.failures == 0, "sign-off baseline must not fail");
        assert!(report.worst_irdrop_mv < 140.0 + 1e-9);
        assert!(report.batches >= 1);
    }

    #[test]
    fn lhr_and_wds_reduce_hr_in_the_pipeline() {
        let model = Model::resnet18();
        let base = run_model(&model, &quick(AimConfig::baseline()));
        let lhr = run_model(
            &model,
            &quick(AimConfig {
                use_lhr: true,
                ..AimConfig::baseline()
            }),
        );
        let wds = run_model(
            &model,
            &quick(AimConfig {
                use_lhr: true,
                wds_delta: Some(16),
                ..AimConfig::baseline()
            }),
        );
        assert!(lhr.hr_average < base.hr_average * 0.9);
        assert!(wds.hr_average < lhr.hr_average);
        assert!(wds.hr_max <= base.hr_max);
    }

    #[test]
    fn full_aim_improves_energy_efficiency_and_mitigates_irdrop() {
        let model = Model::resnet18();
        let base = run_model(&model, &quick(AimConfig::baseline()));
        let aim = run_model(&model, &quick(AimConfig::full_low_power()));
        let ee = aim.energy_efficiency_vs(&base);
        assert!(
            ee > 1.5,
            "energy efficiency should improve well beyond 1.5×, got {ee}"
        );
        assert!(aim.worst_irdrop_mv < base.worst_irdrop_mv);
        assert!(aim.mitigation_vs_signoff > 0.4);
        // Throughput must not collapse from recompute overhead.
        assert!(aim.speedup_vs(&base) > 0.9);
    }

    #[test]
    fn sprint_mode_trades_power_for_throughput() {
        // Sprint mode prefers high-V/high-f pairs; low-power mode prefers
        // low-V pairs.  Sprint therefore draws at least as much power, and
        // its throughput stays competitive (it can dip slightly below the
        // low-power run when aggressive levels trigger recomputes — the
        // paper's Fig. 19-(c) shows the same effect for conv workloads).
        let model = Model::resnet18();
        let low = run_model(&model, &quick(AimConfig::full_low_power()));
        let sprint = run_model(&model, &quick(AimConfig::full_sprint()));
        assert!(sprint.avg_macro_power_mw >= low.avg_macro_power_mw * 0.95);
        assert!(sprint.effective_tops >= low.effective_tops * 0.95);
    }

    #[test]
    fn predicted_quality_stays_close_to_baseline() {
        let model = Model::resnet18();
        let aim = run_model(&model, &quick(AimConfig::full_low_power()));
        let drop = model.baseline_quality() - aim.predicted_quality;
        assert!(
            drop.abs() < 1.0,
            "LHR+WDS should cost <1 accuracy point, got {drop}"
        );
    }

    #[test]
    fn batches_respect_chip_capacity() {
        let model = Model::vit_base();
        let config = quick(AimConfig::baseline());
        let ops = optimize_model(&model, &config);
        let batches = build_batches(&ops, &ProcessParams::dpim_7nm());
        assert!(!batches.is_empty());
        for b in &batches {
            assert!(b.len() <= 64);
        }
        let total_slices: usize = batches.iter().map(Vec::len).sum();
        let expected: usize = ops.iter().map(|o| o.slices).sum();
        assert_eq!(total_slices, expected);
    }

    #[test]
    fn transformer_pipeline_contains_input_determined_operators() {
        let model = Model::vit_base();
        let config = AimConfig {
            operator_stride: Some(7),
            ..quick(AimConfig::baseline())
        };
        let ops = optimize_model(&model, &config);
        assert!(ops.iter().any(|o| o.input_determined));
        assert!(ops.iter().any(|o| !o.input_determined));
    }

    #[test]
    fn reference_power_matches_the_anchor() {
        assert!((reference_macro_power_mw() - 4.2978).abs() < 0.05);
    }

    #[test]
    fn compiled_plan_execute_matches_run_model() {
        let model = Model::resnet18();
        let config = quick(AimConfig::baseline());
        let plan = CompiledPlan::compile(&model, &config);
        let via_plan = plan.execute();
        let direct = run_model(&model, &config);
        assert_eq!(via_plan, direct, "compile/execute split must not drift");
        // Repeated executions of one plan are bit-identical too.
        assert_eq!(plan.execute(), via_plan);
        assert_eq!(plan.num_batches(), via_plan.batches);
        assert!(plan.estimated_cycles() > 0);
        assert!(plan.total_slices() >= plan.num_batches());
    }

    #[test]
    fn session_execution_summarises_the_same_simulations() {
        let model = Model::resnet18();
        let config = quick(AimConfig::baseline());
        let plan = CompiledPlan::compile(&model, &config);
        let report = plan.execute();
        let mut session = SimSession::new();
        let exec = plan.execute_with_session(&mut session, 0);
        assert_eq!(exec.cycles, report.total_cycles);
        assert_eq!(exec.failures, report.failures);
        assert!((exec.avg_macro_power_mw - report.avg_macro_power_mw).abs() < 1e-12);
        assert!((exec.worst_irdrop_mv - report.worst_irdrop_mv).abs() < 1e-12);
        assert_eq!(session.runs(), plan.num_batches() as u64);
        // A different seed offset replays the plan under different input
        // activity but stays deterministic per offset.
        let off_a = plan.execute_with_session(&mut session, 7);
        let off_b = plan.execute_with_session(&mut session, 7);
        assert_eq!(off_a, off_b);
        assert_ne!(off_a, exec);
    }

    #[test]
    fn estimated_cycles_bounds_the_failure_free_run() {
        let model = Model::resnet18();
        let config = quick(AimConfig::baseline());
        let plan = CompiledPlan::compile(&model, &config);
        let report = plan.execute();
        // The static baseline never fails, so the actual runtime equals the
        // ideal estimate the scheduler uses.
        assert_eq!(report.failures, 0);
        assert_eq!(plan.estimated_cycles(), report.total_cycles);
    }
}
