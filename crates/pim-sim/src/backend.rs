//! Pluggable execution backends for the chip simulator.
//!
//! A [`ChipSimulator`] describes *mechanism* — tasks, sets, electrical
//! models; an [`ExecutionBackend`] decides *how the run is evaluated*:
//!
//! * [`CycleAccurate`] is the reference engine: every cycle samples each
//!   macro's toggle rate, evaluates IR-drop, drives the voltage monitor,
//!   applies stall/recompute bookkeeping and steps the [`VfController`].
//!   This is the per-cycle loop the paper's experiments run on, and the
//!   default everywhere (`ChipSimulator::run` delegates here), so every
//!   golden figure stays byte-identical.
//! * [`AnalyticalBackend`] is the calibrated fast path: it replays only a
//!   *group-level* virtual loop (16 groups instead of 64 macros, no RNG, no
//!   per-macro droop evaluation) against a closed-form failure-probability
//!   model, and assembles the run report from expected-value arithmetic.
//!   Its coefficients are fitted per `(ChipConfig, controller)` from a
//!   handful of cycle-accurate probe runs ([`Calibration::fit`]), which
//!   also records the error bound observed during that fit
//!   ([`Calibration::error_bound`]).
//!
//! The closed-form pieces exploit structure the models already have: both
//! the droop (Eq. 2) and the dynamic power are *affine* in the toggle rate,
//! so their per-cycle expectations equal the model evaluated at the expected
//! toggle rate; the failure probability of a group at a fixed operating
//! point reduces to a Gaussian tail of the input flip-fraction distribution
//! past a critical toggle rate recovered from the monitor threshold.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use ir_model::monitor::IrMonitor;
use ir_model::vf::VfPair;

use crate::chip::{
    ChipConfig, ChipSimulator, GroupObservation, MacroTask, RunReport, SimScratch, TraceSample,
    VfController,
};

/// Which execution backend a runtime component should use.  The enum exists
/// so configurations (e.g. a serving fleet's per-chip choice) stay `Copy` and
/// serializable; it maps onto the trait objects at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The reference per-cycle engine ([`CycleAccurate`]).
    CycleAccurate,
    /// The calibrated closed-form fast path ([`AnalyticalBackend`]).
    Analytical,
}

impl BackendKind {
    /// Short human-readable name (`"cycle-accurate"` / `"analytical"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CycleAccurate => "cycle-accurate",
            Self::Analytical => "analytical",
        }
    }
}

/// Health of one simulated chip, as a serving fleet sees it.
///
/// A degraded chip still produces correct results but takes longer: its
/// service cycles stretch by `slowdown_percent` (a chip at `Degraded {
/// slowdown_percent: 50 }` needs 1.5× the healthy cycle count).  The knob is
/// pure integer arithmetic on the *cycle count* an execution reports, so it
/// slows a chip identically whichever [`ExecutionBackend`] produced the
/// count — cycle-accurate measurements and analytical predictions stretch by
/// the same factor, keeping heterogeneous fleets consistent under fault
/// injection.  Electrical aggregates (power, droop) are deliberately left
/// untouched: degradation models a timing derate (e.g. a thermally throttled
/// or margin-limited chip), not a different electrical operating point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipHealth {
    /// Nominal service rate — [`Self::scale_cycles`] is the identity.
    #[default]
    Healthy,
    /// Timing-derated chip: service cycles stretch by `slowdown_percent`.
    Degraded {
        /// Relative stretch of the chip's service cycles, in percent
        /// (50 ⇒ 1.5× the healthy cycle count).
        slowdown_percent: u32,
    },
}

impl ChipHealth {
    /// Applies the health derate to a cycle count (integer arithmetic,
    /// rounding toward zero — deterministic and backend-independent).
    #[must_use]
    pub fn scale_cycles(self, cycles: u64) -> u64 {
        match self {
            Self::Healthy => cycles,
            Self::Degraded { slowdown_percent } => {
                cycles.saturating_mul(100 + u64::from(slowdown_percent)) / 100
            }
        }
    }

    /// Whether the chip runs at its nominal service rate.
    #[must_use]
    pub fn is_healthy(self) -> bool {
        self == Self::Healthy
    }
}

/// Strategy evaluating one chip simulation run.
///
/// Implementations must be deterministic functions of `(sim, controller,
/// max_cycles)` — no wall clock, no shared mutable state — so that every
/// consumer (experiments, the serving runtime, property tests) keeps the
/// repo-wide reproducibility contract.
pub trait ExecutionBackend: std::fmt::Debug + Send + Sync {
    /// Evaluates `sim` under `controller` for at most `max_cycles`, using
    /// caller-provided scratch (a cycle-accurate backend runs its loop in
    /// it; approximate backends may ignore it).
    ///
    /// # Panics
    ///
    /// Panics if the controller returns the wrong number of decisions or the
    /// scratch was built for a different chip geometry.
    fn run_with_scratch(
        &self,
        sim: &ChipSimulator,
        controller: &mut dyn VfController,
        max_cycles: u64,
        scratch: &mut SimScratch,
    ) -> RunReport;

    /// One run on fresh scratch; [`crate::chip::SimSession::run_with_backend`]
    /// reuses one scratch across runs.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::run_with_scratch`].
    fn run(
        &self,
        sim: &ChipSimulator,
        controller: &mut dyn VfController,
        max_cycles: u64,
    ) -> RunReport {
        let params = &sim.config.params;
        let mut scratch = SimScratch::new(params.total_macros(), params.macro_groups);
        self.run_with_scratch(sim, controller, max_cycles, &mut scratch)
    }
}

/// The reference per-cycle engine (the simulator behaviour every paper
/// experiment and golden file was produced with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAccurate;

impl ExecutionBackend for CycleAccurate {
    fn run_with_scratch(
        &self,
        sim: &ChipSimulator,
        controller: &mut dyn VfController,
        max_cycles: u64,
        scratch: &mut SimScratch,
    ) -> RunReport {
        let params = &sim.config.params;
        let total_macros = params.total_macros();
        let groups = params.macro_groups;
        let mpg = params.macros_per_group;
        let margin = sim.config.failure_margin_v;

        scratch.reset(sim);
        let mut unfinished = scratch.remaining.iter().filter(|&&r| r > 0).count();

        let mut monitor = IrMonitor::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(sim.config.seed ^ 0x5EED);

        let mut report = RunReport {
            per_macro_stall_cycles: vec![0; total_macros],
            ..RunReport::default()
        };
        let mut power_accum = 0.0f64;
        let mut power_samples = 0u64;
        let mut droop_accum = 0.0f64;
        let mut droop_samples = 0u64;
        let mut freq_weighted_useful = 0.0f64;

        let topo = sim.topology.as_ref();
        let flip_bank = sim.flip_bank();
        let mut cycle: u64 = 0;
        while cycle < max_cycles && unfinished > 0 {
            // --- fused activity / droop / monitoring sweep ----------------------
            // One group-major pass replaces the legacy per-macro activity pass
            // and both per-group member loops (droop + worst-known HR).  Flat
            // macro order equals group-major order (groups are contiguous), so
            // the RNG draw order and every floating-point accumulation order
            // are unchanged.  Failure effects are *deferred* (see
            // `SimScratch::pending_failures`): in the legacy three-pass loop
            // the activity pass completed before any failure write, so a
            // fused sweep must not let group g's failure stall a set mate in
            // group g' > g before that mate sampled its activity this cycle.
            scratch.rtog.fill(0.0);
            scratch.observations.clear();
            scratch.pending_failures.clear();
            let flip_row = flip_bank.row(cycle);
            let mut worst_droop_this_cycle = 0.0f64;
            for g in 0..groups {
                let point = scratch.points[g];
                let droop_at = topo.irdrop.at_point(point.voltage, point.frequency_ghz);
                let mut group_active = false;
                let mut worst_macro = None;
                let mut worst_droop = 0.0f64;
                let mut worst_known: Option<f64> = None;
                let mut unknown = false;
                // `m` indexes half a dozen scratch arrays besides
                // `flip_row`; a range loop is the clearest form.
                #[allow(clippy::needless_range_loop)]
                for m in (g * mpg)..((g + 1) * mpg) {
                    if scratch.remaining[m] == 0 {
                        scratch.busy[m] = false;
                        report.idle_macro_cycles += 1;
                        continue;
                    }
                    scratch.busy[m] = true;
                    // A macro that is recomputing (V-f adjustment) or stalled
                    // by a set mate is not streaming inputs, so its bitstreams
                    // do not toggle this cycle.
                    if cycle >= scratch.penalty_until[m] && cycle >= scratch.stall_until[m] {
                        let task = topo.tasks[m].as_ref().expect("busy macro must have a task");
                        // Input-determined operators have no offline HR; their
                        // runtime toggle behaviour is still bounded by the
                        // actual operand Hamming rate, modelled with jitter.
                        let hr = if task.input_determined {
                            (task.weight_hr + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0)
                        } else {
                            task.weight_hr
                        };
                        scratch.rtog[m] = (hr * flip_row[m]).clamp(0.0, 1.0);
                    }
                    group_active = true;
                    // Stalled/recomputing macros evaluate the droop model at
                    // toggle 0.
                    let droop = droop_at.irdrop_mv(scratch.rtog[m]);
                    droop_accum += droop;
                    droop_samples += 1;
                    if droop > worst_droop {
                        worst_droop = droop;
                        worst_macro = Some(m);
                    }
                }
                // Worst offline-known HR for the controller's safe-level
                // logic.  Kept as a separate mini-loop over static task data:
                // folding it into the sweep above adds enough live state to
                // measurably slow the whole kernel (register pressure).
                for m in (g * mpg)..((g + 1) * mpg) {
                    if !scratch.busy[m] {
                        continue;
                    }
                    let task = topo.tasks[m].as_ref().expect("busy macro must have a task");
                    if task.input_determined {
                        unknown = true;
                    } else {
                        worst_known = Some(
                            worst_known.map_or(task.weight_hr, |w: f64| w.max(task.weight_hr)),
                        );
                    }
                }
                report.worst_irdrop_mv = report.worst_irdrop_mv.max(worst_droop);
                worst_droop_this_cycle = worst_droop_this_cycle.max(worst_droop);

                // The monitor threshold tracks the group's current frequency,
                // minus the configured setup margin.  The vmin bisection runs
                // once per frequency, not per cycle (see `VminMemo`).
                monitor.set_threshold(scratch.vmin_memo.vmin(point.frequency_ghz) - margin);
                let v_eff = point.voltage - worst_droop * 1e-3;
                let failure = group_active && monitor.is_failure(v_eff);
                if failure {
                    report.failures += 1;
                    if let Some(fm) = worst_macro {
                        scratch
                            .pending_failures
                            .push((fm, cycle + sim.config.recompute_penalty_cycles));
                    }
                }
                scratch.observations.push(GroupObservation {
                    group: g,
                    failure,
                    active: group_active,
                    worst_known_hr: if unknown { None } else { worst_known },
                    point,
                });
            }

            // --- deferred failure effects ---------------------------------------
            // Applied in group order, exactly the writes the legacy loop made
            // inline; all of them are max-merges, so deferral changes no value.
            for &(fm, until) in &scratch.pending_failures {
                scratch.penalty_until[fm] = scratch.penalty_until[fm].max(until);
                // Stall every other member of the failing macro's set
                // (partial sums must stay consistent, Fig. 11)...
                if let Some(set_idx) = topo.set_index[fm] {
                    for &mate in &topo.sets[set_idx].members {
                        if mate != fm && scratch.remaining[mate] > 0 {
                            scratch.stall_until[mate] = scratch.stall_until[mate].max(until);
                        }
                    }
                }
                // ...and every other macro of the failing group: the group
                // shares one LDO/PLL, so its V-f re-adjustment pauses all of
                // them — the interference that makes mixing unrelated tasks
                // in one group expensive.
                let fg = topo.macro_group[fm];
                for mate in fg * mpg..(fg + 1) * mpg {
                    if mate != fm && scratch.remaining[mate] > 0 {
                        scratch.stall_until[mate] = scratch.stall_until[mate].max(until);
                    }
                }
            }

            // --- progress, power and accounting ---------------------------------
            // This sweep must stay separate from the fused one: it reads the
            // deferred `stall_until`/`penalty_until` writes of *every* group
            // in the same cycle (sets span groups).  Group-major order is
            // flat macro order, so the accumulation order is unchanged.
            for g in 0..groups {
                let point = scratch.points[g];
                let power_at = topo.power.at_point(point.voltage, point.frequency_ghz);
                for m in (g * mpg)..((g + 1) * mpg) {
                    if !scratch.busy[m] {
                        continue;
                    }
                    let in_penalty = cycle < scratch.penalty_until[m];
                    let in_stall = cycle < scratch.stall_until[m];
                    let (toggle, progressed) = if in_penalty || in_stall {
                        (0.0, false)
                    } else {
                        (scratch.rtog[m], true)
                    };
                    if progressed {
                        scratch.remaining[m] -= 1;
                        if scratch.remaining[m] == 0 {
                            unfinished -= 1;
                        }
                        report.useful_macro_cycles += 1;
                        freq_weighted_useful += point.frequency_ghz;
                    } else if in_penalty {
                        report.recompute_macro_cycles += 1;
                    } else {
                        report.stall_macro_cycles += 1;
                        report.per_macro_stall_cycles[m] += 1;
                    }
                    power_accum += power_at.total_mw(toggle);
                    power_samples += 1;
                }
            }

            // --- optional trace --------------------------------------------------
            if sim.config.trace_interval > 0 && cycle.is_multiple_of(sim.config.trace_interval) {
                let macro_voltage: Vec<f64> = topo
                    .macro_group
                    .iter()
                    .map(|&g| scratch.points[g].voltage)
                    .collect();
                let macro_frequency: Vec<f64> = topo
                    .macro_group
                    .iter()
                    .map(|&g| scratch.points[g].frequency_ghz)
                    .collect();
                report.trace.push(TraceSample {
                    cycle,
                    macro_rtog: scratch.rtog.clone(),
                    macro_voltage,
                    macro_frequency_ghz: macro_frequency,
                    worst_droop_mv: worst_droop_this_cycle,
                });
            }

            // --- controller decides the next cycle's operating points ------------
            scratch.decisions.clear();
            controller.decide_into(cycle, &scratch.observations, &mut scratch.decisions);
            assert_eq!(
                scratch.decisions.len(),
                groups,
                "controller must return one decision per group"
            );
            for (g, d) in scratch.decisions.iter().enumerate() {
                scratch.points[g] = d.point;
            }

            cycle += 1;
        }

        report.total_cycles = cycle;
        report.avg_macro_power_mw = if power_samples == 0 {
            0.0
        } else {
            power_accum / power_samples as f64
        };
        report.mean_irdrop_mv = if droop_samples == 0 {
            0.0
        } else {
            droop_accum / droop_samples as f64
        };
        // Effective TOPS: useful macro-cycles at their actual frequencies,
        // spread over the wall-clock cycles of the run and all macros.
        let denom = (cycle as f64) * total_macros as f64;
        report.effective_tops = if denom > 0.0 {
            params.peak_tops() * (freq_weighted_useful / params.nominal_frequency_ghz) / denom
        } else {
            0.0
        };
        report
    }
}

/// Fitted correction coefficients of an [`AnalyticalBackend`], one set per
/// `(ChipConfig, controller)` pair.
///
/// The raw closed-form prediction captures the first-order structure of a
/// run (steady-state operating points, expected failure rates, affine power
/// and droop); the scales absorb everything second-order the probe runs
/// reveal — sampling noise in the max-droop tail, cross-group set stalls,
/// the controller reacting to finished macros.  `error_bound` is the
/// self-reported promise: the worst relative cycle-count residual seen on
/// the probes after scaling, doubled and padded for unseen workloads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Multiplier on the predicted total cycle count.
    pub cycle_scale: f64,
    /// Multiplier on the predicted mean per-macro power.
    pub power_scale: f64,
    /// Multiplier on the predicted mean droop.
    pub mean_droop_scale: f64,
    /// Multiplier on the predicted worst droop.
    pub worst_droop_scale: f64,
    /// Multiplier on the predicted effective TOPS.
    pub tops_scale: f64,
    /// Multiplier on the predicted failure count (and the stall/recompute
    /// cycles that are proportional to it).
    pub failure_scale: f64,
    /// Self-reported relative cycle-count error bound versus cycle-accurate.
    pub error_bound: f64,
    /// Number of probe runs the fit used (0 for [`Self::identity`]).
    pub probe_runs: usize,
}

impl Calibration {
    /// Floor of the self-reported error bound: even a perfect fit on the
    /// probes promises no better than this against unseen runs (replay seeds
    /// change the sampled flip sequences).
    pub const MIN_ERROR_BOUND: f64 = 0.05;

    /// The uncalibrated identity (all scales 1).  Its error bound is a
    /// deliberately loose default since nothing has been validated.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            cycle_scale: 1.0,
            power_scale: 1.0,
            mean_droop_scale: 1.0,
            worst_droop_scale: 1.0,
            tops_scale: 1.0,
            failure_scale: 1.0,
            error_bound: 0.25,
            probe_runs: 0,
        }
    }

    /// Fits scales from `(raw analytical prediction, cycle-accurate actual)`
    /// probe pairs: each scale is the mean actual/raw ratio (1 when a raw
    /// figure is zero), and the error bound is twice the worst post-scaling
    /// relative cycle residual plus `slack`, floored at
    /// [`Self::MIN_ERROR_BOUND`].
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    #[must_use]
    pub fn fit(pairs: &[(RunReport, RunReport)], slack: f64) -> Self {
        assert!(!pairs.is_empty(), "calibration needs at least one probe");
        let ratio = |f: &dyn Fn(&RunReport) -> f64| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for (raw, actual) in pairs {
                let r = f(raw);
                // An actual of 0 against a nonzero raw is real evidence (the
                // closed form over-predicts, e.g. phantom failures) and must
                // drag the scale down, so only a zero *raw* figure — where no
                // ratio exists — is skipped.
                if r > 0.0 {
                    sum += f(actual) / r;
                    n += 1;
                }
            }
            if n == 0 {
                1.0
            } else {
                sum / n as f64
            }
        };
        let cycle_scale = ratio(&|r| r.total_cycles as f64);
        let mut worst_resid = 0.0f64;
        for (raw, actual) in pairs {
            if actual.total_cycles == 0 {
                continue;
            }
            let predicted = raw.total_cycles as f64 * cycle_scale;
            let resid = (predicted - actual.total_cycles as f64).abs() / actual.total_cycles as f64;
            worst_resid = worst_resid.max(resid);
        }
        Self {
            cycle_scale,
            power_scale: ratio(&|r| r.avg_macro_power_mw),
            mean_droop_scale: ratio(&|r| r.mean_irdrop_mv),
            worst_droop_scale: ratio(&|r| r.worst_irdrop_mv),
            tops_scale: ratio(&|r| r.effective_tops),
            failure_scale: ratio(&|r| r.failures as f64),
            error_bound: (2.0 * worst_resid + slack).max(Self::MIN_ERROR_BOUND),
            probe_runs: pairs.len(),
        }
    }

    /// Online recalibration: folds an EWMA of observed signed relative cycle
    /// residuals (`(actual - predicted) / predicted`) back into the cycle
    /// scale.  A positive EWMA means the calibrated prediction has been
    /// running short, so the scale grows by exactly that factor; the other
    /// scales and the self-reported bound are untouched — the bound is a
    /// *promise*, and the loop's job is to keep the realised drift inside
    /// it, not to move the goalposts.
    ///
    /// # Panics
    ///
    /// Panics if `ewma_residual` is not finite or would drive the cycle
    /// scale to zero or below.
    #[must_use]
    pub fn recalibrated(&self, ewma_residual: f64) -> Self {
        assert!(
            ewma_residual.is_finite(),
            "recalibration needs a finite residual EWMA"
        );
        assert!(
            ewma_residual > -1.0,
            "a residual EWMA of {ewma_residual} would zero out the cycle scale"
        );
        Self {
            cycle_scale: self.cycle_scale * (1.0 + ewma_residual),
            ..*self
        }
    }
}

/// Configuration of the *online* calibration loop a serving layer runs on
/// top of a fitted [`Calibration`]: drift samples (in-band verification,
/// audit-chip replays) feed an EWMA of signed post-scaling cycle residuals,
/// and at fixed virtual-time boundaries the loop recalibrates
/// ([`Calibration::recalibrated`]) and demotes/promotes the model between
/// the analytical fast path and cycle-accurate execution.
///
/// Construct with a struct literal over [`Self::default`];
/// [`Self::validate`] rejects degenerate values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationLoopConfig {
    /// Weight of each new drift sample in the EWMA (`0 < decay <= 1`):
    /// `ewma = decay * sample + (1 - decay) * ewma`.
    pub ewma_decay: f64,
    /// Consecutive out-of-bound EWMA observations (at recalibration
    /// boundaries with fresh samples) before a model demotes to
    /// cycle-accurate execution.
    pub demote_streak: u32,
    /// Consecutive in-bound observations before a demoted model promotes
    /// back to the analytical fast path.
    pub promote_streak: u32,
    /// Virtual-time interval between recalibration boundaries (cycles).
    pub recalibrate_interval_cycles: u64,
}

impl Default for CalibrationLoopConfig {
    fn default() -> Self {
        Self {
            ewma_decay: 0.25,
            demote_streak: 2,
            promote_streak: 3,
            recalibrate_interval_cycles: 25_000,
        }
    }
}

impl CalibrationLoopConfig {
    /// Checks the configuration invariants.
    ///
    /// # Panics
    ///
    /// Panics if the EWMA decay is zero, negative, above 1 or not finite
    /// (NaN never converges), or if either streak is zero (a zero streak
    /// would demote/promote on no evidence at all), or if the recalibration
    /// interval is zero (the loop must advance virtual time).
    pub fn validate(&self) {
        assert!(
            self.ewma_decay.is_finite() && self.ewma_decay > 0.0 && self.ewma_decay <= 1.0,
            "the EWMA decay must lie in (0, 1]"
        );
        assert!(
            self.demote_streak >= 1,
            "the demotion streak must be at least 1"
        );
        assert!(
            self.promote_streak >= 1,
            "the promotion streak must be at least 1"
        );
        assert!(
            self.recalibrate_interval_cycles >= 1,
            "the recalibration interval must be at least one cycle"
        );
    }
}

/// The calibrated closed-form fast path.
///
/// Instead of the per-cycle macro loop, the backend runs a *group-level*
/// virtual loop: each group carries an expected-failure accumulator fed by a
/// closed-form per-cycle failure probability (a Gaussian tail of the flip
/// distribution past the critical toggle rate implied by the monitor
/// threshold), tasks progress in group lockstep, and the real
/// [`VfController`] is stepped on the resulting observations so its policy
/// dynamics (safe levels, aggressive-level walks, set frequency sync) are
/// preserved.  Power, droop and throughput come from expected-value
/// arithmetic over the visited operating points, corrected by the fitted
/// [`Calibration`].
///
/// Build one with [`AnalyticalBackend::calibrate_with`] (probe runs), or
/// [`AnalyticalBackend::uncalibrated`] for quick estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticalBackend {
    calibration: Calibration,
}

impl AnalyticalBackend {
    /// A backend with identity scales and a loose default error bound.
    #[must_use]
    pub fn uncalibrated() -> Self {
        Self {
            calibration: Calibration::identity(),
        }
    }

    /// Wraps an explicit (e.g. deserialized) calibration.
    #[must_use]
    pub const fn with_calibration(calibration: Calibration) -> Self {
        Self { calibration }
    }

    /// The calibration in force.
    #[must_use]
    pub const fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Calibrates a backend for one `(ChipConfig, controller)` family by
    /// running each probe simulator cycle-accurately and fitting the raw
    /// analytical prediction against it.  `make_controller` must build a
    /// fresh controller of the family being calibrated (it is invoked twice
    /// per probe: once for the reference run, once for the prediction).
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty.
    pub fn calibrate_with(
        probes: &[ChipSimulator],
        mut make_controller: impl FnMut(&ChipSimulator) -> Box<dyn VfController>,
        max_cycles: u64,
        slack: f64,
    ) -> Self {
        assert!(!probes.is_empty(), "calibration needs at least one probe");
        let raw = Self::uncalibrated();
        let pairs: Vec<(RunReport, RunReport)> = probes
            .iter()
            .map(|sim| {
                let mut ctrl = make_controller(sim);
                let actual = CycleAccurate.run(sim, ctrl.as_mut(), max_cycles);
                let mut ctrl = make_controller(sim);
                let predicted = raw.run(sim, ctrl.as_mut(), max_cycles);
                (predicted, actual)
            })
            .collect();
        Self::with_calibration(Calibration::fit(&pairs, slack))
    }

    /// Uniform-HR probe simulators sharing `config`'s electrical setup — a
    /// convenient probe set when no workload-specific batches are available.
    #[must_use]
    pub fn probe_simulators(config: &ChipConfig, hrs: &[f64], cycles: u64) -> Vec<ChipSimulator> {
        hrs.iter()
            .map(|&hr| {
                let tasks: Vec<Option<MacroTask>> = (0..config.params.total_macros())
                    .map(|m| Some(MacroTask::new(format!("probe-{m}"), hr, cycles, m % 8)))
                    .collect();
                ChipSimulator::new(config.clone(), tasks)
            })
            .collect()
    }
}

impl ExecutionBackend for AnalyticalBackend {
    fn run_with_scratch(
        &self,
        sim: &ChipSimulator,
        controller: &mut dyn VfController,
        max_cycles: u64,
        _scratch: &mut SimScratch,
    ) -> RunReport {
        predict(sim, controller, max_cycles, &self.calibration)
    }
}

/// Upper tail `P(Z > z)` of the standard normal, via the Abramowitz–Stegun
/// 7.1.26 `erf` approximation (max abs error ≈ 1.5e-7 — far below the
/// calibrated error bound).
fn normal_tail(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let (sign, x) = if x < 0.0 { (-1.0, -x) } else { (1.0, x) };
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = sign * (1.0 - poly * (-x * x).exp());
    0.5 * (1.0 - erf)
}

/// Expected maximum z-score of `n` standard-normal samples (Cramér
/// asymptotic), used for the worst-droop tail estimate.
fn max_of_n_zscore(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (2.0 * (n as f64).ln()).sqrt()
}

/// One active macro of a group stage.
struct MacroInfo {
    hr: f64,
    /// Index into the simulator's set list (for cross-group stall coupling).
    set_idx: Option<usize>,
}

/// One active-set stage of a group: the macros still running while the
/// group's lockstep progress is below `until_progress`.
struct GroupStage {
    until_progress: u64,
    macros: Vec<MacroInfo>,
    worst_known_hr: Option<f64>,
    max_hr: f64,
}

/// Cached per-(group, stage, operating point) closed-form figures.
struct PointStats {
    point: VfPair,
    stage: usize,
    /// Per-cycle probability that the group's monitor raises `IRFailure`.
    p_fail: f64,
    /// Σ over active macros of expected power (mW) while progressing.
    progress_power_sum: f64,
    /// Power (mW) of one busy-but-stalled macro (toggle 0).
    stall_power_mw: f64,
    /// Σ over active macros of expected droop (mV) while progressing.
    droop_mean_sum: f64,
    /// Progressing cycles spent at this entry (for the max-droop tail).
    progress_dwell: u64,
    /// Highest weight HR among the entry's active macros.
    max_hr: f64,
    /// Expected cross-group stall coupling of one failure here: entry `g` is
    /// the probability-weighted fraction of group `g`'s mapped macros that
    /// belong to the failing macro's logical set (operators span groups, so
    /// one recompute stalls set mates fleet-wide — paper Fig. 11).
    coupling: Vec<f64>,
}

/// The raw group-level predictor; `calibration` is applied on the way out.
#[allow(clippy::too_many_lines)]
fn predict(
    sim: &ChipSimulator,
    controller: &mut dyn VfController,
    max_cycles: u64,
    calibration: &Calibration,
) -> RunReport {
    let config = &sim.config;
    let params = &config.params;
    let total_macros = params.total_macros();
    let groups = params.macro_groups;
    let mpg = params.macros_per_group;
    let penalty = config.recompute_penalty_cycles.max(1);
    let flip_mean = config.flip_mean;
    let flip_std = config.flip_std.max(1e-9);
    let static_droop_mv = params.static_droop() * 1e3;
    let dyn_coef_v = params.dynamic_droop_coefficient();
    let nominal = VfPair::new(params.nominal_voltage, params.nominal_frequency_ghz);
    let mut monitor = IrMonitor::new(params);

    // --- per-group lockstep stages -----------------------------------------
    let stages: Vec<Vec<GroupStage>> = (0..groups)
        .map(|g| {
            let members: Vec<(usize, &MacroTask)> = (g * mpg..(g + 1) * mpg)
                .filter_map(|m| sim.topology.tasks[m].as_ref().map(|t| (m, t)))
                .collect();
            let mut thresholds: Vec<u64> = members.iter().map(|(_, t)| t.cycles).collect();
            thresholds.sort_unstable();
            thresholds.dedup();
            thresholds
                .iter()
                .map(|&until| {
                    let active: Vec<&(usize, &MacroTask)> =
                        members.iter().filter(|(_, t)| t.cycles >= until).collect();
                    let mut worst_known: Option<f64> = None;
                    let mut unknown = false;
                    let mut max_hr = 0.0f64;
                    for (_, t) in &active {
                        max_hr = max_hr.max(t.weight_hr);
                        if t.input_determined {
                            unknown = true;
                        } else {
                            worst_known =
                                Some(worst_known.map_or(t.weight_hr, |w: f64| w.max(t.weight_hr)));
                        }
                    }
                    GroupStage {
                        until_progress: until,
                        macros: active
                            .iter()
                            .map(|&&(m, t)| MacroInfo {
                                hr: t.weight_hr,
                                set_idx: sim.topology.set_index[m],
                            })
                            .collect(),
                        worst_known_hr: if unknown { None } else { worst_known },
                        max_hr,
                    }
                })
                .collect()
        })
        .collect();

    // Mapped-macro overlap of each logical set with each group, and each
    // group's mapped population — the static structure behind the
    // cross-group stall coupling.
    let set_group_count: Vec<Vec<f64>> = sim
        .topology
        .sets
        .iter()
        .map(|set| {
            let mut counts = vec![0.0f64; groups];
            for &m in &set.members {
                counts[sim.topology.macro_group[m]] += 1.0;
            }
            counts
        })
        .collect();
    let mapped_count: Vec<f64> = (0..groups)
        .map(|g| {
            (g * mpg..(g + 1) * mpg)
                .filter(|&m| sim.topology.tasks[m].is_some())
                .count() as f64
        })
        .collect();

    // --- virtual group-level loop ------------------------------------------
    let mut points = vec![nominal; groups];
    let mut stage_idx = vec![0usize; groups];
    let mut progress = vec![0u64; groups];
    let mut stall_until = vec![0u64; groups];
    // Whether the group's current stall window came from its own failure
    // (one recompute + mates stalling) or an external set mate (all stall).
    let mut stall_local = vec![true; groups];
    let mut fail_acc = vec![0.0f64; groups];
    // Expected-value accumulator of external set-stall exposure: a failure
    // in group g' adds its coupling fraction here; once a full stall's worth
    // has accumulated, the group pays one penalty window.
    let mut ext_acc = vec![0.0f64; groups];
    let mut stats: Vec<Vec<PointStats>> = (0..groups).map(|_| Vec::new()).collect();
    let mut observations: Vec<GroupObservation> = Vec::with_capacity(groups);
    let mut decisions = Vec::with_capacity(groups);

    let mut unfinished: usize = (0..total_macros)
        .filter(|&m| sim.topology.tasks[m].is_some())
        .count();

    let mut useful: u64 = 0;
    let mut stall: u64 = 0;
    let mut recompute: u64 = 0;
    let mut failures: u64 = 0;
    let mut power_accum = 0.0f64;
    let mut power_samples: u64 = 0;
    let mut droop_accum = 0.0f64;
    let mut droop_samples: u64 = 0;
    let mut freq_weighted_useful = 0.0f64;
    let mut per_group_stall: Vec<u64> = vec![0; groups];

    let mut t: u64 = 0;
    while t < max_cycles && unfinished > 0 {
        observations.clear();
        for g in 0..groups {
            let stage_list = &stages[g];
            if stage_idx[g] >= stage_list.len() {
                observations.push(GroupObservation {
                    group: g,
                    failure: false,
                    active: false,
                    worst_known_hr: None,
                    point: points[g],
                });
                continue;
            }
            let stage = &stage_list[stage_idx[g]];
            let a_g = stage.macros.len();
            let point = points[g];

            // Locate (or build) the cached closed-form stats for this
            // (stage, point).  Points change rarely relative to the cycle
            // rate, so the linear scan over a handful of entries is cheap.
            let entry_idx = match stats[g].iter().position(|e| {
                e.stage == stage_idx[g]
                    && e.point.voltage.to_bits() == point.voltage.to_bits()
                    && e.point.frequency_ghz.to_bits() == point.frequency_ghz.to_bits()
            }) {
                Some(i) => i,
                None => {
                    let entry = build_point_stats(
                        sim,
                        &mut monitor,
                        stage,
                        stage_idx[g],
                        g,
                        point,
                        flip_mean,
                        flip_std,
                        static_droop_mv,
                        dyn_coef_v,
                        &set_group_count,
                        &mapped_count,
                    );
                    stats[g].push(entry);
                    stats[g].len() - 1
                }
            };

            let mut failure = false;
            if t >= stall_until[g] && ext_acc[g] >= 1.0 {
                // A full external set-stall's worth of exposure accumulated:
                // pay one penalty window (all active macros stall).
                ext_acc[g] -= 1.0;
                stall_until[g] = t + penalty;
                stall_local[g] = false;
            }
            if t >= stall_until[g] {
                fail_acc[g] += stats[g][entry_idx].p_fail;
                if fail_acc[g] >= 1.0 {
                    fail_acc[g] -= 1.0;
                    failure = true;
                    failures += 1;
                    stall_until[g] = t + penalty;
                    stall_local[g] = true;
                    // A recompute stalls the failing macro's set mates in
                    // every other group (expected-value coupling).
                    for (g2, acc) in ext_acc.iter_mut().enumerate() {
                        if g2 != g {
                            *acc += stats[g][entry_idx].coupling[g2];
                        }
                    }
                }
            }

            if t < stall_until[g] {
                // Busy but not progressing; bitstreams do not toggle.  A
                // local window has the failing macro recomputing and its
                // mates stalling; an external window stalls everyone.
                if stall_local[g] {
                    recompute += 1;
                    stall += a_g as u64 - 1;
                    per_group_stall[g] += a_g as u64 - 1;
                } else {
                    stall += a_g as u64;
                    per_group_stall[g] += a_g as u64;
                }
                let e = &stats[g][entry_idx];
                power_accum += e.stall_power_mw * a_g as f64;
                power_samples += a_g as u64;
                droop_accum += static_droop_mv * a_g as f64;
                droop_samples += a_g as u64;
            } else {
                let e = &mut stats[g][entry_idx];
                e.progress_dwell += 1;
                power_accum += e.progress_power_sum;
                power_samples += a_g as u64;
                droop_accum += e.droop_mean_sum;
                droop_samples += a_g as u64;
                freq_weighted_useful += a_g as f64 * point.frequency_ghz;
                useful += a_g as u64;
                progress[g] += 1;
                if progress[g] >= stage.until_progress {
                    // Macros whose task length equals this stage boundary
                    // finish now; the next stage has the survivors.
                    let next_active = stage_list
                        .get(stage_idx[g] + 1)
                        .map_or(0, |s| s.macros.len());
                    unfinished -= a_g - next_active;
                    stage_idx[g] += 1;
                }
            }

            observations.push(GroupObservation {
                group: g,
                failure,
                active: true,
                worst_known_hr: stage.worst_known_hr,
                point,
            });
        }

        decisions.clear();
        controller.decide_into(t, &observations, &mut decisions);
        assert_eq!(
            decisions.len(),
            groups,
            "controller must return one decision per group"
        );
        for (g, d) in decisions.iter().enumerate() {
            points[g] = d.point;
        }
        t += 1;
    }

    // --- assemble the calibrated report ------------------------------------
    // A run that executed at least one virtual cycle reports at least one
    // scaled cycle; a zero-budget (or instantly-finished) run reports zero,
    // matching the cycle-accurate engine.
    let raw_cycles = t;
    let total_cycles = ((raw_cycles as f64 * calibration.cycle_scale).round() as u64)
        .max(raw_cycles.min(1))
        .min(max_cycles);
    let scale_count = |v: u64, s: f64| -> u64 { (v as f64 * s).round().max(0.0) as u64 };
    let failures_out = scale_count(failures, calibration.failure_scale);
    let stall_out = scale_count(stall, calibration.failure_scale);
    let recompute_out = scale_count(recompute, calibration.failure_scale);

    // Worst droop: per visited (stage, point) entry, the expected maximum of
    // `dwell` clamped-Gaussian flip samples on the entry's worst-HR macro.
    let mut worst_droop = 0.0f64;
    for entries in &stats {
        for e in entries.iter().filter(|e| e.progress_dwell > 0) {
            let flip_q = (flip_mean + flip_std * max_of_n_zscore(e.progress_dwell)).clamp(0.0, 1.0);
            let rtog = (e.max_hr * flip_q).clamp(0.0, 1.0);
            let droop = sim
                .topology
                .irdrop
                .irdrop_mv(rtog, e.point.voltage, e.point.frequency_ghz);
            worst_droop = worst_droop.max(droop);
        }
    }

    let avg_power = if power_samples == 0 {
        0.0
    } else {
        power_accum / power_samples as f64
    };
    let mean_droop = if droop_samples == 0 {
        0.0
    } else {
        droop_accum / droop_samples as f64
    };
    let denom = total_cycles as f64 * total_macros as f64;
    let effective_tops = if denom > 0.0 {
        params.peak_tops() * (freq_weighted_useful / params.nominal_frequency_ghz) / denom
            * calibration.tops_scale
    } else {
        0.0
    };

    // Distribute the group-level stall estimate evenly over each group's
    // mapped macros (the cycle-accurate engine attributes stalls to the
    // specific set mates; the analytical view only knows group totals).
    let mut per_macro_stall_cycles = vec![0u64; total_macros];
    for (g, &group_stall) in per_group_stall.iter().enumerate() {
        let mapped: Vec<usize> = (g * mpg..(g + 1) * mpg)
            .filter(|&m| sim.topology.tasks[m].is_some())
            .collect();
        if mapped.is_empty() {
            continue;
        }
        let share = scale_count(group_stall, calibration.failure_scale) / mapped.len() as u64;
        for m in mapped {
            per_macro_stall_cycles[m] = share;
        }
    }

    let busy = useful + stall_out + recompute_out;
    let idle = (total_cycles * total_macros as u64).saturating_sub(busy);

    RunReport {
        total_cycles,
        useful_macro_cycles: useful,
        stall_macro_cycles: stall_out,
        recompute_macro_cycles: recompute_out,
        idle_macro_cycles: idle,
        failures: failures_out,
        avg_macro_power_mw: avg_power * calibration.power_scale,
        worst_irdrop_mv: worst_droop * calibration.worst_droop_scale,
        mean_irdrop_mv: mean_droop * calibration.mean_droop_scale,
        effective_tops,
        trace: Vec::new(),
        per_macro_stall_cycles,
    }
}

/// Closed-form per-(stage, point) figures: the critical toggle rate implied
/// by the monitor threshold, the Gaussian-tail failure probability, and the
/// affine power/droop expectations.
#[allow(clippy::too_many_arguments)]
fn build_point_stats(
    sim: &ChipSimulator,
    monitor: &mut IrMonitor,
    stage: &GroupStage,
    stage_idx: usize,
    group: usize,
    point: VfPair,
    flip_mean: f64,
    flip_std: f64,
    static_droop_mv: f64,
    dyn_coef_v: f64,
    set_group_count: &[Vec<f64>],
    mapped_count: &[f64],
) -> PointStats {
    let params = &sim.config.params;
    let margin = sim.config.failure_margin_v;
    monitor.set_threshold(sim.topology.timing.vmin(point.frequency_ghz) - margin);

    // The monitor decision is monotone in the effective voltage; bisect for
    // the smallest non-failing v_eff to recover the critical droop, then
    // invert the affine droop model for the critical toggle rate.
    let r_crit = if monitor.is_failure(point.voltage) {
        // Even a droop-free cycle fails: the point is untenable.
        -1.0
    } else if !monitor.is_failure(point.voltage - static_droop_mv * 1e-3 - dyn_coef_v) {
        // Even the full-toggle droop passes: the point never fails.
        2.0
    } else {
        let mut lo = point.voltage - static_droop_mv * 1e-3 - dyn_coef_v; // fails
        let mut hi = point.voltage; // passes
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if monitor.is_failure(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let d_crit_v = point.voltage - hi;
        let drive_scale = (point.voltage / params.nominal_voltage)
            * (point.frequency_ghz / params.nominal_frequency_ghz);
        (d_crit_v - params.static_droop()) / (dyn_coef_v * drive_scale).max(1e-12)
    };

    let mut p_none = 1.0f64;
    let mut progress_power_sum = 0.0;
    let mut droop_mean_sum = 0.0;
    let mut macro_fail_probs: Vec<f64> = Vec::with_capacity(stage.macros.len());
    for info in &stage.macros {
        let hr = info.hr;
        let p_m = if r_crit < 0.0 {
            1.0
        } else if hr <= 1e-12 {
            0.0
        } else {
            let x = r_crit / hr;
            if x >= 1.0 {
                0.0
            } else {
                normal_tail((x - flip_mean) / flip_std)
            }
        };
        macro_fail_probs.push(p_m);
        p_none *= 1.0 - p_m;
        let expected_rtog = (hr * flip_mean).clamp(0.0, 1.0);
        progress_power_sum += sim
            .topology
            .power
            .macro_power(expected_rtog, point.voltage, point.frequency_ghz, true)
            .total_mw();
        droop_mean_sum +=
            sim.topology
                .irdrop
                .irdrop_mv(expected_rtog, point.voltage, point.frequency_ghz);
    }

    // Cross-group coupling: given a failure here, which macro failed is
    // weighted by its tail probability; its logical set stalls that set's
    // members in every other group.
    let groups = sim.config.params.macro_groups;
    let mut coupling = vec![0.0f64; groups];
    let total_p: f64 = macro_fail_probs.iter().sum();
    if total_p > 0.0 {
        for (info, &p_m) in stage.macros.iter().zip(&macro_fail_probs) {
            let Some(set_idx) = info.set_idx else {
                continue;
            };
            let weight = p_m / total_p;
            for (g2, couple) in coupling.iter_mut().enumerate() {
                if g2 != group && mapped_count[g2] > 0.0 {
                    *couple += weight * set_group_count[set_idx][g2] / mapped_count[g2];
                }
            }
        }
    }
    for couple in &mut coupling {
        *couple = couple.min(1.0);
    }

    PointStats {
        point,
        stage: stage_idx,
        p_fail: 1.0 - p_none,
        progress_power_sum,
        stall_power_mw: sim
            .topology
            .power
            .macro_power(0.0, point.voltage, point.frequency_ghz, true)
            .total_mw(),
        droop_mean_sum,
        progress_dwell: 0,
        max_hr: stage.max_hr,
        coupling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{SimSession, StaticController};
    use ir_model::process::ProcessParams;

    fn uniform_tasks(hr: f64, cycles: u64) -> Vec<Option<MacroTask>> {
        let params = ProcessParams::dpim_7nm();
        (0..params.total_macros())
            .map(|m| Some(MacroTask::new(format!("t-{m}"), hr, cycles, m % 8)))
            .collect()
    }

    fn config() -> ChipConfig {
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        }
    }

    #[test]
    fn session_with_backend_matches_plain_session() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.4, 200));
        let params = ProcessParams::dpim_7nm();
        let mut session = SimSession::new();
        let mut ctrl = StaticController::nominal(&params);
        let a = session.run_with_backend(&CycleAccurate, &sim, &mut ctrl, 5_000);
        let mut ctrl = StaticController::nominal(&params);
        let b = sim.run(&mut ctrl, 5_000);
        assert_eq!(a, b);
        assert_eq!(session.runs(), 1);
    }

    #[test]
    fn analytical_predicts_failure_free_static_run_exactly() {
        // At the sign-off point nothing fails, so the closed-form cycle
        // count is exact even without calibration.
        let sim = ChipSimulator::new(config(), uniform_tasks(0.9, 500));
        let params = ProcessParams::dpim_7nm();
        let mut ctrl = StaticController::nominal(&params);
        let predicted = AnalyticalBackend::uncalibrated().run(&sim, &mut ctrl, 5_000);
        assert_eq!(predicted.total_cycles, 500);
        assert_eq!(predicted.failures, 0);
        assert_eq!(predicted.useful_macro_cycles, 500 * 64);
        assert_eq!(predicted.stall_macro_cycles, 0);
        let mut ctrl = StaticController::nominal(&params);
        let actual = sim.run(&mut ctrl, 5_000);
        assert_eq!(predicted.total_cycles, actual.total_cycles);
        // Affine power model ⇒ the expectation is tight.
        let rel = (predicted.avg_macro_power_mw - actual.avg_macro_power_mw).abs()
            / actual.avg_macro_power_mw;
        assert!(rel < 0.02, "power expectation off by {rel}");
    }

    #[test]
    fn analytical_predicts_failures_for_undervolted_high_hr() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.9, 400));
        let point = ir_model::vf::VfPair::new(0.60, 1.0);
        let mut ctrl = StaticController::fixed(point);
        let predicted = AnalyticalBackend::uncalibrated().run(&sim, &mut ctrl, 20_000);
        assert!(predicted.failures > 0, "undervolted high-HR must fail");
        assert!(predicted.total_cycles > 400);
        assert!(predicted.recompute_macro_cycles > 0);
        let mut ctrl = StaticController::fixed(point);
        let actual = sim.run(&mut ctrl, 20_000);
        let rel = (predicted.total_cycles as f64 - actual.total_cycles as f64).abs()
            / actual.total_cycles as f64;
        assert!(
            rel < 0.30,
            "uncalibrated cycle estimate should be in the ballpark: predicted {} vs actual {} ({rel})",
            predicted.total_cycles,
            actual.total_cycles,
        );
    }

    #[test]
    fn calibration_tightens_the_cycle_estimate_within_its_bound() {
        let cfg = config();
        let probes = AnalyticalBackend::probe_simulators(&cfg, &[0.85, 0.95], 300);
        let point = ir_model::vf::VfPair::new(0.62, 1.0);
        let backend = AnalyticalBackend::calibrate_with(
            &probes,
            |_| Box::new(StaticController::fixed(point)),
            50_000,
            0.02,
        );
        let bound = backend.calibration().error_bound;
        assert!(bound >= Calibration::MIN_ERROR_BOUND);
        // A run the calibration never saw (different HR, different length).
        let sim = ChipSimulator::new(cfg, uniform_tasks(0.9, 450));
        let mut ctrl = StaticController::fixed(point);
        let predicted = backend.run(&sim, &mut ctrl, 50_000);
        let mut ctrl = StaticController::fixed(point);
        let actual = sim.run(&mut ctrl, 50_000);
        let rel = (predicted.total_cycles as f64 - actual.total_cycles as f64).abs()
            / actual.total_cycles as f64;
        assert!(
            rel <= bound,
            "calibrated prediction must honour its bound: drift {rel} > bound {bound}"
        );
    }

    #[test]
    fn analytical_is_deterministic() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.7, 300));
        let point = ir_model::vf::VfPair::new(0.64, 1.0);
        let backend = AnalyticalBackend::uncalibrated();
        let mut a = StaticController::fixed(point);
        let mut b = StaticController::fixed(point);
        assert_eq!(
            backend.run(&sim, &mut a, 20_000),
            backend.run(&sim, &mut b, 20_000)
        );
    }

    #[test]
    fn backend_kinds_and_names() {
        assert_eq!(BackendKind::CycleAccurate.name(), "cycle-accurate");
        assert_eq!(BackendKind::Analytical.name(), "analytical");
    }

    #[test]
    fn normal_tail_matches_known_values() {
        assert!((normal_tail(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_tail(1.0) - 0.158_655).abs() < 1e-4);
        assert!((normal_tail(-1.0) - 0.841_345).abs() < 1e-4);
        assert!(normal_tail(6.0) < 1e-8);
    }

    #[test]
    fn chip_health_scales_cycles_deterministically() {
        assert!(ChipHealth::default().is_healthy());
        assert_eq!(ChipHealth::Healthy.scale_cycles(12_345), 12_345);
        let half_slower = ChipHealth::Degraded {
            slowdown_percent: 50,
        };
        assert!(!half_slower.is_healthy());
        assert_eq!(half_slower.scale_cycles(1_000), 1_500);
        // Integer arithmetic: rounding toward zero, zero stays zero.
        assert_eq!(half_slower.scale_cycles(0), 0);
        assert_eq!(half_slower.scale_cycles(1), 1);
        assert_eq!(
            ChipHealth::Degraded {
                slowdown_percent: 0
            }
            .scale_cycles(777),
            777
        );
        // A derate never speeds a chip up, and is monotone in the slowdown.
        for pct in [1u32, 10, 25, 100, 400] {
            let h = ChipHealth::Degraded {
                slowdown_percent: pct,
            };
            assert!(h.scale_cycles(9_999) >= 9_999);
            assert!(
                h.scale_cycles(9_999)
                    <= ChipHealth::Degraded {
                        slowdown_percent: pct + 1
                    }
                    .scale_cycles(9_999)
            );
        }
        // No overflow panic near the top of the range.
        assert_eq!(
            ChipHealth::Degraded {
                slowdown_percent: 100
            }
            .scale_cycles(u64::MAX),
            u64::MAX / 100
        );
    }

    #[test]
    fn recalibration_folds_the_residual_ewma_into_the_cycle_scale_only() {
        let mut cal = Calibration::identity();
        cal.cycle_scale = 1.25;
        cal.error_bound = 0.07;
        // Prediction ran 10% short: the scale grows by exactly that factor.
        let updated = cal.recalibrated(0.10);
        assert!((updated.cycle_scale - 1.375).abs() < 1e-12);
        assert_eq!(updated.error_bound, cal.error_bound);
        assert_eq!(updated.power_scale, cal.power_scale);
        assert_eq!(updated.probe_runs, cal.probe_runs);
        // A negative residual shrinks it; zero is the identity.
        assert!(cal.recalibrated(-0.10).cycle_scale < cal.cycle_scale);
        assert_eq!(cal.recalibrated(0.0), cal);
    }

    #[test]
    #[should_panic(expected = "recalibration needs a finite residual EWMA")]
    fn recalibration_rejects_a_nan_residual() {
        let _ = Calibration::identity().recalibrated(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "would zero out the cycle scale")]
    fn recalibration_rejects_a_scale_collapsing_residual() {
        let _ = Calibration::identity().recalibrated(-1.0);
    }

    #[test]
    fn calibration_loop_default_and_edge_configs_validate() {
        CalibrationLoopConfig::default().validate();
        CalibrationLoopConfig {
            ewma_decay: 1.0,
            demote_streak: 1,
            promote_streak: 1,
            recalibrate_interval_cycles: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "the EWMA decay must lie in (0, 1]")]
    fn calibration_loop_rejects_a_zero_decay() {
        CalibrationLoopConfig {
            ewma_decay: 0.0,
            ..CalibrationLoopConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "the EWMA decay must lie in (0, 1]")]
    fn calibration_loop_rejects_a_nan_decay() {
        CalibrationLoopConfig {
            ewma_decay: f64::NAN,
            ..CalibrationLoopConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "the demotion streak must be at least 1")]
    fn calibration_loop_rejects_a_zero_demotion_streak() {
        CalibrationLoopConfig {
            demote_streak: 0,
            ..CalibrationLoopConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "the promotion streak must be at least 1")]
    fn calibration_loop_rejects_a_zero_promotion_streak() {
        CalibrationLoopConfig {
            promote_streak: 0,
            ..CalibrationLoopConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "the recalibration interval must be at least one cycle")]
    fn calibration_loop_rejects_a_zero_interval() {
        CalibrationLoopConfig {
            recalibrate_interval_cycles: 0,
            ..CalibrationLoopConfig::default()
        }
        .validate();
    }
}
