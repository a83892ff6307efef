//! Calibrated analytical execution of a [`CompiledPlan`].
//!
//! [`AnalyticalPlan`] is the plan-level wrapper around
//! [`pim_sim::AnalyticalBackend`]: it picks a handful of the plan's own
//! batches as probes, runs them cycle-accurately once, fits the backend's
//! [`Calibration`] for the plan's exact `(ChipConfig, controller)` pair, and
//! then predicts every batch through the calibrated closed form.
//!
//! Because the analytical model never reads the per-replay flip sequences,
//! its per-batch predictions are *replay-invariant*: one calibration pass
//! yields a [`PlanExecution`] that a serving runtime can hand out for every
//! request of the model at zero marginal simulation cost.  The price is the
//! self-reported [`error bound`](AnalyticalPlan::error_bound) — the serving
//! runtime's sampled-verification mode measures the realised drift against
//! it (see `aim-serve`).

use pim_sim::backend::{AnalyticalBackend, Calibration};
use pim_sim::chip::SimSession;

use crate::pipeline::{CompiledPlan, PlanExecution, RunAggregate};

/// How many of a plan's batches are replayed cycle-accurately to fit the
/// calibration (spread over the batch list; plans with fewer batches use
/// them all).
pub const CALIBRATION_PROBES: usize = 3;

/// Extra relative-error slack added to the worst probe residual when
/// deriving the self-reported bound: replay seeds change the sampled flip
/// sequences, so unseen replays drift slightly even on probed batches.
pub const CALIBRATION_SLACK: f64 = 0.03;

/// A [`CompiledPlan`] viewed through a calibrated analytical backend:
/// per-batch closed-form predictions, the aggregated [`PlanExecution`], and
/// the backend's self-reported error bound.
#[derive(Debug, Clone)]
pub struct AnalyticalPlan {
    backend: AnalyticalBackend,
    execution: PlanExecution,
}

impl AnalyticalPlan {
    /// Calibrates an analytical backend against `plan`'s own batches and
    /// precomputes the plan-level execution summary.
    ///
    /// Cost: `min(CALIBRATION_PROBES, batches)` cycle-accurate batch runs
    /// plus one closed-form prediction per batch — paid once per plan, after
    /// which [`Self::execution`] is free.
    #[must_use]
    pub fn calibrate(plan: &CompiledPlan) -> Self {
        let batches = plan.num_batches();
        assert!(batches > 0, "a plan needs at least one batch");
        let probe_indices: Vec<usize> = if batches <= CALIBRATION_PROBES {
            (0..batches).collect()
        } else {
            // First, middle and last batch: early layers, the bulk, and the
            // tail of the model see different HR mixes.
            vec![0, batches / 2, batches - 1]
        };
        let probe_sims: Vec<_> = probe_indices
            .iter()
            .map(|&i| plan.batch_simulator(i, 0))
            .collect();
        let max_cycles = probe_indices
            .iter()
            .map(|&i| plan.batch_max_cycles(i))
            .max()
            .expect("at least one probe");
        let backend = AnalyticalBackend::calibrate_with(
            &probe_sims,
            |sim| plan.controller_for(sim),
            max_cycles,
            CALIBRATION_SLACK,
        );

        let mut agg = RunAggregate::default();
        let mut session = SimSession::new();
        for i in 0..batches {
            let sim = plan.batch_simulator(i, 0);
            let mut controller = plan.controller_for(&sim);
            let report = session.run_with_backend(
                &backend,
                &sim,
                controller.as_mut(),
                plan.batch_max_cycles(i),
            );
            agg.add(&report);
        }
        Self {
            backend,
            execution: agg.summary(),
        }
    }

    /// The replay-invariant predicted execution summary.
    #[must_use]
    pub fn execution(&self) -> PlanExecution {
        self.execution
    }

    /// Predicted total cycles of one request replay — the analytical cost
    /// estimate schedulers share with execution (one cost source).
    #[must_use]
    pub fn estimated_cycles(&self) -> u64 {
        self.execution.cycles
    }

    /// The calibrated backend (e.g. to run ad-hoc simulators through it).
    #[must_use]
    pub fn backend(&self) -> &AnalyticalBackend {
        &self.backend
    }

    /// The fitted calibration coefficients.
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        self.backend.calibration()
    }

    /// Self-reported relative cycle-count error bound versus cycle-accurate
    /// execution.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.backend.calibration().error_bound
    }

    /// The predicted total cycles under an *online* recalibration
    /// multiplier (1.0 is the fitted prediction itself).  The serving
    /// layer's calibration loop owns the multiplier per model and applies it
    /// here on every analytical replay — the fitted [`Calibration`] stays
    /// frozen, so the loop's state is the session's, not the plan's.
    ///
    /// # Panics
    ///
    /// Panics if `adjust` is not a positive finite number.
    #[must_use]
    pub fn adjusted_cycles(&self, adjust: f64) -> u64 {
        assert!(
            adjust.is_finite() && adjust > 0.0,
            "the recalibration multiplier must be a positive finite number"
        );
        (self.execution.cycles as f64 * adjust).round() as u64
    }

    /// A copy whose cycle calibration (and cached prediction) is scaled by
    /// `factor` — deliberate mis-calibration, the fault-injection hook the
    /// serving layer's drift-detection tests and benches use to prove the
    /// demotion path has teeth.  The self-reported bound is kept, so the
    /// distorted plan *claims* its original accuracy while predicting
    /// `factor`× the cycles.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a positive finite number.
    #[must_use]
    pub fn with_cycle_scale(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "the cycle-scale distortion must be a positive finite number"
        );
        let calibration = self.backend.calibration().recalibrated(factor - 1.0);
        Self {
            backend: AnalyticalBackend::with_calibration(calibration),
            execution: PlanExecution {
                cycles: (self.execution.cycles as f64 * factor).round() as u64,
                ..self.execution
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::BoosterConfig;
    use crate::pipeline::AimConfig;
    use pim_sim::backend::ExecutionBackend;
    use workloads::zoo::Model;

    fn quick(config: AimConfig) -> AimConfig {
        AimConfig {
            operator_stride: Some(7),
            cycles_per_slice: 60,
            ..config
        }
    }

    #[test]
    fn analytical_plan_matches_static_baseline_exactly() {
        // The static sign-off baseline never fails, so the analytical cycle
        // count is exact and the scheduler estimate coincides with it.
        let plan = CompiledPlan::compile(&Model::resnet18(), &quick(AimConfig::baseline()));
        let ana = AnalyticalPlan::calibrate(&plan);
        let report = plan.execute();
        assert_eq!(ana.execution().cycles, report.total_cycles);
        assert_eq!(ana.estimated_cycles(), plan.estimated_cycles());
        assert!(ana.error_bound() >= Calibration::MIN_ERROR_BOUND);
    }

    #[test]
    fn analytical_plan_stays_within_bound_under_the_booster() {
        let config = AimConfig {
            booster: Some(BoosterConfig::low_power()),
            ..quick(AimConfig::baseline())
        };
        let plan = CompiledPlan::compile(&Model::resnet18(), &config);
        let ana = AnalyticalPlan::calibrate(&plan);
        let pred = ana.execution().cycles;
        let actual = plan.execute_with_session(&mut SimSession::new(), 0).cycles;
        assert!(actual > 0 && pred > 0);
        let drift = (pred as f64 - actual as f64).abs() / actual as f64;
        assert!(
            drift <= ana.error_bound(),
            "drift {drift} exceeds self-reported bound {} (pred {pred}, actual {actual})",
            ana.error_bound()
        );
    }

    #[test]
    fn calibration_builds_flip_banks_for_its_probe_batches_only() {
        let config = AimConfig {
            operator_stride: None,
            ..quick(AimConfig::baseline())
        };
        let plan = CompiledPlan::compile(&Model::resnet18(), &config);
        let batches = plan.num_batches();
        assert!(batches > CALIBRATION_PROBES, "only {batches} batches");
        let _ = AnalyticalPlan::calibrate(&plan);
        let probes = [0, batches / 2, batches - 1];
        let banks: Vec<usize> = (0..batches)
            .map(|i| usize::from(probes.contains(&i)))
            .collect();
        assert_eq!(plan.cached_banks(), banks);
    }

    #[test]
    fn adjusted_cycles_and_distortion_scale_the_prediction() {
        let plan = CompiledPlan::compile(&Model::mobilenet_v2(), &quick(AimConfig::baseline()));
        let ana = AnalyticalPlan::calibrate(&plan);
        let base = ana.execution().cycles;
        assert_eq!(ana.adjusted_cycles(1.0), base);
        assert_eq!(ana.adjusted_cycles(2.0), base * 2);
        let distorted = ana.with_cycle_scale(1.5);
        assert_eq!(
            distorted.execution().cycles,
            (base as f64 * 1.5).round() as u64
        );
        // The distorted plan still claims the original accuracy — that lie
        // is exactly what drift-triggered demotion must catch.
        assert_eq!(distorted.error_bound(), ana.error_bound());
        assert!(
            (distorted.calibration().cycle_scale - ana.calibration().cycle_scale * 1.5).abs()
                < 1e-12
        );
    }

    #[test]
    fn analytical_execution_is_replay_invariant_and_deterministic() {
        let plan = CompiledPlan::compile(&Model::mobilenet_v2(), &quick(AimConfig::baseline()));
        let a = AnalyticalPlan::calibrate(&plan);
        let b = AnalyticalPlan::calibrate(&plan);
        assert_eq!(a.execution(), b.execution());
        assert_eq!(a.error_bound(), b.error_bound());
        // The prediction does not depend on the replay seed: every batch
        // predicts the same report at any offset, and the batches sum to the
        // cached summary.
        let predict = |i, offset| {
            let sim = plan.batch_simulator(i, offset);
            let mut controller = plan.controller_for(&sim);
            a.backend()
                .run(&sim, controller.as_mut(), plan.batch_max_cycles(i))
        };
        let mut agg = RunAggregate::default();
        for i in 0..plan.num_batches() {
            let at_zero = predict(i, 0);
            assert_eq!(at_zero, predict(i, 7));
            agg.add(&at_zero);
        }
        assert_eq!(agg.summary(), a.execution());
    }
}
