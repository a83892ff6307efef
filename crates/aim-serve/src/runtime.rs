//! The serving runtime: compiled plans, fleet configuration, and the
//! offline convenience wrapper over the event-driven [`ServeSession`].

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use aim_core::analytical::AnalyticalPlan;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use workloads::inputs::TraceRequest;
use workloads::zoo::Model;

use crate::report::ServeReport;
use crate::scheduler::{AdmissionConfig, CostModel, DispatchPolicy};
use crate::session::ServeSession;

/// Configuration of a serving runtime.
///
/// Construct via [`ServeConfig::builder`] (preferred), a struct literal over
/// [`ServeConfig::default`], or plain field assignment — the fields stay
/// public.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of simulated chips in the fleet (= chip workers).
    pub chips: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Batching window: a group absorbs same-model requests arriving within
    /// this many cycles of its first member.
    pub batch_window_cycles: u64,
    /// Weight-reload cost a model switch charges, per mapped macro slice of
    /// the incoming model.
    pub reload_cycles_per_slice: u64,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Optional admission control; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Execution backend of the fleet.  `CycleAccurate` keeps the historical
    /// behaviour; `Analytical` replays requests through each plan's
    /// calibrated closed-form prediction (compiled once per plan, then free
    /// per replay) except on the [`Self::audit_chips`].
    pub backend: BackendKind,
    /// With `backend: Analytical`, chips `0..audit_chips` stay on the
    /// cycle-accurate engine — a heterogeneous fleet (e.g. 2 audit chips +
    /// 30 analytical chips) whose audit members keep ground truth flowing.
    pub audit_chips: usize,
    /// Sampled verification: on average one in `verify_every` groups
    /// executing on an analytical chip (selected by a deterministic hash of
    /// the group's commit index and the serve seed, so the effective rate is
    /// independent of sharding) is *additionally* replayed cycle-accurately,
    /// and the relative cycle drift is aggregated into
    /// [`ServeReport::verification`].  0 disables.
    pub verify_every: usize,
    /// Optional online calibration loop: verification and audit-chip drift
    /// samples feed a per-model EWMA, and at fixed virtual-time boundaries
    /// the session recalibrates the analytical cycle prediction and
    /// demotes/promotes models between the fast path and cycle-accurate
    /// execution.  `None` (the default) keeps the one-shot offline
    /// calibration.  Only meaningful on fleets with analytical chips.
    ///
    /// [`ServeReport::calibration`] reports the loop's activity.
    ///
    /// [`ServeReport::calibration`]: crate::report::ServeReport::calibration
    pub calibration: Option<CalibrationLoopConfig>,
    /// Fan chip lanes out across the rayon pool.  A step fans out only when
    /// at least two of its ready lanes will replay cycle-accurately (audit
    /// lanes, verification samples and demoted models); analytical lookups
    /// always run inline.  `false` runs the fleet on the calling thread;
    /// the report is byte-identical either way (the determinism contract).
    pub parallel: bool,
    /// Serve seed, folded into every request replay's input activity.
    pub seed: u64,
    /// Upper bound on *unpolled* [`RequestOutcome`]s a session retains
    /// between `poll_completions` calls; 0 (the default) keeps every
    /// outcome.  When the bound is hit the oldest unpolled outcome is
    /// dropped (counted by [`ServeSession::completions_dropped`]) — the
    /// drained report still accounts for every request, only the streamed
    /// outcome is shed.  Report-only hyperscale runs set a small cap so
    /// memory stays independent of the request count.
    ///
    /// [`RequestOutcome`]: crate::session::RequestOutcome
    /// [`ServeSession::completions_dropped`]: crate::session::ServeSession::completions_dropped
    pub completion_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            chips: 4,
            max_batch: 8,
            batch_window_cycles: 20_000,
            reload_cycles_per_slice: 32,
            dispatch: DispatchPolicy::LeastLoaded,
            admission: None,
            backend: BackendKind::CycleAccurate,
            audit_chips: 0,
            verify_every: 0,
            calibration: None,
            parallel: true,
            seed: 0xF1EE7,
            completion_capacity: 0,
        }
    }
}

impl ServeConfig {
    /// Starts a builder from the default configuration.
    #[must_use]
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: Self::default(),
        }
    }

    /// Checks the invariants every serving runtime relies on: the one copy
    /// of the checks the builder and [`ServeRuntime::from_plans`] run.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration: zero chips, zero `max_batch`,
    /// more audit chips than chips, or an invalid calibration loop.
    pub(crate) fn validate(&self) {
        assert!(self.chips >= 1, "a fleet needs at least one chip");
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            self.audit_chips <= self.chips,
            "audit chips cannot exceed the fleet size"
        );
        if let Some(calibration) = &self.calibration {
            calibration.validate();
        }
    }
}

/// Chainable builder for [`ServeConfig`]:
///
/// ```
/// use aim_serve::prelude::*;
///
/// let config = ServeConfig::builder()
///     .chips(8)
///     .backend(BackendKind::Analytical)
///     .audit_chips(2)
///     .verify_every(16)
///     .build();
/// assert_eq!(config.chips, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $field(mut self, $field: $ty) -> Self {
                self.config.$field = $field;
                self
            }
        )*
    };
}

impl ServeConfigBuilder {
    builder_setters! {
        /// Sets the fleet size (see [`ServeConfig::chips`]).
        chips: usize,
        /// Sets the batch-size cap (see [`ServeConfig::max_batch`]).
        max_batch: usize,
        /// Sets the batching window (see [`ServeConfig::batch_window_cycles`]).
        batch_window_cycles: u64,
        /// Sets the per-slice reload cost (see
        /// [`ServeConfig::reload_cycles_per_slice`]).
        reload_cycles_per_slice: u64,
        /// Sets the dispatch policy (see [`ServeConfig::dispatch`]).
        dispatch: DispatchPolicy,
        /// Sets admission control (see [`ServeConfig::admission`]).
        admission: Option<AdmissionConfig>,
        /// Sets the execution backend (see [`ServeConfig::backend`]).
        backend: BackendKind,
        /// Sets the cycle-accurate audit-chip count (see
        /// [`ServeConfig::audit_chips`]).
        audit_chips: usize,
        /// Sets the sampled-verification cadence (see
        /// [`ServeConfig::verify_every`]).
        verify_every: usize,
        /// Enables the online calibration loop (see
        /// [`ServeConfig::calibration`]).
        calibration: Option<CalibrationLoopConfig>,
        /// Toggles the worker-thread fan-out (see [`ServeConfig::parallel`]).
        parallel: bool,
        /// Sets the serve seed (see [`ServeConfig::seed`]).
        seed: u64,
        /// Bounds the unpolled-outcome buffer (see
        /// [`ServeConfig::completion_capacity`]).
        completion_capacity: usize,
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero chips, zero `max_batch`,
    /// more audit chips than chips, an invalid calibration loop) — the same
    /// invariants [`ServeRuntime::from_plans`] enforces, failing at the
    /// construction site instead.
    #[must_use]
    pub fn build(self) -> ServeConfig {
        self.config.validate();
        self.config
    }
}

/// A compiled model fleet plus its serving configuration.
#[derive(Debug, Clone)]
pub struct ServeRuntime {
    plans: Vec<CompiledPlan>,
    /// Calibrated analytical views of the plans, present iff the fleet has
    /// at least one analytical chip.
    analytical: Option<Vec<AnalyticalPlan>>,
    config: ServeConfig,
}

impl ServeRuntime {
    /// Compiles every model once (in parallel) and builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or the configuration is degenerate.
    #[must_use]
    pub fn compile(models: &[Model], aim: &AimConfig, config: ServeConfig) -> Self {
        assert!(!models.is_empty(), "a runtime needs at least one model");
        let plans: Vec<CompiledPlan> = models
            .par_iter()
            .map(|m| CompiledPlan::compile(m, aim))
            .collect();
        Self::from_plans(plans, config)
    }

    /// Builds the runtime from pre-compiled plans (e.g. per-model AIM
    /// configurations, or plans shared across runtimes).
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty or the configuration is degenerate.
    #[must_use]
    pub fn from_plans(plans: Vec<CompiledPlan>, config: ServeConfig) -> Self {
        assert!(!plans.is_empty(), "a runtime needs at least one plan");
        config.validate();
        // Calibrate the analytical views once, up front (a handful of
        // cycle-accurate probe runs per plan); afterwards every analytical
        // replay is a cached lookup.
        let analytical =
            if config.backend == BackendKind::Analytical && config.chips > config.audit_chips {
                Some(
                    plans
                        .par_iter()
                        .map(AnalyticalPlan::calibrate)
                        .collect::<Vec<_>>(),
                )
            } else {
                None
            };
        Self {
            plans,
            analytical,
            config,
        }
    }

    /// The compiled plans, indexed by model id.
    #[must_use]
    pub fn plans(&self) -> &[CompiledPlan] {
        &self.plans
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The calibrated analytical plan views, when the fleet has analytical
    /// chips.
    #[must_use]
    pub fn analytical_plans(&self) -> Option<&[AnalyticalPlan]> {
        self.analytical.as_deref()
    }

    /// Deliberately mis-calibrates `model`'s analytical view by scaling its
    /// predicted cycles (and fitted cycle scale) by `factor` — the
    /// fault-injection hook drift-detection tests and benches use to prove
    /// that the online calibration loop demotes a lying model.  No-op on a
    /// fleet without analytical plans.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range or `factor` is not a positive
    /// finite number.
    pub fn distort_model_calibration(&mut self, model: usize, factor: f64) {
        assert!(model < self.plans.len(), "model {model} has no plan");
        if let Some(analytical) = &mut self.analytical {
            analytical[model] = analytical[model].with_cycle_scale(factor);
        }
    }

    /// The backend chip `chip` executes with: the first
    /// [`ServeConfig::audit_chips`] chips of an analytical fleet stay
    /// cycle-accurate, everything else follows [`ServeConfig::backend`].
    #[must_use]
    pub fn chip_backend(&self, chip: usize) -> BackendKind {
        if self.analytical.is_some() && chip >= self.config.audit_chips {
            BackendKind::Analytical
        } else {
            BackendKind::CycleAccurate
        }
    }

    /// Number of chips running the analytical fast path.
    #[must_use]
    pub fn analytical_chip_count(&self) -> usize {
        if self.analytical.is_some() {
            self.config.chips - self.config.audit_chips
        } else {
            0
        }
    }

    /// The dispatcher's pre-execution cost model.  Execution-cycle estimates
    /// come from the calibrated analytical backend whenever the fleet has
    /// one, so admission control and analytical execution answer from the
    /// *same* cost source; a pure cycle-accurate fleet falls back to the
    /// plan's compile-time ideal estimate.
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        let exec_cycles = match &self.analytical {
            Some(analytical) => analytical
                .iter()
                .map(AnalyticalPlan::estimated_cycles)
                .collect(),
            None => self
                .plans
                .iter()
                .map(CompiledPlan::estimated_cycles)
                .collect(),
        };
        CostModel {
            exec_cycles,
            reload_cycles: self
                .plans
                .iter()
                .map(|p| {
                    (p.total_slices() as u64).saturating_mul(self.config.reload_cycles_per_slice)
                })
                .collect(),
        }
    }

    /// Opens an event-driven [`ServeSession`] over the fleet — the online
    /// front door: `submit` requests as they arrive, `run_until` to step
    /// virtual time, `poll_completions` to stream outcomes, `drain` for the
    /// final report.
    #[must_use]
    pub fn session(&self) -> ServeSession<'_> {
        ServeSession::new(self)
    }

    /// Replays a complete request trace and returns the aggregated report —
    /// the offline convenience wrapper: it feeds every request into a fresh
    /// [`ServeSession`] and drains it, so the online and offline paths share
    /// one scheduler and produce byte-identical reports for the same input.
    ///
    /// # Panics
    ///
    /// Panics if a request names a model the runtime has no plan for.
    #[must_use]
    pub fn serve(&self, trace: &[TraceRequest]) -> ServeReport {
        let mut session = self.session();
        for request in trace {
            session.submit(*request);
        }
        session.drain()
    }
}
