//! # aim-serve — online multi-chip serving over the AIM pipeline
//!
//! The paper's evaluation runs one model end-to-end on one simulated chip;
//! this crate amortises that fast core across heavy concurrent traffic.  A
//! [`ServeRuntime`] owns one [`aim_core::pipeline::CompiledPlan`] per served
//! model (the compile-once half of the pipeline: QAT ± LHR, WDS,
//! segmentation and task-to-macro mapping) and a fleet of simulated chips.
//! Traffic enters through an **event-driven [`session::ServeSession`]** —
//! the crate's front door:
//!
//! ```no_run
//! use aim_serve::prelude::*;
//! # fn traffic() -> Vec<TraceRequest> { Vec::new() }
//! # fn runtime() -> ServeRuntime { unimplemented!() }
//!
//! let runtime = runtime();
//! let mut session = runtime.session();
//! for request in traffic() {
//!     session.submit(request);                  // arrivals, one at a time
//!     session.run_until(request.arrival_cycles); // step virtual time
//!     for done in session.poll_completions() {   // stream outcomes
//!         println!("request {} -> {:?}", done.request, done.status);
//!     }
//! }
//! let report = session.drain();                  // final ServeReport
//! ```
//!
//! 1. **Online batching** — each model holds one open batch; a request
//!    joins its model's batch when it arrives within the batching window
//!    (up to `max_batch`), so *interleaved* multi-model traffic batches
//!    correctly — unlike the offline [`scheduler::form_groups`] scan, which
//!    only coalesces consecutive same-model requests and survives as the
//!    documented baseline.  A batch closes on window expiry, on filling up,
//!    or the moment a latency-sensitive request joins it.
//! 2. **SLO classes** ([`workloads::inputs::SloClass`] on every
//!    [`workloads::inputs::TraceRequest`]) — `LatencySensitive` arrivals
//!    close batch windows early and jump queued lower-class groups that
//!    have not started; `BestEffort` rides at the back of the queue.
//!    Admission control ([`scheduler::AdmissionConfig`]) holds each class
//!    to its own backlog cap and bounces the rest.
//! 3. **Deterministic dispatch** — groups pick chips (round-robin or
//!    least-loaded) on the shared pre-execution [`scheduler::CostModel`];
//!    scheduling never reads measured execution, which is what lets chip
//!    lanes fan out on the rayon pool while reports stay byte-identical.
//!    A step fans out only when two of its ready lanes will replay
//!    cycle-accurately (audit lanes, verification samples, demoted
//!    models); analytical lookups run inline.  Fleets choose their
//!    execution backend
//!    ([`runtime::ServeConfig::backend`]): cycle-accurate chips run the
//!    per-cycle engine through reusable [`pim_sim::chip::SimSession`]s,
//!    analytical chips hand out their plan's calibrated closed-form
//!    prediction ([`aim_core::analytical::AnalyticalPlan`]), audit chips
//!    ([`runtime::ServeConfig::audit_chips`]) and sampled verification
//!    ([`runtime::ServeConfig::verify_every`]) keep ground truth flowing.
//! 4. **Streaming reports** — [`session::ServeSession::poll_completions`]
//!    yields per-request [`session::RequestOutcome`]s as groups retire;
//!    the final [`report::ServeReport`] (latency percentiles overall and
//!    per SLO class, per-chip utilization, deadline misses, power/droop,
//!    verification drift) is frozen from an incremental
//!    [`report::ReportAccumulator`], which also
//!    [`merge`](report::ReportAccumulator::merge)s across sharded sessions.
//!
//! The offline entry point survives as a thin wrapper:
//! [`runtime::ServeRuntime::serve`] feeds the whole trace into a fresh
//! session and drains it, so both paths share one scheduler.
//!
//! Above the single session sits the **fault-tolerant elastic fleet**
//! ([`fleet::FleetSession`]): requests shard across multiple sessions,
//! chips die and degrade at scripted virtual-time points
//! ([`workloads::inputs::FaultPlan`]), not-yet-started work fails over to
//! survivors, worker counts follow per-class backlog pressure with
//! hysteresis ([`fleet::ScalingConfig`]), and the final
//! [`fleet::FleetReport`] merges shard accumulators and adds availability
//! metrics.  The [`scenario`] module freezes named chaos scenarios as
//! golden files.
//!
//! Above the fleet sits **multi-region orchestration**
//! ([`global::GlobalRouter`]): N heterogeneous fleet regions (different
//! silicon per region), explicit model placement/replication, deterministic
//! routing, a per-region health state machine driven by scripted
//! [`workloads::inputs::RegionFaultPlan`]s, migration of not-yet-started
//! work off dead regions under a bounded retry budget with virtual-time
//! backoff, and graceful degradation that sheds best-effort traffic first.
//!
//! ## Determinism contract
//!
//! Everything the scheduler decides is derived from the submission
//! sequence, the serve seed and pre-execution cost estimates — never from
//! wall-clock time, thread interleaving, or measured execution.  A fixed
//! `(trace, ServeConfig)` therefore produces a byte-identical
//! [`report::ServeReport`] run over run, **independent of the worker-thread
//! count** and of how `run_until`/`poll_completions` calls interleave with
//! submissions: `serve(&trace)`, submit-all-then-drain, and incremental
//! stepping all return the same bytes.  `tests/properties.rs` and
//! `tests/session_api.rs` pin this along with the no-request-lost,
//! conservation and SLO-priority invariants.
//!
//! Each layer applies its virtual-time events in one declared order, and
//! events at the same cycle break ties as follows:
//!
//! * **session** — arrivals before window closures, closures ordered by
//!   `(close_at, generation)`: the window map of [`session::ServeSession`]
//!   and its `submit_with_id`, which closes only windows strictly before
//!   the arrival;
//! * **fleet** — faults in plan order, then the scaling check, both before
//!   a submission at that cycle: the derived `Ord` of the private `Event`
//!   enum in [`fleet`];
//! * **router** — plan events in plan order, then health transitions, then
//!   retries, the last two in scheduling order: the derived `Ord` of the
//!   private `Event` enum in [`global`];
//! * **DAG** — ready stages by `(ready_at, item, stage)`, before fleet
//!   observations: the `ready` set of [`dag::DagOrchestrator`] and its
//!   event walk.
//!
//! `tests/fleet.rs` and `tests/global.rs` pin the fleet and router ties.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dag;
pub mod fleet;
pub mod global;
pub mod report;
pub mod runtime;
pub mod scenario;
pub mod scheduler;
pub mod session;

pub use dag::{DagOrchestrator, DagOrchestratorConfig, StageOutcome, StageStatus};
pub use fleet::{
    AvailabilityStats, ClassAttainment, FleetConfig, FleetOutcome, FleetReport, FleetSession,
    ScalingConfig, ShardPolicy,
};
pub use global::{
    place_models, GlobalAvailability, GlobalConfig, GlobalOutcome, GlobalReport, GlobalRouter,
    GlobalStatus, GlobalSummary, PlacementStats, RegionHealth, RegionReport, RegionSpec,
    RetryConfig, RoutePolicy, ShedPolicy, ShedReason,
};
pub use report::{
    CalibrationStats, ChipServeStats, ClassServeStats, DagClassStats, DagServeStats, LatencySketch,
    ModelCalibration, ReportAccumulator, ServeReport, VerificationStats,
};
pub use runtime::{ServeConfig, ServeConfigBuilder, ServeRuntime};
pub use scheduler::{AdmissionConfig, DispatchPolicy, RequestGroup};
pub use session::{CompletionStatus, RequestOutcome, ServeSession};

/// One-stop imports for serving code: the runtime, session, fleet layer,
/// config builder, report types, and the workload-side request/SLO/fault
/// vocabulary.
pub mod prelude {
    pub use crate::dag::{DagOrchestrator, DagOrchestratorConfig, StageOutcome, StageStatus};
    pub use crate::fleet::{
        AvailabilityStats, ClassAttainment, FleetConfig, FleetOutcome, FleetReport, FleetSession,
        ScalingConfig, ShardPolicy,
    };
    pub use crate::global::{
        place_models, GlobalAvailability, GlobalConfig, GlobalOutcome, GlobalReport, GlobalRouter,
        GlobalStatus, GlobalSummary, PlacementStats, RegionHealth, RegionReport, RegionSpec,
        RetryConfig, RoutePolicy, ShedPolicy, ShedReason,
    };
    pub use crate::report::{
        CalibrationStats, ChipServeStats, ClassServeStats, DagClassStats, DagServeStats,
        LatencySketch, ModelCalibration, ReportAccumulator, ServeReport, VerificationStats,
    };
    pub use crate::runtime::{ServeConfig, ServeConfigBuilder, ServeRuntime};
    pub use crate::scheduler::{AdmissionConfig, CostModel, DispatchPolicy, RequestGroup};
    pub use crate::session::{CompletionStatus, RequestOutcome, ServeSession};
    pub use pim_sim::backend::{BackendKind, CalibrationLoopConfig, ChipHealth};
    pub use workloads::dag::{
        standard_templates, DagRequest, DagStage, DagTemplate, SessionConfig, SessionItem,
        SessionItemKind, SessionStream,
    };
    pub use workloads::inputs::{
        chaos_fault_plan, region_chaos_plan, with_flash_crowds, ChaosConfig, FaultEvent, FaultKind,
        FaultPlan, RegionChaosConfig, RegionFaultEvent, RegionFaultKind, RegionFaultPlan, SloClass,
        TraceRequest,
    };
}
