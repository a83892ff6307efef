//! The event-driven online serving session.
//!
//! [`ServeSession`] is the crate's front door for traffic that arrives over
//! time: [`submit`] accepts one request at the session's virtual "now",
//! [`run_until`] steps the event loop (batch-window closures, dispatch,
//! chip execution) up to a target cycle, [`poll_completions`] streams
//! per-request outcomes as their groups retire, and [`drain`] flushes
//! everything and freezes the final [`ServeReport`].  The offline
//! [`ServeRuntime::serve`] is a thin wrapper: submit the whole trace, then
//! drain.
//!
//! ## The online batcher
//!
//! Each model owns one *open batch*.  A request joins its model's open batch
//! when it arrives within the batching window of the batch's first member
//! (and the batch has room); otherwise it opens a new batch whose window
//! closure is queued as an event.  Because pending batches are **per
//! model**, interleaved traffic (`A,B,A,B,…`) batches correctly — the
//! offline [`form_groups`] scan, which only coalesces *consecutive*
//! same-model requests, never batches that trace at all.
//!
//! A batch closes (is committed as one group, which dispatches as one slot
//! of a chip's queue) when the first of these happens: its window expires,
//! it reaches `max_batch`, or a [`SloClass::LatencySensitive`] request joins
//! it — latency-sensitive arrivals close the window early and carry the
//! whole batch with them.
//!
//! ## Priority-aware dispatch
//!
//! A closed group picks a chip (round-robin or least-loaded over estimated
//! availability) and is inserted into the chip's queue: it may **jump ahead
//! of queued lower-class groups that have not started yet** (by the
//! estimated schedule), but never ahead of work already underway or of
//! equal/higher-class groups.  Admission control compares the group's
//! estimated queueing delay against its class's cap
//! ([`AdmissionConfig::cap_for`]) and bounces the whole group when it is
//! exceeded; rejected requests surface immediately through
//! [`poll_completions`].
//!
//! ## Determinism and worker-count independence
//!
//! Every *scheduling* decision (batch membership, chip choice, queue
//! position, admission) derives from arrival times and the pre-execution
//! [`CostModel`] — never from measured execution.  Chip execution therefore
//! fans out across worker threads freely: with `parallel` set, only the
//! lanes with ready work fan out (a step with one ready lane runs inline),
//! each group's replay is seeded by its commit index, the lanes' results
//! are merged and sorted by commit index, and the measured timeline is
//! chained per chip in queue order.  A fixed submission sequence produces a
//! byte-identical [`ServeReport`] regardless of `parallel`, of the
//! worker-thread count, and of how the caller interleaves
//! `run_until`/`poll_completions` between submissions.
//!
//! A cycle-accurate replay is a pure function of `(model, seed offset)`, so
//! every replay goes through a bounded replay memo.  A plain session owns
//! its memo; the shards of a [`crate::fleet::FleetSession`] share one for the
//! fleet's lifetime, because every shard numbers its groups from 0 under the
//! same serve seed and would otherwise recompute each other's replays.
//!
//! ## Faults and elasticity
//!
//! Three hooks let a fleet layer (see [`crate::fleet`]) reshape a running
//! session at deterministic virtual-time points: [`kill_chip`] marks a chip
//! dead and fails its not-yet-started queue over to the survivors (the
//! executed prefix — judged by the *estimated* schedule, the same rule
//! priority insertion uses — stays immutable), [`set_chip_health`] applies a
//! [`ChipHealth`] derate that stretches both estimated and measured service
//! cycles from that point on, and [`set_worker_count`] grows or shrinks the
//! dispatch-eligible worker set (deactivated chips drain).  All three step
//! the session to the change point first, so their effect is a pure function
//! of the submission/fault sequence — never of how the caller interleaved
//! `run_until` — and the determinism contract below survives chaos
//! scenarios unchanged.
//!
//! ## The online calibration loop
//!
//! With [`ServeConfig::calibration`] set (and analytical chips present),
//! drift samples — sampled verification, audit-chip replays, demoted-model
//! executions — feed a per-model EWMA of *signed* relative cycle residuals,
//! absorbed strictly in commit order.  Recalibration points are virtual-time
//! events: [`run_until`] internally sub-steps at every boundary (multiples
//! of the configured interval), so recalibrating, demoting and promoting
//! happen at canonical times — a pure function of the submission/fault
//! sequence, never of stepping granularity, worker count, shard layout or
//! polling order, the same discipline window closures follow.  Demotion
//! never touches the estimated schedule (estimate purity): a demoted
//! model's groups still schedule from the shared cost model; only their
//! *measured* execution switches to the cycle-accurate engine, and each
//! such execution is a free drift sample feeding the promotion streak.
//! Verification drift is health-aware: both sides of every sample are
//! derated by the chip's [`ChipHealth`] at the slot's estimated start, so a
//! degraded chip measures its prediction error, not its derate.
//!
//! [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
//!
//! ## Bounded memory
//!
//! Session memory is proportional to *in-flight* work, never to the total
//! traffic absorbed.  Request state lives inside its open batch and then
//! its group record until the group resolves; executed chip-queue slots
//! are popped as they retire.  A group is folded into the session's
//! [`ReportAccumulator`] — itself bounded — the moment it resolves: an
//! executed group at harvest, a rejected one at commit.  That is execution
//! order, not commit order, and the report is byte-identical all the same,
//! because every fold the accumulator makes commutes.  Only the
//! calibration loop's EWMA depends on order, so a resolved group's record
//! keeps nothing but its drift sample until every group committed before it
//! has resolved too; the loop then takes the samples in commit order and
//! drops the records.  The only per-request state that can outlive its
//! group is the unpolled [`RequestOutcome`] stream, and
//! `ServeConfig::completion_capacity` bounds that too — report-only
//! callers that never poll hold a fixed window, with the overflow counted
//! by [`Self::completions_dropped`].  The stepping hot path reuses its
//! buffers: the chip lanes execute in place into one session-owned result
//! buffer, and each resolved group's request buffer is recycled into the
//! next batch to open, so the session never holds more request buffers
//! than it once had batches and unresolved groups at once.
//!
//! [`submit`]: ServeSession::submit
//! [`run_until`]: ServeSession::run_until
//! [`poll_completions`]: ServeSession::poll_completions
//! [`drain`]: ServeSession::drain
//! [`kill_chip`]: ServeSession::kill_chip
//! [`set_chip_health`]: ServeSession::set_chip_health
//! [`set_worker_count`]: ServeSession::set_worker_count
//! [`form_groups`]: crate::scheduler::form_groups
//! [`AdmissionConfig::cap_for`]: crate::scheduler::AdmissionConfig::cap_for
//! [`ServeConfig::completion_capacity`]: crate::runtime::ServeConfig::completion_capacity

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use aim_core::pipeline::PlanExecution;
use pim_sim::backend::{BackendKind, CalibrationLoopConfig, ChipHealth};
use pim_sim::chip::SimSession;
use workloads::inputs::{SloClass, TraceRequest};

use crate::report::{ModelCalibration, ReportAccumulator, ServeReport};
use crate::runtime::ServeRuntime;
use crate::scheduler::{group_service_cycles, CostModel, DispatchPolicy};

/// How one submitted request left the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompletionStatus {
    /// The request's group executed to completion.
    Served {
        /// Chip the group ran on.
        chip: usize,
        /// Commit index of the group (the session's group id).
        group: usize,
        /// Requests the group batched together.
        batch_size: usize,
        /// Measured cycle the chip began the group (reload included).
        start_cycles: u64,
        /// Measured cycle the group's last request completed.
        finish_cycles: u64,
        /// `finish - arrival` for this request.
        latency_cycles: u64,
        /// Whether the request finished past its deadline.
        deadline_missed: bool,
        /// Whether the request's group was requeued off a dead chip before
        /// executing ([`ServeSession::kill_chip`]) — "failed over and
        /// served".
        failed_over: bool,
    },
    /// Admission control bounced the request's group.
    Rejected {
        /// Estimated queueing delay the group faced (cycles).
        backlog_cycles: u64,
        /// The class cap it exceeded (cycles).
        backlog_cap_cycles: u64,
    },
}

/// One streamed per-request outcome, yielded by
/// [`ServeSession::poll_completions`] as groups retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The request's external id: its submission index for
    /// [`ServeSession::submit`], or whatever the caller passed to
    /// [`ServeSession::submit_with_id`].
    pub request: usize,
    /// Model the request targeted.
    pub model: usize,
    /// SLO class the request was served under.
    pub slo: SloClass,
    /// How the request left the session.
    pub status: CompletionStatus,
}

/// A model's open (not yet dispatched) batch, owning its members' request
/// state as `(external id, request)` pairs.
#[derive(Debug, Clone)]
struct OpenBatch {
    requests: Vec<(usize, TraceRequest)>,
    last_arrival: u64,
    close_at: u64,
    class: SloClass,
    generation: u64,
}

/// One committed group in a chip's queue, with its estimated schedule.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gid: usize,
    model: usize,
    class: SloClass,
    batch: usize,
    ready: u64,
    est_start: u64,
    est_finish: u64,
    verify: bool,
}

/// One measured drift observation: the analytical prediction versus a
/// cycle-accurate replay of the same group, both derated by the chip's
/// [`ChipHealth`] at the slot's estimated start — service-level cycles on
/// both sides, so a degraded chip measures calibration error, not its own
/// derate.
#[derive(Debug, Clone, Copy)]
struct DriftSample {
    /// Health-derated predicted execution cycles (online recalibration
    /// multiplier applied).
    predicted: u64,
    /// Health-derated measured cycle-accurate execution cycles.
    accurate: u64,
    /// Whether the sample counts toward the sampled-verification stats
    /// (audit-chip and demotion-only samples feed just the loop).
    verify: bool,
}

/// Measured outcome of one executed group.
#[derive(Debug, Clone, Copy)]
struct ExecDone {
    /// Commit index of the group.
    gid: usize,
    start: u64,
    finish: u64,
    exec: PlanExecution,
    /// The group's drift observation, when one was measured.
    drift: Option<DriftSample>,
}

/// What the session keeps of one committed group: its members' request
/// state until the group resolves (is rejected, evicted or executed), then
/// only its drift sample until the calibration loop takes it in commit
/// order and the record is dropped.
#[derive(Debug, Clone)]
struct GroupRecord {
    model: usize,
    /// Empty once the group resolved: its buffer went back to the spares.
    requests: Vec<(usize, TraceRequest)>,
    /// `None` when admission control rejected the group.
    chip: Option<usize>,
    /// The executed group's drift observation, when one was measured.
    drift: Option<DriftSample>,
    /// Whether the group was requeued off a dead chip before starting.
    failed_over: bool,
    /// Whether the group was rejected, evicted or executed.  A rejected or
    /// executed group is already in the report accumulator; an evicted one
    /// never enters it.
    resolved: bool,
}

/// Per-model state of the online calibration loop
/// ([`ServeConfig::calibration`]): the EWMA of signed relative residuals
/// since the last recalibration, the multiplier recalibration has folded
/// onto the fitted cycle prediction, the demotion streaks, and the model's
/// report row, which the session hands to its accumulator at drain as is.
///
/// [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
#[derive(Debug, Clone, Copy)]
struct ModelLoopState {
    /// Online multiplier on the fitted cycle prediction (1.0 untouched).
    adjust: f64,
    /// EWMA of signed relative residuals `(accurate - predicted) /
    /// predicted` since the last recalibration.
    ewma: f64,
    /// Samples absorbed since the last applied recalibration; a boundary
    /// with zero fresh samples is a no-op (which is what keeps stale
    /// boundaries from perturbing byte-stability).
    samples_since_recal: u64,
    out_streak: u32,
    in_streak: u32,
    /// Counters, demotion state (`demoted`: the model currently executes
    /// cycle-accurately on analytical lanes), calibrated bound and worst
    /// |EWMA|.
    row: ModelCalibration,
}

impl ModelLoopState {
    fn new(model: usize, error_bound: f64) -> Self {
        Self {
            adjust: 1.0,
            ewma: 0.0,
            samples_since_recal: 0,
            out_streak: 0,
            in_streak: 0,
            row: ModelCalibration {
                model,
                samples: 0,
                recalibrations: 0,
                demotions: 0,
                promotions: 0,
                demoted: false,
                error_bound,
                max_abs_ewma_drift: 0.0,
            },
        }
    }
}

/// Caps on the online cycle-prediction multiplier: recalibration follows
/// the measured residuals but never walks the prediction into a degenerate
/// regime (a collapsed or exploded scale would poison every later sample).
const MIN_CYCLE_ADJUST: f64 = 0.05;
const MAX_CYCLE_ADJUST: f64 = 20.0;

/// Chip health in effect at virtual time `at`: the latest registered change
/// not after `at`, healthy before the first change.
fn health_at(changes: &[(u64, ChipHealth)], at: u64) -> ChipHealth {
    changes
        .iter()
        .rev()
        .find(|&&(t, _)| t <= at)
        .map_or(ChipHealth::Healthy, |&(_, h)| h)
}

/// Per-chip queue plus the chip's execution state.  `slots` holds only
/// *pending* work: an executed slot is popped at harvest, its estimated
/// finish/model chained into `est_prev_*` so later estimates see the same
/// predecessor they would have with the full history retained.
#[derive(Debug)]
struct ChipLane {
    chip: usize,
    backend: BackendKind,
    slots: VecDeque<Slot>,
    /// Estimated finish of the last retired slot (0 before any retired).
    est_prev_finish: u64,
    /// Model of the last retired slot, for the reload-on-switch charge.
    est_prev_model: Option<usize>,
    /// Measured finish of the last executed slot.
    actual_free: u64,
    actual_last_model: Option<usize>,
    /// The death cycle once the chip died ([`ServeSession::kill_chip`]): no
    /// new dispatch, no further execution (its queue was failed over).
    died_at: Option<u64>,
    /// Elastic-scaling eligibility: an inactive chip drains its queue but
    /// receives no new dispatch ([`ServeSession::set_worker_count`]).
    active: bool,
    /// Health changes in ascending time order; empty means always healthy.
    /// A slot is estimated and executed under the health in effect at its
    /// estimated start ([`health_at`]).
    health_changes: Vec<(u64, ChipHealth)>,
    /// Estimated service cycles of pending slots per SLO class, maintained
    /// incrementally so backlog reads are O(1) per lane.  Kept as a ledger
    /// rather than summed from `slots` on each read: elastic scaling, DAG
    /// admission and least-backlog routing read it on every decision, and
    /// deriving it cut hostbench `global-outage` host_rps from 2.63–2.67 M
    /// to 1.40–2.11 M req/s (4 alternating pairs, seed 7, `--seconds 5`,
    /// 2-vCPU VM).
    backlog: [u64; 3],
    sim: SimSession,
}

impl ChipLane {
    fn alive(&self) -> bool {
        self.died_at.is_none()
    }

    /// Estimated time the chip finishes everything currently queued.
    fn est_avail(&self) -> u64 {
        self.slots
            .back()
            .map_or(self.est_prev_finish, |s| s.est_finish)
    }

    /// Recomputes the estimated schedule from slot `from` onward (queue
    /// order, reload charged on model switches, the chip's health derate at
    /// each slot's estimated start applied to its service time), keeping
    /// the per-class backlog counters in step.
    fn recompute_est(&mut self, from: usize, cost: &CostModel) {
        for i in from..self.slots.len() {
            let (prev_finish, prev_model) = if i == 0 {
                (self.est_prev_finish, self.est_prev_model)
            } else {
                (self.slots[i - 1].est_finish, Some(self.slots[i - 1].model))
            };
            let slot = &self.slots[i];
            let switching = prev_model != Some(slot.model);
            let duration = group_service_cycles(
                slot.batch,
                cost.exec_cycles[slot.model],
                cost.reload_cycles[slot.model],
                switching,
            );
            let start = prev_finish.max(slot.ready);
            let health = health_at(&self.health_changes, start);
            // Virtual time ends at `u64::MAX`: a slot past it finishes there.
            let finish = start.saturating_add(health.scale_cycles(duration));
            let class = slot.class.index();
            self.backlog[class] -= slot.est_finish - slot.est_start;
            let slot = &mut self.slots[i];
            slot.est_start = start;
            slot.est_finish = finish;
            self.backlog[class] += finish - start;
        }
    }

    /// Pops the front (executed) slot, chaining its estimate into
    /// `est_prev_*` and releasing its backlog contribution.
    fn retire_front(&mut self) -> Slot {
        let slot = self.slots.pop_front().expect("retiring an empty lane");
        self.backlog[slot.class.index()] -= slot.est_finish - slot.est_start;
        self.est_prev_finish = slot.est_finish;
        self.est_prev_model = Some(slot.model);
        slot
    }

    /// Drains every pending slot (fault/eviction paths), clearing the
    /// backlog counters without chaining the estimates — the drained work
    /// is leaving this lane, not retiring on it.
    fn drain_pending(&mut self) -> Vec<Slot> {
        self.backlog = [0; 3];
        self.slots.drain(..).collect()
    }

    /// Queue position for a group of `class` committed at virtual time
    /// `clock`: after everything already started (by the estimated
    /// schedule) and after equal-or-higher classes, ahead of queued
    /// strictly-lower classes — "jumping the backlog".  Executed slots are
    /// popped at harvest, so the scan only ever walks pending work.
    fn insertion_position(&self, class: SloClass, clock: u64) -> usize {
        let pending_from = self
            .slots
            .iter()
            .position(|s| s.est_start > clock)
            .map_or(self.slots.len(), |p| p);
        self.slots
            .iter()
            .skip(pending_from)
            .position(|s| s.class < class)
            .map_or(self.slots.len(), |p| pending_from + p)
    }
}

/// Most replay results one [`ReplayMemo`] holds; a full memo starts over.
const REPLAY_MEMO_CAP: usize = 4096;

/// Cycle-accurate replay results keyed by `(model, seed offset)`, shared by
/// every shard of one fleet run (a plain session owns its own).
///
/// [`aim_core::pipeline::CompiledPlan::execute_with_session`] is a pure
/// function of the plan and the seed offset, so a hit is byte-identical to
/// recomputing, and a miss after the memo starts over only costs time.  The
/// memo lives exactly as long as its sessions: repeated runs over one
/// [`ServeRuntime`] never share answers.
#[derive(Debug, Default)]
pub(crate) struct ReplayMemo {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    results: HashMap<(usize, u64), PlanExecution>,
    /// Replays computed rather than recalled.
    misses: u64,
}

impl ReplayMemo {
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().expect("replay memo poisoned")
    }

    /// The replay result for `key`, recalled, or computed by `replay` and
    /// remembered.  `replay` runs outside the lock; a concurrent miss on
    /// the same key computes the same value.
    fn recall_or(
        &self,
        key: (usize, u64),
        replay: impl FnOnce() -> PlanExecution,
    ) -> PlanExecution {
        if let Some(&exec) = self.lock().results.get(&key) {
            return exec;
        }
        let exec = replay();
        let mut state = self.lock();
        if state.results.len() >= REPLAY_MEMO_CAP {
            state.results.clear();
        }
        state.results.insert(key, exec);
        state.misses += 1;
        exec
    }

    #[cfg(test)]
    pub(crate) fn misses(&self) -> u64 {
        self.lock().misses
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().results.len()
    }
}

/// An incremental, event-driven serving session over a compiled
/// [`ServeRuntime`] — see the [module docs](self) for the lifecycle.
#[derive(Debug)]
pub struct ServeSession<'rt> {
    runtime: &'rt ServeRuntime,
    cost: CostModel,
    /// Virtual "now": the latest arrival or `run_until` target seen.
    clock: u64,
    drained: bool,
    /// Requests submitted so far.
    submitted: usize,
    /// Per-model open batch.
    open: Vec<Option<OpenBatch>>,
    /// Pending window closures: `(close_at, generation) -> model`.
    events: BTreeMap<(u64, u64), usize>,
    next_generation: u64,
    /// Committed groups, in commit order, that the calibration loop has
    /// not yet seen; the group with commit index `gid` lives at
    /// `groups[gid - groups_base]`.
    groups: VecDeque<GroupRecord>,
    /// Commit index of the front of `groups` (= groups already dropped).
    groups_base: usize,
    /// The running report, fed each group as it resolves, in whatever order
    /// groups happen to execute ([`ReportAccumulator`]'s folds commute).
    acc: ReportAccumulator,
    lanes: Vec<ChipLane>,
    next_round_robin: usize,
    /// Per-model online calibration-loop state; empty when the loop is off
    /// (no [`ServeConfig::calibration`] or no analytical chips).
    ///
    /// [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
    cal: Vec<ModelLoopState>,
    /// The next recalibration boundary (a multiple of the configured
    /// interval); meaningless while `cal` is empty.
    next_recal_at: u64,
    completions: VecDeque<RequestOutcome>,
    completions_dropped: u64,
    failed_over_groups: usize,
    failed_over_requests: usize,
    /// Cycle-accurate replay results, shared with the other shards of a
    /// fleet run.
    replays: Arc<ReplayMemo>,
    /// The slots one harvest executed, reused across harvests (empty
    /// between them).
    retired: Vec<ExecDone>,
    /// Cleared request buffers of resolved groups and evicted batches,
    /// reused by the next batches to open.
    spare_requests: Vec<Vec<(usize, TraceRequest)>>,
}

impl<'rt> ServeSession<'rt> {
    /// Opens a session over the runtime's fleet, at virtual cycle 0.
    #[must_use]
    pub fn new(runtime: &'rt ServeRuntime) -> Self {
        Self::sharing_replays(runtime, Arc::default())
    }

    /// [`Self::new`], recalling and recording cycle-accurate replays in
    /// `replays` — the memo a fleet hands all of its shards.
    pub(crate) fn sharing_replays(runtime: &'rt ServeRuntime, replays: Arc<ReplayMemo>) -> Self {
        let config = runtime.config();
        let lanes = (0..config.chips)
            .map(|chip| ChipLane {
                chip,
                backend: runtime.chip_backend(chip),
                slots: VecDeque::new(),
                est_prev_finish: 0,
                est_prev_model: None,
                actual_free: 0,
                actual_last_model: None,
                died_at: None,
                active: true,
                health_changes: Vec::new(),
                backlog: [0; 3],
                sim: SimSession::new(),
            })
            .collect();
        let cal = match Self::loop_config(runtime).and(runtime.analytical_plans()) {
            Some(plans) => plans
                .iter()
                .enumerate()
                .map(|(model, plan)| ModelLoopState::new(model, plan.error_bound()))
                .collect(),
            None => Vec::new(),
        };
        let next_recal_at =
            Self::loop_config(runtime).map_or(u64::MAX, |cfg| cfg.recalibrate_interval_cycles);
        Self {
            runtime,
            cost: runtime.cost_model(),
            clock: 0,
            drained: false,
            submitted: 0,
            open: vec![None; runtime.plans().len()],
            events: BTreeMap::new(),
            next_generation: 0,
            groups: VecDeque::new(),
            groups_base: 0,
            acc: Self::fresh_accumulator(runtime),
            lanes,
            next_round_robin: 0,
            cal,
            next_recal_at,
            completions: VecDeque::new(),
            completions_dropped: 0,
            failed_over_groups: 0,
            failed_over_requests: 0,
            replays,
            retired: Vec::new(),
            spare_requests: Vec::new(),
        }
    }

    /// An empty accumulator carrying the runtime's fleet shape and
    /// analytical context — everything [`ReportAccumulator`] needs before
    /// the first group is absorbed.
    fn fresh_accumulator(runtime: &ServeRuntime) -> ReportAccumulator {
        let config = runtime.config();
        let nominal_ghz = runtime.plans()[0].chip_params().nominal_frequency_ghz;
        let mut acc = ReportAccumulator::new(config.seed, config.chips, nominal_ghz);
        let analytical = runtime.analytical_plans();
        let verify_enabled = analytical.is_some() && config.verify_every > 0;
        let fleet_bound = analytical.map_or(0.0, |plans| {
            plans
                .iter()
                .map(aim_core::analytical::AnalyticalPlan::error_bound)
                .fold(0.0f64, f64::max)
        });
        acc.set_analytical_context(runtime.analytical_chip_count(), verify_enabled, fleet_bound);
        acc
    }

    /// The online calibration loop's configuration when the loop is active:
    /// it needs both [`ServeConfig::calibration`] and analytical chips to
    /// close against.
    ///
    /// [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
    fn loop_config(runtime: &ServeRuntime) -> Option<CalibrationLoopConfig> {
        runtime.analytical_plans().and(runtime.config().calibration)
    }

    #[cfg(test)]
    pub(crate) fn replay_memo(&self) -> &ReplayMemo {
        &self.replays
    }

    /// The session's virtual clock (cycles).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Accepts one request at the session's virtual "now", tagged with its
    /// submission index (0 for the first submission).
    ///
    /// Submissions are expected in nondecreasing arrival order (an online
    /// front door sees time move forward); a request whose stated arrival
    /// lies before the session clock is treated as arriving *now* — you
    /// cannot receive a request earlier than the present — while its stated
    /// arrival still anchors the latency accounting.
    ///
    /// # Panics
    ///
    /// Panics if the request names a model the runtime has no plan for, or
    /// if the session was already drained.
    pub fn submit(&mut self, request: TraceRequest) {
        self.submit_with_id(self.submitted, request);
    }

    /// Like [`Self::submit`], but tags the request with a caller-chosen
    /// external id instead of the submission index.  The id is opaque to
    /// the session — it only flows back out as [`RequestOutcome::request`]
    /// and through [`Self::evict_pending`] — so a sharding layer can hand
    /// each shard its fleet-wide submission indices without any per-request
    /// translation table.
    ///
    /// # Panics
    ///
    /// Panics if the request names a model the runtime has no plan for, or
    /// if the session was already drained.
    pub fn submit_with_id(&mut self, external_id: usize, request: TraceRequest) {
        assert!(!self.drained, "cannot submit to a drained session");
        assert!(
            request.model < self.runtime.plans().len(),
            "request targets model {} but only {} plans are loaded",
            request.model,
            self.runtime.plans().len()
        );
        let arrival = request.arrival_cycles.max(self.clock);
        // Same-cycle arrivals are handled before window closures, mirroring
        // the offline scan's inclusive window horizon.
        self.process_events(arrival, false);
        self.clock = arrival;
        self.submitted += 1;

        let config = self.runtime.config();
        let model = request.model;
        let slo = request.slo;
        let joined = match &mut self.open[model] {
            Some(batch) if arrival <= batch.close_at && batch.requests.len() < config.max_batch => {
                batch.requests.push((external_id, request));
                batch.last_arrival = arrival;
                batch.class = batch.class.max(slo);
                true
            }
            _ => false,
        };
        if joined {
            let full = self.open[model]
                .as_ref()
                .is_some_and(|b| b.requests.len() >= config.max_batch);
            if full || slo == SloClass::LatencySensitive {
                self.flush_model(model);
            }
            return;
        }
        // A non-joinable open batch means its window expired between events
        // or it is full: close it before opening the successor.
        if self.open[model].is_some() {
            self.flush_model(model);
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let close_at = arrival.saturating_add(config.batch_window_cycles);
        let mut requests = self.spare_requests.pop().unwrap_or_default();
        requests.push((external_id, request));
        self.open[model] = Some(OpenBatch {
            requests,
            last_arrival: arrival,
            close_at,
            class: slo,
            generation,
        });
        if slo == SloClass::LatencySensitive || config.max_batch == 1 {
            self.flush_model(model);
        } else {
            self.events.insert((close_at, generation), model);
        }
    }

    /// Steps the event loop up to virtual cycle `target`: closes batch
    /// windows that expire *before* then and executes every group whose
    /// estimated start has been reached.  Completions become available
    /// through [`Self::poll_completions`].
    ///
    /// Window closures are processed strictly before `target` — the same
    /// boundary [`Self::submit`] uses — so a window closing exactly at
    /// `target` stays open and a same-cycle arrival may still join it.
    /// That shared convention is what keeps incremental stepping
    /// byte-identical to submit-all-then-drain even when a step target
    /// collides with a window expiry; the batch commits at its closure
    /// time on the next step past it (or at [`Self::drain`]).
    ///
    /// With the online calibration loop active the step internally
    /// sub-steps at every recalibration boundary it crosses, so the loop's
    /// decisions land at canonical virtual times regardless of how coarsely
    /// the caller steps.
    pub fn run_until(&mut self, target: u64) {
        // A target behind the clock still executes everything the clock has
        // reached (the historical semantics) — normalize first so the
        // boundary walk sees the true horizon.
        let target = self.clock.max(target);
        self.step_recalibrations(target);
        self.advance_to(target);
    }

    /// One un-sub-stepped event-loop advance — [`Self::run_until`] without
    /// the recalibration boundaries.  The execution horizon is exactly
    /// `target`: when the boundary walk calls this with a boundary behind
    /// the clock, work estimated after the boundary stays queued for a
    /// later sub-step (that deferral is what pins each slot's execution to
    /// the boundary window containing its estimated start).
    fn advance_to(&mut self, target: u64) {
        self.process_events(target, false);
        self.clock = self.clock.max(target);
        self.execute_ready(target);
    }

    /// Advances through every recalibration boundary at or before `target`,
    /// applying the calibration loop's decisions at each.  A boundary is
    /// processed while the session still holds pending work *or* absorbed
    /// samples await a recalibration — both conditions are pure functions
    /// of the submission sequence at that boundary, which keeps the
    /// decision points independent of the caller's stepping granularity.
    /// Quiet stretches fast-forward: with no fresh samples, a boundary
    /// before the next session event is provably a no-op and is skipped
    /// arithmetically rather than stepped.
    fn step_recalibrations(&mut self, target: u64) {
        if self.cal.is_empty() {
            return;
        }
        let interval = Self::loop_config(self.runtime)
            .expect("loop state implies a loop config")
            .recalibrate_interval_cycles;
        while self.next_recal_at <= target {
            let pending_samples = self.cal.iter().any(|s| s.samples_since_recal > 0);
            if !self.has_pending_work() && !pending_samples {
                break;
            }
            if !pending_samples {
                match self.next_event_cycles() {
                    Some(next) if next > self.next_recal_at => {
                        let steps = (next - self.next_recal_at).div_ceil(interval);
                        self.next_recal_at = self
                            .next_recal_at
                            .saturating_add(steps.saturating_mul(interval));
                        continue;
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            let boundary = self.next_recal_at;
            self.advance_to(boundary);
            self.apply_recalibration();
            self.next_recal_at = boundary.saturating_add(interval);
            if self.next_recal_at == boundary {
                break;
            }
        }
    }

    /// Whether anything in the session can still produce drift samples:
    /// queued window events, open batches, or undispatched/unexecuted
    /// slots.
    fn has_pending_work(&self) -> bool {
        !self.events.is_empty()
            || self.open.iter().any(Option::is_some)
            || self.lanes.iter().any(|l| !l.slots.is_empty())
    }

    /// Applies one recalibration boundary: for every model with fresh
    /// samples, judge the EWMA against the model's calibrated bound (the
    /// demotion/promotion streak machine), then fold the EWMA into the
    /// model's online cycle multiplier and reset it.  Models without fresh
    /// samples are untouched — no evidence, no decision.
    fn apply_recalibration(&mut self) {
        let Some(cfg) = Self::loop_config(self.runtime) else {
            return;
        };
        for state in &mut self.cal {
            if state.samples_since_recal == 0 {
                continue;
            }
            let out_of_bound = state.ewma.abs() > state.row.error_bound;
            if state.row.demoted {
                if out_of_bound {
                    state.in_streak = 0;
                } else {
                    state.in_streak += 1;
                    if state.in_streak >= cfg.promote_streak {
                        state.row.demoted = false;
                        state.row.promotions += 1;
                        state.in_streak = 0;
                    }
                }
            } else if out_of_bound {
                state.out_streak += 1;
                if state.out_streak >= cfg.demote_streak {
                    state.row.demoted = true;
                    state.row.demotions += 1;
                    state.out_streak = 0;
                }
            } else {
                state.out_streak = 0;
            }
            // Fold the observed residual into the prediction, then start a
            // fresh observation window (the correction is assumed applied,
            // so carrying the old EWMA would double-count it).
            state.adjust =
                (state.adjust * (1.0 + state.ewma)).clamp(MIN_CYCLE_ADJUST, MAX_CYCLE_ADJUST);
            state.row.recalibrations += 1;
            state.ewma = 0.0;
            state.samples_since_recal = 0;
        }
    }

    /// The next virtual time at which stepping this session can change its
    /// state on its own: the earliest queued window closure (plus one
    /// cycle, because [`Self::run_until`] processes closures strictly
    /// *before* its target — stepping to exactly `close_at` would leave the
    /// window open) or the earliest estimated start among pending front
    /// slots.  `None` when the session is quiescent — no open-window events
    /// and nothing queued on any lane.
    ///
    /// Orchestration layers that must observe completions at *canonical*
    /// times (independent of how coarsely their own caller steps) walk this
    /// event horizon instead of inventing step targets; a stale window
    /// event processes as a no-op, so stepping to a reported time always
    /// makes progress.
    #[must_use]
    pub fn next_event_cycles(&self) -> Option<u64> {
        let window = self
            .events
            .keys()
            .next()
            .map(|&(close_at, _)| close_at.saturating_add(1));
        let exec = self
            .lanes
            .iter()
            .filter_map(|lane| lane.slots.front().map(|slot| slot.est_start))
            .min();
        match (window, exec) {
            (Some(w), Some(e)) => Some(w.min(e)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => None,
        }
    }

    /// Drains the accumulated per-request outcomes, in group-commit order
    /// within each harvest.  When `ServeConfig::completion_capacity` is
    /// set, outcomes beyond the cap were dropped oldest-first — see
    /// [`Self::completions_dropped`].
    pub fn poll_completions(&mut self) -> Vec<RequestOutcome> {
        self.completions.drain(..).collect()
    }

    /// Unpolled outcomes held.
    pub(crate) fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Takes the oldest unpolled outcome — [`Self::poll_completions`] one
    /// at a time, for callers that resolve outcomes as they take them.
    pub(crate) fn pop_completion(&mut self) -> Option<RequestOutcome> {
        self.completions.pop_front()
    }

    /// Outcomes dropped (oldest first) because the bounded completion
    /// buffer overflowed between polls; 0 when the capacity is unbounded.
    /// Dropped outcomes are still fully accounted in the drained report —
    /// only the per-request stream is lossy.
    #[must_use]
    pub fn completions_dropped(&self) -> u64 {
        self.completions_dropped
    }

    /// Flushes every open batch, executes everything still queued, and
    /// freezes the final report.  The session stops accepting submissions;
    /// any outcomes not yet polled stay available via
    /// [`Self::poll_completions`].
    pub fn drain(&mut self) -> ServeReport {
        self.drain_accumulator().finish()
    }

    /// Like [`Self::drain`], but returns the incremental accumulator so
    /// sharded sessions can [`ReportAccumulator::merge`] before finishing.
    pub fn drain_accumulator(&mut self) -> ReportAccumulator {
        // Walk every remaining recalibration boundary first, so the loop's
        // final decisions land at their canonical virtual times no matter
        // how far the caller had stepped.
        self.step_recalibrations(u64::MAX);
        self.process_events(u64::MAX, true);
        self.drained = true;
        self.execute_ready(u64::MAX);
        debug_assert!(
            self.groups.is_empty(),
            "drain leaves no unresolved group behind"
        );
        if !self.cal.is_empty() {
            let rows: Vec<ModelCalibration> = self.cal.iter().map(|state| state.row).collect();
            self.acc.record_calibration(&rows);
        }
        std::mem::replace(&mut self.acc, Self::fresh_accumulator(self.runtime))
    }

    // --- the online batcher ------------------------------------------------

    /// Processes queued window closures with `close_at < target` (or
    /// `<= target` when `inclusive`), in time order, committing each closed
    /// batch at its closure time.
    fn process_events(&mut self, target: u64, inclusive: bool) {
        loop {
            let Some((&(close_at, generation), &model)) = self.events.iter().next() else {
                return;
            };
            if close_at > target || (!inclusive && close_at == target) {
                return;
            }
            self.events.remove(&(close_at, generation));
            // The event may be stale: the batch it was queued for can have
            // been flushed early (latency-sensitive join, max_batch) with a
            // successor opened since.
            let live = self.open[model]
                .as_ref()
                .is_some_and(|b| b.generation == generation);
            if live {
                self.clock = self.clock.max(close_at);
                self.flush_model(model);
            }
        }
    }

    /// Closes `model`'s open batch and commits it as a request group.
    fn flush_model(&mut self, model: usize) {
        let batch = self.open[model].take().expect("flushing a closed model");
        self.commit_group(model, batch);
    }

    // --- dispatch ----------------------------------------------------------

    /// Picks the chip a group ready at `ready` dispatches to, honouring the
    /// configured policy over the dispatchable chips: live *and*
    /// scaling-active, falling back to any live chip when elastic scaling
    /// has deactivated every survivor (failover must always have a target).
    /// Allocation-free — this runs on every group commit.
    fn choose_chip(&mut self, ready: u64) -> usize {
        let any_active = self.lanes.iter().any(|l| l.alive() && l.active);
        let eligible = move |l: &&ChipLane| l.alive() && (l.active || !any_active);
        match self.runtime.config().dispatch {
            DispatchPolicy::RoundRobin => {
                let count = self.lanes.iter().filter(eligible).count();
                assert!(count > 0, "every chip in the fleet is dead");
                let index = self.next_round_robin % count;
                self.next_round_robin += 1;
                self.lanes
                    .iter()
                    .filter(eligible)
                    .nth(index)
                    .expect("index < eligible count")
                    .chip
            }
            DispatchPolicy::LeastLoaded => {
                self.lanes
                    .iter()
                    .filter(eligible)
                    .min_by_key(|l| (l.est_avail().max(ready), l.chip))
                    .expect("every chip in the fleet is dead")
                    .chip
            }
        }
    }

    /// Dispatches a closed batch: chip choice, priority insertion, per-class
    /// admission.
    fn commit_group(&mut self, model: usize, batch: OpenBatch) {
        let config = self.runtime.config();
        let gid = self.groups_base + self.groups.len();
        let class = batch.class;
        let ready = batch.last_arrival;

        let chip = self.choose_chip(ready);
        let lane = &self.lanes[chip];
        let position = lane.insertion_position(class, self.clock);
        let prev_finish = if position == 0 {
            lane.est_prev_finish
        } else {
            lane.slots[position - 1].est_finish
        };
        let est_start = prev_finish.max(ready);

        if let Some(admission) = &config.admission {
            let backlog = est_start.saturating_sub(ready);
            let cap = admission.cap_for(class);
            if backlog > cap {
                for &(ri, ref request) in &batch.requests {
                    self.push_completion(RequestOutcome {
                        request: ri,
                        model,
                        slo: request.slo,
                        status: CompletionStatus::Rejected {
                            backlog_cycles: backlog,
                            backlog_cap_cycles: cap,
                        },
                    });
                }
                self.acc.note_group_formed();
                for (_, request) in &batch.requests {
                    self.acc.absorb_rejected_request(request.slo);
                }
                self.recycle(batch.requests);
                self.groups.push_back(GroupRecord {
                    model,
                    requests: Vec::new(),
                    chip: None,
                    drift: None,
                    failed_over: false,
                    resolved: true,
                });
                self.absorb_resolved();
                return;
            }
        }

        // The sample phase derives from the group's commit index and the
        // serve seed — not from a per-session "seen" counter, which would
        // always sample group 0 and restart on every shard, making the
        // fleet-wide effective rate depend on the shard count.
        let verify = config.verify_every > 0
            && self.runtime.chip_backend(chip) == BackendKind::Analytical
            && verify_sampled(config.seed, gid, config.verify_every);

        let lane = &mut self.lanes[chip];
        lane.slots.insert(
            position,
            Slot {
                gid,
                model,
                class,
                batch: batch.requests.len(),
                ready,
                est_start: 0,
                est_finish: 0,
                verify,
            },
        );
        lane.recompute_est(position, &self.cost);
        self.groups.push_back(GroupRecord {
            model,
            requests: batch.requests,
            chip: Some(chip),
            drift: None,
            failed_over: false,
            resolved: false,
        });
    }

    // --- faults and elasticity ---------------------------------------------

    /// Kills `chip` at virtual time `at_cycles`: the chip's *executed
    /// prefix* — every queued group whose estimated start lies at or before
    /// the death — stays immutable and completes (mirroring the priority
    /// rule: work that has started is never disturbed), while every group
    /// that had not started fails over to the surviving chips through the
    /// session's dispatch policy, bypassing admission control (admitted work
    /// is never shed by a fault).  Requeued groups surface as
    /// `Served { failed_over: true }` in [`Self::poll_completions`].
    ///
    /// Returns `(groups, requests)` failed over.
    ///
    /// # Panics
    ///
    /// Panics if the session was drained, `chip` is out of range or already
    /// dead, or the death would leave the session without a live chip
    /// (failover needs a survivor — a fleet layer keeps at least one chip
    /// per shard alive).
    pub fn kill_chip(&mut self, chip: usize, at_cycles: u64) -> (usize, usize) {
        assert!(!self.drained, "cannot kill a chip in a drained session");
        assert!(chip < self.lanes.len(), "chip {chip} outside the fleet");
        assert!(self.lanes[chip].alive(), "chip {chip} is already dead");
        assert!(
            self.lanes.iter().filter(|l| l.alive()).count() > 1,
            "killing chip {chip} would leave no live chip to fail over to"
        );
        // Close batch windows and execute everything that started (by the
        // estimated schedule) before the death — the immutable prefix.
        self.run_until(at_cycles);
        let lane = &mut self.lanes[chip];
        lane.died_at = Some(at_cycles);
        lane.active = false;
        let orphans = lane.drain_pending();
        // The death may have taken down the only dispatch-eligible chip;
        // keep at least one survivor accepting work.
        if !self.lanes.iter().any(|l| l.alive() && l.active) {
            let survivor = self
                .lanes
                .iter()
                .position(ChipLane::alive)
                .expect("a survivor exists (asserted above)");
            self.lanes[survivor].active = true;
        }
        let mut requests = 0usize;
        for slot in &orphans {
            let record = &mut self.groups[slot.gid - self.groups_base];
            record.failed_over = true;
            requests += record.requests.len();
            // Failover cannot happen before the death is observed.
            let ready = slot.ready.max(at_cycles);
            let target = self.choose_chip(ready);
            self.groups[slot.gid - self.groups_base].chip = Some(target);
            let lane = &mut self.lanes[target];
            let position = lane.insertion_position(slot.class, self.clock);
            // Zero the estimate span: the target lane's backlog never saw
            // this slot, and `recompute_est` releases the old span before
            // accounting the fresh one.
            lane.slots.insert(
                position,
                Slot {
                    ready,
                    est_start: 0,
                    est_finish: 0,
                    ..*slot
                },
            );
            lane.recompute_est(position, &self.cost);
        }
        (orphans.len(), requests)
    }

    /// Changes `chip`'s health at virtual time `at_cycles`.  Groups whose
    /// estimated start lies at or before the change keep the health they
    /// were scheduled (and, having started, executed) under; later groups
    /// are re-estimated — and will execute — under the new derate.  The
    /// derate scales service *cycles* only ([`ChipHealth::scale_cycles`]),
    /// so it slows the chip identically under both execution backends.
    ///
    /// # Panics
    ///
    /// Panics if the session was drained, `chip` is out of range or dead, or
    /// health changes arrive out of time order.
    pub fn set_chip_health(&mut self, chip: usize, health: ChipHealth, at_cycles: u64) {
        assert!(
            !self.drained,
            "cannot change chip health in a drained session"
        );
        assert!(chip < self.lanes.len(), "chip {chip} outside the fleet");
        assert!(
            self.lanes[chip].alive(),
            "cannot change the health of dead chip {chip}"
        );
        self.run_until(at_cycles);
        let lane = &mut self.lanes[chip];
        if let Some(&(last, _)) = lane.health_changes.last() {
            assert!(
                last <= at_cycles,
                "health changes must arrive in time order ({last} then {at_cycles})"
            );
        }
        lane.health_changes.push((at_cycles, health));
        lane.recompute_est(0, &self.cost);
    }

    /// Sets the number of dispatch-eligible workers at virtual time
    /// `at_cycles` — the elastic-scaling hook.  Scaling up activates the
    /// lowest-indexed live inactive chips; scaling down deactivates the
    /// highest-indexed active ones.  A deactivated chip *drains*: it keeps
    /// executing everything already queued but receives no new dispatch.
    /// The target is clamped to at least one worker and at most the live
    /// chip count.
    ///
    /// Returns `(activated, deactivated)`.
    ///
    /// # Panics
    ///
    /// Panics if the session was drained.
    pub fn set_worker_count(&mut self, target: usize, at_cycles: u64) -> (usize, usize) {
        assert!(!self.drained, "cannot scale a drained session");
        // Process pending window closures first so batches committed before
        // the scaling point dispatch under the old worker set.
        self.run_until(at_cycles);
        let target = target.max(1);
        let (mut activated, mut deactivated) = (0usize, 0usize);
        loop {
            let active = self.active_workers();
            if active < target {
                let Some(lane) = self.lanes.iter_mut().find(|l| l.alive() && !l.active) else {
                    break;
                };
                lane.active = true;
                activated += 1;
            } else if active > target {
                let lane = self
                    .lanes
                    .iter_mut()
                    .rev()
                    .find(|l| l.alive() && l.active)
                    .expect("active > target >= 1 implies an active lane");
                lane.active = false;
                deactivated += 1;
            } else {
                break;
            }
        }
        (activated, deactivated)
    }

    /// Live chips currently eligible for new dispatch.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive() && l.active).count()
    }

    /// Chips that have not died.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive()).count()
    }

    /// Serving capacity the chips lost to faults by `makespan`, in
    /// chip-cycles, derived from their health changes and deaths: a dead
    /// chip counts fully from death to makespan, and a chip degraded by `p`
    /// percent delivers `100/(100+p)` of its nominal work, so it loses the
    /// complementary share (rounding toward zero) of each degraded interval.
    /// That interval ends at the chip's next health change, its death, or
    /// the makespan.  The sum saturates at `u64::MAX`.
    pub(crate) fn chip_cycles_lost(&self, makespan: u64) -> u64 {
        let mut lost = 0u64;
        for lane in &self.lanes {
            let end = lane.died_at.unwrap_or(makespan);
            let changes = &lane.health_changes;
            let ends = changes.iter().skip(1).map(|&(at, _)| at).chain([end]);
            for (&(since, health), until) in changes.iter().zip(ends) {
                if let ChipHealth::Degraded { slowdown_percent } = health {
                    let p = u64::from(slowdown_percent);
                    let share = until.saturating_sub(since).saturating_mul(p) / (100 + p);
                    lost = lost.saturating_add(share);
                }
            }
            lost = lost.saturating_add(makespan.saturating_sub(end));
        }
        lost
    }

    /// Estimated service cycles of committed-but-not-started work, per SLO
    /// class (ascending priority order, [`SloClass::ALL`]) — the backlog
    /// pressure an elastic scaler reads.  Call after stepping the session to
    /// the decision point so "not started" reflects that virtual time.
    /// O(chips): the per-lane counters are maintained incrementally.
    #[must_use]
    pub fn class_backlog_cycles(&self) -> [u64; 3] {
        let mut backlog = [0u64; 3];
        for lane in &self.lanes {
            for (total, lane_class) in backlog.iter_mut().zip(lane.backlog) {
                *total = total.saturating_add(lane_class);
            }
        }
        backlog
    }

    /// Evicts every committed-but-not-started group and every open batch at
    /// virtual time `at_cycles`, returning the evicted requests as
    /// `(external id, request)` pairs, ascending by id — the migration
    /// hook a multi-region router uses when this session's region goes
    /// down.
    ///
    /// The *executed prefix* — every group whose estimated start lies at or
    /// before `at_cycles` — stays immutable and completes, exactly the cut
    /// [`Self::kill_chip`] applies: work that has started is never
    /// disturbed (drain-don't-strand).  Evicted groups and requests leave
    /// this session's accounting entirely: they produce no completions here
    /// and are excluded from the drained report's totals, so a router can
    /// re-submit them elsewhere without double counting.
    ///
    /// # Panics
    ///
    /// Panics if the session was drained.
    pub fn evict_pending(&mut self, at_cycles: u64) -> Vec<(usize, TraceRequest)> {
        assert!(!self.drained, "cannot evict from a drained session");
        // Step to the eviction point first so the executed prefix reflects
        // that virtual time.
        self.run_until(at_cycles);
        let mut evicted: Vec<(usize, TraceRequest)> = Vec::new();
        let mut orphans: Vec<Slot> = Vec::new();
        for lane in &mut self.lanes {
            orphans.extend(lane.drain_pending());
        }
        for slot in orphans {
            let record = &mut self.groups[slot.gid - self.groups_base];
            record.resolved = true;
            let requests = std::mem::take(&mut record.requests);
            evicted.extend_from_slice(&requests);
            self.recycle(requests);
        }
        // Open batches have not even committed; their queued window-closure
        // events go stale and are ignored by the generation liveness check.
        for mut batch in self.open.iter_mut().filter_map(Option::take) {
            evicted.append(&mut batch.requests);
            self.spare_requests.push(batch.requests);
        }
        self.absorb_resolved();
        evicted.sort_unstable_by_key(|&(ri, _)| ri);
        evicted
    }

    /// `(groups, requests)` failed over off dead chips, counted once as each
    /// group executes (an evicted group never does).  After [`Self::drain`]
    /// that is every failed-over group the session served.
    #[must_use]
    pub fn failed_over(&self) -> (usize, usize) {
        (self.failed_over_groups, self.failed_over_requests)
    }

    // --- execution ---------------------------------------------------------

    /// Pushes one outcome, enforcing the configured completion capacity by
    /// dropping the oldest unpolled outcome when full.
    fn push_completion(&mut self, outcome: RequestOutcome) {
        let capacity = self.runtime.config().completion_capacity;
        if capacity > 0 && self.completions.len() >= capacity {
            self.completions.pop_front();
            self.completions_dropped += 1;
        }
        self.completions.push_back(outcome);
    }

    /// Executes every queued slot whose estimated start is at or before
    /// `horizon`, stepping the lanes in place, and harvests the retired
    /// groups' completions in commit order.  When configured, the lanes
    /// with ready work fan out across the rayon pool if at least two of
    /// them will replay cycle-accurately; otherwise they run inline.
    fn execute_ready(&mut self, horizon: u64) {
        let ready = |lane: &ChipLane| lane.slots.front().is_some_and(|s| s.est_start <= horizon);
        let runtime = self.runtime;
        let config = runtime.config();
        let reload = &self.cost.reload_cycles;
        let seed = config.seed;
        // Only `absorb_resolved`, after every lane has run, writes the loop
        // state: every chip prices this window's slots under the same
        // `(adjust, demoted)` pair, so the results cannot depend on worker
        // interleaving, and the next recalibration boundary only sees
        // samples committed before it.
        let cal = &self.cal;
        let loop_on = !cal.is_empty();
        let replays = &*self.replays;
        let model_cal = |model: usize| {
            cal.get(model)
                .map_or((1.0, false), |s| (s.adjust, s.row.demoted))
        };
        let run = |lane: &mut ChipLane, results: &mut Vec<ExecDone>| {
            let predicted_cycles = |model: usize| {
                runtime
                    .analytical_plans()
                    .expect("analytical chips and the loop imply calibrated plans")[model]
                    .adjusted_cycles(model_cal(model).0)
            };
            while ready(lane) {
                let slot = lane.slots[0];
                // The health the slot's estimate was scheduled under derates
                // its measured service time and both sides of its drift
                // sample, identically under either backend.
                let health = health_at(&lane.health_changes, slot.est_start);
                let seed_offset = replay_seed_offset(seed, slot.gid);
                let mut replay = || {
                    replays.recall_or((slot.model, seed_offset), || {
                        runtime.plans()[slot.model].execute_with_session(&mut lane.sim, seed_offset)
                    })
                };
                // The measured execution, plus `(predicted, accurate,
                // verify)` cycles when the group yields a drift sample.
                let (exec, sample) = match lane.backend {
                    BackendKind::CycleAccurate => {
                        let exec = replay();
                        // Audit chips replay everything cycle-accurately
                        // anyway; when the loop is on, each replay doubles as
                        // a free drift sample against the (adjusted)
                        // analytical prediction.
                        let sample =
                            loop_on.then(|| (predicted_cycles(slot.model), exec.cycles, false));
                        (exec, sample)
                    }
                    BackendKind::Analytical => {
                        let base = runtime
                            .analytical_plans()
                            .expect("analytical chips imply calibrated plans")[slot.model]
                            .execution();
                        let predicted = if loop_on {
                            predicted_cycles(slot.model)
                        } else {
                            base.cycles
                        };
                        if model_cal(slot.model).1 {
                            // The model lost its analytical trust: serve it
                            // cycle-accurately while the drift sample keeps
                            // feeding the promotion streak.
                            let accurate = replay();
                            (accurate, Some((predicted, accurate.cycles, slot.verify)))
                        } else {
                            let exec = PlanExecution {
                                cycles: predicted,
                                ..base
                            };
                            let sample = slot.verify.then(|| (predicted, replay().cycles, true));
                            (exec, sample)
                        }
                    }
                };
                let drift = sample.map(|(predicted, accurate, verify)| DriftSample {
                    predicted: health.scale_cycles(predicted),
                    accurate: health.scale_cycles(accurate),
                    verify,
                });
                let switching = lane.actual_last_model != Some(slot.model);
                let duration = health.scale_cycles(group_service_cycles(
                    slot.batch,
                    exec.cycles,
                    reload[slot.model],
                    switching,
                ));
                let start = lane.actual_free.max(slot.ready);
                let finish = start.saturating_add(duration);
                results.push(ExecDone {
                    gid: slot.gid,
                    start,
                    finish,
                    exec,
                    drift,
                });
                lane.actual_free = finish;
                lane.actual_last_model = Some(slot.model);
                lane.retire_front();
            }
        };
        let replays_accurately = |lane: &ChipLane| {
            lane.backend == BackendKind::CycleAccurate
                || lane
                    .slots
                    .iter()
                    .take_while(|slot| slot.est_start <= horizon)
                    .any(|slot| slot.verify || model_cal(slot.model).1)
        };
        let ready_lanes = self.lanes.iter().filter(|lane| ready(lane)).count();
        // Only a cycle-accurate replay costs more than waking a worker; an
        // analytical step is a lookup of tens of nanoseconds, so a step
        // fans out only when two of its ready lanes will replay: an audit
        // lane, or a lane whose ready slots hold a verification sample or
        // a demoted model.  A session that can have none of these skips
        // the scan, and `parallel: false` evaluates none of it.
        let fan_out = ready_lanes > 1
            && config.parallel
            && (config.backend == BackendKind::CycleAccurate
                || config.audit_chips > 0
                || config.verify_every > 0
                || loop_on)
            && self
                .lanes
                .iter()
                .filter(|lane| ready(lane) && replays_accurately(lane))
                .nth(1)
                .is_some();
        if fan_out {
            let lanes: Vec<&mut ChipLane> =
                self.lanes.iter_mut().filter(|lane| ready(lane)).collect();
            let fanned: Vec<Vec<ExecDone>> = lanes
                .into_par_iter()
                .map(|lane| {
                    let mut results = Vec::new();
                    run(lane, &mut results);
                    results
                })
                .collect();
            for mut results in fanned {
                self.retired.append(&mut results);
            }
        } else if ready_lanes > 0 {
            for lane in &mut self.lanes {
                run(lane, &mut self.retired);
            }
        }
        // Completions stream in commit order within each harvest, so the
        // output order never depends on chip interleaving.  Each executed
        // group folds into the report here, while earlier-committed groups
        // may still be queued: the accumulator's folds commute, so only the
        // calibration loop waits for commit order (`absorb_resolved`).
        self.retired.sort_unstable_by_key(|done| done.gid);
        let mut retired = std::mem::take(&mut self.retired);
        for done in retired.drain(..) {
            let record = &mut self.groups[done.gid - self.groups_base];
            record.resolved = true;
            record.drift = done.drift;
            let chip = record.chip.expect("an executed group was dispatched");
            let failed_over = record.failed_over;
            let model = record.model;
            let requests = std::mem::take(&mut record.requests);
            let batch_size = requests.len();
            for &(ri, request) in &requests {
                self.push_completion(RequestOutcome {
                    request: ri,
                    model,
                    slo: request.slo,
                    status: CompletionStatus::Served {
                        chip,
                        group: done.gid,
                        batch_size,
                        start_cycles: done.start,
                        finish_cycles: done.finish,
                        latency_cycles: done.finish - request.arrival_cycles,
                        deadline_missed: done.finish > request.deadline_cycles,
                        failed_over,
                    },
                });
            }
            self.acc.note_group_formed();
            if failed_over {
                self.failed_over_groups += 1;
                self.failed_over_requests += batch_size;
            }
            self.acc
                .absorb_executed_group(chip, done.start, done.finish, batch_size, &done.exec);
            for &(_, request) in &requests {
                self.acc.absorb_served_request(
                    request.slo,
                    done.finish - request.arrival_cycles,
                    done.finish > request.deadline_cycles,
                );
            }
            if let Some(sample) = done.drift.filter(|sample| sample.verify) {
                let bound = self
                    .runtime
                    .analytical_plans()
                    .expect("verified groups are analytical")[model]
                    .error_bound();
                self.acc
                    .absorb_verify_sample(sample.predicted, sample.accurate, bound);
            }
            self.recycle(requests);
        }
        self.retired = retired;
        self.absorb_resolved();
    }

    // --- reporting ---------------------------------------------------------

    /// Returns a resolved group's request buffer to the spares, emptied.
    fn recycle(&mut self, mut requests: Vec<(usize, TraceRequest)>) {
        requests.clear();
        self.spare_requests.push(requests);
    }

    /// Drops the resolved prefix of the group deque, folding its drift
    /// samples into the calibration loop's EWMAs strictly in commit order —
    /// the only order shared across worker counts and `run_until`
    /// granularities.  A group is resolved once it was rejected, evicted,
    /// or executed, and the report accumulator already holds everything
    /// else about it; an unresolved group holds back every record behind it
    /// (the deque is the in-flight window, bounded by queue depth).
    fn absorb_resolved(&mut self) {
        let decay = Self::loop_config(self.runtime).map(|cfg| cfg.ewma_decay);
        while self.groups.front().is_some_and(|record| record.resolved) {
            let record = self.groups.pop_front().expect("front exists");
            self.groups_base += 1;
            let (Some(decay), Some(sample)) = (decay, record.drift) else {
                continue;
            };
            // The EWMA folds the *signed* post-scaling residual, so
            // systematic over- and under-prediction pull the next
            // recalibration in opposite directions instead of both
            // inflating it.
            let state = &mut self.cal[record.model];
            let predicted = sample.predicted.max(1) as f64;
            let residual = (sample.accurate as f64 - predicted) / predicted;
            state.ewma = decay * residual + (1.0 - decay) * state.ewma;
            state.row.max_abs_ewma_drift = state.row.max_abs_ewma_drift.max(state.ewma.abs());
            state.row.samples += 1;
            state.samples_since_recal += 1;
        }
    }
}

/// Seed offset of one group's replay: distinct per group, folded with the
/// serve seed, independent of chip assignment and worker count.
pub(crate) fn replay_seed_offset(seed: u64, group_idx: usize) -> u64 {
    seed.wrapping_add((group_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Whether a group's execution is verification-sampled, derived by hashing
/// the group's fleet-wide commit index with the serve seed (splitmix64
/// finalizer).  A hash phase — unlike a per-session counter — samples at the
/// same effective rate whether the fleet runs one shard or many, and never
/// privileges group 0.
pub(crate) fn verify_sampled(seed: u64, group_idx: usize, verify_every: usize) -> bool {
    let mut x = seed ^ (group_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x.is_multiple_of(verify_every as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn execution(cycles: u64) -> PlanExecution {
        PlanExecution {
            cycles,
            failures: 0,
            useful_macro_cycles: cycles,
            overhead_fraction: 0.0,
            avg_macro_power_mw: 1.0,
            effective_tops: 1.0,
            worst_irdrop_mv: 1.0,
            mean_irdrop_mv: 1.0,
        }
    }

    #[test]
    fn a_full_replay_memo_starts_over_instead_of_growing() {
        let memo = ReplayMemo::default();
        for offset in 0..REPLAY_MEMO_CAP as u64 {
            assert_eq!(
                memo.recall_or((0, offset), || execution(offset)),
                execution(offset)
            );
        }
        assert_eq!(memo.len(), REPLAY_MEMO_CAP);
        let recalled = memo.recall_or((0, 7), || unreachable!("a held key is recalled"));
        assert_eq!(recalled, execution(7));
        // One more distinct key finds the memo full and starts it over.
        assert_eq!(memo.recall_or((1, 7), || execution(70)), execution(70));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.recall_or((0, 7), || execution(7)), execution(7));
        assert_eq!(memo.misses(), REPLAY_MEMO_CAP as u64 + 2);
    }
}
