//! The fault-tolerant elastic fleet: sharded sessions, deterministic chaos,
//! failover, and availability accounting.
//!
//! A [`FleetSession`] is the production-shaped front door the ROADMAP asks
//! for: arriving requests shard across multiple [`ServeSession`]s (each
//! owning its own chip group), chips die or degrade at scripted virtual-time
//! points ([`FaultPlan`]), work queued on a dead chip fails over to the
//! survivors, and each shard's dispatch-eligible worker set grows and
//! shrinks with per-class backlog pressure ([`ScalingConfig`]).  The final
//! [`FleetReport`] merges the shard accumulators through
//! [`ReportAccumulator::merge`] and layers availability metrics on top:
//! requests failed over, chip-seconds of capacity lost (derived at drain
//! from the health changes and deaths the shards' chips record), per-class
//! SLO attainment under faults.  The fault counts come from the fault plan,
//! which drain has fully applied; the fleet keeps no fault counters.
//!
//! ## Determinism under chaos
//!
//! Everything the fleet does is driven by *virtual time*, never by wall
//! clock or call cadence.  Faults and the next scaling check sit in one
//! ordered set keyed by `(cycle, event)`; [`submit`] and [`run_until`] first
//! apply every event at or before the new time, so a fault always strikes at
//! the same point of the submission sequence no matter how the caller steps
//! the session.  The event's derived order is the same-cycle tie-break:
//! faults in plan order, then the scaling check, both before the submission
//! carrying that arrival time.  Scheduling stays estimate-pure (the
//! [`ServeSession`] contract), so a fixed `(trace, FleetConfig, FaultPlan)`
//! produces a byte-identical [`FleetReport`] across reruns, worker-thread
//! counts, `run_until` granularities and shard polling orders — which is
//! what lets the chaos scenario suite freeze whole fleet runs as golden
//! files.  Two details make the promise exact:
//!
//! * virtual time is bounded by the fleet's **event horizon** (latest fault
//!   time or submitted arrival): [`run_until`] clamps its target there, so
//!   stepping "past the end" cannot manufacture scaling decisions a
//!   submit-all-then-drain caller would never see, and [`drain`] advances
//!   to the horizon so trailing events fire identically either way;
//! * one caveat is inherited from [`ServeSession::submit`]: stepping past a
//!   *future* arrival (possible within the horizon when a fault is
//!   scheduled beyond it) clamps that arrival to "now" — you cannot
//!   receive a request in the past — so byte-identity is promised for
//!   every stepping pattern that respects arrival order.
//!
//! [`drain`]: FleetSession::drain
//!
//! ## Failover semantics
//!
//! A [`FaultKind::ChipDeath`] at time `t` splits the chip's queue at the
//! estimated schedule: groups with `est_start <= t` have started and stay
//! immutable (they complete on the dead chip — the same "never disturb
//! started work" rule priority insertion follows), groups that had not
//! started requeue onto surviving chips through the shard's dispatch policy,
//! bypassing admission (admitted work is never shed by a fault).  Those
//! requests surface as `Served { failed_over: true }` — exactly-once
//! delivery holds under any fault plan, which `tests/fleet.rs` pins with a
//! conservation proptest.
//!
//! [`submit`]: FleetSession::submit
//! [`run_until`]: FleetSession::run_until
//! [`FaultPlan`]: workloads::inputs::FaultPlan

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pim_sim::backend::ChipHealth;
use workloads::inputs::{FaultEvent, FaultKind, FaultPlan, SloClass, TraceRequest};

use crate::report::{DagServeStats, ReportAccumulator, ServeReport};
use crate::runtime::ServeRuntime;
use crate::session::{ReplayMemo, RequestOutcome, ServeSession};

/// Policy routing each arriving request to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// Requests go to shards `0, 1, 2, …` cyclically — balanced under any
    /// traffic mix.
    RoundRobin,
    /// Requests route by `model % shards` — keeps each model's traffic on
    /// one shard, maximising batching leverage at the cost of balance.
    ByModel,
}

/// Elastic-scaling policy of a fleet: worker counts follow per-class
/// backlog pressure with hysteresis.
///
/// At every multiple of `check_interval_cycles` of virtual time the fleet
/// reads each shard's committed-but-not-started backlog per SLO class
/// ([`ServeSession::class_backlog_cycles`]), weights it by `class_weights`
/// (latency-sensitive work pushes hardest), and compares the pressure
/// against two thresholds: above `scale_up_backlog_cycles` one more worker
/// activates, below `scale_down_backlog_cycles` one drains.  The gap between
/// the thresholds is the hysteresis band that keeps the fleet from
/// oscillating when pressure hovers; keep `scale_down < scale_up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalingConfig {
    /// Virtual cycles between scaling decisions.
    pub check_interval_cycles: u64,
    /// Pressure above which a shard activates one more worker.
    pub scale_up_backlog_cycles: u64,
    /// Pressure below which a shard drains one worker (must stay below the
    /// scale-up threshold — the hysteresis band).
    pub scale_down_backlog_cycles: u64,
    /// Floor of dispatch-eligible workers per shard.
    pub min_workers: usize,
    /// Ceiling of dispatch-eligible workers per shard; 0 means "all chips".
    pub max_workers: usize,
    /// Per-class pressure weights, ascending priority order
    /// ([`SloClass::ALL`]): backlog cycles of class `c` count
    /// `class_weights[c]`-fold toward the pressure.
    pub class_weights: [u64; 3],
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            check_interval_cycles: 20_000,
            scale_up_backlog_cycles: 150_000,
            scale_down_backlog_cycles: 15_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }
    }
}

impl ScalingConfig {
    /// Rejects degenerate policies at construction time rather than letting
    /// them surface as scheduling anomalies mid-run.
    ///
    /// # Panics
    ///
    /// Panics on a zero check interval, inverted or collapsed hysteresis
    /// (`scale_down >= scale_up`), or a zero worker floor.
    pub fn validate(&self) {
        assert!(
            self.check_interval_cycles >= 1,
            "the scaling check interval must be at least one cycle"
        );
        assert!(
            self.scale_down_backlog_cycles < self.scale_up_backlog_cycles,
            "hysteresis requires scale_down < scale_up"
        );
        assert!(self.min_workers >= 1, "min_workers must be at least 1");
    }
}

/// Configuration of a [`FleetSession`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of session shards; each owns a full chip group of the
    /// runtime's configured size.
    pub shards: usize,
    /// How arriving requests pick their shard.
    pub shard_policy: ShardPolicy,
    /// Dispatch-eligible workers each shard starts with; 0 means "all
    /// chips" (the plain [`ServeSession`] behaviour).
    pub initial_workers: usize,
    /// Elastic worker scaling; `None` pins the worker set.
    pub scaling: Option<ScalingConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 0,
            scaling: None,
        }
    }
}

/// One streamed fleet-level outcome: a shard's [`RequestOutcome`] whose
/// request id *is* the fleet submission index (each shard is handed the
/// fleet index at submission via [`ServeSession::submit_with_id`], so no
/// per-request translation table exists anywhere in the fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Shard that served (or rejected) the request.
    pub shard: usize,
    /// The per-request outcome, `request` field in fleet submission order.
    pub outcome: RequestOutcome,
}

/// SLO attainment of one class under the run's faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAttainment {
    /// The class the row describes.
    pub class: SloClass,
    /// Fraction of the class's requests served within their deadline
    /// (`(served - deadline_misses) / total`; 1.0 for an empty class).
    pub attainment: f64,
}

/// Availability metrics of one fleet run — the layer a chaos scenario is
/// judged on, on top of the merged [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Session shards in the fleet.
    pub shards: usize,
    /// Fault events applied over the run.
    pub faults_injected: usize,
    /// Chips that died.
    pub chip_deaths: usize,
    /// Degradation episodes applied.
    pub degradations: usize,
    /// Recoveries applied.
    pub recoveries: usize,
    /// Groups requeued off dead chips.
    pub groups_failed_over: usize,
    /// Requests riding in those groups — each one served exactly once on a
    /// survivor.
    pub requests_failed_over: usize,
    /// Serving capacity lost to faults, in chip-cycles: dead chips count
    /// fully from death to makespan, degraded chips count the derated
    /// fraction of their degraded interval.  Saturates at `u64::MAX`.
    pub chip_cycles_lost: u64,
    /// `chip_cycles_lost` converted to seconds at the nominal frequency.
    pub chip_seconds_lost: f64,
    /// Scaling decisions that activated a worker.
    pub scale_ups: usize,
    /// Scaling decisions that drained a worker.
    pub scale_downs: usize,
    /// Highest total dispatch-eligible worker count observed.
    pub peak_workers: usize,
    /// Total dispatch-eligible workers at drain.
    pub final_workers: usize,
    /// Per-class SLO attainment under the run's faults, ascending priority
    /// order.
    pub per_class_slo_attainment: Vec<ClassAttainment>,
}

/// Aggregated outcome of one fleet run: the shard-merged serving report
/// plus the availability layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The merged serving report (shards combined through
    /// [`ReportAccumulator::merge`], chips re-indexed shard by shard).
    pub serve: ServeReport,
    /// Fault, failover and elasticity accounting.
    pub availability: AvailabilityStats,
    /// DAG-level accounting when the run was driven by a
    /// [`crate::dag::DagOrchestrator`]; `None` for a plain fleet drain.
    pub dag: Option<DagServeStats>,
}

/// One scheduled fleet event.  The derived order is the same-cycle
/// tie-break: faults in plan order, then the scaling check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The fault at this index of the fault plan.
    Fault(usize),
    /// One scaling decision per shard.
    ScaleCheck,
}

/// A sharded, fault-tolerant, elastically scaled serving session — see the
/// [module docs](self) for semantics.  All shards serve the same compiled
/// plan set (they borrow one [`ServeRuntime`]); each owns an independent
/// chip group.
#[derive(Debug)]
pub struct FleetSession<'rt> {
    runtime: &'rt ServeRuntime,
    config: FleetConfig,
    shards: Vec<ServeSession<'rt>>,
    submitted: usize,
    clock: u64,
    drained: bool,
    faults: FaultPlan,
    /// Unapplied faults and the next scaling check, by `(cycle, event)`.
    events: BTreeSet<(u64, Event)>,
    /// The fleet's event horizon: the latest externally scheduled event —
    /// fault time or submitted arrival — seen so far.  Virtual time never
    /// advances past it (see [`Self::run_until`]), which is what makes the
    /// set of scaling checks fired a pure function of `(trace, faults)`
    /// instead of the caller's stepping pattern.
    horizon: u64,
    next_shard_rr: usize,
    scale_ups: usize,
    scale_downs: usize,
    peak_workers: usize,
}

impl<'rt> FleetSession<'rt> {
    /// Opens a fleet of `config.shards` sessions over the runtime, with the
    /// fault schedule armed.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero shards, initial workers
    /// beyond the chip count, inverted or degenerate scaling thresholds) or
    /// a fault plan addressing chips outside the fleet.
    #[must_use]
    pub fn new(runtime: &'rt ServeRuntime, config: FleetConfig, faults: FaultPlan) -> Self {
        assert!(config.shards >= 1, "a fleet needs at least one shard");
        let chips = runtime.config().chips;
        assert!(
            config.initial_workers <= chips,
            "initial_workers {} exceeds the {chips}-chip shard size",
            config.initial_workers
        );
        if let Some(scaling) = &config.scaling {
            scaling.validate();
        }
        faults.validate();
        for event in &faults.events {
            assert!(
                event.kind.shard() < config.shards,
                "fault targets shard {} but the fleet has {}",
                event.kind.shard(),
                config.shards
            );
            assert!(
                event.kind.chip() < chips,
                "fault targets chip {} but shards have {chips}",
                event.kind.chip()
            );
        }
        // One replay memo per fleet run: every shard numbers its groups from
        // 0 under the same serve seed, so shards replay the same `(model,
        // seed offset)` pairs.  It drops with the fleet, so no later run
        // over this runtime recalls this run's replays.
        let replays = Arc::new(ReplayMemo::default());
        let mut shards: Vec<ServeSession<'rt>> = (0..config.shards)
            .map(|_| ServeSession::sharing_replays(runtime, Arc::clone(&replays)))
            .collect();
        if config.initial_workers > 0 {
            for session in &mut shards {
                session.set_worker_count(config.initial_workers, 0);
            }
        }
        let peak_workers = shards.iter().map(ServeSession::active_workers).sum();
        let mut events: BTreeSet<(u64, Event)> = faults
            .events
            .iter()
            .enumerate()
            .map(|(index, event)| (event.at_cycles, Event::Fault(index)))
            .collect();
        if let Some(scaling) = config.scaling {
            events.insert((scaling.check_interval_cycles, Event::ScaleCheck));
        }
        // Fault times are data, so they seed the horizon up front; arrivals
        // extend it as they are submitted.
        let horizon = faults.events.iter().map(|e| e.at_cycles).max().unwrap_or(0);
        Self {
            runtime,
            config,
            shards,
            submitted: 0,
            clock: 0,
            drained: false,
            faults,
            events,
            horizon,
            next_shard_rr: 0,
            scale_ups: 0,
            scale_downs: 0,
            peak_workers,
        }
    }

    /// The fleet's virtual clock (cycles).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of session shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The fleet configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Total dispatch-eligible workers across all shards right now.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.shards.iter().map(ServeSession::active_workers).sum()
    }

    /// Routes and accepts one request at the fleet's virtual "now".  Every
    /// fault and scaling event at or before the request's arrival applies
    /// first, so chaos strikes at the same point of the submission sequence
    /// however the caller steps the session.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was drained or the request names a model the
    /// runtime has no plan for.
    pub fn submit(&mut self, request: TraceRequest) {
        assert!(!self.drained, "cannot submit to a drained fleet");
        let arrival = request.arrival_cycles.max(self.clock);
        self.horizon = self.horizon.max(arrival);
        self.advance(arrival);
        let shard = match self.config.shard_policy {
            ShardPolicy::RoundRobin => {
                let s = self.next_shard_rr % self.shards.len();
                self.next_shard_rr += 1;
                s
            }
            ShardPolicy::ByModel => request.model % self.shards.len(),
        };
        self.shards[shard].submit_with_id(self.submitted, request);
        self.submitted += 1;
    }

    /// Steps the fleet up to virtual cycle `target`: applies due faults and
    /// scaling checks in time order, then steps every shard.  Stepping
    /// granularity never changes the final report bytes.
    ///
    /// The target is clamped to the fleet's event horizon — the latest
    /// fault time or submitted arrival.  A fleet's virtual time is defined
    /// by its scheduled events: stepping "past the end" must not
    /// manufacture extra scaling decisions that a submit-all-then-drain
    /// caller would never see (the byte-identity contract).  Work still
    /// queued past the horizon is flushed by [`Self::drain`].
    pub fn run_until(&mut self, target: u64) {
        let target = target.min(self.horizon);
        self.advance(target);
        for session in &mut self.shards {
            session.run_until(target);
        }
    }

    /// Steps the fleet to `at_cycles` as an **externally scheduled
    /// observation event**: unlike [`Self::run_until`], the target is not
    /// clamped to the event horizon — it *extends* the horizon, exactly
    /// like a submitted arrival or an eviction does.
    ///
    /// This is the hook an orchestration layer (e.g.
    /// [`crate::dag::DagOrchestrator`]) uses to observe completions at
    /// canonical virtual times of its own: the observation time becomes
    /// part of the fleet's event history, so faults and scaling checks due
    /// at or before it fire exactly as they would for any other scheduled
    /// event, independent of how coarsely the orchestrator's caller steps.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was drained.
    pub fn observe_until(&mut self, at_cycles: u64) {
        assert!(!self.drained, "cannot observe a drained fleet");
        self.horizon = self.horizon.max(at_cycles);
        self.advance(at_cycles);
        for session in &mut self.shards {
            session.run_until(at_cycles);
        }
    }

    /// The next virtual time at which stepping the fleet can resolve or
    /// re-plan pending work: the earliest shard event
    /// ([`ServeSession::next_event_cycles`]), lowered to the next unfired
    /// fault or scaling check if one is due sooner (either can reshape the
    /// estimated schedule the shard event was derived from).  `None` when
    /// no shard holds pending work — faults and scaling checks alone cannot
    /// resolve requests, so a quiescent fleet reports no events and an
    /// event-walking orchestrator terminates.
    #[must_use]
    pub fn next_event_cycles(&self) -> Option<u64> {
        let work = self
            .shards
            .iter()
            .filter_map(ServeSession::next_event_cycles)
            .min()?;
        Some(self.events.first().map_or(work, |&(at, _)| work.min(at)))
    }

    /// Drains the accumulated per-request outcomes of every shard (shard
    /// order, group-commit order within a shard); request indices are in
    /// fleet submission order (shards are handed the fleet index at
    /// submission).
    pub fn poll_completions(&mut self) -> Vec<FleetOutcome> {
        let pending = self
            .shards
            .iter()
            .map(ServeSession::pending_completions)
            .sum();
        let mut out = Vec::with_capacity(pending);
        for shard in 0..self.shards.len() {
            while let Some(outcome) = self.pop_completion(shard) {
                out.push(FleetOutcome { shard, outcome });
            }
        }
        out
    }

    /// Takes `shard`'s oldest unpolled outcome: draining shards in order
    /// through this yields [`Self::poll_completions`]'s sequence without
    /// collecting it.
    pub(crate) fn pop_completion(&mut self, shard: usize) -> Option<RequestOutcome> {
        self.shards[shard].pop_completion()
    }

    /// Streamed outcomes dropped across all shards under the configured
    /// unpolled-outcome bound ([`ServeConfig::completion_capacity`]); 0
    /// when the bound is unset or never hit.
    ///
    /// [`ServeConfig::completion_capacity`]: crate::runtime::ServeConfig::completion_capacity
    #[must_use]
    pub fn completions_dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(ServeSession::completions_dropped)
            .sum()
    }

    /// Applies every remaining fault, flushes and executes every shard, and
    /// freezes the final report: shard accumulators merge in shard order
    /// ([`ReportAccumulator::merge`]), the availability layer settles on
    /// top.  Outcomes not yet polled stay available via
    /// [`Self::poll_completions`].
    ///
    /// Calibration-loop statistics ride the same path: each shard's drift
    /// samples, recalibrations, demotions, and promotions merge
    /// counter-for-counter (per-model entries sum element-wise, EWMA peaks
    /// take the max), so the fleet-level
    /// [`CalibrationStats`](crate::report::CalibrationStats) is independent
    /// of shard count and polling order — pinned by the cross-shard tests.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was already drained.
    pub fn drain(&mut self) -> FleetReport {
        assert!(!self.drained, "fleet already drained");
        // Advance to the event horizon: remaining faults strike even if
        // traffic ended first (a chip can die after the last arrival while
        // its queue still drains), and trailing scaling checks fire up to
        // the horizon — the same set every stepping pattern produces.
        self.advance(self.horizon);
        self.drained = true;
        let final_workers = self.active_workers();
        let (mut groups_failed_over, mut requests_failed_over) = (0usize, 0usize);
        let mut merged: Option<ReportAccumulator> = None;
        for session in &mut self.shards {
            let acc = session.drain_accumulator();
            let (groups, requests) = session.failed_over();
            groups_failed_over += groups;
            requests_failed_over += requests;
            match &mut merged {
                None => merged = Some(acc),
                Some(m) => m.merge(acc),
            }
        }
        let serve = merged.expect("a fleet has at least one shard").finish();

        // Capacity accounting closes at the merged makespan.
        let makespan = serve.makespan_cycles;
        let chip_cycles_lost = self
            .shards
            .iter()
            .map(|session| session.chip_cycles_lost(makespan))
            .fold(0u64, u64::saturating_add);
        let nominal_ghz = self.runtime.plans()[0].chip_params().nominal_frequency_ghz;
        let per_class_slo_attainment = serve
            .per_class
            .iter()
            .map(|c| ClassAttainment {
                class: c.class,
                attainment: if c.total == 0 {
                    1.0
                } else {
                    (c.served - c.deadline_misses) as f64 / c.total as f64
                },
            })
            .collect();
        // Drain applied every fault, so the plan is the fault ledger.
        let applied = |kind: fn(&FaultKind) -> bool| {
            self.faults.events.iter().filter(|e| kind(&e.kind)).count()
        };
        let availability = AvailabilityStats {
            shards: self.shards.len(),
            faults_injected: self.faults.events.len(),
            chip_deaths: applied(|k| matches!(k, FaultKind::ChipDeath { .. })),
            degradations: applied(|k| matches!(k, FaultKind::Degradation { .. })),
            recoveries: applied(|k| matches!(k, FaultKind::Recovery { .. })),
            groups_failed_over,
            requests_failed_over,
            chip_cycles_lost,
            chip_seconds_lost: chip_cycles_lost as f64 / (nominal_ghz * 1e9),
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            peak_workers: self.peak_workers,
            final_workers,
            per_class_slo_attainment,
        };
        FleetReport {
            serve,
            availability,
            dag: None,
        }
    }

    /// Estimated service cycles of committed-but-not-started work per SLO
    /// class (ascending priority order), summed over all shards — the
    /// backlog pressure a region-level router reads.  Call after stepping
    /// the fleet to the decision point.
    #[must_use]
    pub fn class_backlog_cycles(&self) -> [u64; 3] {
        let mut backlog = [0u64; 3];
        for session in &self.shards {
            for (slot, shard) in backlog.iter_mut().zip(session.class_backlog_cycles()) {
                *slot = slot.saturating_add(shard);
            }
        }
        backlog
    }

    /// Evicts every committed-but-not-started group and open batch across
    /// all shards at virtual time `at_cycles`, returning the evicted
    /// requests as `(fleet submission index, request)` pairs, ascending by
    /// index — the migration hook a multi-region router uses when this
    /// fleet's region goes down.
    ///
    /// The eviction is itself an externally scheduled event, so it extends
    /// the fleet's event horizon; every fault and scaling check due at or
    /// before it applies first.  Started work is never disturbed (the
    /// [`ServeSession::evict_pending`] prefix rule), and evicted requests
    /// leave this fleet's accounting entirely.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was drained.
    pub fn evict_pending(&mut self, at_cycles: u64) -> Vec<(usize, TraceRequest)> {
        assert!(!self.drained, "cannot evict from a drained fleet");
        self.horizon = self.horizon.max(at_cycles);
        self.advance(at_cycles);
        let mut out: Vec<(usize, TraceRequest)> = Vec::new();
        for session in &mut self.shards {
            out.extend(session.evict_pending(at_cycles));
        }
        out.sort_unstable_by_key(|&(fleet_index, _)| fleet_index);
        out
    }

    /// Offline convenience: submit the whole trace, then drain — the fleet
    /// analogue of [`ServeRuntime::serve`].
    #[must_use]
    pub fn serve_trace(
        runtime: &'rt ServeRuntime,
        config: FleetConfig,
        faults: FaultPlan,
        trace: &[TraceRequest],
    ) -> FleetReport {
        let mut fleet = Self::new(runtime, config, faults);
        for request in trace {
            fleet.submit(*request);
        }
        fleet.drain()
    }

    // --- the chaos event loop ----------------------------------------------

    /// Applies every fault and scaling check due at or before `target`, in
    /// `(cycle, event)` order, then advances the fleet clock.
    fn advance(&mut self, target: u64) {
        while let Some(&(at, event)) = self.events.first() {
            if at > target {
                break;
            }
            self.events.pop_first();
            match event {
                Event::Fault(index) => self.apply_fault(self.faults.events[index]),
                Event::ScaleCheck => self.apply_scale_check(at),
            }
        }
        self.clock = self.clock.max(target);
    }

    /// Applies one fault event; the shard's lanes record the health change
    /// or death the capacity ledger is derived from at drain.
    fn apply_fault(&mut self, event: FaultEvent) {
        let at = event.at_cycles;
        match event.kind {
            FaultKind::ChipDeath { shard, chip } => {
                self.shards[shard].kill_chip(chip, at);
            }
            FaultKind::Degradation {
                shard,
                chip,
                slowdown_percent,
            } => {
                self.shards[shard].set_chip_health(
                    chip,
                    ChipHealth::Degraded { slowdown_percent },
                    at,
                );
            }
            FaultKind::Recovery { shard, chip } => {
                self.shards[shard].set_chip_health(chip, ChipHealth::Healthy, at);
            }
        }
        self.peak_workers = self.peak_workers.max(self.active_workers());
    }

    /// Runs one scaling decision per shard at virtual time `at`.
    fn apply_scale_check(&mut self, at: u64) {
        let scaling = self
            .config
            .scaling
            .expect("scale checks only fire with scaling configured");
        // Virtual time ends at `u64::MAX`: a check past it never fires.
        if let Some(next) = at.checked_add(scaling.check_interval_cycles) {
            self.events.insert((next, Event::ScaleCheck));
        }
        let chips = self.runtime.config().chips;
        let cap = if scaling.max_workers == 0 {
            chips
        } else {
            scaling.max_workers.min(chips)
        };
        for session in &mut self.shards {
            // Step to the decision point first so "not started" backlog
            // reflects this virtual time, independent of caller stepping.
            session.run_until(at);
            let backlog = session.class_backlog_cycles();
            let pressure: u64 = backlog
                .iter()
                .zip(scaling.class_weights)
                .map(|(&b, w)| b.saturating_mul(w))
                .fold(0, u64::saturating_add);
            let active = session.active_workers();
            if pressure > scaling.scale_up_backlog_cycles
                && active < cap.min(session.alive_workers())
            {
                session.set_worker_count(active + 1, at);
                self.scale_ups += 1;
            } else if pressure < scaling.scale_down_backlog_cycles && active > scaling.min_workers {
                session.set_worker_count(active - 1, at);
                self.scale_downs += 1;
            }
        }
        self.peak_workers = self.peak_workers.max(self.active_workers());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use pim_sim::backend::BackendKind;
    use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};

    use super::*;
    use crate::runtime::ServeConfig;
    use crate::session::{replay_seed_offset, verify_sampled, CompletionStatus};

    /// Two fleet runs in turn over one runtime.  Each run's shared replay
    /// memo misses exactly once per distinct `(model, seed offset)` among
    /// the groups it ran cycle-accurately (audit-chip groups and sampled
    /// verifications) and recalls every repeat.  A memo that outlived its
    /// fleet would hand the second run the first run's replays and miss
    /// nothing.
    #[test]
    fn each_fleet_run_replays_every_distinct_model_and_offset_once() {
        let serve = ServeConfig {
            chips: 3,
            max_batch: 2,
            backend: BackendKind::Analytical,
            audit_chips: 1,
            verify_every: 2,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(crate::scenario::reference_plans(), serve);
        let trace = synthetic_trace(&TrafficConfig {
            requests: 48,
            models: runtime.plans().len(),
            mean_interarrival_cycles: 600.0,
            burst_repeat_prob: 0.5,
            deadline_slack_cycles: 50_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.25,
                best_effort_share: 0.25,
            },
            seed: 0x3E30,
        });
        let config = FleetConfig {
            shards: 3,
            ..FleetConfig::default()
        };
        for run in 0..2 {
            let mut fleet = FleetSession::new(&runtime, config, FaultPlan::none());
            let misses_before = fleet.shards[0].replay_memo().misses();
            for request in &trace {
                fleet.submit(*request);
            }
            let report = fleet.drain();
            assert_eq!(report.serve.served_requests, trace.len());
            let memo = fleet.shards[0].replay_memo();
            assert!(fleet
                .shards
                .iter()
                .all(|shard| std::ptr::eq(shard.replay_memo(), memo)));
            let misses = memo.misses() - misses_before;

            // Cycle-accurate `(shard, group)`s, and their `(model, offset)`s.
            let (mut replays, mut distinct) = (HashSet::new(), HashSet::new());
            for FleetOutcome { shard, outcome } in fleet.poll_completions() {
                let CompletionStatus::Served { chip, group, .. } = outcome.status else {
                    continue;
                };
                let cycle_accurate = chip < serve.audit_chips
                    || verify_sampled(serve.seed, group, serve.verify_every);
                if cycle_accurate && replays.insert((shard, group)) {
                    distinct.insert((outcome.model, replay_seed_offset(serve.seed, group)));
                }
            }
            assert!(
                !distinct.is_empty() && replays.len() > distinct.len(),
                "run {run}: shards must repeat each other's replays"
            );
            assert_eq!(
                misses,
                distinct.len() as u64,
                "run {run}: misses of {} cycle-accurate replays",
                replays.len()
            );
        }
    }
}
