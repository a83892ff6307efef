//! Multi-region orchestration: heterogeneous fleets, region-loss chaos,
//! retry budgets and graceful degradation.
//!
//! A [`GlobalRouter`] owns N [`FleetSession`] *regions*, each built over its
//! own [`ServeRuntime`] — regions may run entirely different silicon
//! (low-power vs sprint booster configurations, different plan sets), which
//! is why the final [`GlobalReport`] keeps per-region [`FleetReport`]s
//! intact and only merges at the counter level (per-region accumulators are
//! calibrated to their own nominal frequency and must not be float-merged
//! across silicon).
//!
//! ## Placement and routing
//!
//! Model placement is explicit: each [`RegionSpec`] names the global models
//! whose [`CompiledPlan`]s are resident in that region (position in the list
//! = region-local plan index).  Every compiled plan residency is a paid
//! compile-once cost, and every replica buys routing flexibility — the
//! trade the report's [`PlacementStats`] track.  [`place_models`] builds the
//! canonical round-robin replication layout.  Requests route to a region
//! holding their model via a deterministic [`RoutePolicy`]: `ByModel` pins
//! a model's traffic to one holder, `LeastBacklog` picks the candidate with
//! the lowest weighted backlog.  Its virtual-time snapshot of each candidate
//! is taken at the earlier of the routing instant and the candidate fleet's
//! event horizon: [`FleetSession::run_until`] clamps there, so a region that
//! has seen no fault, arrival or observation since is judged as of its
//! horizon.
//!
//! ## The region health machine
//!
//! Each region walks `Healthy → Suspect → Down → Recovering → Healthy`,
//! driven by scripted [`RegionFaultPlan`] events and two configured timers:
//!
//! * [`RegionOutage`] marks the region **Suspect**: it stops taking new
//!   routes immediately, but nothing is moved yet (the outage may be a
//!   blip).
//! * After `suspect_grace_cycles` the region goes **Down**: every
//!   committed-but-not-started group and open batch is evicted
//!   ([`FleetSession::evict_pending`]) and re-routed.  Work that already
//!   started is never disturbed and completes in place —
//!   drain-don't-strand.
//! * [`RegionRecovery`] marks it **Recovering**: it takes routes again
//!   (failback happens through normal routing, survivors are never
//!   forcibly drained), and after `recovery_warmup_cycles` it is
//!   **Healthy** again.
//!
//! Plan events, timed transitions and retries sit in one ordered set keyed
//! by `(cycle, event)`, whose derived order is the same-cycle tie-break:
//! plan events in plan order, then health transitions, then retries, the
//! last two in scheduling order.  Report bytes are therefore invariant to
//! stepping granularity and polling order, exactly like the layers below.
//! Each region records its health once, as a `(since, health)` history; the
//! per-state cycles and the Down windows are derived from it at drain.  The
//! router keeps no counters either: the region-event counts come from the
//! plan, which drain has fully applied, and the migration, retry and shed
//! counts from each request's track (its evictions, attempts and
//! resolution).
//!
//! ## Retry budgets and graceful degradation
//!
//! A request that cannot be placed (no routable region holds its model)
//! consumes one attempt from its [`RetryConfig`] budget and is re-routed at
//! `now + base · multiplier^(attempt-1)` — deterministic virtual-time
//! backoff, no wall clocks.  When the budget is exhausted the request is
//! **shed**, surfaced as the distinct [`GlobalStatus::Shed`] outcome rather
//! than a silent rejection.  Shedding is also how overload degrades
//! gracefully: [`ShedPolicy`] gives each [`SloClass`] a weighted-backlog
//! ceiling (best-effort lowest), so when surviving capacity cannot absorb
//! the load, best-effort traffic sheds first and latency-sensitive traffic
//! keeps its head above water.
//!
//! [`RegionOutage`]: RegionFaultKind::RegionOutage
//! [`RegionRecovery`]: RegionFaultKind::RegionRecovery
//! [`CompiledPlan`]: aim_core::pipeline::CompiledPlan

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use workloads::inputs::{FaultPlan, RegionFaultKind, RegionFaultPlan, SloClass, TraceRequest};

use crate::fleet::{ClassAttainment, FleetConfig, FleetReport, FleetSession};
use crate::runtime::ServeRuntime;
use crate::session::CompletionStatus;

/// Health of one region, as seen by the router's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegionHealth {
    /// Taking traffic normally.
    Healthy,
    /// An outage struck; no new routes, nothing migrated yet.
    Suspect,
    /// Confirmed out: pending work evicted and migrated, no routes.
    Down,
    /// Back in service and taking routes, warming toward Healthy.
    Recovering,
}

impl RegionHealth {
    /// Stable name of the state.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Down => "down",
            Self::Recovering => "recovering",
        }
    }

    /// Whether the router may send new work to a region in this state.
    #[must_use]
    pub fn routable(self) -> bool {
        matches!(self, Self::Healthy | Self::Recovering)
    }
}

/// Bounded re-routing policy: how often and with what backoff a request
/// that found no routable holder tries again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Re-routing attempts a request may consume before it is shed.
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual cycles.
    pub backoff_base_cycles: u64,
    /// Exponential backoff factor: attempt `n` waits
    /// `base · multiplier^(n-1)` cycles (saturating).
    pub backoff_multiplier: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_cycles: 20_000,
            backoff_multiplier: 2,
        }
    }
}

impl RetryConfig {
    /// Rejects degenerate retry policies at construction time.
    ///
    /// # Panics
    ///
    /// Panics on a zero retry budget (a request that can never retry would
    /// silently shed on the first outage), a zero backoff base (retries
    /// would busy-spin at one virtual instant), or a zero multiplier.
    pub fn validate(&self) {
        assert!(
            self.max_attempts >= 1,
            "the retry budget must allow at least one attempt"
        );
        assert!(
            self.backoff_base_cycles >= 1,
            "retry backoff must wait at least one cycle"
        );
        assert!(
            self.backoff_multiplier >= 1,
            "the backoff multiplier must be at least 1"
        );
    }

    /// Virtual-cycle backoff before attempt `attempt` (1-based), saturating.
    #[must_use]
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let factor = u64::from(self.backoff_multiplier).saturating_pow(attempt.saturating_sub(1));
        self.backoff_base_cycles.saturating_mul(factor)
    }
}

/// Graceful-degradation policy: per-class weighted-backlog ceilings.
///
/// When the region a request routed to already carries more weighted
/// backlog than the request's class ceiling, the request is shed instead of
/// submitted.  Ceilings must be non-decreasing in class priority — that
/// ordering *is* the shed order: best-effort sheds first, latency-sensitive
/// last.  `u64::MAX` disables shedding for a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// Per-class ceilings, ascending priority order ([`SloClass::ALL`]).
    pub backlog_ceiling_cycles: [u64; 3],
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self {
            backlog_ceiling_cycles: [u64::MAX; 3],
        }
    }
}

/// Deterministic policy routing each request to a region holding its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// `model % holders` over the routable holders — pins each model's
    /// traffic to one region, maximising batching leverage.
    ByModel,
    /// Picks the routable holder with the lowest weighted backlog (ties:
    /// lowest region index) — a deterministic virtual-time load snapshot,
    /// taken for each holder at the earlier of the routing instant and its
    /// fleet's event horizon ([`FleetSession::run_until`] clamps there).
    LeastBacklog,
}

/// Configuration of a [`GlobalRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalConfig {
    /// How requests pick a region among the holders of their model.
    pub route: RoutePolicy,
    /// Bounded re-routing with deterministic virtual-time backoff.
    pub retry: RetryConfig,
    /// Per-class overload shedding.
    pub shed: ShedPolicy,
    /// Cycles a region stays Suspect after an outage before it is confirmed
    /// Down and its pending work migrates.
    pub suspect_grace_cycles: u64,
    /// Cycles a region stays Recovering after a recovery before it counts
    /// as Healthy again (it takes traffic throughout).
    pub recovery_warmup_cycles: u64,
    /// Per-class weights of the backlog-pressure snapshot used by
    /// `LeastBacklog` routing and by [`ShedPolicy`], ascending priority
    /// order.
    pub class_weights: [u64; 3],
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            route: RoutePolicy::ByModel,
            retry: RetryConfig::default(),
            shed: ShedPolicy::default(),
            suspect_grace_cycles: 0,
            recovery_warmup_cycles: 0,
            class_weights: [1, 2, 4],
        }
    }
}

impl GlobalConfig {
    /// Rejects degenerate global policies at construction time.
    ///
    /// # Panics
    ///
    /// Panics when the retry policy is degenerate or the shed ceilings are
    /// not non-decreasing in class priority (the shed order must shed
    /// lower classes first).
    pub fn validate(&self) {
        self.retry.validate();
        let c = self.shed.backlog_ceiling_cycles;
        assert!(
            c[0] <= c[1] && c[1] <= c[2],
            "shed ceilings must be non-decreasing in class priority \
             (best-effort sheds first)"
        );
    }
}

/// One region of a global deployment: a named fleet over its own runtime
/// (and therefore its own silicon), a chip-level fault plan, and the global
/// models resident in it.
#[derive(Debug)]
pub struct RegionSpec<'rt> {
    /// Region name, carried into the report.
    pub name: String,
    /// The region's serving runtime — its compiled plans and chip config.
    pub runtime: &'rt ServeRuntime,
    /// The region's fleet shape (shards, shard policy, elastic scaling).
    pub fleet: FleetConfig,
    /// Chip-level faults striking inside this region.
    pub faults: FaultPlan,
    /// Global model ids resident here; position = region-local plan index,
    /// so `runtime.plans()[i]` must be the plan of global model `models[i]`.
    pub models: Vec<usize>,
}

/// Canonical round-robin placement: global model `m` is resident in regions
/// `(m + k) % regions` for `k in 0..replicas` — each extra replica is one
/// more compile-once cost bought for routing flexibility.  Returns the
/// per-region resident-model lists (ascending), ready for
/// [`RegionSpec::models`].
///
/// # Panics
///
/// Panics if `regions`, `models` or `replicas` is zero.
#[must_use]
pub fn place_models(models: usize, regions: usize, replicas: usize) -> Vec<Vec<usize>> {
    assert!(regions > 0, "placement needs at least one region");
    assert!(models > 0, "placement needs at least one model");
    assert!(replicas > 0, "placement needs at least one replica");
    let replicas = replicas.min(regions);
    let mut layout = vec![Vec::new(); regions];
    for model in 0..models {
        for k in 0..replicas {
            layout[(model + k) % regions].push(model);
        }
    }
    layout
}

/// How one submitted request left the global deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GlobalStatus {
    /// The request executed to completion in `region`.
    Served {
        /// Region that served it.
        region: usize,
        /// `finish − original arrival` — the *global* latency, including
        /// any outage wait and retry backoff the request sat through.
        latency_cycles: u64,
        /// Whether it finished past its (original) deadline.
        deadline_missed: bool,
        /// Whether it was evicted off at least one downed region or
        /// deferred through the retry queue before serving —
        /// "migrated and served".
        migrated: bool,
        /// Whether its group was requeued off a dead chip inside the
        /// serving region (chip-level failover).
        failed_over: bool,
    },
    /// Admission control in the routed region bounced the request.
    Rejected {
        /// Region that rejected it.
        region: usize,
        /// Estimated queueing delay its group faced (cycles).
        backlog_cycles: u64,
        /// The class cap it exceeded (cycles).
        backlog_cap_cycles: u64,
    },
    /// The router shed the request — the graceful-degradation outcome.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
        /// Retry attempts it had consumed.
        attempts: u32,
    },
}

/// Why the router shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The routed region's weighted backlog exceeded the class ceiling.
    Overload,
    /// The retry budget ran out with no routable region holding the model.
    RetryBudgetExhausted,
}

/// One streamed global outcome, yielded by
/// [`GlobalRouter::poll_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalOutcome {
    /// Global submission index of the request.
    pub request: usize,
    /// Global model the request targeted.
    pub model: usize,
    /// SLO class it was served under.
    pub slo: SloClass,
    /// How it left the deployment.
    pub status: GlobalStatus,
}

/// Report of one region: its health ledger plus the full [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Global models resident in the region.
    pub models: Vec<usize>,
    /// Health at drain.
    pub final_health: RegionHealth,
    /// Cycles spent Healthy.
    pub healthy_cycles: u64,
    /// Cycles spent Suspect.
    pub suspect_cycles: u64,
    /// Cycles spent Down.
    pub down_cycles: u64,
    /// Cycles spent Recovering.
    pub recovering_cycles: u64,
    /// The region's own fleet report (untouched — heterogeneous regions
    /// must not be float-merged).
    pub fleet: FleetReport,
}

/// Placement accounting: the compile-once vs routing-flexibility trade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementStats {
    /// Total plan residencies across regions — each one is a compile paid.
    pub resident_plans: usize,
    /// Replica count per global model (routing flexibility bought).
    pub per_model_replicas: Vec<usize>,
}

/// Region-level availability of one global run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalAvailability {
    /// Regions in the deployment.
    pub regions: usize,
    /// Region-plan events applied.
    pub region_faults_applied: usize,
    /// Outages struck.
    pub outages: usize,
    /// Recoveries struck.
    pub recoveries: usize,
    /// Flash-crowd events observed (their traffic rides in the trace).
    pub flash_crowd_events: usize,
    /// Distinct requests evicted off a downed region at least once.
    pub requests_migrated: usize,
    /// Total evictions (a request evicted twice counts twice).
    pub migration_events: usize,
    /// Of the migrated requests, how many were ultimately served.
    pub migrated_and_served: usize,
    /// Retry events scheduled (deferred re-routes with backoff).
    pub retries_scheduled: usize,
    /// Requests shed — budget exhaustion plus overload.
    pub requests_shed: usize,
    /// Shed requests per class, ascending priority order.
    pub shed_by_class: [usize; 3],
    /// Region-cycles spent Down, summed over regions; the sum saturates at
    /// `u64::MAX`.
    pub region_cycles_lost: u64,
    /// `region_cycles_lost` in seconds, each region at its own nominal
    /// frequency (regions are heterogeneous).
    pub region_seconds_lost: f64,
    /// Requests whose original arrival fell inside some region's Down
    /// interval — the outage window the attainment rows below judge.
    pub outage_window_requests: usize,
    /// SLO attainment inside the outage window, per class ascending:
    /// requests served within deadline over all outage-window requests of
    /// the class (shed and rejected count as misses; 1.0 for an empty
    /// class).
    pub per_class_outage_attainment: Vec<ClassAttainment>,
}

/// Counter-level totals across regions (no float merging — see
/// [`RegionReport::fleet`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalSummary {
    /// Requests submitted to the router.
    pub total_requests: usize,
    /// Requests served, summed over regions.
    pub served_requests: usize,
    /// Requests rejected by region admission control.
    pub rejected_requests: usize,
    /// Requests shed by the router.
    pub shed_requests: usize,
    /// Served requests that missed their (original) deadline.
    pub deadline_misses: usize,
    /// Largest region makespan (cycles) — the global completion time.
    pub makespan_cycles: u64,
    /// Served requests per second of virtual time, at the *first region's*
    /// nominal frequency (a cross-region summary needs one time base).
    pub throughput_rps: f64,
    /// Drift samples absorbed by the calibration loops, summed over regions
    /// (zero when no region ran the loop).
    pub calibration_samples: u64,
    /// Recalibration events applied across all regions.
    pub recalibrations: u64,
    /// Analytical→cycle-accurate demotions across all regions.
    pub demotions: u64,
    /// Cycle-accurate→analytical promotions across all regions.
    pub promotions: u64,
}

/// Aggregated outcome of one global run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalReport {
    /// Per-region reports, in region order.
    pub regions: Vec<RegionReport>,
    /// The placement trade the deployment paid for.
    pub placement: PlacementStats,
    /// Region-level availability: migrations, retries, sheds, lost
    /// region-time, outage-window attainment.
    pub availability: GlobalAvailability,
    /// Counter-level totals.
    pub summary: GlobalSummary,
}

/// How one tracked request was finally resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Served { deadline_missed: bool },
    Rejected,
    Shed,
}

/// The router's book-keeping for one submitted request.
#[derive(Debug, Clone, Copy)]
struct RequestTrack {
    /// The original request — arrival and deadline as submitted.
    request: TraceRequest,
    /// Retry attempts consumed.
    attempts: u32,
    /// Times evicted off a downed region.
    evictions: u32,
    resolved: Option<Resolved>,
}

/// One region's live state inside the router.
#[derive(Debug)]
struct RegionState<'rt> {
    name: String,
    fleet: FleetSession<'rt>,
    /// Global model id → region-local plan index.
    local_model: Vec<Option<usize>>,
    models: Vec<usize>,
    nominal_ghz: f64,
    /// Every health the region entered and the cycle it entered it, from
    /// `(0, Healthy)` on.  Its length is the transition generation: a timed
    /// transition scheduled under another length is stale.
    history: Vec<(u64, RegionHealth)>,
    /// Fleet submission index → global request id.
    submitted_map: Vec<usize>,
}

impl RegionState<'_> {
    fn health(&self) -> RegionHealth {
        self.history.last().expect("a history starts at cycle 0").1
    }
}

/// One scheduled router event.  The derived order is the same-cycle
/// tie-break: plan events in plan order, then health transitions, then
/// retries, both in scheduling order (`seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The region-plan event at this index.
    Plan(usize),
    /// `region` moves to `target`, unless its history has left the
    /// `generation` (length) it was scheduled under.
    Transition {
        seq: u64,
        region: usize,
        generation: usize,
        target: RegionHealth,
    },
    /// Request `id` is routed again.
    Retry { seq: u64, id: usize },
}

/// The multi-region front door — see the [module docs](self) for semantics.
#[derive(Debug)]
pub struct GlobalRouter<'rt> {
    config: GlobalConfig,
    plan: RegionFaultPlan,
    /// Unapplied plan events, pending transitions and retries, by
    /// `(cycle, event)`.
    events: BTreeSet<(u64, Event)>,
    regions: Vec<RegionState<'rt>>,
    /// Global model id → regions holding it (ascending).
    holders: Vec<Vec<usize>>,
    clock: u64,
    /// Latest externally scheduled event: plan event, submitted arrival,
    /// pending timed transition or retry.  Virtual time never advances past
    /// it (the [`FleetSession`] horizon rule, one level up).
    horizon: u64,
    drained: bool,
    /// Every submitted request's record: the only per-request ledger the
    /// router keeps.
    tracks: Vec<RequestTrack>,
    next_seq: u64,
    completions: Vec<GlobalOutcome>,
}

impl<'rt> GlobalRouter<'rt> {
    /// Opens a global deployment of `regions` over `model_count` global
    /// models, with the region-fault schedule armed.
    ///
    /// # Panics
    ///
    /// Panics on an empty region list, a degenerate [`GlobalConfig`], an
    /// invalid region plan, a region whose resident-model list does not
    /// match its runtime's plan count (or repeats/overflows model ids), or
    /// a model resident nowhere.
    #[must_use]
    pub fn new(
        regions: Vec<RegionSpec<'rt>>,
        model_count: usize,
        config: GlobalConfig,
        plan: RegionFaultPlan,
    ) -> Self {
        assert!(
            !regions.is_empty(),
            "a deployment needs at least one region"
        );
        assert!(model_count > 0, "a deployment needs at least one model");
        config.validate();
        plan.validate(regions.len(), model_count);
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); model_count];
        let mut states = Vec::with_capacity(regions.len());
        let horizon = plan.events.last().map_or(0, |e| e.at_cycles);
        for (index, spec) in regions.into_iter().enumerate() {
            assert_eq!(
                spec.models.len(),
                spec.runtime.plans().len(),
                "region {} lists {} resident models but its runtime compiled {} plans",
                spec.name,
                spec.models.len(),
                spec.runtime.plans().len(),
            );
            let mut local_model = vec![None; model_count];
            for (local, &model) in spec.models.iter().enumerate() {
                assert!(
                    model < model_count,
                    "region {} hosts model {model} of a {model_count}-model catalogue",
                    spec.name
                );
                assert!(
                    local_model[model].is_none(),
                    "region {} hosts model {model} twice",
                    spec.name
                );
                local_model[model] = Some(local);
                holders[model].push(index);
            }
            let nominal_ghz = spec.runtime.plans()[0].chip_params().nominal_frequency_ghz;
            states.push(RegionState {
                name: spec.name,
                fleet: FleetSession::new(spec.runtime, spec.fleet, spec.faults),
                local_model,
                models: spec.models,
                nominal_ghz,
                history: vec![(0, RegionHealth::Healthy)],
                submitted_map: Vec::new(),
            });
        }
        for (model, holding) in holders.iter().enumerate() {
            assert!(
                !holding.is_empty(),
                "model {model} is resident in no region — it could never be served"
            );
        }
        let events = plan
            .events
            .iter()
            .enumerate()
            .map(|(index, event)| (event.at_cycles, Event::Plan(index)))
            .collect();
        Self {
            config,
            plan,
            events,
            regions: states,
            holders,
            clock: 0,
            horizon,
            drained: false,
            tracks: Vec::new(),
            next_seq: 0,
            completions: Vec::new(),
        }
    }

    /// The router's virtual clock (cycles).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Accepts one request at the router's virtual "now" and routes it.
    /// Every region event, timed transition and retry due at or before the
    /// arrival applies first.
    ///
    /// # Panics
    ///
    /// Panics if the router was drained or the request names a model
    /// outside the catalogue.
    pub fn submit(&mut self, request: TraceRequest) {
        assert!(!self.drained, "cannot submit to a drained router");
        assert!(
            request.model < self.holders.len(),
            "request names model {} of a {}-model catalogue",
            request.model,
            self.holders.len()
        );
        let arrival = request.arrival_cycles.max(self.clock);
        self.horizon = self.horizon.max(arrival);
        self.advance(arrival);
        let id = self.tracks.len();
        self.tracks.push(RequestTrack {
            request,
            attempts: 0,
            evictions: 0,
            resolved: None,
        });
        self.route(id, arrival);
    }

    /// Steps the deployment up to virtual cycle `target`: applies due
    /// region events, health transitions and retries in time order, steps
    /// every region fleet, and harvests completions.  Stepping granularity
    /// never changes the final report bytes.
    pub fn run_until(&mut self, target: u64) {
        let target = target.min(self.horizon);
        self.advance(target);
        for state in &mut self.regions {
            state.fleet.run_until(target);
        }
        self.harvest();
    }

    /// Drains the accumulated global outcomes (region order within one
    /// harvest, submission-order request ids attached).
    pub fn poll_completions(&mut self) -> Vec<GlobalOutcome> {
        self.harvest();
        std::mem::take(&mut self.completions)
    }

    /// Applies every remaining scheduled event (retries can schedule more
    /// retries — the budget bounds the cascade), drains every region fleet,
    /// derives the health ledgers from each region's history and freezes
    /// the final report.
    ///
    /// # Panics
    ///
    /// Panics if the router was already drained.
    pub fn drain(&mut self) -> GlobalReport {
        assert!(!self.drained, "router already drained");
        // Deferred retries may extend the horizon while firing; loop until
        // every queue is empty (bounded by the per-request budget).
        loop {
            self.advance(self.horizon);
            if self.events.is_empty() {
                break;
            }
        }
        self.drained = true;
        let fleet_reports: Vec<FleetReport> = self
            .regions
            .iter_mut()
            .map(|state| state.fleet.drain())
            .collect();
        self.harvest();

        // Every region's last health lasts until the global completion time.
        let makespan = fleet_reports
            .iter()
            .map(|r| r.serve.makespan_cycles)
            .max()
            .unwrap_or(0)
            .max(self.clock);
        let mut region_cycles_lost = 0u64;
        let mut region_seconds_lost = 0.0f64;
        let mut regions = Vec::with_capacity(self.regions.len());
        let mut down_windows: Vec<(u64, u64)> = Vec::new();
        for (state, fleet) in self.regions.iter().zip(fleet_reports) {
            let mut state_cycles = [0u64; 4];
            let ends = state
                .history
                .iter()
                .skip(1)
                .map(|&(at, _)| at)
                .chain([makespan]);
            for (&(since, health), end) in state.history.iter().zip(ends) {
                state_cycles[health as usize] += end.saturating_sub(since);
                if health == RegionHealth::Down {
                    down_windows.push((since, end));
                }
            }
            let [healthy_cycles, suspect_cycles, down_cycles, recovering_cycles] = state_cycles;
            region_cycles_lost = region_cycles_lost.saturating_add(down_cycles);
            region_seconds_lost += down_cycles as f64 / (state.nominal_ghz * 1e9);
            regions.push(RegionReport {
                name: state.name.clone(),
                models: state.models.clone(),
                final_health: state.health(),
                healthy_cycles,
                suspect_cycles,
                down_cycles,
                recovering_cycles,
                fleet,
            });
        }

        // Outage-window attainment: judge every request whose *original*
        // arrival fell while some region was Down.
        let mut window_total = [0usize; 3];
        let mut window_good = [0usize; 3];
        let mut requests_migrated = 0usize;
        let mut migrated_and_served = 0usize;
        let (mut migration_events, mut retries_scheduled) = (0usize, 0usize);
        let mut shed_by_class = [0usize; 3];
        for track in &self.tracks {
            migration_events += track.evictions as usize;
            retries_scheduled += track.attempts as usize;
            if track.resolved == Some(Resolved::Shed) {
                shed_by_class[track.request.slo.index()] += 1;
            }
            if track.evictions > 0 {
                requests_migrated += 1;
                if matches!(track.resolved, Some(Resolved::Served { .. })) {
                    migrated_and_served += 1;
                }
            }
            let arrival = track.request.arrival_cycles;
            let in_window = down_windows
                .iter()
                .any(|&(start, end)| arrival >= start && arrival < end);
            if !in_window {
                continue;
            }
            let class = track.request.slo.index();
            window_total[class] += 1;
            if track.resolved
                == Some(Resolved::Served {
                    deadline_missed: false,
                })
            {
                window_good[class] += 1;
            }
        }
        let per_class_outage_attainment = SloClass::ALL
            .iter()
            .map(|&class| ClassAttainment {
                class,
                attainment: if window_total[class.index()] == 0 {
                    1.0
                } else {
                    window_good[class.index()] as f64 / window_total[class.index()] as f64
                },
            })
            .collect();

        let served_requests: usize = regions.iter().map(|r| r.fleet.serve.served_requests).sum();
        let rejected_requests: usize = regions
            .iter()
            .map(|r| r.fleet.serve.rejected_requests)
            .sum();
        let deadline_misses: usize = regions.iter().map(|r| r.fleet.serve.deadline_misses).sum();
        let shed_requests: usize = shed_by_class.iter().sum();
        // Drain applied every plan event, so the plan is the event ledger.
        let applied = |kind: fn(&RegionFaultKind) -> bool| {
            self.plan.events.iter().filter(|e| kind(&e.kind)).count()
        };
        let cal_total = |f: fn(&crate::report::CalibrationStats) -> u64| -> u64 {
            regions
                .iter()
                .map(|r| r.fleet.serve.calibration.as_ref().map_or(0, f))
                .sum()
        };
        let nominal_ghz = self.regions[0].nominal_ghz;
        let virtual_seconds = makespan as f64 / (nominal_ghz * 1e9);
        let per_model_replicas: Vec<usize> = self.holders.iter().map(Vec::len).collect();
        GlobalReport {
            placement: PlacementStats {
                resident_plans: per_model_replicas.iter().sum(),
                per_model_replicas,
            },
            availability: GlobalAvailability {
                regions: regions.len(),
                region_faults_applied: self.plan.events.len(),
                outages: applied(|k| matches!(k, RegionFaultKind::RegionOutage { .. })),
                recoveries: applied(|k| matches!(k, RegionFaultKind::RegionRecovery { .. })),
                flash_crowd_events: applied(|k| matches!(k, RegionFaultKind::FlashCrowd { .. })),
                requests_migrated,
                migration_events,
                migrated_and_served,
                retries_scheduled,
                requests_shed: shed_requests,
                shed_by_class,
                region_cycles_lost,
                region_seconds_lost,
                outage_window_requests: window_total.iter().sum(),
                per_class_outage_attainment,
            },
            summary: GlobalSummary {
                total_requests: self.tracks.len(),
                served_requests,
                rejected_requests,
                shed_requests,
                deadline_misses,
                makespan_cycles: makespan,
                throughput_rps: if virtual_seconds > 0.0 {
                    served_requests as f64 / virtual_seconds
                } else {
                    0.0
                },
                calibration_samples: cal_total(|c| c.samples),
                recalibrations: cal_total(|c| c.recalibrations),
                demotions: cal_total(|c| c.demotions),
                promotions: cal_total(|c| c.promotions),
            },
            regions,
        }
    }

    /// Offline convenience: submit the whole trace, then drain — the global
    /// analogue of [`FleetSession::serve_trace`].
    #[must_use]
    pub fn serve_trace(
        regions: Vec<RegionSpec<'rt>>,
        model_count: usize,
        config: GlobalConfig,
        plan: RegionFaultPlan,
        trace: &[TraceRequest],
    ) -> GlobalReport {
        let mut router = Self::new(regions, model_count, config, plan);
        for request in trace {
            router.submit(*request);
        }
        router.drain()
    }

    // --- the global event loop ---------------------------------------------

    /// Applies every scheduled event due at or before `target`, in
    /// `(cycle, event)` order, then advances the router clock.
    fn advance(&mut self, target: u64) {
        while let Some(&(at, event)) = self.events.first() {
            if at > target {
                break;
            }
            self.events.pop_first();
            match event {
                Event::Plan(index) => self.apply_plan_event(index),
                Event::Transition {
                    region,
                    generation,
                    target: health,
                    ..
                } => self.apply_transition(at, region, generation, health),
                Event::Retry { id, .. } => self.route(id, at),
            }
        }
        self.clock = self.clock.max(target);
    }

    /// Applies the region-plan event at `index`.
    fn apply_plan_event(&mut self, index: usize) {
        let event = self.plan.events[index];
        match event.kind {
            RegionFaultKind::RegionOutage { region } => {
                self.set_health(region, RegionHealth::Suspect, event.at_cycles);
                let down_at = event
                    .at_cycles
                    .saturating_add(self.config.suspect_grace_cycles);
                self.schedule_transition(down_at, region, RegionHealth::Down);
            }
            RegionFaultKind::RegionRecovery { region } => {
                // Recovery may land while still Suspect (inside the grace
                // window): the history moving on cancels the pending Down.
                self.set_health(region, RegionHealth::Recovering, event.at_cycles);
                let healthy_at = event
                    .at_cycles
                    .saturating_add(self.config.recovery_warmup_cycles);
                self.schedule_transition(healthy_at, region, RegionHealth::Healthy);
            }
            // The surge's traffic was materialised into the trace by
            // `with_flash_crowds`; the report counts the event from the plan.
            RegionFaultKind::FlashCrowd { .. } => {}
        }
    }

    /// Queues `event(seq)` at `at` under the next scheduling sequence
    /// number, extending the horizon to it.
    fn schedule(&mut self, at: u64, event: impl FnOnce(u64) -> Event) {
        self.horizon = self.horizon.max(at);
        self.events.insert((at, event(self.next_seq)));
        self.next_seq += 1;
    }

    /// Queues a timed health transition, pinned to the region's current
    /// generation so later transitions invalidate it.
    fn schedule_transition(&mut self, at: u64, region: usize, target: RegionHealth) {
        let generation = self.regions[region].history.len();
        self.schedule(at, |seq| Event::Transition {
            seq,
            region,
            generation,
            target,
        });
    }

    /// Fires one timed transition of `region` to `target` at `at`.
    fn apply_transition(
        &mut self,
        at: u64,
        region: usize,
        generation: usize,
        target: RegionHealth,
    ) {
        if self.regions[region].history.len() != generation {
            // A plan event moved the region on (e.g. it recovered inside
            // the grace window); this transition is stale.
            return;
        }
        self.set_health(region, target, at);
        if target == RegionHealth::Down {
            // The region is confirmed out: migrate everything that has not
            // started.  Eviction order is fleet submission order, so the
            // re-route sequence is deterministic.
            let evicted = self.regions[region].fleet.evict_pending(at);
            for (fleet_index, _) in evicted {
                let id = self.regions[region].submitted_map[fleet_index];
                self.tracks[id].evictions += 1;
                self.route(id, at);
            }
        }
    }

    /// Moves `region` to `new` at virtual time `at` (a no-op when it is
    /// already there).
    fn set_health(&mut self, region: usize, new: RegionHealth, at: u64) {
        let state = &mut self.regions[region];
        if state.health() != new {
            state.history.push((at, new));
        }
    }

    /// Weighted backlog snapshot of `region` (step its fleet to the
    /// decision point first).
    fn weighted_backlog(&self, region: usize) -> u64 {
        self.regions[region]
            .fleet
            .class_backlog_cycles()
            .iter()
            .zip(self.config.class_weights)
            .map(|(&b, w)| b.saturating_mul(w))
            .fold(0, u64::saturating_add)
    }

    /// Routes request `id` at virtual time `at`: pick a routable holder,
    /// shed on overload, defer (or shed) when no holder is routable.
    fn route(&mut self, id: usize, at: u64) {
        let model = self.tracks[id].request.model;
        let class = self.tracks[id].request.slo;
        // The candidates are the routable holders, in holder order (stepping
        // a fleet never changes which regions are routable).
        let candidates = self.holders[model]
            .iter()
            .filter(|&&r| self.regions[r].health().routable())
            .count();
        if candidates == 0 {
            self.defer_or_shed(id, at);
            return;
        }
        let region = match self.config.route {
            RoutePolicy::ByModel => *self.holders[model]
                .iter()
                .filter(|&&r| self.regions[r].health().routable())
                .nth(model % candidates)
                .expect("index < candidate count"),
            RoutePolicy::LeastBacklog => {
                let mut best: Option<(u64, usize)> = None;
                for &candidate in &self.holders[model] {
                    if !self.regions[candidate].health().routable() {
                        continue;
                    }
                    // Virtual-time snapshot at the earlier of the routing
                    // instant and this fleet's event horizon (`run_until`
                    // clamps there), not wherever the fleet last stopped.
                    self.regions[candidate].fleet.run_until(at);
                    let pressure = self.weighted_backlog(candidate);
                    if best.is_none_or(|(least, _)| pressure < least) {
                        best = Some((pressure, candidate));
                    }
                }
                best.expect("a candidate exists").1
            }
        };
        let ceiling = self.config.shed.backlog_ceiling_cycles[class.index()];
        if ceiling != u64::MAX {
            self.regions[region].fleet.run_until(at);
            if self.weighted_backlog(region) > ceiling {
                self.shed(id, ShedReason::Overload);
                return;
            }
        }
        self.submit_to_region(id, region, at);
    }

    /// Hands request `id` to `region`'s fleet.
    fn submit_to_region(&mut self, id: usize, region: usize, at: u64) {
        let track = self.tracks[id];
        let mut request = track.request;
        if track.evictions > 0 || track.attempts > 0 {
            // A migrated or deferred request enters its new region at the
            // re-route instant; the original deadline keeps deadline
            // accounting honest, and the router re-anchors latency to the
            // original arrival when the outcome comes back.
            request.arrival_cycles = at;
        }
        request.model = self.regions[region].local_model[track.request.model]
            .expect("routed to a holder of the model");
        self.regions[region].submitted_map.push(id);
        self.regions[region].fleet.submit(request);
    }

    /// No routable holder: consume a retry attempt and defer with
    /// exponential virtual-time backoff, or shed when the budget is gone.
    fn defer_or_shed(&mut self, id: usize, at: u64) {
        if self.tracks[id].attempts >= self.config.retry.max_attempts {
            self.shed(id, ShedReason::RetryBudgetExhausted);
            return;
        }
        self.tracks[id].attempts += 1;
        let backoff = self.config.retry.backoff_cycles(self.tracks[id].attempts);
        self.schedule(at.saturating_add(backoff), |seq| Event::Retry { seq, id });
    }

    /// Sheds request `id` — the graceful-degradation outcome.
    fn shed(&mut self, id: usize, reason: ShedReason) {
        let track = &mut self.tracks[id];
        track.resolved = Some(Resolved::Shed);
        self.completions.push(GlobalOutcome {
            request: id,
            model: track.request.model,
            slo: track.request.slo,
            status: GlobalStatus::Shed {
                reason,
                attempts: track.attempts,
            },
        });
    }

    /// Pulls every region's streamed outcomes into the global completion
    /// buffer, re-anchoring latency and ids to the global view.
    fn harvest(&mut self) {
        for region in 0..self.regions.len() {
            let outcomes = self.regions[region].fleet.poll_completions();
            for fleet_outcome in outcomes {
                let id = self.regions[region].submitted_map[fleet_outcome.outcome.request];
                let track = &mut self.tracks[id];
                let status = match fleet_outcome.outcome.status {
                    CompletionStatus::Served {
                        finish_cycles,
                        deadline_missed,
                        failed_over,
                        ..
                    } => {
                        track.resolved = Some(Resolved::Served { deadline_missed });
                        GlobalStatus::Served {
                            region,
                            latency_cycles: finish_cycles
                                .saturating_sub(track.request.arrival_cycles),
                            deadline_missed,
                            migrated: track.evictions > 0 || track.attempts > 0,
                            failed_over,
                        }
                    }
                    CompletionStatus::Rejected {
                        backlog_cycles,
                        backlog_cap_cycles,
                    } => {
                        track.resolved = Some(Resolved::Rejected);
                        GlobalStatus::Rejected {
                            region,
                            backlog_cycles,
                            backlog_cap_cycles,
                        }
                    }
                };
                self.completions.push(GlobalOutcome {
                    request: id,
                    model: track.request.model,
                    slo: track.request.slo,
                    status,
                });
            }
        }
    }
}
