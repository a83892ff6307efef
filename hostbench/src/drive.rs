//! The four workloads: how each deployment is set up, how its traffic is
//! generated from the seed, and how one replay is driven through the
//! workload's front door as a client would — one host thread submitting an
//! open-loop, virtual-time trace as fast as the stack accepts it, with the
//! chip lanes run on that same thread.

use std::time::Instant;

use aim_core::mapping::MappingStrategy;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::{
    CompletionStatus, DagOrchestrator, DagOrchestratorConfig, DispatchPolicy, FleetConfig,
    FleetReport, FleetSession, GlobalConfig, GlobalRouter, GlobalStatus, LatencySketch, RegionSpec,
    RetryConfig, RoutePolicy, ScalingConfig, ServeConfig, ServeRuntime, ShardPolicy, ShedPolicy,
    StageOutcome, StageStatus,
};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use workloads::dag::{standard_templates, SessionConfig, SessionItemKind, SessionStream};
use workloads::inputs::{
    with_flash_crowds, ArrivalShape, FaultEvent, FaultKind, FaultPlan, RegionFaultEvent,
    RegionFaultKind, RegionFaultPlan, SloMix, TraceRequest, TraceStream, TrafficConfig,
};
use workloads::zoo::Model;

use crate::trace::{Layer, Tracer};

/// Outcomes are polled after every this many submissions, so the
/// program's completion buffers stay bounded by the work in flight.
const POLL_EVERY: usize = 1024;
/// Models in every served zoo.
const MODELS: usize = 4;
/// Chips per session shard, in every workload.
const CHIPS_PER_SHARD: usize = 4;
/// Hyperscale fleet: 64 shards of 4 analytical chips.
const HYPER_SHARDS: usize = 64;
/// Mean hyperscale inter-arrival gap (cycles): the CI hyperscale load.
const HYPER_GAP: f64 = 60.0;
/// Mean global-outage inter-arrival gap (cycles).
const GLOBAL_GAP: f64 = 1_000.0;
/// How long each global-outage region outage lasts (cycles).
const OUTAGE_CYCLES: u64 = 120_000;
/// Mean dag-sessions inter-arrival gap between session items (cycles).
const DAG_GAP: f64 = 3_000.0;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The CI hyperscale fleet with sampled verification and the
    /// calibration loop on.
    HyperscaleVerify,
    /// The same fleet, faults and traffic shape with verification off.
    HyperscaleFast,
    /// Two heterogeneous regions behind a least-backlog router, with a
    /// region outage, a flash crowd and failback.
    GlobalOutage,
    /// Per-user sessions with a DAG share through the DAG orchestrator.
    DagSessions,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Self; 4] = [
        Self::HyperscaleVerify,
        Self::HyperscaleFast,
        Self::GlobalOutage,
        Self::DagSessions,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::HyperscaleVerify => "hyperscale-verify",
            Self::HyperscaleFast => "hyperscale-fast",
            Self::GlobalOutage => "global-outage",
            Self::DagSessions => "dag-sessions",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests (session items on `dag-sessions`) one replay submits.  The
    /// two hyperscale workloads replay the same trace.  Without
    /// verification a replay takes tens of milliseconds, so a run holds
    /// hundreds and `host_rps` can be taken at one that no wave of the
    /// shared host's slowdown reached.
    pub fn requests(self) -> usize {
        match self {
            Self::HyperscaleVerify | Self::HyperscaleFast => 60_000,
            Self::GlobalOutage => 30_000,
            Self::DagSessions => 8_000,
        }
    }

    /// The module whose public API is the workload's front door.
    pub fn door(self) -> &'static str {
        match self {
            Self::HyperscaleVerify | Self::HyperscaleFast => "fleet",
            Self::GlobalOutage => "global",
            Self::DagSessions => "dag",
        }
    }

    /// Regions × shards × chips of the deployment, for the fingerprint.
    pub fn fleet_shape(self) -> String {
        match self {
            Self::HyperscaleVerify | Self::HyperscaleFast => {
                format!("{HYPER_SHARDS}x{CHIPS_PER_SHARD}")
            }
            Self::GlobalOutage => format!("2x{}x{CHIPS_PER_SHARD}", region_fleet().shards),
            Self::DagSessions => format!("{}x{CHIPS_PER_SHARD}", dag_fleet().shards),
        }
    }

    /// Sampled-verification cadence (0 = off).
    pub fn verify_every(self) -> usize {
        match self {
            Self::HyperscaleVerify => 512,
            _ => 0,
        }
    }

    /// FNV-1a digest of the serialized final report at the default seed.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Self::HyperscaleVerify => 0xce47_fe98_993e_aaf1,
            Self::HyperscaleFast => 0xa6e4_7595_a0e1_8424,
            Self::GlobalOutage => 0x307e_3785_829a_e9d3,
            Self::DagSessions => 0xf446_9e18_72d9_fb0a,
        }
    }

    /// The zoos compiled at set-up, one per silicon tier, each with the
    /// global model ids it holds.  The global workload places models 0 and 1
    /// in both regions and models 2 and 3 in one region each, so a region
    /// outage leaves one model with no routable holder and exercises the
    /// router's retry budget.
    fn zoos(self) -> Vec<(AimConfig, Vec<usize>)> {
        match self {
            Self::GlobalOutage => vec![
                (AimConfig::full_low_power(), vec![0, 1, 2]),
                (AimConfig::full_sprint(), vec![0, 1, 3]),
            ],
            _ => vec![(AimConfig::full_low_power(), (0..MODELS).collect())],
        }
    }

    fn serve_config(self, variant: Variant) -> ServeConfig {
        let verify_every = if variant.verify {
            self.verify_every()
        } else {
            0
        };
        ServeConfig::builder()
            .chips(CHIPS_PER_SHARD)
            .max_batch(8)
            .batch_window_cycles(30_000)
            .reload_cycles_per_slice(64)
            .dispatch(DispatchPolicy::LeastLoaded)
            .admission(None)
            .backend(BackendKind::Analytical)
            .verify_every(verify_every)
            .calibration((verify_every > 0).then(CalibrationLoopConfig::default))
            .parallel(variant.parallel)
            .seed(0xC0FFEE)
            .build()
    }
}

/// The knobs a differential run flips against the workload's own setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Fan chip lanes out on worker threads.
    pub parallel: bool,
    /// Keep the workload's sampled verification (and calibration loop).
    pub verify: bool,
}

impl Variant {
    /// The workload as defined, with chip lanes run on the calling thread.
    /// The rayon shim spawns fresh OS threads at every fan-out, so on a
    /// shared host with few cores a fanned-out replay mostly times thread
    /// start-up and the scheduler (up to 40× the sequential wall); the
    /// fan-out is measured apart, as `session.fanout_ratio`.
    pub const BASE: Self = Self {
        parallel: false,
        verify: true,
    };
}

/// A set-up deployment: one serving runtime per silicon tier, plus what
/// setting it up cost.
#[derive(Debug)]
pub struct Deployment {
    workload: Workload,
    runtimes: Vec<ServeRuntime>,
    /// Host seconds in `CompiledPlan::compile` for every zoo.
    pub compile_s: f64,
    /// Host seconds in `ServeRuntime::from_plans` (analytical calibration).
    pub calibrate_s: f64,
}

impl Deployment {
    /// Compiles the workload's zoo(s) and builds its runtime(s).
    pub fn set_up(workload: Workload) -> Self {
        let start = Instant::now();
        let zoos: Vec<Vec<CompiledPlan>> = workload
            .zoos()
            .into_iter()
            .map(|(tier, models)| compile_zoo(tier, &models))
            .collect();
        let compile_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let config = workload.serve_config(Variant::BASE);
        let runtimes = zoos
            .into_iter()
            .map(|plans| ServeRuntime::from_plans(plans, config))
            .collect();
        Self {
            workload,
            runtimes,
            compile_s,
            calibrate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The same compiled plans under a differential variant (its set-up
    /// times are not measured).
    pub fn variant(&self, variant: Variant) -> Self {
        let config = self.workload.serve_config(variant);
        let runtimes = self
            .runtimes
            .iter()
            .map(|rt| ServeRuntime::from_plans(rt.plans().to_vec(), config))
            .collect();
        Self {
            workload: self.workload,
            runtimes,
            compile_s: 0.0,
            calibrate_s: 0.0,
        }
    }

    /// The runtimes, one per silicon tier.
    pub fn runtimes(&self) -> &[ServeRuntime] {
        &self.runtimes
    }

    /// Drives one replay of the workload's trace at `seed`.
    pub fn replay<T: Tracer>(&self, seed: u64, tracer: &mut T) -> Rep {
        match self.workload {
            Workload::HyperscaleVerify | Workload::HyperscaleFast => {
                self.replay_fleet(seed, tracer)
            }
            Workload::GlobalOutage => self.replay_global(seed, tracer),
            Workload::DagSessions => self.replay_dag(seed, tracer),
        }
    }
}

/// The served zoo's `models` under one silicon tier: per-model operator
/// strides keep the compile cost in the seconds range while preserving each
/// model's operator mix.
fn compile_zoo(base: AimConfig, models: &[usize]) -> Vec<CompiledPlan> {
    use rayon::prelude::*;
    let quick = |stride: usize| AimConfig {
        operator_stride: Some(stride),
        cycles_per_slice: 150,
        mapping: MappingStrategy::Sequential,
        ..base
    };
    let zoo = [
        (Model::resnet18(), quick(5)),
        (Model::mobilenet_v2(), quick(7)),
        (Model::vit_base(), quick(7)),
        (Model::gpt2(), quick(7)),
    ];
    models
        .par_iter()
        .map(|&m| CompiledPlan::compile(&zoo[m].0, &zoo[m].1))
        .collect()
}

/// Folds the command-line seed into a workload's base trace seed; seed 0
/// reproduces the base seed itself.
fn trace_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Virtual cycle at fraction `share` of a horizon.
fn at(horizon: u64, share: f64) -> u64 {
    (horizon as f64 * share) as u64
}

fn hyper_traffic(requests: usize, seed: u64) -> TrafficConfig {
    // Three diurnal waves over the horizon, crest rate 1.6× the mean: the
    // CI hyperscale shape, scaled to the request count.
    let horizon = requests as f64 * HYPER_GAP;
    TrafficConfig {
        requests,
        models: MODELS,
        mean_interarrival_cycles: HYPER_GAP,
        burst_repeat_prob: 0.35,
        deadline_slack_cycles: 4_000_000,
        shape: ArrivalShape::DiurnalWave {
            period_cycles: (horizon / 3.0) as u64,
            amplitude: 0.6,
        },
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: trace_seed(0x44E52, seed),
    }
}

/// Two chip deaths on diurnal crests and one degradation episode, placed at
/// the CI hyperscale plan's shares of the horizon.
fn hyper_faults(horizon: u64) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: at(horizon, 2.0 / 15.0),
            kind: FaultKind::Degradation {
                shard: 17,
                chip: 0,
                slowdown_percent: 60,
            },
        },
        FaultEvent {
            at_cycles: at(horizon, 5.0 / 12.0),
            kind: FaultKind::ChipDeath { shard: 3, chip: 1 },
        },
        FaultEvent {
            at_cycles: at(horizon, 0.5),
            kind: FaultKind::Recovery { shard: 17, chip: 0 },
        },
        FaultEvent {
            at_cycles: at(horizon, 0.75),
            kind: FaultKind::ChipDeath { shard: 40, chip: 2 },
        },
    ])
}

fn hyper_fleet(horizon: u64) -> FleetConfig {
    FleetConfig {
        shards: HYPER_SHARDS,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 3,
        scaling: Some(ScalingConfig {
            check_interval_cycles: horizon / 30,
            scale_up_backlog_cycles: 400_000,
            scale_down_backlog_cycles: 40_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    }
}

fn global_traffic(requests: usize, seed: u64) -> TrafficConfig {
    let horizon = requests as f64 * GLOBAL_GAP;
    TrafficConfig {
        requests,
        models: MODELS,
        mean_interarrival_cycles: GLOBAL_GAP,
        burst_repeat_prob: 0.3,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::DiurnalWave {
            period_cycles: (horizon / 3.0) as u64,
            amplitude: 0.5,
        },
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: trace_seed(0xF1EE5, seed),
    }
}

/// At every diurnal crest the low-power region goes down, a best-effort
/// flash crowd lands on the surviving region while it is down, and the
/// region fails back [`OUTAGE_CYCLES`] later.
fn global_plan(requests: usize) -> RegionFaultPlan {
    let horizon = (requests as f64 * GLOBAL_GAP) as u64;
    let mut events = Vec::new();
    for crest in 0..3 {
        let down = at(horizon, 1.0 / 12.0 + f64::from(crest) / 3.0);
        events.extend([
            RegionFaultEvent {
                at_cycles: down,
                kind: RegionFaultKind::RegionOutage { region: 0 },
            },
            RegionFaultEvent {
                at_cycles: down + OUTAGE_CYCLES / 4,
                kind: RegionFaultKind::FlashCrowd {
                    model: 1,
                    requests: requests / 64,
                    mean_gap_cycles: 100,
                },
            },
            RegionFaultEvent {
                at_cycles: down + OUTAGE_CYCLES,
                kind: RegionFaultKind::RegionRecovery { region: 0 },
            },
        ]);
    }
    RegionFaultPlan::new(events)
}

fn region_fleet() -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 2,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 20_000,
            scale_up_backlog_cycles: 120_000,
            scale_down_backlog_cycles: 12_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    }
}

fn global_config() -> GlobalConfig {
    GlobalConfig {
        route: RoutePolicy::LeastBacklog,
        retry: RetryConfig {
            max_attempts: 4,
            backoff_base_cycles: 20_000,
            backoff_multiplier: 2,
        },
        shed: ShedPolicy {
            backlog_ceiling_cycles: [400_000, u64::MAX, u64::MAX],
        },
        suspect_grace_cycles: 5_000,
        recovery_warmup_cycles: 10_000,
        class_weights: [1, 2, 4],
    }
}

fn dag_session(requests: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        traffic: TrafficConfig {
            requests,
            models: MODELS,
            mean_interarrival_cycles: DAG_GAP,
            burst_repeat_prob: 0.3,
            deadline_slack_cycles: 2_000_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.05,
                best_effort_share: 0.35,
            },
            seed: trace_seed(0xDA65, seed),
        },
        users: 256,
        dag_share: 0.25,
        templates: standard_templates(MODELS),
        dag_deadline_slack_cycles: 3_000_000,
    }
}

/// A chip dies while cascades are mid-flight, then the other shard goes
/// through a degradation episode.
fn dag_faults(requests: usize) -> FaultPlan {
    let horizon = (requests as f64 * DAG_GAP) as u64;
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: at(horizon, 0.3),
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: at(horizon, 0.5),
            kind: FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 75,
            },
        },
        FaultEvent {
            at_cycles: at(horizon, 0.8),
            kind: FaultKind::Recovery { shard: 1, chip: 0 },
        },
    ])
}

fn dag_fleet() -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 0,
        scaling: None,
    }
}

/// Merges the flash-crowd requests into the base stream in the order
/// [`with_flash_crowds`] would: by arrival, base requests first on ties.
struct Merged {
    base: std::iter::Peekable<TraceStream>,
    crowd: std::iter::Peekable<std::vec::IntoIter<TraceRequest>>,
}

impl Iterator for Merged {
    type Item = TraceRequest;

    fn next(&mut self) -> Option<TraceRequest> {
        match (self.base.peek(), self.crowd.peek()) {
            (Some(b), Some(c)) if c.arrival_cycles < b.arrival_cycles => self.crowd.next(),
            (Some(_), _) => self.base.next(),
            (None, _) => self.crowd.next(),
        }
    }
}

/// Exactly-once ledger over request ids `0..capacity`.
struct Ledger {
    seen: Vec<u64>,
    unique: u64,
    duplicated: u64,
}

impl Ledger {
    fn new(capacity: usize) -> Self {
        Self {
            seen: vec![0; capacity.div_ceil(64)],
            unique: 0,
            duplicated: 0,
        }
    }

    /// Records one resolution of `id`; false if it was already resolved
    /// (or is no id this run submitted).
    fn resolve(&mut self, id: usize) -> bool {
        let Some(word) = self.seen.get_mut(id / 64) else {
            self.duplicated += 1;
            return false;
        };
        let bit = 1u64 << (id % 64);
        if *word & bit != 0 {
            self.duplicated += 1;
            return false;
        }
        *word |= bit;
        self.unique += 1;
        true
    }

    fn lost(&self, submitted: usize) -> u64 {
        (submitted as u64).saturating_sub(self.unique)
    }
}

/// What the program reported, in user terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Virtual {
    /// Virtual throughput the report states, req/s of simulated time.
    pub rps: f64,
    /// Virtual arrival→finish latency, µs at the nominal frequency.
    pub p50_us: f64,
    /// As `p50_us`, 99th percentile.
    pub p99_us: f64,
    /// Requests served within their deadline over requests submitted.
    pub slo_attainment: f64,
}

/// Work counts a replay's report carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Cycle-accurate replays: verification samples plus demoted executions.
    pub replays: u64,
    /// Request groups executed.
    pub groups: u64,
    /// Mean executed batch size.
    pub mean_batch: f64,
    /// Requests failed over off dead chips.
    pub failovers: u64,
    /// Elastic scale-ups plus scale-downs.
    pub scale_events: u64,
    /// Requests migrated off a downed region.
    pub migrations: u64,
    /// Retries scheduled by the global router.
    pub retries: u64,
    /// Requests the global router shed.
    pub shed: u64,
    /// DAG stages across all instances.
    pub dag_stages: u64,
    /// Stages promoted by priority inheritance.
    pub promotions: u64,
    /// Calibration drift samples.
    pub cal_samples: u64,
    /// Recalibrations applied.
    pub recalibrations: u64,
    /// Models demoted to cycle-accurate execution.
    pub demotions: u64,
}

/// Host time of a replay cut at its poll points: the same trace always
/// cuts into the same stretches, doing the same work.
struct Stretches {
    last: Instant,
    secs: Vec<f64>,
}

impl Stretches {
    fn start() -> Self {
        Self {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// Ends the current stretch and starts the next.
    fn cut(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// One replay's outcome.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds from the first submit to the return of `drain`.
    pub wall_s: f64,
    /// `wall_s` cut at every poll point and at the return of `drain`.
    pub stretches: Vec<f64>,
    /// Requests (session items) submitted.
    pub submitted: u64,
    /// Submitted requests that never resolved.
    pub lost: u64,
    /// Resolutions beyond the first, per request.
    pub duplicated: u64,
    /// The serialized final report.
    pub report: String,
    /// Host seconds `serde_json` took to serialize it.
    pub serialize_s: f64,
    /// User-facing virtual figures.
    pub virt: Virtual,
    /// Work counts from the report.
    pub counts: Counts,
}

/// Nominal chip frequency of a runtime, GHz.
fn nominal_ghz(runtime: &ServeRuntime) -> f64 {
    runtime.plans()[0].chip_params().nominal_frequency_ghz
}

fn cycles_to_us(cycles: u64, ghz: f64) -> f64 {
    cycles as f64 / (ghz * 1e3)
}

fn serialize<R: serde::Serialize>(report: &R) -> (String, f64) {
    let start = Instant::now();
    let json = serde_json::to_string(report).expect("reports serialize");
    (json, start.elapsed().as_secs_f64())
}

/// Counts every fleet report carries.
fn fleet_counts(report: &FleetReport) -> Counts {
    let serve = &report.serve;
    let cal = serve.calibration.as_ref();
    Counts {
        replays: cal.map_or_else(
            || serve.verification.map_or(0, |v| v.sampled as u64),
            |c| c.samples,
        ),
        groups: serve.groups_executed as u64,
        mean_batch: serve.mean_batch_size,
        failovers: report.availability.requests_failed_over as u64,
        scale_events: (report.availability.scale_ups + report.availability.scale_downs) as u64,
        dag_stages: report.dag.as_ref().map_or(0, |d| d.stages_total as u64),
        promotions: report
            .dag
            .as_ref()
            .map_or(0, |d| d.inherited_promotions as u64),
        cal_samples: cal.map_or(0, |c| c.samples),
        recalibrations: cal.map_or(0, |c| c.recalibrations),
        demotions: cal.map_or(0, |c| c.demotions),
        ..Counts::default()
    }
}

impl Deployment {
    fn replay_fleet<T: Tracer>(&self, seed: u64, tracer: &mut T) -> Rep {
        let requests = self.workload.requests();
        let traffic = hyper_traffic(requests, seed);
        let horizon = (requests as f64 * HYPER_GAP) as u64;
        let runtime = &self.runtimes[0];
        let mut fleet = FleetSession::new(runtime, hyper_fleet(horizon), hyper_faults(horizon));
        let mut stream = TraceStream::new(&traffic);
        let mut ledger = Ledger::new(requests);
        let mut submitted = 0usize;

        let start = Instant::now();
        let mut stretches = Stretches::start();
        while let Some(request) = tracer.span(Layer::Workloads, || stream.next()) {
            tracer.span(Layer::Submit, || fleet.submit(request));
            submitted += 1;
            if submitted.is_multiple_of(POLL_EVERY) {
                let done = tracer.span(Layer::Poll, || fleet.poll_completions());
                tracer.span(Layer::Check, || {
                    for o in &done {
                        ledger.resolve(o.outcome.request);
                    }
                });
                stretches.cut();
            }
        }
        let report = tracer.span(Layer::Drain, || fleet.drain());
        stretches.cut();
        let wall_s = start.elapsed().as_secs_f64();

        for o in fleet.poll_completions() {
            ledger.resolve(o.outcome.request);
        }
        let serve = &report.serve;
        let ghz = nominal_ghz(runtime);
        let virt = Virtual {
            rps: serve.throughput_rps,
            p50_us: cycles_to_us(serve.latency_p50_cycles, ghz),
            p99_us: cycles_to_us(serve.latency_p99_cycles, ghz),
            slo_attainment: serve.served_requests.saturating_sub(serve.deadline_misses) as f64
                / submitted.max(1) as f64,
        };
        let counts = fleet_counts(&report);
        let (json, serialize_s) = serialize(&report);
        Rep {
            wall_s,
            stretches: stretches.secs,
            submitted: submitted as u64,
            lost: ledger.lost(submitted),
            duplicated: ledger.duplicated,
            report: json,
            serialize_s,
            virt,
            counts,
        }
    }

    fn replay_global<T: Tracer>(&self, seed: u64, tracer: &mut T) -> Rep {
        let requests = self.workload.requests();
        let traffic = global_traffic(requests, seed);
        let plan = global_plan(requests);
        let crowd = with_flash_crowds(&[], &plan, traffic.deadline_slack_cycles, traffic.seed);
        let capacity = requests + crowd.len();
        let names = ["lowpower-west", "sprint-east"];
        let specs = self
            .runtimes
            .iter()
            .zip(names)
            .zip(self.workload.zoos())
            .map(|((runtime, name), (_, models))| RegionSpec {
                name: name.to_string(),
                runtime,
                fleet: region_fleet(),
                faults: FaultPlan::none(),
                models,
            })
            .collect();
        let mut router = GlobalRouter::new(specs, MODELS, global_config(), plan);
        let mut stream = Merged {
            base: TraceStream::new(&traffic).peekable(),
            crowd: crowd.into_iter().peekable(),
        };
        let mut ledger = Ledger::new(capacity);
        let mut latency = LatencySketch::new();
        let mut attained = 0u64;
        let mut absorb = |done: &[aim_serve::GlobalOutcome], ledger: &mut Ledger| {
            for o in done {
                if !ledger.resolve(o.request) {
                    continue;
                }
                if let GlobalStatus::Served {
                    latency_cycles,
                    deadline_missed,
                    ..
                } = o.status
                {
                    latency.record(latency_cycles);
                    attained += u64::from(!deadline_missed);
                }
            }
        };
        let mut submitted = 0usize;

        let start = Instant::now();
        let mut stretches = Stretches::start();
        while let Some(request) = tracer.span(Layer::Workloads, || stream.next()) {
            tracer.span(Layer::Submit, || router.submit(request));
            submitted += 1;
            if submitted.is_multiple_of(POLL_EVERY) {
                let done = tracer.span(Layer::Poll, || router.poll_completions());
                tracer.span(Layer::Check, || absorb(&done, &mut ledger));
                stretches.cut();
            }
        }
        let report = tracer.span(Layer::Drain, || router.drain());
        stretches.cut();
        let wall_s = start.elapsed().as_secs_f64();

        absorb(&router.poll_completions(), &mut ledger);
        let ghz = nominal_ghz(&self.runtimes[0]);
        let virt = Virtual {
            rps: report.summary.throughput_rps,
            p50_us: cycles_to_us(latency.percentile(0.5), ghz),
            p99_us: cycles_to_us(latency.percentile(0.99), ghz),
            slo_attainment: attained as f64 / submitted.max(1) as f64,
        };
        let mut counts = Counts::default();
        let mut served = 0u64;
        for region in &report.regions {
            let c = fleet_counts(&region.fleet);
            counts.replays += c.replays;
            counts.groups += c.groups;
            counts.failovers += c.failovers;
            counts.scale_events += c.scale_events;
            served += region.fleet.serve.served_requests as u64;
        }
        counts.mean_batch = served as f64 / counts.groups.max(1) as f64;
        counts.migrations = report.availability.requests_migrated as u64;
        counts.retries = report.availability.retries_scheduled as u64;
        counts.shed = report.availability.requests_shed as u64;
        counts.cal_samples = report.summary.calibration_samples;
        counts.recalibrations = report.summary.recalibrations;
        counts.demotions = report.summary.demotions;
        let (json, serialize_s) = serialize(&report);
        Rep {
            wall_s,
            stretches: stretches.secs,
            submitted: submitted as u64,
            lost: ledger.lost(submitted),
            duplicated: ledger.duplicated,
            report: json,
            serialize_s,
            virt,
            counts,
        }
    }

    fn replay_dag<T: Tracer>(&self, seed: u64, tracer: &mut T) -> Rep {
        let requests = self.workload.requests();
        let session = dag_session(requests, seed);
        let runtime = &self.runtimes[0];
        let mut orch = DagOrchestrator::new(
            runtime,
            dag_fleet(),
            dag_faults(requests),
            session.templates.clone(),
            DagOrchestratorConfig {
                inherit_priority: true,
                admission: None,
            },
        );
        let mut stream = SessionStream::new(&session);
        let mut items = Items::default();

        let start = Instant::now();
        let mut stretches = Stretches::start();
        while let Some(item) = tracer.span(Layer::Workloads, || stream.next()) {
            let id = tracer.span(Layer::Submit, || orch.submit_item(&item));
            tracer.span(Layer::Check, || items.open(id, &item.kind));
            if items.states.len().is_multiple_of(POLL_EVERY) {
                let done = tracer.span(Layer::Poll, || orch.poll_outcomes());
                tracer.span(Layer::Check, || items.absorb(&done));
                stretches.cut();
            }
        }
        let report = tracer.span(Layer::Drain, || orch.drain());
        stretches.cut();
        let wall_s = start.elapsed().as_secs_f64();

        items.absorb(&orch.poll_outcomes());
        let submitted = items.states.len();
        let (lost, duplicated) = items.settle();
        let ghz = nominal_ghz(runtime);
        let virt = Virtual {
            rps: report.serve.throughput_rps,
            p50_us: cycles_to_us(items.latency.percentile(0.5), ghz),
            p99_us: cycles_to_us(items.latency.percentile(0.99), ghz),
            slo_attainment: items.attained as f64 / submitted.max(1) as f64,
        };
        let counts = fleet_counts(&report);
        let (json, serialize_s) = serialize(&report);
        Rep {
            wall_s,
            stretches: stretches.secs,
            submitted: submitted as u64,
            lost,
            duplicated,
            report: json,
            serialize_s,
            virt,
            counts,
        }
    }
}

/// Client-side state of one session item: which of its stages resolved,
/// how, and when the last one finished.
#[derive(Debug, Clone, Copy)]
struct ItemState {
    arrival: u64,
    deadline: u64,
    stages: u32,
    seen: u32,
    served: u32,
    max_finish: u64,
    duplicated: bool,
}

/// Exactly-once and latency bookkeeping over session items.
#[derive(Debug, Default)]
struct Items {
    states: Vec<ItemState>,
    /// Outcomes naming an item or stage that was never submitted.
    strays: u64,
    latency: LatencySketch,
    attained: u64,
}

impl Items {
    fn open(&mut self, id: usize, kind: &SessionItemKind) {
        let (arrival, deadline, stages) = match kind {
            SessionItemKind::Point(r) => (r.arrival_cycles, r.deadline_cycles, 1),
            SessionItemKind::Dag(d) => (d.arrival_cycles, d.deadline_cycles, d.stage_gaps.len()),
        };
        if id != self.states.len() || stages > 32 {
            self.strays += 1;
        }
        self.states.push(ItemState {
            arrival,
            deadline,
            stages: stages.min(32) as u32,
            seen: 0,
            served: 0,
            max_finish: 0,
            duplicated: false,
        });
    }

    fn absorb(&mut self, done: &[StageOutcome]) {
        for o in done {
            let Some(state) = self.states.get_mut(o.item).filter(|_| o.stage < 32) else {
                self.strays += 1;
                continue;
            };
            let bit = 1u32 << o.stage;
            if state.seen & bit != 0 || o.stage as u32 >= state.stages {
                state.duplicated = true;
                continue;
            }
            state.seen |= bit;
            if let StageStatus::Fleet {
                status: CompletionStatus::Served { finish_cycles, .. },
                ..
            } = o.status
            {
                state.served += 1;
                state.max_finish = state.max_finish.max(finish_cycles);
            }
            if state.seen.count_ones() == state.stages && state.served == state.stages {
                self.latency
                    .record(state.max_finish.saturating_sub(state.arrival));
                self.attained += u64::from(state.max_finish <= state.deadline);
            }
        }
    }

    /// Items with a stage never resolved, and items with a stage resolved
    /// twice (stray outcomes count as duplicates).
    fn settle(&self) -> (u64, u64) {
        let lost = self
            .states
            .iter()
            .filter(|s| s.seen.count_ones() < s.stages)
            .count() as u64;
        let duplicated = self.states.iter().filter(|s| s.duplicated).count() as u64;
        (lost, duplicated + self.strays)
    }
}

/// Replay-cost probe of the cycle-accurate backend on every compiled plan:
/// median host ms of `execute_with_session` at seed offsets never replayed
/// before, and at one offset replayed repeatedly.  Returns the means over
/// plans of both medians.
pub fn replay_probe(deployment: &Deployment, reps: usize) -> (f64, f64) {
    let mut fresh = Vec::new();
    let mut cached = Vec::new();
    let mut offset = 0xB0A7_0000_0000_0001u64;
    for runtime in deployment.runtimes() {
        for plan in runtime.plans() {
            let mut session = pim_sim::chip::SimSession::new();
            let mut time = |offset: u64| {
                let start = Instant::now();
                std::hint::black_box(plan.execute_with_session(&mut session, offset));
                start.elapsed().as_secs_f64() * 1e3
            };
            let unseen: Vec<f64> = (0..reps)
                .map(|_| {
                    offset = offset.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    time(offset)
                })
                .collect();
            time(offset);
            let repeated: Vec<f64> = (0..reps).map(|_| time(offset)).collect();
            fresh.push(crate::stats::median(&unseen).unwrap_or(0.0));
            cached.push(crate::stats::median(&repeated).unwrap_or(0.0));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&fresh), mean(&cached))
}

/// Host ns per `AnalyticalPlan::adjusted_cycles` call, over every
/// calibrated plan of the deployment.
pub fn lookup_probe(deployment: &Deployment, calls: usize) -> f64 {
    let plans: Vec<_> = deployment
        .runtimes()
        .iter()
        .filter_map(ServeRuntime::analytical_plans)
        .flatten()
        .collect();
    if plans.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for i in 0..calls {
        let plan = std::hint::black_box(plans[i % plans.len()]);
        sum = sum.wrapping_add(plan.adjusted_cycles(std::hint::black_box(1.0)));
    }
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Host ns per item to drain the workload's generated stream alone, with
/// no program behind it.
pub fn stream_probe(workload: Workload, seed: u64) -> f64 {
    let requests = workload.requests();
    let start = Instant::now();
    let items = match workload {
        Workload::HyperscaleVerify | Workload::HyperscaleFast => {
            TraceStream::new(&hyper_traffic(requests, seed))
                .map(std::hint::black_box)
                .count()
        }
        Workload::GlobalOutage => {
            let traffic = global_traffic(requests, seed);
            let crowd = with_flash_crowds(
                &[],
                &global_plan(requests),
                traffic.deadline_slack_cycles,
                traffic.seed,
            );
            Merged {
                base: TraceStream::new(&traffic).peekable(),
                crowd: crowd.into_iter().peekable(),
            }
            .map(std::hint::black_box)
            .count()
        }
        Workload::DagSessions => SessionStream::new(&dag_session(requests, seed))
            .map(std::hint::black_box)
            .count(),
    };
    start.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}
