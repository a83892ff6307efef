//! Serving-runtime smoke benchmark: compiles four zoo models once, replays a
//! bursty synthetic traffic trace across a fleet of simulated chips, checks
//! the determinism contract, and appends a labelled record to
//! `BENCH_chip_sim.json` at the repository root.
//!
//! Usage:
//! `cargo run --release -p aim-bench --bin serve_smoke [-- --label <name>]
//!  [--backend cycle-accurate|analytical]
//!  [--mode offline|online|fleet|dag|global|hyperscale] [--check-regression]
//!  [--requests <n>] [--bench-out <path>]`
//!
//! `--bench-out` names the trajectory file the regression baseline is read
//! from and the record is appended to (default: `BENCH_chip_sim.json` at
//! the root of the checkout the binary was built in).
//!
//! With `--mode hyperscale` the benchmark streams a **million-request**
//! diurnal-wave trace (`--requests` overrides the count) straight off the
//! [`TraceStream`] generator into a 64-shard × 4-chip analytical fleet with
//! chip deaths, a degradation episode and elastic scaling live.  Nothing
//! scales with the request count: the trace is never materialised, latency
//! pools are fixed-size sketches, served session state retires as groups
//! resolve, and the streamed-outcome buffer is capped.  The run gates on
//! request conservation, on byte-identical reports between a parallel
//! coarse-stepped and a sequential fine-stepped session (worker-count and
//! `run_until`-granularity independence at scale), on peak process RSS
//! (`VmHWM`) staying under a ceiling independent of the request count, and
//! (with `--check-regression`) on `serve_hyper_virtual_rps`, against the
//! last recorded run of the same request count.
//!
//! With `--mode fleet` the benchmark drives a 2-shard [`FleetSession`]
//! through a scripted chaos drill — one chip death mid-burst, one
//! degradation/recovery episode, elastic scaling live — and gates on
//! request conservation (nothing lost to the faults), failover actually
//! firing, byte-determinism across replays, and (with `--check-regression`)
//! the per-backend virtual throughput under faults
//! (`serve_fleet_virtual_rps` / `serve_fleet_ana_virtual_rps`).
//!
//! With `--mode dag` the benchmark replays a conversational session — a
//! mixed population of point requests and multi-stage request DAGs
//! (cascades, fan-out/join ensembles, think-gap conversations) — through
//! the [`DagOrchestrator`] over a 2-shard fleet with a chip death landing
//! between cascade stages.  It gates on stage conservation (every stage of
//! every DAG resolves exactly once; the stage ledger balances), on
//! byte-determinism across replays, on priority inheritance *measurably
//! protecting* the latency-sensitive tail: the p99 of tail-stage
//! completion with inheritance on must beat an inheritance-off control run
//! of the same session, and (with `--check-regression`) on the per-backend
//! virtual throughput (`serve_dag_virtual_rps` / `serve_dag_ana_virtual_rps`).
//!
//! With `--mode global` the benchmark stands up a two-region
//! [`GlobalRouter`] deployment — low-power silicon west, sprint silicon
//! east — and scripts a region loss mid-burst, a best-effort flash crowd
//! while the fleet is a region short, and a late failback.  It gates on
//! request conservation *across the region loss* (served + rejected + shed
//! equals submitted), byte-determinism across replays, the migration
//! machinery actually firing, and (with `--check-regression`) the
//! per-backend virtual throughput under region loss
//! (`serve_global_virtual_rps` / `serve_global_ana_virtual_rps`).
//!
//! With `--mode online` the benchmark drives the event-driven `ServeSession`
//! instead of the offline wrapper: a fully *interleaved* mixed-SLO trace
//! (20 % latency-sensitive / 30 % best-effort, `burst_repeat_prob` 0 so the
//! old consecutive-only scan cannot batch it) is submitted request by
//! request with periodic `run_until`/`poll_completions` stepping, and the
//! record carries the per-SLO-class p99 split, the realised batching ratio
//! versus the offline `form_groups` baseline, and how many outcomes streamed
//! out before the final drain.  The run gates on determinism and on the
//! session batcher dominating the offline scan's batching ratio; with
//! `--check-regression` it also gates its virtual throughput
//! (`serve_online_virtual_rps` / `serve_online_ana_virtual_rps` per
//! backend).
//!
//! With `--backend analytical` the same fleet is additionally served through
//! the calibrated analytical backend (sampled verification on), and the run
//! gates on three properties: reports stay deterministic, the observed
//! analytical-vs-cycle-accurate cycle drift stays within the calibrated
//! error bound, and replaying the trace analytically is at least 10× faster
//! than the cycle-accurate fleet at equal chip count.
//!
//! With `--check-regression` the binary compares its *virtual* serving
//! throughput (requests per second of simulated chip time — deterministic
//! and machine-independent) against the last matching record in the
//! trajectory file and exits nonzero on a >20 % regression (the CI gate);
//! each backend gates against its own field (`serve_virtual_rps` vs
//! `serve_ana_virtual_rps`) so the matrix legs never cross-contaminate.
//! Wall-clock figures are recorded alongside but never gated across
//! machines.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use aim_bench::{append_bench_record, bench_out_arg, last_bench_value, last_matching_value};
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::scheduler::form_groups;
use aim_serve::{
    CompletionStatus, DagOrchestrator, DagOrchestratorConfig, DispatchPolicy, FleetConfig,
    FleetReport, FleetSession, GlobalConfig, GlobalReport, GlobalRouter, RegionSpec, RetryConfig,
    RoutePolicy, ScalingConfig, ServeConfig, ServeReport, ServeRuntime, ShardPolicy, ShedPolicy,
    StageOutcome, StageStatus,
};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use serde::Serialize;
use workloads::dag::{standard_templates, SessionConfig, SessionItemKind};
use workloads::inputs::{
    synthetic_trace, with_flash_crowds, ArrivalShape, FaultEvent, FaultKind, FaultPlan,
    RegionFaultEvent, RegionFaultKind, RegionFaultPlan, SloClass, SloMix, TraceRequest,
    TraceStream, TrafficConfig,
};
use workloads::zoo::Model;

#[derive(Serialize)]
struct ServeSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    /// Models in the served zoo.
    serve_models: usize,
    /// Simulated chips in the fleet.
    serve_chips: usize,
    /// Requests in the replayed trace.
    serve_requests: usize,
    /// One-time compile cost of all plans (QAT/WDS/mapping), ms.
    serve_compile_ms: f64,
    /// Wall-clock ms of one full trace replay (best of `REPS`).
    serve_wall_ms: f64,
    /// Served requests per wall-clock second (trajectory info only — wall
    /// clock is machine-dependent and never gated).
    serve_wall_rps: f64,
    /// Served requests per second of virtual chip time (deterministic; the
    /// regression-gated figure).
    serve_virtual_rps: f64,
    /// Latency percentiles over served requests, virtual µs (1 GHz nominal).
    serve_p50_us: f64,
    serve_p95_us: f64,
    serve_p99_us: f64,
    /// Mean executed batch size (dynamic-batching leverage).
    serve_mean_batch: f64,
    /// Mean per-chip utilization over the run.
    serve_mean_utilization: f64,
    serve_deadline_misses: usize,
    serve_rejected: usize,
    /// Whether repeated replays produced byte-identical reports.
    serve_deterministic: bool,
}

/// Trajectory record of an analytical-backend leg (`--backend analytical`).
/// Field names are disjoint from the cycle-accurate record so the textual
/// `last_bench_value` scan gates each backend against its own history.
#[derive(Serialize)]
struct AnalyticalSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_ana_chips: usize,
    serve_ana_requests: usize,
    /// One-time calibration cost of the analytical plan views, ms.
    serve_ana_calibrate_ms: f64,
    /// Wall-clock ms of one analytical trace replay (best of `REPS`).
    serve_ana_wall_ms: f64,
    /// Wall-clock ms of one cycle-accurate replay of the same trace on the
    /// same fleet (best of `REPS`) — the speedup baseline.
    serve_ana_baseline_wall_ms: f64,
    /// Analytical replay speedup over the cycle-accurate fleet.
    serve_ana_speedup: f64,
    /// Served requests per second of virtual chip time under the analytical
    /// fleet (regression-gated).
    serve_ana_virtual_rps: f64,
    /// Sampled-verification drift versus the calibrated error bound.
    serve_ana_verified_groups: usize,
    serve_ana_drift_mean: f64,
    serve_ana_drift_max: f64,
    serve_ana_error_bound: f64,
    serve_ana_within_bound: bool,
    serve_ana_deterministic: bool,
}

/// Trajectory record of an online-session leg (`--mode online`).  Field
/// names are disjoint per backend so the textual `last_bench_value` scan
/// gates each matrix leg against its own history.
#[derive(Serialize)]
struct OnlineSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_online_backend: String,
    serve_online_chips: usize,
    serve_online_requests: usize,
    /// Wall-clock ms of one full submit/step/poll/drain session (best of
    /// `REPS`).
    serve_online_wall_ms: f64,
    /// Served requests per second of virtual chip time (deterministic; the
    /// regression-gated figure).  `None` (recorded as `null`, which the
    /// textual trajectory scan skips) on the analytical leg, which gates on
    /// `serve_online_ana_virtual_rps` instead — disjoint per backend so the
    /// matrix legs never cross-contaminate.
    serve_online_virtual_rps: Option<f64>,
    /// The analytical leg's gated virtual throughput; `None` elsewhere.
    serve_online_ana_virtual_rps: Option<f64>,
    /// Mean executed batch size of the online batcher.
    serve_online_mean_batch: f64,
    /// Mean batch size the offline consecutive-only `form_groups` scan
    /// achieves on the same trace — the baseline the session must dominate.
    serve_online_offline_scan_mean_batch: f64,
    /// Outcomes that streamed out of `poll_completions` before the final
    /// drain.
    serve_online_streamed_before_drain: usize,
    serve_online_p50_us: f64,
    serve_online_p99_us: f64,
    /// Per-SLO-class p99 latency split (virtual µs at 1 GHz nominal).
    serve_online_p99_latency_sensitive_us: f64,
    serve_online_p99_standard_us: f64,
    serve_online_p99_best_effort_us: f64,
    serve_online_latency_sensitive_requests: usize,
    serve_online_best_effort_requests: usize,
    serve_online_deadline_misses: usize,
    serve_online_rejected: usize,
    serve_online_deterministic: bool,
}

/// Trajectory record of a fleet-mode leg (`--mode fleet`).  Field names are
/// disjoint per backend so the textual `last_bench_value` scan gates each
/// matrix leg against its own history.
#[derive(Serialize)]
struct FleetSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_fleet_backend: String,
    serve_fleet_shards: usize,
    serve_fleet_chips_per_shard: usize,
    serve_fleet_requests: usize,
    /// Wall-clock ms of one full chaos session (best of `REPS`).
    serve_fleet_wall_ms: f64,
    /// Served requests per second of virtual chip time under faults
    /// (deterministic; the regression-gated figure).  `None` on the
    /// analytical leg, which gates on `serve_fleet_ana_virtual_rps`.
    serve_fleet_virtual_rps: Option<f64>,
    /// The analytical leg's gated virtual throughput; `None` elsewhere.
    serve_fleet_ana_virtual_rps: Option<f64>,
    serve_fleet_chip_deaths: usize,
    serve_fleet_degradations: usize,
    serve_fleet_requests_failed_over: usize,
    serve_fleet_chip_seconds_lost: f64,
    serve_fleet_scale_ups: usize,
    serve_fleet_scale_downs: usize,
    serve_fleet_peak_workers: usize,
    /// Per-class SLO attainment under the injected faults.
    serve_fleet_attainment_latency_sensitive: f64,
    serve_fleet_attainment_standard: f64,
    serve_fleet_attainment_best_effort: f64,
    /// Whether every submitted request was served or rejected exactly once
    /// despite the chaos (the conservation gate).
    serve_fleet_conserved: bool,
    serve_fleet_deterministic: bool,
    /// Sampled-verification cadence this leg ran with (0 = off).  The
    /// analytical fleet verifies in-band now that cycle-accurate replays are
    /// cheap; the cycle-accurate leg has nothing to verify.
    serve_fleet_verify_every: usize,
    /// Audit-drift figures from the in-fleet sampled verification; `None`
    /// on the cycle-accurate leg.
    serve_fleet_verified_groups: Option<usize>,
    serve_fleet_drift_max: Option<f64>,
    serve_fleet_error_bound: Option<f64>,
    serve_fleet_within_bound: Option<bool>,
    /// Online calibration-loop figures from the timed (honest) analytical
    /// leg; `None` on the cycle-accurate leg.  The honest fleet must report
    /// zero demotions — a demotion here is a false alarm.
    serve_recal_samples: Option<u64>,
    serve_recal_recalibrations: Option<u64>,
    serve_recal_demotions: Option<u64>,
    /// Figures from the untimed demotion drill: the same chaos session with
    /// model 0's calibration deliberately distorted 1.6×.  The loop must
    /// demote the lying model (teeth) and — because recalibration folds the
    /// lie into the online multiplier — promote it back once the adjusted
    /// predictions return within bound.
    serve_recal_drill_demotions: Option<u64>,
    serve_recal_drill_promotions: Option<u64>,
    serve_recal_drill_recalibrations: Option<u64>,
}

const REPS: usize = 3;

/// The served zoo: per-model operator strides keep the one-time compile cost
/// in the seconds range while preserving each model's operator mix.
fn compile_zoo() -> Vec<CompiledPlan> {
    compile_zoo_with(AimConfig::full_low_power())
}

/// The zoo under an arbitrary chip config — global mode compiles it twice,
/// once per region hardware tier.
fn compile_zoo_with(base: AimConfig) -> Vec<CompiledPlan> {
    let quick = |stride: usize| AimConfig {
        operator_stride: Some(stride),
        cycles_per_slice: 150,
        mapping: aim_core::mapping::MappingStrategy::Sequential,
        ..base
    };
    let zoo: Vec<(Model, AimConfig)> = vec![
        (Model::resnet18(), quick(5)),
        (Model::mobilenet_v2(), quick(7)),
        (Model::vit_base(), quick(7)),
        (Model::gpt2(), quick(7)),
    ];
    use rayon::prelude::*;
    zoo.par_iter()
        .map(|(model, config)| CompiledPlan::compile(model, config))
        .collect()
}

fn serve_config(chips: usize) -> ServeConfig {
    ServeConfig::builder()
        .chips(chips)
        .max_batch(8)
        .batch_window_cycles(30_000)
        .reload_cycles_per_slice(64)
        .dispatch(DispatchPolicy::LeastLoaded)
        .admission(None)
        .parallel(true)
        .seed(0xC0FFEE)
        .build()
}

fn smoke_trace(models: usize) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests: 192,
        models,
        mean_interarrival_cycles: 3_000.0,
        burst_repeat_prob: 0.65,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::AllStandard,
        seed: 0x77ACE,
    })
}

/// The online-mode scenario: fully interleaved mixed-SLO traffic.  With
/// `burst_repeat_prob: 0.0` consecutive same-model runs are rare, so the
/// offline consecutive-only scan barely batches — exactly the gap the
/// session's per-model pending queues close.
fn online_trace(models: usize) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests: 192,
        models,
        mean_interarrival_cycles: 3_000.0,
        burst_repeat_prob: 0.0,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: 0x0511E,
    })
}

/// Replays `trace` `REPS` times; returns the last report, the best wall
/// time (ms) and whether all reports were byte-identical.
fn bench_serve(
    runtime: &ServeRuntime,
    trace: &[workloads::inputs::TraceRequest],
) -> (ServeReport, f64, bool) {
    let mut wall_ms = f64::INFINITY;
    let mut reports: Vec<ServeReport> = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let report = runtime.serve(trace);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        reports.push(report);
    }
    let report = reports.pop().expect("at least one rep");
    let deterministic = reports
        .iter()
        .all(|r| serde_json::to_string(r).ok() == serde_json::to_string(&report).ok());
    (report, wall_ms, deterministic)
}

/// Drives one full online session: submissions in arrival order, a
/// `run_until` + `poll_completions` step every 16 requests (streaming
/// completed work out mid-trace), then a final drain.  Returns the report,
/// how many outcomes streamed before the drain, and the wall time (ms).
fn run_online_session(runtime: &ServeRuntime, trace: &[TraceRequest]) -> (ServeReport, usize, f64) {
    let start = Instant::now();
    let mut session = runtime.session();
    let mut streamed = 0usize;
    for (i, request) in trace.iter().enumerate() {
        session.submit(*request);
        if i % 16 == 15 {
            session.run_until(request.arrival_cycles);
            streamed += session.poll_completions().len();
        }
    }
    let report = session.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (report, streamed, wall_ms)
}

#[allow(clippy::too_many_lines)]
fn run_online(
    label: &str,
    backend: BackendKind,
    check_regression: bool,
    bench_out: &Path,
) -> ExitCode {
    let gate_field = match backend {
        BackendKind::CycleAccurate => "serve_online_virtual_rps",
        BackendKind::Analytical => "serve_online_ana_virtual_rps",
    };
    let previous_rps = last_bench_value(bench_out, gate_field);

    let plans = compile_zoo();
    let serve_models = plans.len();
    let config = ServeConfig {
        backend,
        ..serve_config(8)
    };
    let runtime = ServeRuntime::from_plans(plans, config);
    let trace = online_trace(serve_models);

    // The offline consecutive-only scan is the batching baseline the
    // session's per-model queues must dominate.
    let offline_groups = form_groups(&trace, config.max_batch, config.batch_window_cycles);
    let offline_mean_batch = trace.len() as f64 / offline_groups.len() as f64;

    let mut wall_ms = f64::INFINITY;
    let mut streamed = 0usize;
    let mut reports: Vec<ServeReport> = Vec::new();
    for _ in 0..REPS {
        let (report, s, ms) = run_online_session(&runtime, &trace);
        wall_ms = wall_ms.min(ms);
        streamed = s;
        reports.push(report);
    }
    let report = reports.pop().expect("at least one rep");
    let json = |r: &ServeReport| serde_json::to_string(r).ok();
    // Determinism covers both repeat runs *and* equivalence with the
    // offline wrapper (`serve` = submit-all-then-drain through the same
    // session machinery).
    let deterministic = reports.iter().all(|r| json(r) == json(&report))
        && json(&runtime.serve(&trace)) == json(&report);

    let class_stats = |class: SloClass| {
        report
            .per_class
            .iter()
            .find(|c| c.class == class)
            .copied()
            .expect("report carries every class row")
    };
    let ls = class_stats(SloClass::LatencySensitive);
    let std_class = class_stats(SloClass::Standard);
    let be = class_stats(SloClass::BestEffort);

    let record = OnlineSmokeRecord {
        label: label.to_string(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_online_backend: match backend {
            BackendKind::CycleAccurate => "cycle-accurate".to_string(),
            BackendKind::Analytical => "analytical".to_string(),
        },
        serve_online_chips: report.chips,
        serve_online_requests: report.total_requests,
        serve_online_wall_ms: wall_ms,
        serve_online_virtual_rps: (backend == BackendKind::CycleAccurate)
            .then_some(report.throughput_rps),
        serve_online_ana_virtual_rps: (backend == BackendKind::Analytical)
            .then_some(report.throughput_rps),
        serve_online_mean_batch: report.mean_batch_size,
        serve_online_offline_scan_mean_batch: offline_mean_batch,
        serve_online_streamed_before_drain: streamed,
        serve_online_p50_us: report.latency_p50_cycles as f64 / 1e3,
        serve_online_p99_us: report.latency_p99_cycles as f64 / 1e3,
        serve_online_p99_latency_sensitive_us: ls.latency_p99_cycles as f64 / 1e3,
        serve_online_p99_standard_us: std_class.latency_p99_cycles as f64 / 1e3,
        serve_online_p99_best_effort_us: be.latency_p99_cycles as f64 / 1e3,
        serve_online_latency_sensitive_requests: ls.total,
        serve_online_best_effort_requests: be.total,
        serve_online_deadline_misses: report.deadline_misses,
        serve_online_rejected: report.rejected_requests,
        serve_online_deterministic: deterministic,
    };

    println!(
        "serve_smoke [{}] (online session, {} fleet)",
        record.label, record.serve_online_backend
    );
    println!(
        "  fleet              : {} chips, {} requests ({} latency-sensitive / {} best-effort)",
        record.serve_online_chips,
        record.serve_online_requests,
        record.serve_online_latency_sensitive_requests,
        record.serve_online_best_effort_requests
    );
    println!(
        "  batching           : mean batch {:.2} online vs {:.2} offline consecutive scan",
        record.serve_online_mean_batch, record.serve_online_offline_scan_mean_batch
    );
    println!(
        "  streaming          : {} of {} outcomes polled before drain",
        record.serve_online_streamed_before_drain, record.serve_online_requests
    );
    println!(
        "  throughput         : {:>9.0} req/s virtual   ({:.1} ms wall/session)",
        report.throughput_rps, record.serve_online_wall_ms
    );
    println!(
        "  latency p99 (us)   : {:.1} overall | {:.1} latency-sensitive  {:.1} standard  {:.1} best-effort",
        record.serve_online_p99_us,
        record.serve_online_p99_latency_sensitive_us,
        record.serve_online_p99_standard_us,
        record.serve_online_p99_best_effort_us
    );
    println!(
        "  deterministic      : {} ({} deadline misses, {} rejected)",
        record.serve_online_deterministic,
        record.serve_online_deadline_misses,
        record.serve_online_rejected
    );

    append_bench_record(bench_out, &record);

    if !record.serve_online_deterministic {
        eprintln!("error: online session replays diverged from each other or from serve() — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if record.serve_online_mean_batch + 1e-9 < record.serve_online_offline_scan_mean_batch {
        eprintln!(
            "error: online batcher ({:.2}) fell below the offline consecutive scan ({:.2})",
            record.serve_online_mean_batch, record.serve_online_offline_scan_mean_batch
        );
        return ExitCode::FAILURE;
    }
    if record.serve_online_mean_batch <= 1.0 {
        eprintln!(
            "error: interleaved trace did not batch (mean {:.2}) — the per-model queues regressed",
            record.serve_online_mean_batch
        );
        return ExitCode::FAILURE;
    }
    if check_regression {
        if let Err(msg) = regression_gate(gate_field, report.throughput_rps, previous_rps) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The fleet-mode chaos: one chip death mid-burst plus one
/// degradation/recovery episode, against a 2-shard fleet with elastic
/// scaling — the production failure drill, deterministic end to end.
fn fleet_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 80_000,
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: 160_000,
            kind: FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 75,
            },
        },
        FaultEvent {
            at_cycles: 320_000,
            kind: FaultKind::Recovery { shard: 1, chip: 0 },
        },
    ])
}

fn fleet_config() -> FleetConfig {
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

/// The fleet-mode trace: the online scenario's interleaved mixed-SLO
/// traffic, denser so the chaos strikes a loaded fleet.
fn fleet_trace(models: usize) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests: 192,
        models,
        mean_interarrival_cycles: 1_200.0,
        burst_repeat_prob: 0.3,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: 0xF1EE5,
    })
}

#[allow(clippy::too_many_lines)]
fn run_fleet(
    label: &str,
    backend: BackendKind,
    check_regression: bool,
    bench_out: &Path,
) -> ExitCode {
    let gate_field = match backend {
        BackendKind::CycleAccurate => "serve_fleet_virtual_rps",
        BackendKind::Analytical => "serve_fleet_ana_virtual_rps",
    };
    let previous_rps = last_bench_value(bench_out, gate_field);

    let plans = compile_zoo();
    let serve_models = plans.len();
    // The analytical fleet now carries sampled verification *in-band*
    // (every 8th analytical group replayed cycle-accurately) — the
    // compile-once template and fused kernel made those audit replays cheap
    // enough to spend inside the timed chaos session.  Cycle-accurate
    // fleets have nothing to verify, so their cadence stays 0.
    let verify_every = match backend {
        BackendKind::Analytical => 8,
        BackendKind::CycleAccurate => 0,
    };
    // The analytical leg also closes the calibration loop: the sampled
    // verification replays double as drift sensors, so the timed chaos
    // session exercises online recalibration at its default cadence.  An
    // honest fleet must come out with zero demotions — a demotion here
    // means health derates or chaos were misread as model drift.
    let calibration = match backend {
        BackendKind::Analytical => Some(CalibrationLoopConfig::default()),
        BackendKind::CycleAccurate => None,
    };
    let config = ServeConfig {
        backend,
        chips: 4,
        verify_every,
        calibration,
        ..serve_config(4)
    };
    let runtime = ServeRuntime::from_plans(plans.clone(), config);
    let trace = fleet_trace(serve_models);

    let mut wall_ms = f64::INFINITY;
    let mut reports: Vec<FleetReport> = Vec::new();
    let mut conserved = true;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut fleet = FleetSession::new(&runtime, fleet_config(), fleet_faults());
        for request in &trace {
            fleet.submit(*request);
        }
        let report = fleet.drain();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let outcomes = fleet.poll_completions();
        conserved &= outcomes.len() == trace.len()
            && report.serve.total_requests == trace.len()
            && report.serve.served_requests + report.serve.rejected_requests
                == report.serve.total_requests;
        reports.push(report);
    }
    let report = reports.pop().expect("at least one rep");
    let json = |r: &FleetReport| serde_json::to_string(r).ok();
    let deterministic = reports.iter().all(|r| json(r) == json(&report));

    // Untimed demotion drill (analytical leg only): replay the same chaos
    // session with model 0's calibration deliberately distorted 1.6x under
    // an aggressive loop config.  The loop must demote the lying model —
    // and, because recalibration folds the lie into the online multiplier,
    // promote it back once adjusted predictions return within bound.  Runs
    // outside the timed reps so it never pollutes the throughput gate.
    let drill = (backend == BackendKind::Analytical).then(|| {
        let drill_config = ServeConfig {
            verify_every: 4,
            calibration: Some(
                CalibrationLoopConfig::builder()
                    .ewma_decay(0.5)
                    .demote_streak(1)
                    .promote_streak(2)
                    .build(),
            ),
            ..config
        };
        let mut drill_runtime = ServeRuntime::from_plans(plans, drill_config);
        drill_runtime.distort_model_calibration(0, 1.6);
        let mut fleet = FleetSession::new(&drill_runtime, fleet_config(), fleet_faults());
        for request in &trace {
            fleet.submit(*request);
        }
        let drill_report = fleet.drain();
        drill_report
            .serve
            .calibration
            .expect("the drill leg runs with the calibration loop on")
    });

    let attainment = |class: SloClass| {
        report
            .availability
            .per_class_slo_attainment
            .iter()
            .find(|c| c.class == class)
            .map_or(1.0, |c| c.attainment)
    };
    let record = FleetSmokeRecord {
        label: label.to_string(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_fleet_backend: backend.name().to_string(),
        serve_fleet_shards: report.availability.shards,
        serve_fleet_chips_per_shard: config.chips,
        serve_fleet_requests: report.serve.total_requests,
        serve_fleet_wall_ms: wall_ms,
        serve_fleet_virtual_rps: (backend == BackendKind::CycleAccurate)
            .then_some(report.serve.throughput_rps),
        serve_fleet_ana_virtual_rps: (backend == BackendKind::Analytical)
            .then_some(report.serve.throughput_rps),
        serve_fleet_chip_deaths: report.availability.chip_deaths,
        serve_fleet_degradations: report.availability.degradations,
        serve_fleet_requests_failed_over: report.availability.requests_failed_over,
        serve_fleet_chip_seconds_lost: report.availability.chip_seconds_lost,
        serve_fleet_scale_ups: report.availability.scale_ups,
        serve_fleet_scale_downs: report.availability.scale_downs,
        serve_fleet_peak_workers: report.availability.peak_workers,
        serve_fleet_attainment_latency_sensitive: attainment(SloClass::LatencySensitive),
        serve_fleet_attainment_standard: attainment(SloClass::Standard),
        serve_fleet_attainment_best_effort: attainment(SloClass::BestEffort),
        serve_fleet_conserved: conserved,
        serve_fleet_deterministic: deterministic,
        serve_fleet_verify_every: verify_every,
        serve_fleet_verified_groups: report.serve.verification.as_ref().map(|v| v.sampled),
        serve_fleet_drift_max: report
            .serve
            .verification
            .as_ref()
            .map(|v| v.max_cycle_drift),
        serve_fleet_error_bound: report.serve.verification.as_ref().map(|v| v.error_bound),
        serve_fleet_within_bound: report.serve.verification.as_ref().map(|v| v.within_bound),
        serve_recal_samples: report.serve.calibration.as_ref().map(|c| c.samples),
        serve_recal_recalibrations: report.serve.calibration.as_ref().map(|c| c.recalibrations),
        serve_recal_demotions: report.serve.calibration.as_ref().map(|c| c.demotions),
        serve_recal_drill_demotions: drill.as_ref().map(|c| c.demotions),
        serve_recal_drill_promotions: drill.as_ref().map(|c| c.promotions),
        serve_recal_drill_recalibrations: drill.as_ref().map(|c| c.recalibrations),
    };

    println!(
        "serve_smoke [{}] (fleet mode, {} fleet)",
        record.label, record.serve_fleet_backend
    );
    println!(
        "  fleet              : {} shards x {} chips, {} requests",
        record.serve_fleet_shards, record.serve_fleet_chips_per_shard, record.serve_fleet_requests
    );
    println!(
        "  chaos              : {} deaths, {} degradations, {} requests failed over, {:.1} chip-us lost",
        record.serve_fleet_chip_deaths,
        record.serve_fleet_degradations,
        record.serve_fleet_requests_failed_over,
        record.serve_fleet_chip_seconds_lost * 1e6
    );
    println!(
        "  elasticity         : {} scale-ups, {} scale-downs, peak {} workers",
        record.serve_fleet_scale_ups,
        record.serve_fleet_scale_downs,
        record.serve_fleet_peak_workers
    );
    println!(
        "  slo attainment     : {:.3} latency-sensitive  {:.3} standard  {:.3} best-effort",
        record.serve_fleet_attainment_latency_sensitive,
        record.serve_fleet_attainment_standard,
        record.serve_fleet_attainment_best_effort
    );
    println!(
        "  throughput         : {:>9.0} req/s virtual   ({:.1} ms wall/session)",
        report.serve.throughput_rps, record.serve_fleet_wall_ms
    );
    println!(
        "  conserved          : {} | deterministic: {}",
        record.serve_fleet_conserved, record.serve_fleet_deterministic
    );
    if let (Some(sampled), Some(drift), Some(bound)) = (
        record.serve_fleet_verified_groups,
        record.serve_fleet_drift_max,
        record.serve_fleet_error_bound,
    ) {
        println!(
            "  verification       : every {} groups, {} sampled, drift max {:.4}, bound {:.4} ({})",
            record.serve_fleet_verify_every,
            sampled,
            drift,
            bound,
            if record.serve_fleet_within_bound == Some(true) {
                "within bound"
            } else {
                "EXCEEDED"
            }
        );
    }
    if let (Some(samples), Some(recals), Some(demotions)) = (
        record.serve_recal_samples,
        record.serve_recal_recalibrations,
        record.serve_recal_demotions,
    ) {
        println!(
            "  calibration loop   : {samples} drift samples, {recals} recalibrations, {demotions} demotions (honest fleet)"
        );
    }
    if let (Some(demotions), Some(promotions), Some(recals)) = (
        record.serve_recal_drill_demotions,
        record.serve_recal_drill_promotions,
        record.serve_recal_drill_recalibrations,
    ) {
        println!(
            "  demotion drill     : 1.6x lie on model 0 -> {demotions} demotions, {promotions} promotions, {recals} recalibrations"
        );
    }

    append_bench_record(bench_out, &record);

    if !record.serve_fleet_conserved {
        eprintln!("error: chaos lost or duplicated requests — conservation contract broken");
        return ExitCode::FAILURE;
    }
    if !record.serve_fleet_deterministic {
        eprintln!("error: fleet replays diverged — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if record.serve_fleet_requests_failed_over == 0 {
        eprintln!(
            "error: the scripted chip death failed over no requests — the drill lost its teeth"
        );
        return ExitCode::FAILURE;
    }
    if record.serve_fleet_within_bound == Some(false) {
        eprintln!(
            "error: in-fleet sampled verification drift {:?} exceeds the calibrated bound {:?}",
            record.serve_fleet_drift_max, record.serve_fleet_error_bound
        );
        return ExitCode::FAILURE;
    }
    if record.serve_recal_demotions.is_some_and(|d| d > 0) {
        eprintln!(
            "error: the honest fleet demoted {} model(s) — health derates or chaos were misread as calibration drift",
            record.serve_recal_demotions.unwrap_or(0)
        );
        return ExitCode::FAILURE;
    }
    if backend == BackendKind::Analytical {
        if record.serve_recal_drill_demotions.is_none_or(|d| d == 0) {
            eprintln!(
                "error: the 1.6x mis-calibrated model was never demoted — the drift loop lost its teeth"
            );
            return ExitCode::FAILURE;
        }
        if record.serve_recal_drill_promotions.is_none_or(|p| p == 0) {
            eprintln!(
                "error: the demoted model never healed back — recalibration failed to fold the lie into the online multiplier"
            );
            return ExitCode::FAILURE;
        }
    }
    if check_regression {
        if let Err(msg) = regression_gate(gate_field, report.serve.throughput_rps, previous_rps) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Trajectory record of a DAG-mode leg (`--mode dag`).  Field names are
/// disjoint per backend so the textual `last_bench_value` scan gates each
/// matrix leg against its own history.
#[derive(Serialize)]
struct DagSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_dag_backend: String,
    /// Fleet-level submissions (points + submitted stages).
    serve_dag_requests: usize,
    serve_dag_dags: usize,
    serve_dag_points: usize,
    serve_dag_stages: usize,
    /// Wall-clock ms of one full orchestrated chaos session (best of
    /// `REPS`).
    serve_dag_wall_ms: f64,
    /// Served requests per second of virtual chip time through the
    /// orchestrator (deterministic; the regression-gated figure).  `None`
    /// on the analytical leg, which gates on `serve_dag_ana_virtual_rps`.
    serve_dag_virtual_rps: Option<f64>,
    /// The analytical leg's gated virtual throughput; `None` elsewhere.
    serve_dag_ana_virtual_rps: Option<f64>,
    serve_dag_completed: usize,
    serve_dag_failed: usize,
    serve_dag_deadline_misses: usize,
    /// Whole-DAG end-to-end p99 latency, virtual µs.
    serve_dag_e2e_p99_us: f64,
    /// Upstream stages promoted by priority inheritance.
    serve_dag_inherited_promotions: usize,
    /// p99 of latency-sensitive tail-stage completion (finish − DAG
    /// arrival) with inheritance ON — the protected figure.
    serve_dag_tail_p99_us: f64,
    /// The same figure from an inheritance-OFF control run — the teeth
    /// gate requires the protected figure to beat this.
    serve_dag_tail_p99_no_inherit_us: f64,
    /// Whether every point and every DAG stage resolved exactly once and
    /// the stage/DAG ledgers balanced (the conservation gate).
    serve_dag_conserved: bool,
    serve_dag_deterministic: bool,
}

/// The DAG-mode session workload: a heavy standard/best-effort point
/// backlog with a *minority* of requests upgrading into multi-stage DAGs
/// (cascades, ensembles, think-gap conversations).  Keeping DAGs a
/// minority is what gives the inheritance gate teeth: a promoted upstream
/// stage jumps a large lower-class backlog instead of merely reshuffling
/// an all-latency-sensitive queue.
fn dag_session(models: usize) -> SessionConfig {
    SessionConfig {
        traffic: TrafficConfig {
            requests: 160,
            models,
            mean_interarrival_cycles: 1_000.0,
            burst_repeat_prob: 0.3,
            deadline_slack_cycles: 2_000_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.05,
                best_effort_share: 0.35,
            },
            seed: 0xDA65,
        },
        users: 8,
        dag_share: 0.25,
        templates: standard_templates(models),
        dag_deadline_slack_cycles: 3_000_000,
    }
}

/// The DAG-mode chaos: a chip dies between the stages of in-flight
/// cascades, then a degradation/recovery episode on the other shard.
fn dag_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 30_000,
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: 90_000,
            kind: FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 75,
            },
        },
        FaultEvent {
            at_cycles: 200_000,
            kind: FaultKind::Recovery { shard: 1, chip: 0 },
        },
    ])
}

/// Runs the orchestrated session once; returns the drained report, the
/// streamed outcomes, and the wall-clock milliseconds.
fn run_dag_session(
    runtime: &ServeRuntime,
    session: &SessionConfig,
    items: &[workloads::dag::SessionItem],
    inherit_priority: bool,
) -> (FleetReport, Vec<StageOutcome>, f64) {
    let start = Instant::now();
    let mut orch = DagOrchestrator::new(
        runtime,
        FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 2,
            scaling: None,
        },
        dag_faults(),
        session.templates.clone(),
        DagOrchestratorConfig {
            inherit_priority,
            admission: None,
        },
    );
    for item in items {
        orch.submit_item(item);
    }
    let report = orch.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let outcomes = orch.poll_outcomes();
    (report, outcomes, wall_ms)
}

/// p99 (virtual µs) of latency-sensitive tail-stage completion measured
/// from each DAG's arrival — the figure priority inheritance protects.
/// Tail stages are each template's last stage when pinned
/// latency-sensitive (the cascade's classify, the ensemble's vote), and
/// the population is restricted to DAGs whose *own* class sits below
/// latency-sensitive: those are exactly the instances whose upstream
/// stages would crawl at standard/best-effort priority without
/// inheritance, starving the pinned tail.
fn dag_tail_p99_us(items: &[workloads::dag::SessionItem], outcomes: &[StageOutcome]) -> f64 {
    let mut tails: Vec<u64> = Vec::new();
    for outcome in outcomes {
        if !outcome.dag || outcome.stage + 1 != outcome.stages {
            continue;
        }
        if outcome.class != SloClass::LatencySensitive {
            continue;
        }
        let SessionItemKind::Dag(dag) = &items[outcome.item].kind else {
            continue;
        };
        if dag.slo == SloClass::LatencySensitive {
            continue;
        }
        if let StageStatus::Fleet {
            status: CompletionStatus::Served { finish_cycles, .. },
            ..
        } = outcome.status
        {
            tails.push(finish_cycles.saturating_sub(dag.arrival_cycles));
        }
    }
    tails.sort_unstable();
    if tails.is_empty() {
        return 0.0;
    }
    tails[(tails.len() - 1) * 99 / 100] as f64 / 1e3
}

#[allow(clippy::too_many_lines)]
fn run_dag(
    label: &str,
    backend: BackendKind,
    check_regression: bool,
    bench_out: &Path,
) -> ExitCode {
    let gate_field = match backend {
        BackendKind::CycleAccurate => "serve_dag_virtual_rps",
        BackendKind::Analytical => "serve_dag_ana_virtual_rps",
    };
    let previous_rps = last_bench_value(bench_out, gate_field);

    let plans = compile_zoo();
    let serve_models = plans.len();
    // Same in-band verification cadence as the fleet mode: sampled
    // cycle-accurate audits on the analytical leg, nothing to verify on
    // the cycle-accurate one.
    let verify_every = match backend {
        BackendKind::Analytical => 8,
        BackendKind::CycleAccurate => 0,
    };
    let config = ServeConfig {
        backend,
        chips: 4,
        verify_every,
        ..serve_config(4)
    };
    let runtime = ServeRuntime::from_plans(plans, config);
    let session = dag_session(serve_models);
    let items = workloads::dag::session_items(&session);
    let stages_expected: usize = items
        .iter()
        .map(|i| match &i.kind {
            SessionItemKind::Point(_) => 1,
            SessionItemKind::Dag(d) => d.stage_gaps.len(),
        })
        .sum();

    let mut wall_ms = f64::INFINITY;
    let mut reports: Vec<FleetReport> = Vec::new();
    let mut last_outcomes = Vec::new();
    let mut conserved = true;
    for _ in 0..REPS {
        let (report, outcomes, rep_wall_ms) = run_dag_session(&runtime, &session, &items, true);
        wall_ms = wall_ms.min(rep_wall_ms);
        let dag = report
            .dag
            .clone()
            .expect("orchestrated drains carry DAG stats");
        conserved &= outcomes.len() == stages_expected
            && dag.completed + dag.failed == dag.dags
            && dag.stages_served + dag.stages_rejected + dag.stages_shed == dag.stages_total
            && report.serve.total_requests == dag.points + dag.stages_served + dag.stages_rejected;
        reports.push(report);
        last_outcomes = outcomes;
    }
    let report = reports.pop().expect("at least one rep");
    let json = |r: &FleetReport| serde_json::to_string(r).ok();
    let deterministic = reports.iter().all(|r| json(r) == json(&report));
    let dag = report
        .dag
        .clone()
        .expect("orchestrated drains carry DAG stats");

    // The inheritance-off control: same items, same chaos, promotions
    // disabled — the teeth gate compares latency-sensitive tail-stage p99.
    let (_, control_outcomes, _) = run_dag_session(&runtime, &session, &items, false);
    let tail_p99_us = dag_tail_p99_us(&items, &last_outcomes);
    let tail_p99_no_inherit_us = dag_tail_p99_us(&items, &control_outcomes);

    let record = DagSmokeRecord {
        label: label.to_string(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_dag_backend: backend.name().to_string(),
        serve_dag_requests: report.serve.total_requests,
        serve_dag_dags: dag.dags,
        serve_dag_points: dag.points,
        serve_dag_stages: dag.stages_total,
        serve_dag_wall_ms: wall_ms,
        serve_dag_virtual_rps: (backend == BackendKind::CycleAccurate)
            .then_some(report.serve.throughput_rps),
        serve_dag_ana_virtual_rps: (backend == BackendKind::Analytical)
            .then_some(report.serve.throughput_rps),
        serve_dag_completed: dag.completed,
        serve_dag_failed: dag.failed,
        serve_dag_deadline_misses: dag.deadline_misses,
        serve_dag_e2e_p99_us: dag.e2e_p99_cycles as f64 / 1e3,
        serve_dag_inherited_promotions: dag.inherited_promotions,
        serve_dag_tail_p99_us: tail_p99_us,
        serve_dag_tail_p99_no_inherit_us: tail_p99_no_inherit_us,
        serve_dag_conserved: conserved,
        serve_dag_deterministic: deterministic,
    };

    println!(
        "serve_smoke [{}] (dag mode, {} fleet)",
        record.label, record.serve_dag_backend
    );
    println!(
        "  session            : {} DAGs + {} points -> {} stages, {} fleet submissions",
        record.serve_dag_dags,
        record.serve_dag_points,
        record.serve_dag_stages,
        record.serve_dag_requests
    );
    println!(
        "  pipelines          : {} completed, {} failed, {} deadline misses, e2e p99 {:.0} us",
        record.serve_dag_completed,
        record.serve_dag_failed,
        record.serve_dag_deadline_misses,
        record.serve_dag_e2e_p99_us
    );
    println!(
        "  inheritance        : {} upstream promotions, LS tail p99 {:.0} us vs {:.0} us without",
        record.serve_dag_inherited_promotions,
        record.serve_dag_tail_p99_us,
        record.serve_dag_tail_p99_no_inherit_us
    );
    println!(
        "  throughput         : {:>9.0} req/s virtual   ({:.1} ms wall/session)",
        report.serve.throughput_rps, record.serve_dag_wall_ms
    );
    println!(
        "  conserved          : {} | deterministic: {}",
        record.serve_dag_conserved, record.serve_dag_deterministic
    );

    append_bench_record(bench_out, &record);

    if !record.serve_dag_conserved {
        eprintln!("error: a DAG stage was lost or double-resolved — conservation contract broken");
        return ExitCode::FAILURE;
    }
    if !record.serve_dag_deterministic {
        eprintln!("error: orchestrated replays diverged — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if record.serve_dag_inherited_promotions == 0 {
        eprintln!("error: no upstream stage was promoted — inheritance never engaged");
        return ExitCode::FAILURE;
    }
    if record.serve_dag_tail_p99_us >= record.serve_dag_tail_p99_no_inherit_us {
        eprintln!(
            "error: priority inheritance failed to protect the latency-sensitive tail: \
             p99 {:.0} us with inheritance vs {:.0} us without",
            record.serve_dag_tail_p99_us, record.serve_dag_tail_p99_no_inherit_us
        );
        return ExitCode::FAILURE;
    }
    if check_regression {
        if let Err(msg) = regression_gate(gate_field, report.serve.throughput_rps, previous_rps) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Trajectory record of a global-mode leg (`--mode global`).  Field names
/// are disjoint per backend so each matrix leg gates against its own
/// history.
#[derive(Serialize)]
struct GlobalSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_global_backend: String,
    serve_global_regions: usize,
    serve_global_models: usize,
    serve_global_requests: usize,
    /// Wall-clock ms of one full multi-region chaos session (best of
    /// `REPS`).
    serve_global_wall_ms: f64,
    /// Served requests per second of virtual time under region loss
    /// (deterministic; the regression-gated figure).  `None` on the
    /// analytical leg, which gates on `serve_global_ana_virtual_rps`.
    serve_global_virtual_rps: Option<f64>,
    /// The analytical leg's gated virtual throughput; `None` elsewhere.
    serve_global_ana_virtual_rps: Option<f64>,
    serve_global_outages: usize,
    serve_global_recoveries: usize,
    serve_global_requests_migrated: usize,
    serve_global_migration_events: usize,
    serve_global_retries_scheduled: usize,
    serve_global_requests_shed: usize,
    serve_global_region_seconds_lost: f64,
    /// Per-class SLO attainment for requests arriving inside the outage
    /// window — the measured degradation cost of losing a region.
    serve_global_outage_attainment_latency_sensitive: f64,
    serve_global_outage_attainment_standard: f64,
    serve_global_outage_attainment_best_effort: f64,
    /// Whether every submitted request was served, rejected or shed exactly
    /// once despite the region loss (the conservation gate).
    serve_global_conserved: bool,
    serve_global_deterministic: bool,
}

/// The global-mode chaos: the low-power region dies mid-burst and recovers
/// much later, with a best-effort flash crowd landing while the fleet is a
/// region short — migration, retries and graceful degradation all live.
fn global_faults() -> RegionFaultPlan {
    RegionFaultPlan::new(vec![
        RegionFaultEvent {
            at_cycles: 80_000,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        },
        RegionFaultEvent {
            at_cycles: 120_000,
            kind: RegionFaultKind::FlashCrowd {
                model: 1,
                requests: 64,
                mean_gap_cycles: 400,
            },
        },
        RegionFaultEvent {
            at_cycles: 200_000,
            kind: RegionFaultKind::RegionRecovery { region: 0 },
        },
    ])
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

#[allow(clippy::too_many_lines)]
fn run_global(
    label: &str,
    backend: BackendKind,
    check_regression: bool,
    bench_out: &Path,
) -> ExitCode {
    let gate_field = match backend {
        BackendKind::CycleAccurate => "serve_global_virtual_rps",
        BackendKind::Analytical => "serve_global_ana_virtual_rps",
    };
    let previous_rps = last_bench_value(bench_out, gate_field);

    // Two heterogeneous regions over the same four-model zoo: the low-power
    // silicon serves the baseline, the sprint silicon absorbs the failover.
    let low_plans = compile_zoo_with(AimConfig::full_low_power());
    let sprint_plans = compile_zoo_with(AimConfig::full_sprint());
    let models = low_plans.len();
    let config = ServeConfig {
        backend,
        chips: 4,
        ..serve_config(4)
    };
    let low_runtime = ServeRuntime::from_plans(low_plans, config);
    let sprint_runtime = ServeRuntime::from_plans(sprint_plans, config);
    let resident: Vec<usize> = (0..models).collect();
    let faults = global_faults();
    let base = fleet_trace(models);
    let trace = with_flash_crowds(&base, &faults, 2_000_000, 0xF1EE5);
    let specs = || {
        vec![
            RegionSpec {
                name: "lowpower-west".to_string(),
                runtime: &low_runtime,
                fleet: fleet_config(),
                faults: FaultPlan::none(),
                models: resident.clone(),
            },
            RegionSpec {
                name: "sprint-east".to_string(),
                runtime: &sprint_runtime,
                fleet: fleet_config(),
                faults: FaultPlan::none(),
                models: resident.clone(),
            },
        ]
    };

    let mut wall_ms = f64::INFINITY;
    let mut reports: Vec<GlobalReport> = Vec::new();
    let mut conserved = true;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut router = GlobalRouter::new(specs(), models, global_config(), faults.clone());
        for request in &trace {
            router.submit(*request);
        }
        let report = router.drain();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let outcomes = router.poll_completions();
        conserved &= outcomes.len() == trace.len()
            && report.summary.total_requests == trace.len()
            && report.summary.served_requests
                + report.summary.rejected_requests
                + report.summary.shed_requests
                == report.summary.total_requests;
        reports.push(report);
    }
    let report = reports.pop().expect("at least one rep");
    let json = |r: &GlobalReport| serde_json::to_string(r).ok();
    let deterministic = reports.iter().all(|r| json(r) == json(&report));

    let attainment = |class: SloClass| {
        report
            .availability
            .per_class_outage_attainment
            .iter()
            .find(|c| c.class == class)
            .map_or(1.0, |c| c.attainment)
    };
    let record = GlobalSmokeRecord {
        label: label.to_string(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_global_backend: backend.name().to_string(),
        serve_global_regions: report.availability.regions,
        serve_global_models: models,
        serve_global_requests: report.summary.total_requests,
        serve_global_wall_ms: wall_ms,
        serve_global_virtual_rps: (backend == BackendKind::CycleAccurate)
            .then_some(report.summary.throughput_rps),
        serve_global_ana_virtual_rps: (backend == BackendKind::Analytical)
            .then_some(report.summary.throughput_rps),
        serve_global_outages: report.availability.outages,
        serve_global_recoveries: report.availability.recoveries,
        serve_global_requests_migrated: report.availability.requests_migrated,
        serve_global_migration_events: report.availability.migration_events,
        serve_global_retries_scheduled: report.availability.retries_scheduled,
        serve_global_requests_shed: report.availability.requests_shed,
        serve_global_region_seconds_lost: report.availability.region_seconds_lost,
        serve_global_outage_attainment_latency_sensitive: attainment(SloClass::LatencySensitive),
        serve_global_outage_attainment_standard: attainment(SloClass::Standard),
        serve_global_outage_attainment_best_effort: attainment(SloClass::BestEffort),
        serve_global_conserved: conserved,
        serve_global_deterministic: deterministic,
    };

    println!(
        "serve_smoke [{}] (global mode, {} regions, {} backend)",
        record.label, record.serve_global_regions, record.serve_global_backend
    );
    println!(
        "  deployment         : {} regions x {} models, {} requests",
        record.serve_global_regions, record.serve_global_models, record.serve_global_requests
    );
    println!(
        "  region chaos       : {} outages, {} recoveries, {:.1} region-us lost",
        record.serve_global_outages,
        record.serve_global_recoveries,
        record.serve_global_region_seconds_lost * 1e6
    );
    println!(
        "  resilience         : {} migrated ({} events), {} retries, {} shed",
        record.serve_global_requests_migrated,
        record.serve_global_migration_events,
        record.serve_global_retries_scheduled,
        record.serve_global_requests_shed
    );
    println!(
        "  outage attainment  : {:.3} latency-sensitive  {:.3} standard  {:.3} best-effort",
        record.serve_global_outage_attainment_latency_sensitive,
        record.serve_global_outage_attainment_standard,
        record.serve_global_outage_attainment_best_effort
    );
    println!(
        "  throughput         : {:>9.0} req/s virtual   ({:.1} ms wall/session)",
        report.summary.throughput_rps, record.serve_global_wall_ms
    );
    println!(
        "  conserved          : {} | deterministic: {}",
        record.serve_global_conserved, record.serve_global_deterministic
    );

    append_bench_record(bench_out, &record);

    if !record.serve_global_conserved {
        eprintln!("error: region loss lost or duplicated requests — conservation contract broken");
        return ExitCode::FAILURE;
    }
    if !record.serve_global_deterministic {
        eprintln!("error: global replays diverged — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if record.serve_global_migration_events == 0 {
        eprintln!(
            "error: the scripted region outage migrated no requests — the drill lost its teeth"
        );
        return ExitCode::FAILURE;
    }
    if check_regression {
        if let Err(msg) = regression_gate(gate_field, report.summary.throughput_rps, previous_rps) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Trajectory record of a hyperscale leg (`--mode hyperscale`): a
/// million-request diurnal trace over a 64-shard analytical fleet, with
/// faults and elastic scaling live, streamed off the [`TraceStream`]
/// generator so memory stays independent of the request count.
#[derive(Serialize)]
struct HyperscaleSmokeRecord {
    label: String,
    unix_time_s: u64,
    host_threads: usize,
    serve_hyper_shards: usize,
    serve_hyper_chips: usize,
    serve_hyper_requests: usize,
    /// Wall-clock ms of the parallel streamed session (submission through
    /// drain; the CI wall ceiling watches the whole process instead).
    serve_hyper_wall_ms: f64,
    /// Served requests per second of virtual chip time (deterministic; the
    /// regression-gated figure).
    serve_hyper_virtual_rps: f64,
    /// Peak resident set of the whole process (`VmHWM`), MiB — gated
    /// against [`HYPER_RSS_CEILING_MIB`], a bound independent of the
    /// request count.
    serve_hyper_peak_rss_mib: Option<f64>,
    /// Streamed outcomes shed under the completion-capacity bound (the
    /// drained report still accounts every request).
    serve_hyper_completions_dropped: u64,
    /// Outcomes that streamed out of `poll_completions` mid-run.
    serve_hyper_streamed: usize,
    serve_hyper_p50_us: f64,
    serve_hyper_p99_us: f64,
    serve_hyper_mean_batch: f64,
    serve_hyper_deadline_misses: usize,
    serve_hyper_rejected: usize,
    serve_hyper_requests_failed_over: usize,
    serve_hyper_scale_ups: usize,
    serve_hyper_scale_downs: usize,
    /// served + rejected == submitted, and streamed + dropped + retained
    /// covers every outcome.
    serve_hyper_conserved: bool,
    /// Byte-identical reports between the parallel coarse-stepped leg and
    /// the sequential fine-stepped leg.
    serve_hyper_deterministic: bool,
    /// Online calibration-loop figures from the sparse in-band verification
    /// (every 512th group).  The zoo is honestly calibrated and the chaos
    /// is health events, not model drift — so demotions must stay 0 across
    /// a million requests (the false-alarm gate).
    serve_hyper_recal_samples: Option<u64>,
    serve_hyper_recalibrations: Option<u64>,
    serve_hyper_spurious_demotions: Option<u64>,
}

/// Hyperscale fleet shape: 64 shards of 4 analytical chips = 256 chips.
const HYPER_SHARDS: usize = 64;
const HYPER_CHIPS_PER_SHARD: usize = 4;
/// Default (and CI) request count: one million.
const HYPER_REQUESTS: usize = 1_000_000;
/// Peak-RSS ceiling of the hyperscale run, MiB.  The bound is a property of
/// the *fleet shape*, not the trace length: the trace streams off the
/// generator, latency pools are fixed-size sketches, served session state
/// retires as it resolves, and the completion buffer is capped — doubling
/// the request count must not move the peak.  Documented in PERF.md.
const HYPER_RSS_CEILING_MIB: f64 = 512.0;

fn hyper_traffic(requests: usize) -> TrafficConfig {
    // ~60 cycles mean inter-arrival over a million requests spans a
    // ~6e7-cycle virtual horizon; three diurnal waves fit inside it and
    // the fleet runs hot enough (crest rate 1.6x) that queues build and
    // chip deaths catch in-flight work.
    TrafficConfig {
        requests,
        models: 4,
        mean_interarrival_cycles: 60.0,
        burst_repeat_prob: 0.35,
        deadline_slack_cycles: 4_000_000,
        shape: ArrivalShape::DiurnalWave {
            period_cycles: 20_000_000,
            amplitude: 0.6,
        },
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: 0x44E52,
    }
}

/// Faults and scaling stay live at hyperscale: two chip deaths and one
/// degradation/recovery episode spread across the diurnal horizon.
fn hyper_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 8_000_000,
            kind: FaultKind::Degradation {
                shard: 17,
                chip: 0,
                slowdown_percent: 60,
            },
        },
        // Both deaths land on diurnal crests (period/4 + k*period), where
        // the killed chip is most likely to hold in-flight work to orphan.
        FaultEvent {
            at_cycles: 25_000_000,
            kind: FaultKind::ChipDeath { shard: 3, chip: 1 },
        },
        FaultEvent {
            at_cycles: 30_000_000,
            kind: FaultKind::Recovery { shard: 17, chip: 0 },
        },
        FaultEvent {
            at_cycles: 45_000_000,
            kind: FaultKind::ChipDeath { shard: 40, chip: 2 },
        },
    ])
}

fn hyper_fleet_config() -> FleetConfig {
    FleetConfig {
        shards: HYPER_SHARDS,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 3,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 2_000_000,
            scale_up_backlog_cycles: 400_000,
            scale_down_backlog_cycles: 40_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    }
}

/// One streamed hyperscale session: requests submitted straight off the
/// [`TraceStream`] (never materialised), outcomes polled every
/// `poll_every` submissions, `run_until` optionally stepped at arrival
/// midpoints (`fine_steps`) to vary the stepping granularity.  Returns the
/// report, outcomes streamed mid-run, outcomes dropped, and wall ms.
fn run_hyperscale_session(
    runtime: &ServeRuntime,
    traffic: &TrafficConfig,
    poll_every: usize,
    fine_steps: bool,
) -> (FleetReport, usize, u64, f64) {
    let start = Instant::now();
    let mut fleet = FleetSession::new(runtime, hyper_fleet_config(), hyper_faults());
    let mut streamed = 0usize;
    let mut previous_arrival = 0u64;
    for (i, request) in TraceStream::new(traffic).enumerate() {
        if fine_steps {
            // Step to the midpoint between consecutive arrivals first: a
            // different run_until granularity that must not move a byte.
            fleet.run_until(previous_arrival.midpoint(request.arrival_cycles));
            previous_arrival = request.arrival_cycles;
        }
        fleet.submit(request);
        if i % poll_every == poll_every - 1 {
            streamed += fleet.poll_completions().len();
        }
    }
    let report = fleet.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    streamed += fleet.poll_completions().len();
    let dropped = fleet.completions_dropped();
    (report, streamed, dropped, wall_ms)
}

/// Peak resident set (`VmHWM`) of this process in MiB, when the platform
/// exposes it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[allow(clippy::too_many_lines)]
fn run_hyperscale(
    label: &str,
    requests: usize,
    check_regression: bool,
    bench_out: &Path,
) -> ExitCode {
    let gate_field = "serve_hyper_virtual_rps";
    // Virtual throughput depends on the trace length, so only an earlier
    // run of the same request count is a baseline.
    let previous_rps = std::fs::read_to_string(bench_out)
        .ok()
        .and_then(|trajectory| {
            last_matching_value(
                &trajectory,
                gate_field,
                "serve_hyper_requests",
                requests as f64,
            )
        });

    let plans = compile_zoo();
    let traffic = hyper_traffic(requests);
    // A small completion cap keeps the streamed-outcome buffer bounded
    // between polls; the drained report still accounts every request.
    // Sparse in-band verification (every 512th group, per-shard) feeds the
    // calibration loop across the million-request horizon.  The chaos here
    // is health events on an honestly calibrated zoo, so the loop must log
    // drift samples and recalibration points yet demote nothing.
    let base_config = ServeConfig {
        backend: BackendKind::Analytical,
        audit_chips: 0,
        verify_every: 512,
        calibration: Some(CalibrationLoopConfig::default()),
        completion_capacity: 4_096,
        ..serve_config(HYPER_CHIPS_PER_SHARD)
    };
    let runtime = ServeRuntime::from_plans(plans.clone(), base_config);

    // Leg A: parallel workers, coarse stepping (submissions drive time).
    let (report, streamed, dropped, wall_ms) =
        run_hyperscale_session(&runtime, &traffic, 4_096, false);

    // Leg B: sequential workers, fine-grained stepping — the determinism
    // cross-check demanded at hyperscale: report bytes must not depend on
    // the worker count or the run_until granularity.
    let seq_runtime = ServeRuntime::from_plans(
        plans,
        ServeConfig {
            parallel: false,
            ..base_config
        },
    );
    let (seq_report, _, _, _) = run_hyperscale_session(&seq_runtime, &traffic, 10_007, true);
    let json = |r: &FleetReport| serde_json::to_string(r).ok();
    let deterministic = json(&report) == json(&seq_report);

    let conserved = report.serve.total_requests == requests
        && report.serve.served_requests + report.serve.rejected_requests
            == report.serve.total_requests
        && streamed as u64 + dropped == requests as u64;
    let peak_rss = peak_rss_mib();

    let record = HyperscaleSmokeRecord {
        label: label.to_string(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_hyper_shards: HYPER_SHARDS,
        serve_hyper_chips: HYPER_SHARDS * HYPER_CHIPS_PER_SHARD,
        serve_hyper_requests: report.serve.total_requests,
        serve_hyper_wall_ms: wall_ms,
        serve_hyper_virtual_rps: report.serve.throughput_rps,
        serve_hyper_peak_rss_mib: peak_rss,
        serve_hyper_completions_dropped: dropped,
        serve_hyper_streamed: streamed,
        serve_hyper_p50_us: report.serve.latency_p50_cycles as f64 / 1e3,
        serve_hyper_p99_us: report.serve.latency_p99_cycles as f64 / 1e3,
        serve_hyper_mean_batch: report.serve.mean_batch_size,
        serve_hyper_deadline_misses: report.serve.deadline_misses,
        serve_hyper_rejected: report.serve.rejected_requests,
        serve_hyper_requests_failed_over: report.availability.requests_failed_over,
        serve_hyper_scale_ups: report.availability.scale_ups,
        serve_hyper_scale_downs: report.availability.scale_downs,
        serve_hyper_conserved: conserved,
        serve_hyper_deterministic: deterministic,
        serve_hyper_recal_samples: report.serve.calibration.as_ref().map(|c| c.samples),
        serve_hyper_recalibrations: report.serve.calibration.as_ref().map(|c| c.recalibrations),
        serve_hyper_spurious_demotions: report.serve.calibration.as_ref().map(|c| c.demotions),
    };

    println!(
        "serve_smoke [{}] (hyperscale mode, analytical fleet)",
        record.label
    );
    println!(
        "  fleet              : {} shards x {} chips = {} chips, {} requests (diurnal wave)",
        record.serve_hyper_shards,
        HYPER_CHIPS_PER_SHARD,
        record.serve_hyper_chips,
        record.serve_hyper_requests
    );
    println!(
        "  chaos              : {} requests failed over, {} scale-ups, {} scale-downs",
        record.serve_hyper_requests_failed_over,
        record.serve_hyper_scale_ups,
        record.serve_hyper_scale_downs
    );
    println!(
        "  streaming          : {} outcomes polled, {} shed under the {}-outcome cap",
        record.serve_hyper_streamed,
        record.serve_hyper_completions_dropped,
        base_config.completion_capacity
    );
    println!(
        "  throughput         : {:>9.0} req/s virtual   ({:.0} ms wall/session)",
        record.serve_hyper_virtual_rps, record.serve_hyper_wall_ms
    );
    println!(
        "  latency (virtual)  : p50 {:.1} us  p99 {:.1} us  (batch {:.2}, {} misses, {} rejected)",
        record.serve_hyper_p50_us,
        record.serve_hyper_p99_us,
        record.serve_hyper_mean_batch,
        record.serve_hyper_deadline_misses,
        record.serve_hyper_rejected
    );
    match peak_rss {
        Some(mib) => {
            println!("  peak rss           : {mib:.0} MiB (ceiling {HYPER_RSS_CEILING_MIB:.0} MiB)")
        }
        None => println!("  peak rss           : unavailable on this platform"),
    }
    if let (Some(samples), Some(recals), Some(demotions)) = (
        record.serve_hyper_recal_samples,
        record.serve_hyper_recalibrations,
        record.serve_hyper_spurious_demotions,
    ) {
        println!(
            "  calibration loop   : every {} groups, {samples} drift samples, {recals} recalibrations, {demotions} demotions",
            base_config.verify_every
        );
    }
    println!(
        "  conserved          : {} | deterministic: {}",
        record.serve_hyper_conserved, record.serve_hyper_deterministic
    );

    append_bench_record(bench_out, &record);

    if !record.serve_hyper_conserved {
        eprintln!(
            "error: hyperscale run lost or duplicated requests — conservation contract broken"
        );
        return ExitCode::FAILURE;
    }
    if !record.serve_hyper_deterministic {
        eprintln!(
            "error: parallel coarse-stepped and sequential fine-stepped reports diverged — \
             determinism contract broken at hyperscale"
        );
        return ExitCode::FAILURE;
    }
    if let Some(mib) = peak_rss {
        if mib > HYPER_RSS_CEILING_MIB {
            eprintln!(
                "error: peak RSS {mib:.0} MiB exceeds the {HYPER_RSS_CEILING_MIB:.0} MiB \
                 hyperscale ceiling — memory grew with the request count"
            );
            return ExitCode::FAILURE;
        }
    }
    if record.serve_hyper_spurious_demotions.is_some_and(|d| d > 0) {
        eprintln!(
            "error: {} spurious demotion(s) on an honestly calibrated trace — degradation chaos \
             leaked into the drift signal",
            record.serve_hyper_spurious_demotions.unwrap_or(0)
        );
        return ExitCode::FAILURE;
    }
    if check_regression {
        if let Err(msg) = regression_gate(gate_field, record.serve_hyper_virtual_rps, previous_rps)
        {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn regression_gate(label: &str, current: f64, previous: Option<f64>) -> Result<(), String> {
    if let Some(prev) = previous {
        let floor = 0.8 * prev;
        if current < floor {
            return Err(format!(
                "{label} regressed >20 %: {current:.0} req/s vs previous {prev:.0} req/s"
            ));
        }
        println!(
            "  regression check   : ok ({label} {current:.0} req/s >= 80 % of previous {prev:.0} req/s)"
        );
    } else {
        println!("  regression check   : no previous {label} record, baseline established");
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "run".to_string());
    let check_regression = args.iter().any(|a| a == "--check-regression");
    let bench_out = bench_out_arg(&args);
    let backend = match args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1).map(String::as_str))
    {
        None | Some("cycle-accurate") => BackendKind::CycleAccurate,
        Some("analytical") => BackendKind::Analytical,
        Some(other) => {
            eprintln!("error: unknown --backend {other} (use cycle-accurate|analytical)");
            return ExitCode::FAILURE;
        }
    };
    match args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1).map(String::as_str))
    {
        None | Some("offline") => {}
        Some("online") => return run_online(&label, backend, check_regression, &bench_out),
        Some("fleet") => return run_fleet(&label, backend, check_regression, &bench_out),
        Some("dag") => return run_dag(&label, backend, check_regression, &bench_out),
        Some("global") => return run_global(&label, backend, check_regression, &bench_out),
        Some("hyperscale") => {
            let requests = args
                .iter()
                .position(|a| a == "--requests")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(HYPER_REQUESTS);
            return run_hyperscale(&label, requests, check_regression, &bench_out);
        }
        Some(other) => {
            eprintln!(
                "error: unknown --mode {other} (use offline|online|fleet|dag|global|hyperscale)"
            );
            return ExitCode::FAILURE;
        }
    }
    // Read the trajectory *before* appending this run's record.  The gate
    // compares *virtual* throughput — a pure function of the scheduler and
    // the simulated fleet, byte-identical across hosts — so a slower CI
    // runner cannot trip it and a faster one cannot mask a real scheduling
    // regression.
    let previous_rps = last_bench_value(&bench_out, "serve_virtual_rps");
    let previous_ana_rps = last_bench_value(&bench_out, "serve_ana_virtual_rps");

    let compile_start = Instant::now();
    let plans = compile_zoo();
    let serve_compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    let serve_models = plans.len();

    let config = serve_config(8);
    let runtime = ServeRuntime::from_plans(plans.clone(), config);
    let trace = smoke_trace(serve_models);

    let (report, serve_wall_ms, deterministic) = bench_serve(&runtime, &trace);

    let mean_utilization = if report.per_chip.is_empty() {
        0.0
    } else {
        report.per_chip.iter().map(|c| c.utilization).sum::<f64>() / report.per_chip.len() as f64
    };
    let record = ServeSmokeRecord {
        label: label.clone(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_models,
        serve_chips: report.chips,
        serve_requests: report.total_requests,
        serve_compile_ms,
        serve_wall_ms,
        serve_wall_rps: report.served_requests as f64 / (serve_wall_ms / 1e3),
        serve_virtual_rps: report.throughput_rps,
        serve_p50_us: report.latency_p50_cycles as f64 / 1e3,
        serve_p95_us: report.latency_p95_cycles as f64 / 1e3,
        serve_p99_us: report.latency_p99_cycles as f64 / 1e3,
        serve_mean_batch: report.mean_batch_size,
        serve_mean_utilization: mean_utilization,
        serve_deadline_misses: report.deadline_misses,
        serve_rejected: report.rejected_requests,
        serve_deterministic: deterministic,
    };

    println!("serve_smoke [{}] (cycle-accurate fleet)", record.label);
    println!(
        "  zoo                : {} models compiled in {:.0} ms (one-time)",
        record.serve_models, record.serve_compile_ms
    );
    println!(
        "  fleet              : {} chips, {} requests, {} groups (mean batch {:.2})",
        record.serve_chips, record.serve_requests, report.groups_executed, record.serve_mean_batch
    );
    println!(
        "  throughput         : {:>9.0} req/s wall   {:>9.0} req/s virtual",
        record.serve_wall_rps, record.serve_virtual_rps
    );
    println!(
        "  latency (virtual)  : p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
        record.serve_p50_us, record.serve_p95_us, record.serve_p99_us
    );
    println!(
        "  utilization        : {:.1} % mean over chips, {} deadline misses, {} rejected",
        100.0 * record.serve_mean_utilization,
        record.serve_deadline_misses,
        record.serve_rejected
    );
    println!("  deterministic      : {}", record.serve_deterministic);

    append_bench_record(&bench_out, &record);

    if !record.serve_deterministic {
        eprintln!("error: repeated replays diverged — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if check_regression && backend == BackendKind::CycleAccurate {
        if let Err(msg) =
            regression_gate("serve_virtual_rps", record.serve_virtual_rps, previous_rps)
        {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }

    if backend != BackendKind::Analytical {
        return ExitCode::SUCCESS;
    }

    // --- analytical leg ----------------------------------------------------
    // The timed fleet runs verification-free: that is the production fast
    // path (every replay a cached calibrated prediction), and it keeps the
    // speedup gate independent of how well the host parallelises the
    // verification replays.  A separate untimed run with sampled
    // verification on supplies the drift-vs-bound figures.
    let ana_config = ServeConfig {
        backend: BackendKind::Analytical,
        audit_chips: 0,
        verify_every: 0,
        ..config
    };
    let calibrate_start = Instant::now();
    let ana_runtime = ServeRuntime::from_plans(plans.clone(), ana_config);
    let serve_ana_calibrate_ms = calibrate_start.elapsed().as_secs_f64() * 1e3;
    let (ana_report, serve_ana_wall_ms, ana_deterministic) = bench_serve(&ana_runtime, &trace);
    // The drift run only changes the sampling cadence — configured up front
    // on a separate runtime so the timed fleet stays verification-free.
    let verify_runtime = ServeRuntime::from_plans(
        plans,
        ServeConfig {
            verify_every: 16,
            ..ana_config
        },
    );
    let verification = verify_runtime
        .serve(&trace)
        .verification
        .expect("analytical fleet reports verification stats");
    let speedup = serve_wall_ms / serve_ana_wall_ms;

    let ana_record = AnalyticalSmokeRecord {
        label,
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serve_ana_chips: ana_report.chips,
        serve_ana_requests: ana_report.total_requests,
        serve_ana_calibrate_ms,
        serve_ana_wall_ms,
        serve_ana_baseline_wall_ms: serve_wall_ms,
        serve_ana_speedup: speedup,
        serve_ana_virtual_rps: ana_report.throughput_rps,
        serve_ana_verified_groups: verification.sampled,
        serve_ana_drift_mean: verification.mean_cycle_drift,
        serve_ana_drift_max: verification.max_cycle_drift,
        serve_ana_error_bound: verification.error_bound,
        serve_ana_within_bound: verification.within_bound,
        serve_ana_deterministic: ana_deterministic,
    };

    println!();
    println!(
        "serve_smoke [{}] (analytical fleet, {} analytical chips)",
        ana_record.label, ana_report.analytical_chips
    );
    println!(
        "  calibration        : {:.0} ms one-time ({} plans)",
        ana_record.serve_ana_calibrate_ms,
        ana_runtime.plans().len()
    );
    println!(
        "  replay wall        : {:.1} ms analytical vs {:.1} ms cycle-accurate  ({:.1}x speedup)",
        ana_record.serve_ana_wall_ms, ana_record.serve_ana_baseline_wall_ms, speedup
    );
    println!(
        "  virtual throughput : {:>9.0} req/s (cycle-accurate fleet: {:.0})",
        ana_record.serve_ana_virtual_rps, record.serve_virtual_rps
    );
    println!(
        "  verification       : {} groups sampled, drift mean {:.4} max {:.4}, bound {:.4} ({})",
        ana_record.serve_ana_verified_groups,
        ana_record.serve_ana_drift_mean,
        ana_record.serve_ana_drift_max,
        ana_record.serve_ana_error_bound,
        if ana_record.serve_ana_within_bound {
            "within bound"
        } else {
            "EXCEEDED"
        }
    );
    println!("  deterministic      : {ana_deterministic}");

    append_bench_record(&bench_out, &ana_record);

    if !ana_deterministic {
        eprintln!("error: analytical replays diverged — determinism contract broken");
        return ExitCode::FAILURE;
    }
    if !ana_record.serve_ana_within_bound {
        eprintln!(
            "error: sampled verification drift {:.4} exceeds the calibrated bound {:.4}",
            ana_record.serve_ana_drift_max, ana_record.serve_ana_error_bound
        );
        return ExitCode::FAILURE;
    }
    if speedup < 10.0 {
        eprintln!(
            "error: analytical replay speedup {speedup:.1}x below the 10x target \
             ({serve_ana_wall_ms:.1} ms vs {serve_wall_ms:.1} ms)",
            serve_ana_wall_ms = ana_record.serve_ana_wall_ms,
        );
        return ExitCode::FAILURE;
    }
    if check_regression {
        if let Err(msg) = regression_gate(
            "serve_ana_virtual_rps",
            ana_record.serve_ana_virtual_rps,
            previous_ana_rps,
        ) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
