//! Serving-runtime smoke benchmark: compiles four zoo models once, replays
//! synthetic traffic across a fleet of simulated chips, and checks each
//! leg's behaviour and the exact bytes of its report.
//!
//! Usage:
//! `cargo run --release -p aim-bench --bin serve_smoke [-- [--backend
//!  cycle-accurate|analytical] [--mode offline|online|fleet|dag|global|hyperscale]]`
//!
//! Any other argument, or a flag without its value, exits 1 before a leg
//! runs.
//!
//! With `--mode hyperscale` the benchmark streams a **million-request**
//! diurnal-wave trace straight off the [`TraceStream`] generator into a
//! 64-shard × 4-chip analytical fleet with chip deaths, a degradation
//! episode and elastic scaling live.  Nothing scales with the request count:
//! the trace is never materialised, latency pools are bounded sketches,
//! served session state retires as groups resolve, and the streamed-outcome
//! buffer is capped.  The run checks request conservation, byte-identical
//! reports between a parallel coarse-stepped and a sequential fine-stepped
//! session (worker-count and `run_until`-granularity independence at
//! scale), and peak process RSS (`VmHWM`) staying under a ceiling
//! independent of the request count.
//!
//! With `--mode fleet` the benchmark drives a 2-shard [`FleetSession`]
//! through a scripted chaos drill — one chip death mid-burst, one
//! degradation/recovery episode, elastic scaling live — and checks request
//! conservation (nothing lost to the faults), failover actually firing and
//! byte-determinism across replays.
//!
//! With `--mode dag` the benchmark replays a conversational session — a
//! mixed population of point requests and multi-stage request DAGs
//! (cascades, fan-out/join ensembles, think-gap conversations) — through
//! the [`DagOrchestrator`] over a 2-shard fleet with a chip death landing
//! between cascade stages.  It checks stage conservation (every stage of
//! every DAG resolves exactly once; the stage ledger balances),
//! byte-determinism across replays, and priority inheritance *measurably
//! protecting* the latency-sensitive tail: the p99 of tail-stage
//! completion with inheritance on must beat an inheritance-off control run
//! of the same session.
//!
//! With `--mode global` the benchmark stands up a two-region
//! [`GlobalRouter`] deployment — low-power silicon west, sprint silicon
//! east — and scripts a region loss mid-burst, a best-effort flash crowd
//! while the fleet is a region short, and a late failback.  It checks
//! request conservation *across the region loss* (served + rejected + shed
//! equals submitted), byte-determinism across replays and the migration
//! machinery actually firing.
//!
//! With `--mode online` the benchmark drives the event-driven `ServeSession`
//! instead of the offline wrapper: a fully *interleaved* mixed-SLO trace
//! (20 % latency-sensitive / 30 % best-effort, `burst_repeat_prob` 0 so the
//! old consecutive-only scan cannot batch it) is submitted request by
//! request with periodic `run_until`/`poll_completions` stepping, and the
//! printout carries the per-SLO-class p99 split, the realised batching ratio
//! versus the offline `form_groups` baseline, and how many outcomes streamed
//! out before the final drain.  The run checks determinism and the session
//! batcher dominating the offline scan's batching ratio.
//!
//! With `--mode offline` (the default) and `--backend analytical` the same
//! fleet is additionally served through the calibrated analytical backend
//! (sampled verification on), and the run checks three properties: reports
//! stay deterministic, the observed analytical-vs-cycle-accurate cycle drift
//! stays within the calibrated error bound, and replaying the trace
//! analytically is at least 10× faster than the cycle-accurate fleet at
//! equal chip count.
//!
//! Every leg prints its figures one per line, then the verdict of each of
//! its checks, and exits 1 if any check fails.  One check pins the leg's
//! report: the 64-bit FNV-1a digest of its compact JSON must equal a
//! constant in this file.  A report — virtual throughput, latencies and
//! every counter — is a pure function of the trace, the fleet and the
//! scheduler, byte-identical across hosts and worker counts, so the pin
//! holds anywhere and fails on any change to a report byte.  After an
//! intended change, re-pin by copying the digest the failing check prints.
//! Wall-clock figures are printed alongside but never checked.

use std::process::ExitCode;
use std::time::Instant;

use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::scheduler::form_groups;
use aim_serve::{
    CompletionStatus, DagOrchestrator, DagOrchestratorConfig, DispatchPolicy, FleetConfig,
    FleetReport, FleetSession, GlobalConfig, GlobalRouter, RegionSpec, RetryConfig, RoutePolicy,
    ScalingConfig, ServeConfig, ServeRuntime, ShardPolicy, ShedPolicy, StageOutcome, StageStatus,
};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use serde::{Serialize, Value};
use workloads::dag::{standard_templates, SessionConfig, SessionItemKind};
use workloads::inputs::{
    synthetic_trace, with_flash_crowds, ArrivalShape, FaultEvent, FaultKind, FaultPlan,
    RegionFaultEvent, RegionFaultKind, RegionFaultPlan, SloClass, SloMix, TraceRequest,
    TraceStream, TrafficConfig,
};
use workloads::zoo::Model;

/// `fields![name: expression, …]`: printed figures in order, each value
/// serialised from its expression.
macro_rules! fields {
    ($($name:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($name), Serialize::to_value(&$value))),*]
    };
}

/// `check!(holds, "what it asserts", format args…)`: one pass/fail check of
/// a leg.
macro_rules! check {
    ($holds:expr, $($what:tt)+) => {
        ($holds, format!($($what)+))
    };
}

/// What one leg hands the shared tail, [`finish`].
struct Leg {
    /// Heading of the printout.
    title: String,
    /// Figures printed after the `host_threads` every leg starts with.
    fields: Vec<(&'static str, Value)>,
    /// Pass/fail checks: whether each holds, and what it asserts.
    checks: Vec<(bool, String)>,
}

/// The shared tail of every leg: prints its figures one per line and the
/// verdict of every check.  Returns whether every check passed.
fn finish(leg: Leg) -> bool {
    let mut fields = fields![
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ];
    fields.extend(leg.fields);
    println!("serve_smoke ({})", leg.title);
    let width = fields
        .iter()
        .map(|(field, _)| field.len())
        .max()
        .unwrap_or(0);
    for (field, value) in &fields {
        let shown = match value {
            Value::Str(text) => text.clone(),
            Value::UInt(n) => n.to_string(),
            Value::Float(x) => x.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            other => format!("{other:?}"),
        };
        println!("  {field:<width$} : {shown}");
    }
    for (holds, what) in &leg.checks {
        println!("  {} {what}", if *holds { "ok  " } else { "FAIL" });
    }
    let mut passed = true;
    for (_, what) in leg.checks.iter().filter(|(holds, _)| !holds) {
        eprintln!("error: {}: check failed: {what}", leg.title);
        passed = false;
    }
    passed
}

const REPS: usize = 3;

/// Compact JSON of a report, the bytes the determinism checks compare.
fn json<R: Serialize>(report: &R) -> Option<String> {
    serde_json::to_string(report).ok()
}

/// 64-bit FNV-1a digest of `bytes`.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The check that `report` has the bytes pinned for its leg: the
/// [`digest`] of its compact JSON equals `pinned`.
fn pin<R: Serialize>(report: &R, pinned: u64) -> (bool, String) {
    let got = digest(json(report).unwrap_or_default().as_bytes());
    let relation = if got == pinned { "==" } else { "!=" };
    check!(
        got == pinned,
        "report digest {got:016x} {relation} pinned {pinned:016x}"
    )
}

/// Runs one session `REPS` times; returns the last run's report, the best
/// wall time (ms) and whether every run's report was byte-identical.
fn bench_serve<R: Serialize>(mut run: impl FnMut() -> R) -> (R, f64, bool) {
    let mut wall_ms = f64::INFINITY;
    let mut reports = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let report = run();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        reports.push(report);
    }
    let report = reports.pop().expect("at least one rep");
    let deterministic = reports.iter().all(|r| json(r) == json(&report));
    (report, wall_ms, deterministic)
}

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

/// The offline leg: the cycle-accurate fleet replays the bursty trace
/// through the offline wrapper.  With `--backend analytical` a second leg
/// follows: the same fleet through the calibrated analytical backend.
fn run_offline(backend: BackendKind) -> Vec<Leg> {
    let compile_start = Instant::now();
    let plans = compile_zoo();
    let serve_compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    let serve_models = plans.len();

    let config = serve_config(8);
    let runtime = ServeRuntime::from_plans(plans.clone(), config);
    let trace = smoke_trace(serve_models);
    let (report, serve_wall_ms, deterministic) = bench_serve(|| runtime.serve(&trace));

    let mean_utilization = if report.per_chip.is_empty() {
        0.0
    } else {
        report.per_chip.iter().map(|c| c.utilization).sum::<f64>() / report.per_chip.len() as f64
    };
    let mut legs = vec![Leg {
        title: "offline mode, cycle-accurate fleet".to_string(),
        fields: fields![
            serve_models: serve_models,
            serve_chips: report.chips,
            serve_requests: report.total_requests,
            // One-time compile cost of all plans (QAT/WDS/mapping).
            serve_compile_ms: serve_compile_ms,
            // Best of `REPS` replays; wall clock is never checked.
            serve_wall_ms: serve_wall_ms,
            serve_wall_rps: report.served_requests as f64 / (serve_wall_ms / 1e3),
            // Requests per second of virtual chip time.
            serve_virtual_rps: report.throughput_rps,
            // Latency percentiles in virtual µs at 1 GHz nominal.
            serve_p50_us: report.latency_p50_cycles as f64 / 1e3,
            serve_p95_us: report.latency_p95_cycles as f64 / 1e3,
            serve_p99_us: report.latency_p99_cycles as f64 / 1e3,
            serve_mean_batch: report.mean_batch_size,
            serve_mean_utilization: mean_utilization,
            serve_deadline_misses: report.deadline_misses,
            serve_rejected: report.rejected_requests,
            serve_deterministic: deterministic,
        ],
        checks: vec![
            check!(deterministic, "replays are byte-identical"),
            pin(&report, 0x6dee_d832_316d_e020),
        ],
    }];
    if backend != BackendKind::Analytical {
        return legs;
    }

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
    let (ana_report, serve_ana_wall_ms, ana_deterministic) =
        bench_serve(|| ana_runtime.serve(&trace));
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
    legs.push(Leg {
        title: "offline mode, analytical fleet".to_string(),
        fields: fields![
            serve_ana_chips: ana_report.chips,
            serve_ana_requests: ana_report.total_requests,
            // One-time calibration cost of the analytical plan views.
            serve_ana_calibrate_ms: serve_ana_calibrate_ms,
            // Best of `REPS`, against the cycle-accurate fleet's best.
            serve_ana_wall_ms: serve_ana_wall_ms,
            serve_ana_baseline_wall_ms: serve_wall_ms,
            serve_ana_speedup: speedup,
            serve_ana_virtual_rps: ana_report.throughput_rps,
            // Sampled-verification drift versus the calibrated bound.
            serve_ana_verified_groups: verification.sampled,
            serve_ana_drift_mean: verification.mean_cycle_drift,
            serve_ana_drift_max: verification.max_cycle_drift,
            serve_ana_error_bound: verification.error_bound,
            serve_ana_within_bound: verification.within_bound,
            serve_ana_deterministic: ana_deterministic,
        ],
        checks: vec![
            check!(ana_deterministic, "replays are byte-identical"),
            check!(verification.within_bound, "drift is within bound"),
            check!(speedup >= 10.0, "analytical replay is >= 10x faster"),
            pin(&ana_report, 0xaa6b_c738_bebf_8abf),
        ],
    });
    legs
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

fn run_online(backend: BackendKind) -> Leg {
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

    // One full online session per rep: submissions in arrival order, a
    // `run_until` + `poll_completions` step every 16 requests (streaming
    // completed work out mid-trace), then a final drain.
    let mut streamed = 0usize;
    let (report, wall_ms, replays_agree) = bench_serve(|| {
        let mut session = runtime.session();
        let mut polled = 0usize;
        for (i, request) in trace.iter().enumerate() {
            session.submit(*request);
            if i % 16 == 15 {
                session.run_until(request.arrival_cycles);
                polled += session.poll_completions().len();
            }
        }
        streamed = polled;
        session.drain()
    });
    // Determinism covers both repeat runs *and* equivalence with the
    // offline wrapper (`serve` = submit-all-then-drain through the same
    // session machinery).
    let deterministic = replays_agree && json(&runtime.serve(&trace)) == json(&report);

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
    let (batch, scan) = (report.mean_batch_size, offline_mean_batch);
    Leg {
        title: format!("online session, {} fleet", backend.name()),
        fields: fields![
            serve_online_backend: backend.name(),
            serve_online_chips: report.chips,
            serve_online_requests: report.total_requests,
            // Best of `REPS` full submit/step/poll/drain sessions.
            serve_online_wall_ms: wall_ms,
            serve_online_virtual_rps: report.throughput_rps,
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
        ],
        checks: vec![
            check!(deterministic, "replays and serve() are byte-identical"),
            check!(batch + 1e-9 >= scan, "batching dominates the offline scan"),
            check!(batch > 1.0, "the interleaved trace batches"),
            pin(
                &report,
                match backend {
                    BackendKind::CycleAccurate => 0x5702_975b_4a14_ea6d,
                    BackendKind::Analytical => 0xa6d6_00a6_f995_c023,
                },
            ),
        ],
    }
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

fn run_fleet(backend: BackendKind) -> Leg {
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

    let mut conserved = true;
    let (report, wall_ms, deterministic) = bench_serve(|| {
        let mut fleet = FleetSession::new(&runtime, fleet_config(), fleet_faults());
        for request in &trace {
            fleet.submit(*request);
        }
        let report = fleet.drain();
        conserved &= fleet.poll_completions().len() == trace.len()
            && report.serve.total_requests == trace.len()
            && report.serve.served_requests + report.serve.rejected_requests
                == report.serve.total_requests;
        report
    });

    // Untimed demotion drill (analytical leg only): replay the same chaos
    // session with model 0's calibration deliberately distorted 1.6x under
    // an aggressive loop config.  The loop must demote the lying model —
    // and, because recalibration folds the lie into the online multiplier,
    // promote it back once adjusted predictions return within bound.  Runs
    // outside the timed reps, so the pinned report is the honest fleet's.
    let drill = (backend == BackendKind::Analytical).then(|| {
        let drill_config = ServeConfig {
            verify_every: 4,
            calibration: Some(CalibrationLoopConfig {
                ewma_decay: 0.5,
                demote_streak: 1,
                promote_streak: 2,
                ..CalibrationLoopConfig::default()
            }),
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
    let verification = report.serve.verification.as_ref();
    let loop_stats = report.serve.calibration.as_ref();
    let failed_over = report.availability.requests_failed_over;
    let within_bound = verification.map(|v| v.within_bound);
    let demotions = loop_stats.map(|c| c.demotions);
    let mut checks = vec![
        check!(conserved, "every request resolved exactly once"),
        check!(deterministic, "replays are byte-identical"),
        check!(failed_over != 0, "the chip death failed work over"),
        check!(within_bound != Some(false), "drift is within bound"),
        check!(demotions.is_none_or(|d| d == 0), "no false demotion"),
    ];
    if let Some(drill) = &drill {
        checks.extend([
            check!(drill.demotions > 0, "the drill demoted the lying model"),
            check!(drill.promotions > 0, "the drill's model healed back"),
        ]);
    }
    checks.push(pin(
        &report,
        match backend {
            BackendKind::CycleAccurate => 0xc481_b439_1e52_3346,
            BackendKind::Analytical => 0x812b_889b_3538_dac0,
        },
    ));
    Leg {
        title: format!("fleet mode, {} fleet", backend.name()),
        fields: fields![
            serve_fleet_backend: backend.name(),
            serve_fleet_shards: report.availability.shards,
            serve_fleet_chips_per_shard: config.chips,
            serve_fleet_requests: report.serve.total_requests,
            // Best of `REPS` full chaos sessions.
            serve_fleet_wall_ms: wall_ms,
            // Virtual throughput under faults.
            serve_fleet_virtual_rps: report.serve.throughput_rps,
            serve_fleet_chip_deaths: report.availability.chip_deaths,
            serve_fleet_degradations: report.availability.degradations,
            serve_fleet_requests_failed_over: failed_over,
            serve_fleet_chip_seconds_lost: report.availability.chip_seconds_lost,
            serve_fleet_scale_ups: report.availability.scale_ups,
            serve_fleet_scale_downs: report.availability.scale_downs,
            serve_fleet_peak_workers: report.availability.peak_workers,
            serve_fleet_attainment_latency_sensitive: attainment(SloClass::LatencySensitive),
            serve_fleet_attainment_standard: attainment(SloClass::Standard),
            serve_fleet_attainment_best_effort: attainment(SloClass::BestEffort),
            serve_fleet_conserved: conserved,
            serve_fleet_deterministic: deterministic,
            // In-band verification cadence (0 = off) and its drift figures;
            // the calibration loop of the timed fleet, then the drill's.
            serve_fleet_verify_every: verify_every,
            serve_fleet_verified_groups: verification.map(|v| v.sampled),
            serve_fleet_drift_max: verification.map(|v| v.max_cycle_drift),
            serve_fleet_error_bound: verification.map(|v| v.error_bound),
            serve_fleet_within_bound: within_bound,
            serve_recal_samples: loop_stats.map(|c| c.samples),
            serve_recal_recalibrations: loop_stats.map(|c| c.recalibrations),
            serve_recal_demotions: demotions,
            serve_recal_drill_demotions: drill.as_ref().map(|c| c.demotions),
            serve_recal_drill_promotions: drill.as_ref().map(|c| c.promotions),
            serve_recal_drill_recalibrations: drill.as_ref().map(|c| c.recalibrations),
        ],
        checks,
    }
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

/// Runs the orchestrated session once; returns the drained report and the
/// streamed outcomes.
fn run_dag_session(
    runtime: &ServeRuntime,
    session: &SessionConfig,
    items: &[workloads::dag::SessionItem],
    inherit_priority: bool,
) -> (FleetReport, Vec<StageOutcome>) {
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
    (report, orch.poll_outcomes())
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

fn run_dag(backend: BackendKind) -> Leg {
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

    let mut outcomes = Vec::new();
    let mut conserved = true;
    let (report, wall_ms, deterministic) = bench_serve(|| {
        let (report, rep_outcomes) = run_dag_session(&runtime, &session, &items, true);
        let dag = report
            .dag
            .as_ref()
            .expect("orchestrated drains carry DAG stats");
        conserved &= rep_outcomes.len() == stages_expected
            && dag.completed + dag.failed == dag.dags
            && dag.stages_served + dag.stages_rejected + dag.stages_shed == dag.stages_total
            && report.serve.total_requests == dag.points + dag.stages_served + dag.stages_rejected;
        outcomes = rep_outcomes;
        report
    });
    let dag = report
        .dag
        .as_ref()
        .expect("orchestrated drains carry DAG stats");

    // The inheritance-off control: same items, same chaos, promotions
    // disabled — the teeth gate compares latency-sensitive tail-stage p99.
    let (_, control_outcomes) = run_dag_session(&runtime, &session, &items, false);
    let tail = dag_tail_p99_us(&items, &outcomes);
    let control = dag_tail_p99_us(&items, &control_outcomes);
    Leg {
        title: format!("dag mode, {} fleet", backend.name()),
        fields: fields![
            serve_dag_backend: backend.name(),
            // Fleet-level submissions (points + submitted stages).
            serve_dag_requests: report.serve.total_requests,
            serve_dag_dags: dag.dags,
            serve_dag_points: dag.points,
            serve_dag_stages: dag.stages_total,
            // Best of `REPS` full orchestrated chaos sessions.
            serve_dag_wall_ms: wall_ms,
            serve_dag_virtual_rps: report.serve.throughput_rps,
            serve_dag_completed: dag.completed,
            serve_dag_failed: dag.failed,
            serve_dag_deadline_misses: dag.deadline_misses,
            serve_dag_e2e_p99_us: dag.e2e_p99_cycles as f64 / 1e3,
            serve_dag_inherited_promotions: dag.inherited_promotions,
            // Latency-sensitive tail-stage p99 with inheritance on, then
            // in the inheritance-off control run.
            serve_dag_tail_p99_us: tail,
            serve_dag_tail_p99_no_inherit_us: control,
            serve_dag_conserved: conserved,
            serve_dag_deterministic: deterministic,
        ],
        checks: vec![
            check!(conserved, "every stage resolved exactly once"),
            check!(deterministic, "replays are byte-identical"),
            check!(dag.inherited_promotions != 0, "inheritance engaged"),
            check!(tail < control, "inheritance protects the tail"),
            pin(
                &report,
                match backend {
                    BackendKind::CycleAccurate => 0xd04e_a05d_ba19_ec26,
                    BackendKind::Analytical => 0xa6e9_de34_108a_4cbe,
                },
            ),
        ],
    }
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

fn run_global(backend: BackendKind) -> Leg {
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

    let mut conserved = true;
    let (report, wall_ms, deterministic) = bench_serve(|| {
        let mut router = GlobalRouter::new(specs(), models, global_config(), faults.clone());
        for request in &trace {
            router.submit(*request);
        }
        let report = router.drain();
        conserved &= router.poll_completions().len() == trace.len()
            && report.summary.total_requests == trace.len()
            && report.summary.served_requests
                + report.summary.rejected_requests
                + report.summary.shed_requests
                == report.summary.total_requests;
        report
    });

    let attainment = |class: SloClass| {
        report
            .availability
            .per_class_outage_attainment
            .iter()
            .find(|c| c.class == class)
            .map_or(1.0, |c| c.attainment)
    };
    let migrations = report.availability.migration_events;
    Leg {
        title: format!("global mode, {} regions", backend.name()),
        fields: fields![
            serve_global_backend: backend.name(),
            serve_global_regions: report.availability.regions,
            serve_global_models: models,
            serve_global_requests: report.summary.total_requests,
            // Best of `REPS` full multi-region chaos sessions.
            serve_global_wall_ms: wall_ms,
            // Virtual throughput under region loss.
            serve_global_virtual_rps: report.summary.throughput_rps,
            serve_global_outages: report.availability.outages,
            serve_global_recoveries: report.availability.recoveries,
            serve_global_requests_migrated: report.availability.requests_migrated,
            serve_global_migration_events: migrations,
            serve_global_retries_scheduled: report.availability.retries_scheduled,
            serve_global_requests_shed: report.availability.requests_shed,
            serve_global_region_seconds_lost: report.availability.region_seconds_lost,
            // SLO attainment of requests arriving inside the outage window.
            serve_global_outage_attainment_latency_sensitive:
                attainment(SloClass::LatencySensitive),
            serve_global_outage_attainment_standard: attainment(SloClass::Standard),
            serve_global_outage_attainment_best_effort: attainment(SloClass::BestEffort),
            serve_global_conserved: conserved,
            serve_global_deterministic: deterministic,
        ],
        checks: vec![
            check!(conserved, "every request resolved exactly once"),
            check!(deterministic, "replays are byte-identical"),
            check!(migrations != 0, "the region outage migrated work"),
            pin(
                &report,
                match backend {
                    BackendKind::CycleAccurate => 0xc462_c5cf_c3b9_d53c,
                    BackendKind::Analytical => 0xa4dc_9bbb_c9f4_0e3a,
                },
            ),
        ],
    }
}

/// Hyperscale fleet shape: 64 shards of 4 analytical chips = 256 chips.
const HYPER_SHARDS: usize = 64;
const HYPER_CHIPS_PER_SHARD: usize = 4;
/// Request count: one million, the count the leg's digest is pinned at.
const HYPER_REQUESTS: usize = 1_000_000;
/// Peak-RSS ceiling of the hyperscale run, MiB.  The bound is a property of
/// the *fleet shape*, not the trace length: the trace streams off the
/// generator, latency pools are bounded sketches, served session state
/// retires as it resolves, and the completion buffer is capped — doubling
/// the request count must not move the peak.  The leg read 69.5–72.3 MiB
/// at 1, 2, 4 and 8 worker threads on a 2-vCPU Linux VM; the ceiling is
/// 1.25 × the largest reading, rounded up to a multiple of 8 MiB, so whole
/// flip banks and fixed 1 920-bucket sketches (101.6–103.6 MiB) fail it.
/// Documented in PERF.md ("Peak RSS").
const HYPER_RSS_CEILING_MIB: f64 = 96.0;

fn hyper_traffic() -> TrafficConfig {
    // ~60 cycles mean inter-arrival over a million requests spans a
    // ~6e7-cycle virtual horizon; three diurnal waves fit inside it and
    // the fleet runs hot enough (crest rate 1.6x) that queues build and
    // chip deaths catch in-flight work.
    TrafficConfig {
        requests: HYPER_REQUESTS,
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

fn run_hyperscale() -> Leg {
    let plans = compile_zoo();
    let traffic = hyper_traffic();
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
    let deterministic = json(&report) == json(&seq_report);

    // served + rejected == submitted, and streamed + dropped + retained
    // covers every outcome.
    let conserved = report.serve.total_requests == HYPER_REQUESTS
        && report.serve.served_requests + report.serve.rejected_requests
            == report.serve.total_requests
        && streamed as u64 + dropped == HYPER_REQUESTS as u64;
    let peak_rss = peak_rss_mib();
    let rss_ok = !peak_rss.is_some_and(|mib| mib > HYPER_RSS_CEILING_MIB);
    let loop_stats = report.serve.calibration.as_ref();
    let demotions = loop_stats.map(|c| c.demotions);
    Leg {
        title: "hyperscale mode, analytical fleet".to_string(),
        fields: fields![
            serve_hyper_shards: HYPER_SHARDS,
            serve_hyper_chips: HYPER_SHARDS * HYPER_CHIPS_PER_SHARD,
            serve_hyper_requests: report.serve.total_requests,
            // The parallel streamed session, submission through drain.
            serve_hyper_wall_ms: wall_ms,
            serve_hyper_virtual_rps: report.serve.throughput_rps,
            // Whole-process `VmHWM`; `null` where the platform hides it.
            serve_hyper_peak_rss_mib: peak_rss,
            // Streamed outcomes shed under the completion-capacity bound.
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
            // The calibration loop fed by the sparse in-band verification.
            serve_hyper_recal_samples: loop_stats.map(|c| c.samples),
            serve_hyper_recalibrations: loop_stats.map(|c| c.recalibrations),
            serve_hyper_spurious_demotions: demotions,
        ],
        checks: vec![
            check!(conserved, "every request and outcome accounted for"),
            check!(deterministic, "parallel == sequential report bytes"),
            check!(rss_ok, "peak RSS under {HYPER_RSS_CEILING_MIB} MiB"),
            check!(demotions.is_none_or(|d| d == 0), "no spurious demotion"),
            pin(&report, 0x0763_08e9_761a_6638),
        ],
    }
}

fn main() -> ExitCode {
    let (mut backend, mut mode) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--backend" => &mut backend,
            "--mode" => &mut mode,
            _ => {
                eprintln!("error: unknown argument {flag} (use --backend, --mode)");
                return ExitCode::FAILURE;
            }
        };
        let Some(value) = args.next() else {
            eprintln!("error: {flag} needs a value");
            return ExitCode::FAILURE;
        };
        *slot = Some(value);
    }
    let backend = match backend.as_deref() {
        None | Some("cycle-accurate") => BackendKind::CycleAccurate,
        Some("analytical") => BackendKind::Analytical,
        Some(other) => {
            eprintln!("error: unknown --backend {other} (use cycle-accurate|analytical)");
            return ExitCode::FAILURE;
        }
    };
    let legs = match mode.as_deref() {
        None | Some("offline") => run_offline(backend),
        Some("online") => vec![run_online(backend)],
        Some("fleet") => vec![run_fleet(backend)],
        Some("dag") => vec![run_dag(backend)],
        Some("global") => vec![run_global(backend)],
        Some("hyperscale") => vec![run_hyperscale()],
        Some(other) => {
            eprintln!(
                "error: unknown --mode {other} (use offline|online|fleet|dag|global|hyperscale)"
            );
            return ExitCode::FAILURE;
        }
    };
    // Legs finish in order; a failing leg stops the ones after it.
    if legs.into_iter().all(finish) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn digest_is_fnv1a_and_detects_a_single_changed_byte() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(
            digest(br#"{"served":1000,"p99":42}"#),
            digest(br#"{"served":1000,"p99":43}"#)
        );
    }
}
