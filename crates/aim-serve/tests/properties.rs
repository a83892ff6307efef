//! Scheduling invariants of the serving runtime, pinned with property tests
//! (deterministic `proptest` shim) plus targeted determinism checks:
//!
//! * no request is ever dropped — every trace request is either served or
//!   rejected by admission control, exactly once;
//! * per-chip request counts sum to the served total;
//! * the report is byte-identical for one worker vs the full rayon fan-out
//!   at a fixed seed (the determinism contract of the crate docs).

use std::sync::OnceLock;

use proptest::prelude::*;

use aim_core::booster::BoosterConfig;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::{AdmissionConfig, CompletionStatus, DispatchPolicy, ServeConfig, ServeRuntime};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use workloads::inputs::{
    synthetic_trace, ArrivalShape, SloClass, SloMix, TraceRequest, TrafficConfig,
};
use workloads::zoo::Model;

/// Backend the scheduling-invariant property runs under, selectable from the
/// CI matrix (`AIM_SERVE_BACKEND=analytical cargo test -p aim-serve`): the
/// conservation and worker-count-independence contracts must hold for
/// analytical fleets exactly as for cycle-accurate ones.
fn matrix_backend() -> BackendKind {
    match std::env::var("AIM_SERVE_BACKEND").as_deref() {
        Ok("analytical") => BackendKind::Analytical,
        _ => BackendKind::CycleAccurate,
    }
}

/// Tiny two-model plan set compiled once and shared across every test case.
/// MobileNetV2 at two different strides keeps every operator small (few
/// mapped slices, so one or two batches per plan), which is what makes 128
/// property cases affordable; the baseline AIM config keeps runs
/// failure-free.  Scheduling invariants only see per-plan cycle costs, so
/// model realism is not load-bearing here — `booster_plan` and the aim-core
/// suites cover the richer simulation paths.
fn tiny_plans() -> &'static Vec<CompiledPlan> {
    static PLANS: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let config = AimConfig {
            cycles_per_slice: 40,
            ..AimConfig::baseline()
        };
        vec![
            CompiledPlan::compile(
                &Model::mobilenet_v2(),
                &AimConfig {
                    operator_stride: Some(13),
                    ..config
                },
            ),
            CompiledPlan::compile(
                &Model::mobilenet_v2(),
                &AimConfig {
                    operator_stride: Some(17),
                    ..config
                },
            ),
        ]
    })
}

/// A single plan compiled under the IR-Booster, whose recompute/stall
/// dynamics make execution cycles input-dependent — the harder determinism
/// case.
fn booster_plan() -> &'static Vec<CompiledPlan> {
    static PLANS: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let config = AimConfig {
            operator_stride: Some(9),
            cycles_per_slice: 40,
            booster: Some(BoosterConfig::low_power()),
            ..AimConfig::baseline()
        };
        vec![CompiledPlan::compile(&Model::resnet18(), &config)]
    })
}

fn trace_for(requests: usize, models: usize, seed: u64) -> Vec<TraceRequest> {
    trace_with_mix(requests, models, seed, SloMix::AllStandard)
}

fn trace_with_mix(requests: usize, models: usize, seed: u64, slo_mix: SloMix) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests,
        models,
        mean_interarrival_cycles: 400.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 30_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix,
        seed,
    })
}

proptest! {
    #[test]
    fn scheduling_conserves_requests_and_is_worker_count_independent(
        requests in 1usize..10,
        chips in 1usize..4,
        max_batch in 1usize..6,
        window in 0u64..20_000,
        backlog_cap in 0u64..400_000,
        seed in any::<u64>(),
    ) {
        let plans = tiny_plans();
        // Small caps exercise admission rejections; large ones admit all.
        let admission = if backlog_cap < 200_000 {
            Some(AdmissionConfig::uniform(backlog_cap))
        } else {
            None
        };
        let config = ServeConfig {
            chips,
            max_batch,
            batch_window_cycles: window,
            admission,
            dispatch: if seed.is_multiple_of(2) {
                DispatchPolicy::LeastLoaded
            } else {
                DispatchPolicy::RoundRobin
            },
            backend: matrix_backend(),
            // Exercise heterogeneous fleets (one audit chip when the fleet
            // has room) and sampled verification under the analytical leg.
            audit_chips: usize::from(chips > 1),
            verify_every: 3,
            parallel: true,
            seed,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(plans.clone(), config);
        let trace = trace_for(requests, plans.len(), seed ^ 0xA5A5);
        let report = runtime.serve(&trace);

        // No request dropped: served + rejected == total.
        prop_assert_eq!(report.total_requests, requests);
        prop_assert!(
            report.served_requests + report.rejected_requests == report.total_requests,
            "served {} + rejected {} != total {}",
            report.served_requests,
            report.rejected_requests,
            report.total_requests
        );

        // Per-chip counts sum to the served totals.
        let chip_requests: usize = report.per_chip.iter().map(|c| c.requests).sum();
        let chip_groups: usize = report.per_chip.iter().map(|c| c.groups).sum();
        prop_assert_eq!(chip_requests, report.served_requests);
        prop_assert_eq!(chip_groups, report.groups_executed);
        prop_assert!(report.groups_executed <= report.groups_formed);

        // Utilization is a fraction; a chip is never busier than the run.
        for chip in &report.per_chip {
            prop_assert!((0.0..=1.0).contains(&chip.utilization));
            prop_assert!(chip.busy_cycles <= report.makespan_cycles);
        }

        // Latency percentiles are ordered.
        prop_assert!(report.latency_p50_cycles <= report.latency_p95_cycles);
        prop_assert!(report.latency_p95_cycles <= report.latency_p99_cycles);
        prop_assert!(report.latency_p99_cycles <= report.latency_max_cycles);

        // One worker and the full fan-out return identical bytes.
        let sequential = ServeRuntime::from_plans(
            plans.clone(),
            ServeConfig { parallel: false, ..config },
        )
        .serve(&trace);
        prop_assert_eq!(&report, &sequential);
        let a = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        let b = serde_json::to_string(&sequential).map_err(|e| e.to_string())?;
        prop_assert_eq!(a, b);
    }
}

#[test]
fn fixed_seed_reproduces_byte_identical_reports() {
    let runtime = ServeRuntime::from_plans(tiny_plans().clone(), ServeConfig::default());
    let trace = trace_for(48, 2, 0xBEEF);
    let a = runtime.serve(&trace);
    let b = runtime.serve(&trace);
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    // A different serve seed perturbs the replays' input activity, which
    // shows up in the electrical aggregates.
    let other = ServeRuntime::from_plans(
        tiny_plans().clone(),
        ServeConfig {
            seed: 0x0DD,
            ..ServeConfig::default()
        },
    )
    .serve(&trace);
    assert!((other.avg_macro_power_mw - a.avg_macro_power_mw).abs() > 1e-12);
}

#[test]
fn booster_fleet_is_worker_count_independent_too() {
    // Under the IR-Booster, execution cycles depend on the replay's input
    // activity (aggressive levels trigger recomputes), making this the
    // stronger determinism check.
    let trace = trace_for(24, 1, 0x1234);
    let base = ServeConfig {
        chips: 3,
        ..ServeConfig::default()
    };
    let parallel = ServeRuntime::from_plans(booster_plan().clone(), base).serve(&trace);
    let sequential = ServeRuntime::from_plans(
        booster_plan().clone(),
        ServeConfig {
            parallel: false,
            ..base
        },
    )
    .serve(&trace);
    assert_eq!(parallel, sequential);
    assert!(parallel.simulated_cycles > 0);
}

#[test]
fn serving_a_bursty_trace_batches_and_meets_sane_bounds() {
    let runtime = ServeRuntime::from_plans(
        tiny_plans().clone(),
        ServeConfig {
            chips: 4,
            max_batch: 8,
            batch_window_cycles: 50_000,
            ..ServeConfig::default()
        },
    );
    let trace = synthetic_trace(&TrafficConfig {
        requests: 64,
        models: 2,
        mean_interarrival_cycles: 200.0,
        burst_repeat_prob: 0.8,
        deadline_slack_cycles: 10_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::AllStandard,
        seed: 0xFACE,
    });
    let report = runtime.serve(&trace);
    assert_eq!(report.served_requests, 64);
    assert_eq!(report.rejected_requests, 0);
    assert!(
        report.mean_batch_size > 1.5,
        "bursty traffic must batch, got {}",
        report.mean_batch_size
    );
    assert!(report.makespan_cycles > 0);
    assert!(report.throughput_rps > 0.0);
    assert!(report.avg_macro_power_mw > 0.0);
    assert_eq!(report.deadline_misses, 0, "deadlines are generous here");
    // All four chips should see work under least-loaded dispatch.
    assert!(report.per_chip.iter().all(|c| c.requests > 0));
}

#[test]
fn tight_deadlines_are_reported_as_misses() {
    let runtime = ServeRuntime::from_plans(tiny_plans().clone(), ServeConfig::default());
    let trace = synthetic_trace(&TrafficConfig {
        requests: 32,
        models: 2,
        mean_interarrival_cycles: 100.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 1, // impossible
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::AllStandard,
        seed: 0xD0A,
    });
    let report = runtime.serve(&trace);
    assert_eq!(report.deadline_misses, report.served_requests);
}

proptest! {
    /// Satellite contract of the session redesign: the offline wrapper and
    /// a manually driven session (submit everything, then drain) produce
    /// byte-identical reports — across seeds, worker counts and both
    /// execution backends (the CI matrix flips `AIM_SERVE_BACKEND`).
    #[test]
    fn serve_and_session_drain_are_byte_identical(
        requests in 1usize..24,
        chips in 1usize..4,
        parallel_bit in 0usize..2,
        seed in any::<u64>(),
    ) {
        let config = ServeConfig {
            chips,
            backend: matrix_backend(),
            audit_chips: usize::from(chips > 1),
            verify_every: 2,
            parallel: parallel_bit == 1,
            seed,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(tiny_plans().clone(), config);
        let trace = trace_with_mix(
            requests,
            tiny_plans().len(),
            seed ^ 0x5E55,
            SloMix::Mixed { latency_share: 0.25, best_effort_share: 0.25 },
        );
        let offline = runtime.serve(&trace);
        let mut session = runtime.session();
        for request in &trace {
            session.submit(*request);
        }
        let online = session.drain();
        prop_assert_eq!(&offline, &online);
        let a = serde_json::to_string(&offline).map_err(|e| e.to_string())?;
        let b = serde_json::to_string(&online).map_err(|e| e.to_string())?;
        prop_assert_eq!(a, b);
    }
}

proptest! {
    /// SLO priority invariant: on any given chip, no latency-sensitive
    /// request completes after a best-effort request that arrived later —
    /// latency-sensitive groups dispatch at arrival and jump queued
    /// lower-class work, so later best-effort arrivals can never overtake
    /// them on the same chip.
    #[test]
    fn latency_sensitive_never_completes_after_later_best_effort_on_same_chip(
        requests in 2usize..32,
        chips in 1usize..3,
        seed in any::<u64>(),
    ) {
        let config = ServeConfig {
            chips,
            backend: matrix_backend(),
            seed,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(tiny_plans().clone(), config);
        let trace = trace_with_mix(
            requests,
            tiny_plans().len(),
            seed ^ 0x9917,
            SloMix::Mixed { latency_share: 0.4, best_effort_share: 0.4 },
        );
        let mut session = runtime.session();
        for request in &trace {
            session.submit(*request);
        }
        let _ = session.drain();
        let outcomes = session.poll_completions();
        prop_assert_eq!(outcomes.len(), trace.len());
        let served: Vec<_> = outcomes
            .iter()
            .filter_map(|o| match o.status {
                CompletionStatus::Served { chip, finish_cycles, .. } => {
                    Some((o.request, o.slo, chip, finish_cycles))
                }
                CompletionStatus::Rejected { .. } => None,
            })
            .collect();
        for &(ls_req, ls_slo, ls_chip, ls_finish) in &served {
            if ls_slo != SloClass::LatencySensitive {
                continue;
            }
            for &(be_req, be_slo, be_chip, be_finish) in &served {
                if be_slo != SloClass::BestEffort || be_chip != ls_chip {
                    continue;
                }
                if trace[be_req].arrival_cycles > trace[ls_req].arrival_cycles {
                    prop_assert!(
                        ls_finish <= be_finish,
                        "latency-sensitive request {} (arrived {}, finished {}) completed after \
                         later best-effort request {} (arrived {}, finished {}) on chip {}",
                        ls_req, trace[ls_req].arrival_cycles, ls_finish,
                        be_req, trace[be_req].arrival_cycles, be_finish, ls_chip
                    );
                }
            }
        }
    }
}

proptest! {
    /// The calibration loop's determinism contract: recalibration points
    /// are virtual-time events on a canonical boundary grid, so a runtime
    /// with the loop ON (and a deliberately mis-calibrated model pushing it
    /// through demotion and recovery) reports byte-identically across
    /// `run_until` stepping granularities, submit/step interleavings and
    /// worker counts — on both execution backends (the CI matrix flips
    /// `AIM_SERVE_BACKEND`).
    #[test]
    fn recalibration_reports_are_invariant_to_stepping_and_workers(
        requests in 4usize..16,
        chips in 1usize..4,
        step in 2_000u64..50_000,
        interval_bit in 0usize..2,
        seed in any::<u64>(),
    ) {
        let config = ServeConfig {
            chips,
            backend: matrix_backend(),
            audit_chips: usize::from(chips > 1),
            verify_every: 2,
            calibration: Some(CalibrationLoopConfig {
                ewma_decay: 0.5,
                demote_streak: 1,
                promote_streak: 2,
                recalibrate_interval_cycles: if interval_bit == 0 { 5_000 } else { 20_000 },
            }),
            parallel: true,
            seed,
            ..ServeConfig::default()
        };
        let distorted = |config: ServeConfig| {
            let mut runtime = ServeRuntime::from_plans(tiny_plans().clone(), config);
            // Model 0 predicts 1.35× its true cycles while claiming its
            // fitted bound: the loop demotes it, recalibrates the lie away
            // and promotes it back — all of which must land on the same
            // boundaries no matter how the caller steps virtual time.
            runtime.distort_model_calibration(0, 1.35);
            runtime
        };
        let runtime = distorted(config);
        let trace = trace_for(requests, tiny_plans().len(), seed ^ 0xCA1B);
        let baseline = runtime.serve(&trace);

        // Fine-grained stepping after all submissions.
        let mut session = runtime.session();
        for request in &trace {
            session.submit(*request);
        }
        let mut now = session.clock();
        while let Some(next) = session.next_event_cycles() {
            now = (now + step).max(next);
            session.run_until(now);
        }
        let stepped = session.drain();

        // Stepping interleaved with submission.
        let mut interleaved = runtime.session();
        for request in &trace {
            interleaved.submit(*request);
            interleaved.run_until(request.arrival_cycles);
        }
        let interleaved_report = interleaved.drain();

        // One worker.
        let sequential = distorted(ServeConfig { parallel: false, ..config }).serve(&trace);

        let bytes = serde_json::to_string(&baseline).map_err(|e| e.to_string())?;
        prop_assert_eq!(&bytes, &serde_json::to_string(&stepped).map_err(|e| e.to_string())?);
        prop_assert_eq!(
            &bytes,
            &serde_json::to_string(&interleaved_report).map_err(|e| e.to_string())?
        );
        prop_assert_eq!(&bytes, &serde_json::to_string(&sequential).map_err(|e| e.to_string())?);
        // The stats block rides along exactly when the loop can run (it
        // needs analytical plans); tiny traces may legitimately hash to
        // zero verification samples, so only presence is asserted here.
        if matrix_backend() == BackendKind::Analytical {
            prop_assert!(baseline.calibration.is_some());
        } else {
            prop_assert!(baseline.calibration.is_none());
        }
    }
}
