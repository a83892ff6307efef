//! Behavioural pins of the event-driven session API:
//!
//! * the consecutive-only batching gap is fixed — an interleaved `A,B,A,B`
//!   trace batches under the session (mean batch > 1) while the offline
//!   `form_groups` scan provably cannot, and the session batcher dominates
//!   the scan on batching ratio;
//! * latency-sensitive arrivals close batch windows early and jump queued
//!   best-effort work;
//! * completions stream out of `poll_completions` before the drain, and
//!   incremental stepping returns byte-identical reports to the one-shot
//!   wrapper;
//! * `ReportAccumulator::merge` combines sharded sessions;
//! * the calibration loop folds drift samples in commit order, so
//!   event-by-event stepping and one drain report the same bytes even when
//!   groups execute out of commit order;
//! * `ServeConfig` validation, through the builder and through
//!   `ServeRuntime::from_plans`.

use std::sync::OnceLock;

use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::prelude::*;
use aim_serve::scheduler::form_groups;
use workloads::zoo::Model;

fn plans() -> &'static Vec<CompiledPlan> {
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

fn req(model: usize, arrival: u64, slo: SloClass) -> TraceRequest {
    TraceRequest {
        model,
        arrival_cycles: arrival,
        deadline_cycles: arrival + 100_000_000,
        slo,
    }
}

/// A fully interleaved two-model trace: `A,B,A,B,…`, 100 cycles apart.
fn interleaved_trace(requests: usize) -> Vec<TraceRequest> {
    (0..requests)
        .map(|i| req(i % 2, i as u64 * 100, SloClass::Standard))
        .collect()
}

#[test]
fn interleaved_trace_batches_under_the_session_but_not_the_offline_scan() {
    let config = ServeConfig::builder().chips(2).max_batch(8).build();
    let trace = interleaved_trace(32);

    // The offline consecutive-only scan: every group is a singleton, by
    // construction — the documented gap.
    let offline_groups = form_groups(&trace, config.max_batch, config.batch_window_cycles);
    assert_eq!(offline_groups.len(), trace.len());
    assert!(offline_groups.iter().all(|g| g.requests.len() == 1));

    // The session's per-model pending queues coalesce each model's arrivals
    // within the window regardless of interleaving.
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let report = runtime.serve(&trace);
    assert_eq!(report.served_requests, trace.len());
    assert!(
        report.mean_batch_size > 1.0,
        "interleaved trace must batch online, got mean {}",
        report.mean_batch_size
    );
    // All arrivals land within one window, so every group fills to max_batch.
    assert_eq!(report.groups_executed, trace.len() / config.max_batch);
    assert!((report.mean_batch_size - config.max_batch as f64).abs() < 1e-9);
}

#[test]
fn session_batcher_dominates_form_groups_on_batching_ratio() {
    // A mixed trace with some same-model runs: the offline scan batches a
    // little, the session at least as much (and strictly more here).
    let config = ServeConfig::builder().chips(2).max_batch(6).build();
    let mut trace = Vec::new();
    for i in 0..48u64 {
        // Runs of two per model, alternating: A,A,B,B,A,A,…
        trace.push(req((i as usize / 2) % 2, i * 200, SloClass::Standard));
    }
    let offline_groups = form_groups(&trace, config.max_batch, config.batch_window_cycles);
    let offline_ratio = trace.len() as f64 / offline_groups.len() as f64;
    let report = ServeRuntime::from_plans(plans().clone(), config).serve(&trace);
    assert!(
        report.mean_batch_size > offline_ratio,
        "session mean batch {} must dominate the offline scan's {}",
        report.mean_batch_size,
        offline_ratio
    );
}

#[test]
fn latency_sensitive_arrival_closes_the_window_early() {
    let config = ServeConfig::builder()
        .chips(1)
        .max_batch(8)
        .batch_window_cycles(20_000)
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    // Two standards open a batch; the latency-sensitive arrival at t=20
    // flushes it immediately — so the standard request at t=50 (still well
    // inside the original window) lands in a *new* group.
    let trace = vec![
        req(0, 0, SloClass::Standard),
        req(0, 10, SloClass::Standard),
        req(0, 20, SloClass::LatencySensitive),
        req(0, 50, SloClass::Standard),
    ];
    let mut session = runtime.session();
    for r in &trace {
        session.submit(*r);
    }
    let report = session.drain();
    let outcomes = session.poll_completions();
    assert_eq!(report.groups_executed, 2, "the LS arrival split the window");
    let batch_of = |request: usize| {
        outcomes
            .iter()
            .find(|o| o.request == request)
            .and_then(|o| match o.status {
                CompletionStatus::Served {
                    batch_size, group, ..
                } => Some((batch_size, group)),
                CompletionStatus::Rejected { .. } => None,
            })
            .expect("request served")
    };
    assert_eq!(batch_of(0), (3, 0), "the LS request rides with the opener");
    assert_eq!(batch_of(2).1, 0);
    assert_eq!(batch_of(3), (1, 1), "post-flush arrival opens a new group");

    // Control: without the LS arrival, all four ride one window.
    let all_standard: Vec<TraceRequest> = trace
        .iter()
        .map(|r| TraceRequest {
            slo: SloClass::Standard,
            ..*r
        })
        .collect();
    assert_eq!(runtime.serve(&all_standard).groups_executed, 1);
}

#[test]
fn latency_sensitive_jumps_queued_best_effort_work() {
    // One chip, singleton groups: a best-effort group queued behind a busy
    // chip is overtaken by a latency-sensitive group committed later.
    let config = ServeConfig::builder().chips(1).max_batch(1).build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let trace = vec![
        req(0, 0, SloClass::Standard),          // occupies the chip
        req(1, 10, SloClass::BestEffort),       // queued
        req(0, 20, SloClass::LatencySensitive), // jumps the queue
    ];
    let mut session = runtime.session();
    for r in &trace {
        session.submit(*r);
    }
    let _ = session.drain();
    let outcomes = session.poll_completions();
    let finish_of = |request: usize| {
        outcomes
            .iter()
            .find(|o| o.request == request)
            .and_then(|o| match o.status {
                CompletionStatus::Served { finish_cycles, .. } => Some(finish_cycles),
                CompletionStatus::Rejected { .. } => None,
            })
            .expect("request served")
    };
    assert!(
        finish_of(2) < finish_of(1),
        "latency-sensitive ({}) must finish before the earlier-queued best-effort ({})",
        finish_of(2),
        finish_of(1)
    );
    assert!(
        finish_of(0) < finish_of(2),
        "running work is never preempted"
    );
}

#[test]
fn completions_stream_before_drain_and_stepping_matches_one_shot() {
    let config = ServeConfig::builder().chips(2).max_batch(8).build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let trace = interleaved_trace(32);

    let mut session = runtime.session();
    let mut streamed = Vec::new();
    for r in &trace {
        session.submit(*r);
        session.run_until(r.arrival_cycles);
        streamed.extend(session.poll_completions());
    }
    assert!(
        !streamed.is_empty(),
        "full batches must retire and stream while traffic is still arriving"
    );
    let report = session.drain();
    streamed.extend(session.poll_completions());
    assert_eq!(
        streamed.len(),
        trace.len(),
        "every request yields one outcome"
    );
    // Each outcome is unique and consistent with the trace.
    let mut seen: Vec<usize> = streamed.iter().map(|o| o.request).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>());
    for o in &streamed {
        assert_eq!(o.model, trace[o.request].model);
        assert_eq!(o.slo, trace[o.request].slo);
    }

    // Incremental stepping and the one-shot wrapper agree byte for byte.
    let one_shot = runtime.serve(&trace);
    assert_eq!(report, one_shot);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&one_shot).unwrap()
    );
}

#[test]
fn stepping_exactly_onto_a_window_closure_matches_the_wrapper() {
    // Regression: `run_until` and `submit` must share the same window
    // boundary convention.  Here a `run_until` target lands exactly on an
    // open batch's close_at, and a same-model request arrives on that very
    // cycle — the window must stay open for it (the offline scan's
    // inclusive horizon), not close a step early.
    let config = ServeConfig::builder()
        .chips(1)
        .max_batch(8)
        .batch_window_cycles(1_000)
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let trace = vec![
        req(0, 0, SloClass::Standard),     // opens the window: close_at = 1000
        req(0, 1_000, SloClass::Standard), // arrives exactly at close_at
    ];
    let mut session = runtime.session();
    session.submit(trace[0]);
    session.run_until(1_000); // lands exactly on the closure boundary
    session.submit(trace[1]);
    let stepped = session.drain();
    assert_eq!(stepped.groups_executed, 1, "the same-cycle arrival joins");
    let one_shot = runtime.serve(&trace);
    assert_eq!(stepped, one_shot);
    assert_eq!(
        serde_json::to_string(&stepped).unwrap(),
        serde_json::to_string(&one_shot).unwrap()
    );
}

#[test]
fn per_class_admission_sheds_best_effort_first() {
    // Saturate one chip with instantaneous arrivals; the best-effort cap is
    // tight, the standard cap generous.
    let admission = AdmissionConfig {
        max_backlog_cycles: u64::MAX / 2,
        latency_sensitive_backlog_cycles: u64::MAX / 2,
        best_effort_backlog_cycles: 0,
    };
    let config = ServeConfig::builder()
        .chips(1)
        .max_batch(1)
        .admission(Some(admission))
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let trace: Vec<TraceRequest> = (0..8)
        .map(|i| {
            req(
                0,
                0,
                if i % 2 == 0 {
                    SloClass::Standard
                } else {
                    SloClass::BestEffort
                },
            )
        })
        .collect();
    let report = runtime.serve(&trace);
    let by_class = |class: SloClass| {
        report
            .per_class
            .iter()
            .find(|c| c.class == class)
            .copied()
            .unwrap()
    };
    assert_eq!(by_class(SloClass::Standard).rejected, 0);
    // The standard opener already occupies the chip when the first
    // best-effort group arrives, so every best-effort group sees a nonzero
    // backlog and the zero-cycle cap sheds all of them.
    assert_eq!(by_class(SloClass::BestEffort).rejected, 4);
    assert_eq!(report.served_requests + report.rejected_requests, 8);
}

#[test]
fn sharded_sessions_merge_into_one_report() {
    let config = ServeConfig::builder().chips(2).build();
    let runtime_a = ServeRuntime::from_plans(plans().clone(), config);
    let runtime_b = ServeRuntime::from_plans(plans().clone(), config);
    let trace_a = interleaved_trace(16);
    let trace_b: Vec<TraceRequest> = interleaved_trace(24)
        .into_iter()
        .map(|r| TraceRequest {
            arrival_cycles: r.arrival_cycles + 37,
            deadline_cycles: r.deadline_cycles + 37,
            ..r
        })
        .collect();

    let mut session_a = runtime_a.session();
    for r in &trace_a {
        session_a.submit(*r);
    }
    let mut session_b = runtime_b.session();
    for r in &trace_b {
        session_b.submit(*r);
    }
    let solo_a = runtime_a.serve(&trace_a);
    let solo_b = runtime_b.serve(&trace_b);

    let mut acc = session_a.drain_accumulator();
    acc.merge(session_b.drain_accumulator());
    let merged = acc.finish();

    assert_eq!(merged.chips, 4);
    assert_eq!(merged.total_requests, 40);
    assert_eq!(
        merged.served_requests,
        solo_a.served_requests + solo_b.served_requests
    );
    assert_eq!(
        merged.makespan_cycles,
        solo_a.makespan_cycles.max(solo_b.makespan_cycles)
    );
    assert_eq!(merged.per_chip.len(), 4);
    // The second shard's chips re-index after the first's.
    for (i, chip) in merged.per_chip.iter().enumerate() {
        assert_eq!(chip.chip, i);
    }
    assert_eq!(merged.per_chip[2].requests, solo_b.per_chip[0].requests);
    assert_eq!(
        merged.failures,
        solo_a.failures + solo_b.failures,
        "electrical aggregates pool across shards"
    );
    // The pooled latency percentiles are bracketed by the shard extremes.
    assert!(merged.latency_max_cycles == solo_a.latency_max_cycles.max(solo_b.latency_max_cycles));
}

#[test]
fn builder_matches_struct_literal_and_validates() {
    let built = ServeConfig::builder()
        .chips(8)
        .max_batch(4)
        .batch_window_cycles(1_000)
        .reload_cycles_per_slice(64)
        .dispatch(DispatchPolicy::RoundRobin)
        .backend(BackendKind::Analytical)
        .audit_chips(2)
        .verify_every(5)
        .calibration(Some(CalibrationLoopConfig::default()))
        .parallel(false)
        .seed(42)
        .completion_capacity(256)
        .build();
    let literal = ServeConfig {
        chips: 8,
        max_batch: 4,
        batch_window_cycles: 1_000,
        reload_cycles_per_slice: 64,
        dispatch: DispatchPolicy::RoundRobin,
        admission: None,
        backend: BackendKind::Analytical,
        audit_chips: 2,
        verify_every: 5,
        calibration: Some(CalibrationLoopConfig::default()),
        parallel: false,
        seed: 42,
        completion_capacity: 256,
    };
    assert_eq!(built, literal);
}

#[test]
#[should_panic(expected = "audit chips")]
fn builder_rejects_degenerate_configs_at_build_time() {
    let _ = ServeConfig::builder().chips(2).audit_chips(3).build();
}

#[test]
#[should_panic(expected = "audit chips")]
fn from_plans_rejects_a_struct_literal_with_more_audit_chips_than_chips() {
    let config = ServeConfig {
        chips: 2,
        audit_chips: 3,
        ..ServeConfig::default()
    };
    let _ = ServeRuntime::from_plans(plans().clone(), config);
}

#[test]
fn drained_sessions_reject_further_submissions() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::builder().build());
    let mut session = runtime.session();
    session.submit(req(0, 0, SloClass::Standard));
    let _ = session.drain();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.submit(req(0, 1, SloClass::Standard));
    }));
    assert!(
        panicked.is_err(),
        "submitting to a drained session must panic"
    );
}

/// Virtual time ends at `u64::MAX`.  A request arriving five cycles before
/// it used to overflow its group's finish time: an arithmetic panic in
/// debug, and in release a finish that wrapped to a small makespan with a
/// chip more than 100 % busy.  The finish now saturates at `u64::MAX`.
#[test]
fn a_request_at_the_end_of_virtual_time_is_served_without_overflow() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::builder().build());
    let mut session = runtime.session();
    session.submit(TraceRequest {
        model: 0,
        arrival_cycles: u64::MAX - 5,
        deadline_cycles: u64::MAX,
        slo: SloClass::Standard,
    });
    let report = session.drain();
    assert_eq!(report.served_requests, 1);
    assert_eq!(report.makespan_cycles, u64::MAX);
    assert!(
        report.per_chip.iter().all(|chip| chip.utilization <= 1.0),
        "utilization above 1: {:?}",
        report.per_chip
    );
}

/// A weight-reload cost past the end of virtual time used to overflow: the
/// per-model reload (`slices × reload_cycles_per_slice`) and each group's
/// `reload + batch × exec` were computed unchecked, an arithmetic panic in
/// debug and, in release, a wrapped cost that drained a four-request trace
/// to a 9.2·10¹⁸-cycle makespan.  Both now saturate at `u64::MAX`, and so
/// does the session's sum of its chips' backlogs, which those saturated
/// costs reach.
#[test]
fn a_reload_cost_past_the_end_of_virtual_time_saturates() {
    let config = ServeConfig::builder()
        .reload_cycles_per_slice(u64::MAX / 2)
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let trace = interleaved_trace(4);
    let report = runtime.serve(&trace);
    assert_eq!(report.served_requests, trace.len());
    // Every group switches model onto its chip, so each finishes at the end.
    assert_eq!(report.makespan_cycles, u64::MAX);
    assert!(
        report.per_chip.iter().all(|chip| chip.utilization <= 1.0),
        "utilization above 1: {:?}",
        report.per_chip
    );

    // Two such groups queued on two chips: the backlog an elastic scaler
    // reads saturates too.
    let mut session = runtime.session();
    session.submit(req(0, 0, SloClass::LatencySensitive));
    session.submit(req(1, 100, SloClass::LatencySensitive));
    let backlog = session.class_backlog_cycles();
    assert_eq!(backlog[SloClass::LatencySensitive.index()], u64::MAX);
}

// --- the online calibration loop ---------------------------------------------

/// The headline regression of the health-derate verification fix: a
/// degraded analytical chip must NOT read as a mis-calibrated model.  Slots
/// used to be inserted with a hard-coded `ChipHealth::Healthy` stamp, so a
/// verification sample taken on a chip degraded by 80% compared an
/// un-derated prediction against a 1.8×-stretched measurement — ~44%
/// apparent drift against a ~5% bound, a guaranteed false alarm.  With the
/// chip's live health stamped onto the slot, both sides of the sample carry
/// the same derate and only genuine calibration error remains.
#[test]
fn verification_on_a_degraded_chip_stays_within_bound() {
    let config = ServeConfig::builder()
        .chips(1)
        .max_batch(1)
        .backend(BackendKind::Analytical)
        .verify_every(1)
        .calibration(Some(CalibrationLoopConfig::default()))
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), config);
    let mut session = runtime.session();
    session.set_chip_health(
        0,
        ChipHealth::Degraded {
            slowdown_percent: 80,
        },
        0,
    );
    for i in 0..8u64 {
        session.submit(req((i % 2) as usize, i * 500, SloClass::Standard));
    }
    let report = session.drain();
    assert_eq!(report.served_requests, 8);

    let verification = report.verification.expect("every group is sampled");
    assert!(verification.sampled > 0);
    let bound = verification.error_bound;
    assert!(
        verification.within_bound,
        "degraded-chip verification must stay within the calibrated bound \
         (max drift {} vs bound {bound}): the prediction side of each sample \
         must carry the slot's real health derate, not a hard-coded Healthy",
        verification.max_cycle_drift,
    );
    assert!(verification.max_cycle_drift <= bound);

    // And the loop agrees: an honest model on sick hardware is never demoted.
    let cal = report.calibration.expect("the loop is on");
    assert!(cal.samples > 0);
    assert_eq!(cal.demotions, 0, "no false demotions under degradation");
    assert!(cal.per_model.iter().all(|m| !m.demoted));
}

/// The demotion teeth, end to end: distort one model's calibration so its
/// analytical predictions are a confident lie, and the loop must (a) demote
/// it to cycle-accurate execution once the drift EWMA leaves the bound, and
/// (b) — because recalibration keeps folding the residual into the online
/// multiplier — pull the adjusted prediction back within bound and promote
/// the model again.  The honest model must ride along untouched.
#[test]
fn a_miscalibrated_model_is_demoted_and_heals_back() {
    let config = ServeConfig::builder()
        .chips(1)
        .max_batch(1)
        .backend(BackendKind::Analytical)
        .verify_every(1)
        .calibration(Some(CalibrationLoopConfig {
            ewma_decay: 0.5,
            demote_streak: 1,
            promote_streak: 2,
            recalibrate_interval_cycles: 20_000,
        }))
        .build();
    let mut runtime = ServeRuntime::from_plans(plans().clone(), config);
    // Model 0 now predicts 1.6× its true cycle count while still claiming
    // its fitted error bound.
    runtime.distort_model_calibration(0, 1.6);
    let trace: Vec<TraceRequest> = (0..40u64)
        .map(|i| req((i % 2) as usize, i * 2_000, SloClass::Standard))
        .collect();
    let report = runtime.serve(&trace);
    assert_eq!(report.served_requests, trace.len());

    let cal = report.calibration.expect("the loop is on");
    let lying = cal.per_model[0];
    let honest = cal.per_model[1];
    assert!(
        lying.demotions >= 1,
        "a 60% prediction lie must trigger demotion, got {cal:?}"
    );
    assert!(
        lying.promotions >= 1,
        "recalibration must heal the lie and promote the model back, got {cal:?}"
    );
    assert!(lying.recalibrations > 0);
    assert!(
        lying.max_abs_ewma_drift > honest.max_abs_ewma_drift,
        "the drift excursion must localise to the distorted model"
    );
    assert_eq!(honest.demotions, 0, "the honest model must not be demoted");
    assert_eq!(cal.demotions, lying.demotions);
    assert_eq!(cal.promotions, lying.promotions);
}

/// Demotion and recalibration change *measured execution*, never the
/// pre-execution estimates: the scheduler's placement and batching under a
/// distorted model with the loop ON must match the same distorted runtime
/// with the loop OFF group for group.
#[test]
fn the_calibration_loop_never_touches_scheduling_estimates() {
    let build = |calibration| {
        let config = ServeConfig::builder()
            .chips(2)
            .backend(BackendKind::Analytical)
            .verify_every(2)
            .calibration(calibration)
            .build();
        let mut runtime = ServeRuntime::from_plans(plans().clone(), config);
        runtime.distort_model_calibration(0, 1.6);
        runtime
    };
    let trace: Vec<TraceRequest> = (0..32u64)
        .map(|i| req((i % 2) as usize, i * 1_500, SloClass::Standard))
        .collect();
    let with_loop = build(Some(CalibrationLoopConfig {
        demote_streak: 1,
        recalibrate_interval_cycles: 20_000,
        ..CalibrationLoopConfig::default()
    }))
    .serve(&trace);
    let without_loop = build(None).serve(&trace);
    assert!(with_loop.calibration.expect("loop on").demotions >= 1);
    // Same groups on the same chips: per-chip group and request counts are
    // pure functions of the estimate path.
    assert_eq!(with_loop.groups_executed, without_loop.groups_executed);
    for (a, b) in with_loop.per_chip.iter().zip(&without_loop.per_chip) {
        assert_eq!(a.groups, b.groups, "placement diverged on chip {}", a.chip);
        assert_eq!(a.requests, b.requests);
    }
}

/// The calibration loop folds drift samples in *commit* order, whatever
/// order groups execute in.  Round-robin dispatch onto a degraded chip 0
/// and a healthy chip 1 makes later-committed groups on chip 1 start
/// before earlier-committed ones on chip 0, and the two chips' samples
/// carry different residuals (the derate rounds each side of a sample).
/// Stepping event by event executes such a pair in two harvests, one
/// drain executes it in one; an EWMA fed in execution order would then
/// recalibrate differently, and the two reports would differ.
#[test]
fn drift_samples_fold_in_commit_order_under_any_stepping() {
    let config = ServeConfig::builder()
        .chips(2)
        .max_batch(1)
        .dispatch(DispatchPolicy::RoundRobin)
        .backend(BackendKind::Analytical)
        .verify_every(1)
        .calibration(Some(CalibrationLoopConfig {
            ewma_decay: 0.5,
            demote_streak: 1,
            promote_streak: 2,
            // Long enough that inverted pairs share the first window: the
            // order of folds in different windows cannot matter.
            recalibrate_interval_cycles: 6_000,
        }))
        .build();
    let mut runtime = ServeRuntime::from_plans(plans().clone(), config);
    runtime.distort_model_calibration(0, 1.6);
    let trace: Vec<TraceRequest> = (0..24u64)
        .map(|i| req(0, i * 100, SloClass::Standard))
        .collect();
    let session = || {
        let mut session = runtime.session();
        session.set_chip_health(
            0,
            ChipHealth::Degraded {
                slowdown_percent: 37,
            },
            0,
        );
        for request in &trace {
            session.submit(*request);
        }
        session
    };

    let coarse = session().drain();

    let mut stepped = session();
    let mut outcomes = Vec::new();
    while let Some(next) = stepped.next_event_cycles() {
        stepped.run_until(next);
        outcomes.extend(stepped.poll_completions());
    }
    let fine = stepped.drain();
    outcomes.extend(stepped.poll_completions());

    // The scenario must hold an execution-order inversion: some group
    // starts before a group committed ahead of it.
    let starts: Vec<(usize, u64)> = outcomes
        .iter()
        .map(|o| match o.status {
            CompletionStatus::Served {
                group,
                start_cycles,
                ..
            } => (group, start_cycles),
            CompletionStatus::Rejected { .. } => unreachable!("no admission control"),
        })
        .collect();
    assert!(
        starts
            .iter()
            .any(|&(g, s)| starts.iter().any(|&(h, t)| h > g && t < s)),
        "no later-committed group started first: {starts:?}"
    );
    let cal = coarse.calibration.as_ref().expect("the loop is on");
    assert!(
        cal.recalibrations > 1,
        "the loop must act on the samples: {cal:?}"
    );
    assert_eq!(
        serde_json::to_string(&coarse).unwrap(),
        serde_json::to_string(&fine).unwrap()
    );
}
