//! Invariants of the fault-tolerant elastic fleet:
//!
//! * **conservation under chaos** — every submitted request is exactly once
//!   served, rejected, or failed-over-and-served, under arbitrary generated
//!   `FaultPlan`s, worker counts and both execution backends;
//! * **determinism** — report bytes are invariant to `run_until` stepping
//!   granularity (including steps landing exactly on fault times), to shard
//!   polling order, and to the worker-thread fan-out;
//! * **degenerate-fleet equivalence** — a 1-shard fleet with no faults and
//!   no scaling reports byte-identically to a plain `ServeSession`, and each
//!   shard of a 3-shard one streams exactly a plain session's outcomes
//!   despite the replay memo its shards share;
//! * targeted behaviour pins: failover requeues exactly the not-yet-started
//!   groups, degradation stretches service time consistently, elastic
//!   scaling reacts to backlog pressure with hysteresis.

use std::sync::OnceLock;

use proptest::prelude::*;

use aim_core::pipeline::CompiledPlan;
use aim_serve::prelude::*;
use pim_sim::backend::BackendKind;
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};

/// Backend the fleet invariants run under, selectable from the CI matrix
/// (`AIM_SERVE_BACKEND=analytical cargo test -p aim-serve --test fleet`).
fn matrix_backend() -> BackendKind {
    match std::env::var("AIM_SERVE_BACKEND").as_deref() {
        Ok("analytical") => BackendKind::Analytical,
        _ => BackendKind::CycleAccurate,
    }
}

fn plans() -> &'static Vec<CompiledPlan> {
    static PLANS: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    PLANS.get_or_init(aim_serve::scenario::reference_plans)
}

fn trace_for(requests: usize, seed: u64) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests,
        models: plans().len(),
        mean_interarrival_cycles: 600.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 50_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.25,
            best_effort_share: 0.25,
        },
        seed,
    })
}

fn fleet_report_json(report: &FleetReport) -> String {
    serde_json::to_string(report).expect("fleet reports serialize")
}

proptest! {
    /// The acceptance-criterion invariant: chips dying and degrading
    /// mid-trace lose zero requests.  Every submitted request comes back in
    /// exactly one completion; served + rejected add up to the total; the
    /// failed-over ledger matches the streamed `failed_over` flags; and the
    /// whole report is byte-identical between the rayon fan-out and a
    /// single-threaded run.
    #[test]
    fn requests_are_conserved_under_arbitrary_fault_plans(
        requests in 1usize..16,
        chips in 2usize..5,
        shards in 1usize..4,
        deaths in 0usize..4,
        degradations in 0usize..3,
        scaling_bit in 0usize..2,
        policy_bit in 0usize..2,
        seed in any::<u64>(),
    ) {
        let faults = chaos_fault_plan(&ChaosConfig {
            shards,
            chips_per_shard: chips,
            horizon_cycles: 40_000,
            deaths,
            degradations,
            max_slowdown_percent: 150,
            recovery_prob: 0.5,
            seed,
        });
        let serve = ServeConfig {
            chips,
            max_batch: 4,
            batch_window_cycles: 5_000,
            backend: matrix_backend(),
            audit_chips: usize::from(chips > 2),
            verify_every: 3,
            seed,
            ..ServeConfig::default()
        };
        let fleet_config = FleetConfig {
            shards,
            shard_policy: if policy_bit == 0 {
                ShardPolicy::RoundRobin
            } else {
                ShardPolicy::ByModel
            },
            initial_workers: 0,
            scaling: (scaling_bit == 1).then(|| ScalingConfig {
                check_interval_cycles: 7_000,
                scale_up_backlog_cycles: 30_000,
                scale_down_backlog_cycles: 3_000,
                ..ScalingConfig::default()
            }),
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        let trace = trace_for(requests, seed ^ 0xF1EE7);

        let mut fleet = FleetSession::new(&runtime, fleet_config, faults.clone());
        for request in &trace {
            fleet.submit(*request);
        }
        let report = fleet.drain();
        let outcomes = fleet.poll_completions();

        // Exactly one completion per submitted request.
        prop_assert_eq!(outcomes.len(), trace.len());
        let mut seen: Vec<usize> = outcomes.iter().map(|o| o.outcome.request).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>());

        // Served + rejected == total; no request vanishes into a fault.
        prop_assert_eq!(report.serve.total_requests, trace.len());
        prop_assert_eq!(
            report.serve.served_requests + report.serve.rejected_requests,
            report.serve.total_requests
        );

        // The failed-over ledger agrees with the streamed flags, and every
        // failed-over request was *served* (failover never sheds work).
        let streamed_failed_over = outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.outcome.status,
                    CompletionStatus::Served { failed_over: true, .. }
                )
            })
            .count();
        prop_assert_eq!(report.availability.requests_failed_over, streamed_failed_over);
        prop_assert_eq!(report.availability.chip_deaths + report.availability.degradations
            + report.availability.recoveries, faults.len());

        // Worker-thread independence: single-threaded bytes are identical.
        let sequential_runtime = ServeRuntime::from_plans(
            plans().clone(),
            ServeConfig { parallel: false, ..serve },
        );
        let sequential =
            FleetSession::serve_trace(&sequential_runtime, fleet_config, faults, &trace);
        prop_assert_eq!(&report, &sequential);
        prop_assert_eq!(fleet_report_json(&report), fleet_report_json(&sequential));
    }
}

proptest! {
    /// The conservation invariant, extended from requests to DAG *stages*:
    /// driving the same chaotic fleet through a `DagOrchestrator` with a
    /// mixed point + DAG session workload, every fleet submission is a
    /// known point or stage, every stage resolves exactly once, and the
    /// DAG ledger's `served + rejected + shed == stages_total` holds no
    /// matter which chips die mid-pipeline.
    #[test]
    fn dag_stages_are_conserved_like_requests_under_chaos(
        requests in 2usize..14,
        chips in 2usize..4,
        shards in 1usize..3,
        deaths in 0usize..3,
        degradations in 0usize..3,
        seed in any::<u64>(),
    ) {
        let faults = chaos_fault_plan(&ChaosConfig {
            shards,
            chips_per_shard: chips,
            horizon_cycles: 40_000,
            deaths,
            degradations,
            max_slowdown_percent: 150,
            recovery_prob: 0.5,
            seed,
        });
        let serve = ServeConfig {
            chips,
            max_batch: 4,
            batch_window_cycles: 5_000,
            backend: matrix_backend(),
            seed,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        let templates = standard_templates(plans().len());
        let items = workloads::dag::session_items(&SessionConfig {
            traffic: TrafficConfig {
                requests,
                models: plans().len(),
                mean_interarrival_cycles: 700.0,
                burst_repeat_prob: 0.5,
                deadline_slack_cycles: 60_000,
                shape: ArrivalShape::BurstyExponential,
                slo_mix: SloMix::Mixed {
                    latency_share: 0.25,
                    best_effort_share: 0.25,
                },
                seed: seed ^ 0x57A6E5,
            },
            users: 3,
            dag_share: 0.5,
            templates: templates.clone(),
            dag_deadline_slack_cycles: 400_000,
        });
        let mut orch = DagOrchestrator::new(
            &runtime,
            FleetConfig { shards, ..FleetConfig::default() },
            faults,
            templates,
            DagOrchestratorConfig::default(),
        );
        for item in &items {
            orch.submit_item(item);
        }
        let report = orch.drain();
        let outcomes = orch.poll_outcomes();
        let dag = report.dag.as_ref().expect("orchestrated drains carry DAG stats");

        let expected_stages: usize = items
            .iter()
            .map(|i| match &i.kind {
                SessionItemKind::Point(_) => 0,
                SessionItemKind::Dag(d) => d.stage_gaps.len(),
            })
            .sum();
        prop_assert_eq!(dag.stages_total, expected_stages);
        prop_assert_eq!(dag.dags + dag.points, items.len());
        prop_assert_eq!(dag.completed + dag.failed, dag.dags);
        prop_assert_eq!(
            dag.stages_served + dag.stages_rejected + dag.stages_shed,
            dag.stages_total
        );
        // Exactly one resolution per point and per stage.
        let mut seen: Vec<(usize, usize)> =
            outcomes.iter().map(|o| (o.item, o.stage)).collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), before);
        prop_assert_eq!(before, dag.points + expected_stages);
        // The fleet-level report never loses a submission either: every
        // fleet request was a point or a *submitted* stage.
        prop_assert_eq!(
            report.serve.total_requests,
            dag.points + dag.stages_served + dag.stages_rejected
        );
    }
}

#[test]
fn report_bytes_are_invariant_to_stepping_granularity_and_polling_order() {
    let faults = FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 9_000,
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: 14_000,
            kind: FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 60,
            },
        },
        FaultEvent {
            at_cycles: 30_000,
            kind: FaultKind::Recovery { shard: 1, chip: 0 },
        },
    ]);
    let config = FleetConfig {
        shards: 2,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 5_000,
            scale_up_backlog_cycles: 40_000,
            scale_down_backlog_cycles: 4_000,
            ..ScalingConfig::default()
        }),
        initial_workers: 1,
        shard_policy: ShardPolicy::RoundRobin,
    };
    let serve = ServeConfig {
        chips: 3,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let trace = trace_for(24, 0x57E9);

    // (a) submit-all-then-drain, poll once at the end.
    let baseline = FleetSession::serve_trace(&runtime, config, faults.clone(), &trace);

    // (b) step after every submission, polling each shard as we go.
    let mut stepped = FleetSession::new(&runtime, config, faults.clone());
    let mut outcomes = Vec::new();
    for request in &trace {
        stepped.submit(*request);
        stepped.run_until(request.arrival_cycles);
        outcomes.extend(stepped.poll_completions());
    }
    let stepped_report = stepped.drain();
    outcomes.extend(stepped.poll_completions());
    assert_eq!(outcomes.len(), trace.len());

    // (c) steps landing *exactly* on the fault cycles (the boundary
    // collision), taken as the trace crosses each fault time — stepping
    // must respect arrival order, since a target beyond a future arrival
    // clamps that arrival to "now" (the documented submit semantics) and
    // genuinely changes the submission sequence.
    let mut aligned = FleetSession::new(&runtime, config, faults.clone());
    for request in &trace {
        for fault_time in [9_000, 14_000, 30_000] {
            if aligned.clock() < fault_time && request.arrival_cycles >= fault_time {
                aligned.run_until(fault_time);
            }
        }
        aligned.submit(*request);
    }
    let aligned_report = aligned.drain();

    // (d) stepping far past the last scheduled event before draining —
    // regression for the horizon clamp: with elastic scaling live, an
    // uncapped run_until would keep firing scaling checks into the idle
    // future (decisions a submit-all-then-drain caller never sees) and
    // drift the final batches' dispatch.
    let mut overstepped = FleetSession::new(&runtime, config, faults);
    for request in &trace {
        overstepped.submit(*request);
    }
    overstepped.run_until(50_000_000);
    let overstepped_report = overstepped.drain();

    assert_eq!(
        fleet_report_json(&baseline),
        fleet_report_json(&stepped_report)
    );
    assert_eq!(
        fleet_report_json(&baseline),
        fleet_report_json(&aligned_report)
    );
    assert_eq!(
        fleet_report_json(&baseline),
        fleet_report_json(&overstepped_report)
    );
}

/// Without faults or scaling, every shard of a round-robin fleet behaves
/// exactly like a plain session fed the same requests under the same ids:
/// the same streamed outcomes, and shard accumulators that merge into the
/// fleet's report.  With more than one shard the shards share the fleet's
/// replay memo, so this also pins that no shard ever recalls a replay that
/// differs from the one it would have computed itself.  Cycle-accurate
/// chips run every group through the memo, so that backend always runs.
#[test]
fn one_shard_fleet_without_faults_equals_a_plain_session_byte_for_byte() {
    let trace = trace_for(48, 0x1F1EE);
    let mut backends = vec![BackendKind::CycleAccurate];
    if matrix_backend() != BackendKind::CycleAccurate {
        backends.push(matrix_backend());
    }
    for backend in backends {
        // Short windows and small batches interleave the two models
        // differently on each shard, so shards reuse group indices (and
        // seed offsets) across models.
        let serve = ServeConfig {
            chips: 3,
            max_batch: 2,
            batch_window_cycles: 2_000,
            backend,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        for shards in [1usize, 3] {
            let config = FleetConfig {
                shards,
                shard_policy: ShardPolicy::RoundRobin,
                initial_workers: 0,
                scaling: None,
            };
            let mut fleet = FleetSession::new(&runtime, config, FaultPlan::none());
            for request in &trace {
                fleet.submit(*request);
            }
            let report = fleet.drain();
            let streamed = fleet.poll_completions();

            let mut merged: Option<ReportAccumulator> = None;
            for shard in 0..shards {
                let mut plain = runtime.session();
                for (index, request) in trace.iter().enumerate().skip(shard).step_by(shards) {
                    plain.submit_with_id(index, *request);
                }
                let acc = plain.drain_accumulator();
                let shard_outcomes: Vec<RequestOutcome> = streamed
                    .iter()
                    .filter(|o| o.shard == shard)
                    .map(|o| o.outcome)
                    .collect();
                assert_eq!(
                    shard_outcomes,
                    plain.poll_completions(),
                    "{backend:?}: shard {shard} of {shards} diverged from a plain session"
                );
                match &mut merged {
                    None => merged = Some(acc),
                    Some(m) => m.merge(acc),
                }
            }
            let expected = merged.expect("at least one shard").finish();
            assert_eq!(
                serde_json::to_string(&report.serve).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "{backend:?}: {shards}-shard fleet report"
            );
            assert_eq!(report.availability.requests_failed_over, 0);
            assert_eq!(report.availability.chip_cycles_lost, 0);
            assert_eq!(report.availability.faults_injected, 0);
        }
    }
}

#[test]
fn chip_death_requeues_only_not_yet_started_groups() {
    // Single shard, 2 chips, round-robin singleton groups so the queue
    // shape is knowable: the chip dies while work is queued behind a long
    // backlog; everything not started fails over and still serves.
    let serve = ServeConfig {
        chips: 2,
        max_batch: 1,
        dispatch: DispatchPolicy::RoundRobin,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    // All requests arrive at once: chip 0 gets groups 0,2,4,..., chip 1
    // gets 1,3,5,...; killing chip 1 right after arrival leaves only its
    // currently-started group on it.
    let trace: Vec<TraceRequest> = (0..10)
        .map(|i| TraceRequest {
            model: i % 2,
            arrival_cycles: 0,
            deadline_cycles: 100_000_000,
            slo: SloClass::Standard,
        })
        .collect();
    let faults = FaultPlan::new(vec![FaultEvent {
        at_cycles: 1,
        kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
    }]);
    let report = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        faults,
        &trace,
    );
    assert_eq!(
        report.serve.served_requests, 10,
        "no request lost to the death"
    );
    assert_eq!(report.availability.chip_deaths, 1);
    assert!(
        report.availability.requests_failed_over >= 3,
        "most of chip 1's queue had not started at the death, got {}",
        report.availability.requests_failed_over
    );
    assert!(report.availability.chip_cycles_lost > 0);
    // The dead chip's executed prefix stays on its ledger; the survivor
    // absorbed the rest.
    let dead_chip = &report.serve.per_chip[1];
    assert!(
        dead_chip.requests >= 1,
        "started work completes on the dead chip"
    );
    assert!(report.serve.per_chip[0].requests > 5);
}

/// Chips dying at the start of a run whose weight-reload cost reaches the
/// end of virtual time each lose almost `u64::MAX` chip-cycles.  The
/// per-chip sum of lost capacity used to overflow: an arithmetic panic in
/// debug and, in release, a wrapped 18 446 744 073 709 551 611 against a
/// `u64::MAX` makespan.  The session's and the fleet's sums now saturate.
#[test]
fn chip_cycles_lost_saturates_past_the_end_of_virtual_time() {
    let serve = ServeConfig::builder()
        .chips(3)
        .backend(matrix_backend())
        .reload_cycles_per_slice(u64::MAX / 2)
        .build();
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let death = |at_cycles, chip| FaultEvent {
        at_cycles,
        kind: FaultKind::ChipDeath { shard: 0, chip },
    };
    let trace = trace_for(4, 7);
    let report = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::new(vec![death(1, 0), death(2, 1)]),
        &trace,
    );
    assert_eq!(report.serve.served_requests, trace.len());
    assert_eq!(report.serve.makespan_cycles, u64::MAX);
    assert_eq!(report.availability.chip_cycles_lost, u64::MAX);
}

#[test]
fn degradation_stretches_service_time_and_recovery_restores_it() {
    let serve = ServeConfig {
        chips: 1,
        max_batch: 1,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let trace: Vec<TraceRequest> = (0..6)
        .map(|i| TraceRequest {
            model: 0,
            arrival_cycles: i * 10,
            deadline_cycles: 100_000_000,
            slo: SloClass::Standard,
        })
        .collect();
    let healthy = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        &trace,
    );
    let degraded = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::new(vec![FaultEvent {
            at_cycles: 0,
            kind: FaultKind::Degradation {
                shard: 0,
                chip: 0,
                slowdown_percent: 100,
            },
        }]),
        &trace,
    );
    // A 100 % slowdown doubles every service interval on the only chip, so
    // the makespan roughly doubles (arrival offsets are negligible here).
    assert!(
        degraded.serve.makespan_cycles > healthy.serve.makespan_cycles * 3 / 2,
        "degradation must stretch the makespan: {} vs {}",
        degraded.serve.makespan_cycles,
        healthy.serve.makespan_cycles
    );
    assert!(degraded.availability.chip_cycles_lost > 0);
    assert_eq!(
        degraded.serve.served_requests,
        healthy.serve.served_requests
    );

    // Degrading and immediately recovering before traffic lands changes
    // nothing but the fault ledger.
    let recovered = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 0,
                kind: FaultKind::Degradation {
                    shard: 0,
                    chip: 0,
                    slowdown_percent: 100,
                },
            },
            FaultEvent {
                at_cycles: 0,
                kind: FaultKind::Recovery { shard: 0, chip: 0 },
            },
        ]),
        &trace,
    );
    assert_eq!(
        recovered.serve.makespan_cycles,
        healthy.serve.makespan_cycles
    );
    assert_eq!(recovered.availability.recoveries, 1);
}

#[test]
fn elastic_scaling_grows_under_pressure_and_drains_when_idle() {
    let serve = ServeConfig {
        chips: 4,
        max_batch: 1,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    // A dense burst up front, then a long quiet tail with stragglers: the
    // fleet must scale up into the burst and back down during the tail.
    let mut trace: Vec<TraceRequest> = (0..24)
        .map(|i| TraceRequest {
            model: i % 2,
            arrival_cycles: i as u64 * 50,
            deadline_cycles: 100_000_000,
            slo: SloClass::Standard,
        })
        .collect();
    for i in 0..6 {
        trace.push(TraceRequest {
            model: 0,
            arrival_cycles: 2_000_000 + i * 400_000,
            deadline_cycles: 100_000_000,
            slo: SloClass::Standard,
        });
    }
    let config = FleetConfig {
        shards: 1,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 1,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 10_000,
            scale_up_backlog_cycles: 50_000,
            scale_down_backlog_cycles: 5_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    };
    let mut fleet = FleetSession::new(&runtime, config, FaultPlan::none());
    assert_eq!(fleet.active_workers(), 1);
    for request in &trace {
        fleet.submit(*request);
    }
    let report = fleet.drain();
    assert!(
        report.availability.scale_ups > 0,
        "the burst must push the shard past one worker"
    );
    assert!(
        report.availability.peak_workers > 1,
        "peak worker count must reflect the scale-up"
    );
    assert!(
        report.availability.scale_downs > 0,
        "the quiet tail must drain workers back down"
    );
    assert_eq!(
        report.availability.final_workers, 1,
        "idle tail ends back at the floor"
    );
    assert_eq!(report.serve.served_requests, trace.len());
}

/// Faults apply before the scaling check of the same cycle.  The only
/// worker dies at cycle 1 000 with a backlog queued: the check at that cycle
/// must see the survivor already active and no chip left to add.  Checking
/// first would scale up onto the chip about to become the only one.
#[test]
fn a_fault_applies_before_the_scaling_check_of_its_cycle() {
    let serve = ServeConfig {
        chips: 2,
        max_batch: 1,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let trace: Vec<TraceRequest> = (0..6)
        .map(|i| TraceRequest {
            model: i % 2,
            arrival_cycles: i as u64 * 100,
            deadline_cycles: 100_000_000,
            slo: SloClass::Standard,
        })
        .collect();
    let config = FleetConfig {
        shards: 1,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 1,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 1_000,
            scale_up_backlog_cycles: 1,
            scale_down_backlog_cycles: 0,
            ..ScalingConfig::default()
        }),
    };
    let faults = FaultPlan::new(vec![FaultEvent {
        at_cycles: 1_000,
        kind: FaultKind::ChipDeath { shard: 0, chip: 0 },
    }]);
    let report = FleetSession::serve_trace(&runtime, config, faults, &trace);
    assert_eq!(report.availability.chip_deaths, 1);
    assert_eq!(
        report.availability.scale_ups, 0,
        "the check at the death's cycle must run after the death"
    );
    assert_eq!(report.serve.served_requests, trace.len());
}

/// Virtual time ends at `u64::MAX`: the check after the last one that fits
/// is dropped, never scheduled at a wrapped-around cycle.
#[test]
fn scaling_checks_stop_at_the_end_of_virtual_time() {
    let serve = ServeConfig {
        chips: 2,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let config = FleetConfig {
        shards: 1,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 1 << 63,
            ..ScalingConfig::default()
        }),
        ..FleetConfig::default()
    };
    let request = TraceRequest {
        model: 0,
        arrival_cycles: (1 << 63) + 1,
        deadline_cycles: u64::MAX,
        slo: SloClass::Standard,
    };
    let report = FleetSession::serve_trace(&runtime, config, FaultPlan::none(), &[request]);
    assert_eq!(report.serve.served_requests, 1);
    // The one check at 2^63 saw an idle shard and drained a worker; the
    // next would fall at 2^64.
    assert_eq!(report.availability.scale_downs, 1);
    assert_eq!(report.availability.scale_ups, 0);
}

#[test]
fn by_model_routing_keeps_each_model_on_one_shard() {
    let serve = ServeConfig {
        chips: 2,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let trace = trace_for(24, 0xB10D);
    let mut fleet = FleetSession::new(
        &runtime,
        FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::ByModel,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
    );
    for request in &trace {
        fleet.submit(*request);
    }
    let _ = fleet.drain();
    for FleetOutcome { shard, outcome } in fleet.poll_completions() {
        assert_eq!(shard, outcome.model % 2, "model routing violated");
    }
}

#[test]
#[should_panic(expected = "no live chip")]
fn killing_the_last_live_chip_is_rejected() {
    let serve = ServeConfig {
        chips: 1,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let faults = FaultPlan::new(vec![FaultEvent {
        at_cycles: 0,
        kind: FaultKind::ChipDeath { shard: 0, chip: 0 },
    }]);
    let _ = FleetSession::serve_trace(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        faults,
        &[],
    );
}

#[test]
#[should_panic(expected = "hysteresis")]
fn inverted_scaling_thresholds_are_rejected() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let _ = FleetSession::new(
        &runtime,
        FleetConfig {
            shards: 1,
            scaling: Some(ScalingConfig {
                scale_up_backlog_cycles: 10,
                scale_down_backlog_cycles: 10,
                ..ScalingConfig::default()
            }),
            ..FleetConfig::default()
        },
        FaultPlan::none(),
    );
}

#[test]
#[should_panic(expected = "fault targets shard")]
fn fault_plans_addressing_missing_shards_are_rejected() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let _ = FleetSession::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::new(vec![FaultEvent {
            at_cycles: 0,
            kind: FaultKind::ChipDeath { shard: 5, chip: 0 },
        }]),
    );
}

/// A valid scaling policy passes [`ScalingConfig::validate`], which
/// [`FleetSession::new`] runs on every configured policy.
#[test]
fn the_scaling_builder_round_trips_a_valid_config() {
    let scaling = ScalingConfig {
        check_interval_cycles: 4_000,
        scale_up_backlog_cycles: 25_000,
        scale_down_backlog_cycles: 2_500,
        min_workers: 1,
        max_workers: 3,
        class_weights: [1, 3, 9],
    };
    scaling.validate();
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let config = FleetConfig {
        scaling: Some(scaling),
        ..FleetConfig::default()
    };
    let fleet = FleetSession::new(&runtime, config, FaultPlan::none());
    assert_eq!(fleet.config().scaling, Some(scaling));
}

#[test]
#[should_panic(expected = "hysteresis requires scale_down < scale_up")]
fn the_scaling_builder_rejects_inverted_hysteresis() {
    ScalingConfig {
        scale_up_backlog_cycles: 5_000,
        scale_down_backlog_cycles: 5_000,
        ..ScalingConfig::default()
    }
    .validate();
}

#[test]
#[should_panic(expected = "scaling check interval must be at least one cycle")]
fn the_scaling_builder_rejects_zero_check_intervals() {
    ScalingConfig {
        check_interval_cycles: 0,
        ..ScalingConfig::default()
    }
    .validate();
}

#[test]
#[should_panic(expected = "min_workers must be at least 1")]
fn the_scaling_builder_rejects_zero_worker_floors() {
    ScalingConfig {
        min_workers: 0,
        ..ScalingConfig::default()
    }
    .validate();
}

/// The verification-sampling phase derives from a hash of each group's
/// commit index, not from a per-session counter — a counter always samples
/// each shard's group 0 and restarts its phase on every shard, so the
/// fleet-wide effective rate used to climb with the shard count.  Pin the
/// fleet-wide sample counts for shard counts 1–3 on one fixed trace: the
/// hash keeps the realised rate flat (22–24 samples out of 64 groups at
/// 1-in-4), where the counter gave every shard a forced sample at phase
/// zero and a fresh phase ramp.
#[test]
fn verification_sample_counts_stay_flat_across_shard_counts() {
    let mut observed = Vec::new();
    for shards in 1..=3usize {
        let serve = ServeConfig {
            chips: 3,
            max_batch: 1,
            batch_window_cycles: 2_000,
            backend: BackendKind::Analytical,
            verify_every: 4,
            seed: 0xF1EE7,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        let fleet_config = FleetConfig {
            shards,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 0,
            scaling: None,
        };
        let report = FleetSession::serve_trace(
            &runtime,
            fleet_config,
            FaultPlan::none(),
            &trace_for(64, 0xCA11B),
        );
        let verification = report.serve.verification.expect("sampling is on");
        assert_eq!(report.serve.served_requests, 64);
        observed.push((report.serve.groups_executed, verification.sampled));
    }
    let groups: Vec<usize> = observed.iter().map(|&(g, _)| g).collect();
    let sampled: Vec<usize> = observed.iter().map(|&(_, s)| s).collect();
    assert!(
        groups.iter().all(|&g| g == groups[0]),
        "max_batch 1 fixes the group count regardless of sharding: {groups:?}"
    );
    // The pinned counts: flat in the shard count (the counter-phase bug made
    // these strictly increase with `shards`).
    assert_eq!(
        sampled,
        vec![22, 24, 22],
        "fleet-wide verification sample counts drifted"
    );
}
