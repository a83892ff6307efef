//! Invariants of the multi-region global router:
//!
//! * **conservation under region-loss chaos** — every submitted request is
//!   exactly once Served, Rejected or Shed under generated
//!   `RegionFaultPlan`s × routing policies × both backends, with whole
//!   regions dying and recovering mid-trace and retry/backoff active;
//! * **degenerate-deployment equivalence** — a 1-region router is
//!   byte-identical to a bare `FleetSession` over the same trace;
//! * **determinism** — report bytes are invariant to `run_until` stepping
//!   granularity (including steps landing exactly on region-fault cycles)
//!   and to how completions are polled;
//! * targeted pins: the per-class shed order (best-effort first), retry
//!   budget exhaustion as a distinct `Shed` outcome, and loud rejection of
//!   degenerate retry/shed configurations.

use std::sync::OnceLock;

use proptest::prelude::*;

use aim_core::pipeline::CompiledPlan;
use aim_serve::prelude::*;
use aim_serve::scenario::{global_reference_plans, RegionHardware};
use pim_sim::backend::BackendKind;
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};

/// Backend the global invariants run under, selectable from the CI matrix
/// (`AIM_SERVE_BACKEND=analytical cargo test -p aim-serve --test global`).
fn matrix_backend() -> BackendKind {
    match std::env::var("AIM_SERVE_BACKEND").as_deref() {
        Ok("analytical") => BackendKind::Analytical,
        _ => BackendKind::CycleAccurate,
    }
}

/// The two-model plan menu per region hardware flavour, compiled once.
fn menu(hardware: RegionHardware) -> &'static Vec<CompiledPlan> {
    static LOW: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    static SPRINT: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    match hardware {
        RegionHardware::LowPower => {
            LOW.get_or_init(|| global_reference_plans(RegionHardware::LowPower))
        }
        RegionHardware::Sprint => {
            SPRINT.get_or_init(|| global_reference_plans(RegionHardware::Sprint))
        }
    }
}

const MODELS: usize = 2;

fn trace_for(requests: usize, seed: u64) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests,
        models: MODELS,
        mean_interarrival_cycles: 800.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 80_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.25,
            best_effort_share: 0.25,
        },
        seed,
    })
}

fn serve_for(backend: BackendKind, seed: u64) -> ServeConfig {
    ServeConfig {
        chips: 3,
        max_batch: 4,
        batch_window_cycles: 5_000,
        backend,
        seed,
        ..ServeConfig::default()
    }
}

fn fleet_for(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 0,
        scaling: None,
    }
}

/// Builds the per-region runtimes for a placement layout, alternating
/// hardware flavours so every multi-region deployment is heterogeneous.
fn runtimes_for(layout: &[Vec<usize>], backend: BackendKind, seed: u64) -> Vec<ServeRuntime> {
    layout
        .iter()
        .enumerate()
        .map(|(index, models)| {
            let hardware = if index % 2 == 0 {
                RegionHardware::LowPower
            } else {
                RegionHardware::Sprint
            };
            let plans = models.iter().map(|&m| menu(hardware)[m].clone()).collect();
            ServeRuntime::from_plans(plans, serve_for(backend, seed))
        })
        .collect()
}

fn specs_for<'rt>(
    layout: &[Vec<usize>],
    runtimes: &'rt [ServeRuntime],
    shards: usize,
) -> Vec<RegionSpec<'rt>> {
    layout
        .iter()
        .zip(runtimes)
        .enumerate()
        .map(|(index, (models, runtime))| RegionSpec {
            name: format!("region-{index}"),
            runtime,
            fleet: fleet_for(shards),
            faults: FaultPlan::none(),
            models: models.clone(),
        })
        .collect()
}

fn report_json(report: &GlobalReport) -> String {
    serde_json::to_string(report).expect("global reports serialize")
}

proptest! {
    /// The acceptance-criterion invariant: whole regions dying, recovering
    /// and flash-crowding mid-trace lose zero requests.  Every submitted
    /// request comes back in exactly one completion; served + rejected +
    /// shed add up to the total; the shed ledger matches the streamed
    /// outcomes; and the whole report is byte-identical between the
    /// one-shot `serve_trace` path and an incremental submit-then-drain.
    #[test]
    fn requests_are_conserved_under_generated_region_fault_plans(
        regions in 1usize..4,
        replicas in 1usize..4,
        requests in 1usize..16,
        outages in 0usize..3,
        flash_crowds in 0usize..2,
        policy_bit in 0usize..2,
        budget in 1u32..4,
        seed in any::<u64>(),
    ) {
        let backend = matrix_backend();
        let mut layout = place_models(MODELS, regions, replicas.min(regions));
        // A region hosting no models cannot exist (a runtime needs a plan);
        // drop and renumber.
        layout.retain(|models| !models.is_empty());
        let regions = layout.len();
        let plan = region_chaos_plan(&RegionChaosConfig {
            regions,
            models: MODELS,
            horizon_cycles: 50_000,
            outages: outages.min(regions.saturating_sub(1)),
            recovery_prob: 0.5,
            flash_crowds,
            flash_requests: 6,
            flash_mean_gap_cycles: 300,
            seed,
        });
        let config = GlobalConfig {
            route: if policy_bit == 0 {
                RoutePolicy::ByModel
            } else {
                RoutePolicy::LeastBacklog
            },
            retry: RetryConfig {
                max_attempts: budget,
                backoff_base_cycles: 10_000,
                backoff_multiplier: 2,
            },
            suspect_grace_cycles: 1_000,
            recovery_warmup_cycles: 2_000,
            ..GlobalConfig::default()
        };
        let base = trace_for(requests, seed ^ 0x610B41);
        let trace = with_flash_crowds(&base, &plan, 80_000, seed ^ 0x610B41);
        let runtimes = runtimes_for(&layout, backend, seed);

        let mut router = GlobalRouter::new(
            specs_for(&layout, &runtimes, 2),
            MODELS,
            config,
            plan.clone(),
        );
        for request in &trace {
            router.submit(*request);
        }
        let report = router.drain();
        let outcomes = router.poll_completions();

        // Exactly one completion per submitted request, ids exactly 0..n.
        prop_assert_eq!(outcomes.len(), trace.len());
        let mut seen: Vec<usize> = outcomes.iter().map(|o| o.request).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>());

        // Served + rejected + shed == total; no request vanishes into a
        // region loss.
        prop_assert_eq!(report.summary.total_requests, trace.len());
        prop_assert_eq!(
            report.summary.served_requests
                + report.summary.rejected_requests
                + report.summary.shed_requests,
            report.summary.total_requests
        );

        // The summary counters agree with the per-region fleet reports and
        // with the streamed outcomes.
        let region_served: usize =
            report.regions.iter().map(|r| r.fleet.serve.served_requests).sum();
        let region_rejected: usize =
            report.regions.iter().map(|r| r.fleet.serve.rejected_requests).sum();
        prop_assert_eq!(report.summary.served_requests, region_served);
        prop_assert_eq!(report.summary.rejected_requests, region_rejected);
        let streamed_shed = outcomes
            .iter()
            .filter(|o| matches!(o.status, GlobalStatus::Shed { .. }))
            .count();
        prop_assert_eq!(report.availability.requests_shed, streamed_shed);
        for class in SloClass::ALL {
            let streamed = outcomes
                .iter()
                .filter(|o| o.slo == class && matches!(o.status, GlobalStatus::Shed { .. }))
                .count();
            prop_assert_eq!(report.availability.shed_by_class[class.index()], streamed);
        }

        // Migrated-and-served: every streamed migrated Served outcome is a
        // real request that survived an eviction or retry, and the eviction
        // ledger is consistent.
        let streamed_migrated_served = outcomes
            .iter()
            .filter(|o| matches!(o.status, GlobalStatus::Served { migrated: true, .. }))
            .count();
        prop_assert!(report.availability.migrated_and_served <= streamed_migrated_served);
        prop_assert!(report.availability.requests_migrated <= report.availability.migration_events);
        prop_assert_eq!(
            report.availability.outages + report.availability.recoveries
                + report.availability.flash_crowd_events,
            plan.len()
        );

        // Determinism: the one-shot path reproduces the same bytes.
        let oneshot = GlobalRouter::serve_trace(
            specs_for(&layout, &runtimes, 2),
            MODELS,
            config,
            plan,
            &trace,
        );
        prop_assert_eq!(report_json(&report), report_json(&oneshot));
    }
}

#[test]
fn one_region_router_equals_a_bare_fleet_byte_for_byte() {
    let backend = matrix_backend();
    let runtime = ServeRuntime::from_plans(
        menu(RegionHardware::LowPower).clone(),
        serve_for(backend, 0xC0FFEE),
    );
    let trace = trace_for(32, 0x1610B);
    let fleet_config = fleet_for(2);

    let bare = FleetSession::serve_trace(&runtime, fleet_config, FaultPlan::none(), &trace);
    let global = GlobalRouter::serve_trace(
        vec![RegionSpec {
            name: "solo".into(),
            runtime: &runtime,
            fleet: fleet_config,
            faults: FaultPlan::none(),
            models: vec![0, 1],
        }],
        MODELS,
        GlobalConfig::default(),
        RegionFaultPlan::none(),
        &trace,
    );

    assert_eq!(global.regions.len(), 1);
    assert_eq!(&global.regions[0].fleet, &bare);
    assert_eq!(
        serde_json::to_string(&global.regions[0].fleet).unwrap(),
        serde_json::to_string(&bare).unwrap()
    );
    assert_eq!(global.summary.total_requests, trace.len());
    assert_eq!(global.summary.served_requests, bare.serve.served_requests);
    assert_eq!(
        global.summary.rejected_requests,
        bare.serve.rejected_requests
    );
    assert_eq!(global.summary.shed_requests, 0);
    assert_eq!(global.availability.region_cycles_lost, 0);
    assert_eq!(global.regions[0].final_health, RegionHealth::Healthy);
}

#[test]
fn report_bytes_are_invariant_to_stepping_granularity_and_polling_order() {
    let backend = matrix_backend();
    let layout = place_models(MODELS, 2, 1);
    let runtimes = runtimes_for(&layout, backend, 0x57EB);
    let plan = RegionFaultPlan::new(vec![
        RegionFaultEvent {
            at_cycles: 8_000,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        },
        RegionFaultEvent {
            at_cycles: 26_000,
            kind: RegionFaultKind::RegionRecovery { region: 0 },
        },
    ]);
    let config = GlobalConfig {
        route: RoutePolicy::LeastBacklog,
        retry: RetryConfig {
            max_attempts: 3,
            backoff_base_cycles: 6_000,
            backoff_multiplier: 2,
        },
        suspect_grace_cycles: 1_500,
        recovery_warmup_cycles: 2_500,
        ..GlobalConfig::default()
    };
    let trace = trace_for(24, 0x57E6);

    // (a) one-shot serve_trace, polled once at the end.
    let baseline = GlobalRouter::serve_trace(
        specs_for(&layout, &runtimes, 2),
        MODELS,
        config,
        plan.clone(),
        &trace,
    );

    // (b) step after every submission, polling as we go.
    let mut stepped = GlobalRouter::new(
        specs_for(&layout, &runtimes, 2),
        MODELS,
        config,
        plan.clone(),
    );
    let mut outcomes = Vec::new();
    for request in &trace {
        stepped.submit(*request);
        stepped.run_until(request.arrival_cycles);
        outcomes.extend(stepped.poll_completions());
    }
    let stepped_report = stepped.drain();
    outcomes.extend(stepped.poll_completions());
    assert_eq!(outcomes.len(), trace.len());

    // (c) steps landing *exactly* on the region-fault and transition
    // cycles, taken as the trace crosses each — the boundary collision —
    // while respecting arrival order (a target beyond a future arrival
    // clamps that arrival to "now", the documented submit semantics).
    let mut aligned = GlobalRouter::new(
        specs_for(&layout, &runtimes, 2),
        MODELS,
        config,
        plan.clone(),
    );
    for request in &trace {
        for event_time in [8_000, 9_500, 26_000, 28_500] {
            if aligned.clock() < event_time && request.arrival_cycles >= event_time {
                aligned.run_until(event_time);
            }
        }
        aligned.submit(*request);
    }
    let aligned_report = aligned.drain();

    // (d) stepping far past the last scheduled event before draining —
    // the horizon clamp must make the idle future unobservable.
    let mut overstepped = GlobalRouter::new(specs_for(&layout, &runtimes, 2), MODELS, config, plan);
    for request in &trace {
        overstepped.submit(*request);
    }
    overstepped.run_until(50_000_000);
    let overstepped_report = overstepped.drain();

    assert_eq!(report_json(&baseline), report_json(&stepped_report));
    assert_eq!(report_json(&baseline), report_json(&aligned_report));
    assert_eq!(report_json(&baseline), report_json(&overstepped_report));
}

#[test]
fn best_effort_sheds_first_and_latency_sensitive_never_does() {
    let backend = matrix_backend();
    let layout = place_models(MODELS, 2, 2);
    let runtimes = runtimes_for(&layout, backend, 0x5EDD);
    let config = GlobalConfig {
        route: RoutePolicy::LeastBacklog,
        shed: ShedPolicy {
            // Any backlog at all sheds best-effort; everyone else rides it
            // out.
            backlog_ceiling_cycles: [1, u64::MAX, u64::MAX],
        },
        ..GlobalConfig::default()
    };
    // Dense enough that backlog is non-zero for most of the run.
    let trace = synthetic_trace(&TrafficConfig {
        requests: 64,
        models: MODELS,
        mean_interarrival_cycles: 150.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 300_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.3,
            best_effort_share: 0.3,
        },
        seed: 0x5ED0,
    });

    let mut router = GlobalRouter::new(
        specs_for(&layout, &runtimes, 1),
        MODELS,
        config,
        RegionFaultPlan::none(),
    );
    for request in &trace {
        router.submit(*request);
    }
    let report = router.drain();
    let outcomes = router.poll_completions();

    let shed = report.availability.shed_by_class;
    assert!(shed[0] > 0, "best-effort traffic must shed under pressure");
    assert_eq!(
        shed[1], 0,
        "standard traffic must not shed at an open ceiling"
    );
    assert_eq!(shed[2], 0, "latency-sensitive traffic must never shed");
    assert!(outcomes.iter().any(|o| matches!(
        o.status,
        GlobalStatus::Shed {
            reason: ShedReason::Overload,
            ..
        }
    )));
    // Shed requests still conserve.
    assert_eq!(
        report.summary.served_requests
            + report.summary.rejected_requests
            + report.summary.shed_requests,
        trace.len()
    );
}

#[test]
fn exhausted_retry_budgets_shed_with_the_attempt_count() {
    let backend = matrix_backend();
    let runtime = ServeRuntime::from_plans(
        menu(RegionHardware::Sprint).clone(),
        serve_for(backend, 0xDEAD),
    );
    let config = GlobalConfig {
        retry: RetryConfig {
            max_attempts: 2,
            backoff_base_cycles: 5_000,
            backoff_multiplier: 3,
        },
        ..GlobalConfig::default()
    };
    // The only region dies at 10k and never recovers: everything arriving
    // after the outage burns its full retry budget and sheds.
    let plan = RegionFaultPlan::new(vec![RegionFaultEvent {
        at_cycles: 10_000,
        kind: RegionFaultKind::RegionOutage { region: 0 },
    }]);
    let trace = trace_for(24, 0xBAD0FF);

    let report = GlobalRouter::serve_trace(
        vec![RegionSpec {
            name: "only".into(),
            runtime: &runtime,
            fleet: fleet_for(1),
            faults: FaultPlan::none(),
            models: vec![0, 1],
        }],
        MODELS,
        config,
        plan,
        &trace,
    );

    assert!(report.availability.requests_shed > 0);
    assert!(report.availability.retries_scheduled > 0);
    assert_eq!(
        report.summary.served_requests
            + report.summary.rejected_requests
            + report.summary.shed_requests,
        trace.len()
    );
    assert_eq!(report.regions[0].final_health, RegionHealth::Down);
    assert!(report.availability.region_cycles_lost > 0);
}

#[test]
fn retried_requests_are_served_after_failback() {
    let backend = matrix_backend();
    let report = aim_serve::scenario::global_named("cross-region-failback")
        .expect("catalogued scenario")
        .run(backend);
    // The sole holder of model 1 was dark for 58k cycles, yet nothing was
    // lost: deferred requests were served after recovery.
    assert_eq!(report.availability.outages, 1);
    assert_eq!(report.availability.recoveries, 1);
    assert!(report.availability.retries_scheduled > 0);
    assert_eq!(report.summary.shed_requests, 0);
    assert_eq!(
        report.summary.served_requests + report.summary.rejected_requests,
        report.summary.total_requests
    );
}

/// Plan events apply before the transitions and retries of the same cycle.
/// Region 1, the only holder of model 1, is down when a request for it
/// arrives; the request's single retry falls on the cycle region 1
/// recovers, so it is served.  Retrying first would find no holder and shed
/// it.
#[test]
fn a_recovery_applies_before_the_retry_of_its_cycle() {
    let layout = vec![vec![0], vec![1]];
    let runtimes = runtimes_for(&layout, matrix_backend(), 0x7E5);
    let config = GlobalConfig {
        retry: RetryConfig {
            max_attempts: 1,
            backoff_base_cycles: 2_000,
            backoff_multiplier: 1,
        },
        suspect_grace_cycles: 0,
        ..GlobalConfig::default()
    };
    let plan = RegionFaultPlan::new(vec![
        RegionFaultEvent {
            at_cycles: 1_000,
            kind: RegionFaultKind::RegionOutage { region: 1 },
        },
        RegionFaultEvent {
            at_cycles: 4_000,
            kind: RegionFaultKind::RegionRecovery { region: 1 },
        },
    ]);
    let request = TraceRequest {
        model: 1,
        arrival_cycles: 2_000,
        deadline_cycles: 100_000_000,
        slo: SloClass::Standard,
    };
    let report = GlobalRouter::serve_trace(
        specs_for(&layout, &runtimes, 1),
        MODELS,
        config,
        plan,
        &[request],
    );
    assert_eq!(report.availability.retries_scheduled, 1);
    assert_eq!(
        report.availability.requests_shed, 0,
        "the retry at the recovery's cycle must run after the recovery"
    );
    assert_eq!(report.summary.served_requests, 1);
}

/// The regions' Down cycles sum saturating: two regions dark from cycles 1
/// and 2 until a request near `u64::MAX` lose more cycles than a `u64`
/// holds.
#[test]
fn region_cycles_lost_saturates_at_u64_max() {
    let layout = vec![vec![0, 1], vec![0, 1]];
    let runtimes = runtimes_for(&layout, matrix_backend(), 0x5A7);
    let plan = RegionFaultPlan::new(vec![
        RegionFaultEvent {
            at_cycles: 1,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        },
        RegionFaultEvent {
            at_cycles: 2,
            kind: RegionFaultKind::RegionOutage { region: 1 },
        },
    ]);
    let request = TraceRequest {
        model: 0,
        arrival_cycles: u64::MAX - 5,
        deadline_cycles: u64::MAX,
        slo: SloClass::Standard,
    };
    let report = GlobalRouter::serve_trace(
        specs_for(&layout, &runtimes, 1),
        MODELS,
        GlobalConfig::default(),
        plan,
        &[request],
    );
    assert_eq!(report.availability.region_cycles_lost, u64::MAX);
    assert!(report
        .regions
        .iter()
        .all(|region| region.final_health == RegionHealth::Down));
    assert_eq!(report.summary.shed_requests, 1);
}

#[test]
fn placement_layouts_round_robin_and_count_replicas() {
    let layout = place_models(3, 2, 2);
    assert_eq!(layout, vec![vec![0, 1, 2], vec![0, 1, 2]]);
    let layout = place_models(2, 3, 1);
    assert_eq!(layout, vec![vec![0], vec![1], Vec::new()]);
    let layout = place_models(4, 2, 1);
    assert_eq!(layout, vec![vec![0, 2], vec![1, 3]]);
}

#[test]
#[should_panic(expected = "retry budget must allow at least one attempt")]
fn zero_retry_budgets_are_rejected() {
    RetryConfig {
        max_attempts: 0,
        ..RetryConfig::default()
    }
    .validate();
}

#[test]
#[should_panic(expected = "retry backoff must wait at least one cycle")]
fn zero_backoff_bases_are_rejected() {
    RetryConfig {
        backoff_base_cycles: 0,
        ..RetryConfig::default()
    }
    .validate();
}

#[test]
#[should_panic(expected = "backoff multiplier must be at least 1")]
fn zero_backoff_multipliers_are_rejected() {
    RetryConfig {
        backoff_multiplier: 0,
        ..RetryConfig::default()
    }
    .validate();
}

#[test]
#[should_panic(expected = "shed ceilings must be non-decreasing")]
fn inverted_shed_ceilings_are_rejected() {
    let config = GlobalConfig {
        shed: ShedPolicy {
            backlog_ceiling_cycles: [u64::MAX, 10, 10],
        },
        ..GlobalConfig::default()
    };
    config.validate();
}

#[test]
#[should_panic(expected = "resident in no region")]
fn unplaced_models_are_rejected() {
    let runtime = ServeRuntime::from_plans(
        vec![menu(RegionHardware::LowPower)[0].clone()],
        serve_for(matrix_backend(), 1),
    );
    let _ = GlobalRouter::new(
        vec![RegionSpec {
            name: "partial".into(),
            runtime: &runtime,
            fleet: fleet_for(1),
            faults: FaultPlan::none(),
            models: vec![0],
        }],
        2,
        GlobalConfig::default(),
        RegionFaultPlan::none(),
    );
}

#[test]
fn retry_backoff_grows_exponentially_and_saturates() {
    let retry = RetryConfig {
        max_attempts: 10,
        backoff_base_cycles: 1_000,
        backoff_multiplier: 4,
    };
    assert_eq!(retry.backoff_cycles(1), 1_000);
    assert_eq!(retry.backoff_cycles(2), 4_000);
    assert_eq!(retry.backoff_cycles(3), 16_000);
    let huge = RetryConfig {
        max_attempts: u32::MAX,
        backoff_base_cycles: u64::MAX / 2,
        backoff_multiplier: u32::MAX,
    };
    assert_eq!(huge.backoff_cycles(u32::MAX), u64::MAX);
}

// --- DAG stages under region loss --------------------------------------------

proptest! {
    /// The region-loss analogue at the DAG layer: evicting a fleet's
    /// committed-but-not-started work mid-pipeline (what losing a region
    /// does to its resident fleet) must resolve every remaining stage of
    /// every struck DAG as `Shed` exactly once — conservation counts DAG
    /// stages, not just requests.
    #[test]
    fn region_loss_eviction_sheds_every_orphan_stage_exactly_once(
        dags in 2usize..10,
        spacing in 100u64..2_000,
        evict_at in 1u64..30_000,
        chips in 1usize..3,
        seed in any::<u64>(),
    ) {
        let hardware = if seed.is_multiple_of(2) {
            RegionHardware::LowPower
        } else {
            RegionHardware::Sprint
        };
        let runtime = ServeRuntime::from_plans(
            menu(hardware).clone(),
            ServeConfig {
                chips,
                max_batch: 2,
                backend: matrix_backend(),
                seed,
                ..ServeConfig::default()
            },
        );
        let templates = standard_templates(MODELS);
        let mut orch = DagOrchestrator::new(
            &runtime,
            fleet_for(1),
            FaultPlan::none(),
            templates,
            DagOrchestratorConfig::default(),
        );
        let mut stages_total = 0usize;
        for i in 0..dags {
            let template = i % 3;
            let stages = [2usize, 4, 3][template];
            stages_total += stages;
            orch.submit_dag(&DagRequest {
                template,
                arrival_cycles: i as u64 * spacing,
                deadline_cycles: i as u64 * spacing + 5_000_000,
                slo: SloClass::Standard,
                stage_gaps: vec![0; stages],
            });
        }
        let evicted = orch.evict_pending(evict_at);
        let report = orch.drain();
        let outcomes = orch.poll_outcomes();
        let dag = report.dag.as_ref().expect("orchestrated drains carry DAG stats");

        prop_assert_eq!(dag.dags, dags);
        prop_assert_eq!(dag.stages_total, stages_total);
        prop_assert_eq!(dag.completed + dag.failed, dags);
        prop_assert_eq!(
            dag.stages_served + dag.stages_rejected + dag.stages_shed,
            stages_total
        );
        // Exactly one resolution per stage, shed orphans included.
        let mut seen: Vec<(usize, usize)> =
            outcomes.iter().map(|o| (o.item, o.stage)).collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), before);
        prop_assert_eq!(before, stages_total);
        // Eviction implies failure: at least `evicted` stages shed, and a
        // DAG with any shed stage is never counted completed.
        if evicted > 0 {
            prop_assert!(dag.stages_shed >= evicted);
            prop_assert!(dag.failed > 0);
        }
        // A completed DAG served *all* of its stages: no shed or rejected
        // stage hides inside a "completed" pipeline.
        prop_assert_eq!(
            dag.per_class.iter().map(|c| c.completed).sum::<usize>(),
            dag.completed
        );
    }
}
