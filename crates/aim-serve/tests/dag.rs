//! Invariants of the DAG orchestration layer:
//!
//! * **stage conservation under chaos** — every stage of every submitted
//!   DAG (and every point request) resolves exactly once: served, rejected,
//!   or shed, under arbitrary generated fault plans, either backend, and
//!   any worker fan-out;
//! * **determinism** — a mixed DAG + point trace drains to byte-identical
//!   report JSON across `run_until` stepping granularity, worker counts,
//!   and at every shard count;
//! * **priority inheritance** — no latency-sensitive DAG's upstream stage
//!   completes after a later-arriving best-effort request on the same chip;
//! * **atomic admission** — a DAG shed at admission sheds *every* stage;
//!   no half-admitted pipelines;
//! * targeted pins: think gaps delay conversation turns, mid-flight
//!   rejection sheds all descendants exactly once, eviction fails the DAG
//!   without double-resolving, and a point-only orchestrator is
//!   byte-equivalent to the bare fleet.

use std::sync::OnceLock;

use proptest::prelude::*;

use aim_core::pipeline::CompiledPlan;
use aim_serve::prelude::*;
use pim_sim::backend::BackendKind;
use workloads::dag::session_items;
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};

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

/// A mixed point + DAG workload over the reference zoo: bursty arrivals,
/// mixed SLOs, ~40 % of users upgraded to DAG templates.
fn mixed_items(requests: usize, seed: u64) -> (Vec<SessionItem>, Vec<DagTemplate>) {
    let templates = standard_templates(plans().len());
    let config = SessionConfig {
        traffic: TrafficConfig {
            requests,
            models: plans().len(),
            mean_interarrival_cycles: 900.0,
            burst_repeat_prob: 0.5,
            deadline_slack_cycles: 80_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.25,
                best_effort_share: 0.25,
            },
            seed,
        },
        users: 4,
        dag_share: 0.4,
        templates: templates.clone(),
        dag_deadline_slack_cycles: 600_000,
    };
    (session_items(&config), templates)
}

fn orchestrate(
    runtime: &ServeRuntime,
    fleet: FleetConfig,
    faults: FaultPlan,
    templates: Vec<DagTemplate>,
    config: DagOrchestratorConfig,
    items: &[SessionItem],
) -> (FleetReport, Vec<StageOutcome>) {
    let mut orch = DagOrchestrator::new(runtime, fleet, faults, templates, config);
    for item in items {
        orch.submit_item(item);
    }
    let report = orch.drain();
    let outcomes = orch.poll_outcomes();
    (report, outcomes)
}

fn report_json(report: &FleetReport) -> String {
    serde_json::to_string(report).expect("fleet reports serialize")
}

/// `count` DAG-only session items, the `i`-th built by `dag(i)`.
fn dag_items(count: u64, dag: impl Fn(u64) -> DagRequest) -> Vec<SessionItem> {
    (0..count)
        .map(|i| SessionItem {
            user: 0,
            kind: SessionItemKind::Dag(dag(i)),
        })
        .collect()
}

/// Checks the exactly-once stage ledger: per item, each (stage) index
/// resolves once, the report-level conservation laws hold, and the stage
/// and DAG counters match a recount from the streamed outcomes.
fn assert_conservation(report: &FleetReport, outcomes: &[StageOutcome], items: &[SessionItem]) {
    let dag = report
        .dag
        .as_ref()
        .expect("orchestrated drains carry DAG stats");
    let dags = items
        .iter()
        .filter(|i| matches!(i.kind, SessionItemKind::Dag(_)))
        .count();
    let points = items.len() - dags;
    let stages_total: usize = items
        .iter()
        .map(|i| match &i.kind {
            SessionItemKind::Point(_) => 0,
            SessionItemKind::Dag(d) => d.stage_gaps.len(),
        })
        .sum();
    assert_eq!(dag.dags, dags);
    assert_eq!(dag.points, points);
    assert_eq!(dag.stages_total, stages_total);
    assert_eq!(dag.completed + dag.failed, dag.dags);
    assert_eq!(
        dag.stages_served + dag.stages_rejected + dag.stages_shed,
        dag.stages_total
    );
    // Exactly one outcome per point and per DAG stage, never a duplicate.
    let mut seen: Vec<(usize, usize)> = outcomes.iter().map(|o| (o.item, o.stage)).collect();
    let expected = {
        let mut e: Vec<(usize, usize)> = Vec::new();
        for (item, session_item) in items.iter().enumerate() {
            match &session_item.kind {
                SessionItemKind::Point(_) => e.push((item, 0)),
                SessionItemKind::Dag(d) => {
                    for stage in 0..d.stage_gaps.len() {
                        e.push((item, stage));
                    }
                }
            }
        }
        e
    };
    seen.sort_unstable();
    assert_eq!(seen, expected, "every stage resolves exactly once");
    // The per-class DAG rows add back up to the totals.
    assert_eq!(
        dag.per_class.iter().map(|c| c.total).sum::<usize>(),
        dag.dags
    );
    assert_eq!(
        dag.per_class.iter().map(|c| c.completed).sum::<usize>(),
        dag.completed
    );

    // An independent oracle: recount the stage and DAG ledgers from the
    // streamed outcomes alone.  A DAG completed when every one of its stages
    // streamed `Served`; its class is the instance's, not the stages'.
    let (mut served, mut rejected, mut shed) = (0usize, 0usize, 0usize);
    let mut all_served = vec![true; items.len()];
    for outcome in outcomes.iter().filter(|o| o.dag) {
        let stage_served = match outcome.status {
            StageStatus::Fleet {
                status: CompletionStatus::Served { .. },
                ..
            } => {
                served += 1;
                true
            }
            StageStatus::Fleet {
                status: CompletionStatus::Rejected { .. },
                ..
            } => {
                rejected += 1;
                false
            }
            StageStatus::Shed => {
                shed += 1;
                false
            }
        };
        all_served[outcome.item] &= stage_served;
    }
    assert_eq!(dag.stages_served, served);
    assert_eq!(dag.stages_rejected, rejected);
    assert_eq!(dag.stages_shed, shed);
    let mut completed_by_class = [0usize; 3];
    for (item, session_item) in items.iter().enumerate() {
        if let SessionItemKind::Dag(d) = &session_item.kind {
            if all_served[item] {
                completed_by_class[d.slo.index()] += 1;
            }
        }
    }
    let completed: usize = completed_by_class.iter().sum();
    assert_eq!(dag.completed, completed);
    assert_eq!(dag.failed, dags - completed);
    for row in &dag.per_class {
        assert_eq!(row.completed, completed_by_class[row.class.index()]);
    }
}

proptest! {
    /// Satellite: DAG-stage conservation under arbitrary chaos.  Chips die
    /// and degrade mid-pipeline; every stage of every DAG still resolves
    /// exactly once and the report ledgers agree, byte-identically with a
    /// single-threaded run.
    #[test]
    fn dag_stages_are_conserved_under_arbitrary_fault_plans(
        requests in 4usize..20,
        chips in 2usize..5,
        shards in 1usize..4,
        deaths in 0usize..4,
        degradations in 0usize..3,
        inherit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let faults = chaos_fault_plan(&ChaosConfig {
            shards,
            chips_per_shard: chips,
            horizon_cycles: 60_000,
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
        let fleet_config = FleetConfig {
            shards,
            ..FleetConfig::default()
        };
        let orch_config = DagOrchestratorConfig {
            inherit_priority: inherit,
            admission: None,
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        let (items, templates) = mixed_items(requests, seed ^ 0xDA6);

        let (report, outcomes) = orchestrate(
            &runtime,
            fleet_config,
            faults.clone(),
            templates.clone(),
            orch_config,
            &items,
        );
        assert_conservation(&report, &outcomes, &items);

        // Worker-thread independence: single-threaded bytes are identical.
        let sequential_runtime =
            ServeRuntime::from_plans(plans().clone(), ServeConfig { parallel: false, ..serve });
        let (sequential, _) = orchestrate(
            &sequential_runtime,
            fleet_config,
            faults,
            templates,
            orch_config,
            &items,
        );
        prop_assert_eq!(report_json(&report), report_json(&sequential));
    }

    /// Satellite: priority inheritance.  With inheritance on, no
    /// latency-sensitive DAG's upstream stage completes after a
    /// best-effort point request that arrived later on the same chip —
    /// the promoted stage was inserted ahead of every not-yet-started
    /// lower-class slot, and per-chip execution preserves queue order.
    #[test]
    fn no_ls_dag_stage_finishes_behind_a_later_best_effort_group(
        requests in 6usize..24,
        chips in 1usize..4,
        seed in any::<u64>(),
    ) {
        let serve = ServeConfig {
            chips,
            max_batch: 3,
            batch_window_cycles: 4_000,
            backend: matrix_backend(),
            seed,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::from_plans(plans().clone(), serve);
        let templates = standard_templates(plans().len());
        // Latency-sensitive cascades arriving amid a field of best-effort
        // points: the cascade tails force their upstream stages ahead.
        let points = synthetic_trace(&TrafficConfig {
            requests,
            models: plans().len(),
            mean_interarrival_cycles: 700.0,
            burst_repeat_prob: 0.4,
            deadline_slack_cycles: 90_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.0,
                best_effort_share: 1.0,
            },
            seed,
        });
        let mut orch = DagOrchestrator::new(
            &runtime,
            FleetConfig { shards: 1, ..FleetConfig::default() },
            FaultPlan::none(),
            templates,
            DagOrchestratorConfig::default(),
        );
        let mut dag_items = Vec::new();
        for (i, point) in points.iter().enumerate() {
            if i % 3 == 0 {
                dag_items.push(orch.submit_dag(&DagRequest {
                    template: 0, // the two-stage cascade
                    arrival_cycles: point.arrival_cycles,
                    deadline_cycles: point.arrival_cycles + 900_000,
                    slo: SloClass::LatencySensitive,
                    stage_gaps: vec![0, 0],
                }));
            } else {
                orch.submit_point(*point);
            }
        }
        let _ = orch.drain();
        let outcomes = orch.poll_outcomes();

        // Effective arrival (ready time, post-clamp) is finish - latency.
        let served: Vec<(&StageOutcome, usize, u64, u64, u64)> = outcomes
            .iter()
            .filter_map(|o| match o.status {
                StageStatus::Fleet {
                    shard: _,
                    status:
                        CompletionStatus::Served {
                            chip,
                            finish_cycles,
                            latency_cycles,
                            start_cycles,
                            ..
                        },
                } => Some((o, chip, finish_cycles.saturating_sub(latency_cycles), start_cycles, finish_cycles)),
                _ => None,
            })
            .collect();
        for &(stage, s_chip, s_arrival, _, s_finish) in
            served.iter().filter(|(o, ..)| o.dag && o.class == SloClass::LatencySensitive)
        {
            for &(point, p_chip, p_arrival, _, p_finish) in
                served.iter().filter(|(o, ..)| !o.dag && o.class == SloClass::BestEffort)
            {
                if p_chip == s_chip && p_arrival > s_arrival {
                    prop_assert!(
                        s_finish <= p_finish,
                        "LS stage {}/{} (ready {}, finish {}) completed after later \
                         best-effort point {} (arrival {}, finish {}) on chip {}",
                        stage.item, stage.stage, s_arrival, s_finish,
                        point.item, p_arrival, p_finish, p_chip
                    );
                }
            }
        }
        prop_assert!(!dag_items.is_empty());
    }
}

/// The acceptance criterion: a mixed DAG + point trace drains to
/// byte-identical JSON whether the caller drains in one shot, steps after
/// every submission (polling as it goes), or oversteps far past the last
/// event — at shard counts 1, 2 and 3.
#[test]
fn mixed_dag_report_bytes_are_invariant_to_stepping_at_every_shard_count() {
    let serve = ServeConfig {
        chips: 3,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let (items, templates) = mixed_items(28, 0xD1A6);
    let faults = FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 12_000,
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: 20_000,
            kind: FaultKind::Degradation {
                shard: 0,
                chip: 0,
                slowdown_percent: 60,
            },
        },
    ]);
    for shards in 1..=3 {
        let fleet_config = FleetConfig {
            shards,
            ..FleetConfig::default()
        };
        let (baseline, _) = orchestrate(
            &runtime,
            fleet_config,
            faults.clone(),
            templates.clone(),
            DagOrchestratorConfig::default(),
            &items,
        );

        // Step after every submission, polling outcomes as we go.
        let mut stepped = DagOrchestrator::new(
            &runtime,
            fleet_config,
            faults.clone(),
            templates.clone(),
            DagOrchestratorConfig::default(),
        );
        let mut outcomes = Vec::new();
        for item in &items {
            stepped.submit_item(item);
            stepped.run_until(item.arrival_cycles());
            outcomes.extend(stepped.poll_outcomes());
        }
        // Overstep far past the last event before draining.
        stepped.run_until(500_000_000);
        let stepped_report = stepped.drain();
        outcomes.extend(stepped.poll_outcomes());

        assert_eq!(
            report_json(&baseline),
            report_json(&stepped_report),
            "stepping granularity changed the report at {shards} shards"
        );
        assert_conservation(&baseline, &outcomes, &items);
    }
}

/// A point-only orchestrator over a no-fault, no-scaling single shard is
/// byte-equivalent to the bare fleet on the serve side; the DAG stats
/// record only points.
#[test]
fn point_only_orchestration_is_byte_equivalent_to_the_bare_fleet() {
    let serve = ServeConfig {
        chips: 3,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let trace = synthetic_trace(&TrafficConfig {
        requests: 24,
        models: plans().len(),
        mean_interarrival_cycles: 800.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 60_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.25,
            best_effort_share: 0.25,
        },
        seed: 0x0DA6,
    });
    let fleet_config = FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    };
    let bare = FleetSession::serve_trace(&runtime, fleet_config, FaultPlan::none(), &trace);

    let mut orch = DagOrchestrator::new(
        &runtime,
        fleet_config,
        FaultPlan::none(),
        Vec::new(),
        DagOrchestratorConfig::default(),
    );
    for request in &trace {
        orch.submit_point(*request);
    }
    let report = orch.drain();

    assert_eq!(
        serde_json::to_string(&bare.serve).unwrap(),
        serde_json::to_string(&report.serve).unwrap()
    );
    let dag = report.dag.expect("orchestrated drains carry DAG stats");
    assert_eq!(dag.points, trace.len());
    assert_eq!(dag.dags, 0);
    assert_eq!(dag.stages_total, 0);
}

/// Whole-DAG admission is atomic: with a tiny backlog cap, a flooded fleet
/// sheds arriving DAGs outright — every shed DAG sheds *all* of its
/// stages, and no DAG both serves a stage and sheds its root.
#[test]
fn dag_admission_sheds_whole_dags_never_partial_ones() {
    let serve = ServeConfig {
        chips: 1,
        max_batch: 1,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let templates = standard_templates(plans().len());
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig {
            inherit_priority: true,
            admission: Some(AdmissionConfig::uniform(2_000)),
        },
    );
    // A tight burst of cascades on one slow chip: the backlog blows past
    // the cap and later DAGs are shed at the door.
    let items = dag_items(16, |i| DagRequest {
        template: 0,
        arrival_cycles: i * 100,
        deadline_cycles: i * 100 + 2_000_000,
        slo: SloClass::Standard,
        stage_gaps: vec![0, 0],
    });
    for item in &items {
        orch.submit_item(item);
    }
    let report = orch.drain();
    let outcomes = orch.poll_outcomes();
    assert_conservation(&report, &outcomes, &items);
    let dag = report.dag.expect("orchestrated drains carry DAG stats");

    assert!(dag.failed > 0, "the flood must shed at least one DAG");
    assert!(dag.completed > 0, "the head of the flood must get through");
    assert_eq!(dag.completed + dag.failed, dag.dags);
    assert_eq!(
        dag.stages_served + dag.stages_rejected + dag.stages_shed,
        dag.stages_total
    );
    // Atomicity: any DAG whose root stage shed has every stage shed.
    for item in 0..16 {
        let stages: Vec<&StageOutcome> = outcomes.iter().filter(|o| o.item == item).collect();
        assert_eq!(stages.len(), 2);
        let root_shed = stages
            .iter()
            .any(|o| o.stage == 0 && o.status == StageStatus::Shed);
        if root_shed {
            assert!(
                stages.iter().all(|o| o.status == StageStatus::Shed),
                "admission shed DAG {item} only partially"
            );
        }
    }
}

/// A mid-flight stage rejection (session-level admission) fails the DAG:
/// descendants that never started resolve `Shed` exactly once, in-flight
/// siblings still resolve through the fleet.
#[test]
fn mid_flight_rejection_sheds_all_descendants_exactly_once() {
    let serve = ServeConfig {
        chips: 1,
        max_batch: 1,
        // Per-stage (session) admission: a tiny class cap rejects stages
        // that arrive into a deep backlog.
        admission: Some(AdmissionConfig::uniform(30_000)),
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let templates = standard_templates(plans().len());
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig::default(),
    );
    // Fan-out/join DAGs under a backlog: join stages (and some branches)
    // get rejected mid-flight, shedding the rest of their DAG.
    let items = dag_items(12, |i| DagRequest {
        template: 1, // ensemble-vote: root, two branches, join
        arrival_cycles: i * 400,
        deadline_cycles: i * 400 + 3_000_000,
        slo: SloClass::Standard,
        stage_gaps: vec![0, 0, 0, 0],
    });
    for item in &items {
        orch.submit_item(item);
    }
    let report = orch.drain();
    let outcomes = orch.poll_outcomes();
    assert_conservation(&report, &outcomes, &items);
    let dag = report.dag.expect("orchestrated drains carry DAG stats");

    assert_eq!(dag.dags, 12);
    assert_eq!(dag.stages_total, 48);
    assert_eq!(
        dag.stages_served + dag.stages_rejected + dag.stages_shed,
        dag.stages_total
    );
    assert!(
        dag.stages_rejected > 0,
        "the backlog must reject at least one mid-flight stage"
    );
    assert!(
        dag.stages_shed > 0,
        "a rejected stage's descendants must shed"
    );
    // Exactly-once: every (item, stage) appears once.
    let mut seen: Vec<(usize, usize)> = outcomes.iter().map(|o| (o.item, o.stage)).collect();
    seen.sort_unstable();
    let expected: Vec<(usize, usize)> = (0..12).flat_map(|i| (0..4).map(move |s| (i, s))).collect();
    assert_eq!(seen, expected);
    // No shed DAG ever submits a descendant after failing: a served join
    // implies every ancestor served.
    for item in 0..12 {
        let join_served = outcomes.iter().any(|o| {
            o.item == item
                && o.stage == 3
                && matches!(
                    o.status,
                    StageStatus::Fleet {
                        status: CompletionStatus::Served { .. },
                        ..
                    }
                )
        });
        if join_served {
            for stage in 0..3 {
                assert!(
                    outcomes.iter().any(|o| o.item == item
                        && o.stage == stage
                        && matches!(
                            o.status,
                            StageStatus::Fleet {
                                status: CompletionStatus::Served { .. },
                                ..
                            }
                        )),
                    "DAG {item} served its join without ancestor {stage}"
                );
            }
        }
    }
}

/// Eviction (the region-loss analogue): evicting mid-cascade sheds the
/// evicted stage and the never-submitted tail exactly once, and the DAG
/// counts as failed.
#[test]
fn eviction_mid_cascade_fails_the_dag_without_double_resolution() {
    let serve = ServeConfig {
        chips: 1,
        max_batch: 1,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let templates = standard_templates(plans().len());
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig::default(),
    );
    // Pile up cascades at t=0 on one serial chip, then evict while most
    // roots are still queued.
    for _ in 0..8 {
        orch.submit_dag(&DagRequest {
            template: 0,
            arrival_cycles: 0,
            deadline_cycles: 5_000_000,
            slo: SloClass::Standard,
            stage_gaps: vec![0, 0],
        });
    }
    let evicted = orch.evict_pending(1);
    assert!(evicted > 0, "a serial chip cannot have started everything");
    let report = orch.drain();
    let outcomes = orch.poll_outcomes();
    let dag = report.dag.expect("orchestrated drains carry DAG stats");

    assert_eq!(dag.dags, 8);
    assert_eq!(dag.completed + dag.failed, 8);
    assert!(dag.failed > 0, "evicted DAGs count as failed");
    assert_eq!(
        dag.stages_served + dag.stages_rejected + dag.stages_shed,
        dag.stages_total
    );
    let mut seen: Vec<(usize, usize)> = outcomes.iter().map(|o| (o.item, o.stage)).collect();
    seen.sort_unstable();
    let expected: Vec<(usize, usize)> = (0..8).flat_map(|i| (0..2).map(move |s| (i, s))).collect();
    assert_eq!(seen, expected, "eviction double-resolved a stage");
}

/// Conversation think gaps hold turns apart: turn N starts no earlier
/// than turn N-1's measured finish plus the instance's think gap.
#[test]
fn conversation_turns_wait_out_their_think_gaps() {
    let serve = ServeConfig {
        chips: 2,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let templates = standard_templates(plans().len());
    let gaps = vec![0, 45_000, 70_000];
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig::default(),
    );
    orch.submit_dag(&DagRequest {
        template: 2, // chat-3-turns
        arrival_cycles: 0,
        deadline_cycles: 10_000_000,
        slo: SloClass::Standard,
        stage_gaps: gaps.clone(),
    });
    let report = orch.drain();
    let outcomes = orch.poll_outcomes();
    assert_eq!(report.dag.unwrap().completed, 1);

    let mut turns: Vec<(usize, u64, u64)> = outcomes
        .iter()
        .filter_map(|o| match o.status {
            StageStatus::Fleet {
                status:
                    CompletionStatus::Served {
                        start_cycles,
                        finish_cycles,
                        ..
                    },
                ..
            } => Some((o.stage, start_cycles, finish_cycles)),
            _ => None,
        })
        .collect();
    turns.sort_unstable();
    assert_eq!(turns.len(), 3, "all three turns serve");
    for window in turns.windows(2) {
        let (_, _, prev_finish) = window[0];
        let (stage, start, _) = window[1];
        assert!(
            start >= prev_finish + gaps[stage],
            "turn {stage} started at {start}, before finish {prev_finish} + gap {}",
            gaps[stage]
        );
    }
}

/// Priority inheritance is observable in the ledger: a best-effort-bodied
/// cascade with a latency-sensitive tail promotes its upstream stages when
/// inheritance is on, and not when it is off.
#[test]
fn inheritance_promotes_upstream_stages_only_when_enabled() {
    let serve = ServeConfig {
        chips: 2,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let template = DagTemplate::new(
        "be-body-ls-tail",
        vec![
            DagStage::new(0).with_slo(SloClass::BestEffort),
            DagStage::new(1)
                .with_parents(vec![0])
                .with_slo(SloClass::LatencySensitive),
        ],
    );
    for (inherit, expected_promotions) in [(true, 1), (false, 0)] {
        let mut orch = DagOrchestrator::new(
            &runtime,
            FleetConfig {
                shards: 1,
                ..FleetConfig::default()
            },
            FaultPlan::none(),
            vec![template.clone()],
            DagOrchestratorConfig {
                inherit_priority: inherit,
                admission: None,
            },
        );
        orch.submit_dag(&DagRequest {
            template: 0,
            arrival_cycles: 0,
            deadline_cycles: 10_000_000,
            slo: SloClass::BestEffort,
            stage_gaps: vec![0, 0],
        });
        let report = orch.drain();
        let outcomes = orch.poll_outcomes();
        let dag = report.dag.unwrap();
        assert_eq!(dag.inherited_promotions, expected_promotions);
        let root_class = outcomes
            .iter()
            .find(|o| o.stage == 0)
            .expect("root resolves")
            .class;
        let expected_class = if inherit {
            SloClass::LatencySensitive
        } else {
            SloClass::BestEffort
        };
        assert_eq!(root_class, expected_class);
    }
}

/// DAG e2e latency lands in the sketch: completed DAGs report a p99 at
/// least as large as any single stage's latency, and the per-class rows
/// cover every class.
#[test]
fn dag_e2e_latency_is_at_least_the_longest_stage_path() {
    let serve = ServeConfig {
        chips: 2,
        backend: matrix_backend(),
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(plans().clone(), serve);
    let (items, templates) = mixed_items(20, 0xE2E);
    let (report, outcomes) = orchestrate(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig::default(),
        &items,
    );
    let dag = report.dag.unwrap();
    assert!(dag.completed > 0);
    assert_eq!(dag.per_class.len(), 3);
    // e2e max >= the largest served stage latency of any DAG stage.
    let max_stage_latency = outcomes
        .iter()
        .filter(|o| o.dag)
        .filter_map(|o| match o.status {
            StageStatus::Fleet {
                status: CompletionStatus::Served { latency_cycles, .. },
                ..
            } => Some(latency_cycles),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(
        dag.e2e_max_cycles >= max_stage_latency,
        "e2e max {} below a single stage latency {}",
        dag.e2e_max_cycles,
        max_stage_latency
    );
}

#[test]
#[should_panic(expected = "unknown DAG template index")]
fn submitting_an_unknown_template_panics() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        Vec::new(),
        DagOrchestratorConfig::default(),
    );
    let _ = orch.submit_dag(&DagRequest {
        template: 7,
        arrival_cycles: 0,
        deadline_cycles: 1,
        slo: SloClass::Standard,
        stage_gaps: vec![],
    });
}

#[test]
#[should_panic(expected = "one think gap per template stage")]
fn mismatched_gap_vectors_panic() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let templates = standard_templates(plans().len());
    let mut orch = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        FaultPlan::none(),
        templates,
        DagOrchestratorConfig::default(),
    );
    let _ = orch.submit_dag(&DagRequest {
        template: 0,
        arrival_cycles: 0,
        deadline_cycles: 1,
        slo: SloClass::Standard,
        stage_gaps: vec![0],
    });
}
