//! DAG orchestration: multi-stage requests over the fault-tolerant fleet.
//!
//! A [`workloads::dag::DagRequest`] names a [`DagTemplate`] — a stage graph
//! over the model zoo — plus an arrival, a whole-DAG deadline and per-stage
//! think gaps.  The [`DagOrchestrator`] turns each instance into ordinary
//! fleet traffic:
//!
//! 1. **Dependency-driven submission** — a stage is submitted the moment
//!    every parent stage has completed (plus the stage's think gap), as a
//!    plain [`TraceRequest`] whose stated arrival is the dependency-ready
//!    time.
//! 2. **Per-stage deadline budgets** — the whole-DAG deadline splits into
//!    per-stage deadlines proportional to critical-path position
//!    ([`split_dag_deadline`]), so every tail stage's budget lands exactly
//!    on the DAG deadline.
//! 3. **Priority inheritance** — with
//!    [`DagOrchestratorConfig::inherit_priority`] on, each stage runs under
//!    the highest class of itself and everything downstream of it
//!    ([`DagTemplate::inherited_classes`]), so a latency-sensitive tail
//!    promotes its not-yet-started upstream stages through the session's
//!    priority-insertion rule.
//! 4. **Per-DAG admission** — with an [`AdmissionConfig`] set, an arriving
//!    DAG is admitted or shed *whole* against the fleet's mean per-shard
//!    backlog: a mid-DAG stage is never orphaned by letting half a pipeline
//!    into a fleet that cannot take the rest.
//!
//! ## The canonical event walk
//!
//! The orchestrator never steps the fleet to caller-chosen times.  It walks
//! a canonical virtual-time event sequence — the merge of its own
//! dependency-ready queue and the fleet's event horizon
//! ([`FleetSession::next_event_cycles`]), observing completions via
//! [`FleetSession::observe_until`] — and the caller's
//! [`DagOrchestrator::run_until`] merely bounds how far the walk proceeds.
//! Every time the orchestrator acts on is therefore a pure function of
//! `(submissions, faults, config)`, which is what keeps the drained report
//! **byte-identical** across stepping granularity and worker counts, for
//! either execution backend.
//!
//! ## Conservation
//!
//! Every stage of every submitted DAG resolves exactly once: `Served` or
//! `Rejected` through the fleet, or `Shed` by the orchestrator (whole-DAG
//! admission, a failed sibling stage, or [`DagOrchestrator::evict_pending`]).
//! Each instance keeps one state per stage (waiting, submitted, served,
//! rejected or shed) and no other ledger: a DAG has failed once a stage was
//! rejected or shed, and [`DagOrchestrator::drain`] folds the
//! [`FleetReport::dag`] stats from those states.  So `served + rejected +
//! shed == stages_total` and `completed + failed == dags` hold by
//! construction.

use std::collections::{BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use workloads::dag::{DagRequest, DagTemplate, SessionItem, SessionItemKind};
use workloads::inputs::{FaultPlan, SloClass, TraceRequest};

use crate::fleet::{FleetConfig, FleetReport, FleetSession};
use crate::report::{DagClassStats, DagServeStats, LatencySketch};
use crate::runtime::ServeRuntime;
use crate::scheduler::{split_dag_deadline, AdmissionConfig, CostModel};
use crate::session::{CompletionStatus, RequestOutcome};

/// Orchestrator policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagOrchestratorConfig {
    /// Promote each stage to the highest class of itself and its
    /// descendants (priority inheritance).  Off, every stage runs under its
    /// own class (template override or the DAG instance's class).
    pub inherit_priority: bool,
    /// Whole-DAG admission control: an arriving DAG is shed outright —
    /// every stage resolved `Shed`, nothing submitted — when the fleet's
    /// mean per-shard backlog (all classes) exceeds the cap of the DAG's
    /// class.  `None` admits every DAG (stages still face the session's
    /// own per-stage admission).
    pub admission: Option<AdmissionConfig>,
}

impl Default for DagOrchestratorConfig {
    fn default() -> Self {
        Self {
            inherit_priority: true,
            admission: None,
        }
    }
}

/// How one stage (or point request) left the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageStatus {
    /// The stage was submitted and resolved by the fleet.
    Fleet {
        /// Shard that served (or rejected) the stage.
        shard: usize,
        /// The per-request completion.
        status: CompletionStatus,
    },
    /// The orchestrator shed the stage without the fleet ever resolving
    /// it: whole-DAG admission, a failed sibling stage, or eviction.
    Shed,
}

/// One resolved stage, streamed by [`DagOrchestrator::poll_outcomes`].
/// Point requests flow through the same stream as single-stage non-DAG
/// items (`dag == false`, `stage == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageOutcome {
    /// Orchestrator item id, in submission order (points and DAGs share
    /// one sequence).
    pub item: usize,
    /// Stage index within the item's template (0 for points).
    pub stage: usize,
    /// Total stages of the item (1 for points).
    pub stages: usize,
    /// Whether the item is a DAG instance.
    pub dag: bool,
    /// Model the stage targeted.
    pub model: usize,
    /// Class the stage was submitted under (after inheritance, when on).
    pub class: SloClass,
    /// How the stage resolved.
    pub status: StageStatus,
}

/// Where one fleet submission index points back to.
#[derive(Debug, Clone, Copy)]
enum SubmissionRef {
    Point { item: usize },
    Stage { item: usize, stage: usize },
}

/// Where one stage of a DAG instance stands.  The DAG's fate and every
/// [`DagServeStats`] counter derive from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageState {
    /// Not submitted yet: parents pending, or dependency-ready in `ready`.
    Waiting,
    /// Handed to the fleet, not resolved yet.
    Submitted,
    /// Served by the fleet, finishing at this cycle.
    Served(u64),
    /// Bounced by the fleet's per-stage admission.
    Rejected,
    /// Shed by the orchestrator without the fleet resolving it.
    Shed,
}

/// Orchestrator-side state of one stage of a DAG instance: its only
/// per-stage record.
#[derive(Debug, Clone, Copy)]
struct Stage {
    /// Class the stage is submitted under (inheritance applied).
    class: SloClass,
    /// Deadline budget ([`split_dag_deadline`]).
    deadline: u64,
    /// Think gap of this instance before the stage.
    gap: u64,
    state: StageState,
    /// Parents still unserved.
    pending_parents: usize,
    /// Running `max(parent finish + gap)` — the dependency-ready time once
    /// `pending_parents` hits zero.
    ready: u64,
}

/// Orchestrator-side state of one DAG instance.
#[derive(Debug)]
struct DagInstance {
    template: usize,
    arrival: u64,
    deadline: u64,
    class: SloClass,
    stages: Vec<Stage>,
}

impl DagInstance {
    /// Whether a stage was rejected or shed: the DAG submits nothing more.
    fn failed(&self) -> bool {
        self.stages
            .iter()
            .any(|s| matches!(s.state, StageState::Rejected | StageState::Shed))
    }
}

/// One submitted item: a point request or a DAG instance.
#[derive(Debug)]
enum Item {
    Point { resolved: bool },
    Dag(DagInstance),
}

/// Multi-stage orchestration over a [`FleetSession`] — see the
/// [module docs](self) for the submission, deadline, inheritance and
/// admission rules.
#[derive(Debug)]
pub struct DagOrchestrator<'rt> {
    fleet: FleetSession<'rt>,
    config: DagOrchestratorConfig,
    templates: Vec<DagTemplate>,
    /// Child lists per template, derived once.
    children: Vec<Vec<Vec<usize>>>,
    /// Per template and DAG class ([`SloClass::index`]), each stage's
    /// class under priority inheritance, derived once.
    inherited: Vec<Vec<Vec<SloClass>>>,
    cost: CostModel,
    /// Reused by [`split_dag_deadline`] for every arriving DAG.
    budgets: Vec<u64>,
    items: Vec<Item>,
    /// Fleet submission index -> orchestrator item/stage.
    submissions: Vec<SubmissionRef>,
    /// Dependency-ready stages awaiting submission:
    /// `(ready_at, item, stage)` — the BTreeSet order *is* the canonical
    /// submission order.
    ready: BTreeSet<(u64, usize, usize)>,
    outcomes: VecDeque<StageOutcome>,
    drained: bool,
}

impl<'rt> DagOrchestrator<'rt> {
    /// Opens an orchestrated fleet over the runtime with the fault schedule
    /// armed and the template catalogue fixed.
    ///
    /// # Panics
    ///
    /// Panics on an invalid template (see [`DagTemplate::validate`]) or an
    /// invalid fleet configuration.
    #[must_use]
    pub fn new(
        runtime: &'rt ServeRuntime,
        fleet: FleetConfig,
        faults: FaultPlan,
        templates: Vec<DagTemplate>,
        config: DagOrchestratorConfig,
    ) -> Self {
        for template in &templates {
            template.validate();
        }
        let children = templates.iter().map(DagTemplate::children).collect();
        let inherited = templates
            .iter()
            .map(|t| SloClass::ALL.map(|c| t.inherited_classes(c)).to_vec())
            .collect();
        Self {
            fleet: FleetSession::new(runtime, fleet, faults),
            config,
            children,
            inherited,
            cost: runtime.cost_model(),
            budgets: Vec::new(),
            templates,
            items: Vec::new(),
            submissions: Vec::new(),
            ready: BTreeSet::new(),
            outcomes: VecDeque::new(),
            drained: false,
        }
    }

    /// Submits one [`SessionItem`] (point or DAG), returning its item id.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Self::submit_point`] /
    /// [`Self::submit_dag`].
    pub fn submit_item(&mut self, item: &SessionItem) -> usize {
        match &item.kind {
            SessionItemKind::Point(request) => self.submit_point(*request),
            SessionItemKind::Dag(dag) => self.submit_dag(dag),
        }
    }

    /// Submits one point request, returning its item id.  Points bypass
    /// whole-DAG admission (the session's per-stage admission still
    /// applies) and flow through the fleet untouched.
    ///
    /// # Panics
    ///
    /// Panics if the orchestrator was drained or the request names an
    /// unknown model.
    pub fn submit_point(&mut self, request: TraceRequest) -> usize {
        assert!(!self.drained, "cannot submit to a drained orchestrator");
        self.pump(request.arrival_cycles);
        let item = self.items.len();
        self.items.push(Item::Point { resolved: false });
        self.submissions.push(SubmissionRef::Point { item });
        self.fleet.submit(request);
        item
    }

    /// Submits one DAG instance, returning its item id.  Root stages are
    /// submitted at the DAG's arrival; downstream stages are submitted by
    /// the canonical event walk as their parents complete.  With
    /// [`DagOrchestratorConfig::admission`] set, the whole DAG may be shed
    /// here instead — every stage resolves `Shed` and nothing reaches the
    /// fleet.
    ///
    /// # Panics
    ///
    /// Panics if the orchestrator was drained, the template index is out
    /// of range, or the instance's gap vector does not match the template.
    pub fn submit_dag(&mut self, dag: &DagRequest) -> usize {
        assert!(!self.drained, "cannot submit to a drained orchestrator");
        let stages = self
            .templates
            .get(dag.template)
            .unwrap_or_else(|| panic!("unknown DAG template index {}", dag.template))
            .stages
            .len();
        assert_eq!(
            dag.stage_gaps.len(),
            stages,
            "DAG instance carries one think gap per template stage"
        );
        // Process every canonical event due before this arrival first, so
        // the admission read and the root submissions see the same fleet
        // state regardless of caller stepping.
        self.pump(dag.arrival_cycles);

        // Whole-DAG admission sheds every stage rather than orphan a
        // mid-DAG stage in a fleet that cannot take the rest.
        let shed = self.config.admission.is_some_and(|admission| {
            self.fleet.observe_until(dag.arrival_cycles);
            let backlog: u64 = self
                .fleet
                .class_backlog_cycles()
                .iter()
                .fold(0u64, |a, &b| a.saturating_add(b));
            backlog / self.fleet.shards() as u64 > admission.cap_for(dag.slo)
        });
        let template = &self.templates[dag.template];
        split_dag_deadline(
            template,
            &dag.stage_gaps,
            &self.cost,
            dag.arrival_cycles,
            dag.deadline_cycles,
            &mut self.budgets,
        );
        let inherit = self.config.inherit_priority && !shed;
        let inherited = &self.inherited[dag.template][dag.slo.index()];
        let records = template
            .stages
            .iter()
            .enumerate()
            .map(|(s, spec)| Stage {
                class: if inherit {
                    inherited[s]
                } else {
                    template.own_class(s, dag.slo)
                },
                deadline: self.budgets[s],
                gap: dag.stage_gaps[s],
                state: StageState::Waiting,
                pending_parents: spec.parents.len(),
                ready: dag.arrival_cycles,
            })
            .collect();
        let item = self.items.len();
        self.items.push(Item::Dag(DagInstance {
            template: dag.template,
            arrival: dag.arrival_cycles,
            deadline: dag.deadline_cycles,
            class: dag.slo,
            stages: records,
        }));
        if shed {
            self.fail_dag(item);
            return item;
        }
        // Root stages issue at the DAG's arrival (their think gap, if any,
        // is ignored — a gap models the pause *after* a parent completes).
        for stage in 0..stages {
            let spec = &self.templates[dag.template].stages[stage];
            if spec.parents.is_empty() {
                self.submit_stage(item, stage, dag.arrival_cycles);
            }
        }
        item
    }

    /// Steps orchestration up to virtual cycle `target`: walks every
    /// canonical event (dependency-ready submission or fleet event) due at
    /// or before then.  Stepping granularity never changes the drained
    /// report bytes.
    pub fn run_until(&mut self, target: u64) {
        self.pump(target);
    }

    /// Drains the resolved stage/point outcomes accumulated since the last
    /// poll, in resolution order.
    pub fn poll_outcomes(&mut self) -> Vec<StageOutcome> {
        self.outcomes.drain(..).collect()
    }

    /// Evicts every committed-but-not-started request across the fleet at
    /// virtual time `at_cycles` — the region-loss analogue.  Each evicted
    /// point resolves `Shed`; each evicted stage resolves `Shed` and fails
    /// its DAG, shedding the DAG's not-yet-submitted stages too (each
    /// exactly once).  In-flight sibling stages still resolve through the
    /// fleet.  Returns the number of requests evicted from the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the orchestrator was drained.
    pub fn evict_pending(&mut self, at_cycles: u64) -> usize {
        assert!(!self.drained, "cannot evict from a drained orchestrator");
        self.pump(at_cycles);
        let evicted = self.fleet.evict_pending(at_cycles);
        let count = evicted.len();
        for (fleet_id, request) in evicted {
            match self.submissions[fleet_id] {
                SubmissionRef::Point { item } => {
                    let Item::Point { resolved } = &mut self.items[item] else {
                        unreachable!("point submission maps to a point item");
                    };
                    assert!(!*resolved, "evicted point already resolved");
                    *resolved = true;
                    self.outcomes.push_back(StageOutcome {
                        item,
                        stage: 0,
                        stages: 1,
                        dag: false,
                        model: request.model,
                        class: request.slo,
                        status: StageStatus::Shed,
                    });
                }
                SubmissionRef::Stage { item, stage } => {
                    self.resolve_shed_stage(item, stage);
                    self.fail_dag(item);
                }
            }
        }
        count
    }

    /// Walks every remaining canonical event, drains the fleet and freezes
    /// the report with the DAG-level stats attached
    /// ([`FleetReport::dag`]), folded from every item's stage states.
    ///
    /// # Panics
    ///
    /// Panics if the orchestrator was already drained.
    pub fn drain(&mut self) -> FleetReport {
        assert!(!self.drained, "orchestrator already drained");
        self.pump(u64::MAX);
        self.drained = true;
        debug_assert!(self.ready.is_empty(), "drain leaves no stage unsubmitted");
        let mut report = self.fleet.drain();
        report.dag = Some(self.stats());
        report
    }

    /// Folds the DAG-level stats from the items: a DAG completed when every
    /// stage served, its end-to-end latency running to the last stage's
    /// finish, and a stage was promoted when its submitted class is above
    /// its own.  Each drained stage lands in exactly one of the served,
    /// rejected and shed counts, and each DAG is completed or failed.
    fn stats(&self) -> DagServeStats {
        let mut e2e: [LatencySketch; 3] = Default::default();
        let (mut totals, mut misses) = ([0usize; 3], [0usize; 3]);
        let (mut points, mut promotions) = (0, 0);
        let (mut served, mut rejected, mut shed) = (0, 0, 0);
        for item in &self.items {
            let Item::Dag(dag) = item else {
                points += 1;
                continue;
            };
            let template = &self.templates[dag.template];
            let class = dag.class.index();
            totals[class] += 1;
            promotions += (0..dag.stages.len())
                .filter(|&s| dag.stages[s].class > template.own_class(s, dag.class))
                .count();
            for stage in &dag.stages {
                match stage.state {
                    StageState::Served(_) => served += 1,
                    StageState::Rejected => rejected += 1,
                    StageState::Shed => shed += 1,
                    StageState::Waiting | StageState::Submitted => {
                        unreachable!("drain resolves every stage")
                    }
                }
            }
            let last_finish = dag
                .stages
                .iter()
                .try_fold(0, |last, stage| match stage.state {
                    StageState::Served(at) => Some(last.max(at)),
                    _ => None,
                });
            if let Some(finish) = last_finish {
                e2e[class].record(finish.saturating_sub(dag.arrival));
                misses[class] += usize::from(finish > dag.deadline);
            }
        }
        let mut overall = LatencySketch::new();
        for sketch in &e2e {
            overall.merge(sketch);
        }
        let dags: usize = totals.iter().sum();
        let completed = overall.count() as usize;
        DagServeStats {
            dags,
            completed,
            failed: dags - completed,
            deadline_misses: misses.iter().sum(),
            stages_total: served + rejected + shed,
            stages_served: served,
            stages_rejected: rejected,
            stages_shed: shed,
            inherited_promotions: promotions,
            points,
            e2e_p50_cycles: overall.percentile(0.50),
            e2e_p99_cycles: overall.percentile(0.99),
            e2e_max_cycles: overall.max(),
            per_class: SloClass::ALL
                .iter()
                .map(|&class| {
                    let sketch = &e2e[class.index()];
                    DagClassStats {
                        class,
                        total: totals[class.index()],
                        completed: sketch.count() as usize,
                        deadline_misses: misses[class.index()],
                        e2e_p50_cycles: sketch.percentile(0.50),
                        e2e_p99_cycles: sketch.percentile(0.99),
                    }
                })
                .collect(),
        }
    }

    // --- the canonical event walk ------------------------------------------

    /// Processes every canonical event due at or before `target`, in time
    /// order; dependency-ready submissions run before fleet observations on
    /// ties (a submission at `t` must enter the estimated schedule before
    /// anything else is derived from it).
    fn pump(&mut self, target: u64) {
        loop {
            let ready_head = self.ready.iter().next().copied();
            let fleet_event = self.fleet.next_event_cycles();
            let next = match (ready_head, fleet_event) {
                (None, None) => break,
                (Some((r, _, _)), None) => r,
                (None, Some(e)) => e,
                (Some((r, _, _)), Some(e)) => r.min(e),
            };
            if next > target {
                break;
            }
            if let Some((ready_at, item, stage)) = ready_head.filter(|&(r, _, _)| r <= next) {
                self.ready.remove(&(ready_at, item, stage));
                self.submit_stage(item, stage, ready_at);
                continue;
            }
            self.fleet.observe_until(next);
            self.harvest();
        }
    }

    /// Submits one dependency-ready stage to the fleet.
    fn submit_stage(&mut self, item: usize, stage: usize, ready_at: u64) {
        let Item::Dag(instance) = &mut self.items[item] else {
            unreachable!("stages only exist on DAG items");
        };
        debug_assert!(!instance.failed(), "failed DAGs never submit");
        let record = &mut instance.stages[stage];
        record.state = StageState::Submitted;
        let request = TraceRequest {
            model: self.templates[instance.template].stages[stage].model,
            arrival_cycles: ready_at,
            deadline_cycles: record.deadline,
            slo: record.class,
        };
        self.submissions.push(SubmissionRef::Stage { item, stage });
        self.fleet.submit(request);
    }

    /// Resolves every completed submission, taking the fleet's outcomes in
    /// [`FleetSession::poll_completions`] order (resolving one submits
    /// nothing, so none joins mid-harvest).
    fn harvest(&mut self) {
        for shard in 0..self.fleet.shards() {
            while let Some(outcome) = self.fleet.pop_completion(shard) {
                self.resolve_fleet_outcome(shard, outcome);
            }
        }
    }

    /// Resolves one fleet outcome of `shard`.
    fn resolve_fleet_outcome(&mut self, shard: usize, outcome: RequestOutcome) {
        match self.submissions[outcome.request] {
            SubmissionRef::Point { item } => {
                let Item::Point { resolved } = &mut self.items[item] else {
                    unreachable!("point submission maps to a point item");
                };
                debug_assert!(!*resolved, "point resolved twice");
                *resolved = true;
                self.outcomes.push_back(StageOutcome {
                    item,
                    stage: 0,
                    stages: 1,
                    dag: false,
                    model: outcome.model,
                    class: outcome.slo,
                    status: StageStatus::Fleet {
                        shard,
                        status: outcome.status,
                    },
                });
            }
            SubmissionRef::Stage { item, stage } => {
                self.resolve_fleet_stage(item, stage, shard, outcome.status);
            }
        }
    }

    /// Resolves one fleet-completed stage: child fan-out on a serve,
    /// whole-DAG failure on a rejection.
    fn resolve_fleet_stage(
        &mut self,
        item: usize,
        stage: usize,
        shard: usize,
        status: CompletionStatus,
    ) {
        let Item::Dag(instance) = &mut self.items[item] else {
            unreachable!("stage submission maps to a DAG item");
        };
        debug_assert_eq!(
            instance.stages[stage].state,
            StageState::Submitted,
            "stage resolved twice"
        );
        self.outcomes.push_back(StageOutcome {
            item,
            stage,
            stages: instance.stages.len(),
            dag: true,
            model: self.templates[instance.template].stages[stage].model,
            class: instance.stages[stage].class,
            status: StageStatus::Fleet { shard, status },
        });
        match status {
            CompletionStatus::Served { finish_cycles, .. } => {
                instance.stages[stage].state = StageState::Served(finish_cycles);
                if !instance.failed() {
                    let children = &self.children[instance.template][stage];
                    for &child in children {
                        let child_stage = &mut instance.stages[child];
                        let ready = finish_cycles.saturating_add(child_stage.gap);
                        child_stage.ready = child_stage.ready.max(ready);
                        child_stage.pending_parents -= 1;
                        if child_stage.pending_parents == 0 {
                            self.ready.insert((child_stage.ready, item, child));
                        }
                    }
                }
            }
            CompletionStatus::Rejected { .. } => {
                instance.stages[stage].state = StageState::Rejected;
                self.fail_dag(item);
            }
        }
    }

    /// Marks one never-to-run stage `Shed` (exactly once).
    fn resolve_shed_stage(&mut self, item: usize, stage: usize) {
        let Item::Dag(instance) = &mut self.items[item] else {
            unreachable!("stage submission maps to a DAG item");
        };
        let stages = instance.stages.len();
        let record = &mut instance.stages[stage];
        assert!(
            matches!(record.state, StageState::Waiting | StageState::Submitted),
            "stage shed twice"
        );
        record.state = StageState::Shed;
        self.outcomes.push_back(StageOutcome {
            item,
            stage,
            stages,
            dag: true,
            model: self.templates[instance.template].stages[stage].model,
            class: record.class,
            status: StageStatus::Shed,
        });
    }

    /// Fails a DAG: stops all future submissions and sheds every stage that
    /// was never submitted (in-flight stages still resolve via the fleet).
    /// A DAG that already failed has no waiting stage left, so this is then
    /// a no-op.
    fn fail_dag(&mut self, item: usize) {
        let Item::Dag(instance) = &self.items[item] else {
            unreachable!("only DAG items fail");
        };
        let waiting: Vec<usize> = (0..instance.stages.len())
            .filter(|&s| instance.stages[s].state == StageState::Waiting)
            .collect();
        if waiting.is_empty() {
            return;
        }
        self.ready.retain(|&(_, i, _)| i != item);
        for stage in waiting {
            self.resolve_shed_stage(item, stage);
        }
    }
}
