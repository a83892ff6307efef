//! Multi-stage request DAGs and conversational sessions.
//!
//! A [`crate::inputs::TraceRequest`] is a *point* request: one model, one
//! arrival, one deadline.  Real serving traffic is pipelines — a detector
//! feeding a classifier, a retrieval stage feeding a generator — and
//! *sessions*: one user issuing a chain of requests separated by think-time
//! gaps.  This module adds that vocabulary on top of the frozen trace
//! generator:
//!
//! * [`DagTemplate`] — a reusable stage graph over the model zoo (stages
//!   reference parent stages by index, so every template is topologically
//!   ordered by construction).  Constructors cover the three shapes the
//!   serving layer exercises: [`DagTemplate::cascade`],
//!   [`DagTemplate::fan_out_join`] and [`DagTemplate::conversation`].
//! * [`DagRequest`] — one instantiated DAG: a template index, an arrival,
//!   a whole-DAG deadline and the per-stage think gaps drawn for this
//!   instance.
//! * [`SessionStream`] — the multi-user generator: it wraps a frozen
//!   [`TraceStream`] and *upgrades* a configurable share of its requests
//!   into DAGs, multiplexing them over a user population.  All new draws
//!   (user, upgrade coin, template choice, think gaps) come from dedicated
//!   RNG streams, so the base trace's arrival/model/SLO draws stay
//!   **byte-identical** whether DAG stages are enabled or not — committed
//!   serving benchmarks replay traces by seed.
//!
//! The serving-side orchestration (submitting a stage when its parents
//! complete, splitting the DAG deadline into per-stage budgets, priority
//! inheritance) lives in `aim-serve`; this module is pure workload
//! vocabulary.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::inputs::{SloClass, TraceRequest, TraceStream, TrafficConfig};

/// XOR offset of the DAG-structure stream (user, upgrade coin, template
/// choice) relative to the trace seed — a dedicated stream, like the SLO
/// stream, so enabling DAGs never perturbs the frozen base draws.
const DAG_STREAM_OFFSET: u64 = 0x00DA_657A_6E55;

/// XOR offset of the think-time stream relative to the trace seed.  Think
/// gaps get their *own* stream (separate from the DAG-structure stream) so
/// that changing a template's think-time means never changes which requests
/// upgrade, to which template, or for which user.
const THINK_STREAM_OFFSET: u64 = 0x0074_1106_A255;

/// One stage of a [`DagTemplate`]: a model invocation that becomes ready
/// once every parent stage has completed (plus this stage's think gap).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagStage {
    /// Model index the stage invokes.
    pub model: usize,
    /// Per-stage SLO override; `None` inherits the DAG instance's class.
    pub slo: Option<SloClass>,
    /// Parent stage indices — each **must** be smaller than this stage's
    /// own index, so templates are topologically ordered by construction.
    /// Empty for root stages.
    pub parents: Vec<usize>,
    /// Mean of the exponential think-time gap (cycles) between the last
    /// parent's completion and this stage's issue.  `0` means the stage
    /// issues immediately *and consumes no RNG draw*, so gap-free pipeline
    /// templates never touch the think stream.
    pub mean_think_gap_cycles: u64,
}

impl DagStage {
    /// A root stage of `model` with no SLO override and no think gap.
    #[must_use]
    pub fn new(model: usize) -> Self {
        Self {
            model,
            slo: None,
            parents: Vec::new(),
            mean_think_gap_cycles: 0,
        }
    }

    /// Sets the parent stage indices.
    #[must_use]
    pub fn with_parents(mut self, parents: Vec<usize>) -> Self {
        self.parents = parents;
        self
    }

    /// Overrides the stage's SLO class.
    #[must_use]
    pub fn with_slo(mut self, slo: SloClass) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// A reusable multi-stage request shape: a DAG of model invocations where
/// stage `i` may only depend on stages `< i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagTemplate {
    /// Human-readable template name (flows into reports and goldens).
    pub name: String,
    /// The stages, in topological order.
    pub stages: Vec<DagStage>,
}

impl DagTemplate {
    /// Builds a template from explicit stages, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or any stage lists a parent index not
    /// strictly smaller than its own index (see [`Self::validate`]).
    #[must_use]
    pub fn new(name: &str, stages: Vec<DagStage>) -> Self {
        let template = Self {
            name: name.to_string(),
            stages,
        };
        template.validate();
        template
    }

    /// A linear pipeline: `models[0] -> models[1] -> …`, no think gaps.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    #[must_use]
    pub fn cascade(name: &str, models: &[usize]) -> Self {
        let stages = models
            .iter()
            .enumerate()
            .map(|(i, &model)| {
                let mut stage = DagStage::new(model);
                if i > 0 {
                    stage.parents = vec![i - 1];
                }
                stage
            })
            .collect();
        Self::new(name, stages)
    }

    /// A fan-out/join: one `root` stage feeding every `branches[i]` stage
    /// in parallel, all joining into a final `join` stage.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty.
    #[must_use]
    pub fn fan_out_join(name: &str, root: usize, branches: &[usize], join: usize) -> Self {
        assert!(!branches.is_empty(), "a fan-out needs at least one branch");
        let mut stages = vec![DagStage::new(root)];
        for &model in branches {
            stages.push(DagStage::new(model).with_parents(vec![0]));
        }
        let join_parents = (1..=branches.len()).collect();
        stages.push(DagStage::new(join).with_parents(join_parents));
        Self::new(name, stages)
    }

    /// A conversational session: `turns` invocations of `model` in a
    /// chain, each turn preceded by an exponential think gap of the given
    /// mean (the opening turn issues at the DAG's arrival, gap-free).
    ///
    /// # Panics
    ///
    /// Panics if `turns` is zero.
    #[must_use]
    pub fn conversation(
        name: &str,
        model: usize,
        turns: usize,
        mean_think_gap_cycles: u64,
    ) -> Self {
        assert!(turns >= 1, "a conversation needs at least one turn");
        let stages = (0..turns)
            .map(|i| {
                let mut stage = DagStage::new(model);
                if i > 0 {
                    stage.parents = vec![i - 1];
                    stage.mean_think_gap_cycles = mean_think_gap_cycles;
                }
                stage
            })
            .collect();
        Self::new(name, stages)
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the template has no stages (never true for a validated
    /// template).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Checks the template invariants: at least one stage, and every
    /// parent index strictly smaller than its stage's own index.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn validate(&self) {
        assert!(
            !self.stages.is_empty(),
            "template {:?} has no stages",
            self.name
        );
        for (i, stage) in self.stages.iter().enumerate() {
            for &parent in &stage.parents {
                assert!(
                    parent < i,
                    "template {:?}: stage {i} lists parent {parent}, but parents \
                     must precede their stage (topological order by construction)",
                    self.name
                );
            }
        }
    }

    /// Child lists derived from the parent lists: `children[i]` holds the
    /// stages that depend on stage `i`, in ascending order.
    #[must_use]
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.stages.len()];
        for (i, stage) in self.stages.iter().enumerate() {
            for &parent in &stage.parents {
                children[parent].push(i);
            }
        }
        children
    }

    /// The class stage `stage` runs under on its own: its override, or the
    /// DAG instance's class.
    #[must_use]
    pub fn own_class(&self, stage: usize, dag_class: SloClass) -> SloClass {
        self.stages[stage].slo.unwrap_or(dag_class)
    }

    /// Per-stage classes under **priority inheritance**: each stage is
    /// promoted to the highest class of itself and every stage downstream
    /// of it, so a latency-sensitive tail stage lifts all of its
    /// not-yet-started upstream work.  Computed in one reverse pass over
    /// the (topologically ordered) stages.
    #[must_use]
    pub fn inherited_classes(&self, dag_class: SloClass) -> Vec<SloClass> {
        let mut classes: Vec<SloClass> = (0..self.stages.len())
            .map(|i| self.own_class(i, dag_class))
            .collect();
        for i in (0..self.stages.len()).rev() {
            for &parent in &self.stages[i].parents {
                classes[parent] = classes[parent].max(classes[i]);
            }
        }
        classes
    }
}

/// One instantiated DAG: which template, when it arrived, its whole-DAG
/// deadline, the class it runs under and the think gaps drawn for this
/// instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagRequest {
    /// Index into the session's template catalogue.
    pub template: usize,
    /// Arrival of the DAG's root stages (cycles).
    pub arrival_cycles: u64,
    /// End-to-end deadline of the whole DAG (cycles).
    pub deadline_cycles: u64,
    /// Class of the DAG instance (stages may override or inherit).
    pub slo: SloClass,
    /// Think gap drawn for each stage (cycles); root stages carry `0`.
    pub stage_gaps: Vec<u64>,
}

/// What one [`SessionStream`] emission is: a plain point request or an
/// upgraded DAG instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionItemKind {
    /// A single-model point request, exactly as the base trace drew it.
    Point(TraceRequest),
    /// A multi-stage DAG instance.
    Dag(DagRequest),
}

/// One emission of a [`SessionStream`]: the user it belongs to plus the
/// request itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionItem {
    /// User the item belongs to (stable per-user arrival multiplexing).
    pub user: usize,
    /// The request.
    pub kind: SessionItemKind,
}

impl SessionItem {
    /// The item's arrival time (point arrival or DAG root arrival).
    #[must_use]
    pub fn arrival_cycles(&self) -> u64 {
        match &self.kind {
            SessionItemKind::Point(request) => request.arrival_cycles,
            SessionItemKind::Dag(dag) => dag.arrival_cycles,
        }
    }

    /// The item's own SLO class (point request class or DAG instance
    /// class) — what its stages run at absent a per-stage pin or an
    /// inherited promotion.
    #[must_use]
    pub fn slo_class(&self) -> SloClass {
        match &self.kind {
            SessionItemKind::Point(request) => request.slo,
            SessionItemKind::Dag(dag) => dag.slo,
        }
    }
}

/// Configuration of a [`SessionStream`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The base point-request traffic (arrivals, models, SLO mix, seed).
    pub traffic: TrafficConfig,
    /// User population size; each emission is tagged with a user drawn
    /// from the DAG stream.
    pub users: usize,
    /// Share of base requests upgraded into DAG instances (`0.0` disables
    /// DAGs entirely; the base draws are identical either way).
    pub dag_share: f64,
    /// Template catalogue upgrades draw from, uniformly.
    pub templates: Vec<DagTemplate>,
    /// Deadline slack granted to a whole DAG past its arrival (cycles) —
    /// wider than the point slack, since a DAG spans several stages.
    pub dag_deadline_slack_cycles: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            traffic: TrafficConfig::default(),
            users: 8,
            dag_share: 0.0,
            templates: Vec::new(),
            dag_deadline_slack_cycles: 400_000,
        }
    }
}

/// A small standard template catalogue over a zoo of `models` models: a
/// two-stage cascade, a fan-out/join, and a three-turn conversation with
/// think gaps.  Model indices wrap modulo `models`, so the catalogue works
/// against any zoo size ≥ 1.
///
/// The cascade's classify stage and the ensemble's vote stage are pinned
/// [`SloClass::LatencySensitive`] — the user is waiting on exactly those
/// results — so priority inheritance has real tails to propagate from.
///
/// # Panics
///
/// Panics if `models` is zero.
#[must_use]
pub fn standard_templates(models: usize) -> Vec<DagTemplate> {
    assert!(models > 0, "a template catalogue needs at least one model");
    let m = |i: usize| i % models;
    let mut cascade = DagTemplate::cascade("detect-then-classify", &[m(0), m(1)]);
    cascade.stages[1].slo = Some(SloClass::LatencySensitive);
    let mut ensemble = DagTemplate::fan_out_join("ensemble-vote", m(0), &[m(1), m(2)], m(3));
    ensemble.stages[3].slo = Some(SloClass::LatencySensitive);
    vec![
        cascade,
        ensemble,
        DagTemplate::conversation("chat-3-turns", m(3), 3, 60_000),
    ]
}

/// The streaming session generator: wraps a frozen [`TraceStream`] and
/// upgrades a share of its requests into DAG instances over a user
/// population.  See the [module docs](self) for the RNG-stream contract.
///
/// The per-item draw order is frozen: base request first (its own
/// streams), then user, then the upgrade coin, then — only on upgrade —
/// the template index (all from the DAG stream), then one think-gap draw
/// per stage with a nonzero mean (from the think stream).
#[derive(Debug, Clone)]
pub struct SessionStream {
    base: TraceStream,
    dag_rng: ChaCha8Rng,
    think_rng: ChaCha8Rng,
    users: usize,
    dag_share: f64,
    templates: Vec<DagTemplate>,
    dag_deadline_slack_cycles: u64,
}

impl SessionStream {
    /// Opens a stream over the configured session shape.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero, `dag_share` is outside `[0, 1]`, any
    /// template is invalid, or the base traffic config is invalid.
    #[must_use]
    pub fn new(config: &SessionConfig) -> Self {
        assert!(config.users > 0, "a session stream needs at least one user");
        assert!(
            (0.0..=1.0).contains(&config.dag_share),
            "dag_share must lie in [0, 1], got {}",
            config.dag_share
        );
        for template in &config.templates {
            template.validate();
        }
        let seed = config.traffic.seed;
        Self {
            base: TraceStream::new(&config.traffic),
            dag_rng: ChaCha8Rng::seed_from_u64(seed ^ DAG_STREAM_OFFSET),
            think_rng: ChaCha8Rng::seed_from_u64(seed ^ THINK_STREAM_OFFSET),
            users: config.users,
            dag_share: config.dag_share,
            templates: config.templates.clone(),
            dag_deadline_slack_cycles: config.dag_deadline_slack_cycles,
        }
    }

    /// Items still to come.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.base.remaining()
    }
}

impl Iterator for SessionStream {
    type Item = SessionItem;

    fn next(&mut self) -> Option<SessionItem> {
        let request = self.base.next()?;
        let user = self.dag_rng.gen_range(0..self.users);
        let coin: f64 = self.dag_rng.gen_range(0.0..1.0);
        let upgrade = !self.templates.is_empty() && coin < self.dag_share;
        let kind = if upgrade {
            let template = self.dag_rng.gen_range(0..self.templates.len());
            let stage_gaps = self.templates[template]
                .stages
                .iter()
                .map(|stage| {
                    if stage.mean_think_gap_cycles == 0 {
                        0
                    } else {
                        let u: f64 = self.think_rng.gen_range(f64::EPSILON..1.0);
                        // Saturating float -> integer cast, same contract
                        // as the arrival gaps in `TraceStream`.
                        (-u.ln() * stage.mean_think_gap_cycles as f64).round() as u64
                    }
                })
                .collect();
            SessionItemKind::Dag(DagRequest {
                template,
                arrival_cycles: request.arrival_cycles,
                deadline_cycles: request
                    .arrival_cycles
                    .saturating_add(self.dag_deadline_slack_cycles),
                slo: request.slo,
                stage_gaps,
            })
        } else {
            SessionItemKind::Point(request)
        };
        Some(SessionItem { user, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining();
        (left, Some(left))
    }
}

impl ExactSizeIterator for SessionStream {}
impl std::iter::FusedIterator for SessionStream {}

/// Eagerly collects a whole session — the `collect()` over
/// [`SessionStream`], kept as a convenience for tests and examples.
///
/// # Panics
///
/// Panics on the same invalid configs as [`SessionStream::new`].
#[must_use]
pub fn session_items(config: &SessionConfig) -> Vec<SessionItem> {
    SessionStream::new(config).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{synthetic_trace, SloMix};

    fn mixed_config(requests: usize, seed: u64) -> TrafficConfig {
        TrafficConfig {
            requests,
            models: 4,
            slo_mix: SloMix::Mixed {
                latency_share: 0.25,
                best_effort_share: 0.25,
            },
            seed,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn cascade_chains_each_stage_to_its_predecessor() {
        let t = DagTemplate::cascade("c", &[2, 0, 3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.stages[0].parents, Vec::<usize>::new());
        assert_eq!(t.stages[1].parents, vec![0]);
        assert_eq!(t.stages[2].parents, vec![1]);
        assert_eq!(t.children(), vec![vec![1], vec![2], vec![]]);
    }

    #[test]
    fn fan_out_join_wires_root_branches_and_join() {
        let t = DagTemplate::fan_out_join("f", 0, &[1, 2, 3], 1);
        assert_eq!(t.len(), 5);
        assert_eq!(t.stages[4].parents, vec![1, 2, 3]);
        assert_eq!(t.children()[0], vec![1, 2, 3]);
    }

    #[test]
    fn conversation_gaps_every_turn_but_the_first() {
        let t = DagTemplate::conversation("chat", 1, 3, 9_000);
        assert_eq!(t.stages[0].mean_think_gap_cycles, 0);
        assert_eq!(t.stages[1].mean_think_gap_cycles, 9_000);
        assert_eq!(t.stages[2].parents, vec![1]);
    }

    #[test]
    #[should_panic(expected = "parents must precede")]
    fn forward_parent_edges_are_rejected() {
        let _ = DagTemplate::new(
            "bad",
            vec![DagStage::new(0).with_parents(vec![1]), DagStage::new(1)],
        );
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_templates_are_rejected() {
        let _ = DagTemplate::new("empty", Vec::new());
    }

    #[test]
    fn inheritance_promotes_ancestors_of_a_latency_sensitive_tail() {
        // cascade: S -> S -> LS tail; inheritance lifts both ancestors.
        let t = DagTemplate::new(
            "tail",
            vec![
                DagStage::new(0),
                DagStage::new(1).with_parents(vec![0]),
                DagStage::new(2)
                    .with_parents(vec![1])
                    .with_slo(SloClass::LatencySensitive),
            ],
        );
        let own: Vec<SloClass> = (0..3).map(|i| t.own_class(i, SloClass::Standard)).collect();
        assert_eq!(
            own,
            vec![
                SloClass::Standard,
                SloClass::Standard,
                SloClass::LatencySensitive
            ]
        );
        assert_eq!(
            t.inherited_classes(SloClass::Standard),
            vec![SloClass::LatencySensitive; 3]
        );
    }

    #[test]
    fn inheritance_only_lifts_true_ancestors() {
        // fan-out: root -> {best-effort branch, LS branch} with no join:
        // the root inherits LS, the best-effort sibling does not.
        let t = DagTemplate::new(
            "fan",
            vec![
                DagStage::new(0),
                DagStage::new(1)
                    .with_parents(vec![0])
                    .with_slo(SloClass::BestEffort),
                DagStage::new(2)
                    .with_parents(vec![0])
                    .with_slo(SloClass::LatencySensitive),
            ],
        );
        assert_eq!(
            t.inherited_classes(SloClass::Standard),
            vec![
                SloClass::LatencySensitive,
                SloClass::BestEffort,
                SloClass::LatencySensitive
            ]
        );
    }

    #[test]
    fn disabled_dag_share_yields_the_frozen_trace_byte_for_byte() {
        let traffic = mixed_config(200, 0xD1A6);
        let expected = synthetic_trace(&traffic);
        let config = SessionConfig {
            traffic,
            users: 16,
            dag_share: 0.0,
            templates: standard_templates(4),
            ..SessionConfig::default()
        };
        let items = session_items(&config);
        assert_eq!(items.len(), expected.len());
        for (item, request) in items.iter().zip(&expected) {
            match &item.kind {
                SessionItemKind::Point(p) => assert_eq!(p, request),
                SessionItemKind::Dag(_) => panic!("dag_share 0 must never upgrade"),
            }
        }
    }

    #[test]
    fn enabling_dags_leaves_the_base_draws_untouched() {
        // The satellite invariant: the same population with and without DAG
        // stages enabled sees identical frozen single-request draws — an
        // upgraded item keeps its base request's arrival and class, and
        // every non-upgraded item is byte-identical to the plain trace.
        let traffic = mixed_config(300, 0x005E_5510);
        let expected = synthetic_trace(&traffic);
        let config = SessionConfig {
            traffic,
            users: 32,
            dag_share: 0.5,
            templates: standard_templates(4),
            ..SessionConfig::default()
        };
        let items = session_items(&config);
        assert_eq!(items.len(), expected.len());
        let mut dags = 0;
        for (item, request) in items.iter().zip(&expected) {
            match &item.kind {
                SessionItemKind::Point(p) => assert_eq!(p, request),
                SessionItemKind::Dag(dag) => {
                    dags += 1;
                    assert_eq!(dag.arrival_cycles, request.arrival_cycles);
                    assert_eq!(dag.slo, request.slo);
                    assert_eq!(
                        dag.deadline_cycles,
                        request.arrival_cycles + config.dag_deadline_slack_cycles
                    );
                    assert_eq!(dag.stage_gaps.len(), config.templates[dag.template].len());
                }
            }
        }
        assert!(dags > 50, "a 0.5 share over 300 requests upgrades plenty");
        assert!(dags < 250, "…but not everything");
    }

    #[test]
    fn users_and_upgrades_are_stable_across_think_time_changes() {
        // Think gaps come from a dedicated stream: widening every
        // conversation gap must not change users, upgrade choices or
        // template picks — only the gap values themselves.
        let traffic = mixed_config(150, 0xCAFE);
        let mut slow = standard_templates(4);
        for template in &mut slow {
            for stage in &mut template.stages {
                if stage.mean_think_gap_cycles > 0 {
                    stage.mean_think_gap_cycles *= 10;
                }
            }
        }
        let fast_items = session_items(&SessionConfig {
            traffic,
            users: 8,
            dag_share: 0.4,
            templates: standard_templates(4),
            ..SessionConfig::default()
        });
        let slow_items = session_items(&SessionConfig {
            traffic,
            users: 8,
            dag_share: 0.4,
            templates: slow,
            ..SessionConfig::default()
        });
        for (fast, slow) in fast_items.iter().zip(&slow_items) {
            assert_eq!(fast.user, slow.user);
            match (&fast.kind, &slow.kind) {
                (SessionItemKind::Point(a), SessionItemKind::Point(b)) => assert_eq!(a, b),
                (SessionItemKind::Dag(a), SessionItemKind::Dag(b)) => {
                    assert_eq!(a.template, b.template);
                    assert_eq!(a.arrival_cycles, b.arrival_cycles);
                }
                _ => panic!("upgrade decisions drifted with think-time means"),
            }
        }
    }

    #[test]
    fn zero_mean_gaps_draw_nothing_from_the_think_stream() {
        // Two catalogues sharing a gapped conversation but differing in
        // their *gapless* pipeline (2 vs 3 stages): if gapless stages
        // consumed think draws, the longer pipeline would desynchronise
        // every later conversation's gaps.  They must stay identical.
        let traffic = mixed_config(200, 0x90AB);
        let short_pipe = vec![
            DagTemplate::conversation("chat", 0, 3, 40_000),
            DagTemplate::cascade("pipe", &[1, 2]),
        ];
        let long_pipe = vec![
            DagTemplate::conversation("chat", 0, 3, 40_000),
            DagTemplate::cascade("pipe", &[1, 2, 3]),
        ];
        let a = session_items(&SessionConfig {
            traffic,
            users: 4,
            dag_share: 1.0,
            templates: short_pipe,
            ..SessionConfig::default()
        });
        let b = session_items(&SessionConfig {
            traffic,
            users: 4,
            dag_share: 1.0,
            templates: long_pipe,
            ..SessionConfig::default()
        });
        let mut saw_gap = false;
        for (a, b) in a.iter().zip(&b) {
            let (SessionItemKind::Dag(a), SessionItemKind::Dag(b)) = (&a.kind, &b.kind) else {
                panic!("a full dag_share upgrades every item");
            };
            assert_eq!(a.template, b.template);
            assert_eq!(a.stage_gaps[0], 0, "root stages never gap");
            if a.template == 0 {
                assert_eq!(
                    a.stage_gaps, b.stage_gaps,
                    "gapless stages drew from the think stream"
                );
                saw_gap |= a.stage_gaps.iter().any(|&g| g > 0);
            } else {
                assert!(a.stage_gaps.iter().all(|&g| g == 0));
            }
        }
        assert!(saw_gap, "conversations draw real think gaps");
    }

    #[test]
    fn streaming_matches_the_eager_collector() {
        let config = SessionConfig {
            traffic: mixed_config(100, 0x7777),
            users: 8,
            dag_share: 0.3,
            templates: standard_templates(4),
            ..SessionConfig::default()
        };
        let streamed: Vec<SessionItem> = SessionStream::new(&config).collect();
        assert_eq!(streamed, session_items(&config));
        let mut stream = SessionStream::new(&config);
        assert_eq!(stream.len(), 100);
        stream.next();
        assert_eq!(stream.remaining(), 99);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_are_rejected() {
        let _ = SessionStream::new(&SessionConfig {
            users: 0,
            ..SessionConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "dag_share")]
    fn out_of_range_shares_are_rejected() {
        let _ = SessionStream::new(&SessionConfig {
            dag_share: 1.5,
            ..SessionConfig::default()
        });
    }
}
