//! Deterministic scheduling primitives shared by the serving layers: the
//! dispatch and per-class admission policies, the pre-execution cost model
//! and its one service-time formula, the DAG deadline split, and the
//! offline `form_groups` batching baseline.
//!
//! Everything here is a pure function of its inputs — no wall clock, no
//! thread state — which is what lets the session fan execution out across
//! worker threads while keeping the final report byte-identical to a
//! single-worker run.

use serde::{Deserialize, Serialize};

use workloads::dag::DagTemplate;
use workloads::inputs::{SloClass, TraceRequest};

/// Policy choosing the chip each request group is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Groups go to chips `0, 1, 2, …` cyclically, ignoring load.
    RoundRobin,
    /// Each group goes to the chip that can start it earliest (estimated
    /// free time vs the group's ready time; ties break to the lowest id).
    LeastLoaded,
}

/// Admission-control policy: bound how deep a chip's backlog may grow, per
/// SLO class.
///
/// A group is rejected when its chosen chip's estimated backlog (estimated
/// start time minus the group's ready time) exceeds the cap of the group's
/// class.  Separate caps let a fleet shed best-effort traffic early while
/// still bouncing latency-sensitive work that could no longer meet its SLO
/// anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Backlog cap (cycles) for [`SloClass::Standard`] groups.
    pub max_backlog_cycles: u64,
    /// Backlog cap for [`SloClass::LatencySensitive`] groups — typically
    /// *tighter* than standard: admitting latency-sensitive work into a deep
    /// queue breaks its promise, so bounce it instead.
    pub latency_sensitive_backlog_cycles: u64,
    /// Backlog cap for [`SloClass::BestEffort`] groups — typically looser:
    /// throughput traffic tolerates deep queues.
    pub best_effort_backlog_cycles: u64,
}

impl AdmissionConfig {
    /// One cap for every class (the pre-SLO behaviour).
    #[must_use]
    pub fn uniform(max_backlog_cycles: u64) -> Self {
        Self {
            max_backlog_cycles,
            latency_sensitive_backlog_cycles: max_backlog_cycles,
            best_effort_backlog_cycles: max_backlog_cycles,
        }
    }

    /// The backlog cap applied to a group of the given class.
    #[must_use]
    pub fn cap_for(&self, class: SloClass) -> u64 {
        match class {
            SloClass::BestEffort => self.best_effort_backlog_cycles,
            SloClass::Standard => self.max_backlog_cycles,
            SloClass::LatencySensitive => self.latency_sensitive_backlog_cycles,
        }
    }
}

/// A dynamically-batched group of same-model requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestGroup {
    /// Model index shared by every member.
    pub model: usize,
    /// Indices into the trace, in arrival order.
    pub requests: Vec<usize>,
    /// Arrival of the last member — the group cannot start earlier.
    pub ready_cycles: u64,
    /// Scheduling class of the group: the highest class of any member, so
    /// one latency-sensitive request lifts the whole batch it rides in.
    pub class: SloClass,
}

/// Coalesces **consecutive** same-model requests into batches — the
/// documented offline baseline.
///
/// A group opens at request `i` and absorbs following requests while they
/// target the same model, arrive within `window_cycles` of the group's first
/// arrival, and the group holds fewer than `max_batch` members.  The scan is
/// a pure function of the trace, so batching never depends on execution
/// timing.
///
/// Because the scan only looks at *consecutive* requests, an interleaved
/// trace (`A,B,A,B,…`) never batches at all even when every request lands
/// inside one window.  The online batcher inside
/// [`crate::session::ServeSession`] holds per-model pending queues instead
/// and therefore dominates this scan on batching ratio; `form_groups`
/// survives as the reference baseline that dominance is tested against.
///
/// # Panics
///
/// Panics if `max_batch` is zero.
#[must_use]
pub fn form_groups(
    trace: &[TraceRequest],
    max_batch: usize,
    window_cycles: u64,
) -> Vec<RequestGroup> {
    assert!(max_batch >= 1, "max_batch must be at least 1");
    let mut groups = Vec::new();
    let mut i = 0;
    while i < trace.len() {
        let first = &trace[i];
        let horizon = first.arrival_cycles.saturating_add(window_cycles);
        let mut j = i + 1;
        while j < trace.len()
            && j - i < max_batch
            && trace[j].model == first.model
            && trace[j].arrival_cycles <= horizon
        {
            j += 1;
        }
        groups.push(RequestGroup {
            model: first.model,
            requests: (i..j).collect(),
            ready_cycles: trace[j - 1].arrival_cycles,
            class: trace[i..j].iter().map(|r| r.slo).max().unwrap_or_default(),
        });
        i = j;
    }
    groups
}

/// Service time of one group on one chip: the single switching-cost formula
/// shared by the session's estimated schedule (admission and priority
/// insertion, with *estimated* execution cycles) and its measured timeline
/// (with *measured* ones).  A group of `b` requests streams them back to
/// back through macros already loaded with the model's weights, so it costs
/// one reload (if the chip switches model) plus `b × exec` — batching
/// amortises exactly the reload term.  Virtual time ends at `u64::MAX`, so
/// the cost saturates there.
#[must_use]
pub fn group_service_cycles(
    batch_size: usize,
    exec_cycles: u64,
    reload_cycles: u64,
    switching_model: bool,
) -> u64 {
    let reload = if switching_model { reload_cycles } else { 0 };
    reload.saturating_add((batch_size as u64).saturating_mul(exec_cycles))
}

/// The dispatcher's pre-execution cost model.
///
/// `exec_cycles` comes from the runtime's cost source: the plan's
/// compile-time ideal estimate for a cycle-accurate fleet, or the calibrated
/// analytical backend's predicted cycles when the fleet executes
/// analytically — so admission control and execution share one cost model
/// rather than maintaining duplicated arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Estimated execution cycles for one request replay, per model.
    pub exec_cycles: Vec<u64>,
    /// Weight-reload cycles charged when a chip switches to the model.
    pub reload_cycles: Vec<u64>,
}

/// Splits a whole-DAG deadline into per-stage deadlines, proportionally to
/// each stage's position on its critical path.
///
/// For stage `s` with think gap `gap(s)` and estimated execution
/// `est(s) = cost.exec_cycles[model(s)]`, the critical-path length through
/// `s` is
///
/// ```text
/// L(s) = max over parents p of (L(p) + gap(s)) + est(s)      (roots: est(s))
/// ```
///
/// and the stage's deadline is `arrival + slack · L(s) / L_max`, where
/// `slack = deadline − arrival` and `L_max = max L(s)` — so every tail
/// stage's budget lands exactly on the DAG deadline and upstream stages get
/// budgets in proportion to how much of the critical path they consume.
/// The division runs in `u128`, so huge slacks cannot overflow.  Reload
/// charges are deliberately excluded: they depend on which chip the group
/// lands on, and the split must be a pure function of the template.
///
/// A degenerate all-zero-cost DAG (every `L(s)` = 0) grants every stage the
/// full deadline.
///
/// The budgets replace the contents of `budgets`, one per stage, which also
/// holds the path lengths while they are summed: a caller that keeps the
/// buffer allocates nothing once it has grown to the widest template.
///
/// # Panics
///
/// Panics if `gaps` is not one gap per stage, a parent does not precede its
/// stage, or a stage's model has no cost entry.
pub fn split_dag_deadline(
    template: &DagTemplate,
    gaps: &[u64],
    cost: &CostModel,
    arrival_cycles: u64,
    deadline_cycles: u64,
    budgets: &mut Vec<u64>,
) {
    assert_eq!(gaps.len(), template.stages.len(), "one think gap per stage");
    let slack = deadline_cycles.saturating_sub(arrival_cycles);
    budgets.clear();
    for (i, stage) in template.stages.iter().enumerate() {
        // Parents precede their stage, so their path lengths are in place.
        let upstream = stage
            .parents
            .iter()
            .map(|&p| budgets[p].saturating_add(gaps[i]))
            .max()
            .unwrap_or(0);
        budgets.push(upstream.saturating_add(cost.exec_cycles[stage.model]));
    }
    let longest = budgets.iter().copied().max().unwrap_or(0);
    for budget in budgets.iter_mut() {
        *budget = if longest == 0 {
            deadline_cycles
        } else {
            let share = u128::from(slack) * u128::from(*budget) / u128::from(longest);
            arrival_cycles.saturating_add(share as u64)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(model: usize, arrival: u64) -> TraceRequest {
        TraceRequest {
            model,
            arrival_cycles: arrival,
            deadline_cycles: arrival + 1_000_000,
            slo: SloClass::Standard,
        }
    }

    fn flat_cost(exec: u64, reload: u64, models: usize) -> CostModel {
        CostModel {
            exec_cycles: vec![exec; models],
            reload_cycles: vec![reload; models],
        }
    }

    #[test]
    fn groups_split_on_model_change_window_and_batch_cap() {
        let trace = vec![
            req(0, 0),
            req(0, 10),
            req(0, 10_000), // outside the window -> new group
            req(1, 10_010), // model change -> new group
            req(1, 10_020),
            req(1, 10_030),
            req(1, 10_040), // 4th member but max_batch = 3 -> new group
        ];
        let groups = form_groups(&trace, 3, 1_000);
        let shapes: Vec<(usize, usize)> =
            groups.iter().map(|g| (g.model, g.requests.len())).collect();
        assert_eq!(shapes, [(0, 2), (0, 1), (1, 3), (1, 1)]);
        assert_eq!(groups[0].ready_cycles, 10);
        assert_eq!(groups[2].requests, vec![3, 4, 5]);
    }

    #[test]
    fn window_zero_batches_only_simultaneous_same_model_arrivals() {
        // A zero window still coalesces requests that arrive on the *same*
        // cycle as the group opener; anything later opens a new group.
        let trace = vec![req(0, 5), req(0, 5), req(0, 6), req(1, 6), req(1, 6)];
        let groups = form_groups(&trace, 8, 0);
        let shapes: Vec<(usize, usize)> =
            groups.iter().map(|g| (g.model, g.requests.len())).collect();
        assert_eq!(shapes, [(0, 2), (0, 1), (1, 2)]);
        let total: usize = groups.iter().map(|g| g.requests.len()).sum();
        assert_eq!(total, trace.len(), "window 0 must not drop requests");
    }

    #[test]
    fn max_batch_one_degenerates_to_singleton_groups() {
        let trace: Vec<TraceRequest> = (0..9).map(|i| req(0, i as u64)).collect();
        let groups = form_groups(&trace, 1, u64::MAX);
        assert_eq!(groups.len(), trace.len());
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.requests, vec![i]);
            assert_eq!(g.ready_cycles, trace[i].arrival_cycles);
        }
    }

    #[test]
    fn service_cycles_charge_reload_only_on_model_switch() {
        // One arithmetic source for the estimated and the measured schedule:
        // a model switch adds the incoming model's reload, staying on the
        // loaded model does not.
        assert_eq!(group_service_cycles(1, 100, 400, true), 500);
        assert_eq!(group_service_cycles(1, 100, 900, false), 100);
        assert_eq!(group_service_cycles(3, 250, 700, true), 1_450);
        assert_eq!(group_service_cycles(3, 250, 700, false), 750);
    }

    #[test]
    fn every_request_lands_in_exactly_one_group() {
        let trace: Vec<TraceRequest> = (0..57).map(|i| req(i % 3, i as u64 * 13)).collect();
        let groups = form_groups(&trace, 4, 40);
        let mut seen: Vec<usize> = groups.iter().flat_map(|g| g.requests.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn admission_caps_apply_per_slo_class() {
        // Each class reads its own cap; `uniform` gives every class one cap.
        let admission = AdmissionConfig {
            max_backlog_cycles: 10_000,
            latency_sensitive_backlog_cycles: 500,
            best_effort_backlog_cycles: 1_500,
        };
        let caps = [
            SloClass::LatencySensitive,
            SloClass::Standard,
            SloClass::BestEffort,
        ]
        .map(|class| admission.cap_for(class));
        assert_eq!(caps, [500, 10_000, 1_500]);
        assert_eq!(
            AdmissionConfig::uniform(2_500).cap_for(SloClass::BestEffort),
            2_500
        );
    }

    #[test]
    fn one_latency_sensitive_member_lifts_the_group_class() {
        let mut trace = vec![req(0, 0), req(0, 5), req(0, 9)];
        trace[1].slo = SloClass::LatencySensitive;
        trace[2].slo = SloClass::BestEffort;
        let groups = form_groups(&trace, 8, 1_000);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].class, SloClass::LatencySensitive);
    }

    #[test]
    fn batched_groups_amortise_the_reload() {
        // 4 requests in one group: one reload, 4 executions — where four
        // lone requests, each after a model switch, pay four reloads.
        let trace: Vec<TraceRequest> = (0..4).map(|i| req(0, i)).collect();
        let groups = form_groups(&trace, 8, 1_000);
        assert_eq!(groups.len(), 1);
        let batched = group_service_cycles(groups[0].requests.len(), 200, 1_000, true);
        assert_eq!(batched, 1_000 + 4 * 200);
        assert_eq!(4 * group_service_cycles(1, 200, 1_000, true), 4 * 1_200);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let _ = form_groups(&[], 0, 0);
    }

    #[test]
    fn deadline_split_is_critical_path_proportional() {
        use workloads::dag::DagTemplate;
        // Cascade of 3 equal-cost stages, no gaps: budgets at 1/3, 2/3, 3/3
        // of the slack, with the tail landing exactly on the DAG deadline.
        let template = DagTemplate::cascade("c", &[0, 0, 0]);
        let cost = flat_cost(1_000, 500, 1);
        let mut split = Vec::new();
        split_dag_deadline(&template, &[0, 0, 0], &cost, 10_000, 40_000, &mut split);
        assert_eq!(split, vec![20_000, 30_000, 40_000]);
    }

    #[test]
    fn deadline_split_charges_think_gaps_to_the_path() {
        use workloads::dag::DagTemplate;
        // Two-turn conversation: exec 1000 each, gap 2000 before turn 2.
        // Paths are 1000 and 4000, so turn 1 gets 1/4 of the slack.
        let template = DagTemplate::conversation("chat", 0, 2, 1);
        let cost = flat_cost(1_000, 0, 1);
        let mut split = Vec::new();
        split_dag_deadline(&template, &[0, 2_000], &cost, 0, 8_000, &mut split);
        assert_eq!(split, vec![2_000, 8_000]);
    }

    #[test]
    fn deadline_split_follows_the_longest_parent_into_a_join() {
        use workloads::dag::DagTemplate;
        // Fan-out with unequal branches (500 vs 2000): the join's path runs
        // through the slow branch, and the fast branch keeps a small budget.
        let template = DagTemplate::fan_out_join("f", 0, &[1, 2], 0);
        let cost = CostModel {
            exec_cycles: vec![1_000, 500, 2_000],
            reload_cycles: vec![0, 0, 0],
        };
        let mut split = Vec::new();
        split_dag_deadline(&template, &[0; 4], &cost, 0, 8_000, &mut split);
        // Paths: 1000, 1500, 3000, 4000 -> slack shares 2000/3000/6000/8000.
        assert_eq!(split, vec![2_000, 3_000, 6_000, 8_000]);
    }

    #[test]
    fn zero_cost_dags_grant_every_stage_the_full_deadline() {
        use workloads::dag::DagTemplate;
        let template = DagTemplate::cascade("z", &[0, 0]);
        let cost = flat_cost(0, 0, 1);
        let mut split = Vec::new();
        split_dag_deadline(&template, &[0, 0], &cost, 5, 99, &mut split);
        assert_eq!(split, vec![99, 99]);
    }
}
