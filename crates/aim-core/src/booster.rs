//! IR-Booster: software-guided dynamic V-f pair adjustment (paper §5.5).
//!
//! IR-Booster exploits the gap between the sign-off worst case (`Rtog=100 %`)
//! and the much lower toggle rates real workloads produce.  For every macro
//! group it keeps:
//!
//! * a **safe level** — the Rtog level guaranteed by the worst offline weight
//!   HR of the group (`HRG`), rounded up to the next 5 %; groups hosting
//!   input-determined operators (QKᵀ / SV) or HRG > 60 % fall back to the
//!   100 % (DVFS) level;
//! * an **aggressive level** (`a-level`) — a more daring level initialised
//!   from the safe level via the paper's Table 1 and adapted at runtime by
//!   Algorithm 2: too-frequent `IRFailure`s walk it back towards the safe
//!   level, long failure-free stretches push it further.
//!
//! The selected level plus the operating mode (sprint / low-power) pick a
//! concrete V-f pair from the [`ir_model::vf::VfTable`]; macros cooperating
//! on one operator (a logical set) are kept at a common frequency.

use serde::{Deserialize, Serialize};

use ir_model::process::ProcessParams;
use ir_model::vf::{LevelPercent, OperatingMode, VfTable};
use pim_sim::chip::{ChipSimulator, ControllerDecision, GroupObservation, VfController};
use pim_sim::group::GroupId;

/// Configuration of the IR-Booster controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoosterConfig {
    /// The `β` window of Algorithm 2 (cycles).  Smaller values adjust more
    /// eagerly: better mitigation, more IRFailures (paper Fig. 18).
    pub beta: u64,
    /// Operating mode used when picking a pair inside a level.
    pub mode: OperatingMode,
    /// Whether the aggressive-level state machine is enabled; disabling it
    /// keeps every group at its safe level (the "safe-level only"
    /// configuration used as the normalisation baseline in Fig. 18).
    pub aggressive: bool,
}

impl BoosterConfig {
    /// The paper's reference configuration: `β = 50`, sprint mode.
    #[must_use]
    pub const fn sprint() -> Self {
        Self {
            beta: 50,
            mode: OperatingMode::Sprint,
            aggressive: true,
        }
    }

    /// The paper's low-power configuration: `β = 50`, low-power mode.
    #[must_use]
    pub const fn low_power() -> Self {
        Self {
            beta: 50,
            mode: OperatingMode::LowPower,
            aggressive: true,
        }
    }

    /// Safe-level-only operation (no aggressive adjustment).
    #[must_use]
    pub const fn safe_only(mode: OperatingMode) -> Self {
        Self {
            beta: 50,
            mode,
            aggressive: false,
        }
    }

    /// Overrides `β`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is zero.
    #[must_use]
    pub fn with_beta(mut self, beta: u64) -> Self {
        assert!(beta > 0, "beta must be positive");
        self.beta = beta;
        self
    }
}

/// Initial aggressive level for a given safe level (paper Table 1).
#[must_use]
pub fn initial_aggressive_level(safe_level: LevelPercent) -> LevelPercent {
    match safe_level {
        l if l >= 100 => 60,
        l if l >= 60 => 40,
        55 => 35,
        50 => 35,
        45 => 35,
        40 => 30,
        35 => 30,
        30 => 25,
        25 => 20,
        _ => 20,
    }
}

/// Selects the safe level for a group from its worst offline HR (§5.5.1).
///
/// `None` (input-determined operators present, or an idle group) maps to the
/// 100 % DVFS level.
#[must_use]
pub fn safe_level_for_group(table: &VfTable, worst_hr: Option<f64>) -> LevelPercent {
    match worst_hr {
        Some(hr) => table.level_for_rtog(hr),
        None => 100,
    }
}

/// Per-group runtime state of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct GroupBoostState {
    safe_level: LevelPercent,
    a_level: LevelPercent,
    level: LevelPercent,
    safe_counter: u64,
}

impl GroupBoostState {
    fn new(safe_level: LevelPercent, aggressive: bool) -> Self {
        let a_level = if aggressive {
            initial_aggressive_level(safe_level)
        } else {
            safe_level
        };
        Self {
            safe_level,
            a_level,
            level: a_level,
            safe_counter: 0,
        }
    }
}

/// The IR-Booster V-f controller (implements [`VfController`]).
#[derive(Debug, Clone)]
pub struct IrBoosterController {
    config: BoosterConfig,
    table: VfTable,
    states: Vec<GroupBoostState>,
    /// Which groups host members of which logical set (for frequency sync).
    set_groups: Vec<Vec<GroupId>>,
    /// Running count of IRFailures handled (for reports/tests).
    failures_seen: u64,
    /// The decisions for the current levels.  With the table, mode and set
    /// topology fixed they are a pure function of the levels, so they are
    /// reselected only on a cycle that changed some group's level.
    decisions: Vec<ControllerDecision>,
    /// Some group's level changed since `decisions` was last selected.
    levels_changed: bool,
    /// Per-group set-synchronisation frequency cap (selection scratch).
    freq_cap: Vec<f64>,
}

impl IrBoosterController {
    /// Level step used when walking the aggressive level up or down.
    pub const LEVEL_STEP: LevelPercent = 5;
    /// Most aggressive level the controller will ever use.
    pub const MIN_LEVEL: LevelPercent = 20;

    /// Builds a controller for a chip simulation: safe levels come from the
    /// mapping's per-group worst HR, set topology from the mapping's sets.
    #[must_use]
    pub fn for_simulator(sim: &ChipSimulator, config: BoosterConfig) -> Self {
        let params = &sim.config().params;
        let table = VfTable::derive_default(params);
        let safe_levels: Vec<LevelPercent> = sim
            .group_worst_hr()
            .iter()
            .map(|hr| safe_level_for_group(&table, *hr))
            .collect();
        let mpg = params.macros_per_group;
        let set_groups = sim.sets().iter().map(|s| s.groups(mpg)).collect();
        Self::with_table(table, config, &safe_levels, set_groups)
    }

    /// Builds a controller from explicit safe levels and set topology.
    #[must_use]
    pub fn new(
        params: &ProcessParams,
        config: BoosterConfig,
        group_safe_levels: &[LevelPercent],
        set_groups: Vec<Vec<GroupId>>,
    ) -> Self {
        Self::with_table(
            VfTable::derive_default(params),
            config,
            group_safe_levels,
            set_groups,
        )
    }

    /// [`Self::new`] around an already derived table.
    fn with_table(
        table: VfTable,
        config: BoosterConfig,
        group_safe_levels: &[LevelPercent],
        set_groups: Vec<Vec<GroupId>>,
    ) -> Self {
        let states: Vec<GroupBoostState> = group_safe_levels
            .iter()
            .map(|&lvl| GroupBoostState::new(lvl, config.aggressive))
            .collect();
        let groups = states.len();
        Self {
            config,
            table,
            states,
            set_groups,
            failures_seen: 0,
            decisions: Vec::with_capacity(groups),
            levels_changed: true,
            freq_cap: vec![f64::INFINITY; groups],
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &BoosterConfig {
        &self.config
    }

    /// Safe level of each group.
    #[must_use]
    pub fn safe_levels(&self) -> Vec<LevelPercent> {
        self.states.iter().map(|s| s.safe_level).collect()
    }

    /// Current level of each group.
    #[must_use]
    pub fn current_levels(&self) -> Vec<LevelPercent> {
        self.states.iter().map(|s| s.level).collect()
    }

    /// Total IRFailures the controller has reacted to.
    #[must_use]
    pub fn failures_seen(&self) -> u64 {
        self.failures_seen
    }

    /// The V-f table the controller selects pairs from.
    #[must_use]
    pub fn table(&self) -> &VfTable {
        &self.table
    }

    fn level_down(&self, state: &GroupBoostState) -> LevelPercent {
        // "Down" = less aggressive = towards the safe level.
        state
            .a_level
            .saturating_add(Self::LEVEL_STEP)
            .min(state.safe_level)
    }

    fn level_up(&self, state: &GroupBoostState) -> LevelPercent {
        // "Up" = more aggressive = lower Rtog assumption, bounded below.
        state
            .a_level
            .saturating_sub(Self::LEVEL_STEP)
            .max(Self::MIN_LEVEL)
    }

    /// Applies Algorithm 2 to one group for one cycle.
    fn step_group(&mut self, g: usize, failure: bool) {
        let beta = self.config.beta;
        let mut st = self.states[g];
        if !self.config.aggressive {
            st.level = st.safe_level;
        } else if failure {
            self.failures_seen += 1;
            st.level = st.safe_level;
            if st.safe_counter < beta / 5 {
                // Failures arriving faster than 0.2β apart: back off.
                st.a_level = self.level_down(&st);
            }
            st.safe_counter = 0;
        } else {
            st.safe_counter += 1;
            if st.safe_counter == beta {
                st.level = st.a_level;
            }
            if st.safe_counter > 2 * beta {
                st.a_level = self.level_up(&st);
                st.level = st.a_level;
                st.safe_counter = beta;
            }
        }
        self.levels_changed |= st.level != self.states[g].level;
        self.states[g] = st;
    }

    /// Selects the concrete pair for each group's level into `decisions`,
    /// honouring the set frequency constraint: every group hosting members
    /// of one logical set must run the same frequency, so each group is
    /// capped at the minimum frequency its sets can reach.
    fn select_points(&mut self) {
        let table = &self.table;
        let mode = self.config.mode;
        // Preferred pair per group from its level and the operating mode.
        self.decisions.clear();
        self.decisions.extend(self.states.iter().map(|s| {
            ControllerDecision {
                point: table
                    .select(s.level, mode)
                    .expect("every level has at least the sign-off pair"),
                level_percent: s.level,
            }
        }));
        // Frequency cap per group = min preferred frequency over each set
        // that spans it.
        self.freq_cap.fill(f64::INFINITY);
        for set in &self.set_groups {
            let min_f = set
                .iter()
                .map(|&g| self.decisions[g].point.frequency_ghz)
                .fold(f64::INFINITY, f64::min);
            for &g in set {
                self.freq_cap[g] = self.freq_cap[g].min(min_f);
            }
        }
        for (d, &cap) in self.decisions.iter_mut().zip(&self.freq_cap) {
            if cap.is_finite() && d.point.frequency_ghz > cap + 1e-12 {
                // Re-select among the level's pairs at the capped frequency:
                // lowest voltage that still reaches the cap.
                let pairs = table.pairs_for_level(d.level_percent);
                let candidate = pairs
                    .iter()
                    .filter(|p| p.frequency_ghz <= cap + 1e-12)
                    .max_by(|a, b| {
                        a.frequency_ghz
                            .partial_cmp(&b.frequency_ghz)
                            .unwrap()
                            .then(b.voltage.partial_cmp(&a.voltage).unwrap())
                    });
                if let Some(p) = candidate {
                    d.point = *p;
                }
            }
        }
    }
}

impl VfController for IrBoosterController {
    fn decide_into(
        &mut self,
        _cycle: u64,
        observations: &[GroupObservation],
        out: &mut Vec<ControllerDecision>,
    ) {
        assert_eq!(
            observations.len(),
            self.states.len(),
            "group count mismatch"
        );
        for obs in observations {
            self.step_group(obs.group, obs.failure);
        }
        if self.levels_changed {
            self.select_points();
            self.levels_changed = false;
        }
        out.extend_from_slice(&self.decisions);
    }

    fn name(&self) -> &'static str {
        "ir-booster"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_model::vf::VfPair;
    use pim_sim::chip::{ChipConfig, MacroTask};

    fn params() -> ProcessParams {
        ProcessParams::dpim_7nm()
    }

    fn controller_with_safe(safe: LevelPercent, config: BoosterConfig) -> IrBoosterController {
        IrBoosterController::new(&params(), config, &[safe], vec![])
    }

    #[test]
    fn table1_initial_aggressive_levels() {
        assert_eq!(initial_aggressive_level(100), 60);
        assert_eq!(initial_aggressive_level(60), 40);
        assert_eq!(initial_aggressive_level(55), 35);
        assert_eq!(initial_aggressive_level(50), 35);
        assert_eq!(initial_aggressive_level(45), 35);
        assert_eq!(initial_aggressive_level(40), 30);
        assert_eq!(initial_aggressive_level(35), 30);
        assert_eq!(initial_aggressive_level(30), 25);
        assert_eq!(initial_aggressive_level(25), 20);
        assert_eq!(initial_aggressive_level(20), 20);
    }

    #[test]
    fn safe_level_selection_rounds_up_and_falls_back_to_dvfs() {
        let table = VfTable::derive_default(&params());
        assert_eq!(safe_level_for_group(&table, Some(0.475)), 50);
        assert_eq!(safe_level_for_group(&table, Some(0.30)), 30);
        assert_eq!(safe_level_for_group(&table, Some(0.65)), 100);
        assert_eq!(safe_level_for_group(&table, None), 100);
    }

    #[test]
    fn booster_starts_at_the_initial_aggressive_level() {
        let c = controller_with_safe(50, BoosterConfig::sprint());
        assert_eq!(c.current_levels(), vec![35]);
        assert_eq!(c.safe_levels(), vec![50]);
    }

    #[test]
    fn safe_only_configuration_never_leaves_the_safe_level() {
        let mut c = controller_with_safe(50, BoosterConfig::safe_only(OperatingMode::Sprint));
        for cycle in 0..500 {
            let obs = GroupObservation {
                group: 0,
                failure: cycle == 100,
                active: true,
                worst_known_hr: Some(0.47),
                point: VfPair::new(0.75, 1.0),
            };
            c.decide(cycle, &[obs]);
            assert_eq!(c.current_levels(), vec![50]);
        }
    }

    #[test]
    fn failure_reverts_to_safe_level_and_rapid_failures_back_off() {
        let mut c = controller_with_safe(50, BoosterConfig::sprint().with_beta(50));
        let obs = |failure| GroupObservation {
            group: 0,
            failure,
            active: true,
            worst_known_hr: Some(0.47),
            point: VfPair::new(0.75, 1.0),
        };
        // First failure: back to the safe level; a-level unchanged because
        // the counter had not yet proven the level unstable... (counter = 0 <
        // 0.2β, so it also backs off by one step).
        c.decide(0, &[obs(true)]);
        assert_eq!(c.current_levels(), vec![50]);
        let a_after_first = c.states[0].a_level;
        assert_eq!(
            a_after_first, 40,
            "a-level backs off from 35 towards the safe level"
        );
        // A second immediate failure backs off again, clamped at safe level.
        c.decide(1, &[obs(true)]);
        assert_eq!(c.states[0].a_level, 45);
        c.decide(2, &[obs(true)]);
        c.decide(3, &[obs(true)]);
        assert_eq!(
            c.states[0].a_level, 50,
            "a-level never regresses past the safe level"
        );
    }

    #[test]
    fn long_failure_free_stretch_raises_the_aggressive_level() {
        let beta = 20;
        let mut c = controller_with_safe(50, BoosterConfig::sprint().with_beta(beta));
        let obs = GroupObservation {
            group: 0,
            failure: false,
            active: true,
            worst_known_hr: Some(0.47),
            point: VfPair::new(0.75, 1.0),
        };
        // After β failure-free cycles the group returns to its a-level, and
        // after 2β more it becomes one step more aggressive.
        for cycle in 0..(5 * beta) {
            c.decide(cycle, &[obs]);
        }
        assert!(
            c.states[0].a_level < 35,
            "a-level should have become more aggressive"
        );
        assert!(c.states[0].a_level >= IrBoosterController::MIN_LEVEL);
    }

    #[test]
    fn aggressive_level_is_bounded_at_min_level() {
        let beta = 5;
        let mut c = controller_with_safe(20, BoosterConfig::sprint().with_beta(beta));
        let obs = GroupObservation {
            group: 0,
            failure: false,
            active: true,
            worst_known_hr: Some(0.18),
            point: VfPair::new(0.75, 1.0),
        };
        for cycle in 0..1000 {
            c.decide(cycle, &[obs]);
        }
        assert_eq!(c.states[0].a_level, IrBoosterController::MIN_LEVEL);
    }

    #[test]
    fn sprint_mode_runs_faster_than_low_power_mode() {
        let mut sprint = controller_with_safe(30, BoosterConfig::sprint());
        let mut low = controller_with_safe(30, BoosterConfig::low_power());
        let obs = GroupObservation {
            group: 0,
            failure: false,
            active: true,
            worst_known_hr: Some(0.28),
            point: VfPair::new(0.75, 1.0),
        };
        let d_sprint = sprint.decide(0, &[obs]);
        let d_low = low.decide(0, &[obs]);
        assert!(d_sprint[0].point.frequency_ghz >= d_low[0].point.frequency_ghz);
        assert!(d_low[0].point.voltage <= d_sprint[0].point.voltage);
        // Both exploit the margin relative to the sign-off point.
        assert!(
            d_sprint[0].point.frequency_ghz > 1.0 || d_low[0].point.voltage < 0.75,
            "the booster must exploit the architecture-level margin"
        );
    }

    #[test]
    fn set_frequency_synchronisation_caps_faster_groups() {
        // Two groups host one set; group 0 is aggressive (low level), group 1
        // conservative (100 %).  Group 0 must not run faster than group 1.
        let params = params();
        let config = BoosterConfig::sprint();
        let mut c = IrBoosterController::new(&params, config, &[20, 100], vec![vec![0, 1]]);
        let obs = |g| GroupObservation {
            group: g,
            failure: false,
            active: true,
            worst_known_hr: None,
            point: VfPair::new(0.75, 1.0),
        };
        let decisions = c.decide(0, &[obs(0), obs(1)]);
        assert!(
            decisions[0].point.frequency_ghz <= decisions[1].point.frequency_ghz + 1e-12,
            "set members must share a frequency ceiling"
        );
    }

    #[test]
    fn booster_for_simulator_reads_mapping_hr() {
        let params = params();
        let mut tasks: Vec<Option<MacroTask>> = vec![None; params.total_macros()];
        tasks[0] = Some(MacroTask::new("conv", 0.27, 100, 0));
        tasks[4] = Some(MacroTask::new("qkt", 0.5, 100, 1).input_determined());
        let sim = ChipSimulator::new(ChipConfig::default(), tasks);
        let c = IrBoosterController::for_simulator(&sim, BoosterConfig::sprint());
        let safe = c.safe_levels();
        assert_eq!(
            safe[0], 30,
            "group 0 gets its safe level from the 27 % HR task"
        );
        assert_eq!(safe[1], 100, "input-determined group falls back to DVFS");
        assert_eq!(safe[2], 100, "idle group defaults to DVFS");
    }

    #[test]
    fn booster_reduces_irdrop_and_power_on_the_chip_simulator() {
        // End-to-end sanity: a low-HR workload run under the booster sees
        // lower droop and power than under the static sign-off controller,
        // without losing throughput to failures.
        let params = params();
        let tasks: Vec<Option<MacroTask>> = (0..params.total_macros())
            .map(|m| Some(MacroTask::new(format!("conv-{m}"), 0.30, 400, m % 8)))
            .collect();
        let cfg = ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        };
        let sim = ChipSimulator::new(cfg, tasks);

        let mut static_ctrl = pim_sim::chip::StaticController::nominal(&params);
        let baseline = sim.run(&mut static_ctrl, 20_000);

        let mut booster = IrBoosterController::for_simulator(&sim, BoosterConfig::low_power());
        let boosted = sim.run(&mut booster, 20_000);

        assert!(boosted.avg_macro_power_mw < baseline.avg_macro_power_mw * 0.8);
        assert!(boosted.worst_irdrop_mv < baseline.worst_irdrop_mv);
        assert!(boosted.effective_tops > baseline.effective_tops * 0.9);
    }

    /// Reference decision path: steps every group, then reselects every
    /// group's pair, whether or not any level changed.
    fn decide_reselecting(
        c: &mut IrBoosterController,
        observations: &[GroupObservation],
    ) -> Vec<ControllerDecision> {
        for obs in observations {
            c.step_group(obs.group, obs.failure);
        }
        c.select_points();
        c.decisions.clone()
    }

    #[test]
    fn reused_decisions_match_reselecting_every_cycle() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let params = params();
        let groups = params.macro_groups;
        let levels: Vec<LevelPercent> = VfTable::derive_default(&params).levels().to_vec();
        // No sets, a few overlapping multi-group sets, adjacent pairs, and
        // one set spanning the whole chip.
        let topologies: Vec<Vec<Vec<GroupId>>> = vec![
            vec![],
            vec![vec![0, 1], vec![1, 2, 3], vec![4, 9, 15], vec![7, 8]],
            (0..groups / 2).map(|i| vec![2 * i, 2 * i + 1]).collect(),
            vec![(0..groups).collect()],
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0xB005_7E12);
        let (mut cycles, mut reused_cycles, mut capped_decisions) = (0u64, 0u64, 0u64);
        for mode in [OperatingMode::Sprint, OperatingMode::LowPower] {
            for aggressive in [true, false] {
                for beta in [1, 7, 50] {
                    for sets in &topologies {
                        let safe: Vec<LevelPercent> = (0..groups)
                            .map(|_| levels[rng.gen_range(0..levels.len())])
                            .collect();
                        let config = BoosterConfig {
                            beta,
                            mode,
                            aggressive,
                        };
                        let mut reusing =
                            IrBoosterController::new(&params, config, &safe, sets.clone());
                        let mut reference = reusing.clone();
                        let failure_rate = [0.0, 0.002, 0.03, 0.3][rng.gen_range(0..4)];
                        for cycle in 0..300 {
                            let observations: Vec<GroupObservation> = (0..groups)
                                .map(|group| GroupObservation {
                                    group,
                                    failure: rng.gen_bool(failure_rate),
                                    active: true,
                                    worst_known_hr: None,
                                    point: VfPair::new(0.75, 1.0),
                                })
                                .collect();
                            let before = reusing.current_levels();
                            let got = reusing.decide(cycle, &observations);
                            let want = decide_reselecting(&mut reference, &observations);
                            assert_eq!(
                                got, want,
                                "{config:?}, sets {sets:?}, cycle {cycle}: reused decisions \
                                 differ from reselected ones"
                            );
                            cycles += 1;
                            if cycle > 0 && before == reusing.current_levels() {
                                reused_cycles += 1;
                            }
                            capped_decisions += want
                                .iter()
                                .filter(|d| {
                                    d.point != reusing.table.select(d.level_percent, mode).unwrap()
                                })
                                .count() as u64;
                        }
                    }
                }
            }
        }
        assert!(
            reused_cycles > cycles / 2,
            "most cycles must take the reuse path ({reused_cycles} of {cycles})"
        );
        assert!(
            capped_decisions > 0,
            "some set must have capped a group's frequency"
        );
    }
}
