//! Statistical chip-level simulator: 16 macro groups × 4 macros executing
//! mapped tasks under a pluggable V-f controller.
//!
//! This is the engine behind every end-to-end experiment (paper Figs. 3, 16,
//! 17, 18, 19, 20, 21 and the §6.6 headline numbers).  Each simulated cycle:
//!
//! 1. every active macro samples its instantaneous toggle rate
//!    `Rtog = HR × flip_fraction` from its task's weight HR and an input
//!    flip-fraction sequence (the statistical view of the input stream,
//!    see [`crate::stream`]);
//! 2. the group's IR-drop is evaluated for its worst macro and checked by the
//!    voltage monitor at the group's current operating point;
//! 3. an `IRFailure` suspends the failing macro's logical set and charges the
//!    recompute penalty (paper Fig. 11);
//! 4. the [`VfController`] — the DVFS baseline here, AIM's IR-Booster in
//!    `aim-core` — picks each group's operating point for the next cycle;
//! 5. energy, droop and progress statistics are accumulated.
//!
//! The controller abstraction keeps this crate free of AIM policy: the chip
//! provides mechanisms (droop, monitoring, stalls, recompute, accounting),
//! the controller provides policy (which V-f pair to run).

use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use ir_model::irdrop::IrDropModel;
use ir_model::power::PowerModel;
use ir_model::process::ProcessParams;
use ir_model::timing::TimingModel;
use ir_model::vf::VfPair;

use crate::backend::{CycleAccurate, ExecutionBackend};
use crate::group::{group_of, GroupId, MacroId, MacroSet, SetId};
use crate::stream::FlipBank;

/// Configuration of a chip simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Electrical/architectural constants of the chip.
    pub params: ProcessParams,
    /// Cycles a failing macro spends re-adjusting V-f and recomputing after
    /// an `IRFailure` (its set mates stall for the same duration).
    pub recompute_penalty_cycles: u64,
    /// Mean of the input flip-fraction distribution.
    pub flip_mean: f64,
    /// Standard deviation of the input flip-fraction distribution.
    pub flip_std: f64,
    /// Length of each macro's flip sequence (wrapped if the run is longer).
    pub flip_sequence_len: usize,
    /// Base random seed; each macro derives its own stream from it.
    pub seed: u64,
    /// Record a trace sample every this many cycles (0 disables tracing).
    pub trace_interval: u64,
    /// Margin (V) below the timing-closure voltage before the monitor raises
    /// `IRFailure`.  Real designs keep setup margin between the sign-off
    /// timing limit and the point where paths actually start failing; small
    /// excursions past a level therefore do not immediately corrupt results.
    pub failure_margin_v: f64,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self {
            params: ProcessParams::dpim_7nm(),
            recompute_penalty_cycles: 6,
            flip_mean: 0.5,
            flip_std: 0.15,
            flip_sequence_len: 1024,
            seed: 0xA1A1,
            trace_interval: 0,
            failure_margin_v: 0.008,
        }
    }
}

/// A task mapped onto one macro.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacroTask {
    /// Human-readable name (operator and slice).
    pub name: String,
    /// Hamming rate of the weights loaded into the macro — the value the
    /// runtime toggle rate is drawn against (Eq. 4: `Rtog ≤ HR`).
    pub weight_hr: f64,
    /// Whether the operator's in-memory data is produced at runtime (QKT/SV
    /// in attention): the controller then cannot rely on an offline HR.
    pub input_determined: bool,
    /// Useful cycles of work the task needs.
    pub cycles: u64,
    /// Logical set this slice belongs to (one set per operator).
    pub set_id: SetId,
}

impl MacroTask {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if `weight_hr` is outside `[0, 1]` or `cycles` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, weight_hr: f64, cycles: u64, set_id: SetId) -> Self {
        assert!(
            (0.0..=1.0).contains(&weight_hr),
            "weight HR must be in [0,1]"
        );
        assert!(cycles > 0, "a task needs at least one cycle of work");
        Self {
            name: name.into(),
            weight_hr,
            input_determined: false,
            cycles,
            set_id,
        }
    }

    /// Marks the task as input-determined (QKT / SV style).
    #[must_use]
    pub fn input_determined(mut self) -> Self {
        self.input_determined = true;
        self
    }
}

/// What the controller learns about one group at the end of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupObservation {
    /// Group identifier.
    pub group: GroupId,
    /// Whether the group's monitor raised `IRFailure` this cycle.
    pub failure: bool,
    /// Whether any macro of the group still has work.
    pub active: bool,
    /// Worst (highest) offline-known weight HR over the group's active
    /// macros; `None` when any active macro runs an input-determined task.
    pub worst_known_hr: Option<f64>,
    /// The operating point the group ran this cycle.
    pub point: VfPair,
}

/// The controller's decision for one group for the next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerDecision {
    /// Operating point to apply.
    pub point: VfPair,
    /// The Rtog level (percent) the point was selected for (bookkeeping).
    pub level_percent: u8,
}

/// Policy hook deciding each group's V-f point every cycle.
pub trait VfController {
    /// Appends one decision per group, in group order, to `out`.
    ///
    /// `out` arrives cleared; the simulator reuses the same buffer every
    /// cycle so implementations must not allocate per call on their hot path.
    fn decide_into(
        &mut self,
        cycle: u64,
        observations: &[GroupObservation],
        out: &mut Vec<ControllerDecision>,
    );

    /// Allocating convenience wrapper around [`Self::decide_into`].
    fn decide(&mut self, cycle: u64, observations: &[GroupObservation]) -> Vec<ControllerDecision> {
        let mut out = Vec::with_capacity(observations.len());
        self.decide_into(cycle, observations, &mut out);
        out
    }

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str {
        "controller"
    }
}

/// The conventional baseline: every group runs a fixed signed-off point
/// (DVFS would move along the signed-off curve between workloads, but within
/// one inference it stays put — exactly what the paper compares against).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticController {
    point: VfPair,
}

impl StaticController {
    /// Runs every group at the chip's nominal operating point.
    #[must_use]
    pub fn nominal(params: &ProcessParams) -> Self {
        Self {
            point: VfPair::new(params.nominal_voltage, params.nominal_frequency_ghz),
        }
    }

    /// Runs every group at an explicit point.
    #[must_use]
    pub fn fixed(point: VfPair) -> Self {
        Self { point }
    }
}

impl VfController for StaticController {
    fn decide_into(
        &mut self,
        _cycle: u64,
        observations: &[GroupObservation],
        out: &mut Vec<ControllerDecision>,
    ) {
        out.extend(observations.iter().map(|_| ControllerDecision {
            point: self.point,
            level_percent: 100,
        }));
    }

    fn name(&self) -> &'static str {
        "static-dvfs"
    }
}

/// One downsampled trace point (for the Fig. 16/17 experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Cycle index of the sample.
    pub cycle: u64,
    /// Per-macro instantaneous toggle rate.
    pub macro_rtog: Vec<f64>,
    /// Per-macro supply voltage.
    pub macro_voltage: Vec<f64>,
    /// Per-macro clock frequency (GHz).
    pub macro_frequency_ghz: Vec<f64>,
    /// Worst droop (mV) across the chip this cycle.
    pub worst_droop_mv: f64,
}

/// Aggregated outcome of one chip simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunReport {
    /// Total simulated cycles until every task finished.
    pub total_cycles: u64,
    /// Macro-cycles spent doing useful work.
    pub useful_macro_cycles: u64,
    /// Macro-cycles lost to stalls caused by set mates recomputing.
    pub stall_macro_cycles: u64,
    /// Macro-cycles lost to V-f adjustment and recomputation.
    pub recompute_macro_cycles: u64,
    /// Macro-cycles spent idle (no task or task finished).
    pub idle_macro_cycles: u64,
    /// Number of IRFailures raised.
    pub failures: u64,
    /// Mean per-macro power over the run (mW), averaged over busy macros.
    pub avg_macro_power_mw: f64,
    /// Worst instantaneous droop observed anywhere (mV).
    pub worst_irdrop_mv: f64,
    /// Mean droop over busy macros and cycles (mV).
    pub mean_irdrop_mv: f64,
    /// Effective chip throughput over the run (TOPS).
    pub effective_tops: f64,
    /// Optional downsampled trace.
    pub trace: Vec<TraceSample>,
    /// Per-macro cycles spent stalled on behalf of a recomputing set mate.
    pub per_macro_stall_cycles: Vec<u64>,
}

impl RunReport {
    /// Per-macro cycles spent stalled because a set mate was recomputing.
    /// Indexed by flat macro id; empty if the run never started.
    pub fn per_macro_stalls(&self) -> &[u64] {
        &self.per_macro_stall_cycles
    }

    /// Fraction of macro-cycles lost to stalls and recomputation.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        let busy = self.useful_macro_cycles + self.stall_macro_cycles + self.recompute_macro_cycles;
        if busy == 0 {
            0.0
        } else {
            (self.stall_macro_cycles + self.recompute_macro_cycles) as f64 / busy as f64
        }
    }
}

/// The seed-independent half of a chip simulator: task mapping, logical
/// sets, group geometry and the electrical models.  Everything here is a
/// pure function of `(ChipConfig minus seed, tasks)`, so one topology is
/// derived once per mapping and shared (via [`Arc`]) across every replay of
/// that mapping — replays only differ in their flip-sequence seed.
#[derive(Debug)]
pub(crate) struct ChipTopology {
    pub(crate) tasks: Vec<Option<MacroTask>>,
    pub(crate) sets: Vec<MacroSet>,
    /// For each macro, the index into `sets` of its task's logical set
    /// (`None` for idle macros).  Replaces the per-failure linear scan over
    /// `sets` in the hot loop.
    pub(crate) set_index: Vec<Option<usize>>,
    /// Flat macro id → group id, precomputed so the hot loop never divides.
    pub(crate) macro_group: Vec<GroupId>,
    pub(crate) irdrop: IrDropModel,
    pub(crate) power: PowerModel,
    pub(crate) timing: TimingModel,
}

impl ChipTopology {
    /// Derives the topology for a task mapping.
    ///
    /// # Panics
    ///
    /// Panics if the task vector length does not match the macro count.
    fn new(config: &ChipConfig, tasks: Vec<Option<MacroTask>>) -> Self {
        let total = config.params.total_macros();
        assert_eq!(tasks.len(), total, "need one task slot per macro ({total})");
        // Derive the logical sets and each macro's set index in one pass:
        // the sorted-deduped id list gives every set its position up front
        // (binary search), so neither the member lists nor `set_index` ever
        // rescan `sets` — the old path was O(sets × macros) twice over.
        let mut set_ids: Vec<SetId> = tasks.iter().flatten().map(|t| t.set_id).collect();
        set_ids.sort_unstable();
        set_ids.dedup();
        let mut members: Vec<Vec<MacroId>> = vec![Vec::new(); set_ids.len()];
        let set_index: Vec<Option<usize>> = tasks
            .iter()
            .enumerate()
            .map(|(m, t)| {
                t.as_ref().map(|t| {
                    let idx = set_ids
                        .binary_search(&t.set_id)
                        .expect("every task's set id was collected above");
                    members[idx].push(m);
                    idx
                })
            })
            .collect();
        let sets: Vec<MacroSet> = set_ids
            .into_iter()
            .zip(members)
            .map(|(sid, mem)| MacroSet::new(sid, mem))
            .collect();
        let mpg = config.params.macros_per_group;
        let macro_group: Vec<GroupId> = (0..total).map(|m| group_of(m, mpg)).collect();
        Self {
            tasks,
            sets,
            set_index,
            macro_group,
            irdrop: IrDropModel::new(config.params),
            power: PowerModel::new(config.params),
            timing: TimingModel::from_process(&config.params),
        }
    }
}

/// Key of one cached flip bank: `(seed, len, mean bits, std bits)`.  The
/// generated bank is a pure function of the key, so cache hits are
/// byte-identical to regeneration by construction.
type BankKey = (u64, usize, u64, u64);

/// How many distinct seeds' flip banks one template retains.  Repeated
/// replays of the same seed (calibration probes, sampled verification,
/// golden replays) hit; one-shot serving offsets stream through without
/// growing the cache beyond this bound.
const FLIP_BANK_CACHE_CAP: usize = 16;

/// The compile-once half of [`ChipSimulator::new`]: a seed-independent
/// [`ChipTopology`] plus the chip configuration, from which
/// [`Self::with_seed`] stamps out simulators for pennies.
///
/// Construction cost splits as: set derivation + electrical models (paid
/// once, here) and the `macros × flip_sequence_len` Box–Muller flip bank
/// (paid per *distinct* seed, behind a bounded cache shared across clones,
/// and only for the rows cycle-accurate runs at that seed read: a bank
/// samples its rows 16 at a time on first read).  A serving runtime
/// replaying one plan thousands of times therefore stops paying
/// construction on its audit/verification path entirely, analytical
/// predictions never touch a bank, and every instantiation stays
/// bit-identical to a from-scratch [`ChipSimulator::new`].
#[derive(Debug, Clone)]
pub struct ChipTemplate {
    config: ChipConfig,
    topology: Arc<ChipTopology>,
    /// Bounded LRU of flip banks, shared across template clones
    /// and the simulators they stamp (a cloned plan keeps hitting the same
    /// cache).
    bank_cache: BankCache,
}

/// Bounded LRU of flip banks: most-recently-used last, capped at
/// [`FLIP_BANK_CACHE_CAP`] entries.
type BankCache = Arc<Mutex<Vec<(BankKey, Arc<FlipBank>)>>>;

impl ChipTemplate {
    /// Builds the template for a task mapping.  `config.seed` is only the
    /// default seed — [`Self::with_seed`] overrides it per instantiation.
    ///
    /// # Panics
    ///
    /// Panics if the task vector length does not match the macro count.
    #[must_use]
    pub fn new(config: ChipConfig, tasks: Vec<Option<MacroTask>>) -> Self {
        let topology = Arc::new(ChipTopology::new(&config, tasks));
        Self {
            config,
            topology,
            bank_cache: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The template's configuration (its `seed` field is the default seed).
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The task mapped on each macro.
    #[must_use]
    pub fn tasks(&self) -> &[Option<MacroTask>] {
        &self.topology.tasks
    }

    /// Instantiates a simulator for `seed` on the shared topology.  It
    /// builds no flip bank: the simulator fetches its seed's bank from this
    /// template's cache on its first cycle-accurate run (generating it on a
    /// miss) and keeps it from then on.  Bit-identical to
    /// `ChipSimulator::new` with the same config and tasks.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> ChipSimulator {
        ChipSimulator {
            config: ChipConfig {
                seed,
                ..self.config.clone()
            },
            topology: Arc::clone(&self.topology),
            bank_cache: Arc::clone(&self.bank_cache),
            flip_bank: OnceLock::new(),
        }
    }

    /// How many seeds' flip banks the template's cache holds (at most
    /// [`FLIP_BANK_CACHE_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the cache.
    #[must_use]
    pub fn cached_banks(&self) -> usize {
        self.bank_cache
            .lock()
            .expect("flip-bank cache poisoned")
            .len()
    }
}

/// The flip bank of `config` (its seed, length and distribution): cached
/// if seen before, created (and cached, evicting the least recently used
/// entry past the bound) otherwise.  A new bank samples no rows, so it is
/// created under the lock; its rows fill on first read, outside it.
fn cached_flip_bank(cache: &BankCache, config: &ChipConfig) -> Arc<FlipBank> {
    let key: BankKey = (
        config.seed,
        config.flip_sequence_len,
        config.flip_mean.to_bits(),
        config.flip_std.to_bits(),
    );
    let mut cache = cache.lock().expect("flip-bank cache poisoned");
    let entry = match cache.iter().position(|(k, _)| *k == key) {
        Some(pos) => cache.remove(pos),
        None => {
            if cache.len() >= FLIP_BANK_CACHE_CAP {
                cache.remove(0);
            }
            let bank = FlipBank::normal(
                config.params.total_macros(),
                config.flip_sequence_len,
                config.flip_mean,
                config.flip_std,
                config.seed,
            );
            (key, Arc::new(bank))
        }
    };
    let bank = Arc::clone(&entry.1);
    cache.push(entry);
    bank
}

/// The chip simulator: geometry, tasks and per-macro runtime state.
///
/// The simulator itself is pure mechanism description (tasks, sets,
/// electrical models); *how* a run is evaluated is the job of an
/// [`ExecutionBackend`](crate::backend::ExecutionBackend) — the per-cycle
/// engine ([`CycleAccurate`]) or the calibrated closed-form fast path
/// ([`crate::backend::AnalyticalBackend`]).  [`Self::run`] keeps the
/// historical cycle-accurate behaviour.
///
/// The seed-independent parts live in a shared [`ChipTemplate`] /
/// [`ChipTopology`]; a simulator is the pairing of one topology with one
/// seed.  Its seed's [`FlipBank`] is fetched from the template's cache on
/// the first cycle-accurate run, the only reader, and kept for later runs;
/// analytical predictions never fetch it.  Cloning is cheap (`Arc` bumps
/// plus the config).
#[derive(Debug, Clone)]
pub struct ChipSimulator {
    pub(crate) config: ChipConfig,
    pub(crate) topology: Arc<ChipTopology>,
    /// The template's bank cache, which [`Self::flip_bank`] reads from.
    bank_cache: BankCache,
    /// This seed's bank, once fetched.
    flip_bank: OnceLock<Arc<FlipBank>>,
}

/// Most frequencies one [`VminMemo`] holds before it starts over.  A
/// controller picks from a small V-f grid, so this bound is only reached by
/// sweeps running many arbitrary fixed points through one session.
const VMIN_MEMO_CAP: usize = 32;

/// `TimingModel::vmin` memoised per frequency for one timing model.
///
/// The monitor threshold of a group is `vmin` of its frequency, an 80-step
/// bisection.  Controllers only ever visit a few grid frequencies, so the
/// memo outlives a run: a session replaying simulators that share a timing
/// model pays each bisection once, not once per group per run.  Keys are
/// the frequency's bits, and the memo empties whenever the timing model
/// changes, so every value is exactly what `timing.vmin` would return.
#[derive(Debug, Clone, Default)]
pub(crate) struct VminMemo {
    timing: TimingModel,
    entries: Vec<(u64, f64)>,
}

impl VminMemo {
    /// Keeps the memo if it was filled for `timing`, else empties it.
    fn retarget(&mut self, timing: &TimingModel) {
        if self.timing != *timing {
            self.timing = *timing;
            self.entries.clear();
        }
    }

    /// `vmin(frequency_ghz)` of the current timing model.
    #[inline]
    pub(crate) fn vmin(&mut self, frequency_ghz: f64) -> f64 {
        let key = frequency_ghz.to_bits();
        if let Some(&(_, v)) = self.entries.iter().find(|(k, _)| *k == key) {
            return v;
        }
        let v = self.timing.vmin(frequency_ghz);
        if self.entries.len() == VMIN_MEMO_CAP {
            self.entries.clear();
        }
        self.entries.push((key, v));
        v
    }
}

/// Reusable per-run state of [`ChipSimulator::run`].
///
/// The seed implementation allocated `rtog`, `busy` and the observation
/// vector afresh every simulated cycle; hoisting them here (plus the per-run
/// progress/penalty vectors and the `vmin` memo) makes the cycle loop
/// allocation-free.  A [`SimSession`] owns one and reuses it across any
/// number of runs, rebuilding it when the chip geometry changes.
#[derive(Debug, Clone)]
pub struct SimScratch {
    pub(crate) rtog: Vec<f64>,
    pub(crate) busy: Vec<bool>,
    pub(crate) remaining: Vec<u64>,
    pub(crate) penalty_until: Vec<u64>,
    pub(crate) stall_until: Vec<u64>,
    pub(crate) points: Vec<VfPair>,
    pub(crate) observations: Vec<GroupObservation>,
    pub(crate) decisions: Vec<ControllerDecision>,
    /// Monitor threshold source; survives [`Self::reset`] while the timing
    /// model stays the same.
    pub(crate) vmin_memo: VminMemo,
    /// Failure effects `(failing macro, penalty deadline)` detected during
    /// the fused activity/droop sweep, applied to `penalty_until` /
    /// `stall_until` only after the sweep.  Deferral keeps the fused kernel
    /// bit-identical to the legacy three-pass loop: stall writes must reach
    /// the progress pass of the *same* cycle but must not be visible to the
    /// activity sampling of later groups in that cycle.
    pub(crate) pending_failures: Vec<(usize, u64)>,
}

impl SimScratch {
    /// Creates scratch state for a chip with the given geometry.
    #[must_use]
    pub(crate) fn new(total_macros: usize, groups: usize) -> Self {
        Self {
            rtog: vec![0.0; total_macros],
            busy: vec![false; total_macros],
            remaining: vec![0; total_macros],
            penalty_until: vec![0; total_macros],
            stall_until: vec![0; total_macros],
            points: vec![VfPair::new(0.0, 0.0); groups],
            observations: Vec::with_capacity(groups),
            decisions: Vec::with_capacity(groups),
            vmin_memo: VminMemo::default(),
            pending_failures: Vec::new(),
        }
    }

    /// Re-initialises the scratch for a fresh run of `sim`.
    pub(crate) fn reset(&mut self, sim: &ChipSimulator) {
        let total = sim.config.params.total_macros();
        let groups = sim.config.params.macro_groups;
        assert_eq!(self.rtog.len(), total, "scratch geometry mismatch (macros)");
        assert_eq!(
            self.points.len(),
            groups,
            "scratch geometry mismatch (groups)"
        );
        self.rtog.fill(0.0);
        self.busy.fill(false);
        for (r, t) in self.remaining.iter_mut().zip(&sim.topology.tasks) {
            *r = t.as_ref().map_or(0, |t| t.cycles);
        }
        self.penalty_until.fill(0);
        self.stall_until.fill(0);
        self.points.fill(VfPair::new(
            sim.config.params.nominal_voltage,
            sim.config.params.nominal_frequency_ghz,
        ));
        self.observations.clear();
        self.decisions.clear();
        self.vmin_memo.retarget(&sim.topology.timing);
        self.pending_failures.clear();
    }
}

/// A reusable simulation session: owns a [`SimScratch`] plus run statistics
/// so a long-lived worker — a serving-runtime chip worker, a sweep, a bench —
/// can run many simulators back to back without reallocating per run.
///
/// The scratch is (re)built lazily on the first run and whenever a simulator
/// with a different chip geometry comes through, so one session can serve a
/// heterogeneous fleet.  Results are bit-identical to [`ChipSimulator::run`]:
/// scratch reuse never leaks state between runs.
#[derive(Debug, Default)]
pub struct SimSession {
    scratch: Option<SimScratch>,
    runs: u64,
    simulated_cycles: u64,
}

impl SimSession {
    /// Creates an empty session; the scratch is allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `sim` to completion (or `max_cycles`) through `backend`, reusing
    /// this session's scratch buffers.  `run_with_backend(&CycleAccurate, ..)`
    /// gives the bytes of [`ChipSimulator::run`]; an analytical backend
    /// ignores the scratch but still counts towards the session's run
    /// statistics (its predicted cycles are accumulated as simulated cycles).
    ///
    /// # Panics
    ///
    /// Panics if the controller returns the wrong number of decisions.
    pub fn run_with_backend(
        &mut self,
        backend: &dyn ExecutionBackend,
        sim: &ChipSimulator,
        controller: &mut dyn VfController,
        max_cycles: u64,
    ) -> RunReport {
        let total = sim.config.params.total_macros();
        let groups = sim.config.params.macro_groups;
        let fits = self
            .scratch
            .as_ref()
            .is_some_and(|s| s.rtog.len() == total && s.points.len() == groups);
        if !fits {
            self.scratch = Some(SimScratch::new(total, groups));
        }
        let scratch = self.scratch.as_mut().expect("scratch ensured above");
        let report = backend.run_with_scratch(sim, controller, max_cycles, scratch);
        self.runs += 1;
        self.simulated_cycles += report.total_cycles;
        report
    }

    /// Number of simulations completed through this session.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total simulated cycles accumulated across all runs.
    #[must_use]
    pub fn simulated_cycles(&self) -> u64 {
        self.simulated_cycles
    }
}

impl ChipSimulator {
    /// Builds a simulator for a task mapping.
    ///
    /// `tasks[m]` is the task mapped onto flat macro `m` (or `None` for an
    /// idle macro); the vector length must equal the chip's macro count.
    ///
    /// # Panics
    ///
    /// Panics if the task vector length does not match the macro count.
    #[must_use]
    pub fn new(config: ChipConfig, tasks: Vec<Option<MacroTask>>) -> Self {
        let seed = config.seed;
        ChipTemplate::new(config, tasks).with_seed(seed)
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The logical sets derived from the mapping.
    #[must_use]
    pub fn sets(&self) -> &[MacroSet] {
        &self.topology.sets
    }

    /// The task mapped on each macro.
    #[must_use]
    pub fn tasks(&self) -> &[Option<MacroTask>] {
        &self.topology.tasks
    }

    /// This seed's flip bank, fetched from the template's cache (and
    /// created there on a miss) on the first call.
    pub(crate) fn flip_bank(&self) -> &FlipBank {
        self.flip_bank
            .get_or_init(|| cached_flip_bank(&self.bank_cache, &self.config))
    }

    /// Worst offline-known HR per group (the HRG of §5.5.1), or `None` for
    /// groups containing an input-determined task or no task at all.
    #[must_use]
    pub fn group_worst_hr(&self) -> Vec<Option<f64>> {
        let mpg = self.config.params.macros_per_group;
        (0..self.config.params.macro_groups)
            .map(|g| {
                let members = (g * mpg)..((g + 1) * mpg);
                let mut worst: Option<f64> = None;
                for m in members {
                    if let Some(task) = &self.topology.tasks[m] {
                        if task.input_determined {
                            return None;
                        }
                        worst = Some(worst.map_or(task.weight_hr, |w: f64| w.max(task.weight_hr)));
                    }
                }
                worst
            })
            .collect()
    }

    /// Runs the simulation until every task completes (or `max_cycles` is
    /// reached), driving the given controller, on the per-cycle engine
    /// ([`CycleAccurate`]) with fresh scratch.  Repeated runs reuse one
    /// scratch through [`SimSession::run_with_backend`].
    ///
    /// # Panics
    ///
    /// Panics if the controller returns the wrong number of decisions.
    pub fn run(&self, controller: &mut dyn VfController, max_cycles: u64) -> RunReport {
        CycleAccurate.run(self, controller, max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_tasks(hr: f64, cycles: u64) -> Vec<Option<MacroTask>> {
        let params = ProcessParams::dpim_7nm();
        (0..params.total_macros())
            .map(|m| Some(MacroTask::new(format!("conv-slice-{m}"), hr, cycles, m % 8)))
            .collect()
    }

    fn config() -> ChipConfig {
        ChipConfig {
            flip_sequence_len: 256,
            ..ChipConfig::default()
        }
    }

    #[test]
    fn nominal_static_controller_never_fails() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.9, 500));
        let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
        let report = sim.run(&mut ctrl, 2_000);
        assert_eq!(
            report.failures, 0,
            "sign-off point must never raise IRFailure"
        );
        assert_eq!(report.stall_macro_cycles, 0);
        assert_eq!(report.recompute_macro_cycles, 0);
        assert_eq!(report.useful_macro_cycles, 500 * 64);
    }

    #[test]
    fn run_finishes_exactly_when_tasks_complete() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.5, 300));
        let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
        let report = sim.run(&mut ctrl, 10_000);
        assert_eq!(report.total_cycles, 300);
        assert!((report.effective_tops - 256.0).abs() < 1e-6);
    }

    #[test]
    fn aggressive_undervolting_causes_failures_and_overhead() {
        let sim = ChipSimulator::new(config(), uniform_tasks(0.9, 400));
        // Run at the minimum voltage while keeping nominal frequency: the
        // droop of a 90 % HR workload violates timing.
        let mut ctrl = StaticController::fixed(VfPair::new(0.60, 1.0));
        let report = sim.run(&mut ctrl, 20_000);
        assert!(
            report.failures > 0,
            "undervolted high-HR workload must fail"
        );
        assert!(report.recompute_macro_cycles > 0);
        assert!(report.total_cycles > 400, "recompute must extend the run");
        assert!(report.overhead_fraction() > 0.0);
    }

    #[test]
    fn low_hr_workload_survives_lower_voltage() {
        let low = ChipSimulator::new(config(), uniform_tasks(0.25, 400));
        let mut ctrl = StaticController::fixed(VfPair::new(0.66, 1.0));
        let report = low.run(&mut ctrl, 20_000);
        assert_eq!(report.failures, 0, "low-HR workload should tolerate 0.66 V");
        // The same point with a high-HR workload fails.
        let high = ChipSimulator::new(config(), uniform_tasks(0.95, 400));
        let mut ctrl = StaticController::fixed(VfPair::new(0.66, 1.0));
        let report_high = high.run(&mut ctrl, 20_000);
        assert!(report_high.failures > 0);
    }

    #[test]
    fn lower_hr_draws_less_power_and_droop() {
        let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
        let high = ChipSimulator::new(config(), uniform_tasks(0.9, 300)).run(&mut ctrl, 5_000);
        let low = ChipSimulator::new(config(), uniform_tasks(0.3, 300)).run(&mut ctrl, 5_000);
        assert!(low.avg_macro_power_mw < high.avg_macro_power_mw);
        assert!(low.mean_irdrop_mv < high.mean_irdrop_mv);
        assert!(low.worst_irdrop_mv < high.worst_irdrop_mv);
    }

    #[test]
    fn group_worst_hr_reflects_mapping() {
        let params = ProcessParams::dpim_7nm();
        let mut tasks: Vec<Option<MacroTask>> = vec![None; params.total_macros()];
        tasks[0] = Some(MacroTask::new("a", 0.3, 100, 0));
        tasks[1] = Some(MacroTask::new("b", 0.45, 100, 0));
        tasks[4] = Some(MacroTask::new("qkt", 0.5, 100, 1).input_determined());
        let sim = ChipSimulator::new(config(), tasks);
        let hrg = sim.group_worst_hr();
        assert_eq!(hrg[0], Some(0.45));
        assert_eq!(hrg[1], None, "input-determined task hides the group HR");
        assert_eq!(hrg[2], None, "empty group has no HR");
    }

    #[test]
    fn trace_is_recorded_at_the_requested_interval() {
        let cfg = ChipConfig {
            trace_interval: 50,
            ..config()
        };
        let sim = ChipSimulator::new(cfg, uniform_tasks(0.5, 200));
        let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
        let report = sim.run(&mut ctrl, 1_000);
        assert_eq!(report.trace.len(), 4);
        assert!(report.trace.iter().all(|s| s.macro_rtog.len() == 64));
    }

    #[test]
    fn idle_macros_accumulate_idle_cycles() {
        let params = ProcessParams::dpim_7nm();
        let mut tasks: Vec<Option<MacroTask>> = vec![None; params.total_macros()];
        tasks[0] = Some(MacroTask::new("only", 0.4, 100, 0));
        let sim = ChipSimulator::new(config(), tasks);
        let mut ctrl = StaticController::nominal(&params);
        let report = sim.run(&mut ctrl, 1_000);
        assert_eq!(report.useful_macro_cycles, 100);
        // The other 63 macros idle for the whole 100-cycle run.
        assert_eq!(report.idle_macro_cycles, 63 * 100);
        assert!(report.effective_tops < 256.0 / 32.0);
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_runs() {
        let params = ProcessParams::dpim_7nm();
        let sim_a = ChipSimulator::new(config(), uniform_tasks(0.9, 300));
        let sim_b = ChipSimulator::new(config(), uniform_tasks(0.3, 250));
        let mut session = SimSession::new();
        // Interleave two different simulators through one session and compare
        // against fresh per-run scratch.
        for sim in [&sim_a, &sim_b, &sim_a] {
            let mut ctrl = StaticController::nominal(&params);
            let via_session = session.run_with_backend(&CycleAccurate, sim, &mut ctrl, 5_000);
            let mut ctrl = StaticController::nominal(&params);
            let fresh = sim.run(&mut ctrl, 5_000);
            assert_eq!(via_session, fresh);
        }
        assert_eq!(session.runs(), 3);
        assert_eq!(session.simulated_cycles(), 300 + 250 + 300);
    }

    #[test]
    fn session_vmin_memo_does_not_leak_across_timing_models() {
        // Same geometry, different timing model: only the cells' threshold
        // voltage differs, so droop and power agree and the chips differ
        // only through the monitor threshold `vmin(f)` off the nominal
        // frequency.
        let params_a = ProcessParams::dpim_7nm();
        let params_b = ProcessParams {
            threshold_voltage: params_a.threshold_voltage + 0.05,
            ..params_a
        };
        assert_ne!(
            TimingModel::from_process(&params_a),
            TimingModel::from_process(&params_b)
        );
        let sim_a = ChipSimulator::new(config(), uniform_tasks(0.6, 300));
        let sim_b = ChipSimulator::new(
            ChipConfig {
                params: params_b,
                ..config()
            },
            uniform_tasks(0.6, 300),
        );
        let point = VfPair::new(0.66, 1.2);
        let fresh_a = sim_a.run(&mut StaticController::fixed(point), 20_000);
        let fresh_b = sim_b.run(&mut StaticController::fixed(point), 20_000);
        assert_ne!(
            fresh_a.failures, fresh_b.failures,
            "the two timing models must disagree on failures at this point"
        );
        let mut session = SimSession::new();
        for (sim, fresh) in [(&sim_a, &fresh_a), (&sim_b, &fresh_b), (&sim_a, &fresh_a)] {
            let via_session = session.run_with_backend(
                &CycleAccurate,
                sim,
                &mut StaticController::fixed(point),
                20_000,
            );
            assert_eq!(&via_session, fresh);
        }
    }

    #[test]
    fn session_rebuilds_scratch_on_geometry_change() {
        // The single-macro APIM design has a different geometry than the
        // 64-macro DPIM chip; one session must serve both.
        let small = ProcessParams::apim_28nm();
        let tasks: Vec<Option<MacroTask>> = (0..small.total_macros())
            .map(|m| Some(MacroTask::new(format!("t{m}"), 0.4, 50, 0)))
            .collect();
        let sim_small = ChipSimulator::new(
            ChipConfig {
                params: small,
                ..config()
            },
            tasks,
        );
        let sim_big = ChipSimulator::new(config(), uniform_tasks(0.5, 50));
        let mut session = SimSession::new();
        let mut ctrl = StaticController::nominal(&ProcessParams::dpim_7nm());
        let big = session.run_with_backend(&CycleAccurate, &sim_big, &mut ctrl, 1_000);
        let mut ctrl_small = StaticController::nominal(&small);
        let little = session.run_with_backend(&CycleAccurate, &sim_small, &mut ctrl_small, 1_000);
        assert_eq!(big.total_cycles, 50);
        assert_eq!(little.total_cycles, 50);
        assert_eq!(session.runs(), 2);
    }

    #[test]
    #[should_panic(expected = "one task slot per macro")]
    fn wrong_task_vector_length_is_rejected() {
        let _ = ChipSimulator::new(config(), vec![None; 3]);
    }

    #[test]
    #[should_panic(expected = "weight HR must be in")]
    fn invalid_task_hr_is_rejected() {
        let _ = MacroTask::new("x", 1.5, 10, 0);
    }
}
