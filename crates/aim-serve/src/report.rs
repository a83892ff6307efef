//! The serializable outcome of one serving run: request accounting, latency
//! percentiles, per-chip and per-SLO-class splits, chip-level electrical
//! aggregates — plus the incremental [`ReportAccumulator`] the event-driven
//! session feeds group by group (and [`ReportAccumulator::merge`]s across
//! sharded sessions) before freezing a [`ServeReport`].
//!
//! The accumulator is **bounded**: latency distributions live in a
//! bounded [`LatencySketch`] and the electrical/verification folds keep
//! integer running aggregates, so absorbing ten requests and absorbing ten
//! million cost the same memory.  All aggregate state is associative and
//! order-free (integer sums, maxima, element-wise bucket adds), which is
//! what makes [`ReportAccumulator::merge`] byte-stable across shard
//! groupings.
//!
//! Each request is recorded once, in its SLO class's row; the overall
//! totals and latency sketch are the sums of the three rows, formed in
//! [`ReportAccumulator::finish`].  The fleet, router and DAG layers keep no
//! ledger of their own either: [`DagServeStats`] and the availability
//! reports are folded at drain from the state those layers already hold.

use serde::{Deserialize, Serialize};

use aim_core::pipeline::PlanExecution;
use workloads::inputs::SloClass;

/// Drift statistics of the sampled-verification mode: every Nth request
/// group executed on an analytical chip is additionally replayed through the
/// cycle-accurate engine, and the relative cycle-count drift between the two
/// backends is recorded here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerificationStats {
    /// Number of groups replayed cycle-accurately for verification.
    pub sampled: usize,
    /// Mean relative cycle drift `|analytical - accurate| / accurate` over
    /// the sampled groups (0 when nothing was sampled).  Accumulated in
    /// fixed point (parts per 10^12), so the mean is quantized to 1e-12 —
    /// far below any calibrated bound — in exchange for an order-free sum.
    pub mean_cycle_drift: f64,
    /// Worst relative cycle drift observed.
    pub max_cycle_drift: f64,
    /// The fleet's error bound: the worst self-reported calibration bound
    /// over the served analytical plans.
    pub error_bound: f64,
    /// Whether drift was actually measured (`sampled > 0`) *and* every
    /// observed drift stayed within its own plan's calibrated bound
    /// (stricter than comparing against the fleet-wide `error_bound` when
    /// plans carry different bounds).  `false` with `sampled == 0` means no
    /// analytical group got verified — never treat that as a pass.
    pub within_bound: bool,
}

/// Activity of the online calibration loop
/// ([`ServeConfig::calibration`]): drift samples folded into the per-model
/// EWMAs, recalibrations applied at virtual-time boundaries, and the
/// demotion/promotion traffic between the analytical fast path and
/// cycle-accurate execution.  Counters merge counter-for-counter across
/// shards; the EWMA figure folds through `max` (the worst shard's
/// excursion).
///
/// [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationStats {
    /// Drift samples folded into the loop (verification replays, audit-chip
    /// replays, demoted-model executions).
    pub samples: u64,
    /// Recalibrations applied (per model, per boundary with fresh samples).
    pub recalibrations: u64,
    /// Models demoted to cycle-accurate execution (counting repeats).
    pub demotions: u64,
    /// Demoted models promoted back to the analytical fast path.
    pub promotions: u64,
    /// Worst absolute EWMA drift observed by any model on any shard.
    pub max_abs_ewma_drift: f64,
    /// Per-model loop state, indexed by model id.
    pub per_model: Vec<ModelCalibration>,
}

/// One model's row in [`CalibrationStats`]: its drift history against its
/// own calibrated bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelCalibration {
    /// Model id the row describes.
    pub model: usize,
    /// Drift samples the model's EWMA absorbed.
    pub samples: u64,
    /// Recalibrations applied to the model's cycle prediction.
    pub recalibrations: u64,
    /// Times the model demoted to cycle-accurate execution.
    pub demotions: u64,
    /// Times the model promoted back to the analytical fast path.
    pub promotions: u64,
    /// Whether the model was still demoted when the session drained (on any
    /// merged shard).
    pub demoted: bool,
    /// The model's self-reported calibrated error bound — the line its EWMA
    /// drift is judged against.
    pub error_bound: f64,
    /// Worst absolute EWMA drift the model reached on any shard.
    pub max_abs_ewma_drift: f64,
}

impl ModelCalibration {
    /// Folds another shard's row for the same model into this one: counters
    /// add, `demoted` ors, the bound and the EWMA peak fold through `max`.
    fn merge(&mut self, other: &Self) {
        self.samples += other.samples;
        self.recalibrations += other.recalibrations;
        self.demotions += other.demotions;
        self.promotions += other.promotions;
        self.demoted |= other.demoted;
        self.error_bound = self.error_bound.max(other.error_bound);
        self.max_abs_ewma_drift = self.max_abs_ewma_drift.max(other.max_abs_ewma_drift);
    }
}

/// Per-SLO-class serving statistics: the latency split that shows whether
/// priority scheduling actually protected the latency-sensitive tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassServeStats {
    /// The class the row describes.
    pub class: SloClass,
    /// Requests of this class in the trace.
    pub total: usize,
    /// Requests of this class executed to completion.
    pub served: usize,
    /// Requests of this class rejected by admission control.
    pub rejected: usize,
    /// Served requests of this class that finished past their deadline.
    pub deadline_misses: usize,
    /// Median served latency of the class (cycles, sketch-quantized).
    pub latency_p50_cycles: u64,
    /// 99th-percentile served latency of the class (cycles,
    /// sketch-quantized).
    pub latency_p99_cycles: u64,
}

/// Per-chip serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipServeStats {
    /// Chip index within the fleet.
    pub chip: usize,
    /// Request groups the chip executed.
    pub groups: usize,
    /// Requests the chip served (sum of its groups' batch sizes).
    pub requests: usize,
    /// Cycles the chip spent busy (reload + execution).
    pub busy_cycles: u64,
    /// `busy_cycles / makespan_cycles` — 0 when the run is empty.
    pub utilization: f64,
}

/// Aggregated outcome of one serving run.
///
/// Every field derives from the trace, the serve configuration and
/// deterministic simulation — a fixed seed and configuration reproduce the
/// report byte for byte, independent of the worker-thread count.
///
/// Latency percentiles come from a [`LatencySketch`], so they are upper
/// bounds on the exact nearest-rank values with relative error at most
/// `1/32` (~3.125%); `latency_max_cycles` stays exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Serve seed the run used.
    pub seed: u64,
    /// Number of chips in the fleet.
    pub chips: usize,
    /// Requests in the replayed trace.
    pub total_requests: usize,
    /// Requests executed to completion.
    pub served_requests: usize,
    /// Requests rejected by admission control.
    pub rejected_requests: usize,
    /// Served requests that finished past their deadline.
    pub deadline_misses: usize,
    /// Request groups formed by dynamic batching.
    pub groups_formed: usize,
    /// Groups actually executed (formed minus rejected).
    pub groups_executed: usize,
    /// Mean executed batch size (`served / groups_executed`).
    pub mean_batch_size: f64,
    /// Virtual completion time of the last group (cycles).
    pub makespan_cycles: u64,
    /// Median served latency (cycles, arrival to group completion).
    pub latency_p50_cycles: u64,
    /// 95th-percentile served latency (cycles).
    pub latency_p95_cycles: u64,
    /// 99th-percentile served latency (cycles).
    pub latency_p99_cycles: u64,
    /// Worst served latency (cycles, exact).
    pub latency_max_cycles: u64,
    /// Served requests per second of virtual time at the nominal frequency.
    pub throughput_rps: f64,
    /// Mean per-macro power over all executed simulation cycles (mW).
    pub avg_macro_power_mw: f64,
    /// Worst droop observed anywhere in the fleet (mV).
    pub worst_irdrop_mv: f64,
    /// Total IRFailures raised across the fleet.
    pub failures: u64,
    /// Total simulated chip cycles across all executions.
    pub simulated_cycles: u64,
    /// Chips running the analytical fast path (0 for a homogeneous
    /// cycle-accurate fleet).
    pub analytical_chips: usize,
    /// Sampled-verification drift statistics; `Some` whenever the fleet has
    /// analytical chips and verification was enabled.
    pub verification: Option<VerificationStats>,
    /// Online calibration-loop activity; `Some` whenever the fleet has
    /// analytical chips and [`ServeConfig::calibration`] was set.
    ///
    /// [`ServeConfig::calibration`]: crate::runtime::ServeConfig::calibration
    pub calibration: Option<CalibrationStats>,
    /// Per-chip statistics, indexed by chip id.
    pub per_chip: Vec<ChipServeStats>,
    /// Per-SLO-class statistics, in ascending priority order
    /// (best-effort, standard, latency-sensitive).
    pub per_class: Vec<ClassServeStats>,
}

/// Nearest rank (1-based) of quantile `q` in a sample of `len` elements,
/// computed entirely in integer arithmetic.
///
/// `q` is quantized to parts-per-billion first, which captures every
/// decimal quantile anyone writes (0.5, 0.95, 0.999, ...) exactly; the
/// rank is then `ceil(q_ppb * len / 1e9)` — no float product, so no
/// representation-boundary mis-rank at large `len` (the old
/// `(q * len as f64).ceil()` path returns rank 210_001 instead of 210_000
/// for `q = 0.07, len = 3_000_000`).
fn nearest_rank(len: usize, q: f64) -> usize {
    debug_assert!(q.is_finite());
    let q_ppb = (q.clamp(0.0, 1.0) * 1e9).round() as u128;
    let rank = (q_ppb * len as u128).div_ceil(1_000_000_000) as usize;
    rank.clamp(1, len.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in `(0, 1]`).
/// Returns 0 for an empty sample.  The rank is computed in integer
/// arithmetic (see [`nearest_rank`]); results are exact, unlike the
/// sketch-quantized percentiles in [`ServeReport`].
#[must_use]
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Sub-bucket resolution: 2^5 = 32 buckets per octave, giving a one-sided
/// relative quantile error of at most `1/32` (~3.125%).
const SKETCH_SUB_BITS: u32 = 5;
const SKETCH_SUB_BUCKETS: usize = 1 << SKETCH_SUB_BITS;
/// Octaves above the linear range: values up to `u64::MAX` land in octave
/// `63 - SKETCH_SUB_BITS = 58`, so 59 octaves of 32 buckets follow the 32
/// exact linear buckets.
const SKETCH_OCTAVES: usize = 64 - SKETCH_SUB_BITS as usize;
/// Bucket count up to `u64::MAX`: 32 linear + 59 × 32 log buckets = 1920,
/// the most a sketch's count array can hold.
const SKETCH_BUCKETS: usize = SKETCH_SUB_BUCKETS * (1 + SKETCH_OCTAVES);

/// A deterministic fixed-bucket quantile sketch for `u64` latency samples.
///
/// HDR-histogram layout: values below 64 are recorded exactly (the first
/// two rows of buckets have width 1); above that, each octave `[2^k,
/// 2^(k+1))` splits into 32 equal-width buckets, so a quantile read
/// over-estimates the exact nearest-rank value by less than `1/32` of it.
/// The count array ends at the highest occupied bucket (it is empty when
/// nothing was recorded), so memory grows with the largest latency, never
/// with the number of samples: at most 1920 `u64` counters (15 KiB), for
/// a sample of `u64::MAX`.  Recording allocates only when a sample lands in
/// a bucket above every earlier one.
///
/// Quantile reads report the **upper bound** of the selected bucket,
/// clamped to the exact tracked maximum: `exact ≤ sketch ≤ exact * 33/32`,
/// and `percentile(q)` never exceeds [`Self::max`].
///
/// [`Self::merge`] adds count arrays element-wise (the shorter one padded
/// with zeros) and takes the larger maximum, making it associative *and*
/// commutative — shards combine into byte-identical sketches in any order
/// or grouping, since the array ending at the highest occupied bucket is
/// the one representation of a set of counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySketch {
    count: u64,
    max: u64,
    counts: Vec<u64>,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// Documented one-sided relative error denominator: quantile reads
    /// over-estimate by at most `1/SKETCH_ERROR_DENOM` of the exact value.
    pub const ERROR_DENOM: u64 = SKETCH_SUB_BUCKETS as u64;

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            max: 0,
            counts: Vec::new(),
        }
    }

    /// Bucket index of `value`: exact below 64, then 32 buckets per octave.
    fn bucket_index(value: u64) -> usize {
        if value < SKETCH_SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = (63 - value.leading_zeros() - SKETCH_SUB_BITS) as usize;
        let sub = ((value >> octave) as usize) - SKETCH_SUB_BUCKETS;
        SKETCH_SUB_BUCKETS + octave * SKETCH_SUB_BUCKETS + sub
    }

    /// Largest value mapping to bucket `index` (the quantile
    /// representative).
    fn bucket_upper(index: usize) -> u64 {
        if index < SKETCH_SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index - SKETCH_SUB_BUCKETS) / SKETCH_SUB_BUCKETS;
        let sub = ((index - SKETCH_SUB_BUCKETS) % SKETCH_SUB_BUCKETS) as u64;
        ((SKETCH_SUB_BUCKETS as u64 + sub) << octave) + ((1u64 << octave) - 1)
    }

    /// Extends the count array with empty buckets to `len`, reserving up
    /// to the end of `len`'s octave: a sketch reallocates at most once per
    /// octave its samples reach and holds fewer than 32 unused counters.
    /// (`Vec`'s amortised doubling could hold twice the buckets in use,
    /// past the 1920 of a full array; growing bucket by bucket would
    /// reallocate on every new highest bucket.)
    fn cover(&mut self, len: usize) {
        debug_assert!(len <= SKETCH_BUCKETS);
        if len > self.counts.len() {
            let octave_end = len.next_multiple_of(SKETCH_SUB_BUCKETS);
            self.counts.reserve_exact(octave_end - self.counts.len());
            self.counts.resize(len, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let index = Self::bucket_index(value);
        self.cover(index + 1);
        self.counts[index] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank quantile read (`q` in `(0, 1]`; 0 when empty): the
    /// upper bound of the bucket holding the rank, clamped to the exact
    /// maximum.  Over-estimates the exact nearest-rank value by at most
    /// `1/32` of it and is monotone in `q`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count as usize, q) as u64;
        let mut cumulative = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Folds another sketch into this one: counts add element-wise, the
    /// maximum is the larger of the two.  Associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.cover(other.counts.len());
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// Fixed-point scale for the cycle-weighted power sum: micro-(mW·cycles).
/// Rounding each group's contribution to an integer *before* summing makes
/// the fold associative — the sum is identical in any absorption or merge
/// order, unlike an `f64` running sum.
const POWER_FP_SCALE: f64 = 1e6;
/// Fixed-point scale for the drift sum: parts per 10^12.
const DRIFT_FP_SCALE: f64 = 1e12;

/// Order-free electrical aggregate over all executed groups: integer sums
/// (fixed-point for the power numerator) plus an `f64` maximum, all of
/// which are associative folds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ExecAgg {
    simulated_cycles: u64,
    failures: u64,
    /// `sum(round(avg_macro_power_mw * cycles.max(1) * 1e6))` per group.
    power_weighted_fp: u128,
    /// `sum(cycles.max(1))` per group — the denominator weight.
    weight_cycles: u128,
    worst_irdrop_mv: f64,
}

impl ExecAgg {
    fn absorb(&mut self, exec: &PlanExecution) {
        let weight = exec.cycles.max(1);
        self.simulated_cycles += exec.cycles;
        self.failures += exec.failures;
        self.power_weighted_fp +=
            (exec.avg_macro_power_mw * weight as f64 * POWER_FP_SCALE).round() as u128;
        self.weight_cycles += u128::from(weight);
        self.worst_irdrop_mv = self.worst_irdrop_mv.max(exec.worst_irdrop_mv);
    }

    fn merge(&mut self, other: &Self) {
        self.simulated_cycles += other.simulated_cycles;
        self.failures += other.failures;
        self.power_weighted_fp += other.power_weighted_fp;
        self.weight_cycles += other.weight_cycles;
        self.worst_irdrop_mv = self.worst_irdrop_mv.max(other.worst_irdrop_mv);
    }

    fn avg_macro_power_mw(&self) -> f64 {
        if self.weight_cycles == 0 {
            0.0
        } else {
            (self.power_weighted_fp as f64 / POWER_FP_SCALE) / self.weight_cycles as f64
        }
    }
}

/// Order-free verification aggregate: each sample's relative drift is
/// quantized to parts-per-10^12 and summed as an integer; the worst drift
/// folds through `max` and bound violations through a sticky flag.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct VerifyAgg {
    sampled: usize,
    drift_fp_sum: u128,
    max_cycle_drift: f64,
    bound_violated: bool,
}

impl VerifyAgg {
    fn absorb(&mut self, analytical_cycles: u64, accurate_cycles: u64, error_bound: f64) {
        let drift = (analytical_cycles as f64 - accurate_cycles as f64).abs()
            / accurate_cycles.max(1) as f64;
        self.sampled += 1;
        self.drift_fp_sum += (drift * DRIFT_FP_SCALE).round() as u128;
        self.max_cycle_drift = self.max_cycle_drift.max(drift);
        if drift > error_bound {
            self.bound_violated = true;
        }
    }

    fn merge(&mut self, other: &Self) {
        self.sampled += other.sampled;
        self.drift_fp_sum += other.drift_fp_sum;
        self.max_cycle_drift = self.max_cycle_drift.max(other.max_cycle_drift);
        self.bound_violated |= other.bound_violated;
    }

    fn mean_cycle_drift(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            (self.drift_fp_sum as f64 / DRIFT_FP_SCALE) / self.sampled as f64
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ClassAcc {
    total: usize,
    served: usize,
    rejected: usize,
    deadline_misses: usize,
    latencies: LatencySketch,
}

/// Incremental [`ServeReport`] builder: absorb request groups one at a
/// time, then [`Self::finish`] freezes the percentiles and utilizations.
/// The event-driven session feeds one of these *as groups resolve* (state
/// is dropped once absorbed, so session memory stays bounded); sharded
/// deployments can also drive accumulators directly.
///
/// Two accumulators from *sharded* sessions (disjoint chip pools fed
/// disjoint traffic over the same virtual timeline) combine with
/// [`Self::merge`]: counters add, latency sketches add element-wise, the
/// other shard's chips re-index after this shard's, and the makespan is
/// the later of the two — so a fleet split across sessions reports exactly
/// like one session serving the union.
///
/// Determinism: every aggregate is an associative integer fold (or a
/// maximum), so the finished report is byte-identical regardless of merge
/// grouping and — for everything except the chip re-indexing and the
/// left-most seed — merge *order*.  Memory is O(chips + classes), never
/// O(requests).
///
/// Absorb order is free as well: the `absorb_*` and
/// [`Self::note_group_formed`] calls commute, so one set of calls made in
/// any order yields the same accumulator and the same report bytes
/// (`tests/accumulator_merge.rs` pins this).  The session depends on it —
/// it folds each group in when the group executes, not in commit order —
/// so any new field must be an order-free fold too: an integer sum, a
/// maximum, a sticky flag or a sketch count, never an `f64` running sum or
/// anything else that remembers the sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportAccumulator {
    seed: u64,
    chips: usize,
    nominal_ghz: f64,
    analytical_chips: usize,
    verify_enabled: bool,
    fleet_error_bound: f64,
    groups_formed: usize,
    makespan_cycles: u64,
    per_chip: Vec<ChipServeStats>,
    /// The only request ledger: one row per class, ascending priority.
    /// The overall totals and latency sketch are their sums.
    per_class: Vec<ClassAcc>,
    exec: ExecAgg,
    verify: VerifyAgg,
    /// Per-model calibration rows (row index = model), `Some` once a
    /// session with the online calibration loop reported its state
    /// ([`Self::record_calibration`]); `None` otherwise.
    cal: Option<Vec<ModelCalibration>>,
}

impl ReportAccumulator {
    /// An empty accumulator for a fleet of `chips` chips running at
    /// `nominal_ghz` (the frequency converting virtual cycles to seconds for
    /// the throughput figure).
    #[must_use]
    pub fn new(seed: u64, chips: usize, nominal_ghz: f64) -> Self {
        Self {
            seed,
            chips,
            nominal_ghz,
            analytical_chips: 0,
            verify_enabled: false,
            fleet_error_bound: 0.0,
            groups_formed: 0,
            makespan_cycles: 0,
            per_chip: (0..chips)
                .map(|chip| ChipServeStats {
                    chip,
                    groups: 0,
                    requests: 0,
                    busy_cycles: 0,
                    utilization: 0.0,
                })
                .collect(),
            per_class: vec![ClassAcc::default(); SloClass::ALL.len()],
            exec: ExecAgg::default(),
            verify: VerifyAgg::default(),
            cal: None,
        }
    }

    /// Declares the fleet's analytical composition: how many chips run the
    /// analytical fast path, whether sampled verification is on, and the
    /// fleet-wide worst calibrated error bound (reported for context; each
    /// sample is judged against its own plan's bound).
    pub fn set_analytical_context(
        &mut self,
        analytical_chips: usize,
        verify_enabled: bool,
        fleet_error_bound: f64,
    ) {
        self.analytical_chips = analytical_chips;
        self.verify_enabled = verify_enabled;
        self.fleet_error_bound = fleet_error_bound;
    }

    /// Records that dynamic batching committed one more group (admitted or
    /// not).
    pub fn note_group_formed(&mut self) {
        self.groups_formed += 1;
    }

    /// Absorbs one request bounced by admission control.
    pub fn absorb_rejected_request(&mut self, slo: SloClass) {
        let acc = &mut self.per_class[slo.index()];
        acc.total += 1;
        acc.rejected += 1;
    }

    /// Absorbs one served request of an executed group (latency accounting).
    pub fn absorb_served_request(
        &mut self,
        slo: SloClass,
        latency_cycles: u64,
        deadline_missed: bool,
    ) {
        let acc = &mut self.per_class[slo.index()];
        acc.total += 1;
        acc.served += 1;
        acc.latencies.record(latency_cycles);
        if deadline_missed {
            acc.deadline_misses += 1;
        }
    }

    /// Absorbs the chip-level outcome of one executed group: occupancy on
    /// `chip` from `start_cycles` to `finish_cycles` serving `batch_size`
    /// requests, plus the execution's electrical aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is outside the fleet declared at construction.
    pub fn absorb_executed_group(
        &mut self,
        chip: usize,
        start_cycles: u64,
        finish_cycles: u64,
        batch_size: usize,
        exec: &PlanExecution,
    ) {
        let stats = &mut self.per_chip[chip];
        stats.groups += 1;
        stats.requests += batch_size;
        stats.busy_cycles += finish_cycles - start_cycles;
        self.makespan_cycles = self.makespan_cycles.max(finish_cycles);
        self.exec.absorb(exec);
    }

    /// Absorbs one sampled-verification measurement (an analytical group
    /// additionally replayed cycle-accurately), judged against `error_bound`
    /// — the calibrated bound of the group's *own* plan.
    pub fn absorb_verify_sample(
        &mut self,
        analytical_cycles: u64,
        accurate_cycles: u64,
        error_bound: f64,
    ) {
        self.verify
            .absorb(analytical_cycles, accurate_cycles, error_bound);
    }

    /// Records one session's online calibration-loop state, one row per
    /// model ([`ModelCalibration::model`] must equal the row's index).  The
    /// EWMA excursion is quantized to parts per 10^12 on the way in, a
    /// monotone map that `max` commutes with, so shard merges stay
    /// associative.  Calling this on an accumulator that already holds rows
    /// (a merged shard tree) folds the new rows in counter-for-counter.
    pub fn record_calibration(&mut self, per_model: &[ModelCalibration]) {
        let quantized = per_model
            .iter()
            .map(|row| ModelCalibration {
                max_abs_ewma_drift: ((row.max_abs_ewma_drift * DRIFT_FP_SCALE).round() as u64)
                    as f64
                    / DRIFT_FP_SCALE,
                ..*row
            })
            .collect();
        self.merge_calibration(quantized);
    }

    /// Folds per-model calibration rows into this accumulator's, row by row;
    /// rows beyond this accumulator's model count are adopted as they are.
    fn merge_calibration(&mut self, incoming: Vec<ModelCalibration>) {
        let Some(rows) = &mut self.cal else {
            self.cal = Some(incoming);
            return;
        };
        for (row, other) in rows.iter_mut().zip(&incoming) {
            row.merge(other);
        }
        let known = rows.len();
        rows.extend(incoming.into_iter().skip(known));
    }

    /// Folds another shard's accumulator into this one (see the type-level
    /// docs for the sharding semantics).  The merge is associative — the
    /// counters and fixed-point sums add, the sketches add element-wise,
    /// and the bounds fold through `max` — so a shard tree can combine in
    /// any grouping (not any *order*: chips re-index in merge order); the
    /// resulting seed is the left-most shard's.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on the nominal frequency: the merged
    /// throughput figure divides by one cycles-to-seconds factor, so a
    /// silent mismatch would misreport every merged rate.
    pub fn merge(&mut self, other: Self) {
        assert!(
            (self.nominal_ghz - other.nominal_ghz).abs() < 1e-12,
            "sharded sessions must share one nominal frequency \
             ({} GHz vs {} GHz)",
            self.nominal_ghz,
            other.nominal_ghz
        );
        self.chips += other.chips;
        self.analytical_chips += other.analytical_chips;
        self.verify_enabled |= other.verify_enabled;
        self.fleet_error_bound = self.fleet_error_bound.max(other.fleet_error_bound);
        self.groups_formed += other.groups_formed;
        self.makespan_cycles = self.makespan_cycles.max(other.makespan_cycles);
        let offset = self.per_chip.len();
        self.per_chip
            .extend(other.per_chip.into_iter().map(|mut c| {
                c.chip += offset;
                c
            }));
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.total += theirs.total;
            mine.served += theirs.served;
            mine.rejected += theirs.rejected;
            mine.deadline_misses += theirs.deadline_misses;
            mine.latencies.merge(&theirs.latencies);
        }
        self.exec.merge(&other.exec);
        self.verify.merge(&other.verify);
        if let Some(theirs) = other.cal {
            self.merge_calibration(theirs);
        }
    }

    /// Freezes the accumulated state into a [`ServeReport`].
    #[must_use]
    pub fn finish(&self) -> ServeReport {
        let mut latencies = LatencySketch::new();
        for acc in &self.per_class {
            latencies.merge(&acc.latencies);
        }
        let served_requests = latencies.count() as usize;
        let sum = |field: fn(&ClassAcc) -> usize| self.per_class.iter().map(field).sum();

        let mut per_chip = self.per_chip.clone();
        for stats in &mut per_chip {
            stats.utilization = if self.makespan_cycles == 0 {
                0.0
            } else {
                stats.busy_cycles as f64 / self.makespan_cycles as f64
            };
        }

        let per_class = SloClass::ALL
            .iter()
            .map(|&class| {
                let acc = &self.per_class[class.index()];
                ClassServeStats {
                    class,
                    total: acc.total,
                    served: acc.served,
                    rejected: acc.rejected,
                    deadline_misses: acc.deadline_misses,
                    latency_p50_cycles: acc.latencies.percentile(0.50),
                    latency_p99_cycles: acc.latencies.percentile(0.99),
                }
            })
            .collect();

        let verification = if self.verify_enabled {
            Some(VerificationStats {
                sampled: self.verify.sampled,
                mean_cycle_drift: self.verify.mean_cycle_drift(),
                max_cycle_drift: self.verify.max_cycle_drift,
                error_bound: self.fleet_error_bound,
                // Zero samples is not a pass: a gate keyed on this field
                // must never go green without a measurement.
                within_bound: !self.verify.bound_violated && self.verify.sampled > 0,
            })
        } else {
            None
        };

        let groups_executed: usize = per_chip.iter().map(|c| c.groups).sum();
        ServeReport {
            seed: self.seed,
            chips: self.chips,
            total_requests: sum(|c| c.total),
            served_requests,
            rejected_requests: sum(|c| c.rejected),
            deadline_misses: sum(|c| c.deadline_misses),
            groups_formed: self.groups_formed,
            groups_executed,
            mean_batch_size: if groups_executed == 0 {
                0.0
            } else {
                served_requests as f64 / groups_executed as f64
            },
            makespan_cycles: self.makespan_cycles,
            latency_p50_cycles: latencies.percentile(0.50),
            latency_p95_cycles: latencies.percentile(0.95),
            latency_p99_cycles: latencies.percentile(0.99),
            latency_max_cycles: latencies.max(),
            throughput_rps: if self.makespan_cycles == 0 {
                0.0
            } else {
                served_requests as f64 / (self.makespan_cycles as f64 / (self.nominal_ghz * 1e9))
            },
            avg_macro_power_mw: self.exec.avg_macro_power_mw(),
            worst_irdrop_mv: self.exec.worst_irdrop_mv,
            failures: self.exec.failures,
            simulated_cycles: self.exec.simulated_cycles,
            analytical_chips: self.analytical_chips,
            verification,
            calibration: self.cal.as_ref().map(|rows| CalibrationStats {
                samples: rows.iter().map(|m| m.samples).sum(),
                recalibrations: rows.iter().map(|m| m.recalibrations).sum(),
                demotions: rows.iter().map(|m| m.demotions).sum(),
                promotions: rows.iter().map(|m| m.promotions).sum(),
                max_abs_ewma_drift: rows
                    .iter()
                    .map(|m| m.max_abs_ewma_drift)
                    .fold(0.0f64, f64::max),
                per_model: rows.clone(),
            }),
            per_chip,
            per_class,
        }
    }
}

/// Per-class DAG accounting row (whole DAGs, not stages).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagClassStats {
    /// The class the row describes (the DAG instance's class).
    pub class: SloClass,
    /// DAG instances of this class submitted.
    pub total: usize,
    /// Instances whose every stage was served.
    pub completed: usize,
    /// Completed instances whose end-to-end latency broke the DAG deadline.
    pub deadline_misses: usize,
    /// Median end-to-end latency of completed instances (cycles,
    /// sketch-quantized).
    pub e2e_p50_cycles: u64,
    /// 99th-percentile end-to-end latency of completed instances.
    pub e2e_p99_cycles: u64,
}

/// DAG-level accounting of one orchestrated run, attached to
/// [`crate::fleet::FleetReport::dag`] by
/// [`crate::dag::DagOrchestrator::drain`]: whole-DAG conservation and
/// end-to-end latency on top of the per-request serving report (DAG stages
/// are ordinary requests there).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagServeStats {
    /// DAG instances submitted.
    pub dags: usize,
    /// Instances whose every stage was served.
    pub completed: usize,
    /// Instances that lost at least one stage (per-DAG admission shed, a
    /// mid-flight stage rejection, or eviction).  `completed + failed ==
    /// dags` once drained — a DAG either fully completes or counts here.
    pub failed: usize,
    /// Completed instances that broke their end-to-end deadline.
    pub deadline_misses: usize,
    /// Stages across all instances.
    pub stages_total: usize,
    /// Stages executed to completion.
    pub stages_served: usize,
    /// Stages bounced by per-stage admission control mid-flight.
    pub stages_rejected: usize,
    /// Stages shed without submission (whole-DAG admission, a failed
    /// sibling stage, or eviction).  `served + rejected + shed ==
    /// stages_total` once drained — the stage conservation law.
    pub stages_shed: usize,
    /// Stages whose class was promoted above their own by priority
    /// inheritance from a downstream stage.
    pub inherited_promotions: usize,
    /// Point (non-DAG) requests routed through the orchestrator.
    pub points: usize,
    /// Median end-to-end latency over completed instances (arrival of the
    /// DAG to the measured finish of its last stage; sketch-quantized).
    pub e2e_p50_cycles: u64,
    /// 99th-percentile end-to-end latency over completed instances.
    pub e2e_p99_cycles: u64,
    /// Worst end-to-end latency over completed instances.
    pub e2e_max_cycles: u64,
    /// Per-class rows, ascending priority order.
    pub per_class: Vec<DagClassStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sample, 0.50), 50);
        assert_eq!(percentile_sorted(&sample, 0.95), 95);
        assert_eq!(percentile_sorted(&sample, 0.99), 99);
        assert_eq!(percentile_sorted(&sample, 1.0), 100);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.01), 7);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[3, 9], 0.5), 3);
        assert_eq!(percentile_sorted(&[3, 9], 0.51), 9);
    }

    /// Regression for the float nearest-rank: `(0.07 * 3_000_000.0).ceil()`
    /// lands on a representation boundary and returns rank 210_001; the
    /// integer path must return the true nearest rank 210_000.
    #[test]
    fn percentile_rank_is_exact_at_hyperscale_lengths() {
        let float_rank = (0.07f64 * 3_000_000f64).ceil() as usize;
        assert_eq!(float_rank, 210_001, "platform reproduces the float bug");

        let sample: Vec<u64> = (1..=3_000_000).collect();
        assert_eq!(percentile_sorted(&sample, 0.07), 210_000);
        assert_eq!(percentile_sorted(&sample, 0.95), 2_850_000);
        assert_eq!(percentile_sorted(&sample, 0.999), 2_997_000);
        assert_eq!(percentile_sorted(&sample, 1.0), 3_000_000);
    }

    #[test]
    fn sketch_is_exact_below_sixty_four() {
        let mut sketch = LatencySketch::new();
        for v in 0..64u64 {
            sketch.record(v);
        }
        assert_eq!(sketch.count(), 64);
        assert_eq!(sketch.max(), 63);
        for v in 0..64u64 {
            let q = (v + 1) as f64 / 64.0;
            assert_eq!(sketch.percentile(q), v);
        }
    }

    #[test]
    fn sketch_percentile_bounds_and_clamps_to_max() {
        let mut sketch = LatencySketch::new();
        let mut exact = Vec::new();
        let mut v = 1u64;
        while v < 1_000_000_000 {
            sketch.record(v);
            exact.push(v);
            v = v * 3 + 1;
        }
        exact.sort_unstable();
        for &q in &[0.05, 0.50, 0.95, 0.99, 1.0] {
            let s = sketch.percentile(q);
            let e = percentile_sorted(&exact, q);
            assert!(s >= e, "sketch {s} under-estimates exact {e} at q={q}");
            assert!(
                (s - e).saturating_mul(LatencySketch::ERROR_DENOM) <= e,
                "sketch {s} beyond 1/32 above exact {e} at q={q}"
            );
        }
        assert_eq!(sketch.percentile(1.0), sketch.max());
    }

    #[test]
    fn sketch_merge_matches_pooled_recording() {
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        let mut pooled = LatencySketch::new();
        for i in 0..1000u64 {
            let v = i * i * 37 + 5;
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
            pooled.record(v);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, pooled);
        let mut reversed = right;
        reversed.merge(&left);
        assert_eq!(reversed, pooled);
    }
}
